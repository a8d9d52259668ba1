import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rootseq.cli import main

D4_ARGS = ["--quiver", "D4:3>2,2>1,2>4"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_word_roots(capsys):
    code, out, _ = run(capsys, "word", "roots", "--type", "A2", "--word", "1 2 1")
    assert code == 0
    assert out.split() == ["[1]", "[1,2]", "[2]"]


def test_word_class_json(capsys):
    code, out, _ = run(capsys, "word", "class", "--type", "A2",
                       "--word", "1 2 1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 1 and data["members"] == [[1, 2, 1]]


def test_word_quiver_detection(capsys):
    code, out, _ = run(capsys, "word", "quiver", "--type", "A3", "--word", "1 2 1 3 2 1")
    assert code == 0 and ">" in out
    code, out, _ = run(capsys, "word", "quiver", "--type", "A5",
                       "--word", "1 2 3 5 4 3 1 2 3 5 4 3 1 2 3")
    assert code == 0 and "not adapted" in out


@pytest.mark.parametrize("word", ["1", "1 2"])
def test_word_quiver_short_word(capsys, word):
    """[Q] is a class of reduced words of w0: a shorter word has no quiver,
    even where several orientations admit it as a source sequence."""
    code, out, _ = run(capsys, "word", "quiver", "--type", "A3", "--word", word)
    assert code == 0 and out.strip() == "not adapted to any quiver"


def test_order_relations(capsys):
    code, out, _ = run(capsys, "order", *D4_ARGS,
                       "--seq-a", "{1|-4},{2|3},{2|-3}", "--seq-b", "{2|-4},{1|2}")
    assert code == 0
    rel = dict(line.split(": ") for line in out.strip().splitlines())
    assert rel["coarse"] == "True" and rel["coarse_rev"] == "False"


def test_pair_socle_text(capsys):
    code, out, _ = run(capsys, "pair", "socle", *D4_ARGS,
                       "--pair", "{2|-4},{1|2}")
    assert code == 0
    # entries come out in the class order of the chosen quiver
    assert out.strip() == "({1|-4},{2|-3},{2|3})"


def test_pair_dist_json_has_chain(capsys):
    code, out, _ = run(capsys, "pair", "dist", *D4_ARGS,
                       "--pair", "{2|-4},{1|2}", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["dist"] == len(data["chain"]) >= 1


def test_pair_radius(capsys):
    code, out, _ = run(capsys, "pair", "radius", *D4_ARGS,
                       "--gamma", "{1|2}", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["radius"] == 2 and data["mul"] == 2


def test_denom_poly_and_table(capsys):
    code, out, _ = run(capsys, "denom", "poly", "--quiver", "A3:1>2,2>3",
                       "--k", "1", "--l", "2")
    assert code == 0 and out.strip() == "(z+q^3)"
    code, out, _ = run(capsys, "denom", "table", "--type", "A3",
                       "--all-orientations", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 6
    d13 = next(e for e in entries if (e["k"], e["l"]) == (1, 3))
    assert d13["correction"] and d13["factors"] == [{"t": 4, "mult": 1}]


def test_denom_poly_latex(capsys):
    code, out, _ = run(capsys, "denom", "poly", "--quiver", "A3:1>2,2>3",
                       "--k", "1", "--l", "2", "--format", "latex")
    assert code == 0 and out.strip() == "(z+q^{3})"


def test_denom_verify_has_no_latex(capsys):
    """denom verify reports in text or JSON; asked for LaTeX it exits 2 and
    names the format instead of printing text."""
    code, out, err = run(capsys, "denom", "verify", "--type", "A3",
                         "--all-orientations", "--format", "latex")
    assert code == 2 and out == "" and "--format latex" in err


def test_denom_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "denom", "verify", "--type", "A3", "--all-orientations")
    assert code == 0
    assert all(line.endswith("ok") for line in out.strip().splitlines())


def test_arq_show_dot_and_diff(capsys):
    code, out, _ = run(capsys, "arq", "show", *D4_ARGS, "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "arq", "diff", "--fixture", "e6")
    assert code == 0 and out.strip() == "match"


def test_arq_show_rank_one(capsys):
    code, out, _ = run(capsys, "arq", "show", "--type", "A1")
    assert code == 0 and "[1]" in out


def test_verify_fixtures(capsys):
    code, out, _ = run(capsys, "verify", "fixtures")
    assert code == 0 and out.strip() == "ok"


def test_verify_rds_mul_d4(capsys):
    code, out, _ = run(capsys, "verify", "rds-mul", "--type", "D4",
                       "--orient", "3>2,2>1,2>4")
    assert code == 0 and out.strip() == "ok"


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "word", "roots", "--word", "1")[0] == 2  # no type
    assert run(capsys, "pair", "socle", *D4_ARGS)[0] == 2  # no --pair
    assert run(capsys, "word", "roots", "--type", "A2", "--word", "1 1")[0] == 2
    assert run(capsys, "pair", "socle", *D4_ARGS, "--pair", "[1,2],[3]")[0] == 2
    assert run(capsys, "arq", "diff", "--fixture", "nope")[0] == 2
    assert run(capsys, "verify", "dist-bound", "--type", "E6",
               "--orient", "1>2,2>3,3>4,4>5,6>3")[0] == 2


@pytest.mark.parametrize("action", ["roots", "class", "heap", "quiver"])
def test_word_without_word_exit_2(capsys, action):
    """A missing --word is a usage error, not a fault of the program."""
    code, out, err = run(capsys, "word", action, "--type", "A2")
    assert code == 2 and out == ""
    assert "--word is required" in err and "Traceback" not in err


@pytest.mark.parametrize("system", [
    ["--type", "A3"], ["--type", "D5"], ["--type", "D", "--rank", "5"],
    ["--type", "E6"],
], ids=["other-kind", "other-rank", "other-rank-flag", "exceptional"])
def test_quiver_contradicting_type_exit_2(capsys, system):
    """--quiver of another system than --type/--rank names both and exits 2,
    where it printed the --quiver system's table under the --type label."""
    code, out, err = run(capsys, "denom", "table", *system, *D4_ARGS)
    assert code == 2 and out == ""
    assert "D4:3>2,2>1,2>4" in err and " ".join(system) in err


@pytest.mark.parametrize("system", [
    [], ["--type", "D4"], ["--type", "D", "--rank", "4"], ["--type", "d4"],
    ["--type", "D04"],
], ids=["quiver-alone", "same-type", "same-type-and-rank", "lower-case", "leading-zero"])
def test_quiver_agreeing_with_type(capsys, system):
    code, out, _ = run(capsys, "denom", "poly", *system, *D4_ARGS,
                       "--k", "1", "--l", "2")
    assert code == 0 and out.strip() == "(z+q^3)(z+q^5)"
    if system:
        code, out, _ = run(capsys, "denom", "table", *system, *D4_ARGS)
        assert code == 0 and len(out.splitlines()) == 10


@pytest.mark.parametrize("command,last", [
    (["denom", "table"], "d_4,4(z) = (z-q^2)(z-q^6)"),
    (["denom", "verify"], "2>1,2>4,3>2: ok"),
    (["verify", "rds-mul"], "ok"), (["verify", "dist-bound"], "ok"),
], ids=["denom-table", "denom-verify", "rds-mul", "dist-bound"])
def test_quiver_alone_names_the_system(capsys, command, last):
    """--quiver without --type runs every command that takes a quiver,
    where the sweeps exited 2 asking for --type."""
    code, out, err = run(capsys, *command, *D4_ARGS)
    assert code == 0 and err == "" and out.splitlines()[-1] == last


@pytest.mark.parametrize("quiver", [
    ["--type", "D4", "--orient", "3>2,2>1,2>4"], D4_ARGS, ["--type", "D4", *D4_ARGS],
    ["--type", "A3", *D4_ARGS],
], ids=["orient", "quiver", "quiver-and-type", "quiver-contradicting-type"])
@pytest.mark.parametrize("command", [
    ["denom", "table"], ["denom", "verify"], ["verify", "rds-mul"],
    ["verify", "dist-bound"],
])
def test_all_orientations_with_a_quiver_exit_2(capsys, command, quiver):
    """--all-orientations with a given quiver is a usage error, where the
    sweep ran over every orientation of --type and ignored the quiver."""
    code, out, err = run(capsys, *command, "--all-orientations", *quiver)
    assert code == 2 and out == ""
    assert "--all-orientations takes no --orient or --quiver" in err


@pytest.mark.parametrize("k,l,named", [
    ("9", "1", "--k 9"), ("0", "1", "--k 0"), ("-1", "1", "--k -1"),
    ("1", "4", "--l 4"), ("1", "0", "--l 0"),
])
def test_denom_poly_index_outside_rank_exit_2(capsys, k, l, named):
    """--k and --l outside 1..rank name the value and the rank and exit 2,
    where they printed the polynomial 1."""
    code, out, err = run(capsys, "denom", "poly", "--quiver", "A3:1>2,2>3",
                         "--k", k, "--l", l)
    assert code == 2 and out == ""
    assert f"{named} is outside 1..3, the rank" in err


@pytest.mark.parametrize("exc", [KeyError, ValueError, RuntimeError])
def test_internal_error_exit_4(capsys, monkeypatch, exc):
    """A bare exception from inside the library is a fault of the program,
    not of the input: exit 4 with the traceback on stderr, not 2."""
    import rootseq.cli

    def broken(word):
        raise exc("lost")

    monkeypatch.setattr(rootseq.cli, "roots_of_word", broken)
    code, _, err = run(capsys, "word", "roots", "--type", "A2", "--word", "1 2 1")
    assert code == 4
    assert f"internal error: {exc.__name__}" in err and "Traceback" in err


def test_radius_with_no_pair_of_its_weight_exits_2(capsys):
    """The class of a word shorter than w0 can hold a root and no pair of
    its weight: radius is then outside its domain."""
    code, _, err = run(capsys, "pair", "radius", "--type", "A2", "--word", "1 2",
                       "--gamma", "[1,2]")
    assert code == 2 and "no pairs above ([1,2])" in err


def test_domain_errors_exit_2(capsys):
    """Statistics asked outside their domain, roots missing from the word
    and malformed numbers are usage errors."""
    assert run(capsys, "pair", "dist", *D4_ARGS, "--pair", "{1|2}")[0] == 2
    assert run(capsys, "pair", "radius", *D4_ARGS, "--gamma", "{1|-2}")[0] == 2
    assert run(capsys, "pair", "minimal", *D4_ARGS, "--pair", "{2|-4},{1|2}")[0] == 2
    assert run(capsys, "pair", "simple", "--type", "A3", "--word", "1 2",
               "--pair", "[1],[3]")[0] == 2
    assert run(capsys, "word", "roots", "--type", "A2", "--word", "1 x")[0] == 2
    assert run(capsys, "word", "roots", "--type", "A2", "--word", "1 5")[0] == 2
    assert run(capsys, "arq", "show", "--quiver", "E:1>2")[0] == 2
    assert run(capsys, "arq", "show", "--type", "A3", "--orient", "1>3,2>3")[0] == 2
    assert run(capsys, "denom", "poly", "--quiver", "A3:1>2,2>3")[0] == 2


A4_W0 = ["--type", "A4", "--word", "1 2 1 3 2 1 4 3 2 1"]  # a class of 12 members


def test_cap_exit_3(capsys):
    code, _, err = run(capsys, "word", "class", *A4_W0, "--cap-class", "2")
    assert code == 3 and "error" in err


def test_word_class_cap_boundary(capsys):
    """--cap-class N lists a class of exactly N members; with N - 1 it exits 3
    on seeing the N-th member and names the cap."""
    code, out, _ = run(capsys, "word", "class", *A4_W0, "--cap-class", "12")
    members = [tuple(map(int, line.split())) for line in out.strip().splitlines()]
    assert code == 0 and len(members) == 12 and members == sorted(set(members))
    assert members[0] == (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)
    code, out, err = run(capsys, "word", "class", *A4_W0, "--cap-class", "11")
    assert code == 3 and out == ""
    assert "exceeds cap 11 (saw 12)" in err


@pytest.mark.parametrize("argv", [
    ["denom", "table", "--type", "E6", "--cap-partitions", "1"],
    ["denom", "table", "--type", "A3", "--word", "1 2"],
    ["word", "roots", "--type", "A2", "--word", "1 2 1", "--orient", "1>2"],
    ["pair", "dist", *D4_ARGS, "--pair", "{2|-4},{1|2}", "--cap-class", "5"],
    ["order", *D4_ARGS, "--seq-a", "{1|2}", "--seq-b", "{1|-4}",
     "--cap-partitions", "5"],
    ["verify", "fixtures", "--cap-class", "5"],
], ids=["denom-cap-partitions", "denom-word", "word-orient", "pair-cap-class",
        "order-cap-partitions", "verify-cap-class"])
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


E6_QUIVER = ["--quiver", "E6:1>2,2>3,3>4,4>5,6>3"]
E6_PAIR = ["--pair", "111001,012211"]  # 12 interval partitions
# exit code of each pair action under --cap-partitions 1: enumerations list
# the partitions of the pair's interval or of the root and pass the cap;
# existence tests list at most one partition and are never capped
CAPPED_EXIT = {
    "socle": (E6_PAIR, 3),
    "gdist": (E6_PAIR, 3),
    "minimal": (["--pair", "123211"], 3),
    "simple": (E6_PAIR, 0),
    "dist": (E6_PAIR, 0),
    "len": (E6_PAIR, 0),
    "radius": (["--gamma", "123211"], 0),
}


@pytest.mark.parametrize("action", sorted(CAPPED_EXIT))
def test_pair_cap_partitions(capsys, action):
    target, code = CAPPED_EXIT[action]
    assert run(capsys, "pair", action, *E6_QUIVER, *target)[0] == 0
    got, _, err = run(capsys, "pair", action, *E6_QUIVER, *target,
                      "--cap-partitions", "1")
    assert got == code
    assert ("more than 1 partitions" in err) == (code == 3)


def test_pair_cap_names_the_pair(capsys):
    """A gdist whose pair's interval passes the cap exits 3 and names the
    pair as well as the cap."""
    code, out, err = run(capsys, "pair", "gdist", *E6_QUIVER, *E6_PAIR,
                         "--cap-partitions", "0")
    assert code == 3 and out == ""
    assert "more than 0 partitions" in err
    assert "pair ((111001),(012211))" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "roots.txt"
    code, out, _ = run(capsys, "word", "roots", "--type", "A2",
                       "--word", "1 2 1", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().split() == ["[1]", "[1,2]", "[2]"]


def test_out_file_holds_every_line(tmp_path, capsys):
    """A multi-line text result goes to --out whole, as it goes to stdout."""
    argv = ["denom", "verify", "--type", "D4", "--all-orientations"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(out.splitlines()) == 8
    target = tmp_path / "verify.txt"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == out


def test_determinism(capsys):
    a = run(capsys, "denom", "table", "--type", "D4", "--format", "json")
    b = run(capsys, "denom", "table", "--type", "D4", "--format", "json")
    assert a == b and a[0] == 0


def test_closed_stdout_exits_141():
    """A reader that closes the pipe before the command writes (as
    ``| head -1`` may) gives exit 141, the shell's code for SIGPIPE, and no
    traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rootseq.cli", "denom", "table", "--type", "A3"],
            stdout=write, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr
