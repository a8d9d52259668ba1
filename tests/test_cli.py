import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rootseq.cli import main

D4_ARGS = ["--type", "D4", "--orient", "3>2,2>1,2>4"]
A3_ARGS = ["--type", "A3", "--orient", "1>2,2>3"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def rejected(capsys, *argv):
    """The stderr of argv, which argparse rejects with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    return out.err


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
    code, out, _ = run(capsys, "denom", "poly", *A3_ARGS, "--k", "1", "--l", "2")
    assert code == 0 and out.strip() == "(z+q^3)"
    code, out, _ = run(capsys, "denom", "table", "--type", "A3",
                       "--all-orientations", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 6
    d13 = next(e for e in entries if (e["k"], e["l"]) == (1, 3))
    assert d13["correction"] and d13["factors"] == [{"t": 4, "mult": 1}]


def test_denom_table_e8_check_all(capsys):
    """The E8 table over all 128 orientations with --check-all (the whole
    system checked first: one gdist per ordered slot, every reflection
    premise) exits 0 and prints the table printed without it."""
    from rootseq.denom import _memo

    argv = ["denom", "table", "--type", "E8", "--all-orientations"]
    try:
        code, checked, _ = run(capsys, *argv, "--check-all")
        assert code == 0
        assert run(capsys, *argv) == (0, checked, "")
    finally:
        _memo.cache_clear()


def test_denom_table_names_the_orientations_that_differ(capsys, monkeypatch):
    """When the tables of two orientations differ, denom table exits 1 and
    names the first orientation, the first one whose table differs from it
    and the first (k, l) where the two differ, with both polynomials."""
    from rootseq import cli
    from rootseq.denom import DistancePolynomial

    real = cli.denominator_table

    def changed(Q):
        """The real table, but d_{1,2} times (z+q^9) on 2>1,3>2, the last."""
        table = real(Q)
        if Q.orientation_str() != "2>1,3>2":
            return table
        e = table[1]
        poly = DistancePolynomial.from_dict({**e.poly.as_dict(), 9: 1})
        return (table[0], e._replace(poly=poly), *table[2:])

    monkeypatch.setattr(cli, "denominator_table", changed)
    code, out, err = run(capsys, "denom", "table", "--type", "A3", "--all-orientations")
    assert (code, out) == (1, "")
    assert err == ("error: distance polynomials differ across orientations: d_1,2 is"
                   " (z+q^3) on 1>2,2>3 but (z+q^3)(z+q^9) on 2>1,3>2\n")


def test_denom_poly_latex(capsys):
    code, out, _ = run(capsys, "denom", "poly", *A3_ARGS,
                       "--k", "1", "--l", "2", "--format", "latex")
    assert code == 0 and out.strip() == "(z+q^{3})"


def test_denom_verify_has_no_latex(capsys):
    """denom verify reports in text or JSON; asked for LaTeX it exits 2 and
    names the format instead of printing text."""
    err = rejected(capsys, "denom", "verify", "--type", "A3",
                   "--all-orientations", "--format", "latex")
    assert "argument --format: invalid choice: 'latex'" in err


def test_denom_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "denom", "verify", "--type", "A3", "--all-orientations")
    assert code == 0
    assert all(line.endswith("ok") for line in out.strip().splitlines())


def test_denom_sweeps_default_to_the_first_orientation(capsys):
    """denom table and denom verify take the same orientations: --orient,
    else every orientation with --all-orientations, else the first
    orientation of --type."""
    from rootseq.arquiver import all_orientations
    from rootseq.rootsys import build_root_system

    first = next(all_orientations(build_root_system("E", 6))).orientation_str()
    for action in ("table", "verify"):
        code, out, err = run(capsys, "denom", action, "--type", "E6")
        assert (code, err) == (0, "")
        assert run(capsys, "denom", action, "--type", "E6", "--orient", first) == (0, out, "")
    assert out == f"{first}: ok\n"


def test_arq_show_dot_and_diff(capsys):
    code, out, _ = run(capsys, "arq", "show", *D4_ARGS, "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "verify", "fixtures", "--fixture", "e6")
    assert code == 0 and out.strip() == "ok"


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


@pytest.mark.parametrize("prop", ["rds-mul", "dist-bound"])
def test_verify_sweep_empties_each_class_cache(capsys, prop):
    """A verify sweep leaves the class of every orientation it swept with an
    empty cache, so a sweep over many orientations holds one class's
    working state at a time."""
    from rootseq.arquiver import all_orientations, build_ar_quiver
    from rootseq.rootsys import build_root_system

    assert run(capsys, "verify", prop, "--type", "D4")[0] == 0
    for Q in all_orientations(build_root_system("D", 4)):
        cache = build_ar_quiver(Q).comm_class().cache
        assert not any(getattr(cache, name) for name in cache.__slots__), Q


def test_usage_errors_exit_2(capsys):
    assert "required: --type" in rejected(capsys, "word", "roots", "--word", "1")
    assert "required: --pair" in rejected(capsys, "pair", "socle", *D4_ARGS)
    assert "required: --gamma" in rejected(capsys, "pair", "radius", *D4_ARGS)
    assert "such as D4, got 'D'" in rejected(capsys, "denom", "table", "--type", "D")
    assert "--word: not allowed with argument --orient" in rejected(
        capsys, "pair", "simple", *D4_ARGS, "--word", "1 2", "--pair", "[1]")
    assert run(capsys, "word", "roots", "--type", "A2", "--word", "1 1")[0] == 2
    assert run(capsys, "pair", "socle", *D4_ARGS, "--pair", "[1,2],[3]")[0] == 2
    assert run(capsys, "verify", "fixtures", "--fixture", "nope")[0] == 2
    assert run(capsys, "verify", "dist-bound", "--type", "E6",
               "--orient", "1>2,2>3,3>4,4>5,6>3")[0] == 2
    code, out, err = run(capsys, "arq", "show", "--type", "A3")
    assert code == 2 and out == "" and "--orient is required" in err


def test_root_not_in_word_is_named_in_root_syntax(capsys):
    """A root outside the word's class is named as the system writes roots,
    with no quotes around the message."""
    code, out, err = run(capsys, "pair", "radius", "--type", "A3", "--word", "1",
                         "--gamma", "[1,2]")
    assert (code, out, err) == (2, "", "error: [1,2] does not occur in this word\n")


def test_missing_fixture_is_named_with_its_path(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ARQ_FIXTURE_DIR", str(tmp_path))
    code, out, err = run(capsys, "verify", "fixtures", "--fixture", "nope")
    want = f"error: no fixture 'nope': {tmp_path / 'nope.json'} does not exist\n"
    assert (code, out, err) == (2, "", want)


def test_repeated_arrow_exit_2(capsys):
    """An arrow given twice covers its edge twice: it exits 2, where the
    repeat was merged away and the quiver shown."""
    code, out, err = run(capsys, "arq", "show", "--type", "A3",
                         "--orient", "1>2,2>3,2>3")
    assert code == 2 and out == ""
    assert "orientation gives an arrow more than once" in err


@pytest.mark.parametrize("action", ["roots", "class", "heap", "quiver"])
def test_word_without_word_exit_2(capsys, action):
    """A missing --word is a usage error, not a fault of the program."""
    err = rejected(capsys, "word", action, "--type", "A2")
    assert "the following arguments are required: --word" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("system", [
    ["--type", "D4"], ["--type", "d4"], ["--type", "D04"],
], ids=["same-type", "lower-case", "leading-zero"])
def test_quiver_agreeing_with_type(capsys, system):
    orient = ["--orient", "3>2,2>1,2>4"]
    code, out, _ = run(capsys, "denom", "poly", *system, *orient, "--k", "1", "--l", "2")
    assert code == 0 and out.strip() == "(z+q^3)(z+q^5)"
    code, out, _ = run(capsys, "denom", "table", *system, *orient)
    assert code == 0 and len(out.splitlines()) == 10


@pytest.mark.parametrize("quiver", [["--type", "D4", "--orient", "3>2,2>1,2>4"]],
                         ids=["orient"])
@pytest.mark.parametrize("command", [["denom", "table"], ["denom", "verify"]])
def test_all_orientations_with_a_quiver_exit_2(capsys, command, quiver):
    """--all-orientations with a given quiver is a usage error, where the
    sweep ran over every orientation of --type and ignored the quiver."""
    err = rejected(capsys, *command, "--all-orientations", *quiver)
    assert "--orient: not allowed with argument --all-orientations" in err


@pytest.mark.parametrize("k,l,named", [
    ("9", "1", "--k 9"), ("0", "1", "--k 0"), ("-1", "1", "--k -1"),
    ("1", "4", "--l 4"), ("1", "0", "--l 0"),
])
def test_denom_poly_index_outside_rank_exit_2(capsys, k, l, named):
    """--k and --l outside 1..rank name the value and the rank and exit 2,
    where they printed the polynomial 1."""
    code, out, err = run(capsys, "denom", "poly", *A3_ARGS, "--k", k, "--l", l)
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
    assert run(capsys, "arq", "show", "--type", "E9", "--orient", "1>2")[0] == 2
    assert run(capsys, "arq", "show", "--type", "A3", "--orient", "1>3,2>3")[0] == 2
    assert run(capsys, "arq", "show", "--type", "A3", "--orient", "1>x,2>3")[0] == 2
    assert "required: --k, --l" in rejected(capsys, "denom", "poly", *A3_ARGS)


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
    ["pair", "gdist", *A3_ARGS, "--pair", "[1],[2,3]", "--cap-partitions", "-1"],
    ["word", "class", *A4_W0, "--cap-class", "-1"],
], ids=["cap-partitions", "cap-class"])
def test_negative_cap_is_a_usage_error(capsys, argv):
    """A negative cap, which no enumeration can meet, exits 2 and names its
    option, where it exited 3 as a cap exceeded."""
    err = rejected(capsys, *argv)
    assert f"argument {argv[-2]}: expected an integer >= 0, got '-1'" in err


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


D4_QUIVER = ["--quiver", "D4:3>2,2>1,2>4"]
D4_PAIR = ["--pair", "{2|-4},{1|2}"]
A2_WORD = ["--type", "A2", "--word", "1 2 1"]


@pytest.mark.parametrize("argv,named", [
    (["arq", "show", "--type", "D4", *D4_QUIVER], "unrecognized arguments: --quiver"),
    (["order", "--type", "D4", *D4_QUIVER, "--seq-a", "{1|2}", "--seq-b", "{1|-4}"],
     "unrecognized arguments: --quiver"),
    (["denom", "table", "--type", "D4", "--rank", "4"], "unrecognized arguments: --rank"),
    (["denom", "table", "--type", "D", "--rank", "4"], "such as D4, got 'D'"),
    (["word", "class", *A2_WORD, "--rank", "2"], "unrecognized arguments: --rank"),
    (["arq", "diff", "--fixture", "e6"], "invalid choice: 'diff'"),
    (["verify", "rds-mul", "--type", "A3", "--all-orientations"],
     "unrecognized arguments: --all-orientations"),
    *((["word", action, *A2_WORD, "--cap-class", "5"],
       "unrecognized arguments: --cap-class") for action in ("roots", "heap", "quiver")),
    *((["pair", action, *D4_ARGS, *D4_PAIR, "--gamma", "{1|2}"],
       "unrecognized arguments: --gamma") for action in ("socle", "gdist")),
    (["pair", "minimal", *D4_ARGS, "--pair", "{1|-4},{2|3},{2|-3}", "--gamma", "{1|2}"],
     "unrecognized arguments: --gamma"),
    *((["pair", action, *D4_ARGS, *D4_PAIR, "--cap-partitions", "5"],
       "unrecognized arguments: --cap-partitions") for action in ("simple", "dist", "len")),
    (["pair", "radius", *D4_ARGS, "--gamma", "{1|2}", *D4_PAIR],
     "unrecognized arguments: --pair"),
    (["denom", "poly", *A3_ARGS, "--k", "1", "--l", "2", "--all-orientations"],
     "unrecognized arguments: --all-orientations"),
    (["denom", "table", "--type", "A3", "--k", "1"], "unrecognized arguments: --k"),
    (["denom", "verify", "--type", "A3", "--all-orientations", "--l", "2"],
     "unrecognized arguments: --l"),
    (["arq", "show", *A3_ARGS, "--fixture", "e6"], "unrecognized arguments: --fixture"),
    *((["verify", prop, "--type", "A3", "--fixture", "e6"],
       "unrecognized arguments: --fixture") for prop in ("rds-mul", "dist-bound")),
    (["verify", "fixtures", "--fixture", "e6", "--type", "A3", "--orient", "1>2,3>2"],
     "unrecognized arguments: --type A3 --orient 1>2,3>2"),
    (["verify", "fixtures", "--fixture", "e6", "--all-orientations"],
     "unrecognized arguments: --all-orientations"),
], ids=lambda v: "-".join(v[:2]) if isinstance(v, list)
    else v.replace("unrecognized arguments: ", ""))
def test_removed_spellings_and_unread_options_exit_2(capsys, argv, named):
    """The second spellings (--quiver, --rank, arq diff, verify
    --all-orientations) and options that a command accepted and never read
    exit 2 and are named, where each of these runs printed a result."""
    assert named in rejected(capsys, *argv)


E6_QUIVER = ["--type", "E6", "--orient", "1>2,2>3,3>4,4>5,6>3"]
E6_PAIR = ["--pair", "111001,012211"]  # 12 interval partitions
# exit code of each pair action under --cap-partitions 1: enumerations list
# the partitions of the pair's interval or of the root and pass the cap
# (3); existence tests list at most one partition, are never capped and
# take no --cap-partitions (2, from argparse)
CAPPED_EXIT = {
    "socle": (E6_PAIR, 3),
    "gdist": (E6_PAIR, 3),
    "minimal": (["--pair", "123211"], 3),
    "simple": (E6_PAIR, 2),
    "dist": (E6_PAIR, 2),
    "len": (E6_PAIR, 2),
    "radius": (["--gamma", "123211"], 2),
}


@pytest.mark.parametrize("action", sorted(CAPPED_EXIT))
def test_pair_cap_partitions(capsys, action):
    target, code = CAPPED_EXIT[action]
    assert run(capsys, "pair", action, *E6_QUIVER, *target)[0] == 0
    argv = ["pair", action, *E6_QUIVER, *target, "--cap-partitions", "1"]
    if code == 2:
        assert "unrecognized arguments: --cap-partitions 1" in rejected(capsys, *argv)
    else:
        got, _, err = run(capsys, *argv)
        assert got == code and "more than 1 partitions" in err


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


@pytest.mark.parametrize("where, reason", [
    ("missing/x", "No such file or directory"),
    (".", "Is a directory"),
])
def test_out_path_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys, where, reason):
    """--out into a directory that does not exist, or naming a directory,
    exits 2 with one error line naming the path, and no traceback."""
    target = tmp_path / where
    code, out, err = run(capsys, "denom", "table", "--type", "A3", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {target}: {reason}\n"


def test_determinism(capsys):
    a = run(capsys, "denom", "table", "--type", "D4", "--format", "json")
    b = run(capsys, "denom", "table", "--type", "D4", "--format", "json")
    assert a == b and a[0] == 0


ROOT = Path(__file__).resolve().parent.parent


def _closed_stdout_run(argv):
    """Run argv with PYTHONPATH=src and a stdout pipe whose read end is
    closed before the child writes."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            argv, stdout=write, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60,
        )
    finally:
        os.close(write)


def test_closed_stdout_exits_141():
    """A reader that closes the pipe before the command writes (as
    ``| head -1`` may) gives exit 141, the shell's code for SIGPIPE, and no
    traceback."""
    proc = _closed_stdout_run(
        [sys.executable, "-m", "rootseq.cli", "denom", "table", "--type", "A3"])
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("script", [
    ["radius_survey.py", "--systems", "E6,E7,E8"],
    ["e6_table.py"],
    ["verify_all.py"],
])
def test_scripts_exit_141_on_closed_stdout(script):
    """The scripts treat a closed stdout as the CLI does."""
    proc = _closed_stdout_run([sys.executable, str(ROOT / "scripts" / script[0]), *script[1:]])
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("systems", ["E", "X4", "E9", "A5,E9"])
def test_radius_survey_rejects_a_bad_system_before_it_prints(systems):
    """Every --systems tag is parsed before the first survey prints; a bad
    one exits 2 with one error line and no traceback."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "radius_survey.py"), "--systems", systems],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: --systems: ") and proc.stderr.count("\n") == 1


def test_verify_all_stops_on_a_closed_stdout(monkeypatch):
    """A CLI run that exits 141 stops the sweep with 141 and is not counted
    as a failure; a run that fails does not stop it."""
    spec = importlib.util.spec_from_file_location("verify_all", ROOT / "scripts" / "verify_all.py")
    verify_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify_all)
    monkeypatch.setattr(sys, "argv", ["verify_all.py"])
    every = (len(verify_all.DENOM_TYPES) + 2 + len(verify_all.RADIUS_TYPES)
             + len(verify_all.DIST_BOUND_TYPES))
    for code, runs, want in ((141, 1, 141), (1, every, 1)):
        calls = []
        monkeypatch.setattr(verify_all, "cli_main", lambda argv: calls.append(argv) or code)
        assert verify_all.main() == want
        assert len(calls) == runs


E6_WITNESSES = """\
witness for (1,4): every comparable pair at residue gap 9 is simple,
so no (z+q^9) factor can arise from the definitions:
  ((100000),(112211)): simple=True
  ((010000),(011110)): simple=True
  ((111101),(000100)): simple=True
  ((122111),(000010)): simple=True

witness for (3,3): a pair at gap 6 with a length-3 chain of
non-simple equal-weight sequences below it:
  pair ((111001),(123211)): gdist = 3
    ((111111),(112101),(011000))
    ((001001),(111111),(111100),(011000))
    ((111001),(123211))
"""


def test_e6_table_reads_one_table_per_orientation(monkeypatch, capsys):
    """scripts/e6_table.py exits 1 while the reference differs: it flags
    d_1,4 and d_3,3 alone, finds every orientation's table identical and
    prints both witness sections.  It reads one denominator table for its
    own orientation and one per orientation of E6: 33 in all."""
    spec = importlib.util.spec_from_file_location("e6_table", ROOT / "scripts" / "e6_table.py")
    e6_table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(e6_table)
    real, asked = e6_table.denominator_table, []
    monkeypatch.setattr(e6_table, "denominator_table", lambda Q: asked.append(Q) or real(Q))
    assert e6_table.main() == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert [line.split()[0] for line in lines if "reference DIFFERS" in line] == [
        "d_1,4", "d_3,3"]
    assert "computed != reading" not in out and "identical" in lines
    assert out.endswith("\n\n" + E6_WITNESSES)
    assert len(asked) == 33 and len(set(asked)) == 32


def test_cli_hash_is_unchanged():
    """scripts/cli_hash.py runs a fixed matrix of 64 CLI invocations in
    process and hashes their arguments, output and exit codes: a change to
    the library or the CLI cannot pass while changing what any of them
    prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_hash.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == [
        "invocations 64  sha256 "
        "c4d8fd8805350e648223e46bd1b881df4baf57bb5cfbac5fbb7d4123718014bf",
    ]
