import json

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


def test_cap_exit_3(capsys):
    code, _, err = run(capsys, "word", "class", "--type", "A4",
                       "--word", " ".join(map(str, [1, 2, 1, 3, 2, 1, 4, 3, 2, 1])),
                       "--cap-class", "2")
    assert code == 3 and "error" in err


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


def test_out_file(tmp_path, capsys):
    target = tmp_path / "roots.txt"
    code, out, _ = run(capsys, "word", "roots", "--type", "A2",
                       "--word", "1 2 1", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().split() == ["[1]", "[1,2]", "[2]"]


def test_determinism(capsys):
    a = run(capsys, "denom", "table", "--type", "D4", "--format", "json")
    b = run(capsys, "denom", "table", "--type", "D4", "--format", "json")
    assert a == b and a[0] == 0
