import pytest
from hypothesis import given, strategies as st

from rootseq.rootsys import (
    NotARoot,
    ParseError,
    PosRoot,
    UnsupportedType,
    build_root_system,
    dynkin_edges,
)

from conftest import act, longest_word

SMALL = [("A", 2), ("A", 5), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8)]

COUNTS = {("A", 2): 3, ("A", 5): 15, ("D", 4): 12, ("D", 5): 20,
          ("E", 6): 36, ("E", 7): 63, ("E", 8): 120}


@pytest.mark.parametrize("kind,rank", SMALL)
def test_positive_root_counts(kind, rank):
    assert len(build_root_system(kind, rank).positive_roots) == COUNTS[(kind, rank)]


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_neighbours_are_the_adjacency_of_the_edges(kind, rank):
    """``neighbours``, read off the Cartan matrix, holds each vertex's
    neighbours along the Dynkin edges, 1-based and ascending, () at 0."""
    system = build_root_system(kind, rank)
    want = [[] for _ in range(rank + 1)]
    for a, b in system.edges:
        want[a].append(b)
        want[b].append(a)
    assert system.neighbours == tuple(tuple(sorted(v)) for v in want)


@pytest.mark.parametrize("kind,rank", SMALL)
def test_parse_format_roundtrip(kind, rank):
    sys_ = build_root_system(kind, rank)
    for r in sys_.positive_roots:
        assert sys_.parse_root(sys_.format_root(r)) == r


def test_a_type_interval_notation():
    sys_ = build_root_system("A", 5)
    assert sys_.parse_root("[2,4]").coeffs == (0, 1, 1, 1, 0)
    assert sys_.format_root(sys_.root((0, 1, 1, 1, 0))) == "[2,4]"
    assert sys_.format_root(sys_.root((1, 0, 0, 0, 0))) == "[1]"


def test_d_type_eps_notation(d4):
    # alpha_i = e_i - e_{i+1} for i < n, alpha_n = e_{n-1} + e_n
    assert d4.parse_root("{1|-2}").coeffs == (1, 0, 0, 0)
    assert d4.parse_root("{3|4}").coeffs == (0, 0, 0, 1)
    assert d4.parse_root("{3|-4}").coeffs == (0, 0, 1, 0)
    # e_1 + e_2 is the highest root alpha_1 + 2 alpha_2 + alpha_3 + alpha_4
    assert d4.parse_root("{1|2}") == d4.highest_root
    assert d4.format_root(d4.root((1, 1, 0, 0))) == "{1|-3}"
    for r in d4.positive_roots:
        a, b = d4.eps_summands(r)
        vec = [0] * 4
        vec[a[0] - 1] += a[1]
        vec[abs(b[0]) - 1] += b[1]
        assert tuple(2 * x for x in vec) == d4.eps_vector(r)


def test_e_type_digit_notation(e6):
    assert e6.parse_root("123212").coeffs == (1, 2, 3, 2, 1, 2)
    assert e6.format_root(e6.root((1, 2, 3, 2, 1, 2))) == "(123212)"
    assert e6.parse_root("(111001)").coeffs == (1, 1, 1, 0, 0, 1)


@pytest.mark.parametrize("kind,rank", SMALL)
def test_highest_root_and_coxeter_number(kind, rank):
    """h_dual is derived from the highest root; pin it to the known values:
    n + 1 for A_n, 2n - 2 for D_n, and 12, 18, 30 for E6, E7, E8."""
    sys_ = build_root_system(kind, rank)
    known = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2,
             "E": {6: 12, 7: 18, 8: 30}.get}
    assert sys_.dual_coxeter == known[kind](rank)


@pytest.mark.parametrize("kind,rank", SMALL)
def test_root_sum_closure(kind, rank):
    """alpha + beta is a root iff the system says so; spot check sums."""
    sys_ = build_root_system(kind, rank)
    roots = set(sys_.positive_roots)
    for a in sys_.positive_roots[:12]:
        for b in sys_.positive_roots[:12]:
            s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            assert sys_.is_positive_root(s) == (PosRoot(s) in roots)


@given(st.sampled_from(SMALL), st.data())
def test_reflection_involution(params, data):
    sys_ = build_root_system(*params)
    r = data.draw(st.sampled_from(sys_.positive_roots))
    i = data.draw(st.integers(1, sys_.rank))
    assert sys_.reflect(sys_.reflect(r.coeffs, i), i) == r.coeffs


@pytest.mark.parametrize("kind,rank", SMALL)
def test_w0_involution_is_diagram_automorphism(kind, rank):
    sys_ = build_root_system(kind, rank)
    inv = sys_.w0_involution
    edges = {frozenset(e) for e in dynkin_edges(kind, rank)}
    assert {frozenset((inv[a], inv[b])) for a, b in dynkin_edges(kind, rank)} == edges
    assert all(inv[inv[i]] == i for i in inv)


def test_w0_involution_matches_longest_word(d4, e6):
    for sys_ in (d4, e6, build_root_system("A", 4)):
        w0 = longest_word(sys_)
        for i in range(1, sys_.rank + 1):
            img = act(sys_, w0.letters, sys_.simple_root(i))
            neg = tuple(-x for x in img.coeffs)
            assert neg == sys_.simple_root(sys_.w0_involution[i]).coeffs


def test_mul_and_height():
    e8 = build_root_system("E", 8)
    assert e8.highest_root.mul == 6
    assert e8.highest_root.height == 29


def test_errors(a5):
    with pytest.raises(UnsupportedType):
        build_root_system("B", 3)
    with pytest.raises(ParseError):
        a5.parse_root("[zz]")
    with pytest.raises(NotARoot):
        a5.root((1, 0, 1, 0, 0))
