"""End-to-end acceptance checks, one numbered test (or group) per criterion.

Criterion 8 is parametrized per table entry: the reference type-E6 table is
conjectural and two of its thirteen formulas ((1,4)/(2,5) and (3,3)) do not
match the value computed from the definitions, for any orientation; those
two parameters fail and are expected to fail until the discrepancy is
resolved upstream.  See the repository notes for the computed witnesses.
"""

import itertools
import random

import pytest

from rootseq.arquiver import (
    DynkinQuiver,
    all_orientations,
    build_ar_quiver,
    find_quiver,
)
from rootseq.cli import diff_fixture, load_fixture
from rootseq.denom import denominator, denominator_closed_form
from rootseq.orders import RootSequence, bilex_less, coarse_less
from rootseq.rootsys import build_root_system, mul
from rootseq.seqcalc import (
    dist,
    gdist,
    is_simple,
    minimal_sequences,
    radius,
    socle,
    socle_candidates,
)
from rootseq.words import ReducedWord, heap_of, roots_of_word

from conftest import word_from_root_order

A5_SECT_WORD = (1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1, 5, 4)
A5_SECT_ORDER = ["[1]", "[3]", "[1,3]", "[2,3]", "[3,4]", "[1,4]", "[2,4]",
                 "[4]", "[3,5]", "[1,5]", "[2,5]", "[4,5]", "[5]", "[1,2]", "[2]"]
A5_QUIVER_READINGS = [
    A5_SECT_ORDER,
    ["[3]", "[3,4]", "[3,5]", "[1]", "[1,3]", "[1,4]", "[1,5]", "[1,2]",
     "[2,3]", "[2,4]", "[2,5]", "[2]", "[4]", "[4,5]", "[5]"],
]
D4_READINGS = [
    ["{3|-4}", "{2|-4}", "{1|-4}", "{2|3}", "{2|-3}", "{1|2}",
     "{2|4}", "{1|-3}", "{1|3}", "{1|4}", "{1|-2}", "{3|4}"],
    ["{3|-4}", "{2|-4}", "{1|-4}", "{2|-3}", "{2|3}", "{1|2}",
     "{2|4}", "{1|3}", "{1|-3}", "{1|4}", "{1|-2}", "{3|4}"],
    ["{3|-4}", "{2|-4}", "{2|-3}", "{2|3}", "{1|-4}", "{1|2}",
     "{1|-3}", "{1|3}", "{2|4}", "{1|4}", "{3|4}", "{1|-2}"],
    ["{3|-4}", "{2|-4}", "{2|3}", "{2|-3}", "{1|-4}", "{1|2}",
     "{1|3}", "{1|-3}", "{2|4}", "{1|4}", "{3|4}", "{1|-2}"],
]
NON_ADAPTED_A5 = (1, 2, 3, 5, 4, 3, 1, 2, 3, 5, 4, 3, 1, 2, 3)
E6_ARROWS = ((1, 2), (2, 3), (3, 4), (4, 5), (6, 3))
E6_TOTAL_WORD = (1, 2, 6, 3, 5, 4, 6, 1, 3, 2, 6, 3, 5, 6, 4, 1, 3, 2, 6,
                 3, 5, 6, 4, 1, 3, 2, 6, 3, 5, 6, 4, 1, 3, 2, 6, 3)
E7_ARROWS = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4))
E8_ARROWS = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))

# the conjectured reference type-E6 denominator table, as {exponent: multiplicity}
E6_TABLE = {
    (1, 1): {2: 1, 8: 1},
    (1, 2): {3: 1, 7: 1, 9: 1},
    (1, 3): {4: 1, 6: 1, 8: 1, 10: 1},
    (1, 4): {5: 1, 7: 1, 9: 1, 11: 1},
    (1, 5): {6: 1, 12: 1},
    (1, 6): {5: 1, 9: 1},
    (2, 2): {2: 1, 4: 1, 6: 1, 8: 2, 10: 1},
    (2, 3): {3: 1, 5: 2, 7: 2, 9: 2, 11: 1},
    (2, 4): {4: 1, 6: 2, 8: 1, 10: 1, 12: 1},
    (2, 6): {4: 1, 6: 1, 8: 1, 10: 1},
    (3, 3): {2: 1, 4: 2, 6: 2, 8: 3, 10: 2, 12: 1},
    (3, 6): {3: 1, 5: 1, 7: 2, 9: 1, 11: 1},
    (6, 6): {2: 1, 6: 1, 8: 1, 12: 1},
}
E6_STAR = {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}


def _e6_expected(k, l):
    for kk, ll in ((k, l), (E6_STAR[k], E6_STAR[l]), (E6_STAR[l], E6_STAR[k])):
        key = (min(kk, ll), max(kk, ll))
        if key in E6_TABLE:
            return E6_TABLE[key]
    raise KeyError((k, l))


def _pair(cls, a, b):
    return RootSequence.from_strings(cls, [a, b])


# 1 ---------------------------------------------------------------------


def test_criterion_1_a5_fixture(a5):
    word = ReducedWord(A5_SECT_WORD, a5)
    assert [a5.format_root(r) for r in roots_of_word(word)] == A5_SECT_ORDER
    Q = DynkinQuiver.from_arrows(a5, [(1, 2), (3, 2), (3, 4), (4, 5)])
    arq = build_ar_quiver(Q)
    cls = arq.comm_class()
    for order in A5_QUIVER_READINGS:
        w = word_from_root_order(a5, order)
        assert arq.is_reading(w)
        assert cls.contains(w)


# 2 ---------------------------------------------------------------------


def test_criterion_2_d4_fixture(d4):
    Q = DynkinQuiver.from_arrows(d4, [(3, 2), (2, 1), (2, 4)])
    arq = build_ar_quiver(Q)
    for order in D4_READINGS:
        assert arq.is_reading(word_from_root_order(d4, order))

    cls = heap_of(ReducedWord((3, 2, 1, 4) * 3, d4))
    s = socle(_pair(cls, "{2|-4}", "{1|2}"))
    assert s is not None
    assert s.counts == RootSequence.from_strings(
        cls, ["{1|-4}", "{2|3}", "{2|-3}"]
    ).counts
    mins = {m.counts for m in minimal_sequences(
        RootSequence.from_strings(cls, ["{1|2}"]))}
    assert mins == {
        RootSequence.from_strings(cls, [a, b]).counts
        for a, b in [("{1|-4}", "{2|4}"), ("{2|-3}", "{1|3}"), ("{2|3}", "{1|-3}")]
    }
    assert is_simple(_pair(cls, "{2|4}", "{1|3}"))
    high = d4.parse_root("{1|2}")
    assert radius(cls, high) == 2
    for r in d4.positive_roots:
        if r.height > 1 and r != high:
            assert radius(cls, r) == 1


# 3 ---------------------------------------------------------------------


def test_criterion_3_non_adapted_a5(a5):
    cls = heap_of(ReducedWord(NON_ADAPTED_A5, a5))
    assert find_quiver(cls) is None
    assert dist(_pair(cls, "[1]", "[2,5]")) == 2
    assert dist(_pair(cls, "[1,2]", "[3,5]")) == 2


# 4 ---------------------------------------------------------------------


def test_criterion_4_e6_classes(e6):
    fx = load_fixture("e6")
    Q = DynkinQuiver.from_arrows(e6, fx["arrows"])
    assert Q.arrows == frozenset(E6_ARROWS)
    arq = build_ar_quiver(Q)
    assert diff_fixture(fx, arq) == []

    cls = arq.comm_class()
    p = _pair(cls, "111001", "123212")
    assert dist(p) == 1
    assert gdist(p) == 2
    s = socle(p)
    assert s is not None
    want_s = RootSequence.from_strings(cls, ["001001", "122101", "111111"])
    assert s.counts == want_s.counts
    mins = {m.counts for m in minimal_sequences(s)}
    for texts in (["111101", "122111", "001001"], ["011001", "112101", "111111"]):
        assert RootSequence.from_strings(cls, texts).counts in mins

    total = heap_of(ReducedWord(E6_TOTAL_WORD, e6))
    cands = socle_candidates(_pair(total, "110000", "123211"))
    want = {
        RootSequence.from_strings(total, t).counts
        for t in (["122111", "111100"], ["111000", "122211"], ["111110", "122101"])
    }
    assert {c.counts for c in cands} == want
    assert socle(_pair(total, "110000", "123211")) is None


# 5 ---------------------------------------------------------------------


def test_criterion_5_radius_equals_multiplicity():
    cases = [("A", n) for n in range(2, 6)] + [("D", 4), ("D", 5), ("E", 6)]
    for kind, rank in cases:
        sys_ = build_root_system(kind, rank)
        for Q in all_orientations(sys_):
            cls = build_ar_quiver(Q).comm_class()
            for g in sys_.positive_roots:
                if g.height > 1:
                    assert radius(cls, g) == mul(g), (kind, rank, Q, g)


# 6 ---------------------------------------------------------------------


def test_criterion_6_dist_upper_bound():
    for kind, bound in (("A", 1), ("D", 2)):
        for rank in range(4 if kind == "D" else 2, 6):
            sys_ = build_root_system(kind, rank)
            for Q in all_orientations(sys_):
                cls = build_ar_quiver(Q).comm_class()
                for i in range(len(cls)):
                    for j in range(i + 1, len(cls)):
                        counts = [0] * len(cls)
                        counts[i] = counts[j] = 1
                        assert dist(RootSequence(cls, tuple(counts))) <= bound


# 7 ---------------------------------------------------------------------


def test_criterion_7_denominators_match_closed_forms():
    for kind in ("A", "D"):
        for rank in range(4 if kind == "D" else 2, 7):
            sys_ = build_root_system(kind, rank)
            for Q in all_orientations(sys_):
                for k in range(1, rank + 1):
                    for l in range(k, rank + 1):
                        got = denominator(Q, k, l).poly
                        want = denominator_closed_form(kind, rank, k, l)
                        assert got == want, (kind, rank, Q.orientation_str(), k, l)


# 8 ---------------------------------------------------------------------


@pytest.mark.parametrize("k,l", sorted(E6_TABLE))
def test_criterion_8_e6_conjecture_table(k, l):
    """Computed denominators versus the conjectured reference table, checked on
    every orientation at once.  The (1,4) and (3,3) entries are known not to
    follow from the definitions (witnesses in the repository notes) and fail.
    """
    sys_ = build_root_system("E", 6)
    want = _e6_expected(k, l)
    for Q in all_orientations(sys_):
        got = denominator(Q, k, l).poly.as_dict()
        assert got == want, (Q.orientation_str(), got, want)


def test_criterion_8_orientation_independence():
    sys_ = build_root_system("E", 6)
    tables = set()
    for Q in all_orientations(sys_):
        tables.add(tuple(
            (k, l, denominator(Q, k, l).poly)
            for k in range(1, 7)
            for l in range(k, 7)
        ))
    assert len(tables) == 1


# 9 ---------------------------------------------------------------------


def _check_coarse_oracle(cls):
    from rootseq.seqcalc import sequences_of_weight

    members = list(cls.linear_extensions())
    sums = {
        tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        for a in cls.roots
        for b in cls.roots
    }
    for wt in sorted(sums):
        seqs = sequences_of_weight(cls, wt)
        for a in seqs:
            for b in seqs:
                fast = coarse_less(a, b)
                brute = all(bilex_less(a, b, member=w) for w in members)
                assert fast == brute, (wt, str(a), str(b))


def test_criterion_9_coarse_oracle(d4):
    sys_ = build_root_system("A", 4)
    from rootseq.words import longest_word

    rng = random.Random(2024)
    d = sys_.distance

    def random_word():
        letters = list(longest_word(sys_).letters)
        for _ in range(60):
            k = rng.randrange(len(letters) - 1)
            if d(letters[k], letters[k + 1]) > 1:
                letters[k], letters[k + 1] = letters[k + 1], letters[k]
        return ReducedWord(tuple(letters), sys_)

    seen = set()
    for _ in range(50):
        cls = heap_of(random_word())
        if cls.heap_covers in seen:
            continue
        seen.add(cls.heap_covers)
        _check_coarse_oracle(cls)
    _check_coarse_oracle(heap_of(ReducedWord((3, 2, 1, 4) * 3, d4)))


# 10 --------------------------------------------------------------------


def test_criterion_10_e7_e8_spot_checks():
    e7 = build_root_system("E", 7)
    cls7 = build_ar_quiver(DynkinQuiver.from_arrows(e7, E7_ARROWS)).comm_class()
    assert radius(cls7, e7.parse_root("1122221")) == 3

    e8 = build_root_system("E", 8)
    cls8 = build_ar_quiver(DynkinQuiver.from_arrows(e8, E8_ARROWS)).comm_class()
    # both candidate roots of the radius-5 reference example attain radius 5
    assert radius(cls8, e8.parse_root("23465431")) == 5
    assert radius(cls8, e8.parse_root("23465432")) == 5

    s = socle(_pair(cls8, "11111100", "12233321"))
    assert s is not None
    assert s.counts == RootSequence.from_strings(
        cls8, ["11111111", "11222210", "01011100"]
    ).counts
