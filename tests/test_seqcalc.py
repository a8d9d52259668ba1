import itertools

import pytest

from rootseq.arquiver import all_orientations, build_ar_quiver, find_quiver
from rootseq.orders import RootSequence, coarse_less
from rootseq.rootsys import build_root_system
from rootseq.seqcalc import (
    PartitionCap,
    _pair_weight,
    _partitions,
    dist,
    dist_chain,
    gdist,
    gdist_chain,
    good_adjacent,
    good_neighbors,
    is_simple,
    is_simple_pair,
    is_simple_pair_brute,
    length,
    minimal_sequences,
    pairs_of_weight,
    radius,
    sequences_of_weight,
    socle,
    socle_candidates,
)
from rootseq.words import ReducedWord, heap_of

D4_WORD = (3, 2, 1, 4) * 3
E6_WORD = (1, 2, 6, 3, 5, 4, 6, 1, 3, 2, 6, 3, 5, 6, 4, 1, 3, 2, 6,
           3, 5, 6, 4, 1, 3, 2, 6, 3, 5, 6, 4, 1, 3, 2, 6, 3)

E6_ARROWS = ((1, 2), (2, 3), (3, 4), (4, 5), (6, 3))
E7_ARROWS = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4))
E8_ARROWS = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


@pytest.fixture(scope="module")
def d4_cls(d4):
    return heap_of(ReducedWord(D4_WORD, d4))


@pytest.fixture(scope="module")
def e6_cls(e6):
    return heap_of(ReducedWord(E6_WORD, e6))


def _arq_cls(kind, rank, arrows):
    from rootseq.arquiver import DynkinQuiver

    sys_ = build_root_system(kind, rank)
    return build_ar_quiver(DynkinQuiver.from_arrows(sys_, arrows)).comm_class()


def _pair(cls, a, b):
    return RootSequence.from_strings(cls, [a, b])


# -- simplicity ---------------------------------------------------------


def test_d4_simplicity_examples(d4_cls):
    assert is_simple(_pair(d4_cls, "{2|4}", "{1|3}"))
    assert not is_simple(_pair(d4_cls, "{2|-4}", "{1|2}"))


def test_singletons_are_simple(d4_cls):
    for r in d4_cls.roots:
        assert is_simple(RootSequence.from_roots(d4_cls, [r]))


@pytest.mark.parametrize(
    "kind,rank", [("A", 3), ("A", 4), ("D", 4), ("A", 5), ("D", 5)]
)
def test_simple_pair_matches_brute_force(kind, rank):
    sys_ = build_root_system(kind, rank)
    for Q in itertools.islice(all_orientations(sys_), 3):
        cls = build_ar_quiver(Q).comm_class()
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                assert is_simple_pair(cls, i, j) == is_simple_pair_brute(cls, i, j)


def test_exists_mode_is_first_enumerated_partition():
    """The existence test stops at the first partition the enumeration
    lists, on every comparable pair of the E6 reference class."""
    cls = _arq_cls("E", 6, E6_ARROWS)
    seen = 0
    for i in range(len(cls)):
        for j in range(len(cls)):
            if not cls.prec_pos(i, j):
                continue
            between, wt = cls.interval(i, j), _pair_weight(cls, i, j)
            found = _partitions(cls, between, wt)
            assert _partitions(cls, between, wt, first=True) == found[:1]
            assert is_simple_pair(cls, i, j) == (not found)
            seen += bool(found)
    assert seen  # the class has non-simple pairs


# -- socle --------------------------------------------------------------


def test_d4_socle(d4_cls):
    s = socle(_pair(d4_cls, "{2|-4}", "{1|2}"))
    assert s is not None
    assert s.counts == RootSequence.from_strings(
        d4_cls, ["{1|-4}", "{2|3}", "{2|-3}"]
    ).counts


def test_d4_minimal_pairs(d4_cls):
    one = RootSequence.from_strings(d4_cls, ["{1|2}"])
    mins = minimal_sequences(one)
    want = {
        RootSequence.from_strings(d4_cls, [a, b]).counts
        for a, b in [("{1|-4}", "{2|4}"), ("{2|-3}", "{1|3}"), ("{2|3}", "{1|-3}")]
    }
    assert {m.counts for m in mins} == want
    with pytest.raises(ValueError):
        minimal_sequences(_pair(d4_cls, "{2|-4}", "{1|2}"))


def test_e6_total_class_socle_not_unique(e6_cls):
    """Over this (non-adapted-looking) total class the pair (110000,123211)
    has three simple sequences below it, so the socle is undefined."""
    p = _pair(e6_cls, "110000", "123211")
    assert not is_simple(p)
    assert dist(p) == 1
    cands = socle_candidates(p)
    want = {
        RootSequence.from_strings(e6_cls, pairtxt).counts
        for pairtxt in (
            ["122111", "111100"],
            ["111000", "122211"],
            ["111110", "122101"],
        )
    }
    assert {c.counts for c in cands} == want
    assert socle(p) is None


def test_e6_adapted_dist_one_gdist_two():
    cls = _arq_cls("E", 6, E6_ARROWS)
    p = _pair(cls, "111001", "123212")
    assert dist(p) == 1
    assert gdist(p) == 2
    s = socle(p)
    assert s is not None
    assert s.counts == RootSequence.from_strings(
        cls, ["001001", "122101", "111111"]
    ).counts
    mins = minimal_sequences(s)
    min_counts = {m.counts for m in mins}
    m1 = RootSequence.from_strings(cls, ["111101", "122111", "001001"])
    m2 = RootSequence.from_strings(cls, ["011001", "112101", "111111"])
    assert m1.counts in min_counts and m2.counts in min_counts
    # p lies strictly above both minimal sequences, so is not minimal itself
    assert p.counts not in min_counts
    assert coarse_less(m1, p) and coarse_less(m2, p)


def test_e8_socle_is_unique():
    cls = _arq_cls("E", 8, E8_ARROWS)
    p = _pair(cls, "11111100", "12233321")
    s = socle(p)
    assert s is not None
    assert s.counts == RootSequence.from_strings(
        cls, ["11111111", "11222210", "01011100"]
    ).counts


# -- dist / gdist -------------------------------------------------------


def test_dist_gdist_agree_on_pairs_in_types_a_d(d4_cls):
    sys_ = build_root_system("A", 4)
    a4_cls = build_ar_quiver(next(all_orientations(sys_))).comm_class()
    for cls in (d4_cls, a4_cls):
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                counts = [0] * len(cls)
                counts[i] = counts[j] = 1
                p = RootSequence(cls, tuple(counts))
                assert dist(p) == gdist(p)


def test_dist_rejects_non_pairs(d4_cls):
    with pytest.raises(ValueError):
        dist(RootSequence.from_strings(d4_cls, ["{1|2}"]))


def test_chain_witnesses(d4_cls):
    p = _pair(d4_cls, "{2|-4}", "{1|2}")
    d = dist(p)
    chain = dist_chain(p)
    assert len(chain) == d
    assert chain[-1].counts == p.counts
    for a, b in zip(chain, chain[1:]):
        assert coarse_less(a, b)
    g = gdist(p)
    gchain = gdist_chain(p)
    assert len(gchain) == g
    assert all(not is_simple(m) for m in gchain)
    for a, b in zip(gchain, gchain[1:]):
        assert coarse_less(a, b)
    # simple pairs have empty chains
    assert dist_chain(_pair(d4_cls, "{2|4}", "{1|3}")) == ()


def test_e6_gdist_chain():
    cls = _arq_cls("E", 6, E6_ARROWS)
    p = _pair(cls, "111001", "123212")
    chain = gdist_chain(p)
    assert len(chain) == 2
    assert chain[-1].counts == p.counts
    assert coarse_less(chain[0], chain[1])
    assert not is_simple(chain[0])


# -- good neighbors, length, radius -------------------------------------


def test_e7_good_neighbors():
    cls = _arq_cls("E", 7, E7_ARROWS)
    u = _pair(cls, "1111100", "0112221")
    u1 = _pair(cls, "0111111", "1112210")
    u2 = _pair(cls, "1122211", "0101110")
    nbrs = {q.counts for q in good_neighbors(u)}
    assert u1.counts in nbrs and u2.counts in nbrs
    # the intermediate pairs of the two reference chains are neighbors too
    mid1 = _pair(cls, "1111110", "0112211")
    mid2 = _pair(cls, "0111100", "1112221")
    assert mid1.counts in nbrs and mid2.counts in nbrs
    assert length(u) == len(nbrs)
    d = dist(u)
    assert good_adjacent(mid1, u, threshold=d)
    assert good_adjacent(u1, mid1, threshold=d)
    assert good_adjacent(mid2, u, threshold=d)
    assert good_adjacent(u2, mid2, threshold=d)


def test_d4_radius(d4_cls):
    sys_ = d4_cls.system
    high = sys_.parse_root("{1|2}")
    assert radius(d4_cls, high) == 2
    for r in sys_.positive_roots:
        if r.height > 1 and r != high:
            assert radius(d4_cls, r) == 1
    with pytest.raises(ValueError):
        radius(d4_cls, sys_.parse_root("{1|-2}"))


def test_e7_radius_of_multiplicity_two_root():
    cls = _arq_cls("E", 7, E7_ARROWS)
    sys_ = cls.system
    g = sys_.parse_root("1122221")
    from rootseq.rootsys import mul

    assert mul(g) == 2
    assert radius(cls, g) == 3


# -- enumeration and caps ----------------------------------------------


def test_pairs_of_weight_matches_filtered_sequences(d4_cls):
    wt = d4_cls.system.parse_root("{1|2}").coeffs
    pairs = {p.counts for p in pairs_of_weight(d4_cls, wt)}
    full = {
        s.counts
        for s in sequences_of_weight(d4_cls, wt)
        if s.size() == 2 and max(s.counts) == 1
    }
    assert pairs == full and pairs


def test_weights_past_a_small_field():
    """Coordinates of 33 and 40 overflow a fixed 5-bit field; the packing
    must size its fields from the weight."""
    cls = heap_of(ReducedWord((1, 2, 1), build_root_system("A", 2)))
    assert len(sequences_of_weight(cls, (33, 33))) == 34
    assert [s.counts for s in sequences_of_weight(cls, (40, 0))] == [(40, 0, 0)]


def test_partition_cap(d4):
    cls = heap_of(ReducedWord(D4_WORD, d4))  # fresh class, empty caches
    wt = d4.parse_root("{1|2}").coeffs
    with pytest.raises(PartitionCap):
        sequences_of_weight(cls, wt, cap=1)


@pytest.mark.parametrize("warm", [False, True])
def test_cap_holds_on_cached_enumerations(warm):
    """Calls that enumerate more partitions than their cap raise whether or
    not an uncapped call has cached the enumeration, and do not change what
    an uncapped call answers.  The existence test is never capped."""
    from rootseq.arquiver import DynkinQuiver

    e6 = build_root_system("E", 6)
    # a fresh class, so that no other test has filled its caches
    cls = heap_of(build_ar_quiver(DynkinQuiver.from_arrows(e6, E6_ARROWS)).reading())
    p = _pair(cls, "111001", "012211")  # 12 interval partitions
    one = RootSequence.from_strings(cls, ["123211"])

    def uncapped():
        found = (socle_candidates(p), gdist_chain(p), minimal_sequences(one))
        return [[m.counts for m in seqs] for seqs in found]

    before = uncapped() if warm else None
    for capped in (
        lambda: socle_candidates(p, cap=11),
        lambda: gdist(p, cap=11),
        lambda: gdist_chain(p, cap=1),
        lambda: socle(p, cap=1),
        lambda: minimal_sequences(one, cap=1),
        lambda: sequences_of_weight(cls, one.weight(), cap=1),
    ):
        with pytest.raises(PartitionCap):
            capped()
    assert gdist(p, cap=12) == len(gdist_chain(p, cap=12)) > 0
    assert not is_simple(p) and dist(p) > 0
    after = uncapped()
    assert all(after)
    if warm:
        assert after == before
