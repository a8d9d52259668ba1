import functools
import itertools
import random

import pytest
from conftest import (
    NON_ADAPTED_A5,
    dist_chains,
    good_adjacent,
    good_neighbors_by_sequences,
    is_simple_pair_brute,
    longest_chains,
    packed_roots_by_class,
    radius_by_sequences,
    random_reduced_word,
    root_below_pair,
)
from hypothesis import assume, given, settings, strategies as st

from rootseq.arquiver import (
    DynkinQuiver,
    all_orientations,
    build_ar_quiver,
    find_quiver,
)
from rootseq.orders import RootSequence, coarse_less
from rootseq.rootsys import build_root_system, field_width
from rootseq.seqcalc import (
    DEFAULT_CAP,
    NotInDomain,
    PartitionCap,
    _pair_below,
    _pair_weight,
    _packed_roots,
    _pairs,
    _partitions,
    dist,
    dist_chain,
    gdist,
    gdist_chain,
    good_neighbors,
    is_simple,
    is_simple_pair,
    minimal_sequences,
    pairs_of_weight,
    radius,
    sequences_of_weight,
    socle,
    socle_candidates,
)
from rootseq.words import CommClass, ReducedWord, RootNotInWord

D4_WORD = (3, 2, 1, 4) * 3
E6_WORD = (1, 2, 6, 3, 5, 4, 6, 1, 3, 2, 6, 3, 5, 6, 4, 1, 3, 2, 6,
           3, 5, 6, 4, 1, 3, 2, 6, 3, 5, 6, 4, 1, 3, 2, 6, 3)

E6_ARROWS = ((1, 2), (2, 3), (3, 4), (4, 5), (6, 3))
E7_ARROWS = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4))
E8_ARROWS = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
A4_ARROWS = ((1, 2), (3, 2), (3, 4))
D5_ARROWS = ((1, 2), (2, 3), (3, 4), (3, 5))


@pytest.fixture(scope="module")
def d4_cls(d4):
    return CommClass(ReducedWord(D4_WORD, d4))


@pytest.fixture(scope="module")
def e6_cls(e6):
    return CommClass(ReducedWord(E6_WORD, e6))


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


# systems of the seeded random reduced words of ``_word_classes``
WORD_SYSTEMS = [("A", 4), ("A", 5), ("D", 4), ("D", 5), ("E", 6)]


def _word_classes(kind, rank, longest=None):
    """The classes of seeded random reduced words, one of each length up to
    ``longest`` (N for None), and in A5 the class of NON_ADAPTED_A5:
    classes of no AR quiver, most of them of words shorter than w0."""
    sys_ = build_root_system(kind, rank)
    rng = random.Random(23)
    out = [CommClass(random_reduced_word(sys_, rng, n))
           for n in range(1, min(sys_.N, longest or sys_.N) + 1)]
    if (kind, rank) == ("A", 5):
        out.append(CommClass(ReducedWord(NON_ADAPTED_A5, sys_)))
    return out


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8)],
)
def test_packed_roots_match_the_per_class_packing(kind, rank):
    """The packed roots of a class, placed from the system's one packing,
    equal the packing of the class alone (``packed_roots_by_class``), in
    the same order, with the same height cut-off, for the shared field
    width and a wider one: on a fresh class of w0 (the reading of the
    first orientation) and on the classes of seeded random reduced words
    shorter than w0, which hold some of the roots only."""
    sys_ = build_root_system(kind, rank)
    reading = build_ar_quiver(next(all_orientations(sys_))).comm_class().representative
    rng = random.Random(28)
    classes = [CommClass(reading)] + [
        CommClass(random_reduced_word(sys_, rng, rng.randrange(1, sys_.N)))
        for _ in range(3 if sys_.N > 1 else 0)
    ]
    for cls in classes:
        shared = field_width(cls.system)
        for width in (shared, shared + 2):
            zero, entries, index, upto = _packed_roots(cls, width)
            want_zero, want_entries, want_index, want_upto = packed_roots_by_class(
                cls, width
            )
            assert zero == want_zero
            assert entries == want_entries, cls.representative
            assert list(index.items()) == list(want_index.items())
            assert upto == want_upto, cls.representative


@pytest.mark.parametrize(
    "kind,rank", [("A", 3), ("A", 4), ("D", 4), ("A", 5), ("D", 5), ("E", 6)]
)
def test_simple_pair_matches_brute_force(kind, rank):
    """On the classes of the first 3 orientations (none in E6, where they
    take seconds each) and of ``_word_classes`` up to length 30 (the brute
    force takes 11 s over the E6 words of length 31 to 36).  Asked as
    (j, i), a pair reads the cache entry that (i, j) wrote."""
    sys_ = build_root_system(kind, rank)
    quivers = 0 if kind == "E" else 3
    classes = [build_ar_quiver(Q).comm_class()
               for Q in itertools.islice(all_orientations(sys_), quivers)]
    if (kind, rank) in WORD_SYSTEMS:
        classes += _word_classes(kind, rank, longest=30)
    assert classes
    for cls in classes:
        for i in range(len(cls)):
            for j in range(i + 1, len(cls)):
                simple = is_simple_pair(cls, i, j)
                assert simple == is_simple_pair_brute(cls, i, j)
                store = cls.cache.simple
                store[i, j] = "kept"  # read back, not recomputed
                assert is_simple_pair(cls, j, i) == "kept" and (j, i) not in store
                store[i, j] = simple
                assert is_simple_pair(cls, j, i) == simple


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


def _partitions_reference(cls, within, weight):
    """Every partition of the weight into roots at the positions in the
    mask, by tuple arithmetic and nothing else: the roots highest first
    (ties by coefficients), each taken from its largest multiplicity down
    to 0."""
    roots = cls.roots
    positions = [p for p in range(len(cls)) if within >> p & 1]
    order = sorted(positions, key=lambda p: (-roots[p].height, roots[p].coeffs))
    counts = [0] * len(cls)
    out = []

    def rec(idx, residual):
        if not any(residual):
            out.append(tuple(counts))
            return
        if idx == len(order):
            return
        coeffs = roots[order[idx]].coeffs
        most = min(r // x for r, x in zip(residual, coeffs) if x)
        for c in range(most, -1, -1):
            counts[order[idx]] = c
            rec(idx + 1, tuple(r - c * x for r, x in zip(residual, coeffs)))
        counts[order[idx]] = 0

    rec(0, tuple(weight))
    return out


@pytest.mark.parametrize(
    "kind,rank,arrows", [("A", 4, A4_ARROWS), ("D", 5, D5_ARROWS), ("E", 6, E6_ARROWS)]
)
def test_engine_matches_reference_enumeration(kind, rank, arrows):
    """The packed, pruned search lists the same partitions in the same order
    as a plain recursion, over random intervals and over the whole class,
    for pair weights and for weights wider than the class's shared fields.
    Every root weight is checked over the whole class, over the class
    without the root's position and over the interval of every comparable
    pair of that weight.  Weights with a negative coordinate have no
    partition: every difference of two roots that has one, and every root
    with 2**width taken from its first field and 1 added to its second,
    which packs to the same int as the root."""
    cls = _arq_cls(kind, rank, arrows)
    rng = random.Random(7)
    comparable = [
        (i, j) for i in range(len(cls)) for j in range(len(cls)) if cls.prec_pos(i, j)
    ]
    cases = []
    for i, j in rng.sample(comparable, min(40, len(comparable))):
        cases.append((cls.interval(i, j), _pair_weight(cls, i, j)))
    n = len(cls)
    everywhere = (1 << n) - 1
    # pair weights of height at most 14: the plain recursion takes seconds
    # on the E6 weights near twice the highest root (about 15,000 partitions)
    light = [(i, j) for i in range(n) for j in range(i + 1, n)
             if sum(_pair_weight(cls, i, j)) <= 14]
    for i, j in rng.sample(light, 10):
        cases.append((everywhere, _pair_weight(cls, i, j)))
    # the shared fields hold up to twice the largest root coefficient; a
    # coordinate of `wide` or more needs wider fields of its own
    base = cls.system.highest_root.coeffs
    shared_bits = (2 * max(base)).bit_length()
    wide = 1 << shared_bits
    cases.append((everywhere, (wide,) + base[1:]))
    if kind == "A":  # small enough to enumerate a weight with every coordinate wide
        cases.append((everywhere, (wide, wide + 1, wide, wide + 3)))
    assert any(max(wt).bit_length() > shared_bits for _, wt in cases)
    for g, gamma in enumerate(cls.roots):
        wt = gamma.coeffs
        cases += [(everywhere, wt), (everywhere & ~(1 << g), wt)]
        cases += [(cls.interval(i, j), wt) for i, j in comparable
                  if _pair_weight(cls, i, j) == wt]
        aliased = list(wt)
        aliased[0] -= 1 << field_width(cls.system, wt)
        aliased[1] += 1
        cases.append((everywhere, tuple(aliased)))
        for beta in cls.roots:
            diff = tuple(x - y for x, y in zip(wt, beta.coeffs))
            if min(diff) < 0:
                cases.append((everywhere, diff))
    listed = 0
    for within, wt in cases:
        want = _partitions_reference(cls, within, wt)
        assert _partitions(cls, within, wt) == want, (bin(within), wt)
        assert _partitions(cls, within, wt, first=True) == want[:1]
        listed += len(want)
    assert listed > len(cases)  # the weights have partitions to list


def test_e8_pairs_above_a_root_hold_it_in_their_interval():
    """For each of the 112 non-simple roots gamma of the E8 reference class,
    every pair coarse-above the sequence (gamma) has gamma's position inside
    its interval, so (gamma) is a partition there and the pair is not
    simple: what lets ``is_simple_pair`` answer a pair of a root weight
    with no search."""
    cls = _arq_cls("E", 8, E8_ARROWS)
    roots = [r for r in cls.roots if r.height > 1]
    assert len(roots) == 112
    above = 0
    for gamma in roots:
        g = cls.position(gamma)
        base = RootSequence.from_roots(cls, [gamma])
        for p in pairs_of_weight(cls, gamma.coeffs):
            if coarse_less(base, p):
                i, j = p.positions()
                if cls.prec_pos(j, i):
                    i, j = j, i
                assert cls.prec_pos(i, j) and cls.interval(i, j) >> g & 1, (g, i, j)
                assert not is_simple_pair(cls, i, j)
                above += 1
    assert above >= len(roots)


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


# -- the chain DP against a plain longest-path oracle -------------------

REFERENCE_ARROWS = {"A5": None, "D5": D5_ARROWS, "E6": E6_ARROWS}


@functools.lru_cache(maxsize=None)
def _reference_cls(name):
    """The class of the reference quiver of A5 (its first orientation), D5
    or E6, shared by the tests that call it."""
    sys_ = build_root_system(name[0], int(name[1:]))
    arrows = REFERENCE_ARROWS[name]
    Q = next(all_orientations(sys_)) if arrows is None else (
        DynkinQuiver.from_arrows(sys_, arrows))
    return build_ar_quiver(Q).comm_class()


def _cold(name):
    """A new class of the reference quiver, with nothing in its cache."""
    return CommClass(_reference_cls(name).representative)


def _pos_pair(cls, i, j):
    counts = [0] * len(cls)
    counts[i] = counts[j] = 1
    return RootSequence(cls, tuple(counts))


def _comparable(cls):
    """Every (i, j) with position i strictly below position j in the heap."""
    n = len(cls)
    return [(i, j) for i in range(n) for j in range(n) if cls.prec_pos(i, j)]


def _assert_witness(chain, pool, values):
    """The chain ends in a member of the pool whose value is its length, and
    follows the chain DP's tie rule: each member extends the first member,
    in count order, of the pool's members coarse-below it whose value is one
    less (the first member has none)."""
    assert values[chain[-1].counts] == len(chain)
    for k, m in enumerate(chain):
        below = [x.counts for x in pool
                 if values[x.counts] == values[m.counts] - 1 and coarse_less(x, m)]
        assert (min(below) if below else None) == (chain[k - 1].counts if k else None)


@pytest.mark.parametrize("name", sorted(REFERENCE_ARROWS))
def test_chain_dp_matches_longest_path_oracle(name):
    """gdist, dist and their witnesses of every pair of a cold class, and
    gdist and its witness of every sequence of the highest root's weight,
    asked in one shuffled order so that the chain memo is shared across
    pools, equal the plain longest path over pools read off the
    definitions: for gdist of a pair its non-simple interval partitions, for
    dist the non-simple pairs of its weight, for gdist of any other sequence
    every non-simple sequence of its weight.  Every witness step follows
    the tie rule (``_assert_witness``).  An incomparable pair has gdist 0.
    On E6 the root is (122211), with 202 sequences, for time: the highest
    root has 622, and the oracle compares every two of them."""
    cls = _cold(name)
    n = len(cls)
    root = cls.system.parse_root("122211") if name == "E6" else cls.system.highest_root
    top = sequences_of_weight(cls, root.coeffs)
    top_pool = [s for s in top if not is_simple(s)]
    top_chains = longest_chains(top_pool)
    queries = [(i, j) for i in range(n) for j in range(i + 1, n)] + list(top)
    random.Random(7).shuffle(queries)
    longest = 0  # the largest gdist of a pair: 1 on A5, 2 on D5, 3 on E6
    for query in queries:
        if isinstance(query, RootSequence):
            g, chain = gdist(query), gdist_chain(query)
            assert g == len(chain) == top_chains.get(query.counts, 0), query.counts
            if chain:
                _assert_witness(chain, top_pool, top_chains)
            continue
        i, j = query
        p = _pos_pair(cls, i, j)
        g, d, chain, dchain = gdist(p), dist(p), gdist_chain(p), dist_chain(p)
        if cls.prec_pos(j, i):
            i, j = j, i
        if not cls.prec_pos(i, j):
            assert g == d == 0 and chain == dchain == ()
            continue
        between = [RootSequence(cls, c)
                   for c in _partitions(cls, cls.interval(i, j), p.weight())]
        simple = not between
        if simple:
            assert g == d == 0 and chain == dchain == (), (i, j)
            continue
        pool = [m for m in between if not is_simple(m)] + [p]
        values = longest_chains(pool)
        assert g == len(chain) == values[p.counts], (i, j)
        _assert_witness(chain, pool, values)
        same_weight = [q for q in pairs_of_weight(cls, p.weight()) if not is_simple(q)]
        values = longest_chains(same_weight)
        assert d == len(dchain) == values[p.counts], (i, j)
        _assert_witness(dchain, same_weight, values)
        longest = max(longest, g)
    assert longest == {"A5": 1, "D5": 2, "E6": 3}[name]
    assert max(top_chains.values()) >= 2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coarse_order_implies_smaller_counts(data):
    """coarse_less(a, b) implies a.counts < b.counts, over every pair of
    sequences of the weight of a random comparable pair of a reference class:
    the fact that lets the chain DP work through a pool in count order.
    Weights with more than 400 sequences are drawn again, for time (the
    largest E6 pair weight has 58,984, so 3.5e9 ordered pairs)."""
    cls = _reference_cls(data.draw(st.sampled_from(sorted(REFERENCE_ARROWS))))
    i, j = data.draw(st.sampled_from(_comparable(cls)))
    try:
        seqs = sequences_of_weight(cls, _pair_weight(cls, i, j), cap=400)
    except PartitionCap:
        assume(False)
    for a in seqs:
        for b in seqs:
            if coarse_less(a, b):
                assert a.counts < b.counts, (a.counts, b.counts)


@pytest.mark.parametrize("name", sorted(REFERENCE_ARROWS))
def test_simplicity_written_by_gdist_matches_brute_force(name):
    """gdist of a comparable pair records the pair's simplicity from its one
    interval search; that entry, and every other simplicity entry the gdist
    queries leave in the cache, equals the brute-force definition.  On E6
    the brute force is run where the pair's weight has at most 400
    sequences (it lists them all); every entry there is also checked
    against the existence search of another cold class."""
    cls, fresh = _cold(name), _cold(name)
    brute_cap = 400 if name == "E6" else DEFAULT_CAP

    def check(i, j, simple):
        assert simple == is_simple_pair(fresh, i, j), (i, j)
        try:
            sequences_of_weight(cls, _pair_weight(cls, i, j), cap=brute_cap)
        except PartitionCap:
            return 0
        assert simple == is_simple_pair_brute(cls, i, j), (i, j)
        return 1

    for i, j in _comparable(cls):  # i < j: positions extend the heap order
        gdist(_pos_pair(cls, i, j))
        check(i, j, cls.cache.simple[i, j])
    brute = sum(check(i, j, simple) for (i, j), simple in cls.cache.simple.items())
    # entries: A5 105 of 105 pairs, D5 189 of 190, E6 627 of 630, of which
    # the brute force checks 458
    assert brute == (len(cls.cache.simple) if name != "E6" else 458)


@pytest.mark.parametrize("name", sorted(REFERENCE_ARROWS))
def test_socle_candidates_match_definition(name):
    """The simple sequences at most a sequence, read off the down-set of a
    cold class, equal the definition computed on another cold class over
    the whole weight: as sets for every comparable and incomparable pair,
    and as lists, in search order, for every sequence of one root's weight
    (the root of the chain-DP oracle test).  The definition is computed
    where the weight has at most 400 sequences, for time."""
    cls, fresh = _cold(name), _cold(name)

    def definition(seq):
        seq = RootSequence(fresh, seq.counts)
        return [
            m.counts for m in sequences_of_weight(fresh, seq.weight(), cap=400)
            if (m.counts == seq.counts or coarse_less(m, seq)) and is_simple(m)
        ]

    n, checked = len(cls), 0
    for i in range(n):
        for j in range(i + 1, n):
            p = _pos_pair(cls, i, j)
            try:
                want = definition(p)
            except PartitionCap:
                continue
            assert {m.counts for m in socle_candidates(p)} == set(want), (i, j)
            checked += 1
    # pairs: A5 105 of 105, D5 187 of 190, E6 461 of 630
    assert checked == {"A5": 105, "D5": 187, "E6": 461}[name]
    root = cls.system.parse_root("122211") if name == "E6" else cls.system.highest_root
    top = sequences_of_weight(cls, root.coeffs)
    for s in top:
        assert [m.counts for m in socle_candidates(s)] == definition(s), s.counts
    assert any(socle_candidates(s)[0].counts != s.counts for s in top)


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
    d = dist(u)
    assert good_adjacent(mid1, u, threshold=d)
    assert good_adjacent(u1, mid1, threshold=d)
    assert good_adjacent(mid2, u, threshold=d)
    assert good_adjacent(u2, mid2, threshold=d)


def _assert_good_neighbors_match(cls):
    n = len(cls)
    for i in range(n):
        for j in range(i + 1, n):
            p = _pos_pair(cls, i, j)
            assert good_neighbors(p) == good_neighbors_by_sequences(p), (i, j)


@pytest.mark.parametrize("kind,rank,first", [
    ("A", 2, None), ("A", 3, None), ("A", 4, None), ("A", 5, None),
    ("D", 4, None), ("D", 5, 4), ("E", 6, 4),
])
def test_good_neighbors_match_sequence_path(kind, rank, first):
    """good_neighbors on position pairs equals the adjacency search on
    sequences, on every pair of every orientation (of the first ``first``
    of D5 and E6)."""
    for Q in itertools.islice(all_orientations(build_root_system(kind, rank)), first):
        _assert_good_neighbors_match(build_ar_quiver(Q).comm_class())


def test_e7_good_neighbors_match_sequence_path():
    _assert_good_neighbors_match(_arq_cls("E", 7, E7_ARROWS))


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
    assert g.mul == 2
    assert radius(cls, g) == 3


# -- pair statistics on position pairs ---------------------------------

# (kind, rank, number of orientations; None for all of them)
PAIR_SYSTEMS = ([("A", n, None) for n in range(2, 7)]
                + [("D", n, None) for n in (4, 5, 6)] + [("E", 6, None)])


def _classes(kind, rank, limit):
    sys_ = build_root_system(kind, rank)
    for Q in itertools.islice(all_orientations(sys_), limit):
        yield build_ar_quiver(Q).comm_class()


def _pairs_by_weight(cls):
    """Every position pair (i, j), i < j, grouped by weight."""
    out = {}
    for i in range(len(cls)):
        for j in range(i + 1, len(cls)):
            out.setdefault(_pair_weight(cls, i, j), []).append((i, j))
    return out


@pytest.mark.parametrize("kind,rank,limit", PAIR_SYSTEMS + [("E", 7, 8)])
def test_mask_rules_match_coarse_less(kind, rank, limit):
    """The nested-interval test of pairs (``_pair_below``) equals
    coarse_less on every ordered couple of distinct equal-weight pairs, and
    the two-mask test of a root against a pair equals it on the sequence
    (gamma) of every non-simple root against every pair of its weight."""
    for cls in _classes(kind, rank, limit):
        weights = _pairs_by_weight(cls)
        between = 0
        for pairs in weights.values():
            seqs = [_pos_pair(cls, *p) for p in pairs]
            for p, a in zip(pairs, seqs):
                for q, b in zip(pairs, seqs):
                    if p != q:
                        assert _pair_below(cls, p, q) == coarse_less(a, b), (p, q)
        for g, gamma in enumerate(cls.roots):
            if gamma.height == 1:
                continue
            base = RootSequence.from_roots(cls, [gamma])
            for p in weights[gamma.coeffs]:
                below = root_below_pair(cls, g, p)
                assert below == coarse_less(base, _pos_pair(cls, *p)), (g, p)
                between += below
        assert between


@pytest.mark.parametrize("kind,rank", WORD_SYSTEMS)
def test_pair_below_matches_coarse_less_on_word_classes(kind, rank):
    """``_pair_below`` equals coarse_less on every ordered couple of distinct
    equal-weight pairs of the classes of ``_word_classes``, classes of no AR
    quiver."""
    below = 0
    for cls in _word_classes(kind, rank):
        for pairs in _pairs_by_weight(cls).values():
            seqs = [_pos_pair(cls, *p) for p in pairs]
            for p, a in zip(pairs, seqs):
                for q, b in zip(pairs, seqs):
                    if p != q:
                        want = coarse_less(a, b)
                        assert _pair_below(cls, p, q) == want, (cls.representative, p, q)
                        below += want
    assert below


@pytest.mark.parametrize(
    "kind,rank,limit",
    PAIR_SYSTEMS + [("E", 7, 8), ("E", 8, 2)] + [(k, r, "words") for k, r in WORD_SYSTEMS],
)
def test_pairs_match_brute_force(kind, rank, limit):
    """``_pairs`` of every pair-sum weight, on a cold copy of every class
    (of the first ``limit`` orientations, or with limit "words" of
    ``_word_classes``, whose short words hold some roots only), equals the
    pairs found by trying every two positions (``_pairs_by_weight``), in
    the same order.  A weight that is no pair sum (a simple root, twice the
    highest root, the largest weight of the shared fields, whose half
    height passes the highest root's), one with a negative coordinate and
    one wider than the shared fields have none."""
    classes = (_word_classes(kind, rank) if limit == "words"
               else _classes(kind, rank, limit))
    for cls in classes:
        cls = CommClass(cls.representative)
        want = _pairs_by_weight(cls)
        for wt, pairs in want.items():
            assert _pairs(cls, wt) == tuple(pairs), (cls.representative, wt)
        sys_ = cls.system
        doubled = tuple(2 * x for x in sys_.highest_root.coeffs)
        fields = (2 ** (field_width(sys_) - 1) - 1,) * rank
        for wt in (sys_.simple_root(1).coeffs, doubled, fields):
            assert wt not in want
            assert _pairs(cls, wt) == (), wt
        wider = (fields[0] + 1,) + doubled[1:]
        assert field_width(sys_, wider) > field_width(sys_)
        assert _pairs(cls, wider) == ()
        assert _pairs(cls, (-1,) + doubled[1:]) == ()


@pytest.mark.parametrize("kind,rank,limit", PAIR_SYSTEMS + [("E", 7, None), ("E", 8, 8)])
def test_radius_matches_sequence_oracle(kind, rank, limit):
    """radius equals the sequence path (``radius_by_sequences``) on every
    non-simple root of every orientation, and of the first 8 of E8."""
    for cls in _classes(kind, rank, limit):
        for gamma in cls.system.positive_roots:
            if gamma.height > 1:
                assert radius(cls, gamma) == radius_by_sequences(cls, gamma), gamma


def test_radius_of_a_root_with_no_pair_of_its_weight():
    """The class of a word shorter than w0 can hold a root and no pair of
    its weight: the class of 1 2 in A2 holds [1] and [1,2] but not [2].
    radius raises NotInDomain there, and RootNotInWord on a root outside
    the class."""
    a2 = build_root_system("A", 2)
    cls = CommClass(ReducedWord((1, 2), a2))
    with pytest.raises(NotInDomain, match=r"no pairs above \(\[1,2\]\)"):
        radius(cls, (1, 1))
    with pytest.raises(RootNotInWord):
        radius(CommClass(ReducedWord((1,), a2)), (1, 1))


@pytest.mark.parametrize(
    "kind,rank", [("A", n) for n in range(2, 6)] + [("D", 4), ("D", 5), ("E", 6)]
)
def test_dist_chain_matches_sequence_oracle(kind, rank):
    """dist_chain returns the witness of the sequence path (``dist_chains``),
    the same counts in order, and dist its length, on every pair of every
    orientation; pairs are asked in a shuffled order, so that the chain
    memo is read from passes made for other pairs."""
    rng = random.Random(11)
    for cls in _classes(kind, rank, None):
        queries = [(i, j) for i in range(len(cls)) for j in range(i + 1, len(cls))]
        rng.shuffle(queries)
        chains = {}
        for i, j in queries:
            p = _pos_pair(cls, i, j)
            wt = p.weight()
            if wt not in chains:
                chains[wt] = dist_chains(cls, wt)
            want = [m.counts for m in chains[wt].get(p.counts, ())]
            assert [m.counts for m in dist_chain(p)] == want, (i, j)
            assert dist(p) == len(want)


@pytest.mark.parametrize(
    "kind,rank,limit",
    PAIR_SYSTEMS + [("E", 7, None)] + [(k, r, "words") for k, r in WORD_SYSTEMS],
)
def test_pairs_of_a_root_weight_are_above_it_and_not_simple(kind, rank, limit):
    """The lemma ``is_simple_pair`` and radius rest on, on every orientation
    and, with limit "words", on the classes of ``_word_classes``: for every
    non-simple root gamma, every pair of gamma's weight in the class has
    gamma in the class, is comparable in the heap, coarse-above (gamma) by
    the two-mask oracle, and not simple by the interval search."""
    classes = (_word_classes(kind, rank) if limit == "words"
               else _classes(kind, rank, limit))
    seen = []  # the pairs checked in each class
    for cls in classes:
        seen.append(0)
        positions = {r: g for g, r in enumerate(cls.roots)}
        for gamma in cls.system.positive_roots:
            if gamma.height == 1:
                continue
            for p in _pairs(cls, gamma.coeffs):
                g = positions.get(gamma)
                assert g is not None, (gamma, p)
                assert cls.prec_pos(*p), (g, p)
                assert root_below_pair(cls, g, p), (g, p)
                wt = gamma.coeffs
                assert _partitions(cls, cls.interval(*p), wt, first=True), (g, p)
                seen[-1] += 1
    # every class of w0 has pairs of a root weight; that of a short word may not
    assert all(seen) if limit != "words" else any(seen)


@pytest.mark.parametrize("kind,rank,arrows", [("E", 7, E7_ARROWS), ("D", 5, D5_ARROWS)])
def test_radius_and_dist_fill_one_memo(monkeypatch, kind, rank, arrows):
    """On a cold class, radius of every non-simple root makes no simplicity
    test; dist_chain of every pair of those weights, asked afterwards,
    returns the sequence-path witness (``dist_chains``) read off the memo
    that radius filled, again with no simplicity test."""
    from rootseq import seqcalc

    oracle = _arq_cls(kind, rank, arrows)
    cls = CommClass(oracle.representative)
    weights = [r.coeffs for r in cls.system.positive_roots if r.height > 1]
    want = {wt: dist_chains(oracle, wt) for wt in weights}
    calls = []
    test = seqcalc.is_simple_pair
    monkeypatch.setattr(
        seqcalc, "is_simple_pair", lambda c, i, j: calls.append((i, j)) or test(c, i, j)
    )
    for wt in weights:
        radius(cls, wt)
    assert calls == []
    longest = 0
    for wt in weights:
        for p in pairs_of_weight(cls, wt):
            chain = [m.counts for m in want[wt][p.counts]]
            assert [m.counts for m in dist_chain(p)] == chain, p
            longest = max(longest, len(chain))
    assert calls == []
    assert longest > 1


def test_radius_makes_one_chain_pass_per_root(monkeypatch):
    """On a cold E7 class, radius of every non-simple root calls the chain
    DP once: the pass from the last pair in count order settles every
    pair's chain length."""
    from rootseq import seqcalc

    cls = CommClass(_arq_cls("E", 7, E7_ARROWS).representative)
    calls = []
    chain = seqcalc._longest_chain
    monkeypatch.setattr(
        seqcalc, "_longest_chain", lambda *a: calls.append(a[0]) or chain(*a)
    )
    for gamma in cls.system.positive_roots:
        if gamma.height > 1:
            calls.clear()
            radius(cls, gamma)
            assert len(calls) == 1, gamma


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


@pytest.mark.parametrize("name", ["A5", "D5", "E6"])
def test_pairs_of_weight_matches_definition(name):
    """pairs_of_weight lists the unordered pairs of distinct class roots
    that sum to the weight, by ascending first position, for every pair
    weight of the class, as many as a list of roots grown from the Dynkin
    diagram has; a weight with a negative coordinate, one wider than twice
    the largest root coefficient and a root-lattice weight that is no pair
    sum (a simple root) have none."""
    cls = _cold(name)
    for wt, count in _pair_sums(_kostant_positive_roots(name[0], int(name[1:]))).items():
        assert len(pairs_of_weight(cls, wt)) == count, wt
    n = len(cls)
    want = {}
    for i in range(n):
        for j in range(i + 1, n):
            want.setdefault(_pair_weight(cls, i, j), []).append((i, j))
    for wt, pairs in want.items():
        assert [tuple(p.positions()) for p in pairs_of_weight(cls, wt)] == pairs, wt
    high = cls.system.highest_root.coeffs
    doubled = tuple(2 * x for x in high)
    negative = (-1,) + doubled[1:]
    wider = (2 * max(high) + 1,) + doubled[1:]
    simple = cls.system.simple_root(1).coeffs
    for wt in (negative, wider, simple):
        assert wt not in want
        assert pairs_of_weight(cls, wt) == ()


def _dynkin_edges(kind, n):
    """The Dynkin diagram in the library's labels: A and D are chains, with
    the D fork at n-2; E6 is the chain 1-2-3-4-5 with 6 on node 3, E7 the
    chain 1-3-4-5-6-7 with 2 on node 4."""
    chain = [(i, i + 1) for i in range(1, n - 1)]
    if kind == "A":
        return chain + [(n - 1, n)]
    if kind == "D":
        return chain + [(n - 2, n)]
    if n == 7:
        return [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)]
    return [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]  # E6


def _kostant_positive_roots(kind, n):
    """The positive roots of a simply-laced diagram as coefficient vectors,
    grown from the simple roots: beta + alpha_i is a root exactly when
    (beta, alpha_i) = -1."""
    edges = {frozenset(e) for e in _dynkin_edges(kind, n)}

    def pairing(v, i):
        return 2 * v[i] - sum(v[j] for j in range(n) if {i + 1, j + 1} in edges)

    frontier = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    roots = set(frontier)
    while frontier:
        grown = [v[:i] + (v[i] + 1,) + v[i + 1:]
                 for v in frontier for i in range(n) if pairing(v, i) == -1]
        frontier = [v for v in set(grown) if v not in roots]
        roots.update(frontier)
    return roots


def _kostant_counts(roots, top):
    """Kostant's partition function at every weight coordinatewise at most
    top: the number of multisets of the roots summing to it, by the
    coin-change DP (weights in lexicographic order, so that w - r comes
    before w)."""
    box = list(itertools.product(*(range(t + 1) for t in top)))
    count = dict.fromkeys(box, 0)
    count[box[0]] = 1
    for r in roots:
        for w in box:
            rest = tuple(x - y for x, y in zip(w, r))
            if min(rest) >= 0:
                count[w] += count[rest]
    return count


@pytest.mark.parametrize(
    "kind,rank", [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                  ("D", 4), ("D", 5), ("D", 6), ("E", 6)]
)
def test_sequence_counts_match_kostant_partition_function(kind, rank):
    """The sequences of a weight are the multisets of positive roots summing
    to it, so their number is Kostant's partition function, the same for
    every class (Kostant 1959).  Every nonzero weight at most the highest
    root, on two orientations, against a DP that uses nothing from the
    library but the classes it checks."""
    oracle_roots = _kostant_positive_roots(kind, rank)
    top = max(oracle_roots, key=sum)
    counts = _kostant_counts(sorted(oracle_roots), top)
    sys_ = build_root_system(kind, rank)
    assert {r.coeffs for r in sys_.positive_roots} == oracle_roots
    for Q in itertools.islice(all_orientations(sys_), 2):
        cls = build_ar_quiver(Q).comm_class()
        for wt, want in counts.items():
            if any(wt):
                assert len(sequences_of_weight(cls, wt)) == want, wt


def _pair_sums(roots):
    """How many unordered pairs of distinct roots sum to each weight r + s
    (r = s included, so that a doubled root with no such pair counts 0)."""
    count = {}
    for r, s in itertools.combinations_with_replacement(sorted(roots), 2):
        wt = tuple(x + y for x, y in zip(r, s))
        count[wt] = count.get(wt, 0) + (r != s)
    return count


def test_e6_pair_weights_above_the_highest_root_match_kostant():
    """Kostant's partition function at the E6 pair weights that are not at
    most the highest root, from one DP up to twice the highest root; weights
    with more than 500 sequences are left out, for time."""
    roots = _kostant_positive_roots("E", 6)
    top = max(roots, key=sum)
    counts = _kostant_counts(sorted(roots), tuple(2 * x for x in top))
    above = [
        wt for wt in _pair_sums(roots)
        if any(x > y for x, y in zip(wt, top)) and counts[wt] <= 500
    ]
    cls = _cold("E6")
    assert len(above) > 100
    for wt in above:
        assert len(sequences_of_weight(cls, wt)) == counts[wt], wt


def test_e7_highest_root_matches_kostant():
    """The 18,837 sequences of the E7 highest root, on a class with nothing
    in its cache, against Kostant's partition function from the DP."""
    roots = _kostant_positive_roots("E", 7)
    top = max(roots, key=sum)
    counts = _kostant_counts(sorted(roots), top)
    sys_ = build_root_system("E", 7)
    assert {r.coeffs for r in sys_.positive_roots} == roots
    assert top == sys_.highest_root.coeffs and counts[top] == 18837
    reading = build_ar_quiver(next(all_orientations(sys_))).comm_class().representative
    cls = CommClass(reading)
    assert len(sequences_of_weight(cls, top)) == counts[top]


def test_weights_past_a_small_field():
    """Coordinates of 33 and 40 overflow a fixed 5-bit field; the packing
    must size its fields from the weight."""
    cls = CommClass(ReducedWord((1, 2, 1), build_root_system("A", 2)))
    assert len(sequences_of_weight(cls, (33, 33))) == 34
    assert [s.counts for s in sequences_of_weight(cls, (40, 0))] == [(40, 0, 0)]


def test_partition_cap(d4):
    """A capped call raises PartitionCap naming the weight, from the search
    on a cold class and from the check on a cached enumeration; when the
    enumeration is a comparable pair's interval it names the pair too."""
    cls = CommClass(ReducedWord(D4_WORD, d4))  # fresh class, empty caches
    wt = d4.parse_root("{1|2}").coeffs
    p = _pair(cls, "{2|-4}", "{1|2}")  # not simple: its interval holds a partition
    for warm in (False, True):
        if warm:
            sequences_of_weight(cls, wt)
            socle_candidates(p)
        with pytest.raises(PartitionCap, match="more than 1 partitions") as err:
            sequences_of_weight(cls, wt, cap=1)
        assert err.value.weight == wt and str(wt) in str(err.value)
        assert err.value.pair is None
        with pytest.raises(PartitionCap, match="more than 0 partitions") as err:
            gdist(p, cap=0)
        assert err.value.weight == p.weight()
        assert err.value.pair == p and f"pair {p}" in str(err.value)


@pytest.mark.parametrize("warm", [False, True])
def test_cap_holds_on_cached_enumerations(warm):
    """Calls that enumerate more partitions than their cap raise whether or
    not an uncapped call has cached the enumeration, and do not change what
    an uncapped call answers.  The existence test is never capped."""
    from rootseq.arquiver import DynkinQuiver

    e6 = build_root_system("E", 6)
    # a fresh class, so that no other test has filled its caches
    arq = build_ar_quiver(DynkinQuiver.from_arrows(e6, E6_ARROWS))
    cls = CommClass(arq.comm_class().representative)
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


def test_gdist_reads_the_memo_before_the_pool(monkeypatch):
    """A second pass of gdist, and of gdist_chain, over the 622 sequences
    of the highest root's weight of the E6 reference class answers from the
    chain memo: neither makes a coarse comparison, and both test only each
    sequence's own simplicity, never a pool's.  A capped call after the
    uncapped passes still raises PartitionCap."""
    from rootseq import seqcalc

    cls = _cold("E6")
    top = sequences_of_weight(cls, cls.system.highest_root.coeffs)
    assert len(top) == 622
    values = [gdist(s) for s in top]
    chains = [gdist_chain(s) for s in top]
    calls = {"coarse_less": 0, "is_simple": 0}

    def count(name):
        fn = getattr(seqcalc, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(seqcalc, name, counted)

    count("coarse_less")
    count("is_simple")
    assert [gdist(s) for s in top] == values
    assert calls == {"coarse_less": 0, "is_simple": len(top)}
    calls["is_simple"] = 0
    assert [gdist_chain(s) for s in top] == chains
    assert calls == {"coarse_less": 0, "is_simple": len(top)}
    longer = next(s for s, g in zip(top, values) if g and s.size() > 2)
    for stat in (gdist, gdist_chain):
        with pytest.raises(PartitionCap):
            stat(longer, cap=len(top) - 1)
    assert gdist(longer, cap=len(top)) == len(gdist_chain(longer, cap=len(top))) > 0


# -- answers do not depend on the order of the queries -------------------


def _cold_d5_class():
    """A new class object, with nothing in its cache."""
    return CommClass(_arq_cls("D", 5, D5_ARROWS).representative)


def _d5_queries():
    """dist, gdist and their chains of every pair, gdist and its chain of
    every longer sequence of the highest root's weight, and the enumeration
    of that weight and of two pair weights, under the default cap, a cap one
    too small and an exact cap; gdist and its chain of two longer non-simple
    sequences under the last two caps; the radius of every non-simple
    root."""
    cls = _cold_d5_class()
    n = len(cls)
    queries = [
        (stat, (i, j)) for stat in ("dist", "gdist", "dist_chain", "gdist_chain")
        for i in range(n) for j in range(i + 1, n)
    ]
    top = cls.system.highest_root.coeffs
    longer = [s for s in sequences_of_weight(cls, top) if s.size() > 2]
    queries += [(stat, s.counts) for stat in ("gdist", "gdist_chain") for s in longer]
    for wt in (top, _pair_weight(cls, 0, n - 1), _pair_weight(cls, 3, 12)):
        count = len(sequences_of_weight(cls, wt))
        queries += [("parts", wt, cap) for cap in (DEFAULT_CAP, count - 1, count)]
    count = len(sequences_of_weight(cls, top))
    non_simple = [s for s in longer if not is_simple(s)]
    queries += [
        (stat, s.counts, cap)
        for stat in ("gdist", "gdist_chain")
        for s in (non_simple[0], non_simple[-1]) for cap in (count - 1, count)
    ]
    queries += [
        ("radius", r.coeffs) for r in cls.system.positive_roots if r.height > 1
    ]
    return queries


STATS = {"dist": dist, "gdist": gdist, "dist_chain": dist_chain,
         "gdist_chain": gdist_chain}


def _answer(cls, query):
    """The answer to a query; a chain is answered by its members' counts."""
    try:
        if query[0] == "radius":
            return radius(cls, query[1])
        if query[0] in STATS:
            key = query[1]
            if len(key) == 2:  # a pair of positions
                key = tuple(int(k in key) for k in range(len(cls)))
            found = STATS[query[0]](RootSequence(cls, key), *query[2:])
            return [m.counts for m in found] if isinstance(found, tuple) else found
        _, wt, cap = query
        return [s.counts for s in sequences_of_weight(cls, wt, cap)]
    except PartitionCap:
        return "capped"


D5_QUERIES = _d5_queries()


@pytest.fixture(scope="module")
def d5_cold_answers():
    """Each query's answer from a class that has answered nothing else."""
    return [_answer(_cold_d5_class(), q) for q in D5_QUERIES]


@settings(max_examples=12, deadline=None)
@given(order=st.permutations(range(len(D5_QUERIES))))
def test_cached_answers_do_not_depend_on_query_order(d5_cold_answers, order):
    """Over one D5 class, every query answered after the others in a
    shuffled order equals its answer from a cold class."""
    cls = _cold_d5_class()
    for k in order:
        assert _answer(cls, D5_QUERIES[k]) == d5_cold_answers[k], D5_QUERIES[k]
