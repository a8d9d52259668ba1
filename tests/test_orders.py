import itertools
import random

import pytest
from conftest import coarse_less_brute
from hypothesis import given, settings, strategies as st

from rootseq.arquiver import DynkinQuiver, all_orientations, build_ar_quiver
from rootseq.orders import RootSequence, bilex_less, coarse_less
from rootseq.rootsys import build_root_system
from rootseq.words import CommClass, ReducedWord, roots_of_word

A5_WORD = (1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1, 5, 4)


@pytest.fixture(scope="module")
def a5_cls(a5):
    return CommClass(ReducedWord(A5_WORD, a5))


def test_sequence_basics(a5_cls):
    s = RootSequence.from_strings(a5_cls, ["[1,3]", "[2,5]", "[1,3]"])
    assert s.size() == 3
    assert s.weight() == (2, 3, 3, 1, 1)
    assert s.counts[a5_cls.position(a5_cls.system.parse_root("[1,3]"))] == 2
    assert len(s.support()) == 2
    assert str(s) == "([1,3],[1,3],[2,5])"
    assert s.to_json()["weight"] == [2, 3, 3, 1, 1]


def test_sequence_validation(a5_cls):
    with pytest.raises(ValueError):
        RootSequence(a5_cls, (1,) * 3)
    with pytest.raises(ValueError):
        RootSequence(a5_cls, (-1,) + (0,) * 14)


@pytest.mark.parametrize(
    "counts",
    [
        (0,) * 14,
        (0,) * 16,
        (1,) * 14 + (-1,),
        (2,) + (0,) * 13 + (-3,),
        (0, -1) + (1,) * 13,
    ],
)
def test_sequence_rejects_bad_counts(a5_cls, counts):
    """A wrong length or a negative count anywhere is rejected, also after
    positive counts."""
    with pytest.raises(ValueError):
        RootSequence(a5_cls, counts)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=15, max_size=15))
def test_support_mask_is_the_nonzero_positions(counts):
    cls = CommClass(ReducedWord(A5_WORD, build_root_system("A", 5)))
    s = RootSequence(cls, tuple(counts))
    nonzero = [k for k, c in enumerate(counts) if c]
    assert s.positions() == nonzero
    assert s.support_mask == sum(1 << k for k in nonzero)
    assert s.support() == tuple(cls.roots[k] for k in nonzero)


def test_total_and_partial_orders(a5_cls):
    sys_ = a5_cls.system
    r13, r23, r25 = (sys_.parse_root(t) for t in ("[1,3]", "[2,3]", "[2,5]"))
    assert a5_cls.position(r13) < a5_cls.position(r23)
    assert a5_cls.prec(r13, r23)
    # [2,3] and [2,5] commute past each other in some member: not comparable
    assert not a5_cls.prec(r23, r25) or not a5_cls.prec(r25, r23)


def test_bilex_pair_example(a5_cls):
    """(<[2,3],[1,5]>) sits bi-lex below (<[1,3],[2,5]>) in the representative
    order: they first differ at [1,3] and last differ at [2,5]."""
    a = RootSequence.from_strings(a5_cls, ["[2,3]", "[1,5]"])
    b = RootSequence.from_strings(a5_cls, ["[1,3]", "[2,5]"])
    assert bilex_less(a, b)
    assert not bilex_less(b, a)
    assert a.weight() == b.weight()


def test_bilex_requires_both_ends(a5_cls):
    # first diff favours a, last diff favours b: incomparable both ways
    a = RootSequence.from_strings(a5_cls, ["[1]", "[2,5]"])
    b = RootSequence.from_strings(a5_cls, ["[3]", "[4,5]"])
    assert not bilex_less(a, b) and not bilex_less(b, a)
    assert not bilex_less(a, a)


def test_cross_class_rejected(a5_cls, a5):
    other = CommClass(ReducedWord(A5_WORD, a5))
    a = RootSequence.from_strings(a5_cls, ["[1]"])
    b = RootSequence.from_strings(other, ["[1]"])
    with pytest.raises(ValueError):
        bilex_less(a, b)
    with pytest.raises(ValueError):
        coarse_less(a, b)


def test_member_positions_are_kept_by_letters(a5, monkeypatch):
    """bilex_less reads a member's positions from the class cache, keyed by
    its letters: a second call, with the same member or an equal word, does
    not sweep the word again.  A member over another root system raises
    ValueError and leaves nothing in the cache."""
    from rootseq import orders

    cls = CommClass(ReducedWord(A5_WORD, a5))
    a = RootSequence.from_strings(cls, ["[2,3]", "[1,5]"])
    b = RootSequence.from_strings(cls, ["[1,3]", "[2,5]"])
    sweeps = []

    def counted(word):
        sweeps.append(word.letters)
        return roots_of_word(word)

    monkeypatch.setattr(orders, "roots_of_word", counted)
    member = ReducedWord(A5_WORD, a5)
    assert bilex_less(a, b, member=member)
    assert bilex_less(a, b, member=member)
    assert bilex_less(a, b, member=ReducedWord(A5_WORD, a5))
    assert sweeps == [A5_WORD]
    assert list(cls.cache.members) == [A5_WORD]
    d5 = build_root_system("D", 5)
    with pytest.raises(ValueError, match="different root system"):
        bilex_less(a, b, member=ReducedWord(A5_WORD, d5))
    assert sweeps == [A5_WORD] and list(cls.cache.members) == [A5_WORD]


def _random_sequences(cls, rng, count, max_size=3):
    out = []
    for _ in range(count):
        k = rng.randint(1, max_size)
        out.append(RootSequence.from_roots(cls, rng.choices(cls.roots, k=k)))
    return out


# Classes of w0 in D5 that no quiver is adapted to, with 504, 960 and 1,296
# members; the adapted D5 classes have 18,720 to 214,848.
D5_WORDS = (
    (2, 1, 2, 3, 5, 4, 2, 3, 2, 5, 4, 3, 5, 1, 2, 3, 5, 4, 3, 5),
    (1, 2, 5, 1, 3, 2, 5, 4, 3, 2, 1, 2, 5, 3, 4, 2, 3, 2, 5, 3),
    (1, 2, 3, 1, 2, 4, 5, 3, 5, 4, 2, 1, 3, 2, 3, 5, 4, 3, 4, 5),
)


def _test_classes(kind, rank):
    sys_ = build_root_system(kind, rank)
    if (kind, rank) == ("D", 5):
        return [CommClass(ReducedWord(w, sys_)) for w in D5_WORDS]
    quivers = itertools.islice(all_orientations(sys_), 3)
    return [build_ar_quiver(Q).comm_class() for Q in quivers]


@pytest.mark.parametrize("kind,rank", [("A", 3), ("D", 4), ("A", 5), ("D", 5)])
def test_coarse_matches_brute_force(kind, rank):
    rng = random.Random(11)
    for cls in _test_classes(kind, rank):
        members = list(cls.linear_extensions())
        seqs = _random_sequences(cls, rng, 25)
        for a in seqs:
            for b in seqs:
                assert coarse_less(a, b) == coarse_less_brute(a, b, members)


def test_coarse_implies_every_member_bilex(d4):
    cls = build_ar_quiver(
        DynkinQuiver.from_arrows(d4, [(3, 2), (2, 1), (2, 4)])
    ).comm_class()
    rng = random.Random(5)
    seqs = _random_sequences(cls, rng, 30)
    members = list(itertools.islice(cls.linear_extensions(), 40))
    hits = 0
    for a in seqs:
        for b in seqs:
            if coarse_less(a, b):
                hits += 1
                assert all(bilex_less(a, b, member=w) for w in members)
    assert hits > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_coarse_is_a_strict_order(seed):
    sys_ = build_root_system("A", 3)
    cls = build_ar_quiver(next(all_orientations(sys_))).comm_class()
    rng = random.Random(seed)
    a, b, c = _random_sequences(cls, rng, 3)
    assert not coarse_less(a, a)
    assert not (coarse_less(a, b) and coarse_less(b, a))
    if coarse_less(a, b) and coarse_less(b, c):
        assert coarse_less(a, c)


def test_pair_helper(a5_cls):
    """A pair is the sequence of its two roots."""
    sys_ = a5_cls.system
    roots = (sys_.parse_root("[1,3]"), sys_.parse_root("[2,5]"))
    p = RootSequence.from_roots(a5_cls, roots)
    assert p.size() == 2
    assert str(p) == "([1,3],[2,5])"
