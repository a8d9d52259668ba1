import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rootseq.rootsys import build_root_system
from rootseq.words import CommClass, NotReduced, ReducedWord, roots_of_word

from conftest import (
    NON_ADAPTED_A5, act, class_by_swaps, in_class, longest_word, random_reduced_word,
)

A5_WORD = (1, 3, 2, 1, 4, 3, 2, 1, 5, 4, 3, 2, 1, 5, 4)
A5_ORDER = ("[1]", "[3]", "[1,3]", "[2,3]", "[3,4]", "[1,4]", "[2,4]", "[4]",
            "[3,5]", "[1,5]", "[2,5]", "[4,5]", "[5]", "[1,2]", "[2]")


def test_a5_total_order(a5):
    word = ReducedWord(A5_WORD, a5)
    assert tuple(a5.format_root(r) for r in roots_of_word(word)) == A5_ORDER


def test_longest_word_sweeps_all_roots():
    for kind, rank in [("A", 4), ("D", 4), ("E", 6)]:
        sys_ = build_root_system(kind, rank)
        w0 = longest_word(sys_)
        assert len(w0) == sys_.N
        assert set(roots_of_word(w0)) == set(sys_.positive_roots)


def test_not_reduced_raises(a5):
    with pytest.raises(NotReduced):
        roots_of_word(ReducedWord((1, 1), a5))
    with pytest.raises(NotReduced):
        roots_of_word(ReducedWord((1, 2, 1, 2), a5))
    assert len(roots_of_word(ReducedWord((1, 2, 1), a5))) == 3


def _roots_by_act(sys_, letters):
    """beta_k = s_{i1}...s_{i(k-1)}(alpha_{ik}) for every k, by act."""
    return [
        act(sys_, letters[:k], sys_.simple_root(i).coeffs)
        for k, i in enumerate(letters)
    ]


def _reduced_words_of_w0(sys_):
    """Every reduced word of w0 of a simply-laced system, by BFS from one
    of them over commutation and braid moves."""
    cartan = sys_.cartan
    start = longest_word(sys_).letters
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            moved = []
            for k in range(len(w) - 1):
                a, b = w[k], w[k + 1]
                if not cartan[a - 1][b - 1]:
                    moved.append(w[:k] + (b, a) + w[k + 2:])
                elif a != b and k + 2 < len(w) and w[k + 2] == a:
                    moved.append(w[:k] + (b, a, b) + w[k + 3:])
            for w2 in moved:
                if w2 not in seen:
                    seen.add(w2)
                    nxt.append(w2)
        frontier = nxt
    return seen


def test_roots_of_word_matches_act():
    """roots_of_word, which moves only the letter's simple root and its
    neighbours, equals the definition by act on every member of the six
    12-member commutation classes of w0 in A4, and on 300 members of a D5
    class (one adapted to an orientation)."""
    a4 = build_root_system("A", 4)
    words = _reduced_words_of_w0(a4)
    assert len(words) == 768
    classes = []
    while words:
        cls = CommClass(ReducedWord(min(words), a4))
        members = {m.letters for m in cls.linear_extensions()}
        words -= members
        if len(members) == 12:
            classes.append(members)
    assert len(classes) == 6
    from rootseq.arquiver import all_orientations, build_ar_quiver

    d5 = build_root_system("D", 5)
    d5_cls = build_ar_quiver(next(all_orientations(d5))).comm_class()
    cases = [(a4, w) for members in classes for w in sorted(members)]
    d5_members = itertools.islice(d5_cls.linear_extensions(), 300)
    cases += [(d5, m.letters) for m in d5_members]
    for sys_, letters in cases:
        roots = roots_of_word(ReducedWord(letters, sys_))
        assert [r.coeffs for r in roots] == _roots_by_act(sys_, letters), letters


def test_not_reduced_matches_definition():
    """Every word of length at most 5 in A3: roots_of_word raises NotReduced
    exactly when some beta_k, computed by act, is not a positive root or
    repeats an earlier one, and otherwise lists those roots."""
    a3 = build_root_system("A", 3)
    raised = 0
    for length in range(1, 6):
        for letters in itertools.product((1, 2, 3), repeat=length):
            betas = _roots_by_act(a3, letters)
            reduced = len(set(betas)) == len(betas) and all(
                a3.is_positive_root(b) for b in betas
            )
            try:
                got = [r.coeffs for r in roots_of_word(ReducedWord(letters, a3))]
            except NotReduced:
                assert not reduced, letters
                raised += 1
            else:
                assert reduced and got == betas, letters
    assert raised  # some of the words are not reduced


def test_act_involution(a5):
    for i in range(1, 6):
        for r in a5.positive_roots:
            assert act(a5, (i, i), r) == r


def _random_reduced_word(sys_, rng, moves=40):
    letters = list(longest_word(sys_).letters)
    cartan = sys_.cartan  # zero iff the letters commute
    for _ in range(moves):
        k = rng.randrange(len(letters) - 1)
        if not cartan[letters[k] - 1][letters[k + 1] - 1]:
            letters[k], letters[k + 1] = letters[k + 1], letters[k]
    return ReducedWord(tuple(letters), sys_)


def test_commutation_moves_stay_in_class():
    sys_ = build_root_system("A", 4)
    rng = random.Random(7)
    base = CommClass(longest_word(sys_))
    for _ in range(25):
        w = _random_reduced_word(sys_, rng)
        assert in_class(base, w)


def test_linear_extensions_match_swap_bfs(a5):
    cls = CommClass(ReducedWord(A5_WORD, a5))
    exts = [w.letters for w in cls.linear_extensions()]
    assert len(exts) == len(set(exts))
    assert set(exts) == class_by_swaps(cls)
    assert all(in_class(cls, ReducedWord(w, a5)) for w in exts)


def test_heap_positions_and_prec(a5):
    cls = CommClass(ReducedWord(A5_WORD, a5))
    r13 = a5.parse_root("[1,3]")
    r23 = a5.parse_root("[2,3]")
    assert cls.position(r13) == 2
    # [1,3] and [2,3] share letters that do not commute -> comparable
    assert cls.prec(r13, r23) or cls.prec(r23, r13)
    # prec is a strict order embedded in every member
    for w in itertools.islice(cls.linear_extensions(), 50):
        order = {r: k for k, r in enumerate(roots_of_word(w))}
        for a in cls.roots:
            for b in cls.roots:
                if cls.prec(a, b):
                    assert order[a] < order[b]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_random_class_heap_is_sound(seed):
    """Every linear extension of the heap is a member word of the class."""
    sys_ = build_root_system("A", 4)
    rng = random.Random(seed)
    w = _random_reduced_word(sys_, rng)
    cls = CommClass(w)
    for ext in itertools.islice(cls.linear_extensions(), 20):
        assert roots_of_word(ext)  # reduced
        assert in_class(cls, ext)


def _closure(t, covers):
    """Strict reachability from the covers, by iterating to a fixpoint: for
    each position, the bit mask of the positions below it."""
    below = [set() for _ in range(t)]
    for p, q in covers:
        below[q].add(p)
    changed = True
    while changed:
        changed = False
        for q in range(t):
            more = set().union(*(below[p] for p in below[q])) - below[q]
            if more:
                below[q] |= more
                changed = True
    return [sum(1 << p for p in b) for b in below]


@pytest.mark.parametrize("kind,rank", [("A", 4), ("D", 5), ("E", 6), ("E", 7)])
def test_reachability_is_closure_of_covers(kind, rank):
    """_below is the transitive closure of heap_covers and _above its
    transpose, on the longest word's class and the classes of AR quiver
    readings."""
    from rootseq.arquiver import all_orientations, build_ar_quiver

    sys_ = build_root_system(kind, rank)
    words = [longest_word(sys_)] + [
        build_ar_quiver(Q).comm_class().representative
        for Q in itertools.islice(all_orientations(sys_), 6)
    ]
    for w in words:
        cls = CommClass(w)
        t = len(cls)
        assert cls._below == _closure(t, cls.heap_covers), w
        assert all(
            (cls._above[p] >> q & 1) == (cls._below[q] >> p & 1)
            for p in range(t) for q in range(t)
        ), w


def _heap_by_backward_scan(cls):
    """heap_covers, _below and _above by the O(t^2) definition: q is
    related to the last earlier occurrence of each letter that does not
    commute with its own, listed by position descending.  These relations
    generate the heap order; a same-letter one is a cover only when no
    neighbouring letter occurs between the two."""
    letters, cartan = cls.representative.letters, cls.system.cartan
    t = len(letters)
    covers, below = [], [0] * t
    for q in range(t):
        hit = set()
        for p in range(q - 1, -1, -1):
            if cartan[letters[q] - 1][letters[p] - 1] and letters[p] not in hit:
                hit.add(letters[p])
                covers.append((p, q))
                below[q] |= (1 << p) | below[p]
    above = [sum(1 << q for q in range(t) if below[q] >> p & 1) for p in range(t)]
    return tuple(covers), below, above


def test_heap_covers_are_the_last_occurrences():
    """The covers read off the last occurrences, and the masks built from
    them, equal the backward scan: on the class of Gamma_Q of every
    orientation of A2-A6, D4-D6 and E6, every member of one A4 class, a
    word adapted to no orientation, a reduced word shorter than w0 and
    seeded random reduced words of E6 shorter than w0.  On each, the class
    positions are a linear extension of the heap: _above[p] has no bit at
    or below p."""
    from rootseq.arquiver import all_orientations, build_ar_quiver

    classes = []
    for kind, rank in [("A", n) for n in range(2, 7)] + [
        ("D", 4), ("D", 5), ("D", 6), ("E", 6)
    ]:
        classes += [build_ar_quiver(Q).comm_class()
                    for Q in all_orientations(build_root_system(kind, rank))]
    a4 = build_root_system("A", 4)
    words = list(CommClass(longest_word(a4)).linear_extensions())
    assert len(words) > 1
    words.append(ReducedWord(NON_ADAPTED_A5, build_root_system("A", 5)))
    e6 = build_root_system("E", 6)
    words.append(ReducedWord(longest_word(e6).letters[:20], e6))  # shorter than w0
    rng = random.Random(29)
    words += [random_reduced_word(e6, rng, rng.randrange(1, e6.N)) for _ in range(5)]
    classes += [CommClass(w) for w in words]
    for cls in classes:
        w = cls.representative
        assert (cls.heap_covers, cls._below, cls._above) == _heap_by_backward_scan(cls), w
        assert all(up & ((2 << p) - 1) == 0 for p, up in enumerate(cls._above)), w


def test_longest_class_is_adapted_reading():
    from rootseq.arquiver import find_quiver

    for kind, rank in [("A", 4), ("D", 4)]:
        cls = CommClass(longest_word(build_root_system(kind, rank)))
        assert find_quiver(cls) is not None


def test_comm_class_json_roundtrip(a5):
    cls = CommClass(ReducedWord(A5_WORD, a5))
    data = cls.to_json()
    assert data["word"] == list(A5_WORD)
    assert len(data["nodes"]) == 15
    assert all(len(c) == 2 for c in data["covers"])
