"""Simplicity, socles, minimal sequences and the distance statistics of root
sequences over a commutation class.

All sequences here live over a fixed commutation class and are compared with
the coarse bi-lex order from :mod:`rootseq.orders`.  Expensive intermediate
results (partitions of a weight, pair simplicity, chain lengths, the
packed roots of the partition search) are kept in the class's
``cache`` (:class:`rootseq.words.ClassCache`).
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import attrgetter

from .orders import RootSequence, coarse_less
from .rootsys import PosRoot, RootSystem
from .words import CommClass

DEFAULT_CAP = 10**6


class NotInDomain(ValueError):
    """A statistic was asked of a sequence or a root it is not defined for."""


class PartitionCap(RuntimeError):
    """An enumeration found more partitions than its cap.  It names the
    weight and, when the enumeration is the interval of a comparable pair,
    the pair (a RootSequence; None otherwise)."""

    def __init__(self, weight: tuple[int, ...], count: int, cap: int, pair=None):
        where = "" if pair is None else f" between the roots of the pair {pair}"
        super().__init__(
            f"weight {weight} has more than {cap} partitions{where} (saw {count})"
        )
        self.weight = weight
        self.count = count
        self.cap = cap
        self.pair = pair


@lru_cache(maxsize=None)
def _system_packed(system: RootSystem, width: int):
    """The guard mask and every positive root of the system in search order
    (height descending, then coefficients), each as (root, packed
    coefficients, mask of the bit fields it touches), for fields of the
    given width: packed once per (system, width) and shared by its
    classes."""
    field = (1 << width) - 1
    shifts = range(0, width * system.rank, width)
    zero = sum(1 << (s + width - 1) for s in shifts)
    return zero, tuple(
        (
            r,
            sum(x << s for x, s in zip(r.coeffs, shifts)),
            sum(field << s for x, s in zip(r.coeffs, shifts) if x),
        )
        for r in sorted(system.positive_roots, key=lambda r: (-r.height, r.coeffs))
    )


def _packed_roots(cls: CommClass, width: int):
    """The guard mask, the class's roots in search order (height descending,
    then coefficients), each as (position, packed coefficients, mask of the
    bit fields it touches), and the position of each packed root, in
    position order, for fields of the given width.

    The roots are packed once per system (``_system_packed``); a class
    only places them at its positions, keeping those it holds (the class of
    a word shorter than w0 holds fewer than all)."""
    table = cls.cache.packed.get(width)
    if table is None:
        zero, packed = _system_packed(cls.system, width)
        pos = cls._pos_of_root
        entries = [(pos[r], root, mask) for r, root, mask in packed if r in pos]
        index = {root: p for p, root, _ in sorted(entries)}
        table = cls.cache.packed[width] = (zero, entries, index)
    return table


def _width(cls: CommClass, weight) -> int:
    """The field width for a weight: wide enough for the weight and for
    twice the largest root coefficient, plus the guard bit."""
    top = max(2 * max(cls.system.highest_root.coeffs), *weight)
    return top.bit_length() + 1


def _partitions(cls: CommClass, within: int, weight, cap: int = DEFAULT_CAP,
                first: bool = False) -> list[tuple[int, ...]]:
    """Count vectors over the class supported on the positions in the mask
    ``within`` whose roots sum to the weight, in a fixed order: DFS over the
    roots, highest first, each taken with its largest multiplicity first.

    With ``first`` the search stops at the first partition (an existence
    test: at most one is listed and the cap is not checked); otherwise every
    partition is listed and more than ``cap`` of them raise PartitionCap.

    A residual is packed into one int, a bit field per coordinate holding
    the coordinate plus a guard bit above every value that can occur.
    Subtracting a packed root then clears a guard bit exactly when that
    coordinate goes negative, so one subtraction and one mask test decide
    whether the root fits.  Fields are wide enough for twice the largest
    root coefficient (every pair weight), so the packed roots are shared by
    all calls on the class; a wider weight gets wider fields.  A branch ends
    as soon as its residual is nonzero in a coordinate that none of the
    roots left to try touches: it holds no partition.
    """
    weight = tuple(weight)
    if min(weight) < 0:  # no partition; its fields would borrow from their neighbours
        return []
    width = _width(cls, weight)
    zero, entries, _ = _packed_roots(cls, width)  # zero: the guard bits
    shifts = range(0, width * len(weight), width)
    residual = zero + sum(x << s for x, s in zip(weight, shifts))
    packed = [  # the roots that fit at least once
        e for e in entries if within >> e[0] & 1 and (residual - e[1]) & zero == zero
    ]
    n = len(packed)
    # uncovered[idx]: the fields no root in packed[idx:] touches
    uncovered = [0] * n + [(1 << width * len(weight)) - 1]
    for idx in range(n - 1, -1, -1):
        uncovered[idx] = uncovered[idx + 1] & ~packed[idx][2]
    counts = [0] * len(cls)
    out = [tuple(counts)] if residual == zero else []

    def rec(start: int, residual: int) -> bool:
        left = residual ^ zero  # the residual's values, without guard bits
        for idx in range(start, n):
            if left & uncovered[idx]:  # roots from idx on cannot finish it
                return False
            pos, root, _ = packed[idx]
            rest = residual - root
            if rest & zero != zero:
                continue
            fits = []
            while rest & zero == zero:
                fits.append(rest)
                rest -= root
            for c in range(len(fits), 0, -1):
                counts[pos] = c
                rest = fits[c - 1]
                if rest == zero:
                    out.append(tuple(counts))
                    if first:
                        return True
                    if len(out) > cap:
                        raise PartitionCap(weight, len(out), cap)
                elif rec(idx + 1, rest):
                    return True
            counts[pos] = 0
        return False

    if not out:
        rec(0, residual)
    return out


def sequences_of_weight(
    cls: CommClass, weight, cap: int = DEFAULT_CAP
) -> tuple[RootSequence, ...]:
    """Every multiset of roots of the class with the given total weight,
    cached in ``cache.weights`` and checked against the cap on every call,
    so that capped and uncapped calls agree whatever order they come in."""
    weight = tuple(weight)
    store = cls.cache.weights
    if weight not in store:
        store[weight] = tuple(
            RootSequence(cls, counts)
            for counts in _partitions(cls, (1 << len(cls)) - 1, weight, cap)
        )
    if len(store[weight]) > cap:
        raise PartitionCap(weight, cap + 1, cap)
    return store[weight]


def _pairs(cls: CommClass, weight) -> tuple[tuple[int, int], ...]:
    """The position pairs (i, j), i < j, of distinct roots of the class with
    the given total weight, by ascending i; kept in ``cache.pairs``.

    They are read off the packed roots of the partition search: for each
    root, one subtraction from the packed weight, a guard-bit test and one
    lookup of the rest among the packed roots.  A pair weight is nonnegative
    and fits the fields that every pair weight shares (twice the largest
    root coefficient); no pair sums to any other weight.  Each root is in at
    most one pair of a weight, so the pairs have distinct first positions.
    """
    weight = tuple(weight)
    store = cls.cache.pairs
    if weight not in store:
        out = []
        width = _width(cls, weight)
        if min(weight) >= 0 and width == _width(cls, (0,)):
            zero, _, index = _packed_roots(cls, width)
            shifts = range(0, width * len(weight), width)
            residual = zero + sum(x << s for x, s in zip(weight, shifts))
            for root, i in index.items():
                rest = residual - root
                if rest & zero == zero:
                    j = index.get(rest ^ zero)
                    if j is not None and i < j:
                        out.append((i, j))
        store[weight] = tuple(out)
    return store[weight]


def pairs_of_weight(cls: CommClass, weight) -> tuple[RootSequence, ...]:
    """Unordered pairs of distinct roots of the class with the given total
    weight, by ascending first position: the position pairs of ``_pairs``
    as sequences.  The library reads ``_pairs``; this stays public because
    the tests and ``perfbench/spans.py`` call it by name (the tracer fails
    to install without it)."""
    return tuple(_pair_sequence(cls, i, j) for i, j in _pairs(cls, weight))


def _pair_sequence(cls: CommClass, i: int, j: int) -> RootSequence:
    """The pair of the roots at class positions i and j."""
    counts = [0] * len(cls)
    counts[i] = counts[j] = 1
    return RootSequence(cls, tuple(counts))


def _pair_below(cls: CommClass, p: tuple[int, int], q: tuple[int, int]) -> bool:
    """The pair at positions p is coarse-below the pair at positions q, for
    two distinct pairs of one weight.

    Such pairs share no root (a shared root forces the other to be equal),
    so the four positions all differ, and by ``coarse_less`` p is below q
    exactly when neither root of p is heap-minimal or heap-maximal among the
    four: each has one of the four positions below it and one above it.
    """
    below, above = cls._below, cls._above
    i, j = p
    four = 1 << i | 1 << j | 1 << q[0] | 1 << q[1]
    return bool(below[i] & four and above[i] & four
                and below[j] & four and above[j] & four)


def _pair_weight(cls: CommClass, i: int, j: int) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(cls.roots[i].coeffs, cls.roots[j].coeffs))


def _ordered(cls: CommClass, i: int, j: int) -> tuple[int, int] | None:
    """Positions i and j with the one lower in the heap order first, or None
    when the two are incomparable."""
    if cls.prec_pos(i, j):
        return i, j
    if cls.prec_pos(j, i):
        return j, i
    return None


def _is_pair(seq: RootSequence) -> bool:
    return seq.support_mask.bit_count() == 2 and seq.size() == 2


# -- simplicity ---------------------------------------------------------


def _simple_key(i: int, j: int) -> tuple[int, int]:
    """The key of the pair at positions i, j in ``cache.simple``."""
    return (i, j) if i < j else (j, i)


def is_simple_pair(cls: CommClass, i: int, j: int) -> bool:
    """Simplicity of the pair at class positions i, j: no equal-weight
    sequence is coarse-below it.

    A pair whose weight is a positive root gamma is not simple, with no
    search.  The roots of the class are the inversion set of a reduced
    word, which is closed, so gamma is a root of the class; and biconvex,
    so every member lists gamma strictly between the two roots of the pair.
    The pair is then comparable in the heap and (gamma) is coarse-below it.
    This holds on the class of any reduced word.

    Incomparable pairs are always simple.  For a comparable pair the only
    possible coarse-smaller sequences of the same weight are supported
    strictly between the two roots in the heap order (the two roots are then
    exactly the minimal and maximal differing positions), so it suffices to
    look for a partition of the weight inside that open interval.  The
    search stops at the first one, so no cap applies.
    """
    store = cls.cache.simple
    key = _simple_key(i, j)
    if key not in store:
        wt = _pair_weight(cls, i, j)
        if cls.system.is_positive_root(wt):
            store[key] = False
        else:
            ij = _ordered(cls, i, j)
            store[key] = ij is None or not _partitions(
                cls, cls.interval(*ij), wt, first=True
            )
    return store[key]


def is_simple(seq: RootSequence) -> bool:
    """A sequence is simple if every pair of distinct occupied positions
    forms a simple pair (so one with a single occupied position is)."""
    occupied = seq.positions()
    return all(
        is_simple_pair(seq.cls, occupied[a], occupied[b])
        for a in range(len(occupied))
        for b in range(a + 1, len(occupied))
    )


# -- the sequences at most a sequence ----------------------------------


def _at_most(seq: RootSequence, cap: int) -> tuple[RootSequence, ...]:
    """The sequences of the weight of seq that are coarse-at-most seq, in
    search order: the set that socles and gdist chains are read from.

    For a comparable pair these are the partitions of its weight strictly
    between its two roots in the heap order (see ``is_simple_pair``),
    followed by the pair; the pair is simple exactly when there is none,
    which is recorded.  Nothing is below an incomparable pair.  Any other
    sequence filters the enumeration of its weight.
    """
    cls = seq.cls
    if not _is_pair(seq):
        return tuple(
            m for m in sequences_of_weight(cls, seq.weight(), cap)
            if m.counts == seq.counts or coarse_less(m, seq)
        )
    ij = _ordered(cls, *seq.positions())
    if ij is None:
        return (seq,)
    try:
        below = tuple(
            RootSequence(cls, counts)
            for counts in _partitions(cls, cls.interval(*ij), seq.weight(), cap)
        )
    except PartitionCap as e:
        raise PartitionCap(e.weight, e.count, cap, pair=seq) from None
    cls.cache.simple[_simple_key(*ij)] = not below
    return below + (seq,)


# -- socle and minimal sequences ---------------------------------------


def socle_candidates(
    seq: RootSequence, cap: int = DEFAULT_CAP
) -> tuple[RootSequence, ...]:
    """All simple sequences of the same weight that are coarse-at-most seq."""
    return tuple(m for m in _at_most(seq, cap) if is_simple(m))


def socle(seq: RootSequence, cap: int = DEFAULT_CAP) -> RootSequence | None:
    """The unique simple equal-weight sequence coarse-at-most seq, or None
    when no such sequence exists or several do."""
    cands = socle_candidates(seq, cap)
    return cands[0] if len(cands) == 1 else None


def minimal_sequences(
    s: RootSequence, cap: int = DEFAULT_CAP
) -> tuple[RootSequence, ...]:
    """Minimal sequences of a simple sequence s: equal-weight sequences
    strictly coarse-above s with nothing strictly between."""
    if not is_simple(s):
        raise NotInDomain("minimal sequences are defined for simple sequences")
    above = [
        m for m in sequences_of_weight(s.cls, s.weight(), cap) if coarse_less(s, m)
    ]
    return tuple(
        m
        for m in above
        if not any(coarse_less(m2, m) for m2 in above if m2.counts != m.counts)
    )


# -- distances ----------------------------------------------------------


def _gdist_pool(seq: RootSequence, cap: int):
    """The function listing the pool of the gdist chains ending at seq (the
    non-simple sequences at most seq), or None when seq is simple.  A pair's
    down-set is enumerated, and the cap checked, at once; its search settles
    the pair's simplicity.  Any other sequence is tested first, so that a
    simple one enumerates nothing, and then enumerates its weight, so that
    the cap is checked even when the chain memo holds the answer."""
    if _is_pair(seq):
        listed = _at_most(seq, cap)
        if is_simple(seq):
            return None
        return lambda: [m for m in listed if not is_simple(m)]
    if is_simple(seq):
        return None
    sequences_of_weight(seq.cls, seq.weight(), cap)
    return lambda: [m for m in _at_most(seq, cap) if not is_simple(m)]


def _longest_chain(target, pool, memo: dict, key, less) -> tuple:
    """A longest chain under ``less`` ending at target inside the list that
    ``pool()`` returns (it must hold target); the memo is read first, and
    ``pool`` called only when it lacks target.

    ``key`` places a member in count order and names it in the memo: the
    counts of a sequence, ``_count_order`` of a position pair.  A
    coarse-smaller sequence has lexicographically smaller counts: the first
    position where two sequences differ is heap-minimal among the
    differences, and there the smaller one has the smaller count.  So one
    pass over the pool in count order, up to target, settles each member
    from the members before it: it extends the first member, in count
    order, of the longest chains below it.  The memo holds, for each settled
    member, the member it extends (None at the start of a chain).  Every
    member below a member is below target, so it is in the pool, and the
    predecessor does not depend on the pool it was found in.
    """
    last = key(target)
    if last not in memo:
        length = {}  # key -> longest chain ending there, in this pass
        done = []  # (member, its longest chain), in count order
        for m in sorted(pool(), key=key):
            k = key(m)
            if k > last:
                break
            if k in memo:
                pred = memo[k]
                best = 0 if pred is None else length[key(pred)]
            else:
                pred, best = None, 0
                for x, v in done:
                    if v > best and less(x, m):
                        pred, best = x, v
                memo[k] = pred
            length[k] = best + 1
            done.append((m, best + 1))
    chain = [target]
    while (pred := memo[key(chain[-1])]) is not None:
        chain.append(pred)
    return tuple(reversed(chain))


def _count_order(p: tuple[int, int]) -> tuple[int, int]:
    """The key in count order of the pair at positions i < j: a smaller
    first position puts a 1 earlier in the counts, and for one first
    position a smaller second one does."""
    return -p[0], -p[1]


def _dist_chain(cls: CommClass, i: int, j: int) -> tuple[tuple[int, int], ...]:
    """dist_chain of the pair at class positions i and j, as position pairs
    (i < j): a chain DP over the non-simple pairs of its weight, compared
    by ``_pair_below``, with the memo keyed by ``_count_order``.  The memo
    holds only non-simple pairs, so a pair in it is answered without a
    simplicity test."""
    if i > j:
        i, j = j, i
    wt = _pair_weight(cls, i, j)
    memo = cls.cache.chains.setdefault(("dist", wt), {})
    if _count_order((i, j)) not in memo and is_simple_pair(cls, i, j):
        return ()
    return _longest_chain(
        (i, j),
        lambda: [p for p in _pairs(cls, wt) if not is_simple_pair(cls, *p)],
        memo,
        _count_order,
        partial(_pair_below, cls),
    )


def dist_chain(seq: RootSequence) -> tuple[RootSequence, ...]:
    """A longest chain of non-simple equal-weight pairs ending at the pair;
    empty for a simple pair."""
    if not _is_pair(seq):
        raise NotInDomain("dist is defined for pairs")
    cls = seq.cls
    return tuple(_pair_sequence(cls, *p) for p in _dist_chain(cls, *seq.positions()))


def pair_dist(cls: CommClass, i: int, j: int) -> int:
    """dist of the pair at class positions i and j."""
    return len(_dist_chain(cls, i, j))


def dist(seq: RootSequence) -> int:
    """Longest chain of non-simple equal-weight pairs ending at the pair,
    counted by cardinality; 0 for a simple pair."""
    if not _is_pair(seq):
        raise NotInDomain("dist is defined for pairs")
    return pair_dist(seq.cls, *seq.positions())


def gdist_chain(seq: RootSequence, cap: int = DEFAULT_CAP) -> tuple[RootSequence, ...]:
    """A longest chain of non-simple equal-weight sequences ending at seq;
    empty for a simple sequence."""
    pool = _gdist_pool(seq, cap)
    if pool is None:
        return ()
    memo = seq.cls.cache.chains.setdefault(("gdist", seq.weight()), {})
    return _longest_chain(seq, pool, memo, attrgetter("counts"), coarse_less)


def gdist(seq: RootSequence, cap: int = DEFAULT_CAP) -> int:
    """Longest chain of non-simple equal-weight sequences ending at seq; 0
    for a simple sequence."""
    return len(gdist_chain(seq, cap))


# -- good neighbors and length -----------------------------------------


def _eta_condition(cls: CommClass, pp, p, threshold: int) -> bool:
    """Condition (i) of good adjacency of the pairs at positions pp and p
    (each ascending): a root eta of the class transfers between the two
    pairs in one of the two directions, with both mixed pairs strictly
    closer than the threshold (the dist of the pair whose neighbors are
    collected).  In each pair the first slot is the root earlier in the
    class order.  Eta is neither b2 nor a1: twice a root is no root."""
    roots, pos = cls.roots, cls._pos_of_root
    pp_roots, p_roots = (roots[pp[0]], roots[pp[1]]), (roots[p[0]], roots[p[1]])
    # eta + b2 = b1 and eta + a1 = a2, from pp to p and from p to pp
    for (a1, b1), (a2, b2) in ((pp_roots, p_roots), (p_roots, pp_roots)):
        eta = b1 - b2
        e = pos.get(eta)
        if (e is not None and eta == a2 - a1
                and pair_dist(cls, e, pos[b2]) < threshold
                and pair_dist(cls, e, pos[a1]) < threshold):
            return True
    return False


def good_neighbors(p: RootSequence) -> tuple[RootSequence, ...]:
    """Non-simple equal-weight pairs below p reachable from p by a chain of
    good adjacent steps; their count is the length of p.

    A step goes from a pair b down to a pair a when a is coarse-below b,
    some root eta transfers between them (``_eta_condition`` at the
    threshold dist(p)) and no pair of the weight lies strictly between
    them.  The eta transfer conserves weight and every step goes down, so a
    breadth-first search from p over the position pairs of p's weight below
    p finds them all; a pair between two of those is below p too (the
    coarse order is transitive), so the betweenness scan runs over the same
    pairs."""
    if not _is_pair(p):
        raise NotInDomain("length is defined for pairs")
    cls = p.cls
    top = tuple(p.positions())
    below = [
        q for q in _pairs(cls, p.weight()) if q != top and _pair_below(cls, q, top)
    ]
    d = pair_dist(cls, *top)
    seen = {top}
    frontier = [top]
    for b in frontier:  # appended to while read: breadth first
        for a in below:
            if (a not in seen and _pair_below(cls, a, b)
                    and _eta_condition(cls, a, b, d)
                    and not any(_pair_below(cls, a, q) and _pair_below(cls, q, b)
                                for q in below if q != a and q != b)):
                seen.add(a)
                frontier.append(a)
    return tuple(
        _pair_sequence(cls, *q) for q in below
        if q in seen and not is_simple_pair(cls, *q)
    )


def radius(cls: CommClass, gamma: PosRoot) -> int:
    """Largest pair distance over equal-weight pairs coarse-above the
    one-entry sequence (gamma); defined for non-simple roots of the class.

    Every pair of gamma's weight is above (gamma) and not simple (see
    ``is_simple_pair``), so the pairs of the weight are the pool of their
    dist chains as they stand: one chain pass from the last member in count
    order settles the shared ``("dist", weight)`` memo, and each member's
    chain is read off the memo.  A class with no pair of gamma's weight
    (the class of a word shorter than w0 can have none) raises NotInDomain.
    """
    gamma = cls.system.root(gamma)
    if gamma.height == 1:
        raise NotInDomain("radius is defined for non-simple roots")
    cls.position(gamma)  # a root outside the class raises RootNotInWord
    # by ascending first position, so the first is the last in count order
    pool = _pairs(cls, gamma.coeffs)
    if not pool:
        raise NotInDomain(f"no pairs above ({cls.system.format_root(gamma)})")
    memo = cls.cache.chains.setdefault(("dist", gamma.coeffs), {})
    less = partial(_pair_below, cls)
    return max(
        len(_longest_chain(p, lambda: pool, memo, _count_order, less)) for p in pool
    )
