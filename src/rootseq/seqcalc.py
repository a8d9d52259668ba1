"""Simplicity, socles, minimal sequences and the distance statistics of root
sequences over a commutation class.

All sequences here live over a fixed commutation class and are compared with
the coarse bi-lex order from :mod:`rootseq.orders`.  Expensive intermediate
results (partitions of a weight, pair simplicity, chain lengths) are cached on
the class object itself.
"""

from __future__ import annotations

from .orders import RootSequence, coarse_less
from .rootsys import PosRoot
from .words import CommClass

DEFAULT_CAP = 10**6


class PartitionCap(RuntimeError):
    def __init__(self, count: int, cap: int):
        super().__init__(f"weight has more than {cap} partitions (saw {count})")
        self.count = count
        self.cap = cap


def _store(cls: CommClass) -> dict:
    try:
        return cls._seqcalc_cache
    except AttributeError:
        cls._seqcalc_cache = {}
        return cls._seqcalc_cache


def _partitions(cls: CommClass, positions, weight, cap: int = DEFAULT_CAP,
                first: bool = False) -> list[tuple[int, ...]]:
    """Count vectors over the class supported on the given positions whose
    roots sum to the weight, in a fixed order: DFS over the roots, highest
    first, each taken with its largest multiplicity first.

    With ``first`` the search stops at the first partition (an existence
    test: at most one is listed and the cap is not checked); otherwise every
    partition is listed and more than ``cap`` of them raise PartitionCap.

    A residual is packed into one int, a bit field per coordinate holding
    the coordinate plus a guard bit above every value that can occur.
    Subtracting a packed root then clears a guard bit exactly when that
    coordinate goes negative, so one subtraction and one mask test decide
    whether the root fits.
    """
    weight = tuple(weight)
    roots = cls.roots
    top = max(max((max(roots[p].coeffs) for p in positions), default=0), *weight)
    width = top.bit_length() + 1
    guard = 1 << (width - 1)  # guard > every weight coordinate and coefficient
    shifts = range(0, width * len(weight), width)

    def pack(vec, offset=0):
        return sum((x + offset) << s for x, s in zip(vec, shifts))

    zero = pack((0,) * len(weight), guard)  # also the mask of the guard bits
    residual = pack(weight, guard)
    packed = [(p, pack(roots[p].coeffs)) for p in positions]
    packed = sorted(  # the roots that fit at least once, highest first
        ((p, root) for p, root in packed if (residual - root) & zero == zero),
        key=lambda pr: (-roots[pr[0]].height, roots[pr[0]].coeffs),
    )
    n = len(packed)
    counts = [0] * len(cls)
    out = [tuple(counts)] if residual == zero else []

    def rec(start: int, residual: int) -> bool:
        for idx in range(start, n):
            pos, root = packed[idx]
            fits = []
            rest = residual - root
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
                        raise PartitionCap(len(out), cap)
                elif rec(idx + 1, rest):
                    return True
            counts[pos] = 0
        return False

    if not out:
        rec(0, residual)
    return out


def _enumerated(
    cls: CommClass, key, positions, weight, cap: int
) -> tuple[RootSequence, ...]:
    """The partitions of the weight over the positions, cached under the key
    and checked against the cap on every call, so that capped and uncapped
    calls agree whatever order they come in."""
    store = _store(cls)
    if key not in store:
        store[key] = tuple(
            RootSequence(cls, counts)
            for counts in _partitions(cls, positions, weight, cap)
        )
    if len(store[key]) > cap:
        raise PartitionCap(cap + 1, cap)
    return store[key]


def sequences_of_weight(
    cls: CommClass, weight, cap: int = DEFAULT_CAP
) -> tuple[RootSequence, ...]:
    """Every multiset of roots of the class with the given total weight."""
    weight = tuple(weight)
    return _enumerated(cls, ("parts", weight), range(len(cls)), weight, cap)


def pairs_of_weight(cls: CommClass, weight) -> tuple[RootSequence, ...]:
    """Unordered pairs of distinct roots of the class with the given total
    weight (enumerated directly, without listing all partitions)."""
    weight = tuple(weight)
    store = _store(cls)
    key = ("pairs", weight)
    if key not in store:
        sys_ = cls.system
        out = []
        for i, r in enumerate(cls.roots):
            rest = tuple(w - c for w, c in zip(weight, r.coeffs))
            if min(rest) < 0 or not sys_.is_positive_root(rest):
                continue
            other = sys_.root(rest)
            if other == r or other not in cls._pos_of_root:
                continue
            j = cls.position(other)
            if i < j:
                counts = [0] * len(cls)
                counts[i] = counts[j] = 1
                out.append(RootSequence(cls, tuple(counts)))
        store[key] = tuple(out)
    return store[key]


def _pair_weight(cls: CommClass, i: int, j: int) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(cls.roots[i].coeffs, cls.roots[j].coeffs))


def _interval_partitions(
    cls: CommClass, i: int, j: int, cap: int = DEFAULT_CAP
) -> tuple[RootSequence, ...]:
    """All multisets of roots strictly between positions i and j in the heap
    order (i strictly below j) summing to beta_i + beta_j.  Every such
    multiset is coarse-below the pair (i, j), and conversely every sequence
    coarse-below the pair with its weight is of this shape."""
    return _enumerated(
        cls, ("ipart", i, j), cls.interval(i, j), _pair_weight(cls, i, j), cap
    )


def _ordered_pair_positions(seq: RootSequence) -> tuple[int, int] | None:
    """Positions (i, j) of a pair with i strictly below j in the heap order,
    or None when the two roots are incomparable."""
    i, j = _pair_positions(seq)
    if seq.cls.prec_pos(i, j):
        return i, j
    if seq.cls.prec_pos(j, i):
        return j, i
    return None


def _is_pair(seq: RootSequence) -> bool:
    return seq.size() == 2 and max(seq.counts) == 1


def _pair_positions(seq: RootSequence) -> tuple[int, int]:
    i, j = (k for k, c in enumerate(seq.counts) if c)
    return i, j


# -- simplicity ---------------------------------------------------------


def is_simple_pair(cls: CommClass, i: int, j: int) -> bool:
    """Simplicity of the pair at class positions i, j: no equal-weight
    sequence is coarse-below it.

    Incomparable pairs are always simple.  For a comparable pair the only
    possible coarse-smaller sequences of the same weight are supported
    strictly between the two roots in the heap order (the two roots are then
    exactly the minimal and maximal differing positions), so it suffices to
    look for a partition of the weight inside that open interval.  The
    search stops at the first one, so no cap applies.
    """
    if i > j:
        i, j = j, i
    store = _store(cls)
    key = ("simple", i, j)
    if key not in store:
        if cls.prec_pos(j, i):
            i, j = j, i
        store[key] = not cls.prec_pos(i, j) or not _partitions(
            cls, cls.interval(i, j), _pair_weight(cls, i, j), first=True
        )
    return store[key]


def is_simple_pair_brute(cls: CommClass, i: int, j: int) -> bool:
    """Reference implementation straight from the definition."""
    counts = [0] * len(cls)
    counts[i] += 1
    counts[j] += 1
    p = RootSequence(cls, tuple(counts))
    return not any(
        coarse_less(m, p) for m in sequences_of_weight(cls, p.weight())
    )


def is_simple(seq: RootSequence) -> bool:
    """A sequence is simple if it has a single entry or every pair of
    distinct occupied positions forms a simple pair."""
    if seq.size() <= 1:
        return True
    occupied = [k for k, c in enumerate(seq.counts) if c]
    return all(
        is_simple_pair(seq.cls, occupied[a], occupied[b])
        for a in range(len(occupied))
        for b in range(a + 1, len(occupied))
    )


# -- socle and minimal sequences ---------------------------------------


def socle_candidates(
    seq: RootSequence, cap: int = DEFAULT_CAP
) -> tuple[RootSequence, ...]:
    """All simple sequences of the same weight that are coarse-at-most seq."""
    if _is_pair(seq):
        ij = _ordered_pair_positions(seq)
        if ij is None:
            return (seq,)  # incomparable pairs are simple and nothing is below
        below = _interval_partitions(seq.cls, *ij, cap=cap)
        out = [m for m in below if is_simple(m)]
        if not below:  # the pair itself is then simple
            out.append(seq)
        return tuple(out)
    out = []
    for m in sequences_of_weight(seq.cls, seq.weight(), cap):
        if (m.counts == seq.counts or coarse_less(m, seq)) and is_simple(m):
            out.append(m)
    return tuple(out)


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
        raise ValueError("minimal sequences are defined for simple sequences")
    above = [
        m for m in sequences_of_weight(s.cls, s.weight(), cap) if coarse_less(s, m)
    ]
    return tuple(
        m
        for m in above
        if not any(coarse_less(m2, m) for m2 in above if m2.counts != m.counts)
    )


# -- distances ----------------------------------------------------------


def _dist_pool(seq: RootSequence) -> list[RootSequence]:
    """The non-simple pairs of the weight of seq."""
    return [
        p
        for p in pairs_of_weight(seq.cls, seq.weight())
        if not is_simple_pair(seq.cls, *_pair_positions(p))
    ]


def _gdist_pool(seq: RootSequence, cap: int) -> list[RootSequence]:
    """The non-simple sequences of the weight of seq that a chain ending at
    the non-simple seq can use."""
    if _is_pair(seq):
        # every chain member is coarse-below the pair, hence an interval
        # partition of it; no global enumeration needed
        below = _interval_partitions(seq.cls, *_ordered_pair_positions(seq), cap=cap)
        return [m for m in below if not is_simple(m)] + [seq]
    return [
        m
        for m in sequences_of_weight(seq.cls, seq.weight(), cap)
        if not is_simple(m)
    ]


def dist(seq: RootSequence) -> int:
    """Longest chain of non-simple equal-weight pairs ending at the pair,
    counted by cardinality; 0 for a simple pair."""
    if not _is_pair(seq):
        raise ValueError("dist is defined for pairs")
    if is_simple_pair(seq.cls, *_pair_positions(seq)):
        return 0
    return _longest_chain(seq, _dist_pool(seq), ("dist", seq.weight()))


def gdist(seq: RootSequence, cap: int = DEFAULT_CAP) -> int:
    """Longest chain of non-simple equal-weight sequences ending at seq."""
    if is_simple(seq):
        return 0
    return _longest_chain(seq, _gdist_pool(seq, cap), ("gdist", seq.weight()))


def _longest_chain(seq: RootSequence, pool, cache_tag) -> int:
    """Length of the longest coarse chain inside pool ending at seq (which
    must be in pool)."""
    cls = seq.cls
    store = _store(cls)
    memo = store.setdefault(cache_tag, {})

    def best(counts) -> int:
        if counts in memo:
            return memo[counts]
        memo[counts] = 1  # placeholder; orders are acyclic so this is safe
        me = RootSequence(cls, counts)
        b = 1 + max(
            (
                best(m.counts)
                for m in pool
                if m.counts != counts and coarse_less(m, me)
            ),
            default=0,
        )
        memo[counts] = b
        return b

    return best(seq.counts)


def _chain_witness(seq: RootSequence, pool, cache_tag) -> tuple[RootSequence, ...]:
    """A longest chain ending at seq, reconstructed from the memo table."""
    best = _longest_chain(seq, pool, cache_tag)
    memo = _store(seq.cls)[cache_tag]
    chain = [seq]
    cur, val = seq, best
    while val > 1:
        for m in pool:
            if (
                m.counts != cur.counts
                and memo.get(m.counts) == val - 1
                and coarse_less(m, cur)
            ):
                chain.append(m)
                cur, val = m, val - 1
                break
        else:  # pragma: no cover - the DP guarantees a predecessor
            raise AssertionError("broken chain reconstruction")
    return tuple(reversed(chain))


def dist_chain(seq: RootSequence) -> tuple[RootSequence, ...]:
    """A longest chain of non-simple pairs ending at seq (empty if simple)."""
    if dist(seq) == 0:
        return ()
    return _chain_witness(seq, _dist_pool(seq), ("dist", seq.weight()))


def gdist_chain(seq: RootSequence, cap: int = DEFAULT_CAP) -> tuple[RootSequence, ...]:
    """A longest chain of non-simple sequences ending at seq (empty if simple)."""
    if gdist(seq, cap=cap) == 0:
        return ()
    return _chain_witness(seq, _gdist_pool(seq, cap), ("gdist", seq.weight()))


# -- good neighbors and length -----------------------------------------


def _pair_roots_ordered(p: RootSequence) -> tuple[PosRoot, PosRoot]:
    i, j = _pair_positions(p)
    return p.cls.roots[i], p.cls.roots[j]


def _eta_condition(
    pp: RootSequence, p: RootSequence, threshold: int | None = None
) -> bool:
    """Condition (i) of good adjacency: a root eta transfers between the two
    pairs in one of the two directions, with both mixed pairs strictly closer
    than the threshold (the dist of the pair whose neighbors are collected;
    dist(p) when checking a single adjacency).  In each pair the first slot
    is the root earlier in the class order."""
    cls = p.cls
    sys_ = cls.system
    a1, b1 = _pair_roots_ordered(pp)
    a2, b2 = _pair_roots_ordered(p)
    d = dist(p) if threshold is None else threshold
    # (a) eta + b2 = b1 and eta + a1 = a2
    eta = b1 - b2
    if eta == a2 - a1 and min(eta.coeffs) >= 0 and sys_.is_positive_root(eta):
        q1 = _mk_pair(cls, eta, b2)
        q2 = _mk_pair(cls, eta, a1)
        if (
            q1 is not None
            and q2 is not None
            and dist(q1) < d
            and dist(q2) < d
        ):
            return True
    # (b) b1 + eta = b2 and a2 + eta = a1
    eta = b2 - b1
    if eta == a1 - a2 and min(eta.coeffs) >= 0 and sys_.is_positive_root(eta):
        q1 = _mk_pair(cls, b1, eta)
        q2 = _mk_pair(cls, a2, eta)
        if (
            q1 is not None
            and q2 is not None
            and dist(q1) < d
            and dist(q2) < d
        ):
            return True
    return False


def _mk_pair(cls: CommClass, r1: PosRoot, r2: PosRoot) -> RootSequence | None:
    if r1 == r2:
        return None
    try:
        i, j = cls.position(r1), cls.position(r2)
    except KeyError:
        return None
    counts = [0] * len(cls)
    counts[i] = counts[j] = 1
    return RootSequence(cls, tuple(counts))


def good_adjacent(
    pp: RootSequence, p: RootSequence, threshold: int | None = None
) -> bool:
    """pp and p are good adjacent neighbors: pp is coarse-below p, some root
    transfers between them per the eta condition, and no pair of the same
    weight sits strictly between them.

    A pair satisfying the eta condition against p automatically has the
    weight of p, so the exclusion clause reduces to the betweenness check."""
    if not (_is_pair(pp) and _is_pair(p)):
        raise ValueError("good adjacency is defined for pairs")
    if not coarse_less(pp, p):
        return False
    if not _eta_condition(pp, p, threshold):
        return False
    for q in pairs_of_weight(p.cls, p.weight()):
        if q.counts in (p.counts, pp.counts):
            continue
        if coarse_less(pp, q) and coarse_less(q, p):
            return False
    return True


def good_neighbors(p: RootSequence) -> tuple[RootSequence, ...]:
    """Non-simple equal-weight pairs below p reachable by a chain of good
    adjacent steps; their count is the length of p."""
    if not _is_pair(p):
        raise ValueError("length is defined for pairs")
    cls = p.cls
    wt = p.weight()
    pool = pairs_of_weight(cls, wt)
    # the eta transfer conserves weight and every chain member is coarse
    # below p, so intermediate pairs below p of the same weight suffice
    nodes = [q for q in pool if q.counts == p.counts or coarse_less(q, p)]
    d = dist(p)
    adj = {q.counts: [] for q in nodes}
    for a in nodes:
        for b in nodes:
            if a.counts != b.counts and good_adjacent(a, b, threshold=d):
                adj[b.counts].append(a.counts)
    seen = {p.counts}
    frontier = [p.counts]
    while frontier:
        nxt = []
        for c in frontier:
            for c2 in adj[c]:
                if c2 not in seen:
                    seen.add(c2)
                    nxt.append(c2)
        frontier = nxt
    out = []
    for q in nodes:
        if q.counts == p.counts or q.counts not in seen:
            continue
        if not is_simple_pair(cls, *_pair_positions(q)):
            out.append(q)
    return tuple(out)


def length(p: RootSequence) -> int:
    return len(good_neighbors(p))


def radius(cls: CommClass, gamma: PosRoot) -> int:
    """Largest pair distance over equal-weight pairs coarse-above the
    one-entry sequence (gamma); defined for non-simple roots."""
    gamma = cls.system.root(gamma)
    if gamma.height == 1:
        raise ValueError("radius is defined for non-simple roots")
    counts = [0] * len(cls)
    counts[cls.position(gamma)] = 1
    base = RootSequence(cls, tuple(counts))
    vals = [
        dist(p)
        for p in pairs_of_weight(cls, gamma.coeffs)
        if coarse_less(base, p)
    ]
    if not vals:
        raise ValueError(f"no pairs above ({cls.system.format_root(gamma)})")
    return max(vals)
