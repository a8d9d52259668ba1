"""Distance polynomials read off an AR quiver, and the denominator
polynomials d_{k,l} of the corresponding untwisted affine quantum algebras
built from them (types A and D proven, type E conjectural), checked against
the inverse quantum Cartan matrix read off the same AR quiver, which holds
for every type.

A factored polynomial in z whose roots are powers of (-q) is stored as the
multiset of exponents; no coefficient arithmetic is ever needed.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import sub

from .arquiver import ARQuiver, DynkinQuiver, all_orientations, build_ar_quiver
from .orders import RootSequence
from .rootsys import UnsupportedType
from .seqcalc import gdist
from .words import ClassCache


class WellDefinednessViolation(AssertionError):
    """Two pairs in the same residue/gap slot disagree on gdist; the message
    names the orientation, the slot and two pairs with their gdists."""


class DistancePolynomial(namedtuple("DistancePolynomial", "factors")):
    """prod_t (z - (-q)^t)^{mult[t]}, stored as sorted (t, mult) factors."""

    __slots__ = ()

    @staticmethod
    def from_dict(d: dict[int, int]) -> "DistancePolynomial":
        return DistancePolynomial(
            tuple(sorted((t, m) for t, m in d.items() if m))
        )

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def times(self, t: int) -> "DistancePolynomial":
        d = self.as_dict()
        d[t] = d.get(t, 0) + 1
        return DistancePolynomial.from_dict(d)

    def format(self, style: str = "text") -> str:
        if not self.factors:
            return "1"
        parts = []
        for t, m in self.factors:
            sign = "-" if t % 2 == 0 else "+"
            if style == "latex":
                base = f"(z{sign}q^{{{t}}})"
                parts.append(base if m == 1 else base + f"^{{{m}}}")
            else:
                base = f"(z{sign}q^{t})"
                parts.append(base if m == 1 else base + f"^{m}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.format()

    def to_json(self) -> list[dict]:
        return [{"t": t, "mult": m} for t, m in self.factors]


class DenominatorEntry(
    namedtuple("DenominatorEntry", "k l poly correction conjectural")
):
    """One d_{k,l}: the distance polynomial ``poly`` with the dual-Coxeter
    correction factor merged in when l = k* (``correction``); ``conjectural``
    in type E."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "factors": self.poly.to_json(),
            "correction": self.correction,
            "conjectural": self.conjectural,
        }


def _slot_walk(coords, x: int, mask: int):
    """(x, j, slot) for each set bit j of x's up-set mask, ascending: the
    slot (k, l, t), k <= l, of class positions x and j holds their residues
    and their coordinate gap, read off ``coords`` (``ARQuiver.coords``).
    ``coords`` lists the vertices by p descending, so x below j in the heap
    has the larger p and the gap is p_x - p_j."""
    k, p = coords[x]
    while mask:
        low = mask & -mask
        mask ^= low
        j = low.bit_length() - 1
        kj, pj = coords[j]
        yield x, j, (k, kj, p - pj) if k <= kj else (kj, k, p - pj)


def comparable_pairs(arq: ARQuiver):
    """(a, b, slot) for every pair of class positions a < b with a strictly
    below b in the heap order: a runs over the class positions, and b over
    the set bits of its up-set."""
    for a, up in enumerate(arq.comm_class()._above):
        yield from _slot_walk(arq.coords, a, up)


def slots(arq: ARQuiver) -> dict[tuple[int, int, int], list]:
    """The comparable pairs as position pairs (a, b), a < b, grouped by slot
    (k, l, t), k <= l: residues {k, l} and coordinate gap t, each slot in
    the order of ``comparable_pairs``.  ``arq.coords[a]`` is the vertex
    (i, p) of position a."""
    out: dict[tuple[int, int, int], list] = {}
    for a, b, key in comparable_pairs(arq):
        out.setdefault(key, []).append((a, b))
    return out


@lru_cache(maxsize=None)
def _reflection(system, i: int) -> dict:
    """{beta: s_i beta} over the positive roots beta != alpha_i of the
    system, each image the system's own PosRoot: s_i permutes them."""
    alpha = system.simple_root(i)
    return {b: system.root(system.reflect(b, i))
            for b in system.positive_roots if b != alpha}


def _check_reflection(P: DynkinQuiver, Q: DynkinQuiver, i: int) -> None:
    """Raise unless Gamma_Q is Gamma_P reflected at P's sink or source i:
    each root beta != alpha_i of [P] is s_i beta in [Q] with the same
    residue, all coordinates p shift by one constant, alpha_i is extremal in
    the heaps of both classes, and s_i maps the heap covers of [P] that
    avoid alpha_i onto those of [Q].  The coordinates are read by class
    position (``ARQuiver.coords``), as the o-tables read them.

    The roots are mapped by C-level dict lookups, with no ``position``
    call per root.  With alpha_i's position of [P] sent to alpha_i's of
    [Q], the covers of [P] that avoid alpha_i map onto those of [Q] exactly
    when the two sets of covers differ only in covers that hold alpha_i's
    position of [Q]."""
    sys_ = P.system
    arq_p, arq_q = build_ar_quiver(P), build_ar_quiver(Q)
    cls_p, cls_q = arq_p.comm_class(), arq_q.comm_class()
    alpha = sys_.simple_root(i)
    end_p, end_q = cls_p.position(alpha), cls_q.position(alpha)
    # each class position of [P] but alpha_i's -> the position of s_i beta in [Q]
    images = list(map(_reflection(sys_, i).__getitem__,
                      cls_p.roots[:end_p] + cls_p.roots[end_p + 1:]))
    to_q = list(map(cls_q._pos_of_root.get, images))
    if None in to_q:
        cls_q.position(images[to_q.index(None)])  # raises RootNotInWord
    res_p, at_p = zip(*arq_p.coords[:end_p] + arq_p.coords[end_p + 1:])
    res_q, at_q = zip(*map(arq_q.coords.__getitem__, to_q))
    to_q.insert(end_p, end_q)
    moved = {(to_q[a], to_q[b]) for a, b in cls_p.heap_covers}

    if res_p != res_q:
        broken = "a root's residue changed"
    elif len(set(map(sub, at_q, at_p))) != 1:
        broken = "the coordinates do not shift by one constant"
    elif (cls_p._below[end_p] and cls_p._above[end_p]
          or cls_q._below[end_q] and cls_q._above[end_q]):
        broken = f"alpha_{i} is not extremal in both heaps"
    elif [c for c in moved.symmetric_difference(cls_q.heap_covers) if end_q not in c]:
        broken = f"the heap covers that avoid alpha_{i} do not correspond"
    else:
        return
    raise RuntimeError(
        f"{Q.orientation_str()} is not the reflection of {P.orientation_str()}"
        f" at {i}: {broken}"
    )


def _reflections(P: DynkinQuiver):
    """(i, s_i P) for P's sinks and sources i in ascending order: the edges
    from P of the graph of orientations (none in A1, where s_1 P = P)."""
    for i in sorted(set(P.sinks() + P.sources())):
        Q = P.reflect(i)
        if Q != P:
            yield i, Q


@lru_cache(maxsize=None)
def _derivation_tree(system) -> dict:
    """{Q: (P, i)} over every orientation Q of the system: the parent P whose
    o-table Q's is derived from, along the reflection at P's sink or source
    i; the root maps to None.

    A breadth-first tree from the root ``next(all_orientations(system))``
    whose edges from each P are ``_reflections(P)``.  The reflections at
    sinks and sources connect every orientation of a tree-shaped Dynkin
    diagram, Q^rev included.  The tree depends on the system alone, so no
    table depends on the order of the queries."""
    root = next(all_orientations(system))
    tree = {root: None}
    frontier = [root]
    for P in frontier:  # appended to while read: breadth first
        for i, Q in _reflections(P):
            if Q not in tree:
                tree[Q] = (P, i)
                frontier.append(Q)
    return tree


def _alpha_pairs(arq: ARQuiver, i: int) -> dict[tuple[int, int, int], list]:
    """The comparable pairs of the AR quiver that contain alpha_i, as
    position pairs grouped by slot as ``slots`` groups them, each slot in
    the order of ``comparable_pairs``; alpha_i must be extremal in the heap
    of its class, as ``_check_reflection`` checks.

    All are read off one mask, walked inline: alpha_i's up-set when it is
    the heap's minimum e, for the pairs (e, j), or its down-set when it is
    the maximum, for the pairs (j, e).  ``comparable_pairs`` lists either
    kind by j, as the mask's bits run.  ``coords`` lists the vertices by p
    descending (see ``_slot_walk``), so the gap of (e, j) is p_e - p_j and
    that of (j, e) is p_j - p_e."""
    cls = arq.comm_class()
    coords = arq.coords
    e = cls.position(arq.system.simple_root(i))
    k, p = coords[e]
    lowest = not cls._below[e]
    mask, sign = (cls._above[e], 1) if lowest else (cls._below[e], -1)
    out: dict[tuple[int, int, int], list] = {}
    while mask:
        low = mask & -mask
        mask ^= low
        j = low.bit_length() - 1
        kj, pj = coords[j]
        t = sign * (p - pj)
        key = (k, kj, t) if k <= kj else (kj, k, t)
        out.setdefault(key, []).append((e, j) if lowest else (j, e))
    return out


def _ordered_slot(coords, ab: tuple[int, int]) -> tuple[int, int, int]:
    """(i, j, p - q) for the position pair (a, b), a < b: (i, p) is the
    vertex of a and (j, q) that of b, read off ``coords``
    (``ARQuiver.coords``)."""
    (i, p), (j, q) = coords[ab[0]], coords[ab[1]]
    return i, j, p - q


@lru_cache(maxsize=None)
def _o_table(Q: DynkinQuiver, check_all: bool, /) -> tuple[dict, dict, dict]:
    """({(k, l, t): o_t}, {(k, l, t): n}, memo) over every occupied slot,
    k <= l: the gdist shared by the pairs of the slot, their number, and
    the system's gdist memo by ordered slot.

    Each table is derived from its parent's in ``_derivation_tree``.  The
    root has no parent: it carries an empty table and empty counts, and
    every comparable pair of its class is new.  Any other table is derived
    along the reflection at the parent's sink or source i
    (Bernstein-Gelfand-Ponomarev), its premise checked on every call
    (``_check_reflection``).  Alpha_i leaves one end of the heap and comes
    back at the other; every other root beta becomes s_i beta with the same
    residue, the same coordinate gaps and the same heap.  Alpha_i lies
    strictly between no two roots, so a pair that avoids it has the same
    interval, up to s_i, and the same gdist in both classes.  The new pairs
    are Q's alpha_i pairs, and the counts are the parent's less the
    parent's alpha_i pairs plus the new ones.

    The ordered slot of a pair (a, b), a < b, is (i, j, p - q), (i, p) the
    vertex of a and (j, q) that of b (``_ordered_slot``).  A reflection
    keeps the ordered slot of every pair it carries, and the classes of
    pairs that reflections at sinks and sources carry to one another, over
    every orientation, are exactly the ordered slots: so gdist depends on
    the ordered slot alone.  The memo
    maps each ordered slot seen so far to its gdist, computed once, on
    first sight, from the pair of the table that first has it.  The root
    creates the memo and every derived table shares its parent's, so it
    lives as long as the lru cache: ``_o_table.cache_clear()`` drops it.

    A slot holds a carried pair (one that avoids alpha_i) exactly when its
    count exceeds its number of new pairs; it takes the parent's value.  A
    slot with no carried pair takes the memo value of its first new pair.
    With check_all every new pair takes its ordered slot's memo value, which
    must equal the carried value, and a slot's two orders (k, l, t) and
    (l, k, t) must agree; and the reflections at every sink and source of Q,
    not only the tree edge, have their premise checked, since the memo
    trusts transport along all of them.  The parent's table, computed
    first, has then checked the tree edge among its own, so each edge is
    checked once: along the tree edge without check_all, and at every sink
    and source of each table with it.

    A derived table starts as a copy of the parent's, drops the slots whose
    count reaches 0 and visits only the slots with new pairs, in the order
    of the counts.  So it costs one Python step per alpha_i pair of both
    classes (at most N each, N the number of positive roots) and per slot
    with new pairs; the edge check maps the roots and the heap covers with
    C-level dict and set operations, and the two dict copies are C-level
    too.  Only a violation at a slot with a carried pair walks the slots,
    to name that slot's first pair that avoids alpha_i.

    Without check_all a derived slot holds the gdist of a pair that need not
    be the first of its slot; the two agree on every well-defined slot.  The
    counts do not depend on check_all.  A table leaves the class it reads
    gdist from with an empty ``cache`` whether it returns or raises: only
    the table is read again.

    check_all is positional and has no default, so the lru cache holds one
    entry per (Q, bool), and each value of check_all has its own memo.
    """
    edge = _derivation_tree(Q.system)[Q]
    arq = build_ar_quiver(Q)
    if edge is None:
        out, counts, memo, gone, new = {}, {}, {}, {}, slots(arq)
    else:
        P, i = edge
        table_p, counts, memo = _o_table(P, check_all)
        if not check_all:  # with it, P's table has checked all its edges
            _check_reflection(P, Q, i)
        out, counts = dict(table_p), dict(counts)
        gone = _alpha_pairs(build_ar_quiver(P), i)
        for key, pairs in gone.items():
            counts[key] -= len(pairs)
        new = _alpha_pairs(arq, i)
    if check_all:
        for j, R in _reflections(Q):
            _check_reflection(Q, R, j)
    for key, pairs in new.items():
        counts[key] = counts.get(key, 0) + len(pairs)
    for key in gone:
        if not counts[key]:  # every pair of the slot held alpha_i
            del counts[key], out[key]
    cls = arq.comm_class()
    roots, coords, fmt = cls.roots, arq.coords, Q.system.format_root
    try:
        # the slots with new pairs, in the order of counts (and of out)
        for key in filter(new.__contains__, counts):
            members = new[key]
            carried = counts[key] > len(members)
            if carried and not check_all:
                continue  # out holds the parent's value
            # gdist -> the first pair that has it; the carried pair is named
            # only if the slot disagrees
            vals = {out[key]: None} if carried else {}
            for ab in members if check_all else members[:1]:
                o = _ordered_slot(coords, ab)
                if o not in memo:
                    memo[o] = gdist(RootSequence.from_positions(cls, ab))
                vals.setdefault(memo[o], ab)
            if len(vals) > 1:
                if carried:
                    e = cls.position(Q.system.simple_root(i))
                    vals[out[key]] = next(ab for ab in slots(arq)[key] if e not in ab)
                two = ", ".join(
                    f"({fmt(roots[a])},{fmt(roots[b])}) has gdist {g}"
                    for g, (a, b) in list(vals.items())[:2]
                )
                raise WellDefinednessViolation(
                    f"{Q.orientation_str()}: pairs at residues ({key[0]},{key[1]}) "
                    f"gap {key[2]} disagree: {two}"
                )
            out[key] = next(iter(vals))
    finally:
        # every entry depends on the class alone: dropping it costs only
        # recomputation, never a different answer
        cls.cache = ClassCache()
    return out, counts, memo


def _distance_polynomials(
    Q: DynkinQuiver, check_all: bool = False
) -> dict[tuple[int, int], DistancePolynomial]:
    """{(k, l): prod_t (z-(-q)^t)^{max(o_t over Q and its reversal)}} for
    every k <= l, in row order.

    Only the root of the derivation tree has its table computed from its
    class alone; any other of the two is derived from its parent's along a
    reflection (see ``_o_table``).  The merge is the union of the two tables
    (C-level), with the max taken only over the slots where they differ.
    Q^rev's table is Q's relabelled by the w0 involution, so there are none
    where that is the identity (E7, E8, D_n for n even).  Then one pass
    groups the nonzero exponents by (k, l), and each group is sorted."""
    n = Q.system.rank
    mine = _o_table(Q, check_all)[0]
    theirs = _o_table(Q.rev(), check_all)[0]
    both = mine | theirs
    for key, o in mine.items() - theirs.items():
        if o > both[key]:  # theirs holds the key with a smaller o_t
            both[key] = o
    exps = {(k, l): [] for k in range(1, n + 1) for l in range(k, n + 1)}
    for (k, l, t), o in both.items():
        if o:
            exps[k, l].append((t, o))
    return {kl: DistancePolynomial(tuple(sorted(f))) for kl, f in exps.items()}


def distance_polynomial(
    Q: DynkinQuiver, k: int, l: int, check_all: bool = False
) -> DistancePolynomial:
    """The distance polynomial of residues k and l (see
    ``_distance_polynomials``)."""
    return _distance_polynomials(Q, check_all)[min(k, l), max(k, l)]


def _entry(Q: DynkinQuiver, k: int, l: int, poly: DistancePolynomial) -> DenominatorEntry:
    """d_{k,l} from the distance polynomial of k and l: poly, times
    (z-(-q)^{h_dual}) when l = k*."""
    sys_ = Q.system
    correction = sys_.w0_involution[k] == l
    if correction:
        poly = poly.times(sys_.dual_coxeter)
    return DenominatorEntry(k, l, poly, correction, sys_.kind == "E")


def denominator(
    Q: DynkinQuiver, k: int, l: int, check_all: bool = False
) -> DenominatorEntry:
    """d_{k,l} (see ``_entry``)."""
    return _entry(Q, k, l, distance_polynomial(Q, k, l, check_all))


def denominator_table(
    Q: DynkinQuiver, check_all: bool = False
) -> tuple[DenominatorEntry, ...]:
    """Every d_{k,l}, k <= l, in row order."""
    return tuple(
        _entry(Q, k, l, poly)
        for (k, l), poly in _distance_polynomials(Q, check_all).items()
    )


def quantum_cartan_denominators(Q: DynkinQuiver) -> dict[tuple[int, int], DistancePolynomial]:
    """{(k, l): d_{k,l}} for every k <= l, in row order, read off Gamma_Q as
    the inverse quantum Cartan matrix (Hernandez-Leclerc, arXiv:1109.0862;
    Fujita, arXiv:1911.12693): d_{k,l} = prod_{u=1..h} (z-(-q)^{u+1})^{c_{k,l}(u)},
    h the dual Coxeter number, where c_{k,l}(u) is the alpha_k coefficient
    of the root at vertex (l, xi_k - u + 1), or 0 if there is no vertex."""
    arq = build_ar_quiver(Q)
    n, h, xi, label = Q.system.rank, Q.system.dual_coxeter, arq.xi, arq.label
    return {
        (k, l): DistancePolynomial.from_dict({
            u + 1: label[l, xi[k] - u + 1].coeffs[k - 1]
            for u in range(1, h + 1) if (l, xi[k] - u + 1) in label
        })
        for k in range(1, n + 1) for l in range(k, n + 1)
    }


def verify_denominator(Q: DynkinQuiver, check_all: bool = False) -> tuple[dict, ...]:
    """The entries d_{k,l}, k <= l, read off the quiver that differ from
    ``quantum_cartan_denominators``, each as {"k", "l", "computed",
    "expected"}."""
    want = quantum_cartan_denominators(Q)
    return tuple(
        {"k": e.k, "l": e.l, "computed": str(e.poly), "expected": str(want[e.k, e.l])}
        for e in denominator_table(Q, check_all)
        if e.poly != want[e.k, e.l]
    )


def conjecture_table(Q: DynkinQuiver, check_all: bool = False) -> tuple[DenominatorEntry, ...]:
    """The full d_{k,l} matrix (k <= l) read off a type-E quiver."""
    if Q.system.kind != "E":
        raise UnsupportedType("the conjectural table is for type E")
    return denominator_table(Q, check_all)
