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
from itertools import combinations_with_replacement, product
from operator import sub

from .arquiver import ARQuiver, DynkinQuiver, all_orientations, build_ar_quiver
from .orders import RootSequence
from .rootsys import UnsupportedType
from .seqcalc import gdist
from .words import ClassCache


class WellDefinednessViolation(AssertionError):
    """The two orders of a residue/gap slot disagree on gdist; the message
    names each such slot and, per order, an orientation and pair with it."""


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


def comparable_pairs(arq: ARQuiver):
    """(a, b, slot) for every pair of class positions a < b with a strictly
    below b in the heap order: a runs over the class positions, and b over
    the set bits of its up-set, ascending.  The slot (k, l, t), k <= l,
    holds their residues and their coordinate gap, read off
    ``arq.coords``, which lists the vertices by p descending: a below b
    has the larger p, and the gap is p_a - p_b."""
    coords = arq.coords
    for a, mask in enumerate(arq.comm_class()._above):
        k, p = coords[a]
        while mask:
            low = mask & -mask
            mask ^= low
            b = low.bit_length() - 1
            kb, pb = coords[b]
            yield a, b, (k, kb, p - pb) if k <= kb else (kb, k, p - pb)


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
    position (``ARQuiver.coords``).

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
def _tree_distance(system) -> list[list[int]]:
    """dist[i][j], the number of edges between the vertices i and j of the
    Dynkin tree, 1-based (row and column 0 unused)."""
    n, adj = system.rank, system.neighbours
    dist = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        frontier = [i]
        for u in frontier:  # appended to while read: breadth first
            for v in adj[u]:
                if v != i and not dist[i][v]:
                    dist[i][v] = dist[i][u] + 1
                    frontier.append(v)
    return dist


def _gaps(arq: ARQuiver, i: int, j: int) -> range:
    """The gaps t of the ordered slots (i, j, t) that hold a comparable pair
    of Gamma_Q: a vertex (i, p) below a vertex (j, p - t) in the heap.

    Gamma_Q is a convex (path-closed) piece of ZQ (Happel, Triangulated
    Categories in the Representation Theory of Finite-Dimensional Algebras,
    LMS LN 119, 1988), so (i, p) lies below (j, p - t) exactly when both
    vertices exist and t >= dist(i, j), the distance in the Dynkin tree,
    with t >= 2 when i = j.  Row i is p = xi_i, xi_i - 2, ..., xi_i - 2 mQ_i,
    and xi moves by 1 along each edge, so |xi_i - xi_j| <= dist(i, j): the
    gaps run in steps of 2 from dist(i, j) (2 when i = j) to
    xi_i - xi_j + 2 mQ_j, the gap from the first vertex of row i to the last
    of row j."""
    return range(_tree_distance(arq.system)[i][j] or 2,
                 arq.xi[i] - arq.xi[j] + 2 * arq.mQ[j] + 1, 2)


def _first_pair(arq: ARQuiver, i: int, j: int, t: int) -> tuple[tuple, tuple]:
    """The vertices of the first pair of the ordered slot (i, j, t), t in
    ``_gaps(arq, i, j)``: the one with the largest p, which is also its
    first in ``comparable_pairs`` order."""
    p = min(arq.xi[i], arq.xi[j] + t)
    return (i, p), (j, p - t)


def _first_gdist(arq: ARQuiver, i: int, j: int, t: int) -> int:
    """gdist of the first pair of the ordered slot (i, j, t) (``_first_pair``)."""
    a, b = _first_pair(arq, i, j, t)
    return gdist(RootSequence.from_roots(arq.comm_class(), (arq.label[a], arq.label[b])))


@lru_cache(maxsize=None)
def _memo(system) -> dict:
    """The gdist memo by slot (k, l, t) that the system's o-tables share.

    A reflection at a sink or source i (Bernstein-Gelfand-Ponomarev)
    carries each comparable pair that avoids alpha_i to one of s_i Q with
    the same ordered slot and, up to s_i, the same interval; over every
    reflection of every orientation these classes are exactly the ordered
    slots, so gdist depends on the ordered slot alone, and on the slot
    where its two orders agree, as ``check_well_defined`` checks."""
    return {}


def check_well_defined(system) -> None:
    """Check that o_t is well defined on the whole system and fill its memo
    (``_memo``): the premise of every reflection at a sink or source, each
    once, then one gdist per ordered slot, of its first pair on the first
    orientation that holds it (every Gamma_Q is built, each class cache
    emptied after), the two orders of every slot agreeing wherever they
    occur; else WellDefinednessViolation names each slot where they do not."""
    for P in all_orientations(system):
        for i, Q in _reflections(P):
            _check_reflection(P, Q, i)
    first = {}  # ordered slot -> (Gamma_Q of its first orientation, gdist)
    for arq in map(build_ar_quiver, all_orientations(system)):
        try:
            for i, j in product(range(1, system.rank + 1), repeat=2):
                for t in _gaps(arq, i, j):
                    if (i, j, t) not in first:
                        first[i, j, t] = arq, _first_gdist(arq, i, j, t)
        finally:
            arq.comm_class().cache = ClassCache()

    def named(i, j, t):
        arq, o = first[i, j, t]
        a, b = (system.format_root(arq.label[v]) for v in _first_pair(arq, i, j, t))
        return f"on {arq.quiver.orientation_str()} ({a},{b}) has gdist {o}"

    broken = [f"pairs at residues ({i},{j}) gap {t} disagree: "
              f"{named(i, j, t)}; {named(j, i, t)}"
              for (i, j, t), (_, o) in first.items()
              if i < j and first.get((j, i, t), (None, o))[1] != o]
    if broken:
        raise WellDefinednessViolation("\n".join(broken))
    _memo(system).update({(min(i, j), max(i, j), t): o
                          for (i, j, t), (_, o) in first.items()})


def _o_rows(Q: DynkinQuiver) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """{(k, l): [(t, o_t), ...]} for every k <= l, in row order, t ascending,
    zeros included, over every slot (k, l, t) of Gamma_Q: its orders start at
    dist(k, l) (``_gaps``), so a row steps by 2 to the larger of their last
    gaps.  A miss of the memo (``_memo``) takes ``_first_gdist`` of the slot's
    first occupied order.  The class cache is emptied on return or raise."""
    arq, dist, memo = build_ar_quiver(Q), _tree_distance(Q.system), _memo(Q.system)
    xi, mQ, rows = arq.xi, arq.mQ, {}
    try:
        for k, l in combinations_with_replacement(range(1, Q.system.rank + 1), 2):
            ahead = xi[k] - xi[l] + 2 * mQ[l]  # the last gap of the order (k, l)
            row = rows[k, l] = []
            for t in range(dist[k][l] or 2, max(ahead, xi[l] - xi[k] + 2 * mQ[k]) + 1, 2):
                o = memo.get((k, l, t))
                if o is None:
                    i, j = (k, l) if t <= ahead else (l, k)
                    o = memo[k, l, t] = _first_gdist(arq, i, j, t)
                row.append((t, o))
    finally:
        arq.comm_class().cache = ClassCache()  # dropping it never changes an answer
    return rows


def _o_table(Q: DynkinQuiver) -> dict[tuple[int, int, int], int]:
    """{(k, l, t): o_t} over every slot of Gamma_Q, k <= l: ``_o_rows(Q)`` flat."""
    return {(k, l, t): o for (k, l), row in _o_rows(Q).items() for t, o in row}


@lru_cache(maxsize=None)
def _mirror_pairs(system) -> tuple:
    """((k, l), (k*, l*)) for each pair of rows k <= l that the w0 involution swaps."""
    return tuple((kl, m) for kl in combinations_with_replacement(range(1, system.rank + 1), 2)
                 if kl < (m := tuple(sorted(map(system.w0_involution.get, kl)))))


def _distance_polynomials(Q: DynkinQuiver) -> dict[tuple[int, int], DistancePolynomial]:
    """{(k, l): prod_t (z-(-q)^t)^{max(o_t over Q and Q^rev)}} for every
    k <= l, in row order, off Gamma_Q alone: Q^rev's row (k, l) is Q's row
    (k*, l*) (Gamma_{Q^rev} is Gamma_Q mirrored by the w0 involution), the
    two run from dist(k, l) in steps of 2 and agree where both hold a gap
    (Q and Q^rev agree on every shared slot), so the merge is the longer."""
    rows = _o_rows(Q)
    for kl, m in _mirror_pairs(Q.system):
        rows[kl] = rows[m] = max(rows[kl], rows[m], key=len)
    return {kl: DistancePolynomial(tuple(f for f in row if f[1]))
            for kl, row in rows.items()}


def distance_polynomial(Q: DynkinQuiver, k: int, l: int) -> DistancePolynomial:
    """The distance polynomial of residues k and l (``_distance_polynomials``)."""
    return _distance_polynomials(Q)[min(k, l), max(k, l)]


def denominator(Q: DynkinQuiver, k: int, l: int) -> DenominatorEntry:
    """d_{k,l}: the entry of ``denominator_table`` at (min(k, l), max(k, l)),
    labelled (k, l) as asked (its correction is symmetric, * an involution)."""
    e = next(e for e in denominator_table(Q) if (e.k, e.l) == (min(k, l), max(k, l)))
    return e._replace(k=k, l=l)


def denominator_table(Q: DynkinQuiver) -> tuple[DenominatorEntry, ...]:
    """Every d_{k,l}, k <= l, in row order: the distance polynomial of k and
    l (``_distance_polynomials``), times (z-(-q)^{h_dual}) when l = k*."""
    sys_ = Q.system
    h, star, table = sys_.dual_coxeter, sys_.w0_involution, []
    for (k, l), poly in _distance_polynomials(Q).items():
        correction = star[k] == l
        if correction:
            d = poly.as_dict()
            poly = DistancePolynomial.from_dict({**d, h: d.get(h, 0) + 1})
        table.append(DenominatorEntry(k, l, poly, correction, sys_.kind == "E"))
    return tuple(table)


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


def verify_denominator(Q: DynkinQuiver) -> tuple[dict, ...]:
    """The entries d_{k,l}, k <= l, read off the quiver that differ from
    ``quantum_cartan_denominators``, each as {"k", "l", "computed",
    "expected"}."""
    want = quantum_cartan_denominators(Q)
    return tuple(
        {"k": e.k, "l": e.l, "computed": str(e.poly), "expected": str(want[e.k, e.l])}
        for e in denominator_table(Q)
        if e.poly != want[e.k, e.l]
    )


def conjecture_table(Q: DynkinQuiver) -> tuple[DenominatorEntry, ...]:
    """The full d_{k,l} matrix (k <= l) read off a type-E quiver."""
    if Q.system.kind != "E":
        raise UnsupportedType("the conjectural table is for type E")
    return denominator_table(Q)
