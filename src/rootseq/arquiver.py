"""Dynkin quiver orientations and the labeled AR quiver, knitted by the mesh rule."""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .rootsys import PosRoot, RootSystem
from .words import CommClass, ReducedWord


class BadOrientation(ValueError):
    pass


class DynkinQuiver(namedtuple("DynkinQuiver", "system arrows")):
    """An orientation of the Dynkin tree of ``system``: ``arrows`` is a
    frozenset of (tail, head) pairs covering every edge once."""

    __slots__ = ()

    def __new__(cls, system: RootSystem, arrows: frozenset[tuple[int, int]]):
        edges = {frozenset(e) for e in system.datum.edges}
        got = {frozenset(a) for a in arrows}
        if got != edges or len(arrows) != len(edges):
            raise BadOrientation(
                "orientation does not cover the Dynkin tree exactly once"
            )
        return super().__new__(cls, system, arrows)

    @staticmethod
    def from_arrows(system: RootSystem, arrows) -> "DynkinQuiver":
        return DynkinQuiver(system, frozenset((int(a), int(b)) for a, b in arrows))

    def sources(self) -> tuple[int, ...]:
        heads = {b for _, b in self.arrows}
        return tuple(
            i for i in range(1, self.system.rank + 1) if i not in heads
        )

    def sinks(self) -> tuple[int, ...]:
        tails = {a for a, _ in self.arrows}
        return tuple(
            i for i in range(1, self.system.rank + 1) if i not in tails
        )

    def reflect(self, i: int) -> "DynkinQuiver":
        """s_i Q: flip all arrows incident to i (i must be a source or sink)."""
        if i not in self.sources() and i not in self.sinks():
            raise ValueError(f"{i} is neither a source nor a sink")
        return DynkinQuiver(
            self.system,
            frozenset((b, a) if i in (a, b) else (a, b) for a, b in self.arrows),
        )

    def rev(self) -> "DynkinQuiver":
        return DynkinQuiver(self.system, frozenset((b, a) for a, b in self.arrows))

    def orientation_str(self) -> str:
        return ",".join(f"{a}>{b}" for a, b in sorted(self.arrows))


def all_orientations(system: RootSystem):
    edges = system.datum.edges
    for bits in itertools.product((0, 1), repeat=len(edges)):
        arrows = frozenset(
            (a, b) if bit == 0 else (b, a) for (a, b), bit in zip(edges, bits)
        )
        yield DynkinQuiver(system, arrows)


def gamma(Q: DynkinQuiver, i: int) -> PosRoot:
    """gamma_i = sum of alpha_j over vertices j with a directed path to i."""
    back = {i}
    changed = True
    while changed:
        changed = False
        for a, b in Q.arrows:
            if b in back and a not in back:
                back.add(a)
                changed = True
    v = [0] * Q.system.rank
    for j in back:
        v[j - 1] = 1
    return Q.system.root(tuple(v))


def height_function(Q: DynkinQuiver) -> dict[int, int]:
    """xi with xi = 0 at the smallest-index source; xi drops by 1 along arrows."""
    start = min(Q.sources())
    xi = {start: 0}
    frontier = [start]
    adj = {}
    for a, b in Q.arrows:
        adj.setdefault(a, []).append((b, -1))
        adj.setdefault(b, []).append((a, +1))
    while frontier:
        nxt = []
        for u in frontier:
            for v, step in adj.get(u, ()):
                if v not in xi:
                    xi[v] = xi[u] + step
                    nxt.append(v)
        frontier = nxt
    return xi


class ARQuiver:
    """The AR quiver Gamma_Q: vertices (i, p) labeled bijectively by the
    positive roots, with arrows (i, p) -> (j, p+1) for adjacent i, j."""

    def __init__(self, quiver: DynkinQuiver):
        self.quiver = quiver
        self.system = quiver.system
        sys_ = self.system
        n = sys_.rank
        self.xi = xi = height_function(quiver)
        adj = {
            i: [j for j in range(1, n + 1) if sys_.cartan[i - 1][j - 1] == -1]
            for i in range(1, n + 1)
        }
        # Knit right to left by the mesh rule: tau_Q(M) + M is the sum of
        # the labels (j, p-1), j ~ i, present, for every non-projective
        # M at (i, p).  At the projective the sum is M - alpha_i, so the
        # first vector with a negative entry ends the row.
        at = {(i, xi[i]): gamma(quiver, i).coeffs for i in range(1, n + 1)}
        low = dict(xi)  # the smallest p knitted so far in each row
        open_rows = set(range(1, n + 1))
        p = max(xi.values())
        while open_rows:
            # the level p-1 is complete: it was knitted from the level p+1
            for i in [i for i in open_rows if low[i] == p]:
                v = [-c for c in at[(i, p)]]
                for j in adj[i]:
                    u = at.get((j, p - 1))
                    if u is not None:
                        v = [a + b for a, b in zip(v, u)]
                if min(v) < 0:
                    open_rows.discard(i)
                else:
                    at[(i, p - 2)] = tuple(v)
                    low[i] = p - 2
            p -= 1
        label: dict[tuple[int, int], PosRoot] = {}
        for i in range(1, n + 1):
            for q in range(xi[i], low[i] - 1, -2):
                label[(i, q)] = sys_.root(at[(i, q)])
        self.mQ = {i: (xi[i] - low[i]) // 2 for i in range(1, n + 1)}
        self.label = label
        self.vertex_of = {r: v for v, r in label.items()}
        if len(self.vertex_of) != sys_.N:
            raise RuntimeError("phi_Q failed to be a bijection onto the positive roots")
        self.arrows = tuple(
            ((i, p), (j, p + 1))
            for (i, p) in label
            for j in adj[i]
            if (j, p + 1) in label
        )

    def rows(self) -> dict[int, list[PosRoot]]:
        """Per-residue labels, ordered by increasing p (left to right)."""
        out: dict[int, list[PosRoot]] = {}
        for i in range(1, self.system.rank + 1):
            ps = sorted(p for (j, p) in self.label if j == i)
            out[i] = [self.label[(i, p)] for p in ps]
        return out

    # -- readings ------------------------------------------------------

    def reading(self) -> ReducedWord:
        """The canonical arrow-compatible reading: largest p first, then by
        residue.  Every arrow goes from p to p+1, so each vertex comes after
        its arrow targets."""
        order = sorted(self.label, key=lambda v: (-v[1], v[0]))
        return ReducedWord(tuple(i for i, _ in order), self.system)

    def comm_class(self) -> CommClass:
        """The class [Q] of the reading, with its roots read off the labels:
        the reading takes each row right to left, so the k-th letter i of
        it is the vertex (i, xi_i - 2k).

        It also sets ``coords``: the vertex (i, p) of each class position,
        coords[k] = vertex_of[roots[k]], the key tuples of ``label``
        themselves."""
        try:
            return self._comm_class
        except AttributeError:
            word = self.reading()
            p = dict(self.xi)  # the p of the next vertex of each row
            roots, coords = [], []
            for i in word.letters:
                root = self.label[(i, p[i])]
                roots.append(root)
                coords.append(self.vertex_of[root])
                p[i] -= 2
            self._comm_class = CommClass(word, tuple(roots))
            self.coords = tuple(coords)
            return self._comm_class

    def to_json(self) -> dict:
        return {
            "orientation": self.quiver.orientation_str(),
            "xi": {str(i): p for i, p in sorted(self.xi.items())},
            "vertices": [
                {"i": i, "p": p, "root": self.system.format_root(r)}
                for (i, p), r in sorted(self.label.items())
            ],
            "arrows": [[list(u), list(v)] for u, v in sorted(self.arrows)],
        }

    def to_dot(self) -> str:
        fmt = self.system.format_root
        lines = ["digraph ar_quiver {", "  rankdir=LR;"]
        name = lambda v: f'"{v[0]}_{v[1]}"'
        for (i, p), r in sorted(self.label.items()):
            lines.append(f'  {name((i, p))} [label="{fmt(r)}"];')
        for i in range(1, self.system.rank + 1):
            row = sorted(v for v in self.label if v[0] == i)
            lines.append(
                "  { rank=same; " + " ".join(name(v) for v in row) + " }"
            )
        for u, v in sorted(self.arrows):
            lines.append(f"  {name(u)} -> {name(v)};")
        lines.append("}")
        return "\n".join(lines)


@lru_cache(maxsize=None)
def build_ar_quiver(Q: DynkinQuiver) -> ARQuiver:
    return ARQuiver(Q)


def is_adapted(word: ReducedWord, Q: DynkinQuiver) -> bool:
    cur = Q
    for i in word.letters:
        if i not in cur.sources():
            return False
        cur = cur.reflect(i)
    return True


def find_quiver(cls: CommClass) -> DynkinQuiver | None:
    """The unique quiver with [word] = [Q], if the class is adapted to one.

    [Q] is a class of reduced words of w0, so a shorter word has none.  In
    a word adapted to Q, every arrow's tail occurs before its head (the head
    becomes a source only once the tail has been reflected), so Q can be read
    off the word and checked once.
    """
    word = cls.representative
    if len(word) != cls.system.N:
        return None
    first = {}
    for k, i in enumerate(word.letters):
        first.setdefault(i, k)
    Q = DynkinQuiver(
        cls.system,
        frozenset((a, b) if first[a] < first[b] else (b, a)
                  for a, b in cls.system.datum.edges),
    )
    return Q if is_adapted(word, Q) else None
