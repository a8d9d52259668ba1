"""Dynkin quiver orientations and the labeled AR quiver, knitted by the mesh rule."""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from .rootsys import PosRoot, RootSystem, field_width, packed_roots
from .words import CommClass, ReducedWord


class BadOrientation(ValueError):
    pass


class DynkinQuiver(namedtuple("DynkinQuiver", "system arrows")):
    """An orientation of the Dynkin tree of ``system``: ``arrows`` is a
    frozenset of (tail, head) pairs covering every edge once."""

    __slots__ = ()

    def __new__(cls, system: RootSystem, arrows: frozenset[tuple[int, int]]):
        edges = {frozenset(e) for e in system.edges}
        got = {frozenset(a) for a in arrows}
        if got != edges or len(arrows) != len(edges):
            raise BadOrientation(
                "orientation does not cover the Dynkin tree exactly once"
            )
        return super().__new__(cls, system, arrows)

    @staticmethod
    def from_arrows(system: RootSystem, arrows) -> "DynkinQuiver":
        """The quiver of the given (tail, head) pairs: a pair given twice is
        refused, not merged into the set."""
        given = [(int(a), int(b)) for a, b in arrows]
        arrows = frozenset(given)
        if len(arrows) != len(given):
            raise BadOrientation("orientation gives an arrow more than once")
        return DynkinQuiver(system, arrows)

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
    edges = system.edges
    for bits in itertools.product((0, 1), repeat=len(edges)):
        arrows = frozenset(
            (a, b) if bit == 0 else (b, a) for (a, b), bit in zip(edges, bits)
        )
        yield DynkinQuiver(system, arrows)


def height_function(Q: DynkinQuiver) -> dict[int, int]:
    """xi with xi = 0 at the smallest-index source; xi drops by 1 along arrows."""
    start = min(Q.sources())
    xi, frontier = {start: 0}, [start]
    for u in frontier:  # appended to while read: breadth first
        for v in Q.system.neighbours[u]:
            if v not in xi:
                xi[v] = xi[u] - 1 if (u, v) in Q.arrows else xi[u] + 1
                frontier.append(v)
    return xi


@lru_cache(maxsize=None)
def _packing(system: RootSystem):
    """Per system: the field width of the packed labels of Gamma_Q, their
    guard bits and the positive root of each packed label.  The width is
    the one every pair weight uses (``rootsys.field_width``): it holds
    every mesh sum."""
    width = field_width(system)
    zero, entries = packed_roots(system, width)
    return width, zero, {packed: r for r, packed, _ in entries}


def _knit(quiver: DynkinQuiver, xi: dict) -> tuple[dict, dict]:
    """The labels of Gamma_Q by vertex (i, p), row by row, each right to
    left, and mQ.

    Knitted right to left by the mesh rule: tau_Q(M) + M is the sum of the
    labels (j, p-1), j ~ i, present, for every non-projective M at (i, p).
    At the projective the sum is M - alpha_i, so the first vector with a
    negative entry ends the row.  Each label is one packed int
    (``rootsys.packed_roots``): a sum holds at most two roots, or the
    radical of a projective, so it fits the fields, and in
    zero - M + sum a cleared guard bit is a negative entry.  Only the
    finished labels become roots, each by one lookup."""
    system = quiver.system
    n = system.rank
    adj = system.neighbours
    width, zero, root_of = _packing(system)
    # Row i starts at gamma_i = alpha_i + the gamma_a of its arrows a -> i
    # (the Dynkin tree has one path from each vertex to i).  A tail has the
    # larger xi, so by xi descending each gamma_a is complete when added.
    gamma = [0] + [1 << width * (i - 1) for i in range(1, n + 1)]
    for a, b in sorted(quiver.arrows, key=lambda e: -xi[e[0]]):
        gamma[b] += gamma[a]
    rows = [[g] for g in gamma]  # rows[i]: row i from (i, xi_i) leftwards
    open_rows = range(1, n + 1)
    p = max(xi.values())
    while open_rows:
        # the level p-1 is complete: it was knitted from the level p+1
        still = []
        for i in open_rows:
            row = rows[i]
            if xi[i] - 2 * len(row) + 2 == p:
                v = zero - row[-1]
                for j in adj[i]:
                    k = (xi[j] - p + 1) >> 1  # (j, p-1) is rows[j][k]
                    if 0 <= k < len(rows[j]):
                        v += rows[j][k]
                if v & zero != zero:
                    continue
                row.append(v ^ zero)
            still.append(i)
        open_rows = still
        p -= 1
    try:
        label = {(i, xi[i] - 2 * k): root_of[v]
                 for i in range(1, n + 1) for k, v in enumerate(rows[i])}
    except KeyError:
        raise RuntimeError("phi_Q failed: a label is not a positive root") from None
    return label, {i: len(rows[i]) - 1 for i in range(1, n + 1)}


class ARQuiver:
    """The AR quiver Gamma_Q: vertices (i, p) labeled bijectively by the
    positive roots, with arrows (i, p) -> (j, p+1) for adjacent i, j.

    Its vertices in the canonical reading order (p descending, then by
    residue) are ``coords``: coords[k] is the vertex of class position k of
    ``comm_class()``, whose k-th letter is i and k-th root label[coords[k]].
    Every arrow goes from p to p+1, so each vertex comes after its arrow
    targets and the reading is arrow-compatible.  ``arrows`` is computed
    on each read; the library itself reads the class."""

    def __init__(self, quiver: DynkinQuiver):
        self.quiver = quiver
        self.system = sys_ = quiver.system
        self.xi = xi = height_function(quiver)
        # knitted in a frame of its own, whose working state is freed
        # before the class below is built
        self.label, self.mQ = _knit(quiver, xi)
        label = self.label
        self.vertex_of = {r: v for v, r in label.items()}
        if len(self.vertex_of) != sys_.N:
            raise RuntimeError("phi_Q failed to be a bijection onto the positive roots")
        # the key tuples of label themselves; the class takes its roots
        # from the labels, so none is recomputed
        self.coords = coords = tuple(sorted(label, key=lambda v: (-v[1], v[0])))
        self._comm_class = CommClass(
            ReducedWord(tuple(i for i, _ in coords), sys_),
            tuple(label[v] for v in coords),
        )

    @property
    def arrows(self) -> tuple:
        """The arrows (i, p) -> (j, p + 1), by tail in the order of
        ``label``, then by j."""
        adj, label = self.system.neighbours, self.label
        return tuple(
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

    def comm_class(self) -> CommClass:
        """The class [Q] of the canonical reading, built with the quiver."""
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
                  for a, b in cls.system.edges),
    )
    return Q if is_adapted(word, Q) else None
