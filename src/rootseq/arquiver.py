"""Dynkin quiver orientations, Coxeter elements and the labeled AR quiver."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .rootsys import PosRoot, RootSystem, UnsupportedType, build_root_system
from .words import CommClass, ReducedWord, act, is_reduced, roots_of_word


class NotASink(ValueError):
    pass


class BadOrientation(ValueError):
    pass


@dataclass(frozen=True)
class DynkinQuiver:
    system: RootSystem
    arrows: frozenset[tuple[int, int]]

    def __post_init__(self):
        edges = {frozenset(e) for e in self.system.datum.edges}
        got = {frozenset(a) for a in self.arrows}
        if got != edges or len(self.arrows) != len(edges):
            raise BadOrientation(
                "orientation does not cover the Dynkin tree exactly once"
            )

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

    def star(self) -> "DynkinQuiver":
        inv = self.system.w0_involution
        return DynkinQuiver(
            self.system, frozenset((inv[a], inv[b]) for a, b in self.arrows)
        )

    def orientation_str(self) -> str:
        return ",".join(f"{a}>{b}" for a, b in sorted(self.arrows))


def all_orientations(system: RootSystem):
    edges = system.datum.edges
    for bits in itertools.product((0, 1), repeat=len(edges)):
        arrows = frozenset(
            (a, b) if bit == 0 else (b, a) for (a, b), bit in zip(edges, bits)
        )
        yield DynkinQuiver(system, arrows)


def coxeter_word(Q: DynkinQuiver) -> ReducedWord:
    """The source-to-sink word of the Coxeter element tau_Q (smallest-index
    source first)."""
    remaining = set(range(1, Q.system.rank + 1))
    arrows = set(Q.arrows)
    out = []
    while remaining:
        heads = {b for a, b in arrows if a in remaining and b in remaining}
        i = min(j for j in remaining if j not in heads)
        out.append(i)
        remaining.discard(i)
    return ReducedWord(tuple(out), Q.system)


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


def theta(Q: DynkinQuiver, i: int) -> PosRoot:
    """theta_i = sum of alpha_j over vertices j reachable from i."""
    fwd = {i}
    changed = True
    while changed:
        changed = False
        for a, b in Q.arrows:
            if a in fwd and b not in fwd:
                fwd.add(b)
                changed = True
    v = [0] * Q.system.rank
    for j in fwd:
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
        self.xi = height_function(quiver)
        cox = coxeter_word(quiver)
        self.coxeter_letters = cox.letters

        def tau(v):
            return act(sys_, cox.letters, v)

        label: dict[tuple[int, int], PosRoot] = {}
        mQ: dict[int, int] = {}
        tau_map: dict[PosRoot, PosRoot] = {}
        for i in range(1, sys_.rank + 1):
            g = gamma(quiver, i)
            p = self.xi[i]
            label[(i, p)] = g
            k = 0
            cur = g
            while True:
                nxt = tau(cur.coeffs)
                if min(nxt) < 0:
                    break
                k += 1
                nr = sys_.root(nxt)
                tau_map[cur] = nr
                label[(i, p - 2 * k)] = nr
                cur = nr
            mQ[i] = k
        self.mQ = mQ
        self.label = label
        self.tau = tau_map  # beta -> tau_Q(beta) where that stays positive
        self.vertex_of = {r: v for v, r in label.items()}
        if len(self.vertex_of) != sys_.N:
            raise RuntimeError("phi_Q failed to be a bijection onto the positive roots")
        d = sys_.datum.distance
        arrows = []
        for (i, p) in label:
            for j in range(1, sys_.rank + 1):
                if d(i, j) == 1 and (j, p + 1) in label:
                    arrows.append(((i, p), (j, p + 1)))
        self.arrows = tuple(arrows)
        self._succ = {}
        for u, v in arrows:
            self._succ.setdefault(u, []).append(v)
        # strict reachability masks over root indices: reach[b] = roots with a
        # path from b (i.e. roots strictly below b in prec_Q)
        order = sorted(label, key=lambda v: -v[1])  # increasing p processed first
        reach: dict[tuple[int, int], int] = {}
        for u in order:
            m = 0
            for v in self._succ.get(u, ()):
                m |= (1 << sys_.index(label[v])) | reach[v]
            reach[u] = m
        self._below_mask = {label[u]: m for u, m in reach.items()}

    def residue(self, beta: PosRoot) -> int:
        return self.vertex_of[beta][0]

    def coordinate(self, beta: PosRoot) -> tuple[int, int]:
        return self.vertex_of[beta]

    def prec(self, alpha: PosRoot, beta: PosRoot) -> bool:
        """alpha prec_Q beta, i.e. there is a path from beta to alpha."""
        return bool(self._below_mask[beta] & (1 << self.system.index(alpha)))

    def theta_root(self, i: int) -> PosRoot:
        """Label at the far end of the i-th row (equals theta of i* by the
        Nakayama identity)."""
        return self.label[(i, self.xi[i] - 2 * self.mQ[i])]

    def rows(self) -> dict[int, list[PosRoot]]:
        """Per-residue labels, ordered by increasing p (left to right)."""
        out: dict[int, list[PosRoot]] = {}
        for i in range(1, self.system.rank + 1):
            ps = sorted(p for (j, p) in self.label if j == i)
            out[i] = [self.label[(i, p)] for p in ps]
        return out

    # -- readings ------------------------------------------------------

    def reading(self, tie_break=None) -> ReducedWord:
        """A canonical arrow-compatible reading (vertices with largest p first)."""
        if tie_break is None:
            tie_break = lambda v: (-v[1], v[0])
        t = len(self.label)
        pending = dict.fromkeys(self.label, 0)
        for u, v in self.arrows:
            pending[u] += 1  # u must wait for its arrow targets
        ready = sorted((v for v, c in pending.items() if c == 0), key=tie_break)
        pred = {}
        for u, v in self.arrows:
            pred.setdefault(v, []).append(u)
        out = []
        while ready:
            v = ready.pop(0)
            out.append(v[0])
            for u in pred.get(v, ()):
                pending[u] -= 1
                if pending[u] == 0:
                    ready.append(u)
            ready.sort(key=tie_break)
        if len(out) != t:
            raise RuntimeError("reading did not exhaust the quiver")
        return ReducedWord(tuple(out), self.system)

    def adapted_words(self):
        """All arrow-compatible readings, lazily (this is the commutation class)."""
        pending = dict.fromkeys(self.label, 0)
        pred = {}
        for u, v in self.arrows:
            pending[u] += 1
            pred.setdefault(v, []).append(u)
        t = len(self.label)
        out: list[tuple[int, int]] = []

        def rec():
            if len(out) == t:
                yield ReducedWord(tuple(v[0] for v in out), self.system)
                return
            for v in sorted(pending):
                if pending[v] == 0:
                    pending[v] = -1
                    out.append(v)
                    for u in pred.get(v, ()):
                        pending[u] -= 1
                    yield from rec()
                    for u in pred.get(v, ()):
                        pending[u] += 1
                    out.pop()
                    pending[v] = 0

        yield from rec()

    def is_reading(self, word: ReducedWord) -> bool:
        """True iff the word is one of the arrow-compatible readings."""
        roots = roots_of_word(word)
        if set(roots) != set(self.vertex_of):
            return False
        rank_of = {r: k for k, r in enumerate(roots)}
        return all(
            rank_of[self.label[v]] < rank_of[self.label[u]] for u, v in self.arrows
        )

    def comm_class(self) -> CommClass:
        try:
            return self._comm_class
        except AttributeError:
            self._comm_class = CommClass(self.reading())
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
def _build_cached(arrows: frozenset, kind: str, rank: int) -> ARQuiver:
    system = build_root_system(kind, rank)
    return ARQuiver(DynkinQuiver(system, arrows))


def build_ar_quiver(Q: DynkinQuiver) -> ARQuiver:
    return _build_cached(Q.arrows, Q.system.kind, Q.system.rank)


def is_adapted(word: ReducedWord, Q: DynkinQuiver) -> bool:
    cur = Q
    for i in word.letters:
        if i not in cur.sources():
            return False
        cur = cur.reflect(i)
    return True


def find_quiver(cls: CommClass) -> DynkinQuiver | None:
    """The unique quiver with [word] = [Q], if the class is adapted to one."""
    hits = [
        Q
        for Q in all_orientations(cls.system)
        if is_adapted(cls.representative, Q)
    ]
    if not hits:
        return None
    assert len(hits) == 1, "a reduced word of w0 is adapted to at most one quiver"
    return hits[0]


def reflect_ar(arq: ARQuiver, i: int) -> ARQuiver:
    """The combinatorial reflection functor at a sink i: move the alpha_i
    vertex across the quiver and relabel by s_i.  Returns the AR quiver of
    s_i Q built from scratch after checking the surgery agrees with it."""
    Q = arq.quiver
    if i not in Q.sinks():
        raise NotASink(f"{i} is not a sink of the quiver")
    sys_ = arq.system
    alpha_i = sys_.simple_root(i)
    (istar, p) = arq.vertex_of[alpha_i]
    h = sys_.dual_coxeter
    surgery = {}
    for v, r in arq.label.items():
        if v == (istar, p):
            continue
        surgery[v] = sys_.reflect(r, i)
    surgery[(i, p + h)] = alpha_i
    fresh = build_ar_quiver(Q.reflect(i))
    # same labels per residue, in the same left-to-right order (xi may be
    # normalised differently, so compare rows, not raw coordinates)
    def row_lists(label):
        out = {}
        for (j, q), r in label.items():
            out.setdefault(j, []).append((q, r))
        return {j: [r for _, r in sorted(v)] for j, v in out.items()}

    if row_lists(surgery) != row_lists(fresh.label):
        raise RuntimeError("reflection surgery disagrees with the rebuilt AR quiver")
    return fresh


# -- type A / D structure reports --------------------------------------


@dataclass
class StructureReport:
    s_paths: list[list[PosRoot]]
    n_paths: list[list[PosRoot]]
    shallow_s: list[list[PosRoot]]
    shallow_n: list[list[PosRoot]]
    swings: list[list[PosRoot]]
    kappa: list[PosRoot]
    sigma: list[PosRoot]
    ta: int | None
    ta_prime: int | None


def _maximal_chains(arq: ARQuiver, step_ok) -> list[list[tuple[int, int]]]:
    """Maximal paths along arrows selected by step_ok((i,p),(j,p+1))."""
    sel = [(u, v) for u, v in arq.arrows if step_ok(u, v)]
    nxt = {}
    prv = {}
    for u, v in sel:
        nxt.setdefault(u, []).append(v)
        prv.setdefault(v, []).append(u)
    starts = {u for u, _ in sel} - set(prv)
    chains = []

    def walk(u, acc):
        outs = nxt.get(u, [])
        if not outs:
            chains.append(acc)
            return
        for v in outs:
            walk(v, acc + [v])

    for s in sorted(starts):
        walk(s, [s])
    return chains


def structure_report(arq: ARQuiver) -> StructureReport:
    sys_ = arq.system
    kind = sys_.kind
    n = sys_.rank
    if kind not in ("A", "D"):
        raise UnsupportedType("structure reports exist for types A and D only")

    if kind == "A":
        s_ok = lambda u, v: v[0] == u[0] + 1
        n_ok = lambda u, v: v[0] == u[0] - 1
    else:
        s_ok = lambda u, v: (u[0] <= n - 2 and v[0] == u[0] + 1) or (
            u[0] == n - 2 and v[0] == n
        )
        n_ok = lambda u, v: (2 <= u[0] <= n - 1 and v[0] == u[0] - 1) or (
            u[0] == n and v[0] == n - 2
        )

    lab = arq.label
    s_chains = _maximal_chains(arq, s_ok)
    n_chains = _maximal_chains(arq, n_ok)
    s_paths = [[lab[v] for v in c] for c in s_chains]
    n_paths = [[lab[v] for v in c] for c in n_chains]

    shallow_s: list[list[PosRoot]] = []
    shallow_n: list[list[PosRoot]] = []
    swings: list[list[PosRoot]] = []
    kappa = [lab[(1, p)] for p in sorted((p for (i, p) in lab if i == 1), reverse=True)]
    sigma: list[PosRoot] = []
    ta = ta_prime = None

    if kind == "D":
        shallow_s = [
            [lab[v] for v in c] for c in s_chains if c[-1][0] < n - 1
        ]
        shallow_n = [
            [lab[v] for v in c] for c in n_chains if c[0][0] < n - 1
        ]
        fork_cols = sorted(
            {p for (i, p) in lab if i == n - 1} & {p for (i, p) in lab if i == n}
        )
        for u in fork_cols:
            roots = {lab[(n - 1, u)], lab[(n, u)]}
            left = (n - 2, u - 1)
            while left in lab:
                roots.add(lab[left])
                step = (left[0] - 1, left[1] - 1)
                if left[0] > 1 and step in lab and s_ok(step, left):
                    left = step
                else:
                    break
            right = (n - 2, u + 1)
            while right in lab:
                roots.add(lab[right])
                step = (right[0] - 1, right[1] + 1)
                if right[0] > 1 and step in lab and n_ok(right, step):
                    right = step
                else:
                    break
            swings.append(sorted(roots))
        simples = {sys_.simple_root(n - 1), sys_.simple_root(n)}
        sigma = [
            lab[(n - 1, p)]
            for p in sorted(
                (p for (i, p) in lab if i == n - 1), reverse=True
            )
            if lab[(n - 1, p)] not in simples
        ]
        ta = n - 1
        ta_prime = n if arq.xi[n - 1] - arq.xi[n] in (2, -2) else n - 1
        # ta is the fork index whose eps summand marks every root at the fork
        # residues; the parity of the height gap between the fork rows
        # decides which of the two it is.
        ta = (n - 1) + n - ta_prime
    else:
        sigma = [
            lab[(n, p)]
            for p in sorted((p for (i, p) in lab if i == n))
        ]

    return StructureReport(
        s_paths=s_paths,
        n_paths=n_paths,
        shallow_s=shallow_s,
        shallow_n=shallow_n,
        swings=swings,
        kappa=kappa,
        sigma=sigma,
        ta=ta,
        ta_prime=ta_prime,
    )
