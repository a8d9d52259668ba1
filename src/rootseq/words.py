"""Reduced words, the positive roots they sweep out, heaps and commutation classes."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .rootsys import PosRoot, RootSystem, build_root_system


class NotReduced(ValueError):
    pass


class ClassTooLarge(RuntimeError):
    def __init__(self, partial_count: int, cap: int):
        super().__init__(f"commutation class exceeds cap {cap} (saw {partial_count})")
        self.partial_count = partial_count
        self.cap = cap


@dataclass(frozen=True)
class ReducedWord:
    letters: tuple[int, ...]
    system: RootSystem

    def __post_init__(self):
        for i in self.letters:
            if not 1 <= i <= self.system.rank:
                raise ValueError(f"letter {i} out of range for rank {self.system.rank}")

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return "s" + ".s".join(str(i) for i in self.letters)


def act(system: RootSystem, letters, vec):
    """Apply the Weyl group element s_{i1}...s_{it} to a coefficient vector
    (rightmost reflection acts first)."""
    v = vec.coeffs if isinstance(vec, PosRoot) else tuple(vec)
    for i in reversed(letters):
        v = system.reflect(v, i)
    return PosRoot(v) if isinstance(vec, PosRoot) else v


def roots_of_word(word: ReducedWord) -> tuple[PosRoot, ...]:
    """beta_k = s_{i1}...s_{i(k-1)}(alpha_{ik}); raises NotReduced on a repeat
    or a sign change."""
    sys_ = word.system
    n = sys_.rank
    # images of the simple roots under the prefix s_{i1}...s_{i(k-1)}
    images = [sys_.simple_root(i).coeffs for i in range(1, n + 1)]
    out: list[PosRoot] = []
    seen = set()
    for i in word.letters:
        v = images[i - 1]
        if min(v) < 0 or v in seen:
            raise NotReduced(f"word {word.letters} is not reduced")
        seen.add(v)
        out.append(sys_.root(v))
        # post-compose the prefix with s_i: alpha_j -> alpha_j - A_{j,i} alpha_i
        base = images[i - 1]
        images = [
            tuple(
                images[j][k] - sys_.cartan[j][i - 1] * base[k]
                for k in range(n)
            )
            for j in range(n)
        ]
    return tuple(out)


def is_reduced(word: ReducedWord) -> bool:
    try:
        roots_of_word(word)
        return True
    except NotReduced:
        return False


class CommClass:
    """A commutation class, represented by a word plus the heap on its letters.

    Positions are 0-based internally.  ``prec(a, b)`` is the strict convex
    partial order: true iff a comes before b in every member of the class.
    """

    def __init__(self, representative: ReducedWord):
        self.representative = representative
        self.system = representative.system
        self.roots = roots_of_word(representative)  # may raise NotReduced
        letters = representative.letters
        t = len(letters)
        d = self.system.distance
        covers: list[tuple[int, int]] = []
        for q in range(t):
            hit: set[int] = set()
            for p in range(q - 1, -1, -1):
                if d(letters[p], letters[q]) <= 1 and letters[p] not in hit:
                    covers.append((p, q))
                    hit.add(letters[p])
        self.heap_covers = tuple(covers)
        succ = [[] for _ in range(t)]
        for p, q in covers:
            succ[p].append(q)
        # strict reachability as bitmasks over positions
        below_of = [0] * t  # positions strictly before q in every member
        for q in range(t):
            m = 0
            for p, qq in covers:
                if qq == q:
                    m |= (1 << p) | below_of[p]
            below_of[q] = m
        self._below = below_of
        self._above = [0] * t
        for q in range(t):
            m = below_of[q]
            p = 0
            while m:
                if m & 1:
                    self._above[p] |= 1 << q
                m >>= 1
                p += 1
        self._pos_of_root = {r: k for k, r in enumerate(self.roots)}
        if len(self._pos_of_root) != t:
            raise NotReduced("repeated root in word")

    def __len__(self) -> int:
        return len(self.roots)

    def position(self, beta: PosRoot) -> int:
        try:
            return self._pos_of_root[beta]
        except KeyError:
            raise RootNotInWord(f"{beta} does not occur in this word") from None

    def prec_pos(self, p: int, q: int) -> bool:
        return bool(self._above[p] & (1 << q))

    def interval(self, p: int, q: int) -> list[int]:
        """Positions strictly between p and q in the heap order, ascending."""
        m = self._above[p] & self._below[q]
        return [k for k in range(m.bit_length()) if m >> k & 1]

    def prec(self, alpha: PosRoot, beta: PosRoot) -> bool:
        """alpha strictly before beta in every class member."""
        return self.prec_pos(self.position(alpha), self.position(beta))

    def below_mask(self, beta: PosRoot) -> int:
        return self._below[self.position(beta)]

    def above_mask(self, beta: PosRoot) -> int:
        return self._above[self.position(beta)]

    def contains(self, word: ReducedWord) -> bool:
        """Membership test: a reduced word lies in this class iff it sweeps
        out the same roots and its total order extends the heap order."""
        try:
            roots = roots_of_word(word)
        except NotReduced:
            return False
        if set(roots) != set(self.roots):
            return False
        rank_of = {r: k for k, r in enumerate(roots)}
        for p, q in self.heap_covers:
            if rank_of[self.roots[p]] > rank_of[self.roots[q]]:
                return False
        return True

    def linear_extensions(self):
        """Yield all class members (as ReducedWord), lazily."""
        t = len(self.roots)
        letters = self.representative.letters
        indeg = [0] * t
        succ = [[] for _ in range(t)]
        for p, q in self.heap_covers:
            indeg[q] += 1
            succ[p].append(q)
        out: list[int] = []

        def rec():
            if len(out) == t:
                yield ReducedWord(tuple(letters[p] for p in out), self.system)
                return
            for p in range(t):
                if indeg[p] == 0:
                    indeg[p] = -1
                    out.append(p)
                    for q in succ[p]:
                        indeg[q] -= 1
                    yield from rec()
                    for q in succ[p]:
                        indeg[q] += 1
                    out.pop()
                    indeg[p] = 0

        yield from rec()

    def to_json(self) -> dict:
        return {
            "word": list(self.representative.letters),
            "nodes": [self.system.format_root(r) for r in self.roots],
            "covers": [list(c) for c in self.heap_covers],
        }


class RootNotInWord(KeyError):
    pass


def heap_of(word: ReducedWord) -> CommClass:
    return CommClass(word)


def enumerate_class(cls: CommClass, cap: int = 10**6) -> list[ReducedWord]:
    """All members of the class by BFS over adjacent commuting swaps."""
    d = cls.system.distance
    start = cls.representative.letters
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for k in range(len(w) - 1):
                if d(w[k], w[k + 1]) > 1:
                    w2 = w[:k] + (w[k + 1], w[k]) + w[k + 2:]
                    if w2 not in seen:
                        if len(seen) >= cap:
                            raise ClassTooLarge(len(seen), cap)
                        seen.add(w2)
                        nxt.append(w2)
        frontier = nxt
    return [ReducedWord(w, cls.system) for w in sorted(seen)]


def _canonical_arrows(system: RootSystem) -> set[tuple[int, int]]:
    """A fixed orientation of the Dynkin tree: every edge points from the
    smaller to the larger node label, except that the type D fork keeps
    n-2 -> n-1 and n-2 -> n (already low-to-high) and type E is likewise
    low-to-high along every edge."""
    return {(a, b) for (a, b) in system.datum.edges}


def longest_word(system: RootSystem) -> ReducedWord:
    """A canonical reduced word of w0, adapted to the low-to-high orientation,
    built by repeatedly taking the smallest source that keeps the word reduced."""
    arrows = _canonical_arrows(system)
    n = system.rank
    images = [system.simple_root(i).coeffs for i in range(1, n + 1)]
    seen: set[tuple[int, ...]] = set()
    letters: list[int] = []
    while len(letters) < system.N:
        progressed = False
        targets = {b for (_, b) in arrows}
        for i in sorted(set(range(1, n + 1)) - targets):
            v = images[i - 1]
            if min(v) < 0 or v in seen:
                continue
            seen.add(v)
            letters.append(i)
            base = images[i - 1]
            images = [
                tuple(
                    images[j][k] - system.cartan[j][i - 1] * base[k]
                    for k in range(n)
                )
                for j in range(n)
            ]
            arrows = {
                (b, a) if i in (a, b) else (a, b) for (a, b) in arrows
            }
            progressed = True
            break
        if not progressed:  # pragma: no cover - would contradict the theory
            raise RuntimeError("stuck while building the longest word")
    return ReducedWord(tuple(letters), system)


@lru_cache(maxsize=None)
def longest_class(kind: str, rank: int) -> CommClass:
    system = build_root_system(kind, rank)
    return CommClass(longest_word(system))
