"""Finite ADE Cartan data, positive roots and the three root-naming conventions.

Roots are stored as coefficient vectors over the simple roots.  Node numbering:

* type A_n: a line 1 - 2 - ... - n,
* type D_n: a line 1 - ... - (n-2) with both n-1 and n attached to n-2,
* type E_6: a line 1 - 2 - 3 - 4 - 5 with 6 attached to 3,
* type E_7/E_8: a line 1 - 3 - 4 - ... - n with 2 attached to 4.

Text syntax accepted by :func:`parse_root`:

* ``[a,b]`` or ``[a]`` for type A (the sum of alpha_a .. alpha_b),
* ``{a|b}`` for type D, where positive ``b`` means eps_a + eps_b and negative
  ``b`` means eps_a - eps_|b| (with a < |b|),
* ``(c1c2...cn)`` digit strings for type E.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache


class UnsupportedType(ValueError):
    pass


class ParseError(ValueError):
    pass


class NotARoot(ValueError):
    pass


def dynkin_edges(kind: str, rank: int) -> tuple[tuple[int, int], ...]:
    """Unordered edges of the Dynkin tree, as sorted node pairs."""
    if kind == "A":
        if rank < 1:
            raise UnsupportedType(f"A_n needs n >= 1, got {rank}")
        return tuple((i, i + 1) for i in range(1, rank))
    if kind == "D":
        if rank < 4:
            raise UnsupportedType(f"D_n needs n >= 4, got {rank}")
        line = [(i, i + 1) for i in range(1, rank - 2)]
        return tuple(line + [(rank - 2, rank - 1), (rank - 2, rank)])
    if kind == "E":
        if rank == 6:
            return ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6))
        if rank in (7, 8):
            line = [(1, 3)] + [(i, i + 1) for i in range(3, rank)]
            return tuple(line + [(2, 4)])
        raise UnsupportedType(f"E_n needs n in {{6,7,8}}, got {rank}")
    raise UnsupportedType(f"unknown kind {kind!r}")


class PosRoot(namedtuple("PosRoot", "coeffs")):
    """A positive root as its coefficient vector over the simple roots
    (coeffs: tuple[int, ...]); ordered by that vector."""

    __slots__ = ()

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    @property
    def mul(self) -> int:
        return max(self.coeffs)

    def __add__(self, other: "PosRoot") -> "PosRoot":
        return PosRoot(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "PosRoot") -> "PosRoot":
        return PosRoot(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))


_W0_INVOLUTIONS = {
    # The diagram automorphism induced by -w0; cross-checked against the
    # longest word in the test suite.
    "A": lambda n: {i: n + 1 - i for i in range(1, n + 1)},
    "D": lambda n: (
        {i: i for i in range(1, n + 1)}
        if n % 2 == 0
        else {**{i: i for i in range(1, n - 1)}, n - 1: n, n: n - 1}
    ),
    "E": lambda n: (
        {1: 5, 2: 4, 3: 3, 4: 2, 5: 1, 6: 6}
        if n == 6
        else {i: i for i in range(1, n + 1)}
    ),
}

class RootSystem:
    """Positive roots of a finite ADE root system, with parsing helpers."""

    def __init__(self, kind: str, rank: int):
        self.kind, self.rank = kind, rank
        self.edges = dynkin_edges(kind, rank)
        adj = {frozenset(e) for e in self.edges}
        self.cartan = tuple(
            tuple(
                2 if i == j else (-1 if frozenset((i, j)) in adj else 0)
                for j in range(1, rank + 1)
            )
            for i in range(1, rank + 1)
        )
        # each vertex's Dynkin neighbours, 1-based and ascending; () at 0
        self.neighbours = ((),) + tuple(
            tuple(j for j, a in enumerate(row, 1) if a == -1) for row in self.cartan
        )
        self.positive_roots: tuple[PosRoot, ...] = self._generate()
        self.N = len(self.positive_roots)
        self._index = {r.coeffs: k for k, r in enumerate(self.positive_roots)}
        self.highest_root = max(self.positive_roots, key=lambda r: r.height)
        self.w0_involution = _W0_INVOLUTIONS[self.kind](self.rank)
        # simply laced: h_dual = h = the height of the highest root + 1
        self.dual_coxeter = self.highest_root.height + 1
        if self.kind == "D":
            self._eps_table = {
                self.eps_vector(r): r for r in self.positive_roots
            }

    def _generate(self) -> tuple[PosRoot, ...]:
        n = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        roots = set(simples)
        frontier = set(simples)
        while frontier:
            new = set()
            for v in frontier:
                for i in range(n):
                    w = self._reflect_vec(v, i + 1)
                    if min(w) >= 0 and w not in roots:
                        new.add(w)
            roots |= new
            frontier = new
        ordered = sorted(roots, key=lambda v: (sum(v), v))
        return tuple(PosRoot(v) for v in ordered)

    def _reflect_vec(self, v: tuple[int, ...], i: int) -> tuple[int, ...]:
        c = sum(v[j] * self.cartan[j][i - 1] for j in range(self.rank))
        out = list(v)
        out[i - 1] -= c
        return tuple(out)

    # -- basic queries -------------------------------------------------

    def simple_root(self, i: int) -> PosRoot:
        return PosRoot(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def is_positive_root(self, v) -> bool:
        coeffs = v.coeffs if isinstance(v, PosRoot) else tuple(v)
        return coeffs in self._index

    def root(self, v) -> PosRoot:
        coeffs = v.coeffs if isinstance(v, PosRoot) else tuple(v)
        if coeffs not in self._index:
            raise NotARoot(f"{coeffs} is not a positive root of {self.kind}{self.rank}")
        return self.positive_roots[self._index[coeffs]]

    def reflect(self, v, i: int):
        """s_i acting on a coefficient vector (possibly of a negative root)."""
        if isinstance(v, PosRoot):
            return PosRoot(self._reflect_vec(v.coeffs, i))
        return self._reflect_vec(tuple(v), i)

    # -- epsilon coordinates for type D --------------------------------

    def eps_vector(self, beta: PosRoot) -> tuple[int, ...]:
        """Type D root written in the orthogonal eps basis (doubled to stay
        integral: returns 2 * coordinates)."""
        if self.kind != "D":
            raise UnsupportedType("eps coordinates are only defined for type D")
        n = self.rank
        # alpha_i = e_i - e_{i+1} for i <= n-1, alpha_n = e_{n-1} + e_n
        out = [0] * n
        for i, c in enumerate(beta.coeffs, start=1):
            if c == 0:
                continue
            if i <= n - 1:
                out[i - 1] += 2 * c
                out[i] -= 2 * c
            else:
                out[n - 2] += 2 * c
                out[n - 1] += 2 * c
        return tuple(out)

    def eps_summands(self, beta: PosRoot) -> tuple[tuple[int, int], tuple[int, int]]:
        """The two (index, sign) summands of a type D root eps_a +/- eps_b."""
        vec = self.eps_vector(beta)
        parts = [(k + 1, v // 2) for k, v in enumerate(vec) if v != 0]
        if len(parts) != 2 or any(abs(s) != 1 for _, s in parts):
            raise NotARoot(f"{beta} is not of the form eps_a +/- eps_b")
        return parts[0], parts[1]

    # -- parse / format ------------------------------------------------

    def format_root(self, beta: PosRoot) -> str:
        self.root(beta)
        if self.kind == "A":
            nodes = [i for i, c in enumerate(beta.coeffs, 1) if c]
            a, b = nodes[0], nodes[-1]
            return f"[{a}]" if a == b else f"[{a},{b}]"
        if self.kind == "D":
            (a, sa), (b, sb) = self.eps_summands(beta)
            assert sa == 1
            return f"{{{a}|{b}}}" if sb > 0 else f"{{{a}|-{b}}}"
        return "(" + "".join(str(c) for c in beta.coeffs) + ")"

    def parse_root(self, text: str) -> PosRoot:
        text = text.strip()
        if self.kind == "A":
            m = re.fullmatch(r"\[\s*(\d+)\s*(?:,\s*(\d+)\s*)?\]", text)
            if not m:
                raise ParseError(f"bad type A root syntax: {text!r}")
            a = int(m.group(1))
            b = int(m.group(2)) if m.group(2) else a
            if not (1 <= a <= b <= self.rank):
                raise NotARoot(f"[{a},{b}] is out of range for A{self.rank}")
            coeffs = tuple(1 if a <= i <= b else 0 for i in range(1, self.rank + 1))
            return self.root(coeffs)
        if self.kind == "D":
            m = re.fullmatch(r"\{\s*(\d+)\s*\|\s*(-?\d+)\s*\}", text)
            if not m:
                raise ParseError(f"bad type D root syntax: {text!r}")
            a, b = int(m.group(1)), int(m.group(2))
            sign = 1 if b > 0 else -1
            b = abs(b)
            if not (1 <= a < b <= self.rank):
                raise NotARoot(f"need 1 <= a < |b| <= {self.rank} in {text!r}")
            target = [0] * self.rank
            target[a - 1] = 2
            target[b - 1] = 2 * sign
            try:
                return self._eps_table[tuple(target)]
            except KeyError:
                raise NotARoot(f"{text!r} is not a positive root") from None
        m = re.fullmatch(r"\(?\s*(\d+)\s*\)?", text)
        if not m or len(m.group(1)) != self.rank:
            raise ParseError(f"bad type E root syntax: {text!r}")
        coeffs = tuple(int(ch) for ch in m.group(1))
        return self.root(coeffs)

    def __repr__(self) -> str:
        return f"RootSystem({self.kind}{self.rank}, N={self.N})"


@lru_cache(maxsize=None)
def build_root_system(kind: str, rank: int) -> RootSystem:
    return RootSystem(kind, rank)


def field_width(system: RootSystem, weight=()) -> int:
    """The bit-field width of a packed vector: wide enough for the weight
    and for twice the largest root coefficient (every pair weight and every
    mesh sum of an AR quiver), plus the guard bit."""
    top = max((2 * max(system.highest_root.coeffs), *weight))
    return top.bit_length() + 1


@lru_cache(maxsize=None)
def packed_roots(system: RootSystem, width: int):
    """The guard mask and every positive root of the system in search order
    (height descending, then coefficients), each as (root, packed
    coefficients, mask of the bit fields it touches), for fields of the
    given width: packed once per (system, width) and shared by every
    reader.

    Coordinate k of a vector sits in the k-th field from the low end.  A
    packed vector plus the guard mask holds each coordinate with a guard
    bit above it, so a sum or difference of packed vectors clears a guard
    bit exactly when that coordinate goes negative, as long as every
    coordinate stays below the guard bit."""
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
