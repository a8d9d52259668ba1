"""Sequences of positive roots over a commutation class, and the orders on
them: the convex total order of a member word, the heap partial order, the
bi-lexicographic order of a member, and the coarse order (bi-lex for every
member at once)."""

from __future__ import annotations

from .rootsys import PosRoot
from .words import CommClass, ReducedWord, roots_of_word


class RootSequence:
    """A finite multiset of positive roots drawn from a commutation class,
    stored as a multiplicity vector aligned with the representative word.
    ``support_mask`` has bit k set iff position k occurs; it is derived, so
    equality, hash and repr read (cls, counts) only.  Immutable."""

    __slots__ = ("cls", "counts", "support_mask")

    def __init__(self, cls: CommClass, counts: tuple[int, ...]):
        if len(counts) != len(cls):
            raise ValueError("multiplicity vector does not match the class length")
        mask = 0
        for k, c in enumerate(counts):
            if c:
                if c < 0:
                    raise ValueError("negative multiplicity")
                mask |= 1 << k
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "support_mask", mask)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"RootSequence is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cls, self.counts) == (other.cls, other.counts)

    def __hash__(self) -> int:
        return hash((self.cls, self.counts))

    def __repr__(self) -> str:
        return f"RootSequence(cls={self.cls!r}, counts={self.counts!r})"

    @staticmethod
    def from_positions(cls: CommClass, positions) -> "RootSequence":
        """The sequence of the roots at the given class positions, a
        position once per occurrence."""
        counts = [0] * len(cls)
        for k in positions:
            counts[k] += 1
        return RootSequence(cls, tuple(counts))

    @staticmethod
    def from_roots(cls: CommClass, roots) -> "RootSequence":
        return RootSequence.from_positions(
            cls, (cls.position(cls.system.root(r)) for r in roots)
        )

    @staticmethod
    def from_strings(cls: CommClass, texts) -> "RootSequence":
        return RootSequence.from_roots(
            cls, (cls.system.parse_root(t) for t in texts)
        )

    def weight(self) -> tuple[int, ...]:
        roots, counts = self.cls.roots, self.counts
        wt = [0] * self.cls.system.rank
        for k in self.positions():
            c = counts[k]
            for j, x in enumerate(roots[k].coeffs):
                wt[j] += c * x
        return tuple(wt)

    def size(self) -> int:
        return sum(self.counts)

    def roots(self) -> tuple[PosRoot, ...]:
        """The multiset expanded in representative order."""
        out = []
        for k, c in enumerate(self.counts):
            out.extend([self.cls.roots[k]] * c)
        return tuple(out)

    def support(self) -> tuple[PosRoot, ...]:
        return tuple(self.cls.roots[k] for k in self.positions())

    def positions(self) -> list[int]:
        """The occupied class positions, ascending."""
        out = []
        rest = self.support_mask
        while rest:
            low = rest & -rest
            rest ^= low
            out.append(low.bit_length() - 1)
        return out

    def __str__(self) -> str:
        fmt = self.cls.system.format_root
        return "(" + ",".join(fmt(r) for r in self.roots()) + ")"

    def to_json(self) -> dict:
        fmt = self.cls.system.format_root
        return {
            "roots": [fmt(r) for r in self.roots()],
            "weight": list(self.weight()),
        }


def _member_positions(seq: RootSequence, member: ReducedWord | None):
    """Class positions listed in the order the given member visits them;
    computed once per member and kept in the class cache under its letters
    (a tuple of ints hashes in C, a ``ReducedWord`` in Python).  A member over
    another root system raises ValueError."""
    cls = seq.cls
    if member is None:
        return range(len(cls))
    if member.system is not cls.system:
        raise ValueError("the member lives over a different root system")
    order = cls.cache.members.get(member.letters)
    if order is None:  # an error leaves nothing in the cache
        order = [cls.position(r) for r in roots_of_word(member)]
        cls.cache.members[member.letters] = order
    return order


def bilex_less(
    a: RootSequence, b: RootSequence, member: ReducedWord | None = None
) -> bool:
    """a < b in the bi-lex order induced by a class member: the multiplicity
    vectors differ, and a is smaller at both the first and the last position
    where they do (positions taken in the member's total order)."""
    if a.cls is not b.cls:
        raise ValueError("sequences live over different commutation classes")
    order = _member_positions(a, member)
    ca, cb = a.counts, b.counts
    for k in order:
        if ca[k] != cb[k]:
            break
    else:
        return False
    if ca[k] > cb[k]:
        return False
    for k in reversed(order):
        if ca[k] != cb[k]:
            return ca[k] < cb[k]


def coarse_less(a: RootSequence, b: RootSequence) -> bool:
    """a < b in the bi-lex order of every class member simultaneously.

    A differing position is first in some member iff it is heap-minimal among
    the differing positions, and last iff heap-maximal; so the condition is
    that a is smaller at every heap-minimal and every heap-maximal position
    of the difference support.
    """
    if a.cls is not b.cls:
        raise ValueError("sequences live over different commutation classes")
    ca, cb = a.counts, b.counts
    diffs = []
    mask = 0
    rest = a.support_mask | b.support_mask  # outside it both counts are 0
    while rest:  # as in positions(), inlined: the chain DP's inner loop
        low = rest & -rest
        rest ^= low
        k = low.bit_length() - 1
        if ca[k] != cb[k]:
            diffs.append(k)
            mask |= low
    below, above = a.cls._below, a.cls._above
    for k in diffs:
        is_min = not (below[k] & mask)
        is_max = not (above[k] & mask)
        if (is_min or is_max) and ca[k] >= cb[k]:
            return False
    return bool(diffs)

