"""Reduced words, the positive roots they sweep out, heaps and commutation classes."""

from __future__ import annotations

from .rootsys import PosRoot, RootSystem


class NotReduced(ValueError):
    pass


class LetterOutOfRange(ValueError):
    pass


class ClassTooLarge(RuntimeError):
    def __init__(self, partial_count: int, cap: int):
        super().__init__(f"commutation class exceeds cap {cap} (saw {partial_count})")
        self.partial_count = partial_count
        self.cap = cap


class ReducedWord:
    """A word in the simple reflections of a root system, immutable, equal
    and hashed as (letters, system).  Not a tuple: its length is the number
    of letters."""

    __slots__ = ("letters", "system")

    def __init__(self, letters: tuple[int, ...], system: RootSystem):
        for i in letters:
            if not 1 <= i <= system.rank:
                raise LetterOutOfRange(
                    f"letter {i} out of range for rank {system.rank}"
                )
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "system", system)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"ReducedWord is immutable: {name!r} cannot change")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.letters, self.system) == (other.letters, other.system)

    def __hash__(self) -> int:
        return hash((self.letters, self.system))

    def __len__(self) -> int:
        return len(self.letters)

    def __repr__(self) -> str:
        return "s" + ".s".join(str(i) for i in self.letters)


def roots_of_word(word: ReducedWord) -> tuple[PosRoot, ...]:
    """beta_k = s_{i1}...s_{i(k-1)}(alpha_{ik}); raises NotReduced on a repeat
    or a sign change."""
    sys_ = word.system
    n = sys_.rank
    cartan = sys_.cartan
    # images of the simple roots under the prefix s_{i1}...s_{i(k-1)}
    images = [sys_.simple_root(i).coeffs for i in range(1, n + 1)]
    # s_i moves alpha_j only when A_{j,i} != 0: j = i and its neighbours
    moved = [[(j, cartan[j][i]) for j in range(n) if cartan[j][i]] for i in range(n)]
    out: list[PosRoot] = []
    seen = set()
    for i in word.letters:
        v = images[i - 1]
        if min(v) < 0 or v in seen:
            raise NotReduced(f"word {word.letters} is not reduced")
        seen.add(v)
        out.append(sys_.root(v))
        # post-compose the prefix with s_i: alpha_j -> alpha_j - A_{j,i} alpha_i
        for j, a in moved[i - 1]:
            images[j] = tuple(x - a * y for x, y in zip(images[j], v))
    return tuple(out)


class ClassCache:
    """Answers computed over one commutation class, kept with the class.

    A root is named by its class position and a pair by its two positions
    (i, j), i < j, as ``CommClass`` indexes them.  Each entry depends on the
    class alone, never on the queries made before it, so every caller may
    share it, and dropping it costs only recomputation.  The enumerations
    of a weight are stored whole and checked against each caller's cap on
    the way out (see ``seqcalc.sequences_of_weight``).  The working state of
    an o-table lasts only as long as the table: ``denom._o_table`` replaces
    the cache of the class it computes from when it returns or raises, and
    ``denom.check_well_defined`` (``--check-all``, which checks the whole
    system whatever ``--orient`` says) that of each class of the system once
    it has read that class's ordered slots.
    """

    __slots__ = ("weights", "pairs", "simple", "chains", "packed", "members")

    def __init__(self):
        self.weights = {}  # weight -> its partitions over the class
        self.pairs = {}  # weight -> position pairs (i, j), i < j, of that weight
        self.simple = {}  # (i, j), i < j -> simplicity of the pair
        # (statistic, weight) -> {count-order key: predecessor or None}
        self.chains = {}
        # field width -> (guard mask, packed roots in DFS order, their positions)
        self.packed = {}
        self.members = {}  # member letters -> class positions in its order


class CommClass:
    """A commutation class, represented by a word plus the heap on its letters.

    Positions are 0-based internally: position k holds the k-th letter of
    the representative and its root ``roots[k]``.  ``prec(a, b)`` is the
    strict convex partial order: true iff a comes before b in every member
    of the class.  ``heap_covers`` holds the relations (p, q) from each
    position q to the last earlier occurrence p of its letter and of each
    Dynkin neighbour; they generate the heap order, but they are not all
    covers: a same-letter relation is one only when no neighbouring letter
    occurs between the two.  Every relation has p < q, so the positions
    are a linear extension of the heap: ``prec_pos(p, q)`` implies p < q.
    ``cache`` holds what the library has computed over the class.

    ``roots``, when given, must be the roots of the representative in its
    order, as ``roots_of_word`` would compute them; only ``ARQuiver``
    supplies them, from the labels of Gamma_Q, when it builds its class.
    Without them ``roots_of_word`` computes them and raises ``NotReduced``
    on a word that is not reduced.  Either way a root that occurs twice
    raises ``NotReduced``.
    """

    def __init__(self, representative: ReducedWord,
                 roots: tuple[PosRoot, ...] | None = None):
        self.cache = ClassCache()
        self.representative = representative
        self.system = representative.system
        self.roots = roots_of_word(representative) if roots is None else roots
        letters = representative.letters
        t = len(letters)
        # per letter (0-based), the letters that do not commute with it: itself
        # and its Dynkin neighbours, where the Cartan matrix is nonzero
        touch = [[j for j, a in enumerate(row) if a] for row in self.system.cartan]
        last = [-1] * len(touch)  # the last position scanned of each letter
        covers: list[tuple[int, int]] = []
        # strict reachability as bitmasks over positions; a cover (p, q) has
        # p < q, so below[p] is complete when q is scanned
        below = [0] * t  # positions strictly before q in every member
        for q, i in enumerate(letters):
            # each earlier occurrence of a letter lies below its last one
            ps = [last[j] for j in touch[i - 1] if last[j] >= 0]
            ps.sort(reverse=True)
            mask = 0
            for p in ps:
                covers.append((p, q))
                mask |= (1 << p) | below[p]
            below[q] = mask
            last[i - 1] = q
        self.heap_covers = tuple(covers)
        self._below = below
        # covers by q descending: above[q] is complete when (p, q) is read
        above = [0] * t
        for p, q in reversed(covers):
            above[p] |= (1 << q) | above[q]
        self._above = above
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

    def interval(self, p: int, q: int) -> int:
        """The positions strictly between p and q in the heap order, as a
        bit mask."""
        return self._above[p] & self._below[q]

    def prec(self, alpha: PosRoot, beta: PosRoot) -> bool:
        """alpha strictly before beta in every class member."""
        return self.prec_pos(self.position(alpha), self.position(beta))

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
