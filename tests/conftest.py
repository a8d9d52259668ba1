import pytest

from rootseq.arquiver import height_function
from rootseq.orders import RootSequence, coarse_less
from rootseq.rootsys import PosRoot, build_root_system
from rootseq.seqcalc import is_simple_pair, pairs_of_weight
from rootseq.words import NotReduced, ReducedWord, roots_of_word


# -- the reflection oracle ----------------------------------------------
# The library applies no Weyl group element to build AR quivers or roots;
# these helpers do, so that tests can check it against the definitions.

def act(system, letters, vec):
    """Apply the Weyl group element s_{i1}...s_{it} to a coefficient vector
    (rightmost reflection acts first)."""
    v = vec.coeffs if isinstance(vec, PosRoot) else tuple(vec)
    for i in reversed(letters):
        v = system.reflect(v, i)
    return PosRoot(v) if isinstance(vec, PosRoot) else v


def coxeter_word(Q):
    """The source-to-sink word of the Coxeter element tau_Q: the vertices by
    height xi descending, then by index (xi drops by 1 along every arrow)."""
    xi = height_function(Q)
    return ReducedWord(tuple(sorted(xi, key=lambda i: (-xi[i], i))), Q.system)


# a reduced word of w0 in A5 adapted to no orientation
NON_ADAPTED_A5 = (1, 2, 3, 5, 4, 3, 1, 2, 3, 5, 4, 3, 1, 2, 3)


def word_from_root_order(system, root_texts):
    """The unique reduced word whose induced total order lists exactly the
    given roots, in the given order."""
    roots = [system.parse_root(t) for t in root_texts]
    prefix: list[int] = []
    letters = []
    for r in roots:
        alpha = act(system, list(reversed(prefix)), r)  # prefix inverse
        i = alpha.coeffs.index(1) + 1
        assert alpha == system.simple_root(i)
        letters.append(i)
        prefix.append(i)
    word = ReducedWord(tuple(letters), system)
    assert list(roots_of_word(word)) == roots
    return word


def in_class(cls, word):
    """Membership oracle: a reduced word lies in the class iff it sweeps
    out the same roots and its total order extends the heap order."""
    try:
        roots = roots_of_word(word)
    except NotReduced:
        return False
    if set(roots) != set(cls.roots):
        return False
    rank_of = {r: k for k, r in enumerate(roots)}
    return all(
        rank_of[cls.roots[p]] < rank_of[cls.roots[q]] for p, q in cls.heap_covers
    )


def _moves(word, cartan, braid):
    """The letter tuples one move from word: a swap of two adjacent
    commuting letters, and with braid also a braid move i j i -> j i j of
    two adjacent nodes of a simply-laced diagram."""
    for k in range(len(word) - 1):
        a, b = word[k], word[k + 1]
        if not cartan[a - 1][b - 1]:
            yield word[:k] + (b, a) + word[k + 2:]
        elif braid and word[k + 2:k + 3] == (a,) and cartan[a - 1][b - 1] == -1:
            yield word[:k] + (b, a, b) + word[k + 3:]


def _closure(start, cartan, braid=False):
    """Every letter tuple reached from start by repeated moves, by BFS."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for w2 in _moves(w, cartan, braid):
                if w2 not in seen:
                    seen.add(w2)
                    nxt.append(w2)
        frontier = nxt
    return seen


def class_by_swaps(cls):
    """Reference enumerator: the letter tuples of every class member, by BFS
    from the representative over swaps of adjacent commuting letters."""
    return _closure(cls.representative.letters, cls.system.cartan)


def commutation_classes(word):
    """Reference enumerator of every commutation class of the element that
    the reduced word spells (simply-laced types): its reduced words are
    connected by commutations and braid moves (Matsumoto), so a BFS over
    both lists them all, and commutations alone split them into classes.
    Each class is a set of letter tuples."""
    cartan = word.system.cartan
    rest = _closure(word.letters, cartan, braid=True)
    classes = []
    while rest:
        members = _closure(min(rest), cartan)
        classes.append(members)
        rest -= members
    return classes


def random_reduced_word(system, rng, length):
    """A reduced word of the given length (at most N), one letter at a
    time: each step appends a letter chosen at random among those that keep
    the word reduced, the letters i whose new root s_{i1}...s_{ik}(alpha_i)
    is positive."""
    letters = []
    for _ in range(length):
        letters.append(rng.choice([
            i for i in range(1, system.rank + 1)
            if min(act(system, letters, system.simple_root(i).coeffs)) >= 0
        ]))
    return ReducedWord(tuple(letters), system)


def root_below_pair(cls, g, p):
    """Two-mask oracle: the one-root sequence at position g is coarse-below
    the pair at positions p of its weight (which cannot hold g) when g is
    neither heap-minimal nor heap-maximal among the three positions, that
    is, one root of the pair is below it and one above it."""
    two = 1 << p[0] | 1 << p[1]
    return bool(cls._below[g] & two and cls._above[g] & two)


def longest_chains(pool):
    """Chain-DP oracle: for every member of pool, the length of the longest
    coarse chain inside pool ending at it, as a plain longest path by
    recursion over the members below each one."""
    memo = {}

    def best(me):
        if me.counts not in memo:
            memo[me.counts] = 1 + max(
                (best(m) for m in pool if coarse_less(m, me)), default=0
            )
        return memo[me.counts]

    return {m.counts: best(m) for m in pool}


# -- the sequence path of dist and radius -------------------------------
# The library runs dist and radius on position pairs with mask tests; these
# run them on RootSequence objects with coarse_less, as it once did.

def dist_chains(cls, weight):
    """dist_chain oracle: every non-simple pair of the weight, in count
    order, with its witness: the pair extends the first pair, in count
    order, among the longest chains of non-simple pairs coarse-below it."""
    chains = {}  # counts -> chain, in count order
    for p in sorted(pairs_of_weight(cls, weight), key=lambda p: p.counts):
        if is_simple_pair(cls, *p.positions()):
            continue
        best = ()
        for chain in chains.values():
            if len(chain) > len(best) and coarse_less(chain[-1], p):
                best = chain
        chains[p.counts] = best + (p,)
    return chains


def radius_by_sequences(cls, gamma):
    """radius oracle: the longest dist_chains witness of a pair of gamma's
    weight coarse-above the sequence (gamma); None when there is no such
    pair."""
    base = RootSequence.from_roots(cls, [gamma])
    chains = dist_chains(cls, gamma.coeffs)
    return max(
        (len(chains.get(p.counts, ()))
         for p in pairs_of_weight(cls, gamma.coeffs) if coarse_less(base, p)),
        default=None,
    )


def longest_word(system):
    """A reduced word of w0, adapted to the orientation with every edge
    pointing from the smaller to the larger node: repeatedly take the
    smallest source that keeps the word reduced."""
    arrows = set(system.datum.edges)
    n = system.rank
    images = [system.simple_root(i).coeffs for i in range(1, n + 1)]
    seen: set[tuple[int, ...]] = set()
    letters: list[int] = []
    while len(letters) < system.N:
        targets = {b for (_, b) in arrows}
        for i in sorted(set(range(1, n + 1)) - targets):
            v = images[i - 1]
            if min(v) < 0 or v in seen:
                continue
            seen.add(v)
            letters.append(i)
            images = [
                tuple(
                    images[j][k] - system.cartan[j][i - 1] * v[k]
                    for k in range(n)
                )
                for j in range(n)
            ]
            arrows = {(b, a) if i in (a, b) else (a, b) for (a, b) in arrows}
            break
        else:
            raise RuntimeError("stuck while building the longest word")
    return ReducedWord(tuple(letters), system)


@pytest.fixture(scope="session")
def a5():
    return build_root_system("A", 5)


@pytest.fixture(scope="session")
def d4():
    return build_root_system("D", 4)


@pytest.fixture(scope="session")
def e6():
    return build_root_system("E", 6)
