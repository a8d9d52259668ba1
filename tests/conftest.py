import pytest

from rootseq import denom
from rootseq.arquiver import height_function
from rootseq.denom import DistancePolynomial
from rootseq.orders import RootSequence, bilex_less, coarse_less
from rootseq.rootsys import PosRoot, UnsupportedType, build_root_system
from rootseq.seqcalc import (
    dist,
    is_simple_pair,
    pairs_of_weight,
    sequences_of_weight,
)
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


def packed_roots_by_class(cls, width):
    """What ``seqcalc._packed_roots`` returns, packed from the class alone:
    the guard mask, the class's roots in search order (height descending,
    then coefficients) as (position, packed coefficients, mask of the bit
    fields it touches), {packed root: position} in position order, and for
    each height h up to that of the highest root the number of the class's
    roots of height at most h."""
    roots = cls.roots
    field = (1 << width) - 1
    shifts = range(0, width * cls.system.rank, width)
    entries = [
        (
            p,
            sum(x << s for x, s in zip(roots[p].coeffs, shifts)),
            sum(field << s for x, s in zip(roots[p].coeffs, shifts) if x),
        )
        for p in sorted(
            range(len(cls)), key=lambda p: (-roots[p].height, roots[p].coeffs)
        )
    ]
    index = {packed: p for p, packed, _ in sorted(entries)}
    zero = sum(1 << (s + width - 1) for s in shifts)
    upto = [sum(r.height <= h for r in roots)
            for h in range(cls.system.highest_root.height + 1)]
    return zero, entries, index, upto


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


# -- the definitions of the coarse order and of simplicity -------------
# The library decides both with mask tests; these read the definitions.

def coarse_less_brute(a, b, members=None):
    """Coarse-order oracle: a is bi-lex below b for every class member
    (``members``: the members of the class, when already listed)."""
    if members is None:
        members = a.cls.linear_extensions()
    return all(bilex_less(a, b, member=w) for w in members)


def is_simple_pair_brute(cls, i, j):
    """Simplicity oracle: no sequence of the weight of the pair at class
    positions i and j is coarse-below it."""
    counts = [0] * len(cls)
    counts[i] += 1
    counts[j] += 1
    p = RootSequence(cls, tuple(counts))
    return not any(
        coarse_less(m, p) for m in sequences_of_weight(cls, p.weight())
    )


# -- the sequence path of good neighbors --------------------------------
# The library searches good neighbors on position pairs; these build the
# adjacency of every pair of the weight below p on RootSequence objects.

def _eta_transfer(cls, pp, p, threshold):
    """A root eta of the class transfers between the pairs pp and p in one
    of the two directions (eta + b2 = b1 and eta + a1 = a2, each pair's
    roots in class order), with both mixed pairs (eta, b2) and (eta, a1)
    strictly closer than the threshold."""
    pp_roots, p_roots = pp.support(), p.support()
    for (a1, b1), (a2, b2) in ((pp_roots, p_roots), (p_roots, pp_roots)):
        eta = b1 - b2
        if eta == a2 - a1 and eta in cls.roots and eta not in (b2, a1):
            if all(dist(RootSequence.from_roots(cls, (eta, r))) < threshold
                   for r in (b2, a1)):
                return True
    return False


def good_adjacent(pp, p, threshold):
    """Good-adjacency oracle: pp is coarse-below p, some root transfers
    between them (``_eta_transfer``) and no pair of the weight sits
    strictly between them."""
    cls, wt = p.cls, p.weight()
    if pp.weight() != wt or not coarse_less(pp, p):
        return False
    return _eta_transfer(cls, pp, p, threshold) and not any(
        coarse_less(pp, q) and coarse_less(q, p) for q in pairs_of_weight(cls, wt)
    )


def good_neighbors_by_sequences(p):
    """good_neighbors oracle: the adjacency of every pair of p's weight at
    most p, at the threshold dist(p), searched breadth first from p; the
    non-simple pairs reached, p excluded, in the order of pairs_of_weight."""
    cls = p.cls
    nodes = [q for q in pairs_of_weight(cls, p.weight()) if q == p or coarse_less(q, p)]
    d = dist(p)
    adj = {b: [a for a in nodes if a != b and good_adjacent(a, b, d)] for b in nodes}
    seen = {p}
    frontier = [p]
    while frontier:
        nxt = []
        for b in frontier:
            for a in adj[b]:
                if a not in seen:
                    seen.add(a)
                    nxt.append(a)
        frontier = nxt
    return tuple(
        q for q in nodes
        if q != p and q in seen and not is_simple_pair(cls, *q.positions())
    )


# -- the comparable pairs of Gamma_Q grouped by slot ---------------------
# The library reads each slot off the rows of Gamma_Q (``denom._gaps``,
# ``denom._first_pair``); this grouping walks every comparable pair instead.

def slots(arq):
    """The comparable pairs as position pairs (a, b), a < b, grouped by slot
    (k, l, t), k <= l: residues {k, l} and coordinate gap t, each slot in
    the order of ``denom.comparable_pairs`` (looked up when called, so a
    test may wrap it).  ``arq.coords[a]`` is the vertex (i, p) of
    position a."""
    out = {}
    for a, b, key in denom.comparable_pairs(arq):
        out.setdefault(key, []).append((a, b))
    return out


# -- the closed-form denominators of types A and D ----------------------
# The library checks its denominators against the inverse quantum Cartan
# matrix read off Gamma_Q; these are the known formulas it agrees with.

def denominator_closed_form(kind, n, k, l):
    """The known factored denominator d_{k,l} of the untwisted affine
    algebra of type A_n or D_n for the fundamental-weight indices k, l."""
    d = {}

    def add(t):
        d[t] = d.get(t, 0) + 1

    if kind == "A":
        for x in range(1, min(k, l, n + 1 - k, n + 1 - l) + 1):
            add(abs(k - l) + 2 * x)
    elif kind == "D":
        if k > l:
            k, l = l, k
        if l <= n - 2:
            for x in range(1, min(k, l) + 1):
                add(abs(k - l) + 2 * x)
                add(2 * n - 2 - k - l + 2 * x)
        elif k <= n - 2:
            for x in range(1, k + 1):
                add(n - k - 1 + 2 * x)
        elif k != l:
            for x in range(1, (n - 1) // 2 + 1):
                add(4 * x)
        else:
            for x in range(1, n // 2 + 1):
                add(4 * x - 2)
    else:
        raise UnsupportedType(f"no closed-form denominator for type {kind}")
    return DistancePolynomial.from_dict(d)


def longest_word(system):
    """A reduced word of w0, adapted to the orientation with every edge
    pointing from the smaller to the larger node: repeatedly take the
    smallest source that keeps the word reduced."""
    arrows = set(system.edges)
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
