"""Reference computations written apart from the library.

Nothing here imports ``rootseq``: the Dynkin diagrams, the inverse quantum
Cartan matrix and the reduced words of the longest element are rebuilt from
their definitions, so a fault in the library cannot hide in its own check.
"""

from __future__ import annotations

# Node labels follow the library's conventions: type A and D are chains
# with the D fork at n-2; E6 is the chain 1-2-3-4-5 with 6 on node 3; E7 and
# E8 are Bourbaki-labelled (1-3-4-5-..., 2 on node 4).
_E_EDGES = {
    6: ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)),
    7: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)),
    8: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)),
}


def dynkin_edges(kind: str, n: int) -> tuple[tuple[int, int], ...]:
    if kind == "A":
        return tuple((i, i + 1) for i in range(1, n))
    if kind == "D":
        return tuple((i, i + 1) for i in range(1, n - 2)) + (
            (n - 2, n - 1),
            (n - 2, n),
        )
    if kind == "E":
        return _E_EDGES[n]
    raise ValueError(f"unknown type {kind}{n}")


def coxeter_number(kind: str, n: int) -> int:
    return {"A": n + 1, "D": 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get(n)}[kind]


def neighbours(kind: str, n: int) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for a, b in dynkin_edges(kind, n):
        adj[a].append(b)
        adj[b].append(a)
    return adj


def inverse_quantum_cartan(kind: str, n: int) -> dict[tuple[int, int], list[int]]:
    """c~_ij(u) for u = 0..h (Hernandez-Leclerc, arXiv:1109.0862):
    c~_ij(0) = 0, c~_ij(1) = delta_ij,
    c~_ij(u+1) = sum over k adjacent to i of c~_kj(u), minus c~_ij(u-1)."""
    h = coxeter_number(kind, n)
    adj = neighbours(kind, n)
    nodes = range(1, n + 1)
    c = {(i, j): [0, int(i == j)] for i in nodes for j in nodes}
    for u in range(1, h):
        for i in nodes:
            for j in nodes:
                c[i, j].append(sum(c[k, j][u] for k in adj[i]) - c[i, j][u - 1])
    return c


def denominator_exponents(kind: str, n: int) -> dict[tuple[int, int], dict[int, int]]:
    """d_kl(z) = prod_{u=1..h} (z - (-q)^(u+1))^(c~_kl(u)) for every k <= l,
    as {(k, l): {t: multiplicity}} with t = u + 1."""
    h = coxeter_number(kind, n)
    c = inverse_quantum_cartan(kind, n)
    out = {}
    for k in range(1, n + 1):
        for l in range(k, n + 1):
            mults = {u + 1: c[k, l][u] for u in range(1, h + 1) if c[k, l][u]}
            if any(m < 0 for m in mults.values()):
                raise ArithmeticError(f"negative exponent in d_{k},{l}")
            out[k, l] = mults
    return out


# -- reduced words of the longest element ---------------------------------


def _reflect(v: tuple[int, ...], i: int, adj) -> tuple[int, ...]:
    """s_i on a root in simple-root coordinates (simply laced)."""
    out = list(v)
    out[i - 1] = sum(v[k - 1] for k in adj[i]) - v[i - 1]
    return tuple(out)


def longest_reduced_word(kind: str, n: int) -> tuple[int, ...]:
    """Some reduced word of w0: keep appending a letter i whose simple root
    the current element sends to a positive root (w(alpha_i) > 0 means
    l(w s_i) > l(w)), until no such letter exists."""
    adj = neighbours(kind, n)
    word: list[int] = []
    while True:
        for i in range(1, n + 1):
            v = tuple(int(k == i) for k in range(1, n + 1))
            for j in reversed(word):
                v = _reflect(v, j, adj)
            if min(v) >= 0:
                word.append(i)
                break
        else:
            return tuple(word)


def commutation_classes(kind: str, n: int) -> list[frozenset[tuple[int, ...]]]:
    """Every commutation class of reduced words of w0, each as the set of
    its words, in a fixed order (sorted by the smallest word)."""
    adj = neighbours(kind, n)
    start = longest_reduced_word(kind, n)
    words = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for k in range(len(w) - 1):
                a, b = w[k], w[k + 1]
                if b not in adj[a] and a != b:
                    moved = w[:k] + (b, a) + w[k + 2:]
                elif k + 2 < len(w) and w[k + 2] == a and b in adj[a]:
                    moved = w[:k] + (b, a, b) + w[k + 3:]
                else:
                    continue
                if moved not in words:
                    words.add(moved)
                    nxt.append(moved)
        frontier = nxt
    classes = []
    left = set(words)
    while left:
        seed = min(left)
        members = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for w in frontier:
                for k in range(len(w) - 1):
                    a, b = w[k], w[k + 1]
                    if b not in adj[a] and a != b:
                        moved = w[:k] + (b, a) + w[k + 2:]
                        if moved not in members:
                            members.add(moved)
                            nxt.append(moved)
            frontier = nxt
        left -= members
        classes.append(frozenset(members))
    return sorted(classes, key=min)
