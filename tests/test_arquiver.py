import itertools

import pytest

from rootseq.arquiver import (
    ARQuiver,
    BadOrientation,
    DynkinQuiver,
    all_orientations,
    build_ar_quiver,
    find_quiver,
    height_function,
    is_adapted,
)
from rootseq.cli import fixture_deltas, load_fixture
from rootseq.rootsys import build_root_system
from rootseq.words import CommClass, NotReduced, ReducedWord, roots_of_word

from conftest import NON_ADAPTED_A5, act, coxeter_word, in_class, word_from_root_order

# golden readings for the A5 quiver 1>2, 3>2, 3>4, 4>5
A5_Q = ((1, 2), (3, 2), (3, 4), (4, 5))
A5_READINGS = [
    ["[1]", "[3]", "[1,3]", "[2,3]", "[3,4]", "[1,4]", "[2,4]", "[4]",
     "[3,5]", "[1,5]", "[2,5]", "[4,5]", "[5]", "[1,2]", "[2]"],
    ["[3]", "[3,4]", "[3,5]", "[1]", "[1,3]", "[1,4]", "[1,5]", "[1,2]",
     "[2,3]", "[2,4]", "[2,5]", "[2]", "[4]", "[4,5]", "[5]"],
]

# golden readings for the D4 quiver 3>2, 2>1, 2>4
D4_Q = ((3, 2), (2, 1), (2, 4))
D4_READINGS = [
    ["{3|-4}", "{2|-4}", "{1|-4}", "{2|3}", "{2|-3}", "{1|2}",
     "{2|4}", "{1|-3}", "{1|3}", "{1|4}", "{1|-2}", "{3|4}"],
    ["{3|-4}", "{2|-4}", "{1|-4}", "{2|-3}", "{2|3}", "{1|2}",
     "{2|4}", "{1|3}", "{1|-3}", "{1|4}", "{1|-2}", "{3|4}"],
    ["{3|-4}", "{2|-4}", "{2|-3}", "{2|3}", "{1|-4}", "{1|2}",
     "{1|-3}", "{1|3}", "{2|4}", "{1|4}", "{3|4}", "{1|-2}"],
    ["{3|-4}", "{2|-4}", "{2|3}", "{2|-3}", "{1|-4}", "{1|2}",
     "{1|3}", "{1|-3}", "{2|4}", "{1|4}", "{3|4}", "{1|-2}"],
]


def _quiver(system, arrows):
    return DynkinQuiver.from_arrows(system, arrows)


def test_orientation_must_cover_tree(a5):
    with pytest.raises(BadOrientation):
        DynkinQuiver.from_arrows(a5, [(1, 2), (2, 1), (3, 4), (4, 5)])
    with pytest.raises(BadOrientation):
        DynkinQuiver.from_arrows(a5, [(1, 3), (2, 3), (3, 4), (4, 5)])
    # an arrow given twice covers its edge twice, though its set is a cover
    with pytest.raises(BadOrientation):
        DynkinQuiver.from_arrows(a5, [(1, 2), (2, 3), (3, 4), (4, 5), (4, 5)])
    with pytest.raises(BadOrientation):
        DynkinQuiver.from_arrows(build_root_system("A", 3), [(1, 2), (2, 3), (2, 3)])


def test_sources_sinks_reflect(a5):
    Q = _quiver(a5, A5_Q)
    assert Q.sources() == (1, 3)
    assert Q.sinks() == (2, 5)
    R = Q.reflect(2)
    assert 2 in R.sources()
    with pytest.raises(ValueError):
        Q.reflect(4)  # neither source nor sink
    assert Q.rev().rev() == Q


def test_all_orientations_count(a5, d4):
    assert len(list(all_orientations(a5))) == 16
    assert len(list(all_orientations(d4))) == 8
    assert len({Q.arrows for Q in all_orientations(d4)}) == 8


def test_coxeter_word_source_to_sink(a5):
    Q = _quiver(a5, A5_Q)
    w = coxeter_word(Q)
    assert sorted(w.letters) == [1, 2, 3, 4, 5]
    pos = {i: k for k, i in enumerate(w.letters)}
    assert all(pos[a] < pos[b] for a, b in Q.arrows)


def test_gamma_theta(a5):
    Q = _quiver(a5, A5_Q)
    assert a5.format_root(gamma(Q, 2)) == "[1,3]"
    assert a5.format_root(gamma(Q, 5)) == "[3,5]"
    assert a5.format_root(theta(Q, 1)) == "[1,2]"
    assert a5.format_root(theta(Q, 3)) == "[2,5]"


def gamma(Q, i):
    """gamma_i = sum of alpha_j over vertices j with a directed path to i."""
    back = {i}
    changed = True
    while changed:
        changed = False
        for a, b in Q.arrows:
            if b in back and a not in back:
                back.add(a)
                changed = True
    return Q.system.root(tuple(int(j in back) for j in range(1, Q.system.rank + 1)))


def theta(Q, i):
    """theta_i = sum of alpha_j over vertices j reachable from i."""
    fwd = {i}
    changed = True
    while changed:
        changed = False
        for a, b in Q.arrows:
            if a in fwd and b not in fwd:
                fwd.add(b)
                changed = True
    return Q.system.root(tuple(int(j in fwd) for j in range(1, Q.system.rank + 1)))


def test_height_function_drops_along_arrows(a5):
    """xi is defined on every vertex, is 0 at the smallest source and drops
    by 1 along every arrow: on the A5 quiver and on every orientation of
    A1, D5 and E6."""
    quivers = [_quiver(a5, A5_Q)] + [
        Q for kind, rank in (("A", 1), ("D", 5), ("E", 6))
        for Q in all_orientations(build_root_system(kind, rank))
    ]
    for Q in quivers:
        xi = height_function(Q)
        assert sorted(xi) == list(range(1, Q.system.rank + 1)), Q.orientation_str()
        assert xi[min(Q.sources())] == 0, Q.orientation_str()
        assert all(xi[b] == xi[a] - 1 for a, b in Q.arrows), Q.orientation_str()


@pytest.mark.parametrize(
    "kind,rank,limit",
    [("A", n, None) for n in range(2, 7)] + [("D", n, None) for n in (4, 5, 6)]
    + [("E", 6, None), ("E", 7, 8), ("E", 8, 8)],
)
def test_reading_is_the_vertices_by_p_descending_then_residue(kind, rank, limit):
    """The reading's roots are the labels of the vertices sorted by
    (-p, residue), and every arrow's head comes before its tail in it."""
    for Q in itertools.islice(all_orientations(build_root_system(kind, rank)), limit):
        arq = build_ar_quiver(Q)
        roots = roots_of_word(arq.comm_class().representative)
        order = sorted(arq.label, key=lambda v: (-v[1], v[0]))
        assert roots == tuple(arq.label[v] for v in order), Q.orientation_str()
        at = {r: k for k, r in enumerate(roots)}
        assert all(at[arq.label[v]] < at[arq.label[u]] for u, v in arq.arrows)


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8)],
)
def test_class_of_gamma_q_has_the_roots_of_its_reading(kind, rank):
    """The class of Gamma_Q takes its roots from the labels, never from
    roots_of_word, so this is their oracle on every orientation: they are
    the roots of the representative, which is the reading."""
    for Q in all_orientations(build_root_system(kind, rank)):
        arq = build_ar_quiver(Q)
        cls = arq.comm_class()
        assert cls.representative.letters == tuple(i for i, _ in arq.coords), Q
        assert cls.roots == roots_of_word(cls.representative), Q.orientation_str()


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8)],
)
def test_coords_are_the_coordinates_of_the_class_positions(kind, rank):
    """On every orientation, coords[k] is the vertex of Gamma_Q labelled by
    the root at class position k, and it is the key tuple of ``label``
    itself (``vertex_of`` holds those tuples)."""
    for Q in all_orientations(build_root_system(kind, rank)):
        arq = build_ar_quiver(Q)
        roots = arq.comm_class().roots
        assert len(arq.coords) == len(roots)
        keys = {v: v for v in arq.label}
        for v, r in zip(arq.coords, roots):
            assert arq.label[v] == r, Q.orientation_str()
            assert v is keys[v] and v is arq.vertex_of[r]


def test_ar_quiver_class_does_not_recompute_its_roots(a5, monkeypatch):
    """A class built from Gamma_Q takes its roots from the labels; a plain
    word still goes through roots_of_word and its NotReduced check."""
    import rootseq.words

    def refuse(word):
        raise AssertionError(f"roots_of_word({word!r}) on the AR-quiver path")

    with monkeypatch.context() as m:
        m.setattr(rootseq.words, "roots_of_word", refuse)
        for kind, rank in (("A", 5), ("D", 5), ("E", 7)):
            Q = next(all_orientations(build_root_system(kind, rank)))
            arq = ARQuiver(Q)  # a fresh one, not the cached one
            order = sorted(arq.label, key=lambda v: (-v[1], v[0]))
            assert arq.comm_class().roots == tuple(arq.label[v] for v in order)
    with pytest.raises(NotReduced):
        CommClass(ReducedWord((1, 1), a5))


@pytest.mark.parametrize("kind,rank", [("A", 5), ("D", 4), ("D", 5), ("E", 6)])
def test_label_bijection_every_orientation(kind, rank):
    sys_ = build_root_system(kind, rank)
    for Q in all_orientations(sys_):
        arq = build_ar_quiver(Q)
        assert set(arq.label.values()) == set(sys_.positive_roots)
        # rows start at gamma_i and end at theta of the dual vertex
        rows = arq.rows()
        inv = sys_.w0_involution
        for i in range(1, rank + 1):
            assert rows[i][-1] == gamma(Q, i)
            assert rows[i][0] == theta(Q, inv[i])
            assert len(rows[i]) == arq.mQ[i] + 1


def _ar_quiver_by_reflections(Q):
    """The labels (in insertion order: by residue, then p descending), mQ
    and arrows of Gamma_Q from the definition: row i starts at gamma_i at
    (i, xi_i) and steps left by tau_Q = act(cox) until a root turns
    negative."""
    sys_ = Q.system
    xi = height_function(Q)
    cox = coxeter_word(Q).letters
    label, mQ = {}, {}
    for i in range(1, sys_.rank + 1):
        cur, p = gamma(Q, i), xi[i]
        label[(i, p)] = cur
        while min(nxt := act(sys_, cox, cur.coeffs)) >= 0:
            cur, p = sys_.root(nxt), p - 2
            label[(i, p)] = cur
        mQ[i] = (xi[i] - p) // 2
    arrows = tuple(
        ((i, p), (j, p + 1))
        for (i, p) in label
        for j in range(1, sys_.rank + 1)
        if sys_.cartan[i - 1][j - 1] == -1 and (j, p + 1) in label
    )
    return list(label.items()), mQ, arrows


@pytest.mark.parametrize(
    "kind,rank,limit",
    [("A", n, None) for n in range(1, 9)] + [("D", n, None) for n in range(4, 9)]
    + [("E", 6, None), ("E", 7, None), ("E", 8, None), ("A", 12, 1), ("D", 10, 1)],
)
def test_mesh_rule_labels_match_tau_q(kind, rank, limit):
    """The labels knitted by the mesh rule, mQ and the arrows are those of
    the reflection oracle, in the same order: on every orientation up to
    rank 8, where D8 and E8 fill the packed fields most, and on one each of
    A12 and D10."""
    for Q in itertools.islice(all_orientations(build_root_system(kind, rank)), limit):
        arq = build_ar_quiver(Q)
        got = (list(arq.label.items()), arq.mQ, arq.arrows)
        assert got == _ar_quiver_by_reflections(Q), Q.orientation_str()


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8)],
)
def test_heap_relations_are_the_arrows_and_the_row_steps(kind, rank):
    """On the class of Gamma_Q, the heap relations (p, q) with nothing
    between them are exactly the arrows of Gamma_Q, read by class position
    through coords (an arrow u -> v is the relation from v to u), and
    every other relation is a row step (i, p) -> (i, p + 2), one for each
    vertex but the last of its row.  So the arrows computed on demand are
    those of the class built with the quiver."""
    sys_ = build_root_system(kind, rank)
    for Q in all_orientations(sys_):
        arq = build_ar_quiver(Q)
        cls = arq.comm_class()
        coords = arq.coords
        at = {v: k for k, v in enumerate(coords)}
        arrows = {(at[v], at[u]) for u, v in arq.arrows}
        assert len(arrows) == len(arq.arrows)
        covers = {(p, q) for p, q in cls.heap_covers if cls.interval(p, q) == 0}
        assert covers == arrows, Q.orientation_str()
        steps = [(p, q) for p, q in cls.heap_covers if cls.interval(p, q)]
        assert len(steps) == sys_.N - rank
        for p, q in steps:
            (i, s), (j, t) = coords[q], coords[p]
            assert (i, s + 2) == (j, t), Q.orientation_str()


def test_mq_sum_is_number_of_roots(a5, d4, e6):
    for sys_ in (a5, d4, e6):
        for Q in itertools.islice(all_orientations(sys_), 4):
            arq = build_ar_quiver(Q)
            assert sum(arq.mQ[i] + 1 for i in arq.mQ) == sys_.N


def test_a5_canonical_readings(a5):
    arq = build_ar_quiver(_quiver(a5, A5_Q))
    cls = arq.comm_class()
    for order in A5_READINGS:
        assert in_class(cls, word_from_root_order(a5, order))
    # a non-adapted word of w0 is not a reading
    assert not in_class(cls, ReducedWord(NON_ADAPTED_A5, a5))


def test_d4_canonical_readings(d4):
    arq = build_ar_quiver(_quiver(d4, D4_Q))
    cls = arq.comm_class()
    for order in D4_READINGS:
        assert in_class(cls, word_from_root_order(d4, order))


def test_find_quiver_roundtrip(a5, d4, e6):
    for sys_ in (a5, d4, build_root_system("D", 5), e6):
        for Q in all_orientations(sys_):
            cls = build_ar_quiver(Q).comm_class()
            assert find_quiver(cls) == Q


def test_non_adapted_class_has_no_quiver(a5):
    w = ReducedWord(NON_ADAPTED_A5, a5)
    assert find_quiver(CommClass(w)) is None
    assert not any(is_adapted(w, Q) for Q in all_orientations(a5))


def _below_by_paths(arq):
    """{beta: the roots alpha with a path from beta to alpha in the AR quiver},
    found by walking the arrows."""
    succ = {}
    for u, v in arq.arrows:
        succ.setdefault(u, []).append(v)
    below = {}
    for u, beta in arq.label.items():
        seen, todo = set(), list(succ.get(u, ()))
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(succ.get(v, ()))
        below[beta] = {arq.label[v] for v in seen}
    return below


def test_prec_matches_heap(d4):
    arq = build_ar_quiver(_quiver(d4, D4_Q))
    cls = arq.comm_class()
    below = _below_by_paths(arq)
    for a in d4.positive_roots:
        for b in d4.positive_roots:
            assert (a in below[b]) == cls.prec(a, b)


@pytest.mark.parametrize("name,kind,rank", [("e6", "E", 6), ("e7", "E", 7), ("e8", "E", 8)])
def test_exceptional_grids_match_fixtures(name, kind, rank):
    fx = load_fixture(name)
    assert fx["kind"] == kind and fx["rank"] == rank
    assert fixture_deltas(name) == []


def test_to_dot_and_json(d4):
    arq = build_ar_quiver(_quiver(d4, D4_Q))
    dot = arq.to_dot()
    assert dot.startswith("digraph") and dot.count("->") == len(arq.arrows)
    data = arq.to_json()
    assert len(data["vertices"]) == 12
    assert data["orientation"] == _quiver(d4, D4_Q).orientation_str()
