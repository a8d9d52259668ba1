import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rootseq import arquiver, denom
from rootseq.arquiver import DynkinQuiver, all_orientations, build_ar_quiver
from rootseq.cli import main
from rootseq.denom import (
    DistancePolynomial,
    WellDefinednessViolation,
    comparable_pairs,
    conjecture_table,
    denominator,
    denominator_table,
    _o_table,
    distance_polynomial,
    quantum_cartan_denominators,
    slots,
    verify_denominator,
)
from rootseq.orders import RootSequence
from rootseq.rootsys import UnsupportedType, build_root_system
from rootseq.seqcalc import gdist, gdist_chain, radius
from rootseq.words import ClassCache, CommClass

from conftest import denominator_closed_form


def _quiver(kind, rank, arrows):
    return DynkinQuiver.from_arrows(build_root_system(kind, rank), arrows)


A3_MONO = lambda: _quiver("A", 3, [(1, 2), (2, 3)])


def _released(Q):
    """Every store of the cache of Q's class is empty."""
    cache = build_ar_quiver(Q).comm_class().cache
    return not any(getattr(cache, store) for store in ClassCache.__slots__)


def test_polynomial_formatting():
    p = DistancePolynomial.from_dict({2: 1, 3: 2, 5: 0})
    assert str(p) == "(z-q^2)(z+q^3)^2"
    assert p.format("latex") == "(z-q^{2})(z+q^{3})^{2}"
    assert p.times(3).as_dict() == {2: 1, 3: 3}
    assert str(DistancePolynomial.from_dict({})) == "1"


def test_a3_slots():
    Q = A3_MONO()
    by_slot = slots(build_ar_quiver(Q))
    table, counts = _o_table(Q, True)
    # residues (1,1) at gap 2: two comparable pairs, both with gdist 1
    assert len(by_slot[(1, 1, 2)]) == 2
    assert table[(1, 1, 2)] == 1 and counts[(1, 1, 2)] == 2
    # residue 2 holds a single pair at gap 2
    assert len(by_slot[(2, 2, 2)]) == 1
    assert table[(2, 2, 2)] == 1
    assert (1, 3, 7) not in by_slot and (1, 3, 7) not in table  # empty slot


def test_comparable_pairs_count_a3():
    arq = build_ar_quiver(A3_MONO())
    pairs = list(comparable_pairs(arq))
    cls = arq.comm_class()
    want = sum(
        1
        for a in cls.roots
        for b in cls.roots
        if a != b and cls.prec(a, b)
    )
    assert len(pairs) == want


def test_a3_distance_polynomials():
    Q = A3_MONO()
    assert distance_polynomial(Q, 1, 1).as_dict() == {2: 1}
    assert distance_polynomial(Q, 1, 2).as_dict() == {3: 1}
    assert distance_polynomial(Q, 2, 2).as_dict() == {2: 1}
    # every (1,3) pair is simple, so the raw distance polynomial is trivial
    assert distance_polynomial(Q, 1, 3).as_dict() == {}


def test_correction_factor_on_dual_pairs():
    Q = A3_MONO()
    # w0 swaps 1 and 3 in A3, so d_{1,3} picks up (z-(-q)^{h_dual}) = (z-q^4)
    e = denominator(Q, 1, 3)
    assert e.correction
    assert e.poly.as_dict() == {4: 1}
    e11 = denominator(Q, 1, 1)
    assert not e11.correction and e11.poly.as_dict() == {2: 1}
    assert not e.conjectural


def test_closed_form_d5():
    assert denominator_closed_form("D", 5, 3, 3).as_dict() == {2: 1, 4: 2, 6: 2, 8: 1}
    assert denominator_closed_form("D", 5, 2, 4).as_dict() == {4: 1, 6: 1}
    assert denominator_closed_form("D", 5, 4, 5).as_dict() == {4: 1, 8: 1}
    assert denominator_closed_form("D", 5, 4, 4).as_dict() == {2: 1, 6: 1}
    assert denominator_closed_form("A", 4, 2, 3).as_dict() == {3: 1, 5: 1}
    with pytest.raises(UnsupportedType):
        denominator_closed_form("E", 6, 1, 1)


def _inverse_quantum_cartan(system):
    """{(k, l): [c~_{k,l}(u) for u = 0..h]} by the recursion
    (Hernandez-Leclerc, arXiv:1109.0862): c~(0) = 0, c~(1) = 1,
    c~_{k,l}(u+1) = sum of c~_{i,l}(u) over i adjacent to k, less c~_{k,l}(u-1)."""
    nodes = range(1, system.rank + 1)
    adj = {k: [i for i in nodes if system.cartan[k - 1][i - 1] == -1] for k in nodes}
    c = {(k, l): [0, int(k == l)] for k in nodes for l in nodes}
    for u in range(1, system.dual_coxeter):
        for k in nodes:
            for l in nodes:
                c[k, l].append(sum(c[i, l][u] for i in adj[k]) - c[k, l][u - 1])
    return c


ALL_TYPES = ([("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
             + [("E", n) for n in (6, 7, 8)])


@pytest.mark.parametrize("kind,rank", ALL_TYPES)
def test_reflection_map_is_reflect(kind, rank):
    """The cached s_i map of the edge check holds s_i beta for every
    positive root beta != alpha_i and every i, as the system's own root
    objects, and permutes those roots."""
    sys_ = build_root_system(kind, rank)
    for i in range(1, rank + 1):
        s_i = denom._reflection(sys_, i)
        alpha = sys_.simple_root(i)
        others = [b for b in sys_.positive_roots if b != alpha]
        assert list(s_i) == others
        for b in others:
            assert s_i[b] == sys_.reflect(b, i)
            assert s_i[b] is sys_.root(s_i[b])
        assert set(s_i.values()) == set(others)


@pytest.mark.parametrize("kind,rank", ALL_TYPES)
def test_quantum_cartan_reading_matches_recursion(kind, rank):
    """The reading off Gamma_Q is the inverse quantum Cartan matrix, with
    c~_{k,l}(u) as the exponent of (z-(-q)^{u+1}), on every orientation."""
    sys_ = build_root_system(kind, rank)
    c = _inverse_quantum_cartan(sys_)
    want = {
        (k, l): DistancePolynomial.from_dict(
            {u + 1: c[k, l][u] for u in range(1, sys_.dual_coxeter + 1)})
        for k in range(1, rank + 1) for l in range(k, rank + 1)
    }
    for Q in all_orientations(sys_):
        got = quantum_cartan_denominators(Q)
        assert list(got) == list(want)  # row order
        assert got == want, Q.orientation_str()


@pytest.mark.parametrize("kind,rank", [kr for kr in ALL_TYPES if kr[0] != "E"])
def test_quantum_cartan_reading_equals_closed_form(kind, rank):
    sys_ = build_root_system(kind, rank)
    for Q in all_orientations(sys_):
        for (k, l), poly in quantum_cartan_denominators(Q).items():
            assert poly == denominator_closed_form(kind, rank, k, l), (
                Q.orientation_str(), k, l)


@pytest.mark.parametrize("kind,rank", [("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)])
def test_all_orientations_match_closed_form(kind, rank):
    """verify_denominator checks against the Gamma_Q reading, which equals
    the closed form on A and D (test_quantum_cartan_reading_equals_closed_form)."""
    sys_ = build_root_system(kind, rank)
    for Q in all_orientations(sys_):
        bad = verify_denominator(Q)
        assert not bad, (Q.orientation_str(), bad)


def test_check_all_well_definedness_spot():
    # exhaustive member check on a couple of small quivers
    for Q in itertools.islice(all_orientations(build_root_system("D", 4)), 2):
        assert verify_denominator(Q, check_all=True) == ()


def test_well_definedness_violation_names_orientation_and_pairs(monkeypatch, capsys):
    """When two pairs of one slot disagree on gdist, check_all raises an
    error naming the orientation, the slot and both pairs, and the CLI
    exits 1."""
    Q = A3_MONO()
    fmt = Q.system.format_root
    arq = build_ar_quiver(Q)
    first, second = slots(arq)[(1, 1, 2)]
    roots = arq.comm_class().roots
    (a1, b1), (a2, b2) = ((roots[a], roots[b]) for a, b in (first, second))
    real = denom.gdist
    monkeypatch.setattr(
        denom, "gdist", lambda seq: real(seq) + (seq.positions() == list(second))
    )
    _o_table.cache_clear()
    try:
        with pytest.raises(WellDefinednessViolation) as err:
            _o_table(Q, True)
        assert _released(Q)
        message = str(err.value)
        assert Q.orientation_str() in message
        assert "residues (1,1) gap 2" in message
        assert f"({fmt(a1)},{fmt(b1)}) has gdist 1" in message
        assert f"({fmt(a2)},{fmt(b2)}) has gdist 2" in message
        code = main(["denom", "table", "--type", "A3", "--orient", "1>2,2>3",
                     "--check-all"])
        assert code == 1
        assert "disagree" in capsys.readouterr().err
    finally:
        _o_table.cache_clear()


def test_o_table_takes_check_all_by_position_only():
    """check_all has no default and no keyword, so the lru cache holds one
    entry per (Q, bool)."""
    Q = A3_MONO()
    _o_table.cache_clear()
    with pytest.raises(TypeError):
        _o_table(Q)
    with pytest.raises(TypeError):
        _o_table(Q, check_all=True)
    assert _o_table.cache_info().currsize == 0
    _o_table(Q, True)
    _o_table(Q, True)
    assert _o_table.cache_info().currsize == 1
    _o_table.cache_clear()


def _oracle_o_table(Q, check_all):
    """Q's o-table and slot sizes recomputed from Q's own AR quiver over a
    new class of it, with nothing in its cache: the gdist of the first pair
    of every slot, or with check_all of every pair of the slot, which must
    agree, and the number of pairs of every slot."""
    arq = build_ar_quiver(Q)
    cls = CommClass(arq.comm_class().representative)
    out, sizes = {}, {}
    for key, members in slots(arq).items():
        vals = {gdist(RootSequence.from_positions(cls, ab))
                for ab in (members if check_all else members[:1])}
        assert len(vals) == 1, (Q.orientation_str(), key)
        out[key] = vals.pop()
        sizes[key] = len(members)
    return out, sizes


def _depth(tree, Q):
    """The number of edges from Q up to the root of the derivation tree."""
    d = 0
    while tree[Q] is not None:
        Q, d = tree[Q][0], d + 1
    return d


def _first_at_each_depth(system):
    """The first orientation, in ``all_orientations`` order, at each depth
    of the system's derivation tree."""
    tree = denom._derivation_tree(system)
    firsts = {}
    for Q in all_orientations(system):
        firsts.setdefault(_depth(tree, Q), Q)
    return list(firsts.values())


@pytest.mark.parametrize(
    "kind,rank,limit",
    [("A", n, None) for n in range(2, 7)] + [("D", n, None) for n in (4, 5, 6)]
    + [("E", 6, None), ("E", 7, 4)],
)
def test_o_table_matches_its_own_class(kind, rank, limit):
    """Whether an o-table is computed from its class or derived from its
    parent's, it equals the table recomputed from the quiver's own class,
    and its pair counts equal the sizes of the quiver's own slots; with
    check_all too (A and D).  E7 is checked on its first orientations
    and on the first orientation at each depth of its derivation tree."""
    system = build_root_system(kind, rank)
    quivers = list(itertools.islice(all_orientations(system), limit))
    if limit is not None:
        quivers += [Q for Q in _first_at_each_depth(system) if Q not in quivers]
    for Q in quivers:
        assert _o_table(Q, False) == _oracle_o_table(Q, False), Q.orientation_str()
        if kind != "E":
            assert _o_table(Q, True) == _oracle_o_table(Q, True), Q.orientation_str()


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(2, 7)] + [("D", n) for n in (4, 5, 6)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_derivation_tree_reaches_the_root(kind, rank):
    """The derivation tree holds every orientation; from each, the parents
    lead to the root ``next(all_orientations)`` without a cycle, and every
    edge is the reflection at a sink or source of the parent."""
    system = build_root_system(kind, rank)
    tree = denom._derivation_tree(system)
    quivers = list(all_orientations(system))
    root = quivers[0]
    assert set(tree) == set(quivers) and len(quivers) == 2 ** len(system.datum.edges)
    assert tree[root] is None
    for Q in quivers:
        seen = {Q}
        while tree[Q] is not None:
            P, i = tree[Q]
            assert i in P.sinks() + P.sources(), (P.orientation_str(), i)
            assert Q == P.reflect(i), (P.orientation_str(), i)
            assert P not in seen, P.orientation_str()
            seen.add(P)
            Q = P
        assert Q == root


# the E8 orientation whose table scripts/otable_hash.py hashes
E8_REFERENCE = ((3, 1), (3, 4), (4, 2), (4, 5), (5, 6), (6, 7), (7, 8))


def _path_to_root(Q):
    """Q and its ancestors in the derivation tree, up to the root."""
    tree = denom._derivation_tree(Q.system)
    path = [Q]
    while tree[path[-1]] is not None:
        path.append(tree[path[-1]][0])
    return path


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(2, 7)] + [("D", n) for n in (4, 5, 6)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_slot_counts_are_the_slot_sizes(kind, rank):
    """The pair counts carried with the o-tables along the derivation tree,
    from cold, equal the sizes of each quiver's own slots: on every
    orientation, and in E8 on the path from the reference orientation to the
    root.  Each table lists its slots in the order of its counts."""
    system = build_root_system(kind, rank)
    if rank == 8:
        quivers = _path_to_root(DynkinQuiver.from_arrows(system, E8_REFERENCE))
    else:
        quivers = list(all_orientations(system))
    _o_table.cache_clear()
    try:
        for Q in quivers:
            sizes = {key: len(members) for key, members in slots(build_ar_quiver(Q)).items()}
            table, counts = _o_table(Q, False)
            assert counts == sizes, Q.orientation_str()
            assert list(table) == list(counts), Q.orientation_str()
    finally:
        _o_table.cache_clear()


def test_only_the_root_walks_its_comparable_pairs(monkeypatch):
    """Asking all 64 E7 o-tables from cold walks the comparable pairs of the
    root alone, once for its table and its pair counts together: every
    derived table reads alpha_i's pairs only."""
    system = build_root_system("E", 7)
    walked = []
    real = denom.comparable_pairs

    def counted(arq):
        walked.append(arq.quiver)
        return real(arq)

    monkeypatch.setattr(denom, "comparable_pairs", counted)
    _o_table.cache_clear()
    try:
        for Q in all_orientations(system):
            _o_table(Q, False)
    finally:
        _o_table.cache_clear()
    assert walked == [next(all_orientations(system))]


def _starred(table: dict, star: dict) -> dict:
    """A table over slots relabelled (k, l, t) -> (k*, l*, t), k* <= l*."""
    return {
        (min(star[k], star[l]), max(star[k], star[l]), t): v
        for (k, l, t), v in table.items()
    }


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(2, 7)] + [("D", n) for n in (4, 5, 6)]
    + [("E", 6), ("E", 7)],
)
def test_reversed_table_is_the_w0_relabelling(kind, rank):
    """Gamma_{Q^rev} is Gamma_Q mirrored (residue i -> i*, coordinate
    p -> C - p, heap reversed), and bi-lex asks for both the first and the
    last differing position, so Q^rev's o-table and pair counts are Q's
    relabelled (k, l, t) -> (k*, l*, t) by the w0 involution.  Q and Q^rev
    are reached along different reflection paths of the derivation tree, so
    this compares two derivations: on every orientation, with check_all too
    (A and D)."""
    system = build_root_system(kind, rank)
    star = system.w0_involution
    for Q in all_orientations(system):
        for check_all in (False, True) if kind != "E" else (False,):
            table, counts = _o_table(Q, check_all)
            assert _o_table(Q.rev(), check_all) == (
                _starred(table, star), _starred(counts, star)
            ), Q.orientation_str()


ROOT = Path(__file__).resolve().parent.parent


def test_otable_hash_is_unchanged():
    """scripts/otable_hash.py prints the hashes of the o-tables of 599
    orientations and of their AR quivers and classes, as computed when every
    table was read off its own class: a change to the derivation of the
    tables cannot pass while changing any of them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "otable_hash.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == [
        "tables 599  E8 sum o_t 871  sha256 "
        "6aa548b3201f42871a0019b94f380fdf73d31b57aae4f9d5beb72f24515de858",
        "AR quivers and classes 599  sha256 "
        "a386c576fedbb5cf0238d29a6213ff95b0a8a1590bfc9e560f73b7626a127ac3",
    ]


@pytest.mark.parametrize("kind,rank", [("A", 5), ("D", 5), ("E", 6)])
def test_o_tables_do_not_depend_on_query_order(kind, rank):
    """Asking Q before Q^rev or Q^rev before Q, from cold AR quivers and
    classes, gives the same two tables, and leaves the caches of both
    classes empty."""
    for Q in all_orientations(build_root_system(kind, rank)):
        answers = []
        for first, second in ((Q, Q.rev()), (Q.rev(), Q)):
            _o_table.cache_clear()
            arquiver.build_ar_quiver.cache_clear()
            tables = {R: _o_table(R, kind != "E") for R in (first, second)}
            answers.append((tables[Q], tables[Q.rev()]))
            assert _released(Q) and _released(Q.rev()), Q.orientation_str()
        assert answers[0] == answers[1], Q.orientation_str()
    _o_table.cache_clear()


@pytest.mark.parametrize("kind,rank", [("A", 5), ("D", 5), ("E", 6)])
def test_answers_do_not_depend_on_a_released_cache(kind, rank):
    """radius of every non-simple root and gdist_chain of the first pair of
    every slot, asked of a class before its o-table is computed (which
    releases its cache) and again after, are equal, witnesses included."""
    # the root of the derivation tree: its table is computed from its class
    Q = next(all_orientations(build_root_system(kind, rank)))
    _o_table.cache_clear()
    arquiver.build_ar_quiver.cache_clear()
    arq = build_ar_quiver(Q)
    cls = arq.comm_class()
    firsts = [members[0] for members in slots(arq).values()]

    def answers():
        radii = {g: radius(cls, g) for g in cls.roots if g.height > 1}
        chains = [gdist_chain(RootSequence.from_positions(cls, ab)) for ab in firsts]
        return radii, chains

    before = answers()
    assert not _released(Q)
    _o_table(Q, False)
    assert _released(Q)
    assert answers() == before
    _o_table.cache_clear()


def _reflected_a3():
    """The A3 root orientation 1>2,2>3 and its reflection at the source 1,
    whose table the derivation tree derives from the root's."""
    P = A3_MONO()
    Q = P.reflect(1)
    assert denom._derivation_tree(P.system)[Q] == (P, 1)
    return P, Q


# the broken premise each fault must be named by
_EDGE_FAULTS = {"coordinate": "shift by", "residue": "residue",
                "covers": "heap covers", "extremal": "not extremal"}


@pytest.mark.parametrize("fault", _EDGE_FAULTS, ids=lambda fault: f"reflection-{fault}")
def test_edge_check_names_both_orientations(monkeypatch, fault):
    """A derived quiver whose AR quiver is not its parent's reflected at i
    raises an error naming both orientations, i and the broken premise,
    instead of taking the parent's table.  Each fault is in the derived
    quiver alone: the highest root moved in the coordinates by class
    position (``ARQuiver.coords``, which the check and the tables read) to
    another coordinate or residue, one heap cover (that avoids alpha_i)
    dropped, or alpha_i given a root on either side in the heap."""
    (P, Q), i = _reflected_a3(), 1
    moved = build_ar_quiver(Q)
    cls = moved.comm_class()
    end = cls.position(Q.system.simple_root(i))
    top = cls.position(Q.system.highest_root)

    if fault in ("coordinate", "residue"):
        coords = list(moved.coords)
        k, p = coords[top]
        coords[top] = (k, p + 2) if fault == "coordinate" else (k % 3 + 1, p)
        monkeypatch.setattr(moved, "coords", tuple(coords))
    elif fault == "covers":
        drop = next(c for c in cls.heap_covers if end not in c)
        monkeypatch.setattr(cls, "heap_covers",
                            tuple(c for c in cls.heap_covers if c != drop))
    else:
        other = 1 << (end + 1) % len(cls)
        for store in ("_below", "_above"):
            masks = list(getattr(cls, store))
            masks[end] |= other
            monkeypatch.setattr(cls, store, masks)
    _o_table.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not the reflection of") as err:
            _o_table(Q, False)
        message = str(err.value)
        assert P.orientation_str() in message
        assert Q.orientation_str() in message
        assert " at 1: " in message
        assert _EDGE_FAULTS[fault] in message
    finally:
        _o_table.cache_clear()


def test_check_all_computes_the_alpha_pairs_of_a_carried_slot(monkeypatch):
    """In a reflected table, a slot that takes the parent's value and also
    holds a pair containing alpha_i: when that pair's gdist (in the
    reflected class only) disagrees, check_all raises naming both pairs,
    and the caches of both classes are left empty."""
    P, Q = _reflected_a3()
    cls_q = build_ar_quiver(Q).comm_class()
    e = cls_q.position(Q.system.simple_root(1))
    key, members = next(
        (key, members) for key, members in slots(build_ar_quiver(Q)).items()
        if any(e in ab for ab in members) and any(e not in ab for ab in members)
    )
    carried = next(ab for ab in members if e not in ab)
    new = next(ab for ab in members if e in ab)
    roots = cls_q.roots
    (a1, b1), (a2, b2) = ((roots[a], roots[b]) for a, b in (carried, new))
    fmt = Q.system.format_root
    real = denom.gdist
    monkeypatch.setattr(
        denom, "gdist",
        lambda seq: real(seq) + (seq.cls is cls_q and seq.positions() == list(new)),
    )
    _o_table.cache_clear()
    try:
        o = _o_table(Q, False)[0][key]  # without check_all the alpha pair is not read
        with pytest.raises(WellDefinednessViolation) as err:
            _o_table(Q, True)
        assert _released(P) and _released(Q)
        message = str(err.value)
        assert Q.orientation_str() in message
        assert f"residues ({key[0]},{key[1]}) gap {key[2]}" in message
        assert f"({fmt(a1)},{fmt(b1)}) has gdist {o}" in message
        assert f"({fmt(a2)},{fmt(b2)}) has gdist {o + 1}" in message
    finally:
        _o_table.cache_clear()


def test_symmetry_in_k_l():
    Q = _quiver("D", 5, [(1, 2), (2, 3), (3, 4), (3, 5)])
    for k in range(1, 6):
        for l in range(k, 6):
            assert distance_polynomial(Q, k, l) == distance_polynomial(Q, l, k)


def test_orientation_independence_a4():
    sys_ = build_root_system("A", 4)
    polys = None
    for Q in all_orientations(sys_):
        cur = {
            (k, l): distance_polynomial(Q, k, l)
            for k in range(1, 5)
            for l in range(k, 5)
        }
        if polys is None:
            polys = cur
        else:
            assert cur == polys


def test_conjecture_table_shape_e6():
    Q = _quiver("E", 6, [(1, 2), (2, 3), (3, 4), (4, 5), (6, 3)])
    table = conjecture_table(Q)
    assert len(table) == 21
    assert all(e.conjectural for e in table)
    by = {(e.k, e.l): e for e in table}
    # spot checks against well-reproduced entries
    assert str(by[(1, 1)].poly) == "(z-q^2)(z-q^8)"
    assert str(by[(1, 6)].poly) == "(z+q^5)(z+q^9)"
    assert str(by[(1, 5)].poly) == "(z-q^6)(z-q^12)"
    assert by[(1, 5)].correction  # 5 = 1* in E6
    with pytest.raises(UnsupportedType):
        conjecture_table(A3_MONO())


E7_ABOVE_READING = {(4, 4), (4, 5), (4, 6), (5, 5), (5, 6), (6, 6)}


def _excess(Q):
    """{(k, l): {t: the computed exponent less the reading's}}."""
    want = quantum_cartan_denominators(Q)
    out = {}
    for e in denominator_table(Q):
        got, ref = e.poly.as_dict(), want[e.k, e.l].as_dict()
        out[e.k, e.l] = {t: got.get(t, 0) - ref.get(t, 0) for t in got.keys() | ref.keys()}
    return out


def test_verify_denominator_on_type_e():
    """verify_denominator takes type E: E6 agrees with the Gamma_Q reading;
    E7 lies above it in exactly six entries, each exponent by at most one,
    and E8 in 23 entries, never below it."""
    assert verify_denominator(_quiver("E", 6, [(1, 2), (2, 3), (3, 4), (4, 5), (6, 3)])) == ()
    Q = _quiver("E", 7, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)])
    assert {(e["k"], e["l"]) for e in verify_denominator(Q)} == E7_ABOVE_READING
    excess = _excess(Q)
    assert {kl for kl, d in excess.items() if any(d.values())} == E7_ABOVE_READING
    assert all(set(d.values()) <= {0, 1} for d in excess.values())
    Q = _quiver("E", 8, [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)])
    assert len(verify_denominator(Q)) == 23
    assert all(x >= 0 for d in _excess(Q).values() for x in d.values())
