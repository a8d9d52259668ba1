import itertools
import os
from collections import Counter
import re
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
from rootseq.words import ClassCache, CommClass, RootNotInWord

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
    table = _o_table(Q)
    # residues (1,1) at gap 2: two comparable pairs, both with gdist 1
    assert len(by_slot[(1, 1, 2)]) == 2
    assert table[(1, 1, 2)] == 1
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
    """The check passes on D4, and the tables of the first two orientations
    then verify."""
    system = build_root_system("D", 4)
    denom._memo.cache_clear()
    try:
        denom.check_well_defined(system)
        for Q in itertools.islice(all_orientations(system), 2):
            assert verify_denominator(Q) == ()
    finally:
        denom._memo.cache_clear()


def _ordered(coords, ab):
    """The ordered slot (i, j, p - q) of the position pair (a, b), a < b:
    (i, p) is the vertex of a and (j, q) that of b."""
    (i, p), (j, q) = coords[ab[0]], coords[ab[1]]
    return i, j, p - q


def test_well_definedness_violation_names_orientation_and_pairs(monkeypatch, capsys):
    """When the two orders (k, l, t) and (l, k, t) of one slot disagree on
    gdist, check_well_defined raises an error naming the orientation, the
    slot and a pair of each order, and the CLI exits 1.  The fault is at the
    first pair of the slot's second order on the first orientation, where
    the check computes that ordered slot's gdist."""
    Q = A3_MONO()
    fmt = Q.system.format_root
    arq = build_ar_quiver(Q)
    key, first, second = next(
        (key, members[0], ab)
        for key, members in slots(arq).items() for ab in members
        if _ordered(arq.coords, ab) != _ordered(arq.coords, members[0])
    )
    cls = CommClass(arq.comm_class().representative)
    g = gdist(RootSequence.from_positions(cls, first))
    roots = arq.comm_class().roots
    (a1, b1), (a2, b2) = ((roots[a], roots[b]) for a, b in (first, second))
    real = denom.gdist
    monkeypatch.setattr(
        denom, "gdist", lambda seq: real(seq) + (seq.positions() == list(second))
    )
    denom._memo.cache_clear()
    try:
        with pytest.raises(WellDefinednessViolation) as err:
            denom.check_well_defined(Q.system)
        assert _released(Q)
        message = str(err.value)
        assert Q.orientation_str() in message
        assert f"residues ({key[0]},{key[1]}) gap {key[2]}" in message
        assert f"({fmt(a1)},{fmt(b1)}) has gdist {g}" in message
        assert f"({fmt(a2)},{fmt(b2)}) has gdist {g + 1}" in message
        code = main(["denom", "table", "--type", "A3", "--orient", "1>2,2>3",
                     "--check-all"])
        assert code == 1
        assert "disagree" in capsys.readouterr().err
    finally:
        denom._memo.cache_clear()


def _orders(arq):
    """The ordered slots (i, j, t) that Gamma_Q holds, read off its rows."""
    n = arq.system.rank
    return {(i, j, t) for i in range(1, n + 1) for j in range(1, n + 1)
            for t in denom._gaps(arq, i, j)}


def _gdist_by_ordered_slot(system, each):
    """denom.gdist, with each(slot, g) added to the gdist g of a pair of
    the system, its ordered slot read off the AR quiver of its class."""
    arqs = {build_ar_quiver(Q).comm_class(): build_ar_quiver(Q)
            for Q in all_orientations(system)}
    real = denom.gdist

    def wrapped(seq):
        g = real(seq)
        return g + each(_ordered(arqs[seq.cls].coords, seq.positions()), g)
    return wrapped


def test_check_compares_orders_that_share_no_orientation(monkeypatch, capsys):
    """A gdist raised by one on the order (6, 1, 13) of E6, which no
    orientation holds together with (1, 6, 13), raises
    WellDefinednessViolation naming the slot and, for each order, the first
    orientation that holds it and its first pair there with its gdist; the
    memo is left empty, and ``denom table --check-all`` exits 1 on an
    orientation that holds one order only.  A check of the orders that one
    table holds cannot see this fault."""
    system = build_root_system("E", 6)
    fmt = system.format_root
    first = {}
    for Q in all_orientations(system):
        arq = build_ar_quiver(Q)
        here = [ij for ij in ((1, 6), (6, 1)) if (*ij, 13) in _orders(arq)]
        assert len(here) < 2, Q.orientation_str()
        for ij in here:
            first.setdefault(ij, arq)
    named = []
    for ij, arq in first.items():
        a, b = (arq.label[v] for v in denom._first_pair(arq, *ij, 13))
        cls = CommClass(arq.comm_class().representative)
        g = gdist(RootSequence.from_roots(cls, (a, b))) + (ij == (6, 1))
        named.append(f"on {arq.quiver.orientation_str()} "
                     f"({fmt(a)},{fmt(b)}) has gdist {g}")
    monkeypatch.setattr(denom, "gdist", _gdist_by_ordered_slot(
        system, lambda slot, g: slot == (6, 1, 13)))
    denom._memo.cache_clear()
    try:
        with pytest.raises(WellDefinednessViolation) as err:
            denom.check_well_defined(system)
        assert str(err.value) == ("pairs at residues (1,6) gap 13 disagree: "
                                  + "; ".join(named))
        assert denom._memo(system) == {}
        code = main(["denom", "table", "--type", "E6", "--orient",
                     first[1, 6].quiver.orientation_str(), "--check-all"])
        assert code == 1 and "gap 13 disagree" in capsys.readouterr().err
    finally:
        denom._memo.cache_clear()


def test_check_compares_every_slot_whose_two_orders_occur(monkeypatch):
    """With gdist raised by one on every order (i, j, t), i > j, the check
    names each slot whose two orders both occur somewhere in E6, once:
    87 slots, of which the two orders share an orientation in only 82."""
    system = build_root_system("E", 6)
    occur, shared = set(), set()
    for Q in all_orientations(system):
        here = _orders(build_ar_quiver(Q))
        occur |= here
        shared |= {(i, j, t) for i, j, t in here if i < j and (j, i, t) in here}
    both = {(i, j, t) for i, j, t in occur if i < j and (j, i, t) in occur}
    assert (len(both), len(shared)) == (87, 82)
    monkeypatch.setattr(denom, "gdist", _gdist_by_ordered_slot(
        system, lambda slot, g: slot[0] > slot[1]))
    denom._memo.cache_clear()
    try:
        with pytest.raises(WellDefinednessViolation) as err:
            denom.check_well_defined(system)
    finally:
        denom._memo.cache_clear()
    lines = str(err.value).splitlines()
    named = [tuple(map(int, re.match(r"pairs at residues \((\d+),(\d+)\) gap (\d+) ",
                                     line).groups())) for line in lines]
    assert len(named) == len(set(named)) == 87 and set(named) == both


def test_check_computes_each_ordered_slot_once(monkeypatch):
    """check_well_defined computes the gdist of each of the 210 ordered
    slots of E6 once; the 32 tables asked after it compute none and equal
    the tables asked from a cold memo without it."""
    system = build_root_system("E", 6)
    quivers = list(all_orientations(system))
    denom._memo.cache_clear()
    plain = {Q: _o_table(Q) for Q in quivers}
    seen = []
    monkeypatch.setattr(denom, "gdist", _gdist_by_ordered_slot(
        system, lambda slot, g: seen.append(slot) or 0))
    denom._memo.cache_clear()
    try:
        denom.check_well_defined(system)
        computed = len(seen)
        assert {Q: _o_table(Q) for Q in quivers} == plain
    finally:
        denom._memo.cache_clear()
    occur = set().union(*(_orders(build_ar_quiver(Q)) for Q in quivers))
    assert computed == len(seen) == len(set(seen)) == len(occur) == 210
    assert set(seen) == occur


def _oracle_o_table(Q, every_pair):
    """Q's o-table recomputed from Q's own AR quiver over a new class of it,
    with nothing in its cache: the gdist of the first pair of every slot,
    or with every_pair of every pair of the slot, which must agree."""
    arq = build_ar_quiver(Q)
    cls = CommClass(arq.comm_class().representative)
    out = {}
    for key, members in slots(arq).items():
        vals = {gdist(RootSequence.from_positions(cls, ab))
                for ab in (members if every_pair else members[:1])}
        assert len(vals) == 1, (Q.orientation_str(), key)
        out[key] = vals.pop()
    return out


@pytest.mark.parametrize(
    "kind,rank,limit",
    [("A", n, None) for n in range(2, 7)] + [("D", n, None) for n in (4, 5, 6)]
    + [("E", 6, None), ("E", 7, 4)],
)
def test_o_table_matches_its_own_class(kind, rank, limit):
    """An o-table read off the rows of Gamma_Q, with gdists from the memo
    the system's tables share, equals the table recomputed from the
    quiver's own class; read again after check_well_defined has filled the
    memo, it equals the table of every pair of each slot (A and D).  E7 is
    checked on its first orientations and on every 16th after them."""
    system = build_root_system(kind, rank)
    quivers = list(all_orientations(system))
    if limit is not None:
        quivers = quivers[:limit] + quivers[limit::16]
    for Q in quivers:
        assert _o_table(Q) == _oracle_o_table(Q, False), Q.orientation_str()
    if kind != "E":
        denom._memo.cache_clear()
        denom.check_well_defined(system)
        for Q in quivers:
            assert _o_table(Q) == _oracle_o_table(Q, True), Q.orientation_str()


# the E8 orientation whose table scripts/otable_hash.py hashes
E8_REFERENCE = ((3, 1), (3, 4), (4, 2), (4, 5), (5, 6), (6, 7), (7, 8))


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_slot_counts_are_the_slot_sizes(kind, rank):
    """The ordered slots read off the rows of Gamma_Q (``denom._gaps``),
    each with the number of vertex pairs (i, p), (j, p - t) that the two
    rows hold, are exactly the ordered slots of the comparable pairs, each
    with its number of pairs, and ``denom._first_pair`` gives each one's
    first pair in ``comparable_pairs`` order: on every orientation, and in
    E8 on the first 16 and the reference orientation."""
    system = build_root_system(kind, rank)
    quivers = list(all_orientations(system))
    if kind == "E" and rank == 8:
        quivers = quivers[:16] + [DynkinQuiver.from_arrows(system, E8_REFERENCE)]
    for Q in quivers:
        arq = build_ar_quiver(Q)
        sizes, firsts = {}, {}
        for a, b, _ in comparable_pairs(arq):
            slot = _ordered(arq.coords, (a, b))
            sizes[slot] = sizes.get(slot, 0) + 1
            firsts.setdefault(slot, (arq.coords[a], arq.coords[b]))
        rows = {i: {p for r, p in arq.label if r == i} for i in range(1, rank + 1)}
        counts = {
            (i, j, t): len(rows[i] & {p + t for p in rows[j]})
            for i in rows for j in rows for t in denom._gaps(arq, i, j)
        }
        assert counts == sizes, Q.orientation_str()
        assert all(denom._first_pair(arq, *slot) == first
                   for slot, first in firsts.items()), Q.orientation_str()


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(2, 7)] + [("D", n) for n in (4, 5, 6)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_reflections_connect_every_orientation(kind, rank):
    """The reflections at sinks and sources (``_reflections``) connect every
    orientation to the first of ``all_orientations``, each edge from P the
    reflection s_i P != P at a sink or source i of P.  The memo's transport
    argument joins the pairs of all orientations along these edges, and
    check_well_defined checks the premise of every one."""
    system = build_root_system(kind, rank)
    quivers = list(all_orientations(system))
    assert len(set(quivers)) == len(quivers) == 2 ** len(system.datum.edges)
    reached = {quivers[0]}
    frontier = [quivers[0]]
    for P in frontier:  # appended to while read
        for i, Q in denom._reflections(P):
            assert i in P.sinks() + P.sources() and Q == P.reflect(i) != P
            if Q not in reached:
                reached.add(Q)
                frontier.append(Q)
    assert reached == set(quivers)


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
    last differing position, so Q^rev's o-table is Q's relabelled
    (k, l, t) -> (k*, l*, t) by the w0 involution.  The two are read off
    different rows: on every orientation, from a cold memo and (A and D)
    from one filled by check_well_defined."""
    system = build_root_system(kind, rank)
    star = system.w0_involution
    for checked in (False, True) if kind != "E" else (False,):
        denom._memo.cache_clear()
        if checked:
            denom.check_well_defined(system)
        for Q in all_orientations(system):
            assert _o_table(Q.rev()) == _starred(_o_table(Q), star), Q.orientation_str()


def _reference_merge(system, mine, theirs):
    """The merge of two o-tables by a loop over every slot of both: the max
    of o_t per (k, l, t), a factor dropped when that max is 0."""
    n = system.rank
    exps = {(k, l): {} for k in range(1, n + 1) for l in range(k, n + 1)}
    for table in (mine, theirs):
        for (k, l, t), o in table.items():
            d = exps[k, l]
            d[t] = max(d.get(t, 0), o)
    return {kl: DistancePolynomial.from_dict(d) for kl, d in exps.items()}


def test_merge_takes_the_max_where_the_tables_differ(monkeypatch):
    """_distance_polynomials merges the o-tables of Q and Q^rev as the loop
    over every slot did, on two synthetic tables with a slot in each table
    alone, a slot where each side is larger, equal slots and o = 0 slots."""
    Q = A3_MONO()
    mine = {(1, 1, 2): 1, (1, 2, 1): 2, (2, 3, 1): 1, (1, 3, 2): 0,
            (2, 2, 2): 1, (1, 2, 3): 4}
    theirs = {(1, 1, 2): 1, (1, 2, 1): 3, (2, 3, 1): 0, (3, 3, 2): 2,
              (2, 2, 2): 0, (1, 2, 5): 1}
    tables = {Q: mine, Q.rev(): theirs}
    monkeypatch.setattr(denom, "_o_table", lambda R: tables[R])
    got = denom._distance_polynomials(Q)
    assert got == _reference_merge(Q.system, mine, theirs)
    assert list(got) == list(_reference_merge(Q.system, mine, theirs))
    assert got[1, 2].factors == ((1, 3), (3, 4), (5, 1))
    assert got[1, 3].factors == () and got[3, 3].factors == ((2, 2),)


def test_merge_matches_the_loop_on_every_e6_orientation():
    """On every E6 orientation, where Q^rev's o-table relabels the
    residues by the w0 involution, the merge equals the loop over every
    slot of both tables."""
    system = build_root_system("E", 6)
    for Q in all_orientations(system):
        want = _reference_merge(system, _o_table(Q), _o_table(Q.rev()))
        assert denom._distance_polynomials(Q) == want, Q.orientation_str()


ROOT = Path(__file__).resolve().parent.parent


def test_otable_hash_is_unchanged():
    """scripts/otable_hash.py prints the hashes of the o-tables of 599
    orientations and of their AR quivers and classes, as computed when every
    table was read off its own class, each slot's gdist from the slot's
    first pair: a change to how the tables are read or share their gdists
    cannot pass while changing any of them."""
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
            denom._memo.cache_clear()
            arquiver.build_ar_quiver.cache_clear()
            tables = {R: _o_table(R) for R in (first, second)}
            answers.append((tables[Q], tables[Q.rev()]))
            assert _released(Q) and _released(Q.rev()), Q.orientation_str()
        assert answers[0] == answers[1], Q.orientation_str()
    denom._memo.cache_clear()


@pytest.mark.parametrize("kind,rank", [("A", 5), ("D", 5), ("E", 6)])
def test_answers_do_not_depend_on_a_released_cache(kind, rank):
    """radius of every non-simple root and gdist_chain of the first pair of
    every slot, asked of a class before its o-table is computed (which
    releases its cache) and again after, are equal, witnesses included."""
    Q = next(all_orientations(build_root_system(kind, rank)))
    denom._memo.cache_clear()
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
    _o_table(Q)
    assert _released(Q)
    assert answers() == before
    denom._memo.cache_clear()


def _reflected_a3():
    """The A3 orientation 1>2,2>3, the first of ``all_orientations``, and
    its reflection at the source 1: the first reflection whose premise
    check_well_defined checks."""
    P = A3_MONO()
    Q = P.reflect(1)
    assert P == next(all_orientations(P.system))
    assert next(denom._reflections(P)) == (1, Q)
    return P, Q


# the broken premise each fault must be named by
_EDGE_FAULTS = {"coordinate": "shift by", "residue": "residue",
                "covers": "heap covers", "extremal": "not extremal"}


@pytest.mark.parametrize("fault", _EDGE_FAULTS, ids=lambda fault: f"reflection-{fault}")
def test_edge_check_names_both_orientations(monkeypatch, fault):
    """check_well_defined, on a quiver whose AR quiver is not its
    neighbour's reflected at i, raises an error naming both orientations,
    i and the broken premise, before it computes any gdist.  Each fault is
    in the reflected quiver alone: the highest root moved in the
    coordinates by class position (``ARQuiver.coords``, which the check and
    the tables read) to another coordinate or residue, one heap cover (that
    avoids alpha_i) dropped, or alpha_i given a root on either side in the
    heap."""
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
    denom._memo.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="not the reflection of") as err:
            denom.check_well_defined(Q.system)
        message = str(err.value)
        assert P.orientation_str() in message
        assert Q.orientation_str() in message
        assert " at 1: " in message
        assert _EDGE_FAULTS[fault] in message
    finally:
        denom._memo.cache_clear()


def test_check_all_checks_every_reflection_of_a_table(monkeypatch, capsys):
    """check_well_defined checks the premise of the reflection at every
    sink and source of every orientation, since the memo trusts transport
    along all of them: an orientation R that no table asked reads, with its
    AR quiver broken, is named by the check, and by ``denom table --orient
    P --check-all``, which checks the whole system; a table alone does not
    read it."""
    (P, Q), i = _reflected_a3(), 1
    j = next(j for j in Q.sinks() + Q.sources() if j != i)
    R = Q.reflect(j)
    assert R not in (P, Q)
    moved = build_ar_quiver(R)
    top = moved.comm_class().position(R.system.highest_root)
    coords = list(moved.coords)
    k, p = coords[top]
    coords[top] = (k, p + 2)
    monkeypatch.setattr(moved, "coords", tuple(coords))
    denom._memo.cache_clear()
    try:
        _o_table(P)
        with pytest.raises(RuntimeError, match="shift by") as err:
            denom.check_well_defined(P.system)
        assert "is not the reflection of" in str(err.value)
        assert R.orientation_str() in str(err.value)
        code = main(["denom", "table", "--type", "A3", "--orient",
                     P.orientation_str(), "--check-all"])
        assert code == 4 and R.orientation_str() in capsys.readouterr().err
    finally:
        denom._memo.cache_clear()


@pytest.mark.parametrize("checked", [False, True])
def test_e6_o_tables_cost_one_gdist_per_memo_key(monkeypatch, checked):
    """The 32 E6 o-tables, asked from a cold memo, compute one gdist per
    slot (123).  Asked after check_well_defined, which computes one per
    ordered slot (210) and checks each (P, i), i a sink or source of P
    with s_i P != P, once, they compute none.  No table checks a
    reflection premise, and nothing walks a comparable pair."""
    system = build_root_system("E", 6)
    checked_premises, calls = [], []
    real_check, real_gdist = denom._check_reflection, denom.gdist

    def walked(*args):
        raise AssertionError("a comparable pair was walked")

    monkeypatch.setattr(denom, "_check_reflection",
                        lambda P, Q, i: checked_premises.append((P, i)) or real_check(P, Q, i))
    monkeypatch.setattr(denom, "gdist", lambda seq: calls.append(seq) or real_gdist(seq))
    monkeypatch.setattr(denom, "comparable_pairs", walked)
    monkeypatch.setattr(denom, "slots", walked)
    want = [(P, i) for P in all_orientations(system) for i, _ in denom._reflections(P)]
    denom._memo.cache_clear()
    try:
        if checked:
            denom.check_well_defined(system)
            assert len(calls) == 210
            assert Counter(checked_premises) == Counter(want)
        before = len(calls), len(checked_premises)
        for Q in all_orientations(system):
            _o_table(Q)
    finally:
        denom._memo.cache_clear()
    assert len(calls) - before[0] == (0 if checked else 123)
    assert len(checked_premises) == before[1]


@pytest.mark.parametrize("check_first", [False, True])
def test_each_reflection_premise_is_checked_once(monkeypatch, check_first):
    """check_well_defined is run on E6 before every table is asked, or after
    them (and the tables asked again).  It checks each reflection premise,
    (P, i) with i a sink or source of P and s_i P != P, exactly once, before
    it computes any gdist.  No table checks any, and the tables asked after
    the check compute no gdist."""
    system = build_root_system("E", 6)
    events = []
    real_check, real_gdist = denom._check_reflection, denom.gdist
    monkeypatch.setattr(denom, "_check_reflection",
                        lambda P, Q, i: events.append((P, i)) or real_check(P, Q, i))
    monkeypatch.setattr(denom, "gdist", lambda seq: events.append("gdist") or real_gdist(seq))
    quivers = list(all_orientations(system))

    def ask():
        """The events of asking every table."""
        start = len(events)
        for Q in quivers:
            _o_table(Q)
        return events[start:]

    denom._memo.cache_clear()
    try:
        tables = [] if check_first else [ask()]
        start = len(events)
        denom.check_well_defined(system)
        check = events[start:]
        tables.append(ask())
    finally:
        denom._memo.cache_clear()
    want = [(P, i) for P in quivers for i, _ in denom._reflections(P)]
    assert check[:len(want)] == want and "gdist" in check[len(want):]
    assert all(e == "gdist" for e in check[len(want):])
    assert all(e == "gdist" for table in tables for e in table)
    assert tables[-1] == []
    assert [e for e in events if e != "gdist"] == want


def test_only_the_root_walks_its_comparable_pairs(monkeypatch):
    """Asking all 64 E7 o-tables from a cold memo, running
    check_well_defined and asking them again walks the comparable pairs of
    no orientation, the root's included: the check and each table read
    their slots off the rows of Gamma_Q.  Only a
    direct ``slots`` call, as the E6 table script makes on the root, walks
    them, and it walks the root's alone."""
    system = build_root_system("E", 7)
    walked = []
    real = denom.comparable_pairs

    def counted(arq):
        walked.append(arq.quiver)
        return real(arq)

    monkeypatch.setattr(denom, "comparable_pairs", counted)
    root = next(all_orientations(system))
    denom._memo.cache_clear()
    try:
        for Q in all_orientations(system):
            _o_table(Q)
        denom.check_well_defined(system)
        for Q in all_orientations(system):
            _o_table(Q)
    finally:
        denom._memo.cache_clear()
    assert walked == []
    denom.slots(build_ar_quiver(root))
    assert walked == [root]


def test_edge_check_names_a_root_missing_from_the_reflected_class(monkeypatch):
    """A root beta of [P] whose image s_i beta the class of [Q] does not
    hold raises RootNotInWord naming s_i beta, as ``CommClass.position``
    does."""
    (P, Q), i = _reflected_a3(), 1
    cls = build_ar_quiver(Q).comm_class()
    top = Q.system.highest_root
    monkeypatch.setattr(cls, "_pos_of_root",
                        {r: k for r, k in cls._pos_of_root.items() if r != top})
    with pytest.raises(RootNotInWord, match=re.escape(f"{top} does not occur")):
        denom._check_reflection(P, Q, i)


@pytest.mark.parametrize("kind,rank", [("A", 5), ("D", 5), ("E", 6)])
def test_transport_classes_are_the_ordered_slots(kind, rank):
    """Join two comparable pairs when the reflection at a sink or source i
    carries one to the other: the pair avoids alpha_i, and s_i maps its two
    roots to a comparable pair of s_i P in the same order.  Over every
    reflection edge of every orientation, the classes of this join are
    exactly the ordered slots (i, j, p - q), which the o-tables' gdist memo
    is keyed by.  Computed from the root system's reflections, with no
    o-table."""
    system = build_root_system(kind, rank)
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = x = parent[parent[x]]
        return x

    ordered = {}
    for P in all_orientations(system):
        arq = build_ar_quiver(P)
        roots = arq.comm_class().roots
        pairs = [(a, b) for a, b, _ in comparable_pairs(arq)]
        for ab in pairs:
            ordered[P, ab] = _ordered(arq.coords, ab)
        for i in set(P.sinks() + P.sources()):
            Q = P.reflect(i)
            cls_q = build_ar_quiver(Q).comm_class()
            alpha = system.simple_root(i)
            for a, b in pairs:
                if alpha in (roots[a], roots[b]):
                    continue
                a2, b2 = (cls_q.position(system.root(system.reflect(roots[x], i)))
                          for x in (a, b))
                assert a2 < b2 and cls_q._above[a2] >> b2 & 1, (P.orientation_str(), i)
                parent[find((P, (a, b)))] = find((Q, (a2, b2)))
    classes = {}
    for node, slot in ordered.items():
        classes.setdefault(find(node), set()).add(slot)
    assert all(len(slot) == 1 for slot in classes.values())
    assert len(classes) == len(set(ordered.values()))


@pytest.mark.parametrize(
    "kind,rank",
    [("A", n) for n in range(2, 7)] + [("D", 4), ("D", 5), ("E", 6)],
)
def test_every_pair_has_its_ordered_slots_gdist(kind, rank):
    """gdist of every comparable pair of every orientation, computed on a
    new class with nothing in its cache and no memo, depends on the pair's
    ordered slot alone, and each o-table holds that value at the pair's
    slot."""
    system = build_root_system(kind, rank)
    value = {}
    for Q in all_orientations(system):
        arq = build_ar_quiver(Q)
        cls = CommClass(arq.comm_class().representative)
        table = _o_table(Q)
        for a, b, key in comparable_pairs(arq):
            g = gdist(RootSequence.from_positions(cls, (a, b)))
            slot = _ordered(arq.coords, (a, b))
            assert value.setdefault(slot, g) == g, (Q.orientation_str(), slot)
            assert table[key] == g, (Q.orientation_str(), key)


def test_cache_clear_leaves_no_memo(monkeypatch):
    """The gdist memo lives in the lru cache of _memo, one memo that the
    tables of a system share: tables asked again read it and call no
    gdist, and after _memo.cache_clear() the same tables call gdist again,
    as many times as from cold."""
    Q = A3_MONO()
    calls = []
    real = denom.gdist
    monkeypatch.setattr(denom, "gdist", lambda seq: calls.append(seq) or real(seq))
    denom._memo.cache_clear()
    try:
        first = [_o_table(R) for R in (Q, Q.rev())]
        n = len(calls)
        assert n > 0 and denom._memo.cache_info().currsize == 1
        assert [_o_table(R) for R in (Q, Q.rev())] == first
        assert len(calls) == n
        denom._memo.cache_clear()
        assert [_o_table(R) for R in (Q, Q.rev())] == first
        assert len(calls) == 2 * n
    finally:
        denom._memo.cache_clear()


def test_e6_tables_do_not_depend_on_query_order():
    """The 32 E6 o-tables, asked in ``all_orientations`` order and in the
    reverse order from cleared caches (so the memo fills in another order),
    are equal, from a cold memo and from one filled by check_well_defined."""
    system = build_root_system("E", 6)
    quivers = list(all_orientations(system))
    for checked in (False, True):
        answers = []
        for order in (quivers, quivers[::-1]):
            denom._memo.cache_clear()
            arquiver.build_ar_quiver.cache_clear()
            if checked:
                denom.check_well_defined(system)
            answers.append({Q: _o_table(Q) for Q in order})
        assert answers[0] == answers[1]
    denom._memo.cache_clear()


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
