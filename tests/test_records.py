"""The library's value records keep what they had as frozen dataclasses:
equality and hash over their compared fields, their repr, immutability and
their validation.  And a start of the CLI imports none of the heavy stdlib
modules that the dataclass machinery and ``importlib.resources`` pull in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rootseq.arquiver import BadOrientation, DynkinQuiver, build_ar_quiver
from rootseq.cli import fixture_dir
from rootseq.denom import DenominatorEntry, DistancePolynomial
from rootseq.orders import RootSequence
from rootseq.rootsys import CartanDatum, PosRoot, build_root_system
from rootseq.words import CommClass, LetterOutOfRange, ReducedWord

ROOT = Path(__file__).resolve().parents[1]
A2 = build_root_system("A", 2)
WORD = ReducedWord((1, 2, 1), A2)
CLS = CommClass(WORD)
POLY = DistancePolynomial(((2, 1), (4, 2)))

# type -> (its compared fields by name, the record's repr)
RECORDS = {
    CartanDatum: (
        dict(kind="A", rank=2, edges=((1, 2),), cartan_matrix=((2, -1), (-1, 2))),
        "CartanDatum(kind='A', rank=2, edges=((1, 2),), "
        "cartan_matrix=((2, -1), (-1, 2)))",
    ),
    PosRoot: (dict(coeffs=(1, 0)), "PosRoot(coeffs=(1, 0))"),
    ReducedWord: (dict(letters=(1, 2, 1), system=A2), "s1.s2.s1"),
    DynkinQuiver: (
        dict(system=A2, arrows=frozenset({(2, 1)})),
        "DynkinQuiver(system=RootSystem(A2, N=3), arrows=frozenset({(2, 1)}))",
    ),
    RootSequence: (
        dict(cls=CLS, counts=(1, 0, 2)),
        f"RootSequence(cls={CLS!r}, counts=(1, 0, 2))",
    ),
    DistancePolynomial: (
        dict(factors=((2, 1), (4, 2))),
        "DistancePolynomial(factors=((2, 1), (4, 2)))",
    ),
    DenominatorEntry: (
        dict(k=1, l=2, poly=POLY, correction=True, conjectural=False),
        "DenominatorEntry(k=1, l=2, poly=DistancePolynomial(factors=((2, 1), "
        "(4, 2))), correction=True, conjectural=False)",
    ),
}


@pytest.mark.parametrize("kind", RECORDS, ids=lambda t: t.__name__)
def test_record_equality_hash_repr_and_immutability(kind):
    """Equal records built apart hash as the tuple of their compared fields,
    as a frozen dataclass did, so every set and dict keeps its order; no
    field can be set or deleted."""
    fields, text = RECORDS[kind]
    rec, again = kind(*fields.values()), kind(**fields)
    assert rec == again and rec is not again and not rec != again
    assert hash(rec) == hash(again) == hash(tuple(fields.values()))
    assert repr(rec) == text
    for name, value in fields.items():
        assert getattr(rec, name) is value
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_root_sequence_compares_class_and_counts_only():
    """The derived support mask is in neither equality, hash nor repr; the
    same counts over another class object of the same word are unequal."""
    seq = RootSequence(CLS, (1, 0, 2))
    assert seq.support_mask == 0b101 and "support_mask" not in repr(seq)
    a, _, b = CLS.roots
    assert seq == RootSequence.from_roots(CLS, (b, a, b))
    assert seq != RootSequence(CommClass(WORD), (1, 0, 2))
    assert seq != RootSequence(CLS, (1, 0, 1))
    assert seq != (CLS, (1, 0, 2))


def test_record_validation():
    with pytest.raises(LetterOutOfRange):
        ReducedWord((1, 3), A2)
    with pytest.raises(BadOrientation):
        DynkinQuiver(A2, frozenset())
    with pytest.raises(BadOrientation):
        DynkinQuiver(A2, frozenset({(1, 2), (2, 1)}))
    with pytest.raises(ValueError, match="class length"):
        RootSequence(CLS, (1, 0))
    with pytest.raises(ValueError, match="negative"):
        RootSequence(CLS, (1, -1, 0))


def test_reduced_word_length_is_its_letters():
    assert len(WORD) == 3
    assert not ReducedWord((), A2)
    assert WORD != ((1, 2, 1), A2)


def test_pos_root_order_is_the_coefficient_order():
    roots = build_root_system("D", 4).positive_roots
    assert sorted(roots) == sorted(roots, key=lambda r: r.coeffs)
    assert PosRoot((0, 1)) < PosRoot((1, 0)) <= PosRoot((1, 0)) < PosRoot((1, 1))


def test_dynkin_quiver_is_an_lru_cache_key():
    """Two equal orientations built apart share one cached AR quiver."""
    Q = DynkinQuiver.from_arrows(A2, [(1, 2)])
    assert build_ar_quiver(Q) is build_ar_quiver(DynkinQuiver(A2, frozenset({(1, 2)})))
    assert build_ar_quiver(Q.rev()) is not build_ar_quiver(Q)


def test_fixture_dir(monkeypatch, tmp_path):
    """ARQ_FIXTURE_DIR comes first; without it, the fixtures shipped next to
    the package's modules."""
    monkeypatch.setenv("ARQ_FIXTURE_DIR", str(tmp_path))
    assert fixture_dir() == str(tmp_path)
    monkeypatch.delenv("ARQ_FIXTURE_DIR")
    assert sorted(os.listdir(fixture_dir())) == ["e6.json", "e7.json", "e8.json"]


def test_cli_start_imports_no_heavy_modules():
    """Under -S, so that no site hook has imported them first, importing the
    CLI leaves dataclasses, inspect, ast and importlib.resources unloaded."""
    heavy = ("dataclasses", "inspect", "ast", "importlib.resources")
    code = f"import sys, rootseq.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == []
