"""The report and value records: immutable named tuples, equal by value."""

from fractions import Fraction

import pytest

from itergcd.dynamics import OrbitRecord, Word
from itergcd.emit import emit
from itergcd.errors import DegenerateInputError, LIMITS, Limits
from itergcd.factoring import FactorList, factor_irreducible
from itergcd.gcdlab import (
    GcdGridReport, SuiteReport, SuiteRow, gcd_grid, reference_suite,
)
from itergcd.heights import HeightValue, ProbeReport, ProbeRow
from itergcd.multiplicity import MultiplicityCertificate, multiplicity_bound
from itergcd.numfield import NumberField
from itergcd.polys import Poly

X = Poly.x()
Q = NumberField.rationals()


def _records():
    grid = gcd_grid(X ** 2 - 2, X ** 2 - 1, Poly.zero(), 2)
    cert = multiplicity_bound(X ** 2 - 2, Poly.zero(), NumberField(X ** 2 - 2))
    row = ProbeRow(1, 2, 0.5, 1e-10, None)
    return [
        OrbitRecord(Q.element(0), (Q.element(0),), 0, 1),
        Word.from_letters("FFG"),
        factor_irreducible(X ** 2 - 1),
        grid,
        SuiteRow("family", 1, "claim", True),
        reference_suite(),
        HeightValue(0.0, 0.0),
        row,
        ProbeReport("x^2", "0", (row,)),
        cert,
    ]


RECORD_TYPES = {OrbitRecord, Word, FactorList, GcdGridReport, SuiteRow,
                SuiteReport, HeightValue, ProbeRow, ProbeReport,
                MultiplicityCertificate}


def test_every_record_is_immutable():
    records = _records()
    assert {type(r) for r in records} == RECORD_TYPES
    for rec in records:
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
        # no instance dict either: a new attribute cannot be added
        with pytest.raises(AttributeError):
            rec.extra = None


def test_factor_lists_and_words_hash_and_compare_by_value():
    a = factor_irreducible(2 * X ** 3 - 2 * X)
    b = FactorList(Fraction(2), ((X - 1, 1), (X, 1), (X + 1, 1)))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, factor_irreducible(X ** 2 - 1)}) == 2
    assert a != FactorList(Fraction(1), b.factors)
    w = Word.from_letters("FFGF")
    assert w == Word((("F", 2), ("G", 1), ("F", 1)))
    seen = {w: "first"}
    assert seen[Word.from_letters("FFGF")] == "first"
    assert Word.from_letters("FGF") not in seen
    assert len({Word.from_letters(s) for s in ("FG", "FG", "GF")}) == 2


def test_a_replaced_word_is_checked_like_a_new_one():
    w = Word.from_letters("FG")
    assert w._replace(runs=(("G", 3),)) == Word.from_letters("GGG")
    for runs in ((("F", 1), ("F", 1)), (("H", 1),), (("F", 0),)):
        with pytest.raises(DegenerateInputError):
            w._replace(runs=runs)
        with pytest.raises(DegenerateInputError):
            Word._make((runs,))


def test_row_fields_are_the_csv_headers_in_order():
    assert ProbeRow._fields == ("n", "factor_degree", "height", "error",
                                "predicted")
    assert SuiteRow._fields == ("family", "n", "claim", "ok")
    row = ProbeRow(1, 2, 0.5, 1e-10, None)
    probe = emit(ProbeReport("x^2", "0", (row,)), "csv").decode()
    suite = emit(reference_suite(), "csv").decode()
    assert probe.splitlines() == ["n,factor_degree,height,error,predicted",
                                  "1,2,0.5,1e-10,"]
    assert suite.splitlines()[0] == "family,n,claim,ok"


def test_a_limits_override_leaves_the_defaults(monkeypatch):
    default = Limits.max_degree
    monkeypatch.setattr(LIMITS, "max_degree", 8)
    assert LIMITS.max_degree == 8
    assert Limits.max_degree == Limits().max_degree == default == 65536
    fresh = Limits()
    fresh.gcd_primes = 3
    assert LIMITS.gcd_primes == Limits().gcd_primes == 4096
