import math
from fractions import Fraction

import pytest

from itergcd.errors import DegenerateInputError, EmbeddingError
from itergcd.heights import (
    HeightValue,
    canonical_height,
    special_probe,
    weil_height,
    weil_height_alg,
)
from itergcd.numfield import NumberField, poly_complex_roots
from itergcd.polys import Poly

X = Poly.x()
Q = NumberField.rationals()


def test_weil_height_rationals_exact():
    assert weil_height(0).value == 0.0
    assert weil_height(1).value == 0.0
    assert weil_height(-1).value == 0.0
    assert weil_height(2).value == math.log(2)
    assert weil_height(Fraction(1, 2)).value == math.log(2)
    assert weil_height(Fraction(-3, 7)).value == math.log(7)
    assert weil_height(Fraction(22, 7)).value == math.log(22)
    assert weil_height(2).error_bound == 0.0


def test_weil_height_not_reduced_input():
    # Fraction normalizes, so h(4/2) = h(2)
    assert weil_height(Fraction(4, 2)).value == math.log(2)


def test_weil_height_alg_sqrt2():
    r2 = NumberField(X ** 2 - 2).generator()
    h = weil_height_alg(r2)
    assert abs(h.value - math.log(2) / 2) <= 1e-9


def test_weil_height_alg_degree_256_root():
    # the 2^8-th root of 2 has height (log 2)/256
    f = X ** 256 - 2
    field = NumberField(f, check=False)   # Eisenstein at 2, skip the check
    h = weil_height_alg(field.generator())
    assert abs(h.value - math.log(2) / 256) <= 1e-9


def test_weil_height_alg_golden_ratio():
    phi = (1 + math.sqrt(5)) / 2
    g = NumberField(X ** 2 - X - 1).generator()
    h = weil_height_alg(g)
    assert abs(h.value - math.log(phi) / 2) <= 1e-9
    # units of small height: h(1 + sqrt2) = log(1 + sqrt2)/2
    r2 = NumberField(X ** 2 - 2).generator()
    h2 = weil_height_alg(r2 + 1)
    assert abs(h2.value - math.log(1 + math.sqrt(2)) / 2) <= 1e-9


def test_weil_height_alg_rational_element_delegates():
    a = NumberField(X ** 2 - 2).element(Fraction(3, 5))
    assert weil_height_alg(a).value == math.log(5)


def test_weil_height_alg_roots_of_unity_zero():
    i = NumberField(X ** 2 + 1).generator()
    assert weil_height_alg(i).value <= 1e-12


def test_canonical_height_squaring_map():
    # for x^2 the canonical height is the ordinary height
    h = canonical_height(X ** 2, Q.element(2))
    assert abs(h.value - math.log(2)) <= h.error_bound
    assert h.error_bound <= 1e-3


def test_canonical_height_preperiodic_is_exact_zero():
    h = canonical_height(X ** 2 - 1, Q.element(0))
    assert h.value == 0.0 and h.error_bound == 0.0
    assert canonical_height(X ** 2, Q.element(1)).value == 0.0
    # preperiodic algebraic point: sqrt2 under x^2 - 2 lands on 2 -> 2
    r2 = NumberField(X ** 2 - 2).generator()
    assert canonical_height(X ** 2 - 2, r2).value == 0.0


def test_canonical_height_pinned_value():
    # x^2 + 1 at 1: value pinned from an independent high-precision run
    h = canonical_height(X ** 2 + 1, Q.element(1), steps=24)
    assert abs(h.value - 0.407354522739) <= 1e-3
    assert abs(h.value - 0.407354522739) <= h.error_bound


def test_canonical_height_error_shrinks_with_steps():
    errs = [canonical_height(X ** 2 + 1, Q.element(1), steps=s).error_bound
            for s in (4, 8, 12)]
    assert errs[0] > errs[1] > errs[2]


def test_canonical_height_functoriality():
    # h-hat(f(x)) = d * h-hat(x), compared within the summed error bounds
    f = X ** 2 + 1
    x = Q.element(Fraction(1, 2))
    hx = canonical_height(f, x, steps=16)
    hfx = canonical_height(f, Q.element(f.evaluate(Fraction(1, 2))), steps=16)
    tol = hfx.error_bound + 2 * hx.error_bound
    assert abs(hfx.value - 2 * hx.value) <= tol
    with pytest.raises(DegenerateInputError):
        canonical_height(X + 1, Q.element(0))


def test_special_probe_decay():
    # roots of (x^2+1)^n - 0 fall on the orbit of 0 after n steps, so the
    # true heights are exactly h-hat(0)/2^n and the fitted prediction from
    # the first row should track the later ones closely
    rows = special_probe(X ** 2 + 1, Poly.zero(), 1, 6)
    assert [r.n for r in rows] == [1, 2, 3, 4, 5, 6]
    for prev, cur in zip(rows, rows[1:]):
        assert cur.height < prev.height
        assert cur.predicted is not None
        assert abs(cur.height - cur.predicted) <= 1e-4 * cur.predicted + cur.error


def test_special_probe_power_map_exact():
    # f = x^2, c = 2: roots of x^(2^n) = 2 have height (log 2)/2^n exactly
    rows = special_probe(X ** 2, Poly.const(2), 1, 8)
    for r in rows:
        assert abs(r.height - math.log(2) / 2 ** r.n) <= 1e-9
    with pytest.raises(DegenerateInputError):
        special_probe(X ** 2, Poly.const(2), 3, 1)


def test_height_value_float_protocol():
    assert float(HeightValue(1.5, 0.1)) == 1.5


@pytest.mark.xfail(strict=True, reason="open defect, ROADMAP item 4: "
                   "poly_complex_roots drops non-finite iterates")
def test_weil_height_alg_refuses_lost_roots():
    # the start radius 1 + max|c| is about 2e8 here, so z^60 overflows and
    # every iterate turns NaN; numpy gives log M(P) = 19.11
    P = X ** 60 - 2 * (10000 * X - 1) ** 2
    with pytest.raises(EmbeddingError):
        poly_complex_roots(P)
    with pytest.raises(EmbeddingError):
        weil_height_alg(NumberField(P, check=False).generator())
