import random
from fractions import Fraction

import numpy
import pytest
import sympy

from itergcd import numfield
from itergcd.errors import DegenerateInputError, LIMITS, ResourceLimitError
from itergcd.numfield import (
    NOT_A_ROOT_OF_UNITY,
    Jet,
    NumberField,
    NumberFieldElem,
    char_poly_resultant,
    identity_jet,
    jet_at,
    jet_compose,
    min_poly,
    nf_eval,
    nf_invert,
    poly_complex_roots,
    root_of_unity_order,
)
from itergcd.polys import Poly

X = Poly.x()
SQRT2 = NumberField(X ** 2 - 2)
GAUSS = NumberField(X ** 2 + 1)


def random_elem(field, rng, span=6):
    rep = Poly([Fraction(rng.randint(-span, span), rng.randint(1, 4))
                for _ in range(field.degree)])
    return field.element(rep)


def test_field_construction_rejects_reducible():
    with pytest.raises(DegenerateInputError):
        NumberField(X ** 2 - 1)
    with pytest.raises(DegenerateInputError):
        NumberField(Poly.const(3))


def test_degree_one_generator_is_the_root():
    f = NumberField(X - Poly.const(Fraction(3, 2)))
    a = f.generator()
    assert a.is_rational() and a.as_fraction() == Fraction(3, 2)


def test_field_axioms_random():
    rng = random.Random(21)
    cube = NumberField(X ** 3 - 2)
    for field in (SQRT2, cube):
        for _ in range(40):
            a = random_elem(field, rng)
            b = random_elem(field, rng)
            c = random_elem(field, rng)
            assert (a + b) * c == a * c + b * c
            assert a - a == field.zero()
            assert a * field.one() == a
            if not b.is_zero():
                assert (a / b) * b == a
        g = field.generator()
        assert nf_eval(field.modulus, g).is_zero()


def test_nf_invert_and_zero_division():
    rng = random.Random(22)
    for _ in range(40):
        a = random_elem(SQRT2, rng)
        if a.is_zero():
            continue
        assert a * nf_invert(a) == SQRT2.one()
    with pytest.raises(ZeroDivisionError):
        nf_invert(SQRT2.zero())


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(DegenerateInputError):
        SQRT2.generator() + GAUSS.generator()


def test_min_poly_known_values():
    r2 = SQRT2.generator()
    assert min_poly(r2) == X ** 2 - 2
    assert min_poly(r2 + 1) == X ** 2 - Poly.const(2) * X - 1
    assert min_poly(SQRT2.element(Fraction(5, 3))) == X - Poly.const(Fraction(5, 3))
    assert min_poly(GAUSS.generator()) == X ** 2 + 1
    golden = NumberField(X ** 2 - X - 1)
    assert min_poly(golden.generator() * 2 - 1) == X ** 2 - 5


def test_min_poly_vs_char_poly_random():
    # the characteristic polynomial is the minimal polynomial raised to
    # n / deg, computed by a resultant rather than linear algebra
    rng = random.Random(23)
    quart = NumberField(X ** 4 - X - 1)
    for field in (SQRT2, quart):
        for _ in range(15):
            a = random_elem(field, rng, span=3)
            m = min_poly(a)
            assert field.degree % m.degree == 0
            assert char_poly_resultant(a) == m ** (field.degree // m.degree)


def test_min_poly_vs_sympy():
    x = sympy.Symbol("x")
    for elem, squanch in (
        (SQRT2.generator(), sympy.sqrt(2)),
        (SQRT2.generator() + 1, sympy.sqrt(2) + 1),
        (GAUSS.generator() * 2, 2 * sympy.I),
        (SQRT2.generator() / 2 + Fraction(1, 3), sympy.sqrt(2) / 2 + sympy.Rational(1, 3)),
    ):
        ours = min_poly(elem)
        theirs = sympy.minimal_polynomial(squanch, x)
        theirs = sympy.Poly(theirs, x).monic()
        cs = [Fraction(c.numerator, c.denominator)
              for c in reversed(theirs.all_coeffs())]
        assert ours == Poly(cs)


def test_poly_complex_roots_vs_numpy_random():
    rng = random.Random(24)
    for _ in range(60):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            continue
        f = Poly(coeffs)
        ours = sorted(poly_complex_roots(f), key=lambda z: (z.real, z.imag))
        theirs = sorted(numpy.roots(list(reversed(coeffs))),
                        key=lambda z: (z.real, z.imag))
        assert len(ours) == len(theirs)
        for z, w in zip(ours, theirs):
            assert abs(z - w) < 1e-7 * (1 + abs(w))


def test_poly_complex_roots_conjugate_pairing():
    roots = poly_complex_roots((X - 1) * (X ** 2 + 1))
    assert roots[0] == 1.0
    assert roots[1].conjugate() == roots[2]
    with pytest.raises(DegenerateInputError):
        poly_complex_roots(Poly.const(5))


def test_root_of_unity_orders():
    assert root_of_unity_order(GAUSS.generator()) == 4
    assert root_of_unity_order(GAUSS.element(-1)) == 2
    assert root_of_unity_order(GAUSS.element(1)) == 1
    assert root_of_unity_order(GAUSS.element(2)) == NOT_A_ROOT_OF_UNITY
    assert root_of_unity_order(SQRT2.generator()) == NOT_A_ROOT_OF_UNITY
    hexa = NumberField(X ** 2 - X + 1)      # primitive 6th root
    assert root_of_unity_order(hexa.generator()) == 6
    penta = NumberField(X ** 4 + X ** 3 + X ** 2 + X + 1)
    assert root_of_unity_order(penta.generator()) == 5
    # |z| = 1 but not a root of unity (Salem-like quotient): (3+4i)/5
    z = GAUSS.element(Poly([Fraction(3, 5), Fraction(4, 5)]))
    assert root_of_unity_order(z) == NOT_A_ROOT_OF_UNITY


def test_root_of_unity_order_is_exact(monkeypatch):
    # the verdict never reads a float: with the root finder gone, every
    # order and every negative still comes out of the exact search
    def no_floats(f):
        raise AssertionError("root_of_unity_order called poly_complex_roots")
    monkeypatch.setattr(numfield, "poly_complex_roots", no_floats)
    for modulus in (X ** 2 - X - 1, X ** 14 - X - 1):
        unit = NumberField(modulus).generator()
        assert root_of_unity_order(unit) == NOT_A_ROOT_OF_UNITY
    zeta8 = NumberField(X ** 4 + 1).generator()
    assert root_of_unity_order(zeta8 ** 2) == 4
    cyclotomic = {15: X ** 8 - X ** 7 + X ** 5 - X ** 4 + X ** 3 - X + 1,
                  17: sum((X ** i for i in range(1, 17)), Poly.const(1))}
    for order, modulus in cyclotomic.items():
        assert root_of_unity_order(NumberField(modulus).generator()) == order


def test_root_of_unity_order_above_360():
    # 96 = phi(390) is the least degree of a root of unity of order > 360
    x = sympy.symbols("x")
    phi390 = sympy.Poly(sympy.cyclotomic_poly(390, x), x).all_coeffs()
    field = NumberField(Poly([int(c) for c in reversed(phi390)]), check=False)
    assert root_of_unity_order(field.generator()) == 390


def test_root_of_unity_order_refuses_zero():
    with pytest.raises(DegenerateInputError):
        root_of_unity_order(GAUSS.zero())


def test_jet_at_matches_shift_coefficients():
    # independent oracle: the Taylor coefficients of f at a rational point a
    # are exactly the coefficients of f(x + a)
    rng = random.Random(25)
    Q = NumberField.rationals()
    for _ in range(60):
        f = Poly([Fraction(rng.randint(-9, 9)) for _ in range(rng.randint(1, 7))])
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        K = rng.randint(1, 10)
        jet = jet_at(f, Q.element(a), K)
        shifted = f.shift(a)
        for i in range(K):
            assert jet.coeffs[i].as_fraction() == shifted[i]


def test_jet_at_algebraic_center_via_derivatives():
    r2 = SQRT2.generator()
    f = X ** 3 - Poly.const(2) * X + 1
    jet = jet_at(f, r2, 4)
    fact = 1
    d = f
    for i in range(4):
        assert jet.coeffs[i] == nf_eval(d, r2) / fact
        d = d.derivative()
        fact *= i + 1


def test_jet_at_order_limits():
    Q = NumberField.rationals()
    with pytest.raises(DegenerateInputError):
        jet_at(X, Q.element(0), 0)
    with pytest.raises(ResourceLimitError):
        jet_at(X, Q.element(0), LIMITS.jet_order + 1)


def test_jet_compose_vs_full_expansion():
    rng = random.Random(26)
    Q = NumberField.rationals()
    for _ in range(50):
        f = Poly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 5))])
        g = Poly([Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(2, 5))])
        a = Q.element(Fraction(rng.randint(-3, 3)))
        K = rng.randint(2, 8)
        inner = jet_at(g, a, K)
        outer = jet_at(f, Q.element(g.evaluate(a.as_fraction())), K)
        composed = jet_compose(outer, inner)
        direct = jet_at(f.compose(g), a, K)
        assert composed == direct


def test_jet_compose_center_mismatch():
    Q = NumberField.rationals()
    inner = jet_at(X + 1, Q.element(0), 4)
    outer = jet_at(X ** 2, Q.element(0), 4)   # expansion at 0, value is 1
    with pytest.raises(DegenerateInputError):
        jet_compose(outer, inner)


def test_identity_jet_neutral_for_composition():
    Q = NumberField.rationals()
    a = Q.element(Fraction(1, 2))
    f = X ** 2 + 1
    jf = jet_at(f, a, 5)
    ident = identity_jet(a, 5)
    assert jet_compose(jf, ident) == jf


def test_jet_ring_operations():
    Q = NumberField.rationals()
    a = Q.element(2)
    j1 = jet_at(X ** 2, a, 5)
    j2 = jet_at(X + 1, a, 5)
    prod = j1 * j2
    direct = jet_at((X ** 2) * (X + 1), a, 5)
    assert prod == direct
    assert (j1 - j1).first_nonzero() is None
    d = jet_at(X ** 2 - Poly.const(4), a, 5)
    assert d.first_nonzero() == 1
    assert d.first_nonzero(start=2) == 2
