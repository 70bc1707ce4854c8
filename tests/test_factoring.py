import random
from fractions import Fraction

import pytest
import sympy

from itergcd import factoring
from itergcd.errors import LIMITS, ResourceLimitError
from itergcd.factoring import (
    FactorList,
    factor_irreducible,
    is_irreducible,
    squarefree_decomposition,
)
from itergcd.polys import Poly


X = Poly.x()


def random_poly(rng, max_deg=5, span=9):
    coeffs = [Fraction(rng.randint(-span, span)) for _ in range(rng.randint(1, max_deg + 1))]
    f = Poly(coeffs)
    return f if not f.is_zero() else Poly.const(1)


def to_sympy(f: Poly):
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(f.coeffs))
    return sympy.Poly(expr, x, domain=sympy.QQ)


def test_factor_known_products():
    f = (X - 2) ** 3 * (X ** 2 + 1) * Poly.const(Fraction(3, 2))
    fl = factor_irreducible(f)
    assert fl.content == Fraction(3, 2)
    assert fl.factors == ((X - 2, 3), (X ** 2 + 1, 1))
    assert fl.expand() == f


def test_factor_pure_power_of_x():
    fl = factor_irreducible(X ** 4 * Poly.const(-5))
    assert fl.content == -5
    assert fl.factors == ((X, 4),)


def test_factor_splits_off_the_power_of_x_before_yun(monkeypatch):
    # 5x^7 is x^7 times a constant: no squarefree gcd is needed
    calls = []
    real = factoring.poly_gcd
    monkeypatch.setattr(factoring, "poly_gcd",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    fl = factor_irreducible(X ** 7 * Poly.const(5))
    assert fl.content == 5 and fl.factors == ((X, 7),)
    assert calls == []


def test_factor_constant_and_zero():
    fl = factor_irreducible(Poly.const(Fraction(7, 3)))
    assert fl.content == Fraction(7, 3) and fl.factors == ()
    with pytest.raises(ValueError):
        factor_irreducible(Poly.zero())


def test_factor_roundtrip_random():
    rng = random.Random(11)
    for _ in range(120):
        f = random_poly(rng)
        fl = factor_irreducible(f)
        assert fl.expand() == f
        for p, e in fl.factors:
            assert p.monic() == p
            assert e >= 1
            assert is_irreducible(p)


def test_factor_matches_sympy_random():
    rng = random.Random(12)
    for _ in range(60):
        f = random_poly(rng, max_deg=6) * X ** rng.randrange(4)
        if f.degree < 1:
            continue
        ours = {(tuple(p.coeffs), e) for p, e in factor_irreducible(f).factors}
        _, sfacs = to_sympy(f).factor_list()
        theirs = set()
        for sp, e in sfacs:
            sp = sp.monic()
            cs = [Fraction(c.numerator, c.denominator) for c in reversed(sp.all_coeffs())]
            theirs.add((tuple(cs), e))
        assert ours == theirs


def test_squarefree_decomposition_structure():
    f = (X - 1) ** 2 * (X + 3) * Poly.const(4)
    content, parts = squarefree_decomposition(f)
    assert content == 4
    assert parts == [(X + 3, 1), (X - 1, 2)]


def test_squarefree_random_reconstruction():
    rng = random.Random(13)
    for _ in range(80):
        f = random_poly(rng, max_deg=4)
        g = f * random_poly(rng, max_deg=2) ** 2
        if g.degree < 1:
            continue
        content, parts = squarefree_decomposition(g)
        back = Poly.const(content)
        for a, i in parts:
            assert poly_is_squarefree(a)
            back = back * a ** i
        assert back == g


def poly_is_squarefree(f: Poly) -> bool:
    from itergcd.polys import poly_gcd
    return poly_gcd(f, f.derivative()).degree == 0


def test_is_irreducible_cases():
    assert is_irreducible(X ** 2 + 1)
    assert is_irreducible(X ** 2 - 2)
    assert is_irreducible(X ** 3 - 2)          # Eisenstein at 2
    assert is_irreducible(X ** 4 + X ** 3 + X ** 2 + X + 1)  # 5th cyclotomic
    assert not is_irreducible(X ** 2 - 1)
    assert not is_irreducible(X ** 2)
    assert not is_irreducible(Poly.const(3))
    assert not is_irreducible((X ** 2 + 1) * (X ** 2 + 2))


def test_factor_swinnerton_dyer_like():
    # minimal polynomial of sqrt(2) + sqrt(3): degree 4, irreducible, but
    # reducible modulo every prime; exercises the recombination search
    f = X ** 4 - Poly.const(10) * X ** 2 + Poly.const(1)
    assert is_irreducible(f)


def test_recombination_subsets_are_capped(monkeypatch):
    # both factors split mod the chosen prime: 3 modular factors, and the
    # third subset tried is the first true factor
    f = (X ** 4 + 1) * (X ** 4 + 2)
    monkeypatch.setattr(LIMITS, "recombination_subsets", 2)
    with pytest.raises(ResourceLimitError):
        factor_irreducible(f)
    monkeypatch.setattr(LIMITS, "recombination_subsets", 3)
    assert {g.coeffs for g, _ in factor_irreducible(f).factors} == \
        {(X ** 4 + 1).coeffs, (X ** 4 + 2).coeffs}
