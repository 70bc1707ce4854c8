"""Edge inputs on the general route.

A zero or constant polynomial, n = 0, a rational field element and a
degree-1 polynomial have no branches of their own in the library: the code
written for the general case answers them.  These tests pin those answers.
"""

from fractions import Fraction

import pytest

from itergcd.dynamics import compositional_power_check
from itergcd.errors import DegenerateInputError
from itergcd.factoring import FactorList, factor_irreducible, is_irreducible
from itergcd.modular import zx_resultant
from itergcd.numfield import (
    NOT_A_ROOT_OF_UNITY,
    NumberField,
    poly_complex_roots,
    root_of_unity_order,
)
from itergcd.polys import (
    Poly,
    iterate,
    poly_gcd,
    poly_gcd_subresultant,
    resultant,
)

X = Poly.x()
ZERO = Poly.zero()
THIRD = Fraction(1, 3)

FIELDS = {
    "Q": NumberField.rationals(),
    "Q(sqrt 2)": NumberField(X ** 2 - 2),
    "cubic": NumberField(X ** 3 - X * Fraction(1, 2) - THIRD),
}
ORDERS = [(1, 1), (-1, 2), (2, NOT_A_ROOT_OF_UNITY),
          (-2, NOT_A_ROOT_OF_UNITY), (Fraction(1, 2), NOT_A_ROOT_OF_UNITY),
          (-THIRD, NOT_A_ROOT_OF_UNITY)]


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("q, order", ORDERS)
def test_root_of_unity_order_of_a_rational(name, q, order):
    assert root_of_unity_order(FIELDS[name].element(q)) == order


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_root_of_unity_order_refuses_zero(name):
    with pytest.raises(DegenerateInputError):
        root_of_unity_order(FIELDS[name].element(0))


@pytest.mark.parametrize("q", [Fraction(-3, 2), Fraction(7)])
def test_a_nonzero_constant_factors_to_its_content(q):
    assert factor_irreducible(Poly.const(q)) == FactorList(q, ())
    assert not is_irreducible(Poly.const(q))
    assert compositional_power_check(Poly.const(q), X ** 2 - 2) == "none"


def test_zero_is_not_factored():
    with pytest.raises(ValueError):
        factor_irreducible(ZERO)
    assert not is_irreducible(ZERO)
    assert compositional_power_check(ZERO, X ** 2 - 2) == "none"
    assert compositional_power_check(ZERO, X ** 3 + X) == "none"


@pytest.mark.parametrize("gcd", [poly_gcd, poly_gcd_subresultant])
def test_gcd_with_zero_operands(gcd):
    f = X ** 3 * Fraction(-2, 3) + X * Fraction(1, 5) - 7
    for a, b in [(f, ZERO), (ZERO, f)]:
        g = gcd(a, b)
        assert g == f.monic()
        assert g.int_form() == f.monic().int_form()
    for c in (Fraction(-3, 2), Fraction(7)):
        assert gcd(ZERO, Poly.const(c)) == Poly.const(1)
        assert gcd(Poly.const(c), ZERO) == Poly.const(1)
    assert gcd(ZERO, ZERO).is_zero()


@pytest.mark.parametrize("f", [ZERO, Poly.const(5), X * THIRD + 1,
                               X ** 2 - 2])
def test_iterate_zero_times_is_x(f):
    out = iterate(f, 0)
    assert out == X and out.int_form() == ([0, 1], 1)


@pytest.mark.parametrize("a", [ZERO, Poly.const(Fraction(-5, 6)),
                               X * THIRD + Fraction(1, 2),
                               X ** 2 * Fraction(4, 9) - 2])
def test_divmod_by_a_higher_degree_is_zero_and_a(a):
    b = X ** 3 * Fraction(2, 7) - X + Fraction(1, 5)
    quo, rem = divmod(a, b)
    assert quo.is_zero() and quo.int_form() == ([], 1)
    assert rem == a and rem.int_form() == a.int_form()
    assert a // b == ZERO and a % b == a


@pytest.mark.parametrize("a", [ZERO, Poly.const(Fraction(3, 4)),
                               X ** 2 * Fraction(1, 6) - X * Fraction(5, 4) + 7])
def test_adding_zero(a):
    for s in (a + ZERO, a - ZERO, ZERO + a, a + 0, a - 0, 0 + a):
        assert s == a and s.int_form() == a.int_form()
    assert ZERO - a == -a and (ZERO - a).int_form() == (-a).int_form()


def test_resultant_with_constant_operands():
    g = X ** 3 + X * Fraction(1, 2)
    assert resultant(Poly.const(Fraction(2, 3)), g) == Fraction(8, 27)
    assert resultant(g, Poly.const(Fraction(2, 3))) == Fraction(8, 27)
    assert resultant(Poly.const(-5), X ** 2 - 2) == 25
    assert resultant(Poly.const(-5), Poly.const(Fraction(1, 7))) == 1
    assert resultant(Poly.const(3), ZERO) == 0


@pytest.mark.parametrize("f, g, want", [
    ([-3], [1, 0, 1], 9),
    ([-3], [0, 1], -3),
    ([2, 0, 0, 1], [-5], -125),
    ([5], [7], 1),
    ([-1], [4], 1),
    ([2 ** 200 + 1], [1, -3, 0, 0, 0, 2], (2 ** 200 + 1) ** 5),
    ([3, 1, 4, 1], [-(2 ** 90 + 7)], -(2 ** 90 + 7) ** 3),
    ([], [5], 0),
    ([5], [], 0),
])
def test_zx_resultant_with_a_constant(f, g, want):
    assert zx_resultant(f, g) == want


@pytest.mark.parametrize("c0, c1", [
    (2, 3), (0, 1), (Fraction(-1, 7), Fraction(1, 5)), (-(10 ** 200), 7),
    (-(10 ** 400 + 1), 10 ** 395), (Fraction(3, 10 ** 300), -1),
])
def test_complex_root_of_a_linear_polynomial(c0, c1):
    (z,) = poly_complex_roots(Poly([c0, c1]))
    want = -Fraction(c0) / Fraction(c1)
    assert abs(z - float(want)) <= 1e-12 * abs(float(want))
