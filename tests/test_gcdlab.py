from fractions import Fraction

import pytest

from itergcd.errors import DegenerateInputError
from itergcd.gcdlab import (
    NO_SOLUTION,
    gcd_grid,
    gcd_iterates,
    linear_common_root,
    linear_normal_form,
    reference_suite,
)
from itergcd.numfield import NumberField
from itergcd.polys import Poly, iterate, poly_gcd

X = Poly.x()


def test_gcd_iterates_worked_cells():
    # f = 2x, g = x + 1, c = x^2
    f, g, c = 2 * X, X + 1, X ** 2
    assert gcd_iterates(f, g, c, 1, 2) == X - 2
    assert gcd_iterates(f, g, c, 1, 1) == Poly.const(1)
    # x - 2^n divides the (n, 2^n (2^n - 1)) cell
    for n in (1, 2, 3):
        m = 2 ** n * (2 ** n - 1)
        cell = gcd_iterates(f, g, c, n, m)
        assert (cell % (X - Poly.const(2 ** n))).is_zero()


def test_gcd_iterates_is_monic_gcd():
    f, g = X ** 3 + X ** 2, X ** 3 + 5 * X ** 2
    got = gcd_iterates(f, g, Poly.zero(), 1, 1)
    assert got == X ** 2
    assert got == poly_gcd(f, g)


def test_gcd_iterates_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        gcd_iterates(X ** 2, X ** 2 + 1, X ** 4, 2, 1)
    with pytest.raises(DegenerateInputError):
        gcd_iterates(X ** 2, X ** 2, X, 0, 1)


def test_gcd_grid_worked_example():
    report = gcd_grid(2 * X, X + 1, X ** 2, 2)
    assert report.gcds[(1, 2)] == X - 2
    assert report.gcds[(1, 1)] == Poly.const(1)
    assert set(report.factor_universe) == {X - 2}
    assert report.factor_universe[X - 2] == 1
    assert not report.degenerate


def test_gcd_grid_null_when_orbits_split():
    # f = x^2 and g = x^2 - 2 share no iterate roots over c = 0
    report = gcd_grid(X ** 2, X ** 2 - 2, Poly.zero(), 3)
    for pair, fl in report.cells.items():
        assert fl.expand() == Poly.const(1)
    assert report.factor_universe == {}
    assert report.stabilized


def test_gcd_grid_diagonal_only():
    report = gcd_grid(X ** 3 + X ** 2, X ** 3 + 5 * X ** 2, Poly.zero(), 3,
                      diagonal_only=True)
    assert sorted(report.cells) == [(1, 1), (2, 2), (3, 3)]
    assert report.gcds[(1, 1)] == X ** 2
    assert report.gcds[(2, 2)] == X ** 4
    assert report.gcds[(3, 3)] == X ** 8
    assert report.factor_universe == {X: 8}
    # the factor set is stable from the first cell even though the central
    # multiplicity doubles along the diagonal without bound
    assert report.stabilized


def test_gcd_grid_degenerate_cells_recorded():
    # f^(2) = x^4 = c exactly, so every (2, n) cell is degenerate
    report = gcd_grid(X ** 2, X ** 2 + 1, X ** 4, 3)
    assert (2, 1) in report.degenerate
    assert (2, 3) in report.degenerate
    assert "equals c" in report.degenerate[(2, 1)]
    assert (1, 1) in report.cells
    with pytest.raises(DegenerateInputError):
        gcd_grid(X ** 2, X ** 2, X, 0)


def test_gcd_grid_stabilization_flag_grows_monotone():
    # the (2x, x+1, x^2) universe gains x - 4 only at n = 2 cells with
    # large m; at small grid sizes the shell keeps finding new factors
    small = gcd_grid(2 * X, X + 1, X ** 2, 2)
    assert small.factor_universe == {X - 2: 1}
    assert not small.stabilized   # (1,2) on the shell introduced x - 2
    bigger = gcd_grid(2 * X, X + 1, X ** 2, 3)
    assert bigger.stabilized      # shell max(m,n)=3 finds nothing new


def test_gcd_grid_json_shape():
    d = gcd_grid(2 * X, X + 1, X ** 2, 2).to_json_dict()
    assert d["grid_n"] == 2
    assert d["stabilized"] in (True, False)
    assert {c["m"] for c in d["cells"]} <= {1, 2}
    assert d["factor_universe"] == [["x-2", 1]]


def test_linear_common_root_worked_values():
    # f = 2x, g = 3x + 1: lambda_1 = gamma S_1 / (alpha - beta) = -1
    assert linear_common_root(2, 3, 1, 1) == -1
    # f = x/2, g = 2x + 1 closed form
    for n in (1, 2, 5, 20):
        lam = linear_common_root(Fraction(1, 2), 2, 1, n)
        assert lam == Fraction(-(2 ** n), 2 ** n + 1)


def test_linear_common_root_verifies_directly():
    for alpha, beta, gamma, n in [(2, 3, 1, 4), (Fraction(2, 3), -1, 5, 3),
                                  (5, 1, 2, 6)]:
        lam = linear_common_root(alpha, beta, gamma, n)
        f = Poly([0, Fraction(alpha)])
        g = Poly([Fraction(gamma), Fraction(beta)])
        assert iterate(f, n).evaluate(lam) == iterate(g, n).evaluate(lam)


def test_linear_common_root_with_c_filter():
    c = -(X + 1)
    assert linear_common_root(Fraction(1, 2), 2, 1, 3, c=c) == Fraction(-8, 9)
    assert linear_common_root(Fraction(1, 2), 2, 1, 3, c=X) == NO_SOLUTION


def test_linear_common_root_degenerate():
    with pytest.raises(DegenerateInputError):
        linear_common_root(2, 2, 1, 3)
    with pytest.raises(DegenerateInputError):
        linear_common_root(2, -2, 1, 2)   # alpha^2 == beta^2
    with pytest.raises(DegenerateInputError):
        linear_common_root(0, 2, 1, 1)
    with pytest.raises(DegenerateInputError):
        linear_common_root(2, 3, 1, 0)


@pytest.mark.parametrize("alpha", [2.0, NumberField(X ** 2 - 2).generator()])
def test_linear_common_root_takes_rationals_only(alpha):
    with pytest.raises(DegenerateInputError, match="must be rational"):
        linear_common_root(alpha, 3, 1, 2)
    with pytest.raises(DegenerateInputError, match="must be rational"):
        linear_common_root(2, 3, alpha, 2)


def test_linear_normal_form_round_trip():
    # f = x + 5 is a translation: roles must swap, g = 3x - 1 leads
    f, g = X + 5, 3 * X - 1
    alpha, beta, gamma, shift, swapped = linear_normal_form(f, g)
    assert swapped
    assert alpha == 3
    assert beta == 1
    # fixed point of 3x - 1 is 1/2
    assert shift == Fraction(1, 2)
    assert gamma == 5
    # normal-coordinate common root translates back to the original pair
    lam = linear_common_root(alpha, beta, gamma, 2)
    orig = lam + shift
    assert iterate(g, 2).evaluate(orig) == iterate(f, 2).evaluate(orig)


def test_linear_normal_form_fixed_point_first():
    alpha, beta, gamma, shift, swapped = linear_normal_form(2 * X + 6, X + 1)
    assert not swapped
    assert (alpha, beta) == (2, 1)
    assert shift == -6


def test_linear_normal_form_two_translations_rejected():
    with pytest.raises(DegenerateInputError):
        linear_normal_form(X + 1, X + 3)
    with pytest.raises(DegenerateInputError):
        linear_normal_form(X ** 2, X + 1)


def test_reference_suite_all_pass():
    report = reference_suite()
    assert report.all_pass
    assert len(report.rows) == 30
    families = {r.family for r in report.rows}
    assert families == {"affine-pair", "halving-doubling pair",
                        "shared squared seed"}
    d = report.to_json_dict()
    assert d["all_pass"] is True
    assert len(d["rows"]) == 30
