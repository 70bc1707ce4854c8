import math
import random
import time
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
    _scaled,
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


def krylov_over_q(a):
    """The monic minimal polynomial by Krylov elimination in Fraction
    arithmetic: the route that min_poly ran before it moved to Z, kept as
    its oracle."""
    n = a.field.degree
    rows = []
    power = a.field.one()
    for k in range(n + 1):
        vec = [power.rep[i] for i in range(n)]
        combo = [Fraction(0)] * k + [Fraction(1)]
        for pivot, rvec, rcombo in rows:
            c = vec[pivot]
            if c:
                for i in range(n):
                    vec[i] -= c * rvec[i]
                for i, rc in enumerate(rcombo):
                    combo[i] -= c * rc
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is None:
            return Poly(combo)
        inv = 1 / vec[pivot]
        rows.append((pivot, [v * inv for v in vec], [c * inv for c in combo]))
        power = power * a
    raise AssertionError("no dependency among n+1 vectors in dimension n")


def subfield_elem(field, rng, step):
    """A random element that is a polynomial in t^step."""
    cs = [0] * field.degree
    for i in range(0, field.degree, step):
        cs[i] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return field.element(Poly(cs))


# Moduli for the minimal-polynomial property suite: integral and not
# (t^3 - t/2 - 1/3, and 2 t^2 - 3 given non-monic), with proper subfields
# (t^4 + 1 holds Q(i) and Q(sqrt 2), t^6 - 3 holds Q(cbrt 3) and Q(sqrt 3)),
# and a degree-1 modulus, where the field is Q.
MINPOLY_MODULI = (
    X - Poly.const(Fraction(3, 2)),
    X ** 2 - 2,
    Poly([-3, 0, 2]),
    Poly([Fraction(-1, 3), Fraction(-1, 2), 0, 1]),
    X ** 4 + 1,
    X ** 4 - X - 1,
    X ** 6 - 3,
)


def test_min_poly_against_fraction_krylov_and_resultant():
    rng = random.Random(2617)
    cases = 0
    for modulus in MINPOLY_MODULI:
        field = NumberField(modulus)
        n = field.degree
        elems = [field.zero(), field.one(), field.element(Fraction(-7, 4)),
                 field.generator()]
        elems += [random_elem(field, rng, span=rng.choice((3, 40, 10 ** 6)))
                  for _ in range(12)]
        elems += [subfield_elem(field, rng, step)
                  for step in range(2, n) if n % step == 0 for _ in range(4)]
        for a in elems:
            m = min_poly(a)
            assert m == krylov_over_q(a)
            # the integer form is the primitive integer polynomial over its
            # positive leading coefficient
            nums, den = m.int_form()
            assert den == nums[-1] > 0 and math.gcd(*nums) == 1
            assert Poly.from_int_list(nums, den) == m
            assert n % m.degree == 0
            assert char_poly_resultant(a) == m ** (n // m.degree)
            cases += 1
    assert cases >= 120


def test_min_poly_of_rationals_and_zero():
    assert min_poly(GAUSS.zero()) == X
    assert min_poly(NumberField.rationals().element(0)) == X
    m = min_poly(SQRT2.element(Fraction(-5, 3)))
    assert m.int_form() == ([5, 3], 3)


def test_min_poly_sparse_generator_of_degree_256():
    # every power of the generator is a unit vector until t^256 = 2, so
    # no step of the elimination rescales a row
    field = NumberField(X ** 256 - 2, check=False)
    start = time.perf_counter()
    m = min_poly(field.generator())
    elapsed = time.perf_counter() - start
    assert m == X ** 256 - 2
    assert elapsed <= 0.33


def test_min_poly_relation_leaves_out_the_last_pivot(monkeypatch):
    # when the zeroing step's pivot p divides its entry x, the relation is
    # formed as (u - (x/p) v) / P_prev, so the content the one gcd removes
    # is small; with p in the relation it had about half the element's bits
    contents = []

    class SpyMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def gcd(self, *args):
            g = math.gcd(*args)
            contents.append(g)
            return g

    monkeypatch.setattr(numfield, "math", SpyMath())
    y = SQRT2.generator()
    for _ in range(12):
        y = nf_eval(X ** 2 + X, y)
        contents.clear()
        m = min_poly(y)
        assert m == krylov_over_q(y)
        assert contents == [1]
    # 29t - t^3 in Q(sqrt 2 + sqrt 3): its last pivot does not divide the
    # entry, and the relation keeps today's formula
    field = NumberField(X ** 4 - 10 * X ** 2 + 1)
    a = field.element(Poly([0, 29, 0, -1]))
    contents.clear()
    m = min_poly(a)
    assert m == X ** 4 - 3696 * X ** 2 + 304704 == krylov_over_q(a)
    assert char_poly_resultant(a) == m
    assert contents[0].bit_length() > 8


# ---------------------------------------------------------------------------
# seeded property suite: nf_eval in Z[t]/(p) against Poly.evaluate
# ---------------------------------------------------------------------------

# Q itself (modulus t), t^k as the grid's gcds x^k give, t^16 - 2, and the
# minimal polynomial of 2 cos(pi/16)
NF_EVAL_FIELDS = (
    NumberField.rationals(),
    NumberField(X ** 2, check=False),
    NumberField(X ** 5, check=False),
    NumberField(X ** 16 - 2),
    NumberField(X ** 8 - 8 * X ** 6 + 20 * X ** 4 - 16 * X ** 2 + 2),
)


def integer_map(rng, degree, span=9):
    """An integral map of the given degree, with zero coefficients."""
    cs = [rng.randint(-span, span) if rng.random() < 0.7 else 0
          for _ in range(degree)]
    return Poly(cs + [rng.choice((1, -1, 2, -5, span))])


def integer_elems(field, rng):
    n = field.degree
    return [field.zero(), field.element(rng.randint(-50, 50)),
            field.generator(),
            field.element(Poly([rng.randint(-10 ** 6, 10 ** 6)
                                for _ in range(n)])),
            field.element(Poly([rng.randint(-2 ** 90, 2 ** 90)
                                if rng.random() < 0.5 else 0
                                for _ in range(n)]))]


def count_evaluate(monkeypatch):
    calls = []
    evaluate = Poly.evaluate

    def spy(self, v):
        calls.append(v)
        return evaluate(self, v)

    monkeypatch.setattr(Poly, "evaluate", spy)
    return calls


def test_integer_nf_eval_matches_poly_evaluate(monkeypatch):
    rng = random.Random(4243)
    calls = count_evaluate(monkeypatch)
    cases = 0
    for field in NF_EVAL_FIELDS:
        for degree in (0, 1, 2, 3, 5):
            for _ in range(4):
                f = integer_map(rng, degree, span=rng.choice((9, 2 ** 40)))
                for a in integer_elems(field, rng):
                    want = field.element(f.evaluate(a))
                    calls.clear()
                    got = nf_eval(f, a)
                    assert not calls      # the integer route ran
                    assert got == want
                    assert got.rep.int_form()[1] == 1
                    assert got.rep.degree < field.degree
                    cases += 1
        # an orbit, as `dynamics.orbit` and the grid's lift walk one
        y = want = field.generator() + 1
        for _ in range(5):
            y, want = nf_eval(X ** 2 - 3 * X + 1, y), \
                field.element((X ** 2 - 3 * X + 1).evaluate(want))
            assert y == want
    assert nf_eval(Poly.zero(), NF_EVAL_FIELDS[3].generator()).is_zero()
    assert cases == 500


def test_rational_inputs_keep_the_poly_evaluate_route(monkeypatch):
    rng = random.Random(4247)
    calls = count_evaluate(monkeypatch)
    integral = NumberField(X ** 16 - 2)
    rational = NumberField(Poly([Fraction(-1, 3), Fraction(-1, 2), 0, 1]))
    for _ in range(20):
        f = integer_map(rng, rng.choice((1, 2, 3, 5)))
        cases = [(f * Fraction(1, 7) + 1, integral.generator() + 2),
                 (f, integral.generator() / 2 + 1),
                 (f, rational.generator() * 3 - 1)]
        for g, a in cases:
            want = a.field.element(g.evaluate(a))
            calls.clear()
            assert nf_eval(g, a) == want
            assert len(calls) == 1


def test_integer_nf_eval_squares_one_object(monkeypatch):
    log = []
    mul = numfield.zx_mul

    def spy(f, g):
        log.append(f is g)
        return mul(f, g)

    monkeypatch.setattr(numfield, "zx_mul", spy)
    a = NumberField(X ** 16 - 2).generator() * 3 - 1
    for f, squares in ((X + 5, [False]),
                       (X ** 2 + 1, [True]),
                       (X ** 3 - 2 * X, [True, False]),
                       (X ** 5 + X ** 4 - 7, [True, False, False, False])):
        log.clear()
        assert nf_eval(f, a) == a.field.element(f.evaluate(a))
        assert log == squares


@pytest.mark.parametrize("modulus", [X ** 64 + X + 1, X ** 16 - 2])
def test_integer_nf_eval_on_reps_far_below_the_field_degree(modulus,
                                                            monkeypatch):
    # no list is padded to the field degree: a constant, t, t + 1, t^2 - 3
    # and zero against Poly.evaluate, for maps of degree 0 to 5 with and
    # without zero coefficients, and for maps whose Horner steps come to 0
    # and go on: at -7 the first step of x^3 + 7x^2 + 5 and of
    # (x + 7) x^3 cancels, and at t the modulus itself does
    field = NumberField(modulus, check=False)
    calls = count_evaluate(monkeypatch)
    rng = random.Random(4253)
    reps = (Poly.const(-7), X, X + 1, X ** 2 - 3, Poly.zero())
    zeroing = [X ** 3 + 7 * X ** 2 + 5, (X + 7) * X ** 3,
               modulus * X ** 2, modulus * (X - 3)]
    for f in [integer_map(rng, k, span) for k in range(6)
              for span in (9, 2 ** 70)] + [X ** 2, X ** 4 + 1] + zeroing:
        for rep in reps:
            a = field.element(rep)
            want = field.element(f.evaluate(a))
            calls.clear()
            got = nf_eval(f, a)
            assert not calls and got == want, (f, rep)
            assert got.rep.degree < field.degree


def test_bit_size_is_the_fraction_sum():
    # the integral fast path against the bit lengths of every coefficient's
    # numerator and denominator, over integral and rational reps with zero
    # coefficients, constants and the zero element
    def fraction_sum(a):
        return sum(c.numerator.bit_length() + c.denominator.bit_length()
                   for c in a.rep.coeffs)

    rng = random.Random(4259)
    field = NumberField(X ** 16 - 2)
    elems = [field.zero(), field.one(), field.element(-5),
             field.element(Fraction(-3, 8)), field.generator()]
    for _ in range(200):
        n = rng.randint(1, field.degree)
        bits = rng.choice((3, 40, 300))
        nums = [rng.randint(-2 ** bits, 2 ** bits) if rng.random() < 0.6
                else 0 for _ in range(n)]
        den = rng.choice((1, 1, 2, 6, 2 ** 65 + 1))
        elems.append(field.element(Poly.from_int_list(nums, den)))
    integral = 0
    for a in elems:
        assert a.bit_size() == fraction_sum(a), a
        integral += a.rep.int_form()[1] == 1
    assert integral > 60 and len(elems) - integral > 60
    assert field.zero().bit_size() == 0
    assert field.element(-5).bit_size() == 4


def test_scaled_matches_the_fraction_route_bit_for_bit():
    # ratios of numerators against float() of the Fraction quotient, with
    # coefficients of up to 10^5 bits and ratios below the subnormal range
    rng = random.Random(2618)
    huge = underflows = 0
    for _ in range(60):
        bits = rng.choice((8, 60, 1100, 3000, 10 ** 5))
        den = rng.choice((1, 3, 2 ** 70 + 1, rng.getrandbits(200) | 1))
        cs = []
        for _ in range(rng.randint(2, 6)):
            size = max(1, rng.choice((1, bits // 3, bits, bits - 1100)))
            sign = rng.choice((-1, 1))
            cs.append(Fraction(sign * rng.getrandbits(size), den))
        cs[-1] = cs[-1] or Fraction(1, den)
        f = Poly(cs)
        big = max(abs(c) for c in f.coeffs)
        want = [float(c / big) for c in f.coeffs]
        assert [c.hex() for c in _scaled(f)] == [c.hex() for c in want]
        huge += big.numerator.bit_length() > 90000
        underflows += any(c and not w for c, w in zip(f.coeffs, want))
    assert huge and underflows
    tiny = _scaled(Poly([-1, 0, 2 ** 1200]))
    assert tiny[0] == 0.0 and math.copysign(1.0, tiny[0]) == -1.0
    assert tiny[2] == 1.0


def test_poly_complex_roots_vs_numpy_random():
    rng = random.Random(24)
    for _ in range(60):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            continue
        f = Poly(coeffs)
        ours = poly_complex_roots(f)
        assert len(ours) == f.degree
        # each of our roots matches its own numpy root
        theirs = list(numpy.roots(list(reversed(coeffs))))
        for z in ours:
            w = min(theirs, key=lambda w: abs(z - w))
            assert abs(z - w) < 1e-7 * (1 + abs(w))
            theirs.remove(w)


def test_poly_complex_roots_of_a_cubic():
    roots = sorted(poly_complex_roots((X - 1) * (X ** 2 + 1)),
                   key=lambda z: z.imag)
    assert len(roots) == 3
    for z, want in zip(roots, (-1j, 1, 1j)):
        assert abs(z - want) < 1e-12
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


def cyclotomic(n):
    """Phi_n by dividing x^n - 1 by Phi_d for the proper divisors d of n."""
    out = X ** n - 1
    for d in range(1, n):
        if n % d == 0:
            out = out // cyclotomic(d)
    return out


@pytest.mark.parametrize("n", range(1, 25))
def test_root_of_unity_order_on_powers_of_zeta(n):
    field = NumberField(cyclotomic(n), check=False)
    zeta = field.generator()
    power = field.one()
    for k in range(1, n + 1):
        power = power * zeta
        assert root_of_unity_order(power) == n // math.gcd(n, k)
    assert root_of_unity_order(2 * zeta) == NOT_A_ROOT_OF_UNITY
    if n == 2:
        return      # 1 + zeta = 0
    # |1 + e^(2 pi i / n)| = 2 |cos(pi / n)| is 1 only for n = 3, where
    # 1 + zeta = -zeta^2 has order 6
    want = 6 if n == 3 else NOT_A_ROOT_OF_UNITY
    assert root_of_unity_order(1 + zeta) == want


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
