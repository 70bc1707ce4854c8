"""End-to-end acceptance gate.

One test per headline claim, each registering a single pass/fail line with
the stated tolerance and time budget.  The six randomized property suites
share a cumulative two-minute budget checked at the end.
"""

import math
import random
import time
from fractions import Fraction

from itergcd.factoring import factor_irreducible
from itergcd.gcdlab import gcd_grid, gcd_iterates, linear_common_root
from itergcd.heights import canonical_height, special_probe
from itergcd.multiplicity import (
    direct_v,
    divisor_h,
    multiplicity_bound,
)
from itergcd.numfield import NumberField, jet_at, jet_compose
from itergcd.polys import (
    Poly,
    iterate,
    mult_of_factor,
    poly_gcd,
    poly_gcd_subresultant,
    render_poly,
)

X = Poly.x()
Q = NumberField.rationals()

PROP_TIMES: dict[str, float] = {}


def congruence_allows(cert, n: int) -> bool:
    if cert.congruence == "no n":
        return False
    if cert.congruence == "single n":
        return n == cert.ell
    a, m = cert.congruence.split(" mod ")
    return n >= cert.ell and (n - int(a)) % int(m) == 0


def test_unbounded_multiplicity_family(acceptance):
    # gcd of the n-th iterates of x^3+x^2 and x^3+5x^2 over c=0 vanishes at
    # 0 to the order 2^n exactly, for n = 1..4
    t0 = time.perf_counter()
    f, g = X ** 3 + X ** 2, X ** 3 + 5 * X ** 2
    ok = True
    for n in range(1, 5):
        gc = gcd_iterates(f, g, Poly.zero(), n, n)
        ok = ok and mult_of_factor(gc, X) == 2 ** n
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    acceptance("central multiplicity 2^n, n=1..4", ok, "%.2fs, budget 60s" % dt)
    assert ok


def test_affine_pair_shifted_roots(acceptance):
    # f = 2x, g = x+1, c = x^2: (x - 2^n) divides the (n, 2^n(2^n-1)) cell
    t0 = time.perf_counter()
    f, g, c = 2 * X, X + 1, X ** 2
    ok = True
    for n in range(1, 7):
        m = 2 ** n * (2 ** n - 1)
        cell = gcd_iterates(f, g, c, n, m)
        ok = ok and (cell % (X - Poly.const(2 ** n))).is_zero()
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    acceptance("root x=2^n in cell (n, 2^n(2^n-1)), n=1..6", ok,
               "%.2fs, budget 5s" % dt)
    assert ok


def test_halving_doubling_closed_form(acceptance):
    # f = x/2, g = 2x+1, c = -(x+1): lambda_n = -2^n/(2^n+1) exactly
    t0 = time.perf_counter()
    f = Poly([0, Fraction(1, 2)])
    g = 2 * X + 1
    c = -(X + 1)
    ok = True
    for n in range(1, 21):
        lam = linear_common_root(Fraction(1, 2), 2, 1, n, c=c)
        want = Fraction(-(2 ** n), 2 ** n + 1)
        ok = ok and lam == want
        ok = ok and iterate(f, n).evaluate(want) == c.evaluate(want)
        ok = ok and iterate(g, n).evaluate(want) == c.evaluate(want)
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    acceptance("closed-form common roots, n=1..20", ok,
               "%.2fs, budget 1s" % dt)
    assert ok


def test_diagonal_grid_trivial_gcds(acceptance):
    # f = 2x, g = 3x+1, c = x^2: every diagonal gcd with n >= 2 is 1 and
    # the factor universe stabilizes
    t0 = time.perf_counter()
    report = gcd_grid(2 * X, 3 * X + 1, X ** 2, 12, diagonal_only=True)
    ok = all(report.cell_gcd(n, n) == Poly.const(1) for n in range(2, 13))
    ok = ok and report.stabilized
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    acceptance("trivial diagonal gcds, n=2..12", ok, "%.2fs, budget 5s" % dt)
    assert ok


def test_certified_divisor_polynomial(acceptance):
    # f = x^2-2, g = x^2-1, c = 0, grid 4: h is divisible by every cell gcd
    # and each certificate bound holds for direct orders up to n = 8
    t0 = time.perf_counter()
    f, g, c = X ** 2 - 2, X ** 2 - 1, Poly.zero()
    h, certs = divisor_h(f, g, c, 4)
    ok = True
    for m in range(1, 5):
        for n in range(1, 5):
            G = gcd_iterates(f, g, c, m, n)
            ok = ok and (h % G).is_zero()
    for p, cert in certs.items():
        field = NumberField(p)
        for n in range(1, 9):
            v = direct_v(f, c, field, n)
            ok = ok and v <= cert.bound_M
            ok = ok and (v == 0 or congruence_allows(cert, n))
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    acceptance("certified divisor polynomial over the 4x4 grid", ok,
               "h = %s, %d certificate(s), %.2fs, budget 120s"
               % (render_poly(h), len(certs), dt))
    assert ok


def test_certificate_suite_with_expansion_oracle(acceptance):
    ok = True
    # constant target on an unramified fixed point: bound 1, attained always
    f1 = NumberField(X + 2)
    cert1 = multiplicity_bound(X ** 2 - 2, Poly.const(2), f1)
    ok = ok and cert1.case_tag == "constant-c" and cert1.bound_M == 1
    ok = ok and all(direct_v(X ** 2 - 2, Poly.const(2), f1, n) == 1
                    for n in range(1, 7))
    # ramified fixed target must be refused
    try:
        multiplicity_bound(X ** 3 + X ** 2, Poly.zero(), NumberField(X))
        ok = False
    except Exception as ex:
        ok = ok and type(ex).__name__ == "HypothesisViolationError"
    # moving target tangent to nothing: bound 1, no exceptional indices
    f2 = NumberField(X - 2)
    cert2 = multiplicity_bound(X ** 2 - 2, X, f2)
    ok = ok and cert2.bound_M == 1 and cert2.exceptional_ns == ()
    # full-expansion oracle wherever the expanded degree stays <= 256
    for q, c, modulus in ((X ** 2 - 2, Poly.const(2), X + 2),
                          (X ** 2 - 2, X, X - 2)):
        field = NumberField(modulus)
        for n in range(1, 9):
            if q.degree ** n > 256:
                break
            want = mult_of_factor(iterate(q, n) - c, modulus.monic())
            ok = ok and direct_v(q, c, field, n) == want
    acceptance("multiplicity certificates vs expansion oracle", ok)
    assert ok


def test_height_values(acceptance):
    t0 = time.perf_counter()
    ok = abs(canonical_height(X ** 2, Q.element(2)).value - math.log(2)) <= 1e-9
    ok = ok and canonical_height(X ** 2 - 2, Q.element(2)).value <= 1e-9
    pinned = 0.407354522739
    ok = ok and abs(canonical_height(X ** 2 + 1, Q.element(1)).value
                    - pinned) <= 1e-3
    rows = special_probe(X ** 2, Poly.const(2), 1, 8)
    for r in rows:
        ok = ok and abs(r.height - math.log(2) / 2 ** r.n) <= 1e-9
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    acceptance("canonical heights and the decay probe", ok,
               "%.2fs, budget 10s" % dt)
    assert ok


# ---------------------------------------------------------------------------
# randomized property suites, >= 200 cases each, shared 120 s budget
# ---------------------------------------------------------------------------

def _rand_poly(rng, max_deg, span=9, nonzero=True):
    f = Poly([Fraction(rng.randint(-span, span))
              for _ in range(rng.randint(1, max_deg + 1))])
    if nonzero and f.is_zero():
        return Poly.const(1)
    return f


def _timed(name, t0):
    PROP_TIMES[name] = time.perf_counter() - t0


def test_property_gcd_routes(acceptance):
    t0 = time.perf_counter()
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        common = _rand_poly(rng, 3)
        a = _rand_poly(rng, 3) * common
        b = _rand_poly(rng, 3) * common
        if a.is_zero() or b.is_zero():
            continue
        ok = ok and poly_gcd(a, b) == poly_gcd_subresultant(a, b)
    _timed("gcd-routes", t0)
    acceptance("modular gcd matches subresultant gcd, 200 cases", ok,
               "%.2fs" % PROP_TIMES["gcd-routes"])
    assert ok


def test_property_factor_reconstruction(acceptance):
    t0 = time.perf_counter()
    rng = random.Random(102)
    ok = True
    for _ in range(200):
        f = _rand_poly(rng, 5)
        fl = factor_irreducible(f)
        ok = ok and fl.expand() == f
    _timed("factor-reconstruction", t0)
    acceptance("factorizations multiply back, 200 cases", ok,
               "%.2fs" % PROP_TIMES["factor-reconstruction"])
    assert ok


def test_property_jet_composition(acceptance):
    t0 = time.perf_counter()
    rng = random.Random(103)
    ok = True
    for _ in range(200):
        f = _rand_poly(rng, 4, span=5)
        g = _rand_poly(rng, 4, span=5)
        a = Q.element(Fraction(rng.randint(-3, 3)))
        K = rng.randint(2, 8)
        inner = jet_at(g, a, K)
        outer = jet_at(f, Q.element(g.evaluate(a.as_fraction())), K)
        ok = ok and jet_compose(outer, inner) == jet_at(f.compose(g), a, K)
    _timed("jet-composition", t0)
    acceptance("jet composition matches full expansion, 200 cases", ok,
               "%.2fs" % PROP_TIMES["jet-composition"])
    assert ok


def test_property_iterate_homomorphism(acceptance):
    t0 = time.perf_counter()
    rng = random.Random(104)
    ok = True
    for _ in range(200):
        f = _rand_poly(rng, 3, span=4)
        if f.degree < 1:
            continue
        m = rng.randint(1, 3)
        n = rng.randint(1, 2)
        ok = ok and iterate(f, m + n) == iterate(f, m).compose(iterate(f, n))
    _timed("iterate-homomorphism", t0)
    acceptance("iterates compose additively, 200 cases", ok,
               "%.2fs" % PROP_TIMES["iterate-homomorphism"])
    assert ok


def test_property_height_functoriality(acceptance):
    t0 = time.perf_counter()
    rng = random.Random(105)
    ok = True
    for _ in range(200):
        # keep the orbits at a few thousand bits: degree 2, shallow depth,
        # small denominators (degree-3 maps at depth 12 reach megabit
        # rationals whose gcd normalization dominates the whole gate)
        coeffs = [Fraction(rng.randint(-4, 4))]
        lead = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        f = Poly(coeffs + [Fraction(rng.randint(-2, 2)), lead])
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        hx = canonical_height(f, Q.element(x), steps=8)
        hfx = canonical_height(f, Q.element(f.evaluate(x)), steps=8)
        tol = hfx.error_bound + f.degree * hx.error_bound + 1e-12
        ok = ok and abs(hfx.value - f.degree * hx.value) <= tol
    _timed("height-functoriality", t0)
    acceptance("canonical height is functorial, 200 cases", ok,
               "%.2fs" % PROP_TIMES["height-functoriality"])
    assert ok


def test_property_order_additivity(acceptance):
    t0 = time.perf_counter()
    rng = random.Random(106)
    ok = True
    irreducibles = (X - 2, X + Poly.const(Fraction(1, 2)), X ** 2 - 2,
                    X ** 2 + 1)
    for _ in range(200):
        p = rng.choice(irreducibles)
        ea = rng.randint(0, 3)
        eb = rng.randint(0, 3)
        u = _rand_poly(rng, 2)
        w = _rand_poly(rng, 2)
        if (u % p).is_zero() or (w % p).is_zero():
            continue
        f = p ** ea * u
        g = p ** eb * w
        ok = ok and mult_of_factor(f * g, p) == ea + eb
        ok = ok and mult_of_factor(f, p) + mult_of_factor(g, p) == ea + eb
    _timed("order-additivity", t0)
    acceptance("root orders add over products, 200 cases", ok,
               "%.2fs" % PROP_TIMES["order-additivity"])
    assert ok


def test_property_suites_total_time(acceptance):
    total = sum(PROP_TIMES.values())
    ok = total < 120.0 and len(PROP_TIMES) == 6
    acceptance("all property suites within the shared budget", ok,
               "%.2fs over %d suites, budget 120s" % (total, len(PROP_TIMES)))
    assert ok
