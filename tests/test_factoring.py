import math
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
from itergcd.modular import (
    gf_compose_mod, gf_deriv, gf_divmod, gf_gcd, gf_monic, gf_powmod, gf_sub,
    zx_deg,
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


def _ddf_by_horner(g, p):
    """The distinct-degree split of a monic squarefree g mod p, stepping
    h <- h(x^p) mod v by Horner at every degree."""
    out, v, x = [], gf_monic(list(g), p), [0, 1]
    xp = gf_powmod(x, p, v, p)
    h, i = list(xp), 1
    while zx_deg(v) >= 2 * i:
        w = gf_gcd(gf_sub(h, x, p), v, p)
        if zx_deg(w) > 0:
            out.append((i, w))
            v = gf_divmod(v, w, p)[0]
            h, xp = gf_divmod(h, v, p)[1], gf_divmod(xp, v, p)[1]
        i += 1
        if zx_deg(v) < 2 * i:
            break
        h = gf_compose_mod(h, xp, v, p)
    return out + [(zx_deg(v), v)] if zx_deg(v) > 0 else out


def test_ddf_matches_the_horner_stepped_split(monkeypatch):
    # the Frobenius step takes the binary power above bitlen(p) +
    # popcount(p) - 2 and Horner at or below it: both occur here
    steps = []
    for name in ("gf_powmod", "gf_compose_mod"):
        real = getattr(factoring, name)
        monkeypatch.setattr(factoring, name, lambda f, *a, _r=real, _n=name:
                            steps.append((_n, zx_deg(f))) or _r(f, *a))
    rng = random.Random(20261019)
    for deg in 2 * (2, 3, 4, 6, 8, 10, 12, 16, 24, 32, 48, 64):
        p = rng.choice((3, 5, 7, 101, 257))
        while True:
            g = [rng.randrange(p) for _ in range(deg)] + [1]
            if zx_deg(gf_gcd(g, gf_deriv(g, p), p)) == 0:
                break
        assert factoring._gf_ddf(g, p) == _ddf_by_horner(g, p), (g, p)
    assert {name for name, deg in steps if deg > 1} == \
        {"gf_powmod", "gf_compose_mod"}


def _spy(monkeypatch, name):
    """Record the first argument of each call of factoring.<name>."""
    calls, real = [], getattr(factoring, name)
    monkeypatch.setattr(factoring, name,
                        lambda f, *a: calls.append(f) or real(f, *a))
    return calls


_QUADRATICS = [X ** 2 - 16, X ** 2 + 1,
               Poly([6, 5, 1]) * Poly.const(Fraction(2, 3)), Poly([4, -12, 9]),
               X ** 3 * Poly([-1, 0, 2 ** 600]), (X ** 2 - 4) ** 3,
               (X ** 2 + 1) ** 2 * (X ** 2 - 9)]


def test_quadratics_are_split_by_their_discriminant(monkeypatch):
    # with or without Yun's split first, no quadratic reaches Zassenhaus
    ddf = _spy(monkeypatch, "_gf_ddf")
    for f in _QUADRATICS:
        fl = factor_irreducible(f)
        assert fl.expand() == f and ddf == [], f
    assert factor_irreducible(Poly([4, -12, 9])).factors == \
        ((X - Fraction(2, 3), 2),)


def test_eisenstein_inputs_skip_yun(monkeypatch):
    # x^3 - 2 directly, x^4 + 1 after the shift x -> x + 1, with a content
    # and x^k; an irreducible that is not Eisenstein goes through Yun once
    yun = _spy(monkeypatch, "squarefree_decomposition")
    for f in (X ** 3 - 2, (X ** 4 + 1) * Poly.const(Fraction(-3, 2)) * X ** 2,
              Poly([5, 5, 0, 0, -3])):
        assert len(factor_irreducible(f).factors) == 1 + (f[0] == 0), f
        assert yun == [], f
    assert is_irreducible(X ** 3 - X - 1) and len(yun) == 1


def test_eisenstein_runs_once_per_polynomial(monkeypatch):
    # a squarefree input that fails the test is its own Yun part and is not
    # tested again; each other part is tested once
    seen = _spy(monkeypatch, "_eisenstein_shifted")
    for f in (X ** 3 - X - 1, (X ** 3 - 2) ** 2 * (X ** 3 - X - 1),
              (X ** 4 + 1) * (X ** 4 + 2) * X, (X ** 3 - 2) ** 2):
        seen.clear()
        factor_irreducible(f)
        assert len(seen) == len({tuple(g) for g in seen}) >= 1, f


def test_taylor_shift_matches_poly_shift():
    rng = random.Random(20261020)
    for deg in range(1, 131):
        f = [rng.randint(-50, 50) for _ in range(deg)] + [rng.choice((-3, 1, 2))]
        for s in (1, -1, 2, -2):
            want = Poly.from_int_list(f).shift(s).int_form()[0]
            assert factoring._taylor_shift(f, s) == want, (deg, s)


def test_shifted_eisenstein_composes_no_poly(monkeypatch):
    # x^128 + 1 is Eisenstein at 2 only after x -> x + 1
    calls = []
    real = Poly.compose
    monkeypatch.setattr(Poly, "compose",
                        lambda self, g: calls.append(g) or real(self, g))
    f = [1] + [0] * 127 + [1]
    assert not factoring._eisenstein_at(f)
    assert factoring._eisenstein_shifted(f)
    assert calls == []


def _split_cases():
    """(n, its primes) from a fixed seed: up to four primes below 2^10 with
    exponents up to 70, times zero, one or two primes in (2^10, 2^64), and
    in every third case one prime past 2^64."""
    rng = random.Random(20261021)
    small = list(sympy.primerange(2, 1 << 10))
    out = []
    for i in range(300):
        primes = set(rng.sample(small, rng.randint(0, 4)))
        n = math.prod(p ** rng.randint(1, 70) for p in primes)
        for _ in range(rng.randint(0, 2)):
            bits = rng.randint(11, 63)
            primes.add(sympy.nextprime(rng.randrange(1 << bits - 1, 1 << bits)))
        if i % 3 == 0:
            primes.add(sympy.nextprime(rng.randrange(1 << 64, 1 << 90)))
        out.append((n * math.prod(primes - set(small)), primes))
    return out


def test_prime_split_against_sympy():
    for n, primes in _split_cases():
        ps, r = factoring._prime_split(n)
        assert n == r * math.prod(p ** factoring._valuation(n, p) for p in ps)
        assert set(ps) <= primes and all(sympy.isprime(p) for p in ps)
        assert (r == 1) == (set(ps) == primes), n
        if r > 1:
            assert all(r % p for p in sympy.primerange(2, 1 << 10))
            assert r >= 1 << 64 or not sympy.isprime(r), n
    rng = random.Random(7)
    for n in [*range(1, 4097), *(rng.randrange(1, 1 << 20) for _ in range(500))]:
        assert factoring._prime_split(n) == (sympy.primefactors(n), 1), n


def test_euler_phi_against_sympy():
    from itergcd.numfield import _euler_phi
    assert [_euler_phi(s) for s in range(1, 8193)] == \
        [sympy.totient(s) for s in range(1, 8193)]


# (a, b, c) of a x^4 + b x^2 + c: x^4 + 4, x^4 + 64, 4x^4 + 1 and
# x^4 + x^2 + 1, which split with D = b^2 - 4ac not a square; x^4 - 16;
# x^4 - 4x^2 + 4 (D = 0); 9x^4 - 10x^2 + 1 = (x^2 - 1)(9x^2 - 1)
_NAMED_QUARTICS = ((1, 0, 4), (1, 0, 64), (4, 0, 1), (1, 1, 1), (1, 0, -16),
                   (1, -4, 4), (9, -10, 1))


def _even_quartics():
    """(a, b, c) of at least 400 even quartics with c != 0, from fixed seeds:
    the named ones; a and c square or not, either sign, b in [-40, 40];
    products (a1 x^2 + c1)(a2 x^2 + c2), equal halves included; and
    products (p x^2 + q x + r)(p x^2 - q x + r)."""
    rng = random.Random(20261021)
    squares, others = (1, 4, 9, 16, 25, 36, 49, 64), (2, 3, 5, 6, 7, 8, 12, 18)
    out = list(_NAMED_QUARTICS)
    for _ in range(240):
        a, c = (rng.choice(rng.choice((squares, others))) * rng.choice((-1, 1))
                for _ in range(2))
        out.append((a, rng.randint(-40, 40), c))
    for _ in range(90):
        a1, a2 = rng.randint(-6, 6) or 1, rng.randint(-6, 6) or 1
        c1, c2 = rng.randint(-9, 9) or 2, rng.randint(-9, 9) or 3
        if rng.random() < 0.2:
            a2, c2 = a1, c1
        out.append((a1 * a2, a1 * c2 + a2 * c1, c1 * c2))
    for _ in range(90):
        p, q, r = rng.randint(-5, 5) or 1, rng.randint(1, 9), rng.randint(-9, 9) or 1
        out.append((p * p, 2 * p * r - q * q, r * r))
    return out


def test_even_quartics_match_forced_zassenhaus(monkeypatch):
    # the reference is the route the biquadratic test replaces: Yun, then
    # Zassenhaus on every squarefree part
    real = factoring._factor_squarefree_z
    reached = _spy(monkeypatch, "_factor_squarefree_z")
    # by_square_c counts splits that only the C = d^2 branch finds
    kinds, by_square_c = {}, 0
    cases = _even_quartics()
    assert len(cases) >= 400
    for i, (a, b, c) in enumerate(cases):
        # every third input with a rational content
        f = Poly([c, 0, b, 0, a]) * Poly.const(Fraction(-5, 7) if i % 3 == 0 else 1)
        content, parts = squarefree_decomposition(f)
        want = []
        for part, mult in parts:
            P = factoring.zx_primitive(part.int_form()[0])[1]
            want += [(Poly(h).monic(), mult) for h in real(P)]
        want.sort(key=lambda pe: (pe[0].degree, pe[0].coeffs))
        got = factor_irreducible(f)
        assert got == FactorList(content, tuple(want)), (a, b, c)
        kind = tuple(sorted((p.degree, e) for p, e in got.factors))
        kinds[kind] = kinds.get(kind, 0) + 1
        D = b * b - 4 * a * c
        if D < 0 or math.isqrt(D) ** 2 != D:
            by_square_c += len(kind) > 1
    assert reached == []
    assert by_square_c >= 50, by_square_c
    # irreducible; two quadratics; a square; a quadratic and two lines;
    # four lines; a square of two lines
    for kind in (((4, 1),), ((2, 1), (2, 1)), ((2, 2),),
                 ((1, 1), (1, 1), (2, 1)), ((1, 1),) * 4, ((1, 2), (1, 2))):
        assert kinds.get(kind, 0) >= 3, (kind, kinds)
