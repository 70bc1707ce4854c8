import itertools
import math
import random
from fractions import Fraction

import numpy
import pytest
import sympy

from itergcd import heights
from itergcd.dynamics import log_escape_radius
from itergcd.errors import (
    LIMITS,
    DegenerateInputError,
    EmbeddingError,
    ResourceLimitError,
)
from itergcd.factoring import factor_irreducible
from itergcd.heights import (
    HeightValue,
    canonical_height,
    special_probe,
    weil_height,
    weil_height_alg,
)
from itergcd.numfield import NumberField, poly_complex_roots
from itergcd.parser import parse_poly
from itergcd.polys import Poly, iterate, iterates

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


def test_weil_height_alg_in_a_non_integral_field():
    # Q[t]/(t^3 - t/2 - 1/3): the leading coefficient of the primitive
    # minimal polynomial comes from a sympy resultant, the conjugates from
    # numpy's roots of the modulus, and h(a) is their Mahler-measure mean
    modulus = Poly([Fraction(-1, 3), Fraction(-1, 2), 0, 1])
    field = NumberField(modulus)
    thetas = numpy.roots([1, 0, -0.5, -1 / 3])
    t, x = sympy.symbols("t x")
    p = t ** 3 - t / 2 - sympy.Rational(1, 3)
    rng = random.Random(2619)
    for _ in range(20):
        cs = [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
              for _ in range(3)]
        if not cs[1] and not cs[2]:
            continue
        r = sum(sympy.Rational(c.numerator, c.denominator) * t ** i
                for i, c in enumerate(cs))
        chi = sympy.Poly(sympy.resultant(p, x - r, t), x)
        lc = abs(chi.clear_denoms()[1].primitive()[1].LC())
        conj = [sum(float(c) * th ** i for i, c in enumerate(cs))
                for th in thetas]
        want = (math.log(lc)
                + sum(math.log(max(1.0, abs(z))) for z in conj)) / 3
        h = weil_height_alg(field.element(Poly(cs)))
        assert abs(h.value - want) <= 1e-8 * (1 + want)


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


# ---------------------------------------------------------------------------
# the escape tail against an exact reference loop
# ---------------------------------------------------------------------------

def exact_height(nums, x, steps, den=1):
    """canonical_height of the map sum nums[i] x^i / den at the rational x,
    by the plain loop on exact fractions: same seen set, size cap and
    first-step refusal, every iterate built in lowest terms."""
    g = math.gcd(den, *nums)
    nums, den = [c // g for c in nums], den // g
    d = len(nums) - 1
    y = x.numerator, x.denominator
    seen = {y}
    n = 0
    while n < steps:
        # f(N/D) = P/Q, P = sum nums[i] N^i D^(d-i) and Q = den D^d.  A
        # prime of P and Q divides den or D, and one of D divides nums[d],
        # as P = nums[d] N^d mod p with gcd(N, D) = 1: so the gcds taken
        # against den nums[d] alone leave P/Q in lowest terms.
        (num, dd), p, q = y, nums[-1], den
        for c in reversed(nums[:-1]):
            q *= dd
            p = p * num + c * (q // den)
        while (h := math.gcd(den * nums[-1], p, q)) > 1:
            p, q = p // h, q // h
        z = (p, q) if p else (0, 1)
        if abs(z[0]).bit_length() + z[1].bit_length() \
                > LIMITS.height_elem_bits:
            if n == 0:
                raise ResourceLimitError("first iterate exceeds size budget")
            break
        y = z
        n += 1
        if y in seen:
            return HeightValue(0.0, 0.0)
        seen.add(y)
    c = math.log((d + 1) * max(*map(abs, nums), den)) + d * math.log(2)
    scale = float(d) ** n
    return HeightValue(math.log(max(abs(y[0]), y[1])) / scale, c / scale)


def outcome(fn):
    try:
        return fn()
    except ResourceLimitError as ex:
        return type(ex), str(ex)


def draw_tail_case(rng):
    """(nums, 1, x, steps, cap): an integer map of degree 2-4 and an integer
    point at, just below or far above the escape radius S + 2, with a cap
    that fires at the first step, mid-orbit, or not at all."""
    d = rng.randint(2, 4)
    nums = [rng.randint(-30, 30) for _ in range(d)]
    nums.append(rng.choice((1, -1, 2, 3, -5)))
    esc = sum(map(abs, nums[:-1])) + 2
    x = rng.choice((esc, esc - 1, esc + rng.randint(0, 40),
                    rng.randint(esc, 1 << rng.randint(8, 300)),
                    rng.randint(-3, 3)))
    x *= rng.choice((1, -1))
    first = sum(c * x ** i for i, c in enumerate(nums))
    first_bits = abs(first).bit_length() + 1
    cap = rng.choice((first_bits - 1, first_bits,
                      first_bits + rng.randint(1, 64),
                      rng.randint(first_bits, 6000), 6000))
    return nums, 1, x, rng.randint(1, 14), max(cap, 1)


# two primes above 2^60: _prime_split cannot split their product
BIG_DEN = ((1 << 61) - 1) * ((1 << 89) - 1)


def draw_rational_case(rng):
    """(nums, den, x, steps, cap): a map of degree 2-3 with a denominator
    from 2, 3, 4, 6, 12, 35 (or 1, or BIG_DEN, which has no tail) and a point
    whose denominator puts it at, just inside or just outside the escape
    radius R_p of one of its primes, with a cap that fires at the first
    step, mid-orbit, or not within `steps`."""
    d = rng.randint(2, 3)
    den = rng.choice((1, 2, 3, 4, 6, 12, 35, 35, 12, BIG_DEN))
    nums = [rng.randint(-30, 30) for _ in range(d)]
    nums.append(rng.choice((1, -1, 2, 3, -5, 4, 9)))
    base = rng.choice((1, 2, 3, 4, 6, 12, 35))
    p = rng.choice([p for p in (2, 3, 5, 7) if den * base % p == 0] or [2])
    r = log_escape_radius(Poly.from_int_list(nums, den), p)
    k = rng.choice((math.ceil(r) - 1, math.floor(r), math.ceil(r),
                    math.floor(r) + 1, math.floor(r) + 2))
    x = Fraction(rng.randint(-40, 40), p ** max(k, 0) * base)
    steps = rng.randint(1, 24)
    sizes, y = [], x
    for _ in range(steps):   # the exact orbit's sizes, while they are cheap
        y = sum(Fraction(c, den) * y ** i for i, c in enumerate(nums))
        sizes.append(y.numerator.bit_length() + y.denominator.bit_length())
        if sizes[-1] > 3000:
            break
    cap = rng.choice((sizes[0] - 1, sizes[0], rng.choice(sizes),
                      rng.randint(sizes[0], 6000),
                      max(sizes) + rng.randint(0, 64)))
    return nums, den, x, steps, min(max(cap, 1), 6000)


def check_tail_cases(seed, count, monkeypatch, draw=draw_tail_case):
    """Every drawn case matches exact_height; returns the tail's verdicts.
    A denominator that cannot be factored never reaches the tail."""
    verdicts = []
    tail = heights._escape_tail

    def spy(*args):
        out = tail(*args)
        verdicts.append(out is not None)
        return out

    monkeypatch.setattr(heights, "_escape_tail", spy)
    rng = random.Random(seed)
    for _ in range(count):
        nums, den, x, steps, cap = draw(rng)
        monkeypatch.setattr(LIMITS, "height_elem_bits", cap)
        f = Poly.from_int_list(nums, den)
        tried = len(verdicts)
        got = outcome(lambda: canonical_height(f, Q.element(x), steps))
        want = outcome(lambda: exact_height(nums, x, steps, den))
        assert got == want, (nums, den, x, steps, cap)
        assert den != BIG_DEN or len(verdicts) == tried
    return verdicts


def test_escape_tail_matches_exact_loop(monkeypatch):
    verdicts = check_tail_cases(61, 240, monkeypatch)
    # the tail decides nearly every escaped orbit at the default width
    assert len(verdicts) > 120 and sum(verdicts) >= 0.95 * len(verdicts)


@pytest.mark.parametrize("bits", [2, 3, 8, 53, 54, 56, 60])
def test_escape_tail_narrow_width_falls_back(bits, monkeypatch):
    # near 53 bits the rounding test is decided either way; at a few bits
    # the enclosure is too wide for it and the exact loop takes over
    monkeypatch.setattr(heights, "_TAIL_BITS", bits)
    verdicts = check_tail_cases(70 + bits, 120, monkeypatch)
    assert not all(verdicts)
    if bits >= 53:
        assert any(verdicts)


def test_rational_tail_matches_exact_loop(monkeypatch):
    verdicts = check_tail_cases(81, 400, monkeypatch, draw_rational_case)
    assert len(verdicts) > 150 and sum(verdicts) >= 0.9 * len(verdicts)


def draw_cofactor_case(rng):
    """A rational case whose point has in its denominator a product of
    primes above 2^10 that _prime_split leaves whole."""
    nums, den, x, steps, cap = draw_rational_case(rng)
    return nums, den, x / rng.choice((1031 * 1033, 1031 ** 2, 1033 * 4099)), \
        steps, cap


def test_rational_tail_with_an_unsplit_cofactor_matches_exact_loop(
        monkeypatch):
    verdicts = check_tail_cases(82, 150, monkeypatch, draw_cofactor_case)
    assert len(verdicts) > 50 and sum(verdicts) >= 0.9 * len(verdicts)


@pytest.mark.parametrize("bits", [2, 3, 8, 53, 54, 60])
def test_rational_tail_narrow_width_falls_back(bits, monkeypatch):
    monkeypatch.setattr(heights, "_TAIL_BITS", bits)
    verdicts = check_tail_cases(90 + bits, 200, monkeypatch,
                                draw_rational_case)
    assert not all(verdicts)
    if bits >= 53:
        assert any(verdicts)


@pytest.mark.parametrize("f, x, steps", [
    ("x^2-1/2", "1", 19), ("x^2-1/2", "1", 32),   # the cap stops at 22
    ("x^2+1", "1/2", 32), ("x^2+x/4-3/8", "3/2", 20),
    ("x^2-3/4", "1/4", 25),
    # escapes at 3, 5 and 7 from step 2: D has odd primes
    ("x^2+x/3-5/7", "2/5", 16)])
def test_rational_tail_at_the_default_cap(f, x, steps, monkeypatch):
    verdicts = []
    tail = heights._escape_tail
    monkeypatch.setattr(heights, "_escape_tail",
                        lambda *a: verdicts.append(tail(*a)) or verdicts[-1])
    nums, den = parse_poly(f).int_form()
    got = canonical_height(parse_poly(f), Q.element(Fraction(x)), steps)
    assert got == exact_height(nums, Fraction(x), steps, den)
    assert len(verdicts) == 1 and verdicts[0] is not None


def test_points_on_the_escape_radius_do_not_start_the_tail():
    # R_2 = 1 for both maps, and v_2(1/2) = -1 is on it, not past it:
    # 1/2 is fixed by x^2 + 1/4, and x^2 - 3/4 sends it to the fixed -1/2
    for f in ("x^2+1/4", "x^2-3/4"):
        h = canonical_height(parse_poly(f), Q.element(Fraction(1, 2)))
        assert h == HeightValue(0.0, 0.0)


def test_a_prime_of_den_f_must_escape_before_the_tail_starts():
    # 1/5 escapes at 5, but 3 divides den(f) and 1/5 is 3-integral: the
    # next iterate, 1/25 + 2/15 + 1/3, has 3 in its denominator
    nums, den = parse_poly("x^2+2*x/3+1/3").int_form()
    want = exact_height(nums, Fraction(1, 5), 12, den)
    got = canonical_height(parse_poly("x^2+2*x/3+1/3"),
                           Q.element(Fraction(1, 5)), 12)
    assert got == want


@pytest.mark.parametrize("bits", [2, 3])
def test_magnitude_against_one_needs_both_ends(bits, monkeypatch):
    # D is a power of 2, so the branch log D always passes Ziv's test; at a
    # few bits the enclosure of |y| straddles 1 for orbits such as
    # 5/4 -> 17/16 under x^2 - 1/2, and only |N| is right there
    monkeypatch.setattr(heights, "_TAIL_BITS", bits)
    for f in ("x^2-2", "x^2-1/2", "x^2-7/4"):
        nums, den = parse_poly(f).int_form()
        for b, steps in itertools.product(range(-9, 10, 2), (1, 2, 3)):
            x = Fraction(b, 4)
            got = canonical_height(parse_poly(f), Q.element(x), steps)
            assert got == exact_height(nums, x, steps, den), (f, x, steps)


def test_escape_tail_matches_exact_loop_at_the_default_cap():
    # the default cap is reached within `steps` in every case but the first
    for nums, x, steps in (([5, 0, 1], 61, 18), ([2, 0, 0, 1], -60, 11),
                           ([-7, 0, 3], 9, 14), ([1, 0, 1], 5, 40)):
        got = canonical_height(Poly.from_int_list(nums), Q.element(x), steps)
        assert got == exact_height(nums, Fraction(x), steps)


def test_f_enclosure_holds_the_exact_value():
    # y enclosed at a few widths, from exact (s = 0) to a handful of bits;
    # the image must hold f(y).  From an exact y the width at most doubles
    # plus two per Horner step.
    rng = random.Random(63)
    for _ in range(200):
        nums, _, x, _, _ = draw_tail_case(rng)
        y = x * rng.randint(1, 1 << 200)
        fy = sum(c * y ** i for i, c in enumerate(nums))
        for k in (0, 1, 7, max(abs(y).bit_length() - 3, 0)):
            lo, hi = y >> k, -(-y >> k)
            alo, ahi, t = heights._f_enclosure(nums, lo, hi, k)
            assert alo << t <= fy <= ahi << t, (nums, y, k)
            if k == 0:
                assert ahi - alo < 1 << len(nums)


def test_f_enclosure_divides_the_denominator_outward():
    # y = a/b enclosed with a negative exponent; the image of the map
    # sum nums[i] x^i / den must hold f(y) exactly
    rng = random.Random(64)
    for _ in range(300):
        nums, den, _, _, _ = draw_rational_case(rng)
        y = Fraction(rng.randint(-1 << 80, 1 << 80), rng.randint(1, 1 << 90))
        fy = sum(Fraction(c, den) * y ** i for i, c in enumerate(nums))
        for k in (0, 3, 60, 300):
            lo, hi = math.floor(y * 2 ** k), math.ceil(y * 2 ** k)
            alo, ahi, t = heights._f_enclosure(nums, lo, hi, -k, den)
            assert Fraction(alo) * Fraction(2) ** t <= fy \
                <= Fraction(ahi) * Fraction(2) ** t, (nums, den, y, k)


def draw_dominant_case(rng):
    """(nums, 1, x, steps, cap): an integer map of degree 2-4 with leading
    coefficient from +-1, +-3, 2^5 and a point of either sign (for odd
    degrees the sign of the orbit follows it) past the dominant-term
    threshold |y| >= 2^(_TAIL_BITS + 8) T / |a_d| or crossing it mid-orbit,
    with a cap from the first step to 2^16 bits."""
    d = rng.randint(2, 4)
    nums = [rng.choice((0, rng.randint(-40, 40),
                        rng.randint(-2 ** 20, 2 ** 20))) for _ in range(d)]
    nums.append(rng.choice((1, -1, 3, -3, 32)))
    esc = sum(map(abs, nums[:-1])) + 2
    x = rng.choice((esc + rng.randint(0, 9), rng.randint(esc, 1 << 40),
                    rng.randint(1 << 300, 1 << 420)))
    x *= rng.choice((1, -1))
    first = sum(c * x ** i for i, c in enumerate(nums))
    first_bits = abs(first).bit_length() + 1
    cap = rng.choice((first_bits - 1, first_bits,
                      rng.randint(first_bits, 1 << 16), 1 << 16))
    return nums, 1, x, rng.randint(1, 24), min(max(cap, 1), 1 << 16)


def test_dominant_term_steps_match_the_exact_loop(monkeypatch):
    # a spy on the leading-term step marks the cases in which it ran
    marks = []
    power, draw = heights._power_enclosure, draw_dominant_case

    def spy(a, d, lo, hi, s, den=1, g=None):
        if g is not None:
            marks[-1] = True
        return power(a, d, lo, hi, s, den, g)

    def marked_draw(rng):
        marks.append(False)
        return draw(rng)

    monkeypatch.setattr(heights, "_power_enclosure", spy)
    verdicts = check_tail_cases(66, 300, monkeypatch, marked_draw)
    # the cap fires at the first step in about a fifth of the cases
    assert len(verdicts) > 200 and sum(verdicts) >= 0.9 * len(verdicts)
    assert sum(marks) >= 0.5 * len(marks)


def test_power_enclosure_holds_the_exact_value():
    # past the threshold f(y) = sum nums[i] y^i / den lies in the
    # enclosure of a_d y^d / den, from y itself (k <= m) and from a wider
    # interval around it (k = m + 100).  Points with a short odd part have
    # powers that the trim leaves exact, so only the widening by 2^-g
    # covers the lower terms.  Without g the power is enclosed exactly.
    rng = random.Random(67)
    g = heights._TAIL_BITS + 8
    for _ in range(400):
        nums, _, _, _, _ = draw_dominant_case(rng)
        den, d = rng.choice((1, 1, 3, 12)), len(nums) - 1
        m = g + sum(map(abs, nums[:-1])).bit_length() + rng.randint(0, 200)
        y = rng.choice((rng.randint(1, 7), rng.randint(1, 1 << 300))) << m
        y *= rng.choice((1, -1))
        fy = Fraction(sum(c * y ** i for i, c in enumerate(nums)), den)
        wide = abs(y) >> m + 200 > 0      # lo stays past the threshold
        for k in (0, 1, 40, m, m + 100) if wide else (0, 1, 40, m):
            lo, hi = y >> k, -(-y >> k)
            alo, ahi, t = heights._power_enclosure(nums[-1], d, lo, hi, k,
                                                   den, g)
            assert alo * Fraction(2) ** t <= fy <= ahi * Fraction(2) ** t, \
                (nums, den, y, k)
            if k == 0:
                exact = Fraction(nums[-1] * y ** d, den)
                alo, ahi, t = heights._power_enclosure(nums[-1], d, y, y, 0,
                                                       den)
                assert alo * Fraction(2) ** t <= exact \
                    <= ahi * Fraction(2) ** t


def test_escape_tail_stopped_on_a_huge_exact_start(monkeypatch):
    # 0 -> 2^2000 -> 2^4000 + 2^2000 escapes at step 2, past float range,
    # and the cap stops the tail before its first step
    nums = [1 << 2000, 0, 1]
    y3 = ((1 << 4000) + (1 << 2000)) ** 2 + (1 << 2000)
    monkeypatch.setattr(LIMITS, "height_elem_bits", y3.bit_length())
    assert canonical_height(Poly.from_int_list(nums), Q.element(0), 5) == \
        exact_height(nums, Fraction(0), 5)


@pytest.mark.xfail(strict=True, reason="open defect, ROADMAP item 18: "
                   "poly_complex_roots drops non-finite iterates")
def test_weil_height_alg_refuses_lost_roots():
    # the start radius 1 + max|c| is about 2e8 here, so z^60 overflows and
    # every iterate turns NaN; numpy gives log M(P) = 19.11
    P = X ** 60 - 2 * (10000 * X - 1) ** 2
    with pytest.raises(EmbeddingError):
        poly_complex_roots(P)
    with pytest.raises(EmbeddingError):
        weil_height_alg(NumberField(P, check=False).generator())


def _green_x2_plus_x(z: float) -> float:
    """G(z) = lim log|f^n(z)| / 2^n for f = x^2 + x, in floats."""
    n = 0
    while abs(z) <= 1e100:
        z, n = z * z + z, n + 1
    return math.log(abs(z)) / 2 ** n


_LOST_ROOTS = pytest.mark.xfail(
    strict=True, raises=EmbeddingError,
    reason="open defect, ROADMAP item 18: poly_complex_roots fails on the "
           "minimal polynomial of the last iterate")


@pytest.mark.parametrize("steps", [3, 4, 5, pytest.param(6, marks=_LOST_ROOTS),
                                   pytest.param(32, marks=_LOST_ROOTS)])
def test_canonical_height_of_sqrt2_under_x2_plus_x(monkeypatch, steps):
    # sqrt 2 is an algebraic integer and f is monic in Z[x], so the Green
    # function at the two embeddings is the only local term: h-hat = 0.39666.
    # The smaller size budget binds only at steps 32, stopping it near N = 15
    # with the same error in 0.02 s instead of near N = 21 in about a minute
    monkeypatch.setattr(LIMITS, "height_elem_bits", 1 << 16)
    r = math.sqrt(2)
    want = (_green_x2_plus_x(r) + _green_x2_plus_x(-r)) / 2
    got = canonical_height(X ** 2 + X, NumberField(X ** 2 - 2).generator(),
                           steps)
    assert abs(got.value - want) <= got.error_bound


# ---------------------------------------------------------------------------
# the probe's factor tower against factoring f^n - c whole
# ---------------------------------------------------------------------------

def _key(q):
    return q.degree, q.coeffs


def whole_factors(f, c, n):
    """The monic irreducible factors of f^n - c by the route the tower
    replaced: factor_irreducible of the whole polynomial, sorted by _key."""
    return sorted((q for q, _ in factor_irreducible(iterate(f, n) - c).factors),
                  key=_key)


def draw_tower_case(rng):
    """(f, c, n_hi): f of degree 2-3 with a rational critical point r and a
    leading coefficient that is often not a unit.  c is the critical value
    f(r) (level 1 has a square), a value f(s) or f(f(s)) (levels 1 or 2
    split), a random or zero constant, or the moving x + f(s) - s."""
    d = rng.choice((2, 3))
    n_hi = rng.randint(1, 4 if d == 2 else 3)
    lead = rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3)))
    r = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 5)))
              for _ in range(d + 1)]
    coeffs[d] = lead
    # f'(r) = 0 fixes the linear coefficient
    coeffs[1] = -sum(k * coeffs[k] * r ** (k - 1) for k in range(2, d + 1))
    f = Poly(coeffs)
    s = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
    c = rng.choice((
        Poly.const(f.evaluate(r)), Poly.const(f.evaluate(s)),
        Poly.const(f.evaluate(f.evaluate(s))),
        Poly.const(Fraction(rng.randint(-9, 9), rng.choice((1, 4)))),
        Poly.zero(), X + (f.evaluate(s) - s)))
    return f, c, n_hi


@pytest.mark.parametrize("f, x, tail", [
    # 1031 * 1033: _prime_split leaves it whole, and it is prime to
    # den(f) and to lc(f), so it has R_p = 0 at both primes and is tracked
    ("x^2+1", "1/1065023", True), ("x^2+1", "-7/1065023", True),
    ("x^2-1/3", "2/3195069", True),
    # the same cofactor in den(f): R_p = 1/2 at each prime, no tail; in
    # lc(f): R_p = 1, so 1/1065023 sits on the radius, not past it
    ("x^2+1/1065023", "1", False), ("1065023*x^2+1", "1/1065023", False),
    ("1065023*x^2+1", "5/1134273990529", False)])
def test_an_unsplit_cofactor_of_den_x_is_tracked_whole(f, x, tail,
                                                       monkeypatch):
    verdicts = []
    real = heights._escape_tail
    monkeypatch.setattr(heights, "_escape_tail",
                        lambda *a: verdicts.append(real(*a)) or verdicts[-1])
    nums, den = parse_poly(f).int_form()
    got = canonical_height(parse_poly(f), Q.element(Fraction(x)), 32)
    assert got == exact_height(nums, Fraction(x), 32, den)
    assert (len(verdicts) == 1 and verdicts[0] is not None) == tail
    assert tail or not verdicts


TOWER_FIXED = [(X ** 2, Poly.const(16), 4), (X ** 2, Poly.const(1), 4),
               (X ** 2 - 2, Poly.const(2), 4), (X ** 2, X, 4)]


def test_probe_factors_match_whole_factoring():
    rng = random.Random(20)
    cases = TOWER_FIXED + [draw_tower_case(rng) for _ in range(220)]
    for f, c, n_hi in cases:
        want = [whole_factors(f, c, n) for n in range(1, n_hi + 1)]
        if c.degree <= 0:
            levels = list(heights._tower(f, c, iterates(f, n_hi)))
            assert [sorted(lv, key=_key) for lv in levels] == want, (f, c)
        n_lo = rng.randint(1, n_hi)
        got = list(heights._probe_factors(f, c, n_lo, n_hi))
        assert got == [w[0] for w in want[n_lo - 1:]], (f, c, n_lo)


def test_probe_factors_pieces_not_the_whole_iterate(monkeypatch):
    # x^64 - 16 is never factored whole: its pieces have degree <= 16
    degrees = []
    real = heights.factor_irreducible
    monkeypatch.setattr(heights, "factor_irreducible",
                        lambda p: degrees.append(p.degree) or real(p))
    rows = special_probe(X ** 2, Poly.const(16), 1, 6)
    assert [r.factor_degree for r in rows] == [1, 1, 2, 4, 8, 16]
    assert degrees and max(degrees) <= 16
