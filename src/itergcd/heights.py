"""Weil heights, canonical heights by iteration, and the decay probe.

Heights of rationals are exact up to float rounding of the final log.
Heights of algebraic numbers go through the Mahler measure of the minimal
polynomial, so the only approximation is the complex root finding, whose
residual is certified.  Canonical heights use the limit definition
h(f^N(x))/d^N with an explicit geometric error bound; a point whose orbit is
seen to repeat is certified preperiodic and gets canonical height exactly 0.

A rational orbit point needs its exact value only until it escapes (Call
and Silverman, Compositio Math. 1993, for the local decomposition).  A
prime p of den(f) den(x) is tracked at y when p does not divide den(f) and
y is p-integral, as every later iterate then is, or when p divides den(y)
and -v_p(y) > R_p, the log escape radius: from there on v_p(f(y)) =
d v_p(y) + v_p(a_d), so |y|_p grows and the orbit never repeats.  Once all
are tracked and one escapes, den(y) is D = prod p^-v_p(y) over the escaping
primes, and the next one c D^d, c = prod p^-v_p(a_d).  An integer point of
an integer map with |y| >= S + 2 (S the sum of the non-leading
|coefficients|) only grows too: the case D = 1.

From there the last iterate is needed for one log alone.  The escape tail
carries y and D as enclosures [lo, hi]*2^s of fixed width with outward
rounding (D's is exact while D is a power of 2), and keeps log max(|N|, D),
N = y D, only when Ziv's rounding test passes: both ends round to the same
double, so the exact value does too, and math.log of an int reads nothing
else.  The size cap and |y| against 1 are decided on the enclosures.  When
a test is undecided the exact loop resumes from the tail's start, so the
output never depends on the width, only the speed does.

The decay probe takes a root of the smallest irreducible factor of f^n - c.
For constant c, f^n - c = (f^(n-1) - c) o f, so the factors of level n are
the factors of P o f over the factors P of level n - 1, and the probe
factors these pieces level by level instead of f^n - c from scratch.  For
x^2 and c = 16 the pieces of f^6 - c have degree at most 16, where the whole
polynomial has degree 64.  The identity fails for a non-constant c, since
(f^(n-1) - c) o f = f^n - c o f; such a c is factored whole at each n.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .dynamics import _prime_factors, log_escape_radius, p_valuation
from .emit import md_table
from .errors import DegenerateInputError, LIMITS, ResourceLimitError
from .factoring import _factor_sort_key, factor_irreducible
from .numfield import (
    NumberField,
    NumberFieldElem,
    min_poly,
    nf_eval,
    poly_complex_roots,
)
# iterate is re-exported: perfbench/checks.py looks it up in this module
from .polys import Poly, iterate, iterates  # noqa: F401


class HeightValue(namedtuple("HeightValue", "value error_bound")):
    """A nonnegative real in log scale with an error bar, two floats.

    Only the escape tail's value is derived, for integer and rational
    orbits alike, by outward rounding and Ziv's test.  The root-finding
    error _ROOT_ERR is asserted, not derived, and the comparison constant
    and the final divisions are plain floats.
    """

    __slots__ = ()


def weil_height(x) -> HeightValue:
    """h(a/b) = log max(|a|, b) for a/b in lowest terms."""
    q = Fraction(x)
    return HeightValue(math.log(max(abs(q.numerator), q.denominator)), 0.0)


# residual tolerance of poly_complex_roots, with slack for log propagation
_ROOT_ERR = 1e-10


def weil_height_alg(a: NumberFieldElem) -> HeightValue:
    """Absolute Weil height via the Mahler measure of the minimal polynomial.

    With P the primitive integer minimal polynomial of a, degree D and
    leading coefficient a0:  h(a) = (log a0 + sum_i log max(1, |root_i|)) / D.
    min_poly's integer form is P over a0.
    """
    if a.is_rational():
        return weil_height(a.as_fraction())
    m = min_poly(a)
    _, a0 = m.int_form()
    total = math.log(a0)
    for z in poly_complex_roots(m):
        total += math.log(max(1.0, abs(z)))
    return HeightValue(total / m.degree, _ROOT_ERR)


def _comparison_constant(f: Poly) -> float:
    """C with |h(f(y)) - d h(y)| <= C: log((d+1) H(f)) + d log 2.

    H(f) = max(|n_i|, b) where f = (sum n_i x^i)/b over a common denominator.
    """
    nums, den = f.int_form()
    hf = max(max(abs(n) for n in nums), den)
    return math.log((f.degree + 1) * hf) + f.degree * math.log(2)


# width in bits of the escape tail's enclosures; below 511 so that float()
# of a product of two ends never overflows.  Only the speed depends on it.
_TAIL_BITS = 256


def _trim(lo: int, hi: int, t: int, den: int = 1) -> tuple[int, int, int]:
    """[lo, hi]*2^t/den widened outward until both ends fit in _TAIL_BITS
    bits; a divisor den > 1 is shifted in first, so the quotient keeps
    about _TAIL_BITS bits."""
    k = max(abs(lo).bit_length(), abs(hi).bit_length()) - _TAIL_BITS
    if den > 1:
        k -= den.bit_length()
        lo, hi = (lo >> k, -(-hi >> k)) if k >= 0 else (lo << -k, hi << -k)
        return lo // den, -(-hi // den), t + k
    if k <= 0:
        return lo, hi, t
    return lo >> k, -(-hi >> k), t + k


def _magnitudes(lo: int, hi: int):
    """Bounds on |y| for y in [lo, hi], or None if the interval holds 0."""
    if lo > 0:
        return lo, hi
    if hi < 0:
        return -hi, -lo
    return None


def _f_enclosure(nums: list[int], lo: int, hi: int, s: int, den: int = 1):
    """[alo, ahi]*2^t holding f(y) = sum nums[i] y^i / den for every y in
    [lo, hi]*2^s: Horner on intervals, each end rounded outward,
    coefficients shifted to scale, den divided in last."""
    alo = ahi = nums[-1]
    t = 0
    for c in reversed(nums[:-1]):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        t += s
        if t >= 0:
            alo, ahi = min(prods) + (c >> t), max(prods) - (-c >> t)
        else:   # c is exact at the finer scale
            alo, ahi = min(prods) + (c << -t), max(prods) + (c << -t)
        alo, ahi, t = _trim(alo, ahi, t)
    return _trim(alo, ahi, t, den) if den > 1 else (alo, ahi, t)


def _radii(f: Poly, m: int):
    """[(p, max(R_p, 0))] over the primes p of m, R_p the log escape radius.
    A cofactor r that _prime_factors cannot split enters whole as (r, 0)
    when it is prime to den(f) and num(lc f), since R_p = 0 at each of its
    primes; any other cofactor gives None."""
    ps = _prime_factors(m)
    r = m // math.prod(p ** p_valuation(m, p) for p in ps)
    if math.gcd(r, f.int_form()[1] * f.leading().numerator) > 1:
        return None
    radii = [(p, max(log_escape_radius(f, p), 0)) for p in ps]
    return radii + [(r, 0)] if r > 1 else radii


def _escaping(den: int, q: Fraction, radii):
    """The entries p of radii at which q escapes, v_p(q) < -max(R_p, 0), or
    None if q is not tracked: a prime of den(q) or of den(f) = den does
    not escape, or den(q) has a prime outside radii."""
    esc, rest = [], q.denominator
    for p, r in radii:
        if r:
            v = p_valuation(rest, p)
            rest //= p ** v
        else:   # each prime of p that divides den(q) escapes
            g = math.gcd(rest, p)
            v = int(g > 1)
            while g > 1:
                rest //= g
                g = math.gcd(rest, g)
        if v > r:
            esc.append(p)
        elif v or den % p == 0:
            return None
    return esc if rest == 1 else None


def _escape_tail(nums: list[int], den: int, q: Fraction, esc: list,
                 n: int, steps: int):
    """(h(f^N(x)), N) from y = q = f^n(x), or None.

    f = sum nums[i] x^i / den, and q escapes at the primes esc, or, with
    none, is an integer past S + 2.  Runs the steps n..N of the exact loop
    on enclosures of y and D = den(y) and stops where it would: at `steps`,
    or before the first iterate whose bit_size, bitlen|N| + bitlen D with
    N = y D, passes the cap.  None means the enclosures could not decide
    the cap, |y| against 1 or the rounding of the final log.
    """
    num, dd = q.numerator, _trim(q.denominator, q.denominator, 0)
    lo, hi, s = num, num, 0
    if esc:     # D' = c D^d: v_p(f(y)) = d v_p(y) + v_p(a_d) at each p
        lead = Fraction(nums[-1], den)
        c = math.prod(Fraction(p) ** -p_valuation(lead, p) for p in esc)
        dmap = [0] * (len(nums) - 1) + [c.numerator]
        lo, hi, s = _trim(num, num, 0, q.denominator)
    while n < steps:
        alo, ahi, t = _f_enclosure(nums, lo, hi, s, den)
        dn = _f_enclosure(dmap, *dd, c.denominator) if esc else dd
        (dlo, dhi, u), ys = dn, _magnitudes(alo, ahi)
        if ys is None or dlo <= 0:
            return None
        room = LIMITS.height_elem_bits - t - 2 * u
        if (ys[0] * dlo).bit_length() + dlo.bit_length() > room:
            if n == 0:
                raise ResourceLimitError("first iterate exceeds size budget")
            break
        if (ys[1] * dhi).bit_length() + dhi.bit_length() > room:
            return None
        lo, hi, s, dd = alo, ahi, t, dn
        n += 1
    ys, one = _magnitudes(lo, hi), 1 << max(-s, 0)
    if ys is None or ys[0] < one <= ys[1]:
        return None     # |y| against 1 undecided
    # max(|N|, D) is |N| when |y| >= 1, else D
    mlo, mhi, w = (ys[0] * dd[0], ys[1] * dd[1], s + dd[2]) \
        if ys[0] >= one else dd
    if mlo != mhi and float(mlo) != float(mhi):
        return None
    return HeightValue(math.log(mlo << w if w >= 0 else math.ldexp(mlo, w)),
                       0.0), n


def canonical_height(f: Poly, x: NumberFieldElem, steps: int = 32) -> HeightValue:
    """h-hat_f(x) as h(f^N(x))/d^N for the largest affordable N <= steps.

    The error bound is C/d^N with C the comparison constant above.  If the
    orbit revisits a value the point is preperiodic and the height is exactly
    zero.  If iterates outgrow the size budget before `steps`, the partial
    value is returned with the correspondingly larger error bound; only a
    budget bust before the very first step raises.

    For f in Q[x], once a rational orbit point escapes at a prime of
    den(f) den(x) and every other such prime is tracked, or f is in Z[x]
    and the point is an integer of absolute value at least S + 2, the orbit
    cannot repeat, and the escape tail (see the module docstring) finishes
    it without building the iterates; the result is the one the exact loop
    gives, bit for bit.
    """
    d = f.degree
    if d < 2:
        raise DegenerateInputError("canonical height needs degree >= 2")
    if steps < 1:
        raise DegenerateInputError("need at least one iteration step")
    nums, den = f.int_form()
    # from |y| >= S + 2 on, |f(y)| >= |y|^(d-1) (|y| - S) >= 2|y|
    escape = sum(map(abs, nums[:-1])) + 2
    m = den * (x.as_fraction().denominator if x.is_rational() else 1)
    radii = _radii(f, m) if m > 1 else []   # None: no tail
    seen = {x}
    y = x
    n = 0
    h = None
    while n < steps:
        if radii is not None and y.is_rational():
            q = y.as_fraction()
            esc = _escaping(den, q, radii)
            if esc is not None and (esc or abs(q) >= escape):
                radii = None    # tried once; a failed tail resumes exactly
                tail = _escape_tail(nums, den, q, esc, n, steps)
                if tail is not None:
                    h, n = tail
                    break
        z = nf_eval(f, y)
        if z.bit_size() > LIMITS.height_elem_bits:
            if n == 0:
                raise ResourceLimitError("first iterate exceeds size budget")
            break
        y = z
        n += 1
        if y in seen:
            return HeightValue(0.0, 0.0)   # orbit repeated: preperiodic
        seen.add(y)
    if h is None:
        h = weil_height_alg(y)
    scale = float(d) ** n
    return HeightValue(h.value / scale,
                       (_comparison_constant(f) + h.error_bound) / scale)


# ---------------------------------------------------------------------------
# the decay probe: heights of roots of f^n - c shrink like 1/d^n
# ---------------------------------------------------------------------------

class ProbeRow(namedtuple(
        "ProbeRow", "n factor_degree height error predicted")):
    """n and factor_degree ints; height, error, predicted floats (or None)."""

    __slots__ = ()


class ProbeReport(namedtuple("ProbeReport", "f c rows")):
    """special_probe's rows under the argv text of f and c, echoed as given."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"f": self.f, "c": self.c,
                "rows": [r._asdict() for r in self.rows]}

    def table(self):
        return ProbeRow._fields, self.rows

    def to_md(self) -> str:
        return md_table(*self.table())


def _factors(p: Poly) -> list[Poly]:
    """The distinct monic irreducible factors of p."""
    return [q for q, _ in factor_irreducible(p).factors]


def _pick_factor(factors: list[Poly]) -> Poly:
    """Deterministic factor choice: lowest degree, then smallest coeffs."""
    if not factors:
        raise DegenerateInputError("no irreducible factors to choose a root from")
    return min(factors, key=_factor_sort_key)


def _tower(f: Poly, c: Poly, its: list[Poly]):
    """For constant c, the monic irreducible factors of f^n - c, n = 1, 2, ...

    Level n factors the pieces P o f over the factors P of level n - 1 (see
    the module docstring).  A common root a of two pieces would make f(a) a
    root of two distinct P, so no factor repeats.  A level with one factor
    factors its iterate instead: the same set, with no composition.  For a
    periodic c, such as 1 under x^2, factors and pieces recur from level
    to level; each polynomial is factored once per call.
    """
    factors = functools.cache(_factors)
    level: list[Poly] = []
    for it in its:
        if len(level) > 1:
            level = [q for p in level for q in factors(p.compose(f))]
        else:
            level = factors(it - c)
        yield level


def _probe_factors(f: Poly, c: Poly, n_lo: int, n_hi: int):
    """For n in [n_lo, n_hi], the factor of f^n - c whose root is probed."""
    its = iterates(f, n_hi)
    if c.degree > 0:   # (f^(n-1) - c) o f = f^n - c o f: no tower
        for n in range(n_lo, n_hi + 1):
            target = its[n - 1] - c
            if target.is_zero():
                raise DegenerateInputError(
                    "f^%d equals c; no roots to probe" % n)
            yield _pick_factor(_factors(target))
        return
    for n, level in enumerate(_tower(f, c, its), 1):
        if n >= n_lo:
            yield _pick_factor(level)


def special_probe(f: Poly, c: Poly, n_lo: int, n_hi: int,
                  steps: int = 40) -> list[ProbeRow]:
    """For n in [n_lo, n_hi]: canonical height of one root of f^n - c.

    The root is taken from the monic irreducible factor of least degree,
    then of least coefficients.  For constant c the factors come level by
    level from _tower, which finds the same factors as factoring f^n - c
    whole, so the choice is the same; a non-constant c is factored whole.

    The predicted column is B/(d^n - deg c) with B fitted so the first row
    matches exactly; later rows then exhibit (or refute) the 1/d^n decay.
    """
    if f.degree < 2:
        raise DegenerateInputError("probe base map must have degree >= 2")
    if n_lo < 1 or n_hi < n_lo:
        raise DegenerateInputError("bad probe range")
    rows: list[ProbeRow] = []
    fit_b: float | None = None
    degc = max(c.degree, 0)
    for n, p in enumerate(_probe_factors(f, c, n_lo, n_hi), n_lo):
        field = NumberField(p.monic(), check=False)
        lam = field.generator()
        h = canonical_height(f, lam, steps=steps)
        denom = float(f.degree) ** n - degc
        if fit_b is None and h.value > 0 and denom > 0:
            fit_b = h.value * denom
        predicted = (fit_b / denom) if (fit_b is not None and denom > 0) else None
        rows.append(ProbeRow(n, p.degree, h.value, h.error_bound, predicted))
    return rows
