"""Weil heights, canonical heights by iteration, and the decay probe.

Heights of rationals are exact up to float rounding of the final log.
Heights of algebraic numbers go through the Mahler measure of the minimal
polynomial, so the only approximation is the complex root finding, whose
residual is certified.  Canonical heights use the limit definition
h(f^N(x))/d^N with an explicit geometric error bound; a point whose orbit is
seen to repeat is certified preperiodic and gets canonical height exactly 0.

An integer orbit under an integer map that has escaped (|y| >= S + 2, S the
sum of the non-leading |coefficients|) only grows, so its last iterate is
needed for one log alone.  The escape tail carries it as an enclosure
[lo, hi]*2^s of fixed width with outward rounding, and keeps the result only
when Ziv's rounding test passes: both ends round to the same double, so the
exact iterate does too, and math.log of an int reads nothing else.  The size
cap is decided on the enclosure the same way.  When either test is
undecided the exact loop resumes from the escape point, so the output never
depends on the width, only the speed does.

The decay probe takes a root of the smallest irreducible factor of f^n - c.
For constant c, f^n - c = (f^(n-1) - c) o f, so the factors of level n are
the factors of P o f over the factors P of level n - 1, and the probe
factors these pieces level by level instead of f^n - c from scratch.  For
x^2 and c = 16 the pieces of f^6 - c have degree at most 16, where the whole
polynomial has degree 64.  The identity fails for a non-constant c, since
(f^(n-1) - c) o f = f^n - c o f; such a c is factored whole at each n.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction

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


@dataclass(frozen=True)
class HeightValue:
    """A nonnegative real in log scale with an error bar.

    Only the escape tail's value is derived, by outward rounding and Ziv's
    test.  The root-finding error _ROOT_ERR is asserted, not derived, and
    the comparison constant and the final divisions are plain floats.
    """

    value: float
    error_bound: float


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


# width in bits of the escape tail's enclosure; below 1024 so that float()
# of an end never overflows.  Only the speed depends on it.
_TAIL_BITS = 256


def _trim(lo: int, hi: int, t: int) -> tuple[int, int, int]:
    """[lo, hi]*2^t widened outward until both ends fit in _TAIL_BITS bits."""
    k = max(abs(lo).bit_length(), abs(hi).bit_length()) - _TAIL_BITS
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


def _f_enclosure(nums: list[int], lo: int, hi: int, s: int):
    """[alo, ahi]*2^t holding f(y) for every y in [lo, hi]*2^s: Horner on
    intervals, each end rounded outward, coefficients shifted to scale."""
    alo = ahi = nums[-1]
    t = 0
    for c in reversed(nums[:-1]):
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        t += s
        alo, ahi, t = _trim(min(prods) + (c >> t), max(prods) - (-c >> t), t)
    return alo, ahi, t


def _escape_tail(nums: list[int], y: int, n: int, steps: int):
    """(h(f^N(x)), N) from the escaped integer y = f^n(x), or None.

    Runs the steps n..N of the exact loop on an enclosure of the orbit and
    stops where it would: at `steps`, or before the first iterate whose
    bit_size (|z|.bit_length() + 1) passes the cap.  None means the
    enclosure could not decide the cap or the rounding of the final log.
    """
    lo = hi = y
    s = 0
    while n < steps:
        alo, ahi, t = _f_enclosure(nums, lo, hi, s)
        mags = _magnitudes(alo, ahi)
        if mags is None:
            return None
        if mags[0].bit_length() + t + 1 > LIMITS.height_elem_bits:
            if n == 0:
                raise ResourceLimitError("first iterate exceeds size budget")
            break
        if mags[1].bit_length() + t + 1 > LIMITS.height_elem_bits:
            return None
        lo, hi, s = alo, ahi, t
        n += 1
    mags = _magnitudes(lo, hi)
    # s = 0: never trimmed, so y itself, of any size
    if mags is None or (s and float(mags[0]) != float(mags[1])):
        return None
    return HeightValue(math.log(mags[0] << s), 0.0), n


def canonical_height(f: Poly, x: NumberFieldElem, steps: int = 32) -> HeightValue:
    """h-hat_f(x) as h(f^N(x))/d^N for the largest affordable N <= steps.

    The error bound is C/d^N with C the comparison constant above.  If the
    orbit revisits a value the point is preperiodic and the height is exactly
    zero.  If iterates outgrow the size budget before `steps`, the partial
    value is returned with the correspondingly larger error bound; only a
    budget bust before the very first step raises.

    For f in Z[x], once the orbit reaches an integer of absolute value at
    least S + 2 it cannot repeat, and the escape tail (see the module
    docstring) finishes it without building the iterates; the result is
    the one the exact loop gives, bit for bit.
    """
    d = f.degree
    if d < 2:
        raise DegenerateInputError("canonical height needs degree >= 2")
    if steps < 1:
        raise DegenerateInputError("need at least one iteration step")
    nums, den = f.int_form()
    # from |y| >= S + 2 on, |f(y)| >= |y|^(d-1) (|y| - S) >= 2|y|
    escape = sum(map(abs, nums[:-1])) + 2 if den == 1 else None
    seen = {x}
    y = x
    n = 0
    h = None
    while n < steps:
        if escape is not None and y.is_rational():
            q = y.as_fraction()
            if q.denominator == 1 and abs(q) >= escape:
                escape = None   # tried once; a failed tail resumes exactly
                tail = _escape_tail(nums, q.numerator, n, steps)
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

@dataclass(frozen=True)
class ProbeRow:
    n: int
    factor_degree: int
    height: float
    error: float
    predicted: float | None


@dataclass(frozen=True)
class ProbeReport:
    """special_probe's rows under the argv text of f and c, echoed as given."""

    f: str
    c: str
    rows: tuple

    def to_json_dict(self) -> dict:
        return {"f": self.f, "c": self.c,
                "rows": [asdict(r) for r in self.rows]}

    def table(self):
        return ([f.name for f in fields(ProbeRow)],
                [astuple(r) for r in self.rows])

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
    factors its iterate instead: the same set, with no composition.
    """
    level: list[Poly] = []
    for it in its:
        if len(level) > 1:
            level = [q for p in level for q in _factors(p.compose(f))]
        else:
            level = _factors(it - c)
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
