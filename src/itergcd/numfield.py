"""Number fields Q[t]/(p), their elements, and truncated power series (jets).

A NumberField is the quotient of Q[t] by a monic irreducible modulus; its
elements are residue-class representatives of degree below deg p.  All
arithmetic is exact.  Minimal polynomials come from Krylov elimination over
Z: each power of the element is cleared of its common denominator once, and
Bareiss's fraction-free rule keeps every row in integers, so no row
operation runs a gcd.  Complex roots of a polynomial are the only
floating-point surface and serve Mahler measures alone; every
certificate-grade decision, the root-of-unity test included, goes through
exact zero tests.

Jets are truncated Taylor expansions with coefficients in a number field.
They exist so that high compositional powers of a polynomial never have to
be expanded in full: composing the order-K jet of a degree-d map with any
order-K jet costs O(d K^2) field multiplications, however high the iterate
the inner jet stands for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import (
    DegenerateInputError,
    EmbeddingError,
    LIMITS,
    ResourceLimitError,
)
from .factoring import _prime_split, is_irreducible
from .modular import _binary_power, zx_mul, zx_trim
from .polys import Poly, render_poly

NOT_A_ROOT_OF_UNITY = "not a root of unity"


class NumberField:
    """Q[t]/(p) for monic irreducible p; degree-1 moduli give Q itself."""

    __slots__ = ("modulus", "degree", "_low")

    def __init__(self, modulus: Poly, *, check: bool = True):
        if modulus.degree < 1:
            raise DegenerateInputError("field modulus must be nonconstant")
        modulus = modulus.monic()
        if check and modulus.degree > 1 and not is_irreducible(modulus):
            raise DegenerateInputError(
                "field modulus %s is reducible" % render_poly(modulus, "t"))
        self.modulus = modulus
        self.degree = modulus.degree
        nums, den = modulus.int_form()   # (j, p_j) reduce Z[t] by p
        self._low = [(j, c) for j, c in enumerate(nums[:-1]) if c] \
            if den == 1 else None

    @classmethod
    def rationals(cls) -> "NumberField":
        return cls(Poly.x(), check=False)

    def element(self, value) -> "NumberFieldElem":
        if isinstance(value, NumberFieldElem):
            if value.field != self:
                raise DegenerateInputError("element belongs to a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return NumberFieldElem(self, Poly.const(value))
        if isinstance(value, Poly):
            return NumberFieldElem(self, value)
        raise TypeError("cannot coerce %r into the field" % (value,))

    def generator(self) -> "NumberFieldElem":
        """The residue class of t (for a degree-1 modulus t - a this is a)."""
        return NumberFieldElem(self, Poly.x())

    def zero(self) -> "NumberFieldElem":
        return NumberFieldElem(self, Poly.zero())

    def one(self) -> "NumberFieldElem":
        return NumberFieldElem(self, Poly.const(1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NumberField):
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self):
        return hash(("NumberField", self.modulus))

    def __repr__(self) -> str:
        return "NumberField(%s)" % render_poly(self.modulus, "t")


class NumberFieldElem:
    """Residue class in a NumberField; immutable, hashable, exact."""

    __slots__ = ("field", "rep")

    def __init__(self, field: NumberField, rep: Poly):
        if rep.degree >= field.degree:
            rep = rep % field.modulus
        self.field = field
        self.rep = rep

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, NumberFieldElem):
            if other.field is not self.field and other.field != self.field:
                raise DegenerateInputError("mixed number fields in arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return NumberFieldElem(self.field, Poly.const(other))
        return None

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def is_rational(self) -> bool:
        return self.rep.is_constant()

    def as_fraction(self) -> Fraction:
        if not self.rep.is_constant():
            raise DegenerateInputError("element is not rational")
        return self.rep[0]

    # -- ring / field operations ----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElem(self.field, self.rep + o.rep)

    __radd__ = __add__

    def __neg__(self):
        return NumberFieldElem(self.field, -self.rep)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElem(self.field, self.rep - o.rep)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NumberFieldElem(self.field, self.rep * o.rep)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * nf_invert(o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * nf_invert(self)

    def __pow__(self, e: int):
        if e < 0:
            return nf_invert(self) ** (-e)
        return _binary_power(self, e, self.field.one(), NumberFieldElem.__mul__)

    def __eq__(self, other) -> bool:
        if isinstance(other, NumberFieldElem):
            return self.field == other.field and self.rep == other.rep
        if isinstance(other, (int, Fraction)):
            return self.rep == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        if self.rep.is_constant():
            return hash(self.rep[0])
        return hash(("NumberFieldElem", self.field.modulus, self.rep))

    def __repr__(self) -> str:
        return "NumberFieldElem(%s | t: %s)" % (
            render_poly(self.rep, "t"), render_poly(self.field.modulus, "t"))

    def bit_size(self) -> int:
        """Crude representation size, used by orbit escape caps."""
        nums, den = self.rep.int_form()
        if den == 1:    # every denominator is 1, of one bit
            return sum(map(int.bit_length, nums)) + len(nums)
        return sum(a.numerator.bit_length() + a.denominator.bit_length()
                   for a in self.rep.coeffs)


def nf_invert(a: NumberFieldElem) -> NumberFieldElem:
    """Multiplicative inverse via extended Euclid in Q[t]."""
    if a.is_zero():
        raise ZeroDivisionError("inverting zero field element")
    r0, r1 = a.field.modulus, a.rep
    t0, t1 = Poly.zero(), Poly.const(1)
    while not r1.is_constant():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    # r1 is a nonzero constant: t1/r1 * a == 1 mod p
    inv = t1 * (1 / r1[0])
    return NumberFieldElem(a.field, inv)


def nf_eval(f: Poly, a: NumberFieldElem) -> NumberFieldElem:
    """f(a) inside a's field (Horner).  With f, a and the modulus p
    integral this runs in Z[t]/(p) on integer lists, squaring a once as
    ``Poly.evaluate`` does and reducing each product by p's nonzero lower
    terms; anything with a denominator keeps ``Poly.evaluate``."""
    field, n = a.field, a.field.degree
    nums, den = f.int_form()
    y, yd = a.rep.int_form()
    if field._low is None or den != 1 or yd != 1 or not nums:
        return field.element(f.evaluate(a))
    top = len(nums) - 1
    acc = [nums[top]]
    if top >= 2:
        sq = _reduce(zx_mul(y, y), field._low, n)
        acc = [nums[top] * s + nums[top - 1] * b
               for s, b in zip_longest(sq, y, fillvalue=0)] or [0]
        acc[0] += nums[top - 2]
        top -= 2
    for c in reversed(nums[:top]):
        # a zero product comes back empty: y is 0 where an orbit reaches 0
        acc = _reduce(zx_mul(acc, y), field._low, n) or [0]
        acc[0] += c
    return NumberFieldElem(field, Poly.from_int_list(acc))


def _reduce(v: list[int], low: list, n: int) -> list[int]:
    """v mod t^n + sum p_j t^j, low = [(j, p_j)], with no trailing zeros."""
    for k in range(len(v) - 1, n - 1, -1):
        t = v[k]
        if t:
            for j, c in low:
                v[k - n + j] -= t * c
    return zx_trim(v[:n])


# ---------------------------------------------------------------------------
# minimal and characteristic polynomials
# ---------------------------------------------------------------------------

def min_poly(a: NumberFieldElem) -> Poly:
    """Monic minimal polynomial of a over Q (irreducible, being minimal for
    a field element).

    Krylov over Z.  Row k holds the integer coordinates d_k a^k of the k-th
    power (d_k its common denominator), followed by d_k e_k, which tracks
    the row as a combination of the powers.  It is reduced
    against the echelon rows R_1, R_2, ... by Bareiss's one-step rule
    row <- (P_i row - row[c_i] R_i) / P_(i-1), with c_i the pivot column of
    R_i, P_i = R_i[c_i] and P_0 = 1; every entry stays a minor of the
    matrix, so the division is exact (Bareiss, Math. Comp. 1968).  A step
    with row[c_i] = 0 would only scale the row by P_i / P_(i-1), and these
    factors telescope: the row skips such steps, and the next nonzero step
    divides by the pivot of the last step taken instead.  An unreduced
    power of a sparse element then costs a scan, not a rescaling.  The
    entry a step zeroes is not computed: R_i is stored with 0 at c_i.  The
    first row that reduces to zero ends in the coefficients of the first
    linear dependency among the powers.

    That relation divided by its content is the primitive integer minimal
    polynomial P with lc(P) > 0, and P / lc(P) is already in Poly's
    canonical form, so ``min_poly(a).int_form()`` returns (P, lc(P)) with
    no gcd.  char_poly_resultant below is the independent route.
    """
    n = a.field.degree
    rows: list[tuple[int, int, list[int]]] = []   # (c_i, P_i, R_i)
    power = a.field.one()
    for k in range(n + 1):
        nums, den = power.rep.int_form()
        row = nums + [0] * (2 * n + 1 - len(nums))
        row[n + k] = den
        last = 1            # P of the last step taken
        step = None
        for c, p, r in rows:
            x = row[c]
            if x:
                row[c] = 0
                step = row, x, p, r, last
                row = [(p * u - x * v) // last for u, v in zip(row, r)]
                last = p
        pivot = next((i for i in range(n) if row[i]), None)
        if pivot is None:
            m = row[n:n + k + 1]
            if step:
                # when p | x on the zeroing step, (u - (x/p) v) / P_prev is
                # the relation over p, if exact: no big content to remove
                u, x, p, r, d = step
                q, rest = divmod(x, p)
                if not rest:
                    qr = [divmod(e - q * h, d) for e, h in
                          zip(u[n:n + k + 1], r[n:n + k + 1])]
                    if not any(s for _, s in qr):
                        m = [e for e, _ in qr]
            # the content divides the leading coefficient: start the gcd
            # there, where a coefficient that it divides costs one division
            g = math.gcd(*reversed(m))
            if m[-1] < 0:
                g = -g
            return Poly._make(tuple(c // g for c in m), m[-1] // g)
        top = rows[-1][1] if rows else 1
        if last != top:     # the skipped steps' factor P_r / P_last
            row = [u * top // last for u in row]
        rows.append((pivot, row[pivot], row))
        row[pivot] = 0
        power = power * a
    raise AssertionError("no dependency among n+1 vectors in dimension n")


def char_poly_resultant(a: NumberFieldElem) -> Poly:
    """Characteristic polynomial det(x - mult_a) as Res_t(p(t), x - rep(t)).

    Evaluation-interpolation: the resultant is evaluated at x = 0..n and the
    degree-n monic result recovered by Newton interpolation.  Slower than the
    Krylov route in min_poly but completely independent of it.
    """
    from .polys import resultant

    n = a.field.degree
    xs = [Fraction(i) for i in range(n + 1)]
    ys = [resultant(a.field.modulus, Poly.const(x0) - a.rep) for x0 in xs]
    # Newton divided differences
    coef = list(ys)
    for j in range(1, n + 1):
        for i in range(n, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    out = Poly.zero()
    for i in range(n, -1, -1):
        out = out * (Poly.x() - xs[i]) + Poly.const(coef[i])
    return out


# ---------------------------------------------------------------------------
# complex roots
# ---------------------------------------------------------------------------

def _complex_horner(coeffs: list[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _scaled(f: Poly) -> list[float]:
    """Each coefficient of f over the largest in absolute value, correctly
    rounded.  The ratios share f's denominator, so each is one integer true
    division of numerators, which rounds the exact ratio as float() of the
    Fraction quotient would, without its gcd."""
    nums, _ = f.int_form()
    big = max(map(abs, nums))
    return [c / big for c in nums]


def poly_complex_roots(f: Poly) -> list[complex]:
    """The deg f complex roots of f to high relative accuracy, in no order.

    Durand-Kerner iteration from the standard deterministic start; each
    root is verified by a relative residual bound, so a non-converging
    (ill-conditioned) polynomial raises instead of returning junk.
    Coefficients are rescaled exactly before the float conversion, so huge
    rational coefficients are fine as long as their ratios fit in doubles.
    """
    n = f.degree
    if n < 1:
        raise DegenerateInputError("root finding needs a nonconstant polynomial")
    cs = _scaled(f)
    if cs[-1] == 0.0:
        raise EmbeddingError("leading coefficient underflows after rescaling")
    # the Weierstrass correction below assumes a monic polynomial
    lead = cs[-1]
    cs = [c / lead for c in cs]
    if not all(math.isfinite(c) for c in cs):
        raise EmbeddingError("coefficient ratios exceed float range")
    radius = 1.0 + max(abs(c) for c in cs[:-1])
    zs = [radius * (0.4 + 0.9j) ** k / abs((0.4 + 0.9j) ** k) * (0.9 + 0.1 * k / n)
          for k in range(n)]
    for _ in range(1000):
        moved = 0.0
        for k in range(n):
            d = 1.0 + 0j
            for j in range(n):
                if j != k:
                    d *= zs[k] - zs[j]
            if d == 0:
                zs[k] += 1e-6 + 1e-6j
                moved = math.inf
                continue
            step = _complex_horner(cs, zs[k]) / d
            zs[k] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14 * (1.0 + max(abs(z) for z in zs)):
            break
    for z in zs:
        if abs(_complex_horner(cs, z)) > 1e-12 * (1.0 + abs(z)) ** n:
            raise EmbeddingError("root refinement did not reach residual bound")
    return zs


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------

def _euler_phi(n: int) -> int:
    out = n
    for p in _prime_split(n)[0]:
        out -= out // p
    return out


def root_of_unity_order(a: NumberFieldElem):
    """Smallest s with a^s = 1, or NOT_A_ROOT_OF_UNITY; decided exactly.

    A root of unity of order s has a minimal polynomial of degree phi(s)
    that is monic and integral with constant term +-1.  Since phi(s) >=
    sqrt(s/2), an order with phi(s) = d is at most 2 d^2, so the search
    below is exhaustive.
    """
    if a.is_zero():
        raise DegenerateInputError("zero is not a candidate root of unity")
    m = min_poly(a)
    nums, den = m.int_form()
    if den != 1 or abs(nums[0]) != 1:
        return NOT_A_ROOT_OF_UNITY   # cyclotomics are monic integral, const +-1
    d = m.degree
    for s in range(1, 2 * d * d + 1):
        if _euler_phi(s) == d and a ** s == 1:
            return s
    return NOT_A_ROOT_OF_UNITY


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

class Jet:
    """Truncated Taylor expansion sum_i coeffs[i] (x - center)^i, exact."""

    __slots__ = ("center", "coeffs")

    def __init__(self, center: NumberFieldElem, coeffs):
        coeffs = tuple(center.field.element(c) for c in coeffs)
        if not coeffs:
            raise DegenerateInputError("jet order must be at least 1")
        self.center = center
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def field(self) -> NumberField:
        return self.center.field

    def _check_peer(self, other: "Jet"):
        if self.center != other.center or self.order != other.order:
            raise DegenerateInputError("jet centers/orders do not match")

    def __add__(self, other) -> "Jet":
        if isinstance(other, (int, Fraction, NumberFieldElem)):
            # a constant moves the value only, so Horner runs on jets
            return Jet(self.center,
                       (self.coeffs[0] + other,) + self.coeffs[1:])
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_peer(other)
        return Jet(self.center, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __sub__(self, other: "Jet") -> "Jet":
        self._check_peer(other)
        return Jet(self.center, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, NumberFieldElem)):
            s = self.field.element(other)
            return Jet(self.center, [a * s for a in self.coeffs])
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_peer(other)
        K = self.order
        zero = self.field.zero()
        out = [zero] * K
        bnz = [(j, b) for j, b in enumerate(other.coeffs) if not b.is_zero()]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in bnz:
                if i + j >= K:
                    break
                out[i + j] = out[i + j] + a * b
        return Jet(self.center, out)

    __rmul__ = __mul__

    def first_nonzero(self, start: int = 0):
        """Smallest index >= start with a nonzero coefficient, or None."""
        for i in range(start, self.order):
            if not self.coeffs[i].is_zero():
                return i
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return self.center == other.center and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return "Jet(center=%s, coeffs=%r)" % (
            render_poly(self.center.rep, "t"),
            [render_poly(c.rep, "t") for c in self.coeffs])


def identity_jet(center: NumberFieldElem, order: int) -> Jet:
    coeffs = [center, center.field.one()] + [center.field.zero()] * (order - 2)
    return Jet(center, coeffs[:order])


def jet_at(f: Poly, center: NumberFieldElem, order: int) -> Jet:
    """Taylor coefficients of f about center up to (x-center)^(order-1).

    Repeated synthetic division by (x - center); O(order * deg f) field
    multiplications, no large intermediate expansion.
    """
    if order < 1:
        raise DegenerateInputError("jet order must be at least 1")
    if order > LIMITS.jet_order:
        raise ResourceLimitError("jet order %d exceeds cap %d"
                                 % (order, LIMITS.jet_order))
    F = center.field
    zero = F.zero()
    c = [F.element(ci) for ci in f.coeffs]
    out = []
    for _ in range(order):
        if not c:
            out.append(zero)
            continue
        if len(c) == 1:
            out.append(c[0])
            c = []
            continue
        q = [zero] * (len(c) - 1)
        q[-1] = c[-1]
        for i in range(len(c) - 3, -1, -1):
            q[i] = c[i + 1] + center * q[i + 1]
        out.append(c[0] + center * q[0])
        c = q
    return Jet(center, out)


def jet_compose(outer: Jet, inner: Jet) -> Jet:
    """Jet of (outer-function o inner-function) at inner.center.

    Requires inner.coeffs[0] == outer.center (the inner value must sit where
    the outer expansion lives) and equal orders.
    """
    if inner.coeffs[0] != outer.center:
        raise DegenerateInputError(
            "inner jet value does not match outer jet center")
    if inner.order != outer.order:
        raise DegenerateInputError("jet orders do not match")
    # Horner in s = inner - outer.center, which has zero constant term,
    # from outer's last nonzero coefficient
    cs = outer.coeffs
    top = max((i for i, a in enumerate(cs) if not a.is_zero()), default=0)
    s = inner + (-outer.center)
    zeros = (outer.field.zero(),) * (outer.order - 1)
    acc = Jet(inner.center, (cs[top],) + zeros)
    for a in reversed(cs[:top]):
        acc = acc * s + a
    return acc
