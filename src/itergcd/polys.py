"""Dense univariate polynomials over Q.

Poly is immutable and stores an integer form: a tuple of little-endian
integer numerators over one positive common denominator, with trailing zeros
stripped and no factor shared by the denominator and every numerator.  Two
equal polynomials therefore have equal forms, and arithmetic never leaves
the integers: sums rescale to the common denominator and cancel only what
the two denominators share, products go straight to ``modular.zx_mul`` with
the cross-cancellation of ``Fraction`` multiplication.  ``Fraction``
coefficients are the public view (``coeffs``, indexing, ``leading``), built
once per polynomial on first use.  Denominators are cleared once and kept,
as in von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 6.

The gcd is the modular CRT + rational-reconstruction route;
``poly_gcd_subresultant`` is the independent slow route and the two are
cross-checked in the test suite.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections.abc import Iterable
from fractions import Fraction

from . import modular
from .errors import DegenerateInputError, LIMITS, check_bits, check_degree

Scalar = int | Fraction


class _LowestTerms:
    """A numbers.Rational view of a numerator and denominator already in
    lowest terms.  Fraction() copies such a value as it is, so a huge
    coefficient known to be reduced becomes a Fraction without a gcd."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


numbers.Rational.register(_LowestTerms)


class Poly:
    __slots__ = ("_n", "_d", "_q")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        q = [Fraction(a) for a in coeffs]
        while q and q[-1] == 0:
            q.pop()
        den = math.lcm(*{a.denominator for a in q})
        # over the lcm of reduced fractions the form is already canonical
        self._n = tuple(a.numerator * (den // a.denominator) for a in q)
        self._d = den
        self._q = tuple(q)

    @classmethod
    def _make(cls, nums: tuple, den: int) -> "Poly":
        """Wrap a form that is already canonical."""
        p = object.__new__(cls)
        p._n = nums
        p._d = den
        p._q = None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls._make((), 1)

    @classmethod
    def const(cls, a: Scalar) -> "Poly":
        q = Fraction(a)
        if not q:
            return cls.zero()
        p = cls._make((q.numerator,), q.denominator)
        p._q = (q,)
        return p

    @classmethod
    def x(cls) -> "Poly":
        return cls._make((0, 1), 1)

    # -- basics ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        q = self._q
        if q is None:
            n, d = self._n, self._d
            if d == 1:
                q = tuple(map(Fraction, n))
            elif len(n) - n.count(0) == 1:
                # a single term is in lowest terms by the canonical form
                q = tuple(_fraction(c, d) if c else Fraction(0) for c in n)
            else:
                q = tuple(Fraction(c, d) for c in n)
            self._q = q
        return q

    @property
    def degree(self) -> int:
        return len(self._n) - 1

    def is_zero(self) -> bool:
        return not self._n

    def is_constant(self) -> bool:
        return len(self._n) <= 1

    def leading(self) -> Fraction:
        if not self._n:
            return Fraction(0)
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self._n):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self._d == other._d and self._n == other._n
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        # hash(Fraction(n)) == hash(n): the same value without the Fractions
        if self._d == 1:
            return hash(("Poly", self._n))
        return hash(("Poly", self.coeffs))

    def __bool__(self) -> bool:
        return bool(self._n)

    def __repr__(self) -> str:
        return "Poly(%r)" % render_poly(self)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make(tuple(-a for a in self._n), self._d)

    def __sub__(self, other) -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _add(self, other, -1)

    def __rsub__(self, other) -> "Poly":
        return -(self - other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        an, ad, bn, bd = self._n, self._d, other._n, other._d
        if not an or not bn:
            return Poly.zero()
        if ad != bd:
            # cancel each content against the other denominator, as
            # Fraction multiplication does; equal denominators (self * self
            # among them) share nothing with either content
            g = _content_gcd(an, bd)
            if g != 1:
                an = [a // g for a in an]
                bd //= g
            g = _content_gcd(bn, ad)
            if g != 1:
                bn = [b // g for b in bn]
                ad //= g
        return Poly._make(tuple(modular.zx_mul(an, bn)), ad * bd)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        return modular._binary_power(self, e, Poly.const(1), Poly.__mul__)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Pseudo-division over Z: scale*A = quo*B + rem, then back to Q."""
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d = other.degree
        rem = list(self._n)
        b = other._n
        lb = b[-1]
        bnz = [(j, c) for j, c in enumerate(b[:-1]) if c]
        quo = [0] * (len(rem) - d)
        scale = 1
        for k in range(len(quo) - 1, -1, -1):
            t = rem[k + d]
            if not t:
                continue
            if lb != 1:
                # scale by just enough to make t divisible by lb
                g = math.gcd(t, lb)
                s = lb // g
                t //= g
                if s != 1:
                    scale *= s
                    for i in range(k + d):
                        rem[i] *= s
                    for i in range(k + 1, len(quo)):
                        quo[i] *= s
            quo[k] = t
            rem[k + d] = 0
            for j, c in bnz:
                rem[k + j] -= t * c
        den = scale * self._d
        return (_from_ints([q * other._d for q in quo], den),
                _from_ints(rem[:d], den))

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- structure ----------------------------------------------------------

    def int_form(self) -> tuple[list[int], int]:
        """(integer coefficient list, positive denominator) with f = list/den."""
        return list(self._n), self._d

    @classmethod
    def from_int_list(cls, coeffs: list[int], den: int = 1) -> "Poly":
        return _from_ints(list(coeffs), den)

    def monic(self) -> "Poly":
        n = self._n
        if not n or n[-1] == self._d:
            return self
        lc = n[-1]
        nums = list(n) if lc > 0 else [-a for a in n]
        return _canon(nums, abs(lc), abs(lc))

    def derivative(self) -> "Poly":
        d = self._d
        return _canon([i * a for i, a in enumerate(self._n)][1:], d, d)

    def evaluate(self, x):
        """Horner evaluation; x may be any ring element accepting Fraction ops.

        From degree 2 on the first two Horner steps become
        c_d x^2 + c_(d-1) x + c_(d-2) with x^2 formed as ``x * x``: a product
        of one object with itself, which the integer kernels below hand to
        CPython's squaring path.
        """
        c = self.coeffs
        if len(c) < 3:
            acc, top = x * 0, len(c)
        else:
            acc, top = c[-1] * (x * x) + c[-2] * x + c[-3], len(c) - 3
        for k in range(top - 1, -1, -1):
            acc = acc * x + c[k]
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner) by Horner on the numerators, reduced once at the end.

        With self = A/da of degree n and inner = B/db, the result is
        sum a_i B^i db^(n-i) over da db^n.
        """
        a = self._n
        if not a:
            return self
        b, db = inner._n, inner._d
        acc = [a[-1]]
        s = 1
        for c in reversed(a[:-1]):
            s *= db
            acc = modular.zx_mul(acc, b)
            if c:
                if acc:
                    acc[0] += c * s
                else:
                    acc = [c * s]
        den = self._d * s
        return _canon(acc, den, den)

    def max_coeff_bits(self) -> int:
        return max((a.numerator.bit_length() + a.denominator.bit_length()
                    for a in self.coeffs), default=0)

    def shift(self, a: Scalar) -> "Poly":
        """Taylor shift: returns f(x + a)."""
        return self.compose(Poly((a, 1)))


def _coerce(v) -> "Poly":
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.const(v)
    return NotImplemented


def _fraction(n: int, d: int) -> Fraction:
    """Fraction(n, d) for n and d > 0 already coprime, without the gcd."""
    return Fraction(n) if d == 1 else Fraction(_LowestTerms(n, d))


def _content_gcd(nums, g: int) -> int:
    """gcd(content(nums), g), stopping as soon as it reaches 1."""
    for a in nums:
        if g == 1:
            break
        g = math.gcd(g, a)
    return g


def _canon(nums: list[int], den: int, g: int) -> Poly:
    """nums/den in canonical form, for den > 0.

    Only the common factor of the content and g is cancelled, so g must be
    a multiple of every factor the content can share with den.
    """
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return Poly.zero()
    if g != 1:
        g = _content_gcd(nums, g)
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
    return Poly._make(tuple(nums), den)


def _from_ints(nums: list[int], den: int) -> Poly:
    """nums/den in canonical form, for any nonzero den."""
    if den < 0:
        nums = [-a for a in nums]
        den = -den
    elif den == 0:
        raise ZeroDivisionError("polynomial with zero denominator")
    return _canon(nums, den, den)


def _add(a: Poly, b: Poly, sign: int) -> Poly:
    """a + sign*b over the lcm of the denominators.

    As in Fraction addition, the sum can share with the lcm only factors of
    gcd(den a, den b), so the reduction is against that gcd alone.
    """
    an, ad, bn, bd = a._n, a._d, b._n, b._d
    if not bn:
        return a
    g = math.gcd(ad, bd)
    sa, sb = bd // g, sign * (ad // g)
    if sa != 1:
        an = [c * sa for c in an]
    if sb != 1:
        bn = [c * sb for c in bn]
    if len(an) < len(bn):
        an, bn = bn, an
    out = [p + q for p, q in zip(an, bn)]
    out.extend(an[len(bn):])
    return _canon(out, ad * sa, g)


# ---------------------------------------------------------------------------
# composition powers
# ---------------------------------------------------------------------------

def iterates(f: Poly, n: int) -> list[Poly]:
    """[f^1, ..., f^n], the compositional powers of f, by the left fold
    F <- f(F).

    The small map stays the outer one, so each step is deg f products with
    the previous iterate, and every prefix comes for free.  The final degree
    is checked up front and each step's coefficient size as it is made.
    """
    if n < 0:
        raise ValueError("compositional power needs n >= 0")
    _check_iterate_degree(f, n)
    out = [f] if n else []
    while len(out) < n:
        out.append(_compose_checked(f, out[-1]))
    return out


def _check_iterate_degree(f: Poly, n: int) -> None:
    """Raise ResourceLimitError when deg f^n passes LIMITS.max_degree,
    without computing huge powers."""
    d = f.degree
    if d >= 2:
        if n * math.log2(d) > math.log2(LIMITS.max_degree) + 1e-9:
            check_degree(LIMITS.max_degree + 1)  # raises
        check_degree(d ** n)


def iterate(f: Poly, n: int) -> Poly:
    """n-th compositional power of f (n >= 0; f^0 is x).

    For deg f >= 2 this is the last step of the left fold in ``iterates``.
    Maps of degree at most 1 keep square-and-compose, so that very large n
    stay cheap for them; with n = 0 it returns x at once.
    """
    if n < 0:
        raise ValueError("compositional power needs n >= 0")
    if n and f.degree >= 2:
        return iterates(f, n)[-1]
    return modular._binary_power(f, n, Poly.x(), _compose_checked)


def _compose_checked(outer: Poly, inner: Poly) -> Poly:
    do, di = outer.degree, inner.degree
    if do >= 1 and di >= 1:
        check_degree(do * di)
    r = outer.compose(inner)
    _check_coeff_bits(r)
    return r


def _check_coeff_bits(r: Poly) -> None:
    """check_bits on the largest coefficient of r, numerator plus
    denominator bits.  Those of the integer form bound every reduced
    coefficient, so the exact widths are needed only near the cap."""
    if (max((a.bit_length() for a in r._n), default=0) + r._d.bit_length()
            > LIMITS.max_coeff_bits):
        check_bits(r.max_coeff_bits())


# ---------------------------------------------------------------------------
# gcd and resultant frontends
# ---------------------------------------------------------------------------

def _gcd_over_q(f: Poly, g: Poly, zx_gcd) -> Poly:
    """Monic gcd over Q from a gcd on Z[x] of the cleared numerators."""
    return _canon(zx_gcd(f.int_form()[0], g.int_form()[0]), 1, 1).monic()


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q (modular route)."""
    return _gcd_over_q(f, g, modular.zx_gcd_modular)


def poly_gcd_subresultant(f: Poly, g: Poly) -> Poly:
    """Monic gcd over Q via the subresultant PRS (cross-check route)."""
    return _gcd_over_q(f, g, modular.zx_gcd_subresultant)


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) over Q, computed modularly on cleared denominators."""
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    fn, fd = f.int_form()
    gn, gd = g.int_form()
    r = modular.zx_resultant(fn, gn)
    return Fraction(r, fd ** g.degree * gd ** f.degree)


def mult_of_factor(f: Poly, p: Poly) -> int:
    """Largest e with p^e dividing f, by repeated exact division."""
    if f.is_zero():
        raise DegenerateInputError("vanishing order of the zero polynomial")
    if p.degree < 1:
        raise DegenerateInputError("factor must be nonconstant")
    e = 0
    while True:
        quo, rem = divmod(f, p)
        if not rem.is_zero():
            return e
        f = quo
        e += 1


# ---------------------------------------------------------------------------
# canonical rendering (inverse of the CLI parser)
# ---------------------------------------------------------------------------

# Decimal digits per str() call: below 640, the smallest int->str digit
# limit an interpreter can be set to, so rendering never depends on it.
_DIGITS = 600
# the powers 10^(_DIGITS 2^i) squared up to so far
_TENS = [10 ** _DIGITS]
_TENS_LOCK = threading.Lock()


def _decimal(n: int) -> str:
    """Decimal digits of n >= 0, split into str() calls of at most _DIGITS."""
    if n < _TENS[0]:
        return str(n)
    with _TENS_LOCK:
        while _TENS[-1] <= n:
            _TENS.append(_TENS[-1] * _TENS[-1])
    i = next(i for i, p in enumerate(_TENS) if p > n) - 1
    top, low = divmod(n, _TENS[i])
    return _decimal(top) + _decimal(low).zfill(_DIGITS << i)


def _fmt_coeff(a: Fraction) -> str:
    if a.denominator == 1:
        return _decimal(a.numerator)
    return "%s/%s" % (_decimal(a.numerator), _decimal(a.denominator))


def render_poly(f: Poly, var: str = "x") -> str:
    """Canonical text form; parse(render(f)) == f."""
    if f.is_zero():
        return "0"
    parts = []
    for k in range(f.degree, -1, -1):
        a = f[k]
        if a == 0:
            continue
        sign = "-" if a < 0 else "+"
        mag = abs(a)
        if k == 0:
            body = _fmt_coeff(mag)
        else:
            xk = var if k == 1 else "%s^%d" % (var, k)
            body = xk if mag == 1 else "%s*%s" % (_fmt_coeff(mag), xk)
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += sign + body
    return out
