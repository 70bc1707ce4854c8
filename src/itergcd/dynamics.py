"""Orbits, cycle classification, and the composition-word semigroup.

Orbits are computed exactly over a number field; periodicity is detected by
hashing exact values.  Orbits that neither repeat nor stay small terminate
with an explicit escape record instead of an error, because over a number
field an orbit that leaves every bounded set never returns (heights grow
under iteration), so a blown size cap is decisive for non-periodicity while
a blown step cap is not.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import (
    DegenerateInputError,
    LIMITS,
    ResourceLimitError,
    VerificationError,
)
from .factoring import _valuation
from .polys import Poly, _compose_checked, iterate
from .numfield import NumberFieldElem, nf_eval

IN_RAMIFIED = "in-ramified-cycle"
IN_UNRAMIFIED = "in-unramified-cycle"
NOT_PERIODIC = "not-periodic"
UNDECIDED_CAP = "undecided(cap)"

ESCAPE_SIZE = "size cap"
ESCAPE_STEPS = "step cap"


class OrbitRecord(namedtuple(
        "OrbitRecord", "start points preperiod period escape_reason",
        defaults=(None,))):
    """Exact forward orbit of a point, ending at the first repeat or escape.

    When periodic, points[preperiod + period] == points[preperiod] and the
    period is minimal (first repeat of a deterministic orbit).  When escaped,
    preperiod and period are None and escape_reason says which cap fired.
    start is a NumberFieldElem and points a tuple of them.
    """

    __slots__ = ()

    @property
    def is_periodic(self) -> bool:
        return self.period is not None

    def cycle(self) -> tuple:
        if not self.is_periodic:
            raise DegenerateInputError("orbit escaped; no cycle")
        return self.points[self.preperiod:self.preperiod + self.period]


def orbit(q: Poly, x0: NumberFieldElem,
          step_cap: int | None = None, size_cap: int | None = None) -> OrbitRecord:
    """Iterate q from x0 until a repeated value, a step cap, or a size cap."""
    if q.degree < 1:
        raise DegenerateInputError("orbit map must be nonconstant")
    if step_cap is None:
        step_cap = LIMITS.orbit_steps
    if size_cap is None:
        size_cap = LIMITS.orbit_elem_bits
    if step_cap < 1 or size_cap < 1:
        raise DegenerateInputError("orbit step and size caps must be >= 1")
    seen = {x0: 0}
    points = [x0]
    cur = x0
    for step in range(1, step_cap + 1):
        cur = nf_eval(q, cur)
        points.append(cur)
        if cur.bit_size() > size_cap:
            return OrbitRecord(x0, tuple(points), None, None, ESCAPE_SIZE)
        if cur in seen:
            first = seen[cur]
            return OrbitRecord(x0, tuple(points), first, step - first)
        seen[cur] = step
    return OrbitRecord(x0, tuple(points), None, None, ESCAPE_STEPS)


def ramified_cycle_check(q: Poly, c: NumberFieldElem) -> str:
    """Is c a periodic point of q lying in a ramified cycle?

    Ramified means the cycle contains a critical point, equivalently
    (q^(period))'(c) == 0, which the chain rule turns into a product of q'
    along the cycle.  Escape by size cap is reported as not-periodic (the
    orbit left every bounded set); escape by step cap alone is undecided.
    """
    if q.degree < 2:
        raise DegenerateInputError("cycle classification needs degree >= 2")
    rec = orbit(q, c)
    if not rec.is_periodic:
        return NOT_PERIODIC if rec.escape_reason == ESCAPE_SIZE else UNDECIDED_CAP
    if rec.preperiod != 0:
        return NOT_PERIODIC
    qd = q.derivative()
    deriv = c.field.one()
    for pt in rec.cycle():
        deriv = deriv * nf_eval(qd, pt)
    return IN_RAMIFIED if deriv.is_zero() else IN_UNRAMIFIED


def compositional_power_check(c: Poly, f: Poly):
    """The k >= 1 with c = f composed with itself k times, or "none".

    Needs deg f >= 2, where deg c = (deg f)^k names the only candidate k.
    """
    if f.degree < 2:
        raise DegenerateInputError("base map needs degree >= 2")
    df, dc = f.degree, c.degree
    k, pw = 0, 1
    while pw < dc:
        pw *= df
        k += 1
    if pw != dc or k == 0:
        return "none"
    return k if iterate(f, k) == c else "none"


def p_valuation(a: Fraction, p: int) -> int:
    """v_p of a nonzero rational a, for a prime p."""
    return _valuation(a.numerator, p) - _valuation(a.denominator, p)


def log_escape_radius(q: Poly, p: int) -> Fraction:
    """log_p of the p-adic escape radius of q = sum a_i x^i, deg q >= 2:
    the max of v(a_d)/(d - 1) and (v(a_d) - v(a_i))/(d - i) over a_i != 0.
    Past it |q(z)|_p = |a_d|_p |z|_p^d > |z|_p, so an orbit grows at every
    step (Silverman, The Arithmetic of Dynamical Systems, ch. 5)."""
    d, vd = q.degree, p_valuation(q.leading(), p)
    return max([Fraction(vd, d - 1)] + [
        Fraction(vd - p_valuation(a, p), d - i)
        for i, a in enumerate(q.coeffs[:-1]) if a])


# ---------------------------------------------------------------------------
# words in the two-generator composition semigroup
# ---------------------------------------------------------------------------

class Word(namedtuple("Word", "runs")):
    """Canonical word: alternating runs (generator, exponent), exponents >= 1.

    Generators are the letters "F" and "G"; the word (F,2),(G,1) denotes the
    composition f o f o g (leftmost applied last, as usual for o).
    """

    __slots__ = ()

    def __new__(cls, runs: tuple):
        for gen, exp in runs:
            if gen not in ("F", "G") or exp < 1:
                raise DegenerateInputError("bad word run %r" % ((gen, exp),))
        for (g1, _), (g2, _) in zip(runs, runs[1:]):
            if g1 == g2:
                raise DegenerateInputError("word runs must alternate generators")
        return super().__new__(cls, runs)

    # _replace builds through _make, which would skip the checks above
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @classmethod
    def from_letters(cls, letters: str) -> "Word":
        runs: list[tuple[str, int]] = []
        for ch in letters:
            if ch not in ("F", "G"):
                raise DegenerateInputError("word letters must be F or G")
            if runs and runs[-1][0] == ch:
                runs[-1] = (ch, runs[-1][1] + 1)
            else:
                runs.append((ch, 1))
        return cls(tuple(runs))

    def letters(self) -> str:
        return "".join(g * e for g, e in self.runs)

    def render(self) -> str:
        return "".join(g if e == 1 else "%s^%d" % (g, e) for g, e in self.runs)

    def __repr__(self) -> str:
        return "Word(%s)" % self.render()


def word_compose(w: Word, f: Poly, g: Poly) -> Poly:
    """Evaluate the word in the composition semigroup (empty word = x)."""
    acc = Poly.x()
    for gen, exp in w.runs:
        acc = acc.compose(iterate(f if gen == "F" else g, exp))
    return acc


def _word(length: int, mask: int) -> Word:
    """The word whose i-th letter is G when bit length - 1 - i of mask is set."""
    return Word.from_letters("".join(
        "G" if (mask >> (length - 1 - i)) & 1 else "F" for i in range(length)))


def independence_probe(f: Poly, g: Poly, max_len: int):
    """Search for two distinct words of total exponent <= max_len that
    evaluate to the same polynomial.

    Returns ("dependent", (w1, w2)) on the first collision in graded
    lexicographic order (F before G), or ("no-collision-up-to", max_len).
    Only dependence is ever certified; absence of a collision up to a bound
    proves nothing beyond the bound.

    Each word of length L is its first letter composed with the word of its
    last L - 1 letters, which the previous length already holds: one
    composition per word, the small map outside, as in ``iterates``.  Words
    past the degree or coefficient caps raise ResourceLimitError, and so
    does a length whose words would take the number kept past
    ``LIMITS.indep_words``, before any of them is built.  The two colliding
    words are evaluated again by ``word_compose``.
    """
    if f.degree < 1 or g.degree < 1:
        raise DegenerateInputError("independence probe needs nonconstant maps")
    if max_len < 1:
        raise DegenerateInputError("independence probe needs max_len >= 1")
    seen: dict[Poly, tuple] = {}   # polynomial -> (length, mask) of its word
    suffixes = [Poly.x()]
    for length in range(1, max_len + 1):
        kept = len(seen) + (1 << length)
        if kept > LIMITS.indep_words:
            raise ResourceLimitError(
                "words of length %d would keep %d words, past the cap %d"
                % (length, kept, LIMITS.indep_words))
        top = 1 << (length - 1)
        words = []
        for mask in range(1 << length):
            p = _compose_checked(g if mask & top else f,
                                 suffixes[mask & (top - 1)])
            other = seen.get(p)
            if other is not None:
                w1, w2 = _word(*other), _word(length, mask)
                if word_compose(w1, f, g) != word_compose(w2, f, g):
                    raise VerificationError(
                        "words %s and %s do not collide"
                        % (w1.render(), w2.render()))
                return ("dependent", (w1, w2))
            seen[p] = (length, mask)
            words.append(p)
        suffixes = words
    return ("no-collision-up-to", max_len)


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------

def chebyshev(d: int) -> Poly:
    """Monic normalization: c_d(y + 1/y) = y^d + 1/y^d; c_2 = x^2 - 2."""
    if d < 1:
        raise DegenerateInputError("chebyshev degree must be >= 1")
    prev = Poly.const(2)
    cur = Poly.x()
    for _ in range(d - 1):
        prev, cur = cur, Poly.x() * cur - prev
    return cur
