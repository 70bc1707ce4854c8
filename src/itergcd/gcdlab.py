"""Grids of gcd(f^(m) - c, g^(n) - c), linear closed forms, bundled checks.

This is the experiment layer on top of the exact kernel: compute a finite
grid of iterate gcds, factor every cell, watch whether the set of factors
stops growing, and reproduce the worked linear-map families whose common
roots have closed forms.  Finiteness of the factor universe is observed on
the grid, never asserted beyond it.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction

from .dynamics import log_escape_radius, p_valuation
from .emit import md_table
from .errors import DegenerateInputError, check_bits, check_primes
from .factoring import _factor_sort_key, _prime_split, factor_irreducible
from .modular import (
    crt_image, gf_compose_mod, gf_gcd, gf_mul, gf_rem, gf_scale, gf_sub,
    prime_stream, rational_reconstruct,
)
from .numfield import NumberField, NumberFieldElem, nf_eval
from .polys import (
    Poly, _check_iterate_degree, _check_coeff_bits, iterate, iterates,
    mult_of_factor, poly_gcd, render_poly,
)

NO_SOLUTION = "no solution"


def gcd_iterates(f: Poly, g: Poly, c: Poly, m: int, n: int) -> Poly:
    """Monic gcd(f^(m) - c, g^(n) - c); degenerate when an iterate equals c."""
    if m < 1 or n < 1:
        raise DegenerateInputError("iterate counts must be >= 1")
    lines = []
    for q, k in ((f, m), (g, n)):
        lines.append(iterate(q, k) - c)
        if not lines[-1]:
            raise DegenerateInputError(
                "iterate number %d equals the target polynomial" % k)
    return poly_gcd(*lines)


GRID_COLUMNS = ("m", "n", "degree", "gcd", "factors", "millis")


class GcdGridReport(namedtuple(
        "GcdGridReport", "f g c grid_n diagonal_only cells gcds degenerate "
        "factor_universe stabilized timings")):
    """gcd(f^(m) - c, g^(n) - c) for m, n <= grid_n, in these dicts:

    cells            (m, n) -> FactorList of the monic cell gcd
    gcds             (m, n) -> the monic cell gcd itself
    degenerate       (m, n) -> reason string, for skipped cells
    factor_universe  irreducible monic Poly -> max multiplicity seen
    timings          (m, n) -> milliseconds
    """

    __slots__ = ()

    def _cells(self):
        """(m, n, degree, gcd text, [[factor text, e], ...], millis) per
        cell.  Each distinct gcd and its factors are rendered once."""
        texts: dict = {}
        for mn in sorted(self.cells):
            h = self.gcds[mn]
            if h not in texts:
                texts[h] = render_poly(h), [[render_poly(p), e] for p, e
                                            in self.cells[mn].factors]
            yield (*mn, h.degree, *texts[h], self.timings[mn])

    def _universe(self):
        return [[render_poly(p), e]
                for p, e in sorted(self.factor_universe.items(),
                                   key=lambda t: _factor_sort_key(t[0]))]

    def to_json_dict(self) -> dict:
        return {
            "f": render_poly(self.f),
            "g": render_poly(self.g),
            "c": render_poly(self.c),
            "grid_n": self.grid_n,
            "diagonal_only": self.diagonal_only,
            "cells": [{"m": m, "n": n, "gcd": gcd_mn, "degree": degree,
                       "factors": factors, "millis": millis}
                      for m, n, degree, gcd_mn, factors, millis
                      in self._cells()],
            "degenerate_cells": [
                {"m": m, "n": n, "reason": why}
                for (m, n), why in sorted(self.degenerate.items())],
            "factor_universe": self._universe(),
            "stabilized": self.stabilized,
        }

    def table(self):
        return GRID_COLUMNS, [
            (m, n, degree, gcd_mn,
             ";".join("%s:%d" % (p, e) for p, e in factors), millis)
            for m, n, degree, gcd_mn, factors, millis in self._cells()]

    def to_md(self) -> str:
        head = ("gcd grid: f = %s, g = %s, c = %s, N = %d%s\n\n"
                % (render_poly(self.f), render_poly(self.g),
                   render_poly(self.c), self.grid_n,
                   " (diagonal)" if self.diagonal_only else ""))
        universe = md_table(("factor", "max multiplicity"), self._universe())
        tail = "\nstabilized: %s\n" % ("true" if self.stabilized else "false")
        if self.degenerate:
            tail += md_table(("m", "n", "reason"),
                             [(m, n, why) for (m, n), why
                              in sorted(self.degenerate.items())])
        return head + universe + "\n" + md_table(*self.table()) + tail


def _grid_pairs(grid_n: int, diagonal_only: bool):
    if diagonal_only:
        return [(k, k) for k in range(1, grid_n + 1)]
    return [(m, n) for m in range(1, grid_n + 1) for n in range(1, grid_n + 1)]


def _gf_iterates(q: list[int], n: int, p: int) -> list[list[int]]:
    """[q^k mod p for k = 1..n], by the left fold y <- q(y) mod p."""
    out, y = [], [0, 1]
    for _ in range(n):
        y = gf_compose_mod(q, y, None, p)
        out.append(y)
    return out


def _cell_images(a: list[int], q: list[int], q_its: list, shared: list[int],
                 c: list[int], ks, p: int) -> dict:
    """{k: gcd(a, q^k - c) mod p, monic} for the k in ks.

    shared is the product of the lines q^k - c mod p, unreduced, of the k
    in ks that have an iterate in q_its.  The iterates past q_its are
    reduced modulo a step by step, y <- q(y) mod a, and their residues
    multiplied into shared mod a.  Every gcd(a, r_k) divides gcd(a,
    product): when that is 1 every image is 1, and otherwise gcd(a, r_k) =
    gcd(common, r_k), a gcd of lower degree, since common divides a.
    """
    residues, prod = {}, shared
    if max(ks) > len(q_its):
        prod = gf_rem(shared, a, p)
        y = gf_rem(q_its[-1] if q_its else [0, 1], a, p)
        for k in range(len(q_its) + 1, max(ks) + 1):
            y = gf_compose_mod(q, y, a, p)
            if k in ks:
                residues[k] = r = gf_rem(gf_sub(y, c, p), a, p)
                prod = gf_rem(gf_mul(prod, r, p), a, p)
    common = gf_gcd(a, prod, p)
    if len(common) == 1:
        return dict.fromkeys(ks, common)
    return {k: gf_gcd(common, residues[k] if k in residues
                      else gf_sub(q_its[k - 1], c, p), p) for k in ks}


def _screen(f: Poly, g: Poly, c: Poly, p: int, pairs) -> dict:
    """{(m, n): (monic cell gcd mod p, millis)} for the cells in pairs.

    The rows are the lines f^m - c of the lower-degree map (f and g swap
    when deg f > deg g), and one Euclid modulo a row screens all its cells;
    a cell's millis is its share of its row's time.  g's iterates are
    folded mod p up to the degree of the largest row, and the prefix
    products of their lines formed once per set of columns (charged to the
    row that forms them).  A row's Euclid takes, unreduced, the product up
    to the first line past the row, and the iterates beyond are composed:
    a step costs deg g products modulo the row, reducing a line t steps
    past it (deg g)^t - 1.  Rows with equal lines mod p and equal columns,
    as every row of a constant map is, share one Euclid.
    """
    grid_n, swap = max(map(max, pairs)), f.degree > g.degree
    if swap:
        f, g, pairs = g, f, [(n, m) for m, n in pairs]
    rows: dict = {}
    for m, n in pairs:
        rows.setdefault(m, []).append(n)
    fp, gp, cp = (gf_scale(nums, pow(den, -1, p), p)
                  for nums, den in (q.int_form() for q in (f, g, c)))
    f_its = _gf_iterates(fp, max(rows), p)
    top = max(f.degree ** max(rows), c.degree)
    n_fit = sum(g.degree ** n <= top for n in range(1, grid_n + 1))
    g_its = _gf_iterates(gp, n_fit, p)
    prefixes, seen, screened = {}, {}, {}
    for m, ns in rows.items():
        t0 = time.perf_counter()
        cols = tuple(ns)
        if cols not in prefixes:
            prefix = prefixes[cols] = [[1]]
            for n in range(1, n_fit + 1):
                prefix.append(gf_mul(prefix[-1], gf_sub(g_its[n - 1], cp, p),
                                     p) if n in ns else prefix[-1])
        a = gf_sub(f_its[m - 1], cp, p)
        j = sum(g.degree ** (n - 1) < len(a) for n in range(1, n_fit + 1))
        row = tuple(a), cols
        if row not in seen:
            seen[row] = _cell_images(a, gp, g_its[:j], prefixes[cols][j], cp,
                                     ns, p)
        share = (time.perf_counter() - t0) * 1000.0 / len(ns)
        for n, h in seen[row].items():
            screened[(n, m) if swap else (m, n)] = h, share
    return screened


def _proof_prime(f: Poly, g: Poly, c: Poly):
    """A prime p at which no cell (m, n) has a common root, or None.

    For c constant, deg f, deg g >= 2 and f = sum a_i x^i: every root of
    g^n - c lies in |z|_p <= r = max(R_g, |c|_p), R the escape radius.  If
    |a_0|_p > |a_i|_p r^i for i >= 1, |f(z)|_p = |a_0|_p there, and if also
    |a_0|_p > max(R_f, |c|_p), f's orbit of the disk never comes back to c.
    Exact logarithms to base p, f and g in both orders; only a prime of
    f's denominator can pass, since v_p(a_0) or v_p(a_d) must be < 0.
    Valuations cost long divisions, quadratic in a coefficient's size, so
    maps or targets with a coefficient past 2^12 bits are not tried."""
    forms = [q.int_form() for q in (f, g, c)]
    if (c.degree > 0 or f.degree < 2 or g.degree < 2
            or max(abs(a).bit_length() for nums, den in forms
                   for a in (den, *nums)) > 1 << 12):
        return None
    for q, h in ((f, g), (g, f)):
        for p in _prime_split(q.int_form()[1])[0] if q[0] else ():
            vc = [-p_valuation(c[0], p)] if c else []
            lr, a0 = max([log_escape_radius(h, p), *vc]), -p_valuation(q[0], p)
            if all(a0 > b for b in (log_escape_radius(q, p), *vc, *(
                    i * lr - p_valuation(a, p)
                    for i, a in enumerate(q.coeffs) if i and a))):
                return p
    return None


def _orbit(q: Poly, t: NumberFieldElem, n: int) -> list:
    """[q^k(t) for k = 1..n], each element through check_bits as each
    iterate over Q is."""
    out, y = [], t
    for _ in range(n):
        y = nf_eval(q, y)
        _check_coeff_bits(y.rep)
        out.append(y)
    return out


def _lines(f: Poly, g: Poly, c: Poly, grid_n: int):
    """([the k with f^k = c, the k with g^k = c], bad), bad the numbers a
    prime must not divide to keep the degree of every line q^k - c.

    Only lines of a constant map or of an iterate of the degree of c can
    vanish or lose their leading term, so only these are formed over Q, of
    degree at most deg c; the others lead with q^k's or c's term."""
    bad = [b for q in (f, g, c) for nums, den in [q.int_form()]
           for b in (den, *nums[-1:])]
    zero = []
    for q in (f, g):
        ks = [k for k in range(1, grid_n + 1)
              if q.degree < 1 or q.degree ** k == c.degree]
        its = iterates(q, max(ks)) if ks else []
        lines = {k: its[k - 1] - c for k in ks}
        zero.append({k for k, line in lines.items() if not line})
        bad += [line.int_form()[0][-1] for line in lines.values() if line]
    return zero, bad


def _lift(f: Poly, g: Poly, c: Poly, images: dict) -> dict:
    """(m, n) -> (gcd, factors, millis) for each cell its image settles.

    Each prime keeps the degree of every line (`_lines`) and so of the
    primitive gcd G, and G mod p divides the image: an image 1 is the gcd.
    Any other image (acc, mod) is lifted to the monic H over Q whose
    coefficients reconstruct acc mod the product of the primes, and H is
    kept for the cells whose iterates it divides: H | f^m - c when f^m(t) =
    c(t) in Q[t]/(H), one orbit of t per map and H.  H | G and deg H = deg
    image >= deg G then give H = G, multiplicities included.  A cell whose
    image fails to lift or to verify is left out.
    """
    groups: dict = {}
    for mn, (acc, mod) in images.items():
        groups.setdefault((tuple(acc), mod), []).append(mn)
    settled = {}
    for (image, mod), cells in groups.items():
        t0 = time.perf_counter()
        coeffs = [rational_reconstruct(a, mod) for a in image]
        if None in coeffs:
            continue
        h = Poly(coeffs)
        if h.degree:
            t = NumberField(h, check=False).generator()
            f_its = _orbit(f, t, max(m for m, _ in cells))
            g_its = _orbit(g, t, max(n for _, n in cells))
            c_t = nf_eval(c, t)
            cells = [(m, n) for m, n in cells
                     if f_its[m - 1] == c_t == g_its[n - 1]]
        if cells:
            factors = factor_irreducible(h)
            share = (time.perf_counter() - t0) * 1000.0 / len(cells)
            for mn in cells:
                settled[mn] = h, factors, share
    return settled


def gcd_grid(f: Poly, g: Poly, c: Poly, grid_n: int,
             diagonal_only: bool = False) -> GcdGridReport:
    """Factor every admissible grid cell and aggregate the factor universe.

    Cells where an iterate equals c are recorded in `degenerate` and skipped;
    no cell error aborts the rest.  `stabilized` means the outer shell
    (any cell with m or n equal to grid_n) introduced no factor unseen in
    the interior, which is the observable shadow of the finiteness claims.

    A screen modulo a prime (`_screen`) takes each cell's gcd mod p
    without expanding an iterate over Q, and `_lift` turns the images into
    verified gcds.  The cells it leaves are screened at the next prime, up
    to LIMITS.gcd_primes primes, each cell's images taken in by `crt_image`.
    A grid that `_proof_prime` proves trivial at one prime takes no screen.
    """
    if grid_n < 1:
        raise DegenerateInputError("grid size must be >= 1")
    pairs = _grid_pairs(grid_n, diagonal_only)
    _check_iterate_degree(f, grid_n)
    _check_iterate_degree(g, grid_n)
    t0 = time.perf_counter()
    degenerate, bad, settled = {}, [], {}
    if _proof_prime(f, g, c):
        trivial = Poly.const(1), factor_irreducible(Poly.const(1))
        share = (time.perf_counter() - t0) * 1000.0 / len(pairs)
        settled = dict.fromkeys(pairs, (*trivial, share))
    else:
        (zero_f, zero_g), bad = _lines(f, g, c, grid_n)
        for m, n in pairs:
            if m in zero_f:
                degenerate[(m, n)] = "f iterate %d equals c" % m
            elif n in zero_g:
                degenerate[(m, n)] = "g iterate %d equals c" % n
    todo = [mn for mn in pairs if mn not in degenerate and mn not in settled]
    images, millis = {}, dict.fromkeys(todo, 0.0)
    for drawn, p in enumerate(prime_stream(), 1):
        if not todo:
            break
        check_primes(drawn)
        if any(b % p == 0 for b in bad):
            continue
        fresh = {}
        for mn, (h, share) in _screen(f, g, c, p, todo).items():
            millis[mn] += share
            state = crt_image(images.get(mn), h, p)
            if state is not None:
                images[mn] = fresh[mn] = state
        for mn, (h, factors, share) in _lift(f, g, c, fresh).items():
            settled[mn] = h, factors, millis[mn] + share
        todo = [mn for mn in todo if mn not in settled]

    cells = {mn: fl for mn, (_, fl, _) in settled.items()}
    gcds = {mn: h for mn, (h, _, _) in settled.items()}
    timings = {mn: ms for mn, (_, _, ms) in settled.items()}
    universe: dict = {}
    for fl in cells.values():
        for p, e in fl.factors:
            universe[p] = max(universe.get(p, 0), e)
    inner = {p for mn, fl in cells.items() if max(mn) < grid_n
             for p, _ in fl.factors}
    return GcdGridReport(f, g, c, grid_n, diagonal_only, cells, gcds,
                         degenerate, universe, universe.keys() <= inner,
                         timings)


# ---------------------------------------------------------------------------
# linear maps: closed-form common roots
# ---------------------------------------------------------------------------

def linear_common_root(alpha, beta, gamma, n: int, c: Poly | None = None):
    """The unique lambda with alpha^n * lambda = beta^n * lambda + gamma * S_n.

    This solves f^(n)(lambda) = g^(n)(lambda) for f = alpha*x and
    g = beta*x + gamma, where S_n is the geometric sum 1 + beta + ... +
    beta^(n-1).  When alpha^n = beta^n the two iterates are parallel and
    there is no (or no unique) solution; that is a degenerate input.  When
    c is supplied the common value is also required to equal c(lambda),
    returning NO_SOLUTION otherwise.  An alpha^n or beta^n of more than
    LIMITS.max_coeff_bits raises ResourceLimitError, unbuilt when a lower
    bound on its bits already passes the cap.
    """
    if not all(isinstance(v, (int, Fraction)) for v in (alpha, beta, gamma)):
        raise DegenerateInputError("linear coefficients must be rational")
    alpha, beta, gamma = map(Fraction, (alpha, beta, gamma))
    if n < 1:
        raise DegenerateInputError("need n >= 1")
    if alpha == 0:
        raise DegenerateInputError("alpha must be nonzero")
    # the n-th power of an integer of b >= 1 bits has n (b - 1) + 1 bits or
    # more; count numerator plus denominator bits, as parser._power does
    for q in (alpha, beta):
        check_bits(n * (q.numerator.bit_length()
                        + q.denominator.bit_length() - 2) + 2)
    an = alpha ** n
    bn = beta ** n
    for q in (an, bn):
        check_bits(q.numerator.bit_length() + q.denominator.bit_length())
    if an == bn:
        raise DegenerateInputError(
            "alpha^n equals beta^n; the iterates never separate")
    geo = Fraction(n) if beta == 1 else (bn - 1) / (beta - 1)
    lam = gamma * geo / (an - bn)
    if c is not None and an * lam != c.evaluate(lam):
        return NO_SOLUTION
    return lam


def linear_normal_form(f: Poly, g: Poly):
    """Conjugate a pair of degree-1 maps to (alpha*x, beta*x + gamma).

    Returns (alpha, beta, gamma, shift, swapped): the conjugation is by
    x -> x + shift, so a common root lam in normal coordinates corresponds
    to lam + shift for the original pair; swapped records whether the roles
    of f and g were exchanged to put the map with a fixed point first.
    Two translations commute and are rejected.
    """
    if f.degree != 1 or g.degree != 1:
        raise DegenerateInputError("both maps must have degree 1")
    a1, a0 = f[1], f[0]
    b1, b0 = g[1], g[0]
    swapped = False
    if a1 == 1:
        if b1 == 1:
            raise DegenerateInputError(
                "two translations commute; the pair is compositionally "
                "dependent and has no normal form")
        a1, a0, b1, b0 = b1, b0, a1, a0
        swapped = True
    shift = a0 / (1 - a1)  # the fixed point of the first map
    gamma = b1 * shift + b0 - shift
    return a1, b1, gamma, shift, swapped


# ---------------------------------------------------------------------------
# bundled worked families
# ---------------------------------------------------------------------------

class SuiteRow(namedtuple("SuiteRow", "family n claim ok")):
    """One checked claim: family and claim are str, n an int, ok a bool."""

    __slots__ = ()


class SuiteReport(namedtuple("SuiteReport", "rows")):
    __slots__ = ()

    @property
    def all_pass(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json_dict(self) -> dict:
        return {"rows": [r._asdict() for r in self.rows],
                "all_pass": self.all_pass}

    def table(self):
        return SuiteRow._fields, self.rows

    def to_md(self) -> str:
        return (md_table(*self.table())
                + "\nall pass: %s\n" % ("true" if self.all_pass else "false"))


def reference_suite() -> SuiteReport:
    """Re-run the three worked families with exact arithmetic.

    Family 1: f = 2x, g = x + 1, c = x^2.  f^(n) - c = -x(x - 2^n), and the
    matching g-iterate count m = 2^n(2^n - 1) makes (x - 2^n) a common root.

    Family 2: f = x/2, g = 2x + 1, c = -(x + 1).  The closed-form common
    root is -2^n/(2^n + 1) and satisfies all three equalities.

    Family 3: f = x^3 + x^2, g = x^3 + 5x^2.  The gcd of the n-th iterates
    is divisible by x to the order 2^n exactly, an unbounded-multiplicity
    family (both maps have 0 in a ramified fixed point).
    """
    x = Poly.x()
    rows = []

    f1, g1, c1 = 2 * x, x + 1, x ** 2
    for n in range(1, 7):
        root = Poly.const(2 ** n)
        m = 2 ** n * (2 ** n - 1)
        lhs = iterate(f1, n) - c1
        rhs = iterate(g1, m) - c1
        ok = (lhs % (x - root)).is_zero() and (rhs % (x - root)).is_zero()
        rows.append(SuiteRow("affine-pair", n,
                             "(x - 2^%d) divides both f^(%d)-c and g^(%d)-c"
                             % (n, n, m), ok))

    f2 = Poly([0, Fraction(1, 2)])
    g2 = 2 * x + 1
    c2 = -(x + 1)
    for n in range(1, 21):
        lam = linear_common_root(Fraction(1, 2), 2, 1, n, c=c2)
        expected = Fraction(-(2 ** n), 2 ** n + 1)
        ok = (lam == expected
              and iterate(f2, n).evaluate(lam) == c2.evaluate(lam)
              and iterate(g2, n).evaluate(lam) == c2.evaluate(lam))
        rows.append(SuiteRow("halving-doubling pair", n,
                             "common root is -2^%d/(2^%d + 1)" % (n, n), ok))

    f3 = x ** 3 + x ** 2
    g3 = x ** 3 + 5 * x ** 2
    for n in range(1, 5):
        gc = gcd_iterates(f3, g3, Poly.zero(), n, n)
        ok = mult_of_factor(gc, x) == 2 ** n
        rows.append(SuiteRow("shared squared seed", n,
                             "x divides gcd of the n-th iterates exactly "
                             "2^%d times" % n, ok))
    return SuiteReport(tuple(rows))
