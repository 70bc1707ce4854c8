"""Grids of gcd(f^(m) - c, g^(n) - c), linear closed forms, bundled checks.

This is the experiment layer on top of the exact kernel: compute a finite
grid of iterate gcds, factor every cell, watch whether the set of factors
stops growing, and reproduce the worked linear-map families whose common
roots have closed forms.  Finiteness of the factor universe is observed on
the grid, never asserted beyond it.
"""

from __future__ import annotations

import time
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction

from .emit import md_table
from .errors import DegenerateInputError, check_bits
from .factoring import _factor_sort_key, factor_irreducible
from .modular import (
    gf_add, gf_compose_mod, gf_gcd, gf_mul, gf_rem, gf_scale, gf_sub,
    prime_stream, rational_reconstruct,
)
from .numfield import NumberField, NumberFieldElem, nf_eval
from .polys import (
    Poly, _check_iterate_degree, _check_coeff_bits, iterate, iterates,
    mult_of_factor, poly_gcd, render_poly,
)

NO_SOLUTION = "no solution"


def _iterate_ne_c(q: Poly, k: int, c: Poly) -> Poly:
    qk = iterate(q, k)
    if qk == c:
        raise DegenerateInputError(
            "iterate number %d equals the target polynomial" % k)
    return qk


def gcd_iterates(f: Poly, g: Poly, c: Poly, m: int, n: int) -> Poly:
    """Monic gcd(f^(m) - c, g^(n) - c); degenerate when an iterate equals c."""
    if m < 1 or n < 1:
        raise DegenerateInputError("iterate counts must be >= 1")
    return poly_gcd(_iterate_ne_c(f, m, c) - c, _iterate_ne_c(g, n, c) - c)


GRID_COLUMNS = ("m", "n", "degree", "gcd", "factors", "millis")


@dataclass(frozen=True)
class GcdGridReport:
    f: Poly
    g: Poly
    c: Poly
    grid_n: int
    diagonal_only: bool
    cells: dict            # (m, n) -> FactorList of the monic cell gcd
    gcds: dict             # (m, n) -> the monic cell gcd itself
    degenerate: dict       # (m, n) -> reason string, for skipped cells
    factor_universe: dict  # irreducible monic Poly -> max multiplicity seen
    stabilized: bool
    timings: dict          # (m, n) -> milliseconds

    def _cells(self):
        """(m, n, gcd, [[rendered factor, e], ...], millis) per cell."""
        for mn in sorted(self.cells):
            yield (*mn, self.gcds[mn],
                   [[render_poly(p), e] for p, e in self.cells[mn].factors],
                   self.timings[mn])

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
            "cells": [{"m": m, "n": n, "gcd": render_poly(gcd_mn),
                       "degree": gcd_mn.degree, "factors": factors,
                       "millis": millis}
                      for m, n, gcd_mn, factors, millis in self._cells()],
            "degenerate_cells": [
                {"m": m, "n": n, "reason": why}
                for (m, n), why in sorted(self.degenerate.items())],
            "factor_universe": self._universe(),
            "stabilized": self.stabilized,
        }

    def table(self):
        return GRID_COLUMNS, [
            (m, n, gcd_mn.degree, render_poly(gcd_mn),
             ";".join("%s:%d" % (p, e) for p, e in factors), millis)
            for m, n, gcd_mn, factors, millis in self._cells()]

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
        acc: list[int] = []
        for a in reversed(q):
            acc = gf_add(gf_mul(acc, y, p), [a], p)
        out.append(acc)
        y = acc
    return out


def _cell_images(a: list[int], q: list[int], q_its: list, c: list[int],
                 ks, p: int) -> dict:
    """{k: gcd(a, q^k - c) mod p, monic} for the k in ks.

    The iterates of q are reduced modulo a step by step, y <- q(y) mod a,
    from the last one in q_its of degree below deg a, and the residues of
    the k in ks multiplied together mod a.  Every gcd(a, r_k) divides
    gcd(a, product): when that is 1 every image is 1, and otherwise
    gcd(a, r_k) = gcd(common, r_k), a gcd of lower degree.
    """
    wanted = set(ks)
    residues = {}
    y = gf_rem([0, 1], a, p)
    for k in range(1, max(wanted) + 1):
        small = q_its[k - 1] if k <= len(q_its) else a
        y = small if len(small) < len(a) else gf_compose_mod(q, y, a, p)
        if k in wanted:
            residues[k] = gf_rem(gf_sub(y, c, p), a, p)
    prod = [1]
    for r in residues.values():
        prod = gf_rem(gf_mul(prod, r, p), a, p)
    common = gf_gcd(a, prod, p)
    if len(common) == 1:
        return dict.fromkeys(ks, common)
    return {k: gf_gcd(common, residues[k], p) for k in ks}


def _screen(f: Poly, g: Poly, c: Poly, pairs):
    """(p, {(m, n): (monic cell gcd mod p, millis)}) for the cells screened.

    The prime p divides no denominator and no leading numerator of f, g
    and c, so f^m - c keeps its degree mod p unless deg f^m = deg c, and
    likewise for g.  The image mod p of the primitive gcd over Q then keeps
    its degree and divides the cell's gcd mod p: a cell whose gcd mod p is
    1 has gcd 1, and any other has a gcd of at most that degree.

    The rows are the lines f^m - c of the lower-degree map (f and g swap
    when deg f > deg g), and one Euclid modulo a row screens all its cells;
    a cell's millis is its share of its row's time.  g's iterates are
    folded mod p only while shorter than the largest row, and each row
    reduces the longer ones itself.  Lines whose iterate has the degree of
    c, the only ones where an iterate can equal c, and constant maps are
    left to the exact route (p is None when no cell is screened).
    """
    if f.degree < 1 or g.degree < 1:
        return None, {}
    grid_n, swap = max(map(max, pairs)), f.degree > g.degree
    if swap:
        f, g, pairs = g, f, [(n, m) for m, n in pairs]
    rows: dict = {}
    for m, n in pairs:
        if c.degree not in (f.degree ** m, g.degree ** n):
            rows.setdefault(m, []).append(n)
    if not rows:
        return None, {}
    forms = [q.int_form() for q in (f, g, c)]
    bad = [b for nums, den in forms for b in (den, *nums[-1:])]
    p = next(p for p in prime_stream() if all(b % p for b in bad))
    fp, gp, cp = (gf_scale(nums, pow(den, -1, p), p) for nums, den in forms)
    f_its = _gf_iterates(fp, max(rows), p)
    top = max(f.degree ** max(rows), c.degree)
    n_small = sum(g.degree ** n < top for n in range(1, grid_n + 1))
    g_its = _gf_iterates(gp, n_small, p)
    screened = {}
    for m, ns in rows.items():
        t0 = time.perf_counter()
        images = _cell_images(gf_sub(f_its[m - 1], cp, p), gp, g_its, cp,
                              ns, p)
        share = (time.perf_counter() - t0) * 1000.0 / len(ns)
        for n, h in images.items():
            screened[(n, m) if swap else (m, n)] = h, share
    return p, screened


def _orbit(q: Poly, t: NumberFieldElem, n: int) -> list:
    """[q^k(t) for k = 1..n], each element through check_bits as each
    iterate over Q is."""
    out, y = [], t
    for _ in range(n):
        y = nf_eval(q, y)
        _check_coeff_bits(y.rep)
        out.append(y)
    return out


def _lift(f: Poly, g: Poly, c: Poly, p, images: dict) -> dict:
    """(m, n) -> (gcd, factors, millis) for each cell its image settles.

    An image 1 is the cell's gcd.  Any other image is lifted to the monic
    H over Q whose coefficients reconstruct it mod p, and H is kept for the
    cells whose iterates it divides: H | f^m - c when f^m(t) = c(t) in
    Q[t]/(H), one orbit of t per map and H.  The screen's prime keeps the
    degree of the primitive gcd G, so G mod p divides the image; H | G
    and deg H = deg image >= deg G then give H = G, multiplicities
    included.  A cell whose image fails to lift or to verify is left out.
    """
    groups: dict = {}
    for mn, (h, _) in images.items():
        groups.setdefault(tuple(h), []).append(mn)
    settled = {}
    for image, cells in groups.items():
        t0 = time.perf_counter()
        coeffs = [rational_reconstruct(a, p) for a in image]
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
                settled[mn] = h, factors, images[mn][1] + share
    return settled


def _minus_c(q: Poly, n: int, c: Poly) -> list:
    """[q^k - c for k = 1..n], None where q^k equals c."""
    return [None if qk == c else qk - c for qk in iterates(q, n)] if n else []


def gcd_grid(f: Poly, g: Poly, c: Poly, grid_n: int,
             diagonal_only: bool = False) -> GcdGridReport:
    """Factor every admissible grid cell and aggregate the factor universe.

    Cells where an iterate equals c are recorded in `degenerate` and skipped;
    no cell error aborts the rest.  `stabilized` means the outer shell
    (any cell with m or n equal to grid_n) introduced no factor unseen in
    the interior, which is the observable shadow of the finiteness claims.

    A screen modulo one prime (`_screen`) takes each cell's gcd mod p
    without expanding an iterate over Q, and `_lift` turns the images into
    verified gcds.  The other cells (constant maps, lines whose iterate has
    the degree of c, images that fail to lift or verify) take the exact
    route, poly_gcd and factor_irreducible on iterates expanded only as far
    as those cells reach.
    """
    if grid_n < 1:
        raise DegenerateInputError("grid size must be >= 1")
    pairs = _grid_pairs(grid_n, diagonal_only)
    _check_iterate_degree(f, grid_n)
    _check_iterate_degree(g, grid_n)
    settled = _lift(f, g, c, *_screen(f, g, c, pairs))
    exact = [mn for mn in pairs if mn not in settled]
    # one left fold per map; iterate k - c is then formed once per k
    f_minus_c = _minus_c(f, max((m for m, _ in exact), default=0), c)
    g_minus_c = _minus_c(g, max((n for _, n in exact), default=0), c)

    cells: dict = {}
    gcds: dict = {}
    degenerate: dict = {}
    timings: dict = {}
    for m, n in pairs:
        if (m, n) in settled:
            gcds[(m, n)], cells[(m, n)], timings[(m, n)] = settled[(m, n)]
            continue
        t0 = time.perf_counter()
        fm, gn = f_minus_c[m - 1], g_minus_c[n - 1]
        if fm is None:
            degenerate[(m, n)] = "f iterate %d equals c" % m
        elif gn is None:
            degenerate[(m, n)] = "g iterate %d equals c" % n
        else:
            gcds[(m, n)] = gcd_mn = poly_gcd(fm, gn)
            cells[(m, n)] = factor_irreducible(gcd_mn)
            timings[(m, n)] = (time.perf_counter() - t0) * 1000.0
    universe: dict = {}
    shell_new = False
    for pair in sorted(cells, key=lambda t: (max(t), t)):
        on_shell = max(pair) == grid_n
        for p, e in cells[pair].factors:
            if p not in universe and on_shell:
                shell_new = True
            if universe.get(p, 0) < e:
                universe[p] = e
    return GcdGridReport(f, g, c, grid_n, diagonal_only, cells, gcds,
                         degenerate, universe, not shell_new, timings)


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

@dataclass(frozen=True)
class SuiteRow:
    family: str
    n: int
    claim: str
    ok: bool


@dataclass(frozen=True)
class SuiteReport:
    rows: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json_dict(self) -> dict:
        return {"rows": [asdict(r) for r in self.rows],
                "all_pass": self.all_pass}

    def table(self):
        return ([f.name for f in fields(SuiteRow)],
                [astuple(r) for r in self.rows])

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
