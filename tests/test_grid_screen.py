"""The modular screen and lift of gcd_grid against the per-cell exact route.

gcd_grid settles a grid that valuations at one prime prove trivial
without any gcd.  Otherwise it takes every cell's gcd modulo a prime,
settles the cells of gcd 1 there, lifts the other images to Q and verifies
them on orbits, and screens what is left again at the next prime.  The
reference here computes every cell by poly_gcd on the iterates expanded
over Q, so the grid must give the same report, apart from the millis of
each cell.
"""

import csv
import io
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from itergcd import factoring, gcdlab, modular
from itergcd.cli import main
from itergcd.emit import emit
from itergcd.errors import DegenerateInputError, LIMITS, ResourceLimitError
from itergcd.factoring import FactorList, factor_irreducible
from itergcd.gcdlab import gcd_grid, gcd_iterates
from itergcd.modular import gf_from_zx, gf_gcd, gf_mul, gf_sub, prime_stream
from itergcd.parser import parse_poly
from itergcd.polys import (
    Poly, iterate, iterates, poly_gcd, render_poly, resultant,
)

X = Poly.x()


def reference_json(f, g, c, grid_n, diagonal_only=False):
    """gcd_grid's json report, every cell by poly_gcd over Q, millis blank."""
    pairs = ([(k, k) for k in range(1, grid_n + 1)] if diagonal_only else
             list(itertools.product(range(1, grid_n + 1), repeat=2)))
    its_f, its_g = iterates(f, grid_n), iterates(g, grid_n)
    cells, degenerate, factor_lists = [], [], {}
    for m, n in pairs:
        if its_f[m - 1] == c:
            degenerate.append({"m": m, "n": n,
                               "reason": "f iterate %d equals c" % m})
            continue
        if its_g[n - 1] == c:
            degenerate.append({"m": m, "n": n,
                               "reason": "g iterate %d equals c" % n})
            continue
        h = poly_gcd(its_f[m - 1] - c, its_g[n - 1] - c)
        fl = (factor_irreducible(h) if h.degree >= 1
              else FactorList(Fraction(1), ()))
        factor_lists[(m, n)] = fl.factors
        cells.append({"m": m, "n": n, "gcd": render_poly(h),
                      "degree": h.degree, "millis": None,
                      "factors": [[render_poly(p), e] for p, e in fl.factors]})
    universe, shell_new = {}, False
    for pair in sorted(factor_lists, key=lambda t: (max(t), t)):
        for p, e in factor_lists[pair]:
            if p not in universe and max(pair) == grid_n:
                shell_new = True
            universe[p] = max(universe.get(p, 0), e)
    return {"f": render_poly(f), "g": render_poly(g), "c": render_poly(c),
            "grid_n": grid_n, "diagonal_only": diagonal_only, "cells": cells,
            "degenerate_cells": degenerate,
            "factor_universe": [[render_poly(p), e] for p, e in sorted(
                universe.items(), key=lambda t: (t[0].degree, t[0].coeffs))],
            "stabilized": not shell_new}


def grid_json(*args, **kwargs):
    d = gcd_grid(*args, **kwargs).to_json_dict()
    for cell in d["cells"]:
        assert cell["millis"] >= 0
        cell["millis"] = None
    return d


def _coeff(rng, rational):
    a = rng.randint(-5, 5)
    return Fraction(a, rng.randint(1, 7)) if rational else Fraction(a)


def _map(rng, deg, rational):
    coeffs = [_coeff(rng, rational) for _ in range(deg)]
    lead = 0
    while lead == 0:
        lead = _coeff(rng, rational)
    return Poly(coeffs + [lead])


def random_grid(rng):
    """(f, g, c, grid_n, diagonal_only) of one seeded case."""
    d, e = rng.randint(1, 3), rng.randint(1, 3)
    rational = rng.random() < 0.5
    f, g = _map(rng, d, rational), _map(rng, e, rational)
    kind = rng.choice(("zero", "const", "x", "quartic", "f2"))
    c = {"zero": Poly.zero(),
         "const": Poly.const(_coeff(rng, rational) or 1),
         "x": X,
         "quartic": _map(rng, 4, rational),
         "f2": iterate(f, 2)}[kind]
    if rng.random() < 0.4:
        # shift the constant terms so that r is a root of f - c and g - c:
        # cell (1, 1) then shares the factor x - r
        r = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
        f = f - (f.evaluate(r) - c.evaluate(r))
        g = g - (g.evaluate(r) - c.evaluate(r))
    grid_n = rng.randint(1, {1: 5, 2: 4, 3: 3}[max(d, e)])
    return f, g, c, grid_n, rng.random() < 0.2


def _screened_primes(screens):
    """The prime of each `_screen` call recorded by _count_calls."""
    return [args[3] for args, _ in screens]


def test_screen_matches_per_cell_route_on_seeded_grids(acceptance,
                                                      monkeypatch):
    proofs = _count_calls(monkeypatch, "_proof_prime")
    screens = _count_calls(monkeypatch, "_screen")
    lifts = _count_calls(monkeypatch, "_lift")
    exact = _count_calls(monkeypatch, "poly_gcd")
    rng = random.Random(20261018)
    n_cases = 320
    cells = n_proven = n_degenerate = n_retried = 0
    for _ in range(n_cases):
        f, g, c, grid_n, diagonal = random_grid(rng)
        want = reference_json(f, g, c, grid_n, diagonal)
        screens.clear()
        assert grid_json(f, g, c, grid_n, diagonal) == want, \
            (render_poly(f), render_poly(g), render_poly(c), grid_n, diagonal)
        cells += len(want["cells"]) + len(want["degenerate_cells"])
        n_degenerate += len(want["degenerate_cells"])
        if proofs[-1][1]:
            n_proven += len(want["cells"])
        visits = Counter(mn for args, _ in screens for mn in args[4])
        n_retried += sum(v > 1 for v in visits.values())
    settled = [h for _, out in lifts for h, _, _ in out.values()]
    n_screened = sum(h.degree == 0 for h in settled)
    n_lifted = len(settled) - n_screened
    # every cell is proven, screened, lifted or degenerate, and no cell
    # takes a gcd over Q
    assert n_proven + n_screened + n_lifted + n_degenerate == cells
    assert cells // 2 < n_screened < cells - cells // 8
    assert n_lifted > 50 and n_degenerate > 0 and n_proven > 0
    assert exact == []
    acceptance("grid screen matches per-cell gcds, %d grids" % n_cases, True,
               "%d of %d cells proven, %d screened, %d lifted, %d "
               "degenerate, %d retried, 0 poly_gcd" % (
                   n_proven, cells, n_screened, n_lifted, n_degenerate,
                   n_retried))


@pytest.mark.parametrize("f, g, c, grid_n", [
    ("x^2+x/3-5/7", "x^2-1", "0", 7),
    ("x^2-1", "x^2+x-1", "x", 5),
    ("x^3+x^2", "x^3+5*x^2", "0", 3),
    ("x^2", "x^2+1", "x^4", 3),
    ("x^2-2", "x^2-1", "0", 5),
    ("2*x", "3*x+1", "x^2", 5),
    ("x+1", "2*x", "x", 3),            # every row has the degree of c
    ("x^3-x", "x^2+1/2", "x^4-x", 3),  # c outgrows the low iterates
    ("3", "x^2-1", "0", 3),             # a constant map
    ("x^2", "x^2+x", "x^2", 3),         # f^1 = c: row 1 is degenerate
    ("x^3+x/2-3/2", "x^2-1", "0", 3),   # higher degree first; x - 1 divides
                                        # cells (1, 1) and (1, 3)
    ("x^2", "x^3", "x", 4),             # g^3, g^4 pass the largest row and
                                        # are composed modulo each row
    ("-x", "2*x+1", "x", 4),            # f^2 = x = c: even rows degenerate
])
def test_screen_matches_per_cell_route_on_named_grids(f, g, c, grid_n):
    f, g, c = parse_poly(f), parse_poly(g), parse_poly(c)
    for diagonal in (False, True):
        assert grid_json(f, g, c, grid_n, diagonal) == \
            reference_json(f, g, c, grid_n, diagonal)


def _image(q, p):
    nums, den = q.int_form()
    return gf_from_zx([a * pow(den, -1, p) for a in nums], p)


def _no_proof(monkeypatch):
    """Send every grid to the screen, proven at a finite place or not."""
    monkeypatch.setattr(gcdlab, "_proof_prime", lambda f, g, c: None)


def test_rows_are_the_lower_degree_maps_lines(monkeypatch):
    _no_proof(monkeypatch)  # x^2 - 1/3 is proven at p = 3
    lines = _count_calls(monkeypatch, "_cell_images")
    f, g = parse_poly("x^3+x/2-1"), parse_poly("x^2-1/3")
    reports = []
    for a, b in ((f, g), (g, f)):
        lines.clear()
        reports.append(gcd_grid(a, b, Poly.zero(), 7))
        assert [len(args[0]) - 1 for args, _ in lines] == \
            [2 ** m for m in range(1, 8)]
    assert reports[1].gcds == {(n, m): h
                               for (m, n), h in reports[0].gcds.items()}


def test_the_other_map_is_folded_up_to_the_largest_row(monkeypatch):
    _no_proof(monkeypatch)  # x^2 - 1/5 is proven at p = 5
    folds = _count_calls(monkeypatch, "_gf_iterates")
    f, g = parse_poly("x^4+x/3-1"), parse_poly("x^2-1/5")
    for a, b in ((f, g), (g, f)):
        folds.clear()
        gcd_grid(a, b, Poly.zero(), 8)
        reached = {len(args[0]) - 1: max((len(y) - 1 for y in its), default=0)
                   for args, its in folds}
        # the rows reach degree 2^8, and the quartic up to it: 4^4 = 2^8
        assert reached == {2: 256, 4: 256}


def test_rows_take_their_products_from_one_chain_per_column_set(
        monkeypatch):
    # row m takes g's lines up to the first one past its degree unreduced,
    # as a prefix product formed once for its set of columns; rows 5 and 6
    # both take all six lines
    lines = _count_calls(monkeypatch, "_cell_images")
    f, g = parse_poly("x^2-2"), parse_poly("x^2-1")
    for diagonal in (False, True):
        lines.clear()
        gcd_grid(f, g, Poly.zero(), 6, diagonal)
        for m, ((a, _, q_its, shared, c, ks, p), _) in enumerate(lines, 1):
            assert len(a) == 2 ** m + 1 and len(q_its) == min(m + 1, 6)
            want = [1]
            for k in ks:
                if k <= len(q_its):
                    want = gf_mul(want, gf_sub(q_its[k - 1], c, p), p)
            assert shared == want
        products = [args[3] for args, _ in lines]
        assert len({id(s) for s in products}) == (6 if diagonal else 5)
        assert (products[4] is products[5]) is not diagonal


@pytest.mark.parametrize("f, g, c, grid_n", [
    # every line of a constant map or of the identity is the same
    ("3", "x^2-1", "x", 12),
    ("x", "x^2-1", "0", 6),
    ("x^2-1", "3", "x", 5),
])
def test_equal_rows_share_one_euclid(monkeypatch, f, g, c, grid_n):
    f, g, c = parse_poly(f), parse_poly(g), parse_poly(c)
    want = reference_json(f, g, c, grid_n)
    lines = _count_calls(monkeypatch, "_cell_images")
    assert grid_json(f, g, c, grid_n) == want
    assert len(lines) == 1


def test_cells_unlucky_at_one_prime_are_settled_at_the_next(monkeypatch):
    f, g, c = parse_poly("x^2+x/3-5/7"), parse_poly("x^2-1"), Poly.zero()
    # 3 and 7 divide a denominator of f; mod 13 these cells have a common
    # factor although their gcd over Q is 1
    unlucky = [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3)]
    for m, n in unlucky:
        fm, gn = iterate(f, m) - c, iterate(g, n) - c
        assert gcd_iterates(f, g, c, m, n) == Poly.const(1)
        assert len(gf_gcd(_image(fm, 13), _image(gn, 13), 13)) > 1

    def stream():
        yield from (3, 7, 13)
        yield from prime_stream()

    want = reference_json(f, g, c, 3)
    _no_proof(monkeypatch)  # the pair is proven at p = 7
    monkeypatch.setattr(gcdlab, "prime_stream", stream)
    screens = _count_calls(monkeypatch, "_screen")
    exact = _count_calls(monkeypatch, "poly_gcd")
    assert grid_json(f, g, c, 3) == want
    # the unlucky images lift to no verified gcd, and the next prime of
    # the stream screens those cells alone, each to 1
    assert _screened_primes(screens) == [13, next(prime_stream())]
    assert sorted(screens[1][0][4]) == unlucky
    assert all(h == [1] for h, _ in screens[1][1].values())
    assert exact == []


def _count_calls(monkeypatch, name):
    """The (arguments, result) of each call of gcdlab's `name`."""
    calls = []
    fn = getattr(gcdlab, name)

    def spy(*args, **kwargs):
        calls.append((args, fn(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(gcdlab, name, spy)
    return calls


def test_all_trivial_grid_expands_nothing_over_q(monkeypatch):
    gcd_calls = _count_calls(monkeypatch, "poly_gcd")
    iterate_calls = _count_calls(monkeypatch, "iterates")
    rep = gcd_grid(parse_poly("x^2+x/3-5/7"), parse_poly("x^2-1"),
                   Poly.zero(), 10)
    assert len(rep.cells) == 100
    assert all(h == Poly.const(1) for h in rep.gcds.values())
    assert gcd_calls == [] and iterate_calls == []


def test_only_nontrivial_cells_take_poly_gcd(monkeypatch):
    # the nontrivial cells are lifted from their images: none takes poly_gcd
    gcd_calls = _count_calls(monkeypatch, "poly_gcd")
    rep = gcd_grid(parse_poly("x^2-2"), parse_poly("x^2-1"), Poly.zero(), 6)
    nontrivial = [mn for mn, h in rep.gcds.items() if h.degree > 0]
    assert nontrivial == [(1, 2), (1, 4), (1, 6)]
    assert gcd_calls == []


def _shared_root_pair(r):
    """(x - r)(x + 1) and (x - r)(x - 2): cell (1, 1) of c = 0 is x - r."""
    return (X - r) * (X + 1), (X - r) * (X - 2)


@pytest.mark.parametrize("f, g, c, grid_n, formed", [
    ("x^2-2", "x^2-1", "0", 6, []),
    # x - 40001/3 is lifted from two primes, and nothing is expanded
    ("(x-40001/3)*(x+1)", "(x-40001/3)*(x-2)", "0", 3, []),
    # row 1 and column 1 have the degree of c, and no other line
    ("x^2", "x^2+x", "x^2", 3, [("x^2", 1), ("x^2+x", 1)]),
    ("x^3-x", "x^2+1/2", "x^4-x", 3, [("x^2+1/2", 2)]),
    # every line of a linear pair with a linear target, and every line of
    # a constant map
    ("x+1", "2*x", "x", 3, [("x+1", 3), ("2*x", 3)]),
    ("3", "x^2-1", "x", 2, [("3", 2)]),
])
def test_only_lines_that_can_lose_their_degree_are_formed_over_q(
        monkeypatch, f, g, c, grid_n, formed):
    iterate_calls = _count_calls(monkeypatch, "iterates")
    gcd_grid(parse_poly(f), parse_poly(g), parse_poly(c), grid_n)
    assert [(render_poly(q), n) for (q, n), _ in iterate_calls] == \
        [(render_poly(parse_poly(q)), n) for q, n in formed]


def test_powers_above_1_are_lifted(monkeypatch):
    f, g = parse_poly("x^3+x^2"), parse_poly("x^3+5*x^2")
    exact = _count_calls(monkeypatch, "poly_gcd")
    rep = gcd_grid(f, g, Poly.zero(), 4)
    assert rep.gcds[(3, 4)] == X ** 8 and rep.factor_universe == {X: 16}
    for diagonal in (False, True):
        assert grid_json(f, g, Poly.zero(), 4, diagonal) == \
            reference_json(f, g, Poly.zero(), 4, diagonal)
    assert exact == []


def test_a_factor_first_seen_on_the_outer_shell_is_lifted(monkeypatch):
    f, g = parse_poly("x^2-2"), parse_poly("x^2-1")
    want = reference_json(f, g, Poly.zero(), 2)
    exact = _count_calls(monkeypatch, "poly_gcd")
    assert grid_json(f, g, Poly.zero(), 2) == want
    assert want["factor_universe"] == [["x^2-2", 1]]
    assert want["stabilized"] is False and exact == []


def test_an_image_that_does_not_lift_is_combined_with_the_next(
        monkeypatch):
    # 40001 is above sqrt(p/2) for every prime of the stream, so no one
    # image reconstructs x - 40001/3, but the CRT of two does
    r = Fraction(40001, 3)
    assert r.numerator ** 2 > (1 << 29) // 2
    f, g = _shared_root_pair(r)
    want = reference_json(f, g, Poly.zero(), 3)
    screens = _count_calls(monkeypatch, "_screen")
    lifts = _count_calls(monkeypatch, "_lift")
    exact = _count_calls(monkeypatch, "poly_gcd")
    assert grid_json(f, g, Poly.zero(), 3) == want
    assert want["cells"][0]["gcd"] == "x-40001/3"
    p, q = _screened_primes(screens)
    assert (1, 1) not in lifts[0][1] and screens[1][0][4] == [(1, 1)]
    (args, out), = lifts[1:]
    assert args[3][(1, 1)][1] == p * q and out[(1, 1)][0] == X - r
    assert exact == []


def test_a_corrupted_image_fails_verification(monkeypatch):
    # row 1 of this grid has the gcd x^2 - 2 at even n and 1 at odd n.  At
    # the first prime only, in place of x^2 - 2, (x^2 - 2)(x - 1) lifts but
    # divides neither iterate; in place of 1, x^2 - 2 divides f - 0 but not
    # g^n - 0.  An image of a prime that keeps the degrees has at least the
    # degree of the gcd, so the corrupted ones are of higher degree, and
    # the second prime restarts and settles those cells
    f, g = parse_poly("x^2-2"), parse_poly("x^2-1")
    want = reference_json(f, g, Poly.zero(), 6)
    screen, primes = gcdlab._screen, []

    def corrupted(f, g, c, p, pairs):
        images = screen(f, g, c, p, pairs)
        primes.append(p)
        for n in range(1, 7) if len(primes) == 1 else ():
            h, millis = images[(1, n)]
            images[(1, n)] = ([p - 2, 2, p - 1, 1] if len(h) > 1
                              else [p - 2, 0, 1]), millis
        return images

    monkeypatch.setattr(gcdlab, "_screen", corrupted)
    screens = _count_calls(monkeypatch, "_screen")
    exact = _count_calls(monkeypatch, "poly_gcd")
    assert grid_json(f, g, Poly.zero(), 6) == want
    assert len(primes) == 2
    assert screens[1][0][4] == [(1, n) for n in range(1, 7)]
    assert exact == []


def test_images_that_never_verify_hit_the_prime_cap(monkeypatch):
    # x^2 - 2 divides neither x^2 - 1 nor x^2 + 1: every prime combines
    # the same image, no lift verifies, and only the cap ends the loop
    def never(f, g, c, p, pairs):
        return {mn: ([p - 2, 0, 1], 0.0) for mn in pairs}

    monkeypatch.setattr(gcdlab, "_screen", never)
    monkeypatch.setattr(LIMITS, "gcd_primes", 20)
    screens = _count_calls(monkeypatch, "_screen")
    with pytest.raises(ResourceLimitError, match="exceed cap 20"):
        gcd_grid(parse_poly("x^2-1"), parse_poly("x^2+1"), Poly.zero(), 2)
    assert len(screens) == 20


def test_shared_factor_grid_expands_nothing_over_q(monkeypatch):
    f, g = parse_poly("x^2+x/5"), parse_poly("x^2-4*x/3+1/3")
    want = reference_json(f, g, Poly.zero(), 10)
    gcd_calls = _count_calls(monkeypatch, "poly_gcd")
    iterate_calls = _count_calls(monkeypatch, "iterates")
    assert grid_json(f, g, Poly.zero(), 10) == want
    assert gcd_calls == [] and iterate_calls == []
    assert {cell["gcd"] for cell in want["cells"]} == {"1", "x"}


@pytest.mark.parametrize("f, g", [("x^2", "x^2+1"), ("x+1", "x^2+1"),
                                  ("x^2+x/3", "x^3")])
def test_grid_past_the_degree_cap_raises_as_iterates_does(monkeypatch, f, g):
    monkeypatch.setattr(LIMITS, "max_degree", 64)
    f, g = parse_poly(f), parse_poly(g)
    grid_n = 7
    with pytest.raises(ResourceLimitError) as want:
        iterates(f, grid_n)
        iterates(g, grid_n)
    with pytest.raises(ResourceLimitError) as got:
        gcd_grid(f, g, Poly.zero(), grid_n)
    assert str(got.value) == str(want.value)
    with pytest.raises(ResourceLimitError):
        gcd_grid(f, g, Poly.zero(), grid_n, diagonal_only=True)
    with pytest.raises(DegenerateInputError):
        gcd_grid(f, g, Poly.zero(), 0)


def test_grid_past_the_coefficient_cap_raises(monkeypatch):
    # every cell shares a power of x and is lifted: the fifth iterate of
    # x^3 + x^2/3 has a 290-bit coefficient, but its orbit mod x^32 stays
    # below 200 bits; that of x^3 + x^2/7 mod x^64 passes them
    g = parse_poly("x^3+5*x^2")
    f, f7 = parse_poly("x^3+x^2/3"), parse_poly("x^3+x^2/7")
    want = reference_json(f, g, Poly.zero(), 5)
    monkeypatch.setattr(LIMITS, "max_coeff_bits", 200)
    assert grid_json(f, g, Poly.zero(), 5) == want
    refused, orbit = [], gcdlab._orbit

    def spy(q, *args):
        try:
            return orbit(q, *args)
        except ResourceLimitError:
            refused.append(q)
            raise

    monkeypatch.setattr(gcdlab, "_orbit", spy)
    with pytest.raises(ResourceLimitError, match="bits exceeds cap 200"):
        gcd_grid(f7, g, Poly.zero(), 6)
    assert refused == [f7]


@pytest.mark.parametrize("f, g, c, gcd", [
    # the cell gcd x - 1/13 has no image mod 13, where f and g drop a degree
    ("13*x^2+25*x-2", "13*x^2+38*x-3", "0", "x-1/13"),
    # f - c = 13x vanishes mod 13, where the cell's image would be g - c
    ("x^2+13*x", "2*x^2+x", "x^2", "x"),
])
def test_primes_dividing_a_leading_numerator_are_skipped(monkeypatch, f, g,
                                                         c, gcd):
    f, g, c = parse_poly(f), parse_poly(g), parse_poly(c)
    want = reference_json(f, g, c, 2)
    assert want["cells"][0]["gcd"] == gcd
    monkeypatch.setattr(gcdlab, "prime_stream",
                        lambda: itertools.chain([13], prime_stream()))
    screens = _count_calls(monkeypatch, "_screen")
    assert grid_json(f, g, c, 2) == want
    assert 13 not in _screened_primes(screens)


def test_a_report_renders_each_distinct_gcd_once(monkeypatch):
    f, g = parse_poly("x^3+x^2"), parse_poly("x^3+5*x^2")
    rep = gcd_grid(f, g, Poly.zero(), 4)
    distinct = {h: rep.cells[mn] for mn, h in rep.gcds.items()}
    assert len(rep.gcds) == 16 and len(distinct) == 4
    # the distinct gcds, their factors, the universe, and f, g and c
    most = (len(distinct) + sum(len(fl.factors) for fl in distinct.values())
            + len(rep.factor_universe) + 3)
    renders = _count_calls(monkeypatch, "render_poly")
    for fmt in ("csv", "json", "md"):
        renders.clear()
        emit(rep, fmt)
        assert 0 < len(renders) <= most


def test_csv_and_json_cells_carry_the_same_gcds():
    f, g = parse_poly("x^2+x/5"), parse_poly("x^2-4*x/3+1/3")
    rep = gcd_grid(f, g, Poly.zero(), 8)
    rows = list(csv.DictReader(io.StringIO(emit(rep, "csv").decode())))
    cells = json.loads(emit(rep, "json"))["cells"]
    assert len(cells) == 64 and {cell["gcd"] for cell in cells} != {"1"}
    assert [row["gcd"] for row in rows] == [cell["gcd"] for cell in cells]


def test_constant_maps_are_screened(monkeypatch):
    f, g = Poly.const(3), parse_poly("x^2-1")
    want = reference_json(f, g, X, 3)
    screens = _count_calls(monkeypatch, "_screen")
    gcd_calls = _count_calls(monkeypatch, "poly_gcd")
    assert grid_json(f, g, X, 3) == want
    assert len(screens) == 1 and len(screens[0][1]) == 9
    assert gcd_calls == []


# ---------------------------------------------------------------------------
# grids proven trivial at one finite place
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f, g, p", [
    # |f(z)|_7 = 7 on the unit disk, and R_f = 7^(1/2)
    ("x^2+x/3-5/7", "x^2-1", 7),
    ("x^2+1/4", "x^2-1", 2),
    ("x^2+1/3", "x^2", 3),  # the orbit of 0 under f never returns to 0
])
def test_pairs_proven_at_one_prime(monkeypatch, f, g, p):
    f, g = parse_poly(f), parse_poly(g)
    screened = _count_calls(monkeypatch, "_screen")
    exact = _count_calls(monkeypatch, "poly_gcd")
    for a, b in ((f, g), (g, f)):
        assert gcdlab._proof_prime(a, b, Poly.zero()) == p
        for diagonal in (False, True):
            assert grid_json(a, b, Poly.zero(), 5, diagonal) == \
                reference_json(a, b, Poly.zero(), 5, diagonal)
    assert screened == [] and exact == []


@pytest.mark.parametrize("f, g, c", [
    # good reduction everywhere: no prime can prove these
    ("x^2-2", "x^2-1", "0"),   # the filled Julia sets meet at 0
    ("x^2+1", "x^2-1", "0"),
    ("x^3+x^2", "x^3+5*x^2", "0"),
    # a moving target and linear maps are out of scope
    ("x^2+x/3-5/7", "x^2-1", "x"),
    ("x/3-5/7", "x^2-1", "0"),
    ("x/3-5/7", "x/7+1/2", "0"),
    # |c|_7 = |a_0|_7: the roots of g^n - c reach f's disk of escape
    ("x^2+x/3-5/7", "x^2-1", "1/7"),
    # x - 1/7 divides cell (1, 1): |c|_7 = 49 widens g's disk to radius
    # 49, where the term 344x/49 outgrows a_0 = 1/343
    ("x^2-344*x/49+1/343", "x^2-1", "-48/49"),
    # x^2 - 1/7 divides cell (1, 1): a_0 dominates a_2 x^2 only on the
    # disk |z|_7 < 7^(1/2), and R_g = 7^(1/2)
    ("x^2-1/7", "x^4+6*x^2/7-1/7", "0"),
])
def test_nothing_is_proven_without_a_finite_place(f, g, c):
    f, g, c = parse_poly(f), parse_poly(g), parse_poly(c)
    for a, b in ((f, g), (g, f)):
        assert gcdlab._proof_prime(a, b, c) is None
        assert grid_json(a, b, c, 3) == reference_json(a, b, c, 3)


def test_a_small_constant_keeps_the_proof():
    f, g = parse_poly("x^2+x/3-5/7"), parse_poly("x^2-1")
    # |c|_7 <= 1 keeps the proof; |c|_7 >= |a_0|_7 = 7 blocks it
    for c in ("7", "-1", "5/3", "49/2"):
        assert gcdlab._proof_prime(f, g, parse_poly(c)) == 7
    for c in ("1/7", "6/7", "6/49"):
        assert gcdlab._proof_prime(f, g, parse_poly(c)) is None


def test_coefficients_past_the_bit_cap_are_not_tried():
    # the proof would hold at p = 2, but valuations past 2^12 bits cost long
    # divisions quadratic in the size: the screen takes such a grid
    g = parse_poly("x^2-1")
    assert gcdlab._proof_prime(parse_poly("x^2+1/2^4000"), g, Poly.zero()) \
        == 2
    f = parse_poly("x^2+1/2^5000")
    assert gcdlab._proof_prime(f, g, Poly.zero()) is None
    assert grid_json(f, g, Poly.zero(), 2) == \
        reference_json(f, g, Poly.zero(), 2)


def test_primes_of_a_denominator_are_tried():
    split = factoring._prime_split
    assert split(1) == ([], 1)
    assert split(12 * 1031) == ([2, 3, 1031], 1)
    assert split(2 ** 70) == ([2], 1)
    assert split((1 << 61) - 1) == ([(1 << 61) - 1], 1)
    # two primes past 2^10: the cofactor is not factored, so not tried
    assert split(1031 * 1033) == ([], 1031 * 1033)
    g = parse_poly("x^2-1")
    assert gcdlab._proof_prime(parse_poly("x^2+1/1031"), g, Poly.zero()) \
        == 1031
    assert gcdlab._proof_prime(parse_poly("x^2+5/(8*1031)"), g,
                               Poly.zero()) == 2


def test_shared_roots_are_found_where_the_proof_stops():
    f, g = parse_poly("x^2-344*x/49+1/343"), parse_poly("x^2-1")
    assert gcd_iterates(f, g, parse_poly("-48/49"), 1, 1) == X - Fraction(1, 7)
    f, g = parse_poly("x^2-1/7"), parse_poly("x^4+6*x^2/7-1/7")
    assert gcd_iterates(f, g, Poly.zero(), 1, 1) == f


def test_divisor_on_a_proven_pair_runs_no_gcd(monkeypatch, capsys):
    screened = _count_calls(monkeypatch, "_screen")
    gcds = _count_calls(monkeypatch, "poly_gcd")
    # factoring's own poly_gcd goes through the same spy
    monkeypatch.setattr(factoring, "poly_gcd", gcdlab.poly_gcd)
    assert main(["divisor", "--f", "x^2+x/3-5/7", "--g", "x^2-1",
                 "--c", "0", "--N", "12"]) == 0
    assert '"h": "1"' in capsys.readouterr().out
    assert screened == [] and gcds == []


# ---------------------------------------------------------------------------
# the choice of primes cannot be observed
# ---------------------------------------------------------------------------

def _prime_dependent_results(seed):
    """Grids, gcds, factorizations and resultants of 50 seeded cases."""
    rng = random.Random(seed)
    out = []
    for _ in range(50):
        f, g, c, grid_n, diagonal = random_grid(rng)
        h = _map(rng, rng.randint(1, 2), rng.random() < 0.5)
        out.append((grid_json(f, g, c, grid_n, diagonal),
                    poly_gcd(f * h, g * h), poly_gcd(iterate(f, 2) - c, g - c),
                    factor_irreducible(f * g * h),
                    resultant(f, g), resultant(f * h, g * g + 1)))
    return out


@pytest.mark.parametrize("skip", [1, 3, 7])
def test_results_do_not_depend_on_the_primes_drawn(monkeypatch, skip):
    # an exact small-primes algorithm gives the same answer whichever primes
    # it draws: a stream that starts `skip` primes later must not show
    want = _prime_dependent_results(2027)
    drawn = set()

    def later():
        for p in itertools.islice(prime_stream(), skip, None):
            drawn.add(p)
            yield p

    monkeypatch.setattr(modular, "prime_stream", later)
    monkeypatch.setattr(gcdlab, "prime_stream", later)
    assert _prime_dependent_results(2027) == want
    first = list(itertools.islice(prime_stream(), skip + 1))
    assert first[skip] in drawn and drawn.isdisjoint(first[:skip])
