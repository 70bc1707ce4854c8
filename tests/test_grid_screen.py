"""The modular screen and lift of gcd_grid against the per-cell exact route.

gcd_grid takes every cell's gcd modulo one prime, settles the cells of gcd
1 there, lifts the other images to Q and verifies them on orbits, and sends
what is left to poly_gcd and factor_irreducible.  The reference here
computes every cell by poly_gcd on the iterates expanded over Q, so all
routes must give the same report, apart from the millis of each cell.
"""

import itertools
import random
from fractions import Fraction

import pytest

from itergcd import gcdlab, modular
from itergcd.errors import DegenerateInputError, LIMITS, ResourceLimitError
from itergcd.factoring import FactorList, factor_irreducible
from itergcd.gcdlab import gcd_grid, gcd_iterates
from itergcd.modular import gf_from_zx, gf_gcd, prime_stream
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


def _routes(screened, lifted, exact):
    """(screened, lifted, fallback, exact) cell counts from the spies.

    Screened cells have image 1, lifted ones a verified gcd of degree 1 or
    more; fallback cells had an image that failed to lift or verify, and
    exact cells are all the cells poly_gcd computed, fallback included.
    """
    images = [h for _, (_, cells) in screened for h, _ in cells.values()]
    settled = [h for _, cells in lifted for h, _, _ in cells.values()]
    n_screened = sum(len(h) == 1 for h in images)
    n_lifted = sum(h.degree > 0 for h in settled)
    return n_screened, n_lifted, len(images) - len(settled), len(exact)


def test_screen_matches_per_cell_route_on_seeded_grids(acceptance,
                                                      monkeypatch):
    screened = _count_calls(monkeypatch, "_screen")
    lifted = _count_calls(monkeypatch, "_lift")
    exact = _count_calls(monkeypatch, "poly_gcd")
    rng = random.Random(20261018)
    n_cases = 320
    cells = 0
    for _ in range(n_cases):
        f, g, c, grid_n, diagonal = random_grid(rng)
        want = reference_json(f, g, c, grid_n, diagonal)
        assert grid_json(f, g, c, grid_n, diagonal) == want, \
            (render_poly(f), render_poly(g), render_poly(c), grid_n, diagonal)
        cells += len(want["cells"])
    n_screened, n_lifted, n_fallback, n_exact = _routes(screened, lifted,
                                                        exact)
    # every cell takes one route, each route carries cells, and every
    # image the screen took lifts: the seeded roots are small
    assert n_screened + n_lifted + n_exact == cells
    assert cells // 4 < n_screened < cells - cells // 4
    assert n_lifted > 50 and n_exact > 50 and n_fallback == 0
    acceptance("grid screen matches per-cell gcds, %d grids" % n_cases, True,
               "%d of %d cells screened, %d lifted, %d exact (%d fallback)"
               % (n_screened, cells, n_lifted, n_exact, n_fallback))


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
])
def test_screen_matches_per_cell_route_on_named_grids(f, g, c, grid_n):
    f, g, c = parse_poly(f), parse_poly(g), parse_poly(c)
    for diagonal in (False, True):
        assert grid_json(f, g, c, grid_n, diagonal) == \
            reference_json(f, g, c, grid_n, diagonal)


def _image(q, p):
    nums, den = q.int_form()
    return gf_from_zx([a * pow(den, -1, p) for a in nums], p)


def test_rows_are_the_lower_degree_maps_lines(monkeypatch):
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


def test_the_other_map_is_folded_only_below_the_largest_row(monkeypatch):
    folds = _count_calls(monkeypatch, "_gf_iterates")
    f, g = parse_poly("x^4+x/3-1"), parse_poly("x^2-1/5")
    for a, b in ((f, g), (g, f)):
        folds.clear()
        gcd_grid(a, b, Poly.zero(), 8)
        reached = {len(args[0]) - 1: max((len(y) - 1 for y in its), default=0)
                   for args, its in folds}
        # the rows reach degree 2^8; the quartic stops below it
        assert reached[2] == 256 and reached[4] < 256


def test_unlucky_and_bad_primes_fall_back_to_the_exact_route(monkeypatch):
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
    monkeypatch.setattr(gcdlab, "prime_stream", stream)
    exact = _count_calls(monkeypatch, "poly_gcd")
    assert grid_json(f, g, c, 3) == want
    its_f, its_g = iterates(f, 3), iterates(g, 3)
    assert [args for args, _ in exact] == [
        (its_f[m - 1] - c, its_g[n - 1] - c) for m, n in unlucky]


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


def test_exact_iterates_stop_at_the_largest_exact_index(monkeypatch):
    iterate_calls = _count_calls(monkeypatch, "iterates")
    gcd_grid(parse_poly("x^2-2"), parse_poly("x^2-1"), Poly.zero(), 6)
    assert iterate_calls == []
    # x - 40001/3 does not lift mod p: cell (1, 1) alone takes the exact
    # route, which expands the first iterates and no more
    f, g = _shared_root_pair(Fraction(40001, 3))
    gcd_grid(f, g, Poly.zero(), 3)
    assert sorted(n for (_, n), _ in iterate_calls) == [1, 1]


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


def test_an_image_that_does_not_lift_falls_back(monkeypatch):
    # 40001 is above sqrt(p/2) for every prime of the stream, so no
    # reconstruction gives x - 40001/3
    r = Fraction(40001, 3)
    assert r.numerator ** 2 > (1 << 29) // 2
    f, g = _shared_root_pair(r)
    want = reference_json(f, g, Poly.zero(), 3)
    lifted = _count_calls(monkeypatch, "_lift")
    exact = _count_calls(monkeypatch, "poly_gcd")
    assert grid_json(f, g, Poly.zero(), 3) == want
    assert want["cells"][0]["gcd"] == "x-40001/3"
    assert (1, 1) not in lifted[0][1]
    assert [args for args, _ in exact] == [(f, g)]


def test_a_corrupted_image_fails_verification(monkeypatch):
    # row 1 of this grid has the gcd x^2 - 2 at even n and 1 at odd n.  In
    # place of x^2 - 2, x^2 - 3 lifts but divides neither iterate; in place
    # of 1, x^2 - 2 divides f - 0 but not g^n - 0
    f, g = parse_poly("x^2-2"), parse_poly("x^2-1")
    want = reference_json(f, g, Poly.zero(), 6)
    screen = gcdlab._screen

    def corrupted(*args):
        p, images = screen(*args)
        for n in range(1, 7):
            h, millis = images[(1, n)]
            images[(1, n)] = [p - (3 if len(h) > 1 else 2), 0, 1], millis
        return p, images

    monkeypatch.setattr(gcdlab, "_screen", corrupted)
    exact = _count_calls(monkeypatch, "poly_gcd")
    assert grid_json(f, g, Poly.zero(), 6) == want
    its_f, its_g = iterates(f, 1), iterates(g, 6)
    assert [args for args, _ in exact] == [
        (its_f[0], its_g[n - 1]) for n in range(1, 7)]


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


def test_primes_dividing_a_leading_numerator_are_skipped(monkeypatch):
    # the cell gcd x - 1/13 has no image mod 13, where f and g drop a degree
    f, g = parse_poly("13*x^2+25*x-2"), parse_poly("13*x^2+38*x-3")
    want = reference_json(f, g, Poly.zero(), 2)
    assert want["cells"][0]["gcd"] == "x-1/13"
    monkeypatch.setattr(gcdlab, "prime_stream",
                        lambda: itertools.chain([13], prime_stream()))
    assert grid_json(f, g, Poly.zero(), 2) == want


def test_constant_maps_take_the_exact_route(monkeypatch):
    gcd_calls = _count_calls(monkeypatch, "poly_gcd")
    rep = gcd_grid(Poly.const(3), parse_poly("x^2-1"), X, 2)
    assert len(gcd_calls) == len(rep.cells) == 4


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
