"""A seeded factoring suite with recorded results.

Every input is built here from fixed seeds: products of known irreducibles
(Eisenstein polynomials) up to degree 256, some with a factor of more than
half the degree; f^k - x for k <= 8; x^(2^k) - c; the pieces P(x^2) that
the decay probe factors for f = x^2; Swinnerton-Dyer polynomials,
irreducible but split modulo every prime; quadratics whose discriminant is
a square, a non-square or negative, with coefficients up to 2^1000; and
inputs that Eisenstein's criterion proves irreducible, directly or after a
shift, with a rational content, a negative leading coefficient or x^k.
tests/data/factor_suite.json holds the FactorList of each, recorded from a
route that was checked against sympy, so a change to the modular half of
Zassenhaus must give the same lists; up to degree 64, and the quadratic and
Eisenstein inputs at any degree, each is also checked against sympy's
factor_list here.

To record the file again, from the repository root and only at a commit
whose factoring is trusted:

    PYTHONPATH=src python tests/test_factor_suite.py
"""

import json
import math
import pathlib
import random
import sys
from fractions import Fraction

import pytest
import sympy

from itergcd import factoring, heights
from itergcd.factoring import factor_irreducible
from itergcd.polys import Poly, iterate

DATA = pathlib.Path(__file__).parent / "data" / "factor_suite.json"
X = Poly.x()

# (degrees of the known irreducible factors, leading coefficient)
_PRODUCTS = (
    ((1, 1, 2), 1), ((3, 5), 1), ((4, 4, 4), 1), ((10, 6), 1),
    ((24, 8), 1), ((40, 10), 1), ((16, 16, 16, 16), 1), ((50, 14), 1),
    ((3, 4), 3), ((6, 5, 2), 5), ((100, 28), 1), ((64, 64), 1),
    ((128, 64, 64), 1), ((200, 56), 1),
    ((12, 8, 4), 2 ** 64), ((30, 20), 7 ** 15),
    ((6, 5, 3, 2), 2 ** 10 * 5 ** 20),
)
# (f, highest k) for the inputs f^k - x
_ITERATES = (("x^2-1", 8), ("x^2+1", 7), ("x^2+x", 7), ("x^2-2", 6),
             ("x^2", 6), ("x^2-3/4", 7), ("x^2+1/4", 6))
# (c, highest k) for the inputs x^(2^k) - c
_POWERS = ((16, 8), (1, 7), (-4, 7), (2, 7))
# the constant targets whose probe pieces P(x^2) are factored, up to level 6
_PROBES = (16, 1, -4)
_SD_PRIMES = ((2, 3), (2, 3, 5), (2, 3, 5, 7), (3, 5, 7))
# quadratics by their discriminant D: square, non-square (D = 60, 65 and 68
# beside 64), negative and zero; non-monic, rational, with a content, times
# x^k, huge; and quadratics that Yun's split leaves as a part
_QUADRATICS = (
    "x^2-16", "x^2+5*x+6", "x^2-2", "x^2-15", "x^2-17", "x^2+x-16",
    "x^2+x+1", "x^2+4", "6*x^2+5*x+1", "4*x^2-9", "3*x^2+2*x+7",
    "-2*x^2+3*x+2", "x^2-1/4", "(2*x^2+3*x-1)/6", "x^2/2+5*x/6+1/3",
    "12*x^2-12", "10*x^2+10*x+20", "x^2-6*x+9", "9*x^2+12*x+4",
    "-4*x^2+4*x-1", "x^2/4+x+1", "x^3*(x^2-5*x+6)", "x^5*(2*x^2+1)",
    "x*(x^2-4*x+4)", "x^2-2^1000", "x^2-2^1001", "x^2-2^1000-1",
    "x^2-2^1000+1", "2^1000*x^2+x+1", "(2^500*x+3)*(3*x-2^499)",
    "(2^500*x-3)^2", "x^2*(2^500*x+3)*(2^400*x-7)/5", "(x^2-4)^3",
    "(x^2+1)^2*(x^2-9)",
)
# Eisenstein at a prime of the constant term, or after the shift
# x -> x + s for s in 1, -1, 2, -2; and squares of such, which it cannot prove
_EISENSTEIN = (
    "x^3-2", "x^5+6*x^2+3", "(5/7)*(x^3+2*x+2)", "x^4/3-5/6",
    "-3*x^4+5*x+5", "-x^7+2", "x^3*(x^4+2)", "x^2*(-2*x^3+6)",
    "x^128-2", "x^4+1", "x^4+x^3+x^2+x+1", "x^6+x^5+x^4+x^3+x^2+x+1",
    "(3/2)*(x^4+1)", "-(x^4+1)", "x^2*(x^4+1)/9", "x^3-3*x^2+3*x+1",
    "x^3+3*x^2+3*x-1", "x^64+1", "x^128+1", "(x^3-2)^2",
    "(x^4+1)^2*(x^3-2)",
)


def _poly(text: str) -> Poly:
    from itergcd.parser import parse_poly
    return parse_poly(text)


def _eisenstein(rng, d: int, lc: int) -> Poly:
    """An irreducible of degree d: Eisenstein at 2 or 3 (lc prime to it)."""
    p = 2 if lc % 2 else 3
    if lc % p == 0:
        raise ValueError("lc %d is divisible by 2 and 3: no Eisenstein prime"
                         % lc)
    low = [p * rng.randint(-3, 3) for _ in range(d)]
    low[0] = p * rng.choice([r for r in range(-5, 6) if r % p])
    return Poly([Fraction(c) for c in low + [lc]])


def _swinnerton_dyer(primes) -> Poly:
    x = sympy.Symbol("x")
    m = sympy.minimal_polynomial(sum(sympy.sqrt(p) for p in primes), x)
    return Poly([Fraction(int(c)) for c in reversed(sympy.Poly(m, x).all_coeffs())])


def _x2_levels(c: int, top: int):
    """Level k of the tower for x^2 and c: the factors of x^(2^k) - c,
    from the recorded lists, so each piece is fixed by the file alone."""
    recorded = _recorded()
    for k in range(1, top + 1):
        yield k, [_decode_poly(q) for q, _ in
                  recorded["x^%d - (%d)" % (2 ** k, c)]["factors"]]


def cases(with_pieces: bool = True):
    """[(label, polynomial)] in a fixed order."""
    out = []
    rng = random.Random(20261020)
    for degs, lc in _PRODUCTS:
        f = Poly.const(1)
        for d in degs:
            f = f * _eisenstein(rng, d, lc)
        out.append(("product %s lc %d" % ("*".join(map(str, degs)), lc), f))
    for text, top in _ITERATES:
        f = _poly(text)
        for k in range(1, top + 1):
            out.append(("(%s)^%d - x" % (text, k), iterate(f, k) - X))
    for c, top in _POWERS:
        for k in range(1, top + 1):
            out.append(("x^%d - (%d)" % (2 ** k, c), X ** (2 ** k) - Poly.const(c)))
    for primes in _SD_PRIMES:
        out.append(("swinnerton-dyer %s" % ",".join(map(str, primes)),
                     _swinnerton_dyer(primes)))
    out.append(("swinnerton-dyer 2,3 * 3,5,7",
                _swinnerton_dyer((2, 3)) * _swinnerton_dyer((3, 5, 7))))
    out += [("quadratic " + text, _poly(text)) for text in _QUADRATICS]
    out += [("eisenstein " + text, _poly(text)) for text in _EISENSTEIN]
    if with_pieces:
        sq = X * X
        for c in _PROBES:
            for k, level in _x2_levels(c, 5):
                for i, q in enumerate(level):
                    out.append(("piece c=%d level %d #%d" % (c, k + 1, i),
                                q.compose(sq)))
    return out


def _encode(fl) -> dict:
    return {"content": str(fl.content),
            "factors": [[[str(c) for c in q.coeffs], e] for q, e in fl.factors]}


def _decode_poly(coeffs) -> Poly:
    return Poly([Fraction(c) for c in coeffs])


_CACHE: dict = {}


def _recorded() -> dict:
    if not _CACHE:
        _CACHE.update(json.loads(DATA.read_text()))
    return _CACHE


# the recording run builds the cases itself, with the file not yet written
_CASES = cases() if __name__ != "__main__" else []


@pytest.mark.parametrize("label,f", _CASES, ids=[lab for lab, _ in _CASES])
def test_factor_list_is_the_recorded_one(label, f):
    want = _recorded()[label]
    assert [str(c) for c in f.coeffs] == want["input"], label
    assert _encode(factor_irreducible(f)) == \
        {"content": want["content"], "factors": want["factors"]}, label


def test_suite_covers_every_recorded_case():
    assert sorted(lab for lab, _ in _CASES) == sorted(_recorded())


def test_products_refuse_a_leading_coefficient_divisible_by_6():
    # 3 is the prime taken for an even lc: 2^30 * 3^20 leaves none
    with pytest.raises(ValueError):
        _eisenstein(random.Random(0), 3, 2 ** 30 * 3 ** 20)


# sympy takes long past degree 64, but not on the quadratic and Eisenstein
# inputs, which are checked at every degree
_SYMPY_CASES = [(lab, f) for lab, f in _CASES if f.degree <= 64
                or lab.startswith(("quadratic", "eisenstein"))]


@pytest.mark.parametrize("label,f", _SYMPY_CASES,
                         ids=[lab for lab, _ in _SYMPY_CASES])
def test_factor_list_matches_sympy(label, f):
    want = _recorded()[label]
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(f.coeffs))
    content, facs = sympy.Poly(expr, x, domain=sympy.QQ).factor_list()
    lcs = 1
    got = []
    for g, e in facs:
        lc = g.LC()
        lcs *= lc ** e
        got.append(([str(sympy.Rational(c) / lc) for c in reversed(g.all_coeffs())], e))
    assert sorted(got) == sorted((q, e) for q, e in want["factors"]), label
    assert str(content * lcs) == want["content"], label


def test_pattern_primes_run_no_equal_degree_split(monkeypatch):
    # every candidate prime takes the distinct-degree split; the
    # equal-degree split runs only on the first with the fewest factors
    splits, edf_primes = [], []
    real_ddf, real_edf = factoring._gf_ddf, factoring._gf_edf

    def ddf(g, p):
        out = real_ddf(g, p)
        splits.append((sum((len(w) - 1) // d for d, w in out), p))
        return out

    def edf(w, d, p, rng):
        edf_primes.append(p)
        return real_edf(w, d, p, rng)

    monkeypatch.setattr(factoring, "_gf_ddf", ddf)
    monkeypatch.setattr(factoring, "_gf_edf", edf)
    for label, f in _CASES:
        # x^4 - 10x^2 + 1 is an even quartic, settled in closed form
        if label == "swinnerton-dyer 2,3":
            continue
        if label.startswith(("product 10*6", "product 40*10", "(x^2-1)^6",
                             "swinnerton-dyer", "x^64 - (16)")):
            splits.clear()
            edf_primes.clear()
            factor_irreducible(f)
            assert len({p for _, p in splits}) == len(splits) >= 2, label
            assert set(edf_primes) == {min(splits)[1]}, label


def test_non_monic_lift_modulus_covers_lc_times_mignotte(monkeypatch):
    # lc(H) prod g_i is (lc(H) / lc(h)) h mod M, so M must pass twice
    # |lc G| times the Mignotte bound; the monic transform's n bitlen(lc)
    # extra bits must not come back
    lifts = []  # [G, M] per Zassenhaus call, M None when nothing is lifted
    real_z, real_lift = factoring._factor_squarefree_z, factoring._lift_tree

    def zassenhaus(G):
        lifts.append([G, None])
        return real_z(G)

    def lift(G, facs, p, M):
        lifts[-1][1] = M
        return real_lift(G, facs, p, M)

    monkeypatch.setattr(factoring, "_factor_squarefree_z", zassenhaus)
    monkeypatch.setattr(factoring, "_lift_tree", lift)
    moduli = {}
    for label, f in _CASES:
        lifts.clear()
        if abs(f.int_form()[0][-1]) > 1:
            factor_irreducible(f)
        for G, M in lifts:
            if M is not None and abs(G[-1]) > 1:
                moduli[label] = M
                norm = math.isqrt(sum(c * c for c in G))
                bound = (norm + 1) << (len(G) - 1)
                assert M >= 2 * abs(G[-1]) * bound + 1, label
    assert {"(x^2-3/4)^7 - x", "(x^2+1/4)^6 - x",
            "product 12*8*4 lc %d" % 2 ** 64,
            "product 30*20 lc %d" % 7 ** 15} <= set(moduli)
    assert moduli["(x^2-3/4)^7 - x"] < 2 ** 1000


def test_even_quartic_swinnerton_dyer_skips_zassenhaus(monkeypatch):
    # irreducible, split modulo every prime, and decided without a prime
    zassenhaus = []
    real = factoring._factor_squarefree_z
    monkeypatch.setattr(factoring, "_factor_squarefree_z",
                        lambda G: zassenhaus.append(G) or real(G))
    f = dict(_CASES)["swinnerton-dyer 2,3"]
    assert f == X ** 4 - 10 * X ** 2 + 1
    assert factor_irreducible(f).factors == ((f, 1),)
    assert zassenhaus == []


def test_tower_factors_each_piece_once(monkeypatch):
    # under x^2 with c = 1 every factor of level n - 1 returns at level n;
    # x^2 - 1, level 1's iterate, is also the piece of x - 1
    pieces = []
    real = heights._factors
    monkeypatch.setattr(heights, "_factors",
                        lambda p: pieces.append(p) or real(p))
    rows = heights.special_probe(X ** 2, Poly.const(1), 1, 6)
    assert [r.factor_degree for r in rows] == [1] * 6
    assert len(pieces) == len(set(pieces)) == 6


def _record():
    data = {}
    for label, f in cases(with_pieces=False):
        data[label] = dict(input=[str(c) for c in f.coeffs],
                           **_encode(factor_irreducible(f)))
    _CACHE.update(data)
    for label, f in cases()[len(data):]:
        data[label] = dict(input=[str(c) for c in f.coeffs],
                           **_encode(factor_irreducible(f)))
    DATA.write_text(json.dumps(data, indent=1) + "\n")
    print("recorded %d factor lists in %s" % (len(data), DATA), file=sys.stderr)


if __name__ == "__main__":
    _record()
