"""Factorization over Q: squarefree split, then Zassenhaus.

The pipeline is classical: the power of x split off once, Yun's squarefree
decomposition of the rest, an Eisenstein quick test (with small Taylor
shifts) that certifies many naturally occurring irreducibles instantly,
then finite-field factorization of each squarefree part, quadratic Hensel
lifting of the modular factors, and subset recombination pruned by
cross-prime degree analysis.  Intended for the low degrees that gcds of
iterates actually produce; callers hit the degree cap long before
recombination can explode.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import LIMITS, ResourceLimitError, VerificationError
from .modular import (
    gf_add, gf_compose_mod, gf_deriv, gf_from_zx, gf_gcd, gf_divmod,
    gf_monic, gf_mul, gf_powmod, gf_sub, gf_xgcd, is_prime,
    zx_deg, zx_divides, zx_mul, zx_primitive, zx_trim,
)
from .polys import Poly, poly_gcd


# ---------------------------------------------------------------------------
# factor list container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorList:
    """f = content * prod(p_i ** e_i) with monic irreducible p_i."""

    content: Fraction
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        out = Poly.const(self.content)
        for p, e in self.factors:
            out = out * p ** e
        return out


def _factor_sort_key(p: Poly):
    return (p.degree, p.coeffs)


# ---------------------------------------------------------------------------
# Yun squarefree decomposition
# ---------------------------------------------------------------------------

def squarefree_decomposition(f: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Yun: f = content * prod(a_i ** i) with a_i monic, squarefree, coprime."""
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    lc = f.leading()
    f = f.monic()
    if f.degree < 1:
        return lc, []
    df = f.derivative()
    g = poly_gcd(f, df)
    if g.degree == 0:
        return lc, [(f, 1)]
    out = []
    b = (f // g).monic()
    c = df // g
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = (b // a).monic()
        c = d // a
        d = c - b.derivative()
        i += 1
    return lc, out


# ---------------------------------------------------------------------------
# Eisenstein quick test
# ---------------------------------------------------------------------------

def _small_prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 2
    while d * d <= n and d <= 10000:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1 and is_prime(n):
        out.append(n)
    return out


def _eisenstein_at(f: list[int]) -> bool:
    """Plain Eisenstein criterion on an integer polynomial."""
    if len(f) < 3:
        return False
    g = 0
    for c in f[:-1]:
        g = math.gcd(g, c)
    if g <= 1:
        return False
    for p in _small_prime_factors(g):
        if f[-1] % p != 0 and f[0] % (p * p) != 0:
            return True
    return False


def _eisenstein_shifted(f: list[int]) -> bool:
    """Eisenstein after a small shift proves irreducibility of f itself."""
    if _eisenstein_at(f):
        return True
    fx = Poly.from_int_list(f)
    return any(_eisenstein_at(fx.shift(s).int_form()[0])
               for s in (1, -1, 2, -2))


# ---------------------------------------------------------------------------
# finite-field factorization (distinct degree + equal degree)
# ---------------------------------------------------------------------------

def _gf_ddf(g: list[int], p: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree split of a monic squarefree g mod p."""
    out = []
    v = gf_monic(list(g), p)
    x = [0, 1]
    xp = gf_powmod(x, p, v, p)
    h = list(xp)
    i = 1
    while zx_deg(v) >= 2 * i:
        w = gf_gcd(gf_sub(h, x, p), v, p)
        if zx_deg(w) > 0:
            out.append((i, w))
            v = gf_divmod(v, w, p)[0]
            h = gf_divmod(h, v, p)[1]
            xp = gf_divmod(xp, v, p)[1]
        i += 1
        if zx_deg(v) < 2 * i:
            break
        h = gf_compose_mod(h, xp, v, p)
    if zx_deg(v) > 0:
        out.append((zx_deg(v), v))
    return out


def _gf_edf(w: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of w (product of degree-d irreducibles) mod p."""
    if zx_deg(w) == d:
        return [w]
    e = (p ** d - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(zx_deg(w))]
        r = zx_trim(r)
        if zx_deg(r) < 1:
            continue
        s = gf_powmod(r, e, w, p)
        g = gf_gcd(gf_sub(s, [1], p), w, p)
        if 0 < zx_deg(g) < zx_deg(w):
            rest = gf_divmod(w, g, p)[0]
            return _gf_edf(g, d, p, rng) + _gf_edf(rest, d, p, rng)


def _gf_factor_squarefree(g: list[int], p: int) -> list[list[int]]:
    rng = random.Random(0xC0FFEE ^ p)
    out = []
    for d, w in _gf_ddf(g, p):
        out.extend(_gf_edf(w, d, p, rng))
    return sorted(out)


# ---------------------------------------------------------------------------
# Hensel lifting (monic, quadratic, factor tree)
# ---------------------------------------------------------------------------

def _hensel_step(G, A, B, S, T, m):
    """One quadratic step: modulus m -> m*m, all of A, B monic."""
    M = m * m
    Gm = [c % M for c in G]
    e = gf_sub(Gm, gf_mul(A, B, M), M)
    q, r = gf_divmod(gf_mul(S, e, M), B, M)
    A1 = gf_add(A, gf_add(gf_mul(T, e, M), gf_mul(q, A, M), M), M)
    B1 = gf_add(B, r, M)
    b = gf_sub(gf_add(gf_mul(S, A1, M), gf_mul(T, B1, M), M), [1], M)
    c, d = gf_divmod(gf_mul(S, b, M), B1, M)
    S1 = gf_sub(S, d, M)
    T1 = gf_sub(gf_sub(T, gf_mul(T, b, M), M), gf_mul(c, A1, M), M)
    if not A1 or A1[-1] != 1 or len(A1) != len(A):
        raise VerificationError("Hensel step lost monic normalization")
    return A1, B1, S1, T1


def _lift_tree(G: list[int], facs: list[list[int]], p: int, M: int) -> list[list[int]]:
    """Lift monic factors of G from mod p to mod M = p**(2**s)."""
    if len(facs) == 1:
        return [zx_trim([c % M for c in G])]
    k = len(facs) // 2
    A = [1]
    for fi in facs[:k]:
        A = gf_mul(A, fi, p)
    B = [1]
    for fi in facs[k:]:
        B = gf_mul(B, fi, p)
    d, S, T = gf_xgcd(A, B, p)
    if zx_deg(d) != 0:
        raise VerificationError("modular factors not coprime")
    m = p
    while m < M:
        A, B, S, T = _hensel_step(G, A, B, S, T, m)
        m = m * m
    return _lift_tree(A, facs[:k], p, M) + _lift_tree(B, facs[k:], p, M)


# ---------------------------------------------------------------------------
# Zassenhaus driver
# ---------------------------------------------------------------------------

def _symmetric(f: list[int], m: int) -> list[int]:
    half = m // 2
    return zx_trim([c - m if c > half else c for c in f])


def _degree_mask(pattern: list[int]) -> int:
    mask = 1
    for d in pattern:
        mask |= mask << d
    return mask


def _factor_squarefree_z(G: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree integer polynomial."""
    n = zx_deg(G)
    if n <= 1:
        return [G]
    if _eisenstein_shifted(G):
        return [G]

    # monic transform: roots scale by lc, leading term becomes exactly 1
    lc = G[-1]
    if lc != 1:
        Gm = [c * lc ** (n - 1 - k) for k, c in enumerate(G[:-1])] + [1]
    else:
        Gm = list(G)

    # candidate primes keeping Gm squarefree; keep degree patterns for pruning
    want = 3 if n <= 24 else 2
    cands = []
    mask = (1 << (n + 1)) - 1
    q = 101
    while len(cands) < want:
        while not is_prime(q):
            q += 2
        gq = gf_from_zx(Gm, q)
        if zx_deg(gq) == n and zx_deg(gf_gcd(gq, gf_deriv(gq, q), q)) == 0:
            fac = _gf_factor_squarefree(gf_monic(gq, q), q)
            cands.append((q, fac))
            mask &= _degree_mask([zx_deg(h) for h in fac])
        q += 2
    interior = mask & ~1 & ~(1 << n)
    if interior == 0:
        return [G]  # only trivial factor degrees possible

    p, facs = min(cands, key=lambda c: len(c[1]))
    # Mignotte-style height bound for monic factors of Gm
    bound = (math.isqrt(sum(c * c for c in Gm)) + 1) << n
    target = 2 * bound + 1
    M = p
    while M < target:
        M = M * M
    lifted = _lift_tree(Gm, facs, p, M)

    # subset recombination in the monic world
    found_m = []
    rem_idx = list(range(len(lifted)))
    H = Gm
    size = 1
    tried = 0
    while 2 * size <= len(rem_idx):
        hit = False
        for combo in itertools.combinations(rem_idx, size):
            tried += 1
            if tried > LIMITS.recombination_subsets:
                raise ResourceLimitError(
                    "recombination of %d modular factors tried more than %d "
                    "subsets" % (len(lifted), LIMITS.recombination_subsets))
            dsum = sum(zx_deg(lifted[i]) for i in combo)
            if not (mask >> dsum) & 1:
                continue
            cand = [1]
            for i in combo:
                cand = gf_mul(cand, lifted[i], M)
            cand = _symmetric(cand, M)
            if cand[0] != 0 and H[0] != 0 and H[0] % cand[0] != 0:
                continue
            quo = zx_divides(H, cand)
            if quo is not None:
                found_m.append(cand)
                H = quo
                rem_idx = [i for i in rem_idx if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    if zx_deg(H) > 0:
        found_m.append(H)

    if lc == 1:
        out = found_m
    else:
        out = []
        for h in found_m:
            hx = [c * lc ** k for k, c in enumerate(h)]
            out.append(zx_primitive(hx)[1])
    # cross-check the reconstruction
    prod = [1]
    for h in out:
        prod = zx_mul(prod, h)
    _, pp = zx_primitive(prod)
    if pp != G:
        raise VerificationError("factor recombination does not reproduce input")
    return out


def factor_irreducible(f: Poly) -> FactorList:
    """Full irreducible factorization over Q (monic factors + content)."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    # split off x^k before Yun; it is common in gcds of iterates and free
    # to detect, and what remains may be a constant that needs no gcd
    nums, den = f.int_form()
    k = 0
    while nums[k] == 0:
        k += 1
    factors: list[tuple[Poly, int]] = [(Poly.x(), k)] if k else []
    content, parts = squarefree_decomposition(Poly.from_int_list(nums[k:], den))
    for part, mult in parts:
        _, prim = zx_primitive(part.int_form()[0])
        # parts are monic, so their monic irreducible factors multiply back
        # exactly; the content is untouched by this loop
        for h in _factor_squarefree_z(prim):
            factors.append((Poly(h).monic(), mult))
    factors.sort(key=lambda pe: _factor_sort_key(pe[0]))
    return FactorList(content, tuple(factors))


def is_irreducible(f: Poly) -> bool:
    if f.degree < 1:
        return False
    fl = factor_irreducible(f)
    return len(fl.factors) == 1 and fl.factors[0][1] == 1 and \
        fl.factors[0][0].degree == f.degree
