"""Factorization over Q: squarefree split, then Zassenhaus.

The pipeline is classical: the power of x split off once; a quadratic
decided by its discriminant, an even quartic by the biquadratic test, or
an Eisenstein test (with small Taylor shifts on the integer coefficients),
first on the rest and then on each part of Yun's squarefree
decomposition; finite-field factorization of the parts left, quadratic Hensel
lifting of the modular factors, and subset recombination pruned by
cross-prime degree analysis.  Intended for the low degrees that gcds of
iterates actually produce; callers hit the degree cap long before
recombination can explode.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
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

class FactorList(namedtuple("FactorList", "content factors")):
    """f = content * prod(p_i ** e_i) with monic irreducible p_i; content is
    a Fraction and factors the tuple of pairs (p_i, e_i)."""

    __slots__ = ()

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
# prime splitting and the Eisenstein quick test
# ---------------------------------------------------------------------------

def _valuation(n: int, b: int) -> int:
    """The largest k with b^k | n, for n != 0 and b >= 2: twice that of
    b^2, plus one if b divides what is left; about log2 k divisions."""
    if n % b:
        return 0
    w = _valuation(n, b * b)
    return 2 * w + (n // (b * b) ** w % b == 0)


def _prime_split(n: int):
    """(ps, r) for n >= 1: the primes ps of n below 2^10, then the cofactor
    r, which joins ps (r = 1) when no trial divisor up to its square root
    divides it, or when it is below 2^64, where is_prime is exact."""
    ps, d = [], 2
    while d < 1024 and d * d <= n:
        if n % d == 0:
            ps.append(d)
            n //= d ** _valuation(n, d)
        d += 1 if d == 2 else 2
    if n > 1 and (d * d > n or n < 1 << 64 and is_prime(n)):
        return ps + [n], 1
    return ps, n


def _eisenstein_at(f: list[int]) -> bool:
    """Plain Eisenstein criterion on an integer polynomial."""
    if len(f) < 3:
        return False
    g = 0
    for c in f[:-1]:
        g = math.gcd(g, c)
    if g <= 1:
        return False
    for p in _prime_split(g)[0]:
        if f[-1] % p != 0 and f[0] % (p * p) != 0:
            return True
    return False


def _taylor_shift(f: list[int], s: int) -> list[int]:
    """f(x + s) by repeated synthetic division: n^2/2 multiply-adds."""
    f = list(f)
    for i in range(len(f) - 1):
        for j in range(len(f) - 2, i - 1, -1):
            f[j] += s * f[j + 1]
    return f


def _eisenstein_shifted(f: list[int]) -> bool:
    """Eisenstein after a small shift proves irreducibility of f itself."""
    return _eisenstein_at(f) or any(_eisenstein_at(_taylor_shift(f, s))
                                    for s in (1, -1, 2, -2))


def _exact_sqrt(n: int):
    """r >= 0 with r * r == n, or None."""
    r = math.isqrt(n) if n >= 0 else -1
    return r if r * r == n else None


def _biquadratic(G: list[int]):
    """[(factor, multiplicity)] of a primitive a x^4 + b x^2 + c, c != 0.

    With X = a x, a^3 G = X^4 + B X^2 + C for B = ab, C = a^3 c.  It splits
    over Q exactly when b^2 - 4ac = r^2, as 4a G = (2a x^2 + b - r)
    (2a x^2 + b + r), or when C = d^2 and 2d - B = k^2 > 0, as
    (X^2 - k X + d)(X^2 + k X + d) (Kappe and Warren, Amer. Math. Monthly
    96, 1989)."""
    c, _, b, _, a = G
    # G as a quadratic in y = x^2: coprime halves, or a square at r = 0
    halves = _settle([c, b, a])
    if len(halves[0][0]) == 2:
        return [(h, e * m) for (q0, q1), e in halves
                for h, m in _settle([q0, 0, q1])]
    B, root = a * b, _exact_sqrt(a ** 3 * c)
    for d in (root, -root) if root else ():
        k = _exact_sqrt(2 * d - B)
        if k:
            return [(zx_primitive([d, s * k * a, a * a])[1], 1)
                    for s in (-1, 1)]
    return [(G, 1)]


def _settle(G: list[int]):
    """[(factor, multiplicity)] of a primitive G of degree below 3, of an
    even quartic, or of a G that Eisenstein proves irreducible; else None.
    a x^2 + b x + c with b^2 - 4ac = r^2 has the factors 2a x + b -+ r,
    and none otherwise."""
    if len(G) < 3:
        return [(G, 1)] if len(G) == 2 else []
    if len(G) == 5 and G[1] == G[3] == 0:
        return _biquadratic(G)
    if len(G) > 3:
        return [(G, 1)] if _eisenstein_shifted(G) else None
    c, b, a = G
    r = _exact_sqrt(b * b - 4 * a * c)
    if r is None:
        return [(G, 1)]
    hs = [zx_primitive([b - r, 2 * a])[1], zx_primitive([b + r, 2 * a])[1]]
    return [(hs[0], 2)] if r == 0 else [(h, 1) for h in hs]


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
        # h(x^p) = h^p mod v: Horner takes deg h products, the binary
        # power bitlen(p) + popcount(p) - 2; take the fewer
        h = (gf_powmod(h, p, v, p)
             if zx_deg(h) > p.bit_length() + bin(p).count("1") - 2
             else gf_compose_mod(h, xp, v, p))
    if zx_deg(v) > 0:
        out.append((zx_deg(v), v))
    return out


def _gf_edf(w: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of w (product of degree-d irreducibles) mod p."""
    if zx_deg(w) == d:
        return [w]
    e = (p ** d - 1) // 2
    while True:
        r = zx_trim([rng.randrange(p) for _ in range(zx_deg(w))])
        if zx_deg(r) < 1:
            continue
        s = gf_powmod(r, e, w, p)
        g = gf_gcd(gf_sub(s, [1], p), w, p)
        if 0 < zx_deg(g) < zx_deg(w):
            rest = gf_divmod(w, g, p)[0]
            return _gf_edf(g, d, p, rng) + _gf_edf(rest, d, p, rng)


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
    """Irreducible factors of a primitive squarefree G that _settle left.

    The modular factors of lc(G)^-1 G, monic mod p, are lifted to M = p^(2^s)
    (von zur Gathen and Gerhard, Modern Computer Algebra, Alg. 15.19 with
    15.17).  A factor h of the part H of G still unfactored has
    lc(H) prod_S g_i = (lc(H) / lc(h)) h mod M for a subset S of the lifted
    g_i; Mignotte bounds h by (|G|_2 + 1) 2^n and |lc(H)| <= |lc(G)|, so a
    modulus past twice lc(G) times that bound gives h back exactly as the
    primitive part of the symmetric residue."""
    n = zx_deg(G)

    # candidate primes keeping G of degree n and squarefree: the
    # distinct-degree split gives each one's factor degrees, for the
    # pruning mask and the choice
    want = 3 if n <= 24 else 2
    cands = []
    mask = (1 << (n + 1)) - 1
    q = 101
    while len(cands) < want:
        while not is_prime(q):
            q += 2
        gq = gf_from_zx(G, q)
        if zx_deg(gq) == n and zx_deg(gf_gcd(gq, gf_deriv(gq, q), q)) == 0:
            ddf = _gf_ddf(gq, q)
            pattern = [d for d, w in ddf for _ in range(zx_deg(w) // d)]
            cands.append((len(pattern), q, ddf))
            mask &= _degree_mask(pattern)
        q += 2
    interior = mask & ~1 & ~(1 << n)
    if interior == 0:
        return [G]  # only trivial factor degrees possible

    # the equal-degree split runs on the chosen prime alone
    _, p, ddf = min(cands, key=lambda c: c[0])
    rng = random.Random(0xC0FFEE ^ p)
    facs = sorted(h for d, w in ddf for h in _gf_edf(w, d, p, rng))
    bound = abs(G[-1]) * ((math.isqrt(sum(c * c for c in G)) + 1) << n)
    target = 2 * bound + 1
    M = p
    while M < target:
        M = M * M
    lifted = _lift_tree(gf_monic(G, M), facs, p, M)

    # subset recombination: each product starts at lc(H)
    out = []
    rem_idx = list(range(len(lifted)))
    H = G
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
            cand = [H[-1]]
            for i in combo:
                cand = gf_mul(cand, lifted[i], M)
            cand = zx_primitive(_symmetric(cand, M))[1]
            if cand[0] != 0 and H[0] != 0 and H[0] % cand[0] != 0:
                continue
            quo = zx_divides(H, cand)
            if quo is not None:
                out.append(cand)
                H = quo
                rem_idx = [i for i in rem_idx if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    if zx_deg(H) > 0:
        out.append(H)

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
    G = zx_primitive(nums[k:])[1]
    parts = _settle(G)
    if parts is None:
        # Yun's parts are squarefree and monic; G itself failed _settle
        parts = []
        for part, mult in squarefree_decomposition(
                Poly.from_int_list(nums[k:], den))[1]:
            P = zx_primitive(part.int_form()[0])[1]
            parts += [(h, e * mult) for h, e in (P != G and _settle(P)) or
                      [(h, 1) for h in _factor_squarefree_z(P)]]
    factors += [(Poly(h).monic(), e) for h, e in parts]
    factors.sort(key=lambda pe: _factor_sort_key(pe[0]))
    return FactorList(Fraction(nums[-1], den), tuple(factors))


def is_irreducible(f: Poly) -> bool:
    # one factor of multiplicity 1 has the degree of f
    return f.degree >= 1 and \
        [e for _, e in factor_irreducible(f).factors] == [1]
