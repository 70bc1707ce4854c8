"""Integer and GF(p) dense-polynomial kernels.

Everything here works on plain ``list[int]`` coefficient vectors in
little-endian order (index = power of x) with trailing zeros stripped; the
empty list is the zero polynomial.  These kernels back the user-facing Poly
type: gcds run modulo a stream of word-size primes and are reconstructed via
CRT + rational reconstruction, with the subresultant PRS kept as an
independent slow route for cross-checking.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from array import array
from fractions import Fraction
from itertools import compress, zip_longest

from .errors import VerificationError, check_primes

# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the primes of the stream found so far
_PRIMES: list[int] = []
_PRIMES_LOCK = threading.Lock()


def prime_stream():
    """Endless descending stream of the primes below 2**29.

    The sequence is fixed, so the primes found are kept and a later call
    replays them without testing a candidate twice.
    """
    i = 0
    while True:
        if i == len(_PRIMES):
            with _PRIMES_LOCK:
                if i == len(_PRIMES):
                    n = _PRIMES[-1] - 2 if _PRIMES else (1 << 29) - 1
                    while not is_prime(n):
                        n -= 2
                    _PRIMES.append(n)
        yield _PRIMES[i]
        i += 1


# ---------------------------------------------------------------------------
# Z[x] basics
# ---------------------------------------------------------------------------

def zx_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def zx_deg(f: list[int]) -> int:
    return len(f) - 1


# Kronecker substitution (Harvey, J. Symb. Comp. 2009, section 2): pack each
# vector into one integer with a digit per coefficient, multiply once in
# CPython's Karatsuba, and read the digits back.  Below these operand lengths
# (the shorter one) zx_mul's schoolbook loop is faster: signed digits of 1,
# 2, 4 or 8 bytes are packed and read through array/memoryview casts, wider
# ones one int.to_bytes per coefficient.  Measured on CPython 3.11; squares
# (f is g) cross over sooner.
KRON_NATIVE_LEN, KRON_NATIVE_SQR = 8, 6
KRON_WIDE_LEN, KRON_WIDE_SQR = 20, 12
# From GF_SLOT_LEN terms on, gf_mul packs f, g reduced mod p < 2**31 in
# unsigned slots of max(4, D // 8 + 1) bytes, D = bitlen(m (p - 1)**2) for
# the shorter length m, and one _gf_reduce leaves each product coefficient
# mod p in its slot's low 4 bytes.  Against zx_mul and % p (CPython 3.11):
# 1.6 to 2.8 times as fast for the 29-bit gcd primes at 32 to 512 terms; as
# fast for 14-bit moduli at 32, slower at 24, where 5-byte slots start.
GF_SLOT_LEN = 32

# digit width in bytes -> machine format with that width; the casts read the
# digits in memory order, which is their order only on a little-endian host
_NATIVE = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}


def _top_bits(k: int, n: int) -> int:
    """The top bit of each of n digits of k bytes."""
    return int.from_bytes((bytes(k - 1) + b"\x80") * n, "little")


def _kron_pack(f, k: int, neg: bool) -> int:
    """sum f_i 256**(k i) for |f_i| < 2**(8k-1).

    Each coefficient is written as a k-byte two's complement digit; a
    negative digit then reads 2**(8k) too high, and its top bit, shifted up
    by one, is exactly that excess."""
    code = _NATIVE.get(k)
    if code:
        t = int.from_bytes(array(code, f).tobytes(), "little")
    else:
        t = int.from_bytes(b"".join([c.to_bytes(k, "little", signed=True)
                                     for c in f]), "little")
    if neg:
        t -= (t & _top_bits(k, len(f))) << 1
    return t


def _kron_mul(f, g, k: int) -> list[int]:
    """f*g with k-byte digits.

    A signed product is read after adding 2**(8k-1) to every digit, so that
    no digit borrows from the next, and flipping that bit back: the digits
    then read as k-byte two's complement numbers.  Linear time apart from
    the one product."""
    n = len(f) + len(g) - 1
    nf = min(f) < 0
    F = _kron_pack(f, k, nf)
    if f is g:
        H, signed = F * F, nf
    else:
        ng = min(g) < 0
        H, signed = F * _kron_pack(g, k, ng), nf or ng
    if signed:
        o = _top_bits(k, n)
        H = (H + o) ^ o
    return zx_trim(_kron_unpack(H, n, k))


def _kron_unpack(H: int, n: int, k: int) -> list[int]:
    """The n k-byte two's complement digits of 0 <= H < 256**(k n)."""
    b = H.to_bytes(n * k, "little")
    code = _NATIVE.get(k)
    if code:
        return memoryview(b).cast(code).tolist()
    return [int.from_bytes(b[i:i + k], "little", signed=True)
            for i in range(0, n * k, k)]


def zx_mul(f: list[int], g: list[int]) -> list[int]:
    """f*g over Z; also takes tuples.

    Lengths alone pick the schoolbook loop for short operands, so small
    products never scan their coefficients.  Longer ones find the digit
    width that holds every product coefficient and its sign, and take the
    Kronecker route when that width is fast at their length.  A square
    (f is g) is packed once and multiplied by itself.
    """
    if not f or not g:
        return []
    sq = f is g
    m = min(len(f), len(g))
    if m >= (KRON_NATIVE_SQR if sq else KRON_NATIVE_LEN):
        bits = max(map(int.bit_length, f))
        bits = 2 * bits if sq else bits + max(map(int.bit_length, g))
        # |h_i| <= m max|f| max|g| < 2**(bits + m.bit_length()); one more
        # bit holds the sign
        k = (bits + m.bit_length() + 8) >> 3
        if k <= 8 and _NATIVE:
            k = 1 << (k - 1).bit_length()
        elif m < (KRON_WIDE_SQR if sq else KRON_WIDE_LEN):
            k = 0
        if k:
            return _kron_mul(f, g, k)
    out = [0] * (len(f) + len(g) - 1)
    gnz = [(j, c) for j, c in enumerate(g) if c]
    for i, a in enumerate(f):
        if a:
            for j, b in gnz:
                out[i + j] += a * b
    return zx_trim(out)


def zx_content(f: list[int]) -> int:
    return math.gcd(*f)


def zx_primitive(f: list[int]) -> tuple[int, list[int]]:
    """Split f = cont * prim with prim primitive and lc(prim) > 0."""
    if not f:
        return 0, []
    cont = zx_content(f)
    if f[-1] < 0:
        cont = -cont
    return cont, [c // cont for c in f]


def zx_divides(f: list[int], g: list[int]):
    """Exact quotient f/g over Z, or None.

    Both arguments should be primitive (Gauss: a primitive divisor of a
    primitive polynomial has an integer quotient), which is how the gcd
    verification below calls it.
    """
    if not g:
        return None
    if not f:
        return []
    if len(f) < len(g):
        return None
    rem = list(f)
    glc = g[-1]
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(g) - 1]
        if c == 0:
            continue
        if c % glc:
            return None
        t = c // glc
        q[k] = t
        for j, b in enumerate(g):
            rem[k + j] -= t * b
    if any(rem):
        return None
    return zx_trim(q)


# ---------------------------------------------------------------------------
# GF(p)[x] basics
# ---------------------------------------------------------------------------

def gf_from_zx(f: list[int], p: int) -> list[int]:
    return zx_trim([c % p for c in f])


def gf_add(f: list[int], g: list[int], p: int) -> list[int]:
    return zx_trim([(a + b) % p for a, b in zip_longest(f, g, fillvalue=0)])


def gf_sub(f: list[int], g: list[int], p: int) -> list[int]:
    return zx_trim([(a - b) % p for a, b in zip_longest(f, g, fillvalue=0)])


def _slot_pack(f: list[int], k: int) -> int:
    """sum f_i 256**(k i) for 0 <= f_i < 2**31 and k >= 4: machine digits
    for k = 4 and 8, other widths by strided copies of 4-byte digits."""
    if k in _NATIVE:
        return _kron_pack(f, k, False)
    a, b = array(_NATIVE[4], f).tobytes(), bytearray(k * len(f))
    for j in range(4):
        b[j::k] = a[j::4]
    return int.from_bytes(b, "little")


def _slot_unpack(R: int, n: int, k: int) -> list[int]:
    """The n k-byte slots of R, each below 2**31 (_slot_pack reversed)."""
    if k in _NATIVE:
        return _kron_unpack(R, n, k)
    b, out = R.to_bytes(n * k, "little"), bytearray(4 * n)
    for j in range(4):
        out[j::4] = b[j::k]
    return memoryview(out).cast(_NATIVE[4]).tolist()


def _slot_width(m: int, p: int) -> int:
    """Bytes per slot of gf_mul's product of m-term operands mod p."""
    return max(4, (m * (p - 1) ** 2).bit_length() // 8 + 1)


def gf_mul(f: list[int], g: list[int], p: int) -> list[int]:
    """f*g mod p, for any modulus p >= 2 (Hensel lifts use prime powers).

    Long products of f, g reduced mod p < 2**31 take unsigned slots and one
    `_gf_reduce` (see GF_SLOT_LEN), all others zx_mul and a pass of % p."""
    m = min(len(f), len(g))
    if (m >= GF_SLOT_LEN and p < 1 << 31 and _NATIVE and _reduced(f, p)
            and (f is g or _reduced(g, p))):
        k = _slot_width(m, p)
        F, n = _slot_pack(f, k), len(f) + len(g) - 1
        R = _gf_reduce(F * F if f is g else F * _slot_pack(g, k), n, p, k)
        return zx_trim(_slot_unpack(R, n, k))
    return zx_trim([c % p for c in zx_mul(f, g)])


def gf_scale(f: list[int], a: int, p: int) -> list[int]:
    a %= p
    return zx_trim([c * a % p for c in f])


def gf_monic(f: list[int], p: int) -> list[int]:
    if not f:
        return []
    return gf_scale(f, pow(f[-1], -1, p), p)


# Division mod p on packed digits (classical division and Euclid with
# Kronecker packing; von zur Gathen and Gerhard, Modern Computer Algebra,
# ch. 2, 3 and 8): f and g are packed once as 64-bit digits, and each
# quotient term costs one read of the top live digit and one big-int
# multiply-add of g into place, both in C.  The scalar loop costs one step
# per nonzero divisor term, the packed one a pass over the whole divisor
# plus packing, so the packed route needs a divisor of GF_PACK_LEN terms or
# more, at least one in GF_PACK_DENSITY of them nonzero, and a quotient of
# GF_PACK_QUO terms or more.  Measured on CPython 3.11 with 29-bit primes:
# at 16 terms and a 3-term quotient the two routes cost the same, and on
# x^32 - a (two nonzero terms of 33) the packed one costs 2.7 times the
# scalar one.
GF_PACK_LEN, GF_PACK_QUO, GF_PACK_DENSITY = 16, 3, 3
_DIGIT = (1 << 64) - 1

# (p, k) -> (slots, E, Q, m, K) for _gf_reduce, masks covering `slots` slots
_REDUCERS: dict[tuple[int, int], tuple] = {}


def _pack_budget(p: int) -> int:
    """Quotient terms between two reductions of the packed digits.

    A digit starts below p and each term adds at most (p - 1)**2 to it, so
    after this many terms it is still below 2**63 and reads back as a
    non-negative 64-bit integer."""
    return ((1 << 63) - p) // (p - 1) ** 2


def _packs(g: list[int], p: int) -> bool:
    """Whether division by g mod p takes the packed route, given f and g
    reduced mod p."""
    return (len(g) >= GF_PACK_LEN
            and GF_PACK_DENSITY * (len(g) - g.count(0)) >= len(g)
            and bool(_NATIVE) and _pack_budget(p) > 0)


def _reduced(f: list[int], p: int) -> bool:
    return not f or (min(f) >= 0 and max(f) < p)


def _gf_reduce(W: int, n: int, p: int, k: int = 8) -> int:
    """Each of the n k-byte slots of W, all below 2**(8k - 1), reduced mod p.

    Division by an invariant integer (Granlund and Montgomery, PLDI 1994):
    with K = 8k - 1 + bitlen(p) and m = ceil(2**K / p), d*m >> K is d // p
    for every d < 2**(8k - 1), and d*m < 2**(16k - 1).  So the even slots,
    then the odd ones, each alone in a 2k-byte slot, are divided by one
    multiply and one shift for all of them at once; Q masks the quotients,
    which are below 2**(8k - bitlen(p)), off the next slot's bits.  No slot
    borrows when the quotients times p are subtracted."""
    red = _REDUCERS.get((p, k))
    if red is None or red[0] < n:
        if len(_REDUCERS) >= 16:
            _REDUCERS.clear()
        pairs = max(n, 2 * red[0] if red else 64) // 2 + 1
        b = p.bit_length()
        E = int.from_bytes((bytes([255] * k) + bytes(k)) * pairs, "little")
        Q = int.from_bytes((((1 << (8 * k - b)) - 1).to_bytes(k, "little")
                            + bytes(k)) * pairs, "little")
        K = 8 * k - 1 + b
        red = _REDUCERS[p, k] = (2 * pairs, E, Q, -(-(1 << K) // p), K)
    _, E, Q, m, K = red
    X, Y = W & E, (W >> 8 * k) & E
    return W - ((((X * m) >> K) & Q) | ((((Y * m) >> K) & Q) << 8 * k)) * p


def _gf_rem_packed(F: int, lf: int, G: int, lg: int, p: int, block: int,
                   q: list[int] | None = None) -> int:
    """The remainder of f by g mod p, packed; the quotient goes to q.

    F packs the lf digits of f, G the lg digits of g, all below p, and
    block is at most the budget.  Digits stay non-negative: a term adds
    (p - t)*g, not -t*g.  The terms run top down in blocks.  A block works
    on the window of digits from its lowest term up, and at its end the
    window's live digits, the only ones that grew, are reduced and put back
    in place; the digits above them are spent quotient positions and are
    dropped."""
    n1 = lg - 1
    inv = pow(G >> (64 * n1), -1, p)
    top = 64 * n1
    live = (1 << top) - 1
    k = lf - lg
    while k >= 0:
        lo = max(k - block + 1, 0)
        W = F >> (64 * lo)
        for j in range(k - lo, -1, -1):
            t = ((W >> (64 * j + top)) & _DIGIT) % p * inv % p
            if t:
                if q is not None:
                    q[lo + j] = t
                W += ((p - t) * G) << (64 * j)
        W = _gf_reduce(W & live, n1, p)
        F = (F & ((1 << (64 * lo)) - 1)) | (W << (64 * lo)) if lo else W
        k = lo - 1
    return F


def _digits(R: int) -> int:
    """How many 64-bit digits R has."""
    return (R.bit_length() + 63) >> 6


def gf_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with f = q*g + r mod p and deg r < deg g.

    f must already be reduced mod p: when deg f < deg g it comes back as r
    unchanged.  The scalar loop reduces each quotient term it reads, and
    the remainder once (for Hensel's prime powers, 2.6 times as fast).
    Any modulus p works as long as lc(g) is a unit mod p (Hensel lifts divide
    by monic factors modulo prime powers); otherwise pow raises ValueError.

    Routes: the packed loop (_gf_rem_packed) takes the division when
    the divisor is long and dense enough (_packs: GF_PACK_LEN terms, one in
    GF_PACK_DENSITY nonzero), the quotient has GF_PACK_QUO terms or more,
    f and g are reduced mod p, p leaves a budget of at least one term
    between reductions (p <= 3037000500, so not Hensel's large prime powers)
    and the host has machine-format digits.  Everything else takes the scalar
    loop: short or sparse divisors, short quotients, unreduced f.
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return [], list(f)
    if (len(f) - len(g) >= GF_PACK_QUO - 1 and _packs(g, p)
            and _reduced(f, p) and _reduced(g, p)):
        q = [0] * (len(f) - len(g) + 1)
        R = _gf_rem_packed(_kron_pack(f, 8, False), len(f),
                           _kron_pack(g, 8, False), len(g), p,
                           min(_pack_budget(p), len(g)), q)
        return zx_trim(q), _kron_unpack(R, _digits(R), 8)
    rem = list(f)
    inv = pow(g[-1], -1, p)
    q = [0] * (len(f) - len(g) + 1)
    gnz = [(j, c) for j, c in enumerate(g[:-1]) if c]
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + len(g) - 1] % p
        if c:
            t = q[k] = c * inv % p
            for j, b in gnz:
                rem[k + j] -= t * b
    return zx_trim(q), zx_trim([c % p for c in rem[:len(g) - 1]])


def gf_rem(f: list[int], g: list[int], p: int) -> list[int]:
    return gf_divmod(f, g, p)[1]


def _deflation(a: list[int], b: list[int]) -> int:
    """The largest e with a and b both polynomials in x**e (0 when both
    are constants); 1 as soon as a term's power shows it."""
    e = 0
    for f in (b, a):
        for i in compress(range(len(f)), f):
            e = math.gcd(e, i)
            if e == 1:
                return 1
    return e


def _gf_fold(W: int, c: int, lo: int, hi: int) -> int:
    """The 64-bit digits of W folded twice by 2**29 = c mod p = 2**29 - c.

    lo and hi mask the low 29 and the low 35 bits of every digit.  A digit
    d < 2**64 becomes (d mod 2**29) + c (d >> 29) < 2**29 + c 2**35, and
    after the second fold, for c < 2**10, a digit congruent to d mod p and
    below 2**29 + 2**27 < 2p: shifts, masks and one-limb multiplies
    (Solinas, "Generalized Mersenne numbers", CORR 99-39, 1999)."""
    W = (W & lo) + ((W >> 29) & hi) * c
    return (W & lo) + ((W >> 29) & hi) * c


def gf_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd mod p by Euclid.

    Inputs whose shorter one has GF_PACK_LEN terms or more and that are
    both polynomials in x**e, as every line of x**d + a against a constant
    target is, are deflated first and the gcd inflated, so their steps drop
    one degree, not e.  When the shorter deflated input takes the packed
    division (_packs) and both are reduced mod p, the whole remainder
    sequence stays packed in 64-bit digits (_gf_euclid); everything else
    runs gf_rem step by step."""
    a, b = (f, g) if len(f) >= len(g) else (g, f)
    e = _deflation(a, b) if len(b) >= GF_PACK_LEN else 1
    if e > 1:
        a, b = a[::e], b[::e]
    if b and _packs(b, p) and _reduced(a, p) and _reduced(b, p):
        h = gf_monic(_gf_euclid(a, b, p), p)
    else:
        while b:
            a, b = b, gf_rem(a, b, p)
        h = gf_monic(a, p)
    if e < 2:
        return h
    out = [0] * (e * len(h) - e + 1)
    out[::e] = h
    return out


def _gf_euclid(a: list[int], b: list[int], p: int) -> list[int]:
    """The last nonzero remainder of Euclid on a and b mod p, up to a unit;
    a and b reduced mod p, len(a) >= len(b) > 0.

    A step whose degree drops by one, as almost every step of a random
    sequence does, is one product and one mask: the quotient q1 x + q0
    comes from the top two digits of a and b, r = a + b ((-q1 mod p) 2**64
    + (-q0 mod p)), and r's top two digits, now 0 mod p, are masked off.
    That adds two products to a digit, so it needs a budget of two
    (_pack_budget).  Longer quotients, the first one and any after a
    remainder lost more than one degree, take the windowed _gf_rem_packed
    on canonical digits.

    For p = 2**29 - c with c < 2**10, as the first 56 primes of
    prime_stream are, the digits stay lazy: a step folds them by _gf_fold
    into [0, 2**29 + 2**27), below 2p, a remainder's degree is read from
    its top digit mod p (a digit 0 mod p is 0 or p), and _gf_reduce makes
    them canonical only before a windowed step and at the end.  Other
    primes reduce each step by _gf_reduce."""
    A, la = _kron_pack(a, 8, False), len(a)
    B, lb = _kron_pack(b, 8, False), len(b)
    budget, c = _pack_budget(p), (1 << 29) - p
    lo = hi = 0
    if 0 < c < 1 << 10:
        lo = int.from_bytes(((1 << 29) - 1).to_bytes(8, "little") * la,
                            "little")
        hi = lo | lo << 6
    while lb > 1:
        if la - lb != 1 or budget < 2:
            R = _gf_rem_packed(A, la, B, lb, p, min(budget, lb))
            A, la, B, lb = B, lb, R, _digits(R)
            continue
        sh = 64 * (lb - 2)
        a2, b2 = A >> sh + 64, B >> sh
        inv = pow(b2 >> 64, -1, p)
        t1 = -(a2 >> 64) * inv % p
        t0 = -((a2 & _DIGIT) + t1 * (b2 & _DIGIT)) * inv % p
        R = (A + B * (t1 << 64 | t0)) & ((1 << sh + 64) - 1)
        R = _gf_fold(R, c, lo, hi) if lo else _gf_reduce(R, lb - 1, p)
        if (R >> sh) % p:
            A, la, B, lb = B, lb, R, lb - 1
        else:
            if lo:
                B, R = _gf_reduce(B, lb, p), _gf_reduce(R, lb - 1, p)
            A, la, B, lb = B, lb, R, _digits(R)
    if lb:
        return [1]
    return _kron_unpack(_gf_reduce(A, la, p) if lo else A, la, 8)


def gf_xgcd(f: list[int], g: list[int], p: int):
    """Extended Euclid: returns (d, s, t) with s*f + t*g = d, d monic."""
    r0, r1 = list(f), list(g)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if not r0:
        return [], [], []
    inv = pow(r0[-1], -1, p)
    return gf_scale(r0, inv, p), gf_scale(s0, inv, p), gf_scale(t0, inv, p)


def _binary_power(x, e: int, one, mul):
    """x**e for e >= 0; multiplies as out = mul(x, out), squares as mul(x, x)."""
    out = one
    while e:
        if e & 1:
            out = mul(x, out)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


# Remainders by a fixed v of degree n (von zur Gathen and Gerhard, Modern
# Computer Algebra, ch. 9): with inv = rev(v)^-1 mod x^(n-1), a of degree
# m <= 2n - 2 has the quotient q = rev(rev(a) inv mod x^(m-n+1)) and the
# remainder a - q v mod x^n, two gf_mul products.  They beat the packed
# division from degree GF_INVERSE_DEG[k] on for k-byte slots (_slot_width),
# from GF_INVERSE_WIDE for wider ones (measured on CPython 3.11).
GF_INVERSE_DEG, GF_INVERSE_WIDE = {4: 40, 5: 56, 6: 64, 7: 64}, 96


@functools.lru_cache(maxsize=16)
def _rev_inverse(v: tuple, p: int) -> tuple:
    """rev(v)^-1 mod x^(deg v - 1) or beyond, by Newton's g <- g (2 - rev(v)
    g): where rev(v) g = 1 + x^m t mod x^2m, the new terms are -g t mod x^m.
    A tuple, since the cache hands the same one to every caller."""
    r, g, m = list(v[::-1]), [pow(v[-1], -1, p)], 1
    while m < len(v) - 2:
        t = gf_mul(r[:2 * m], g, p)[m:2 * m]
        g = zx_trim(g + [0] * (m - len(g))
                    + [-c % p for c in gf_mul(g, t, p)[:m]])
        m *= 2
    return tuple(g)


def _fixed_rem(mod: list[int], p: int):
    """h -> h mod `mod` for h reduced mod p: gf_rem, or from the crossover
    on the two products with rev(mod)'s inverse when deg h < 2 deg mod."""
    n = len(mod) - 1
    width = _slot_width(n, p)
    if not _NATIVE or n < GF_INVERSE_DEG.get(width, GF_INVERSE_WIDE):
        return lambda h: gf_rem(h, mod, p)
    inv = _rev_inverse(tuple(mod), p)

    def rem(h):
        k = len(h) - n      # quotient terms
        if not 0 < k < n:
            return gf_rem(h, mod, p)
        q = gf_mul(h[:n - 1:-1], inv[:k], p)[:k]
        q = (q + [0] * (k - len(q)))[::-1]
        return gf_sub(h[:n], gf_mul(q, mod, p)[:n], p)
    return rem


def gf_powmod(f: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """f^e mod `mod` over GF(p), by binary powering."""
    rem = _fixed_rem(mod, p)
    return _binary_power(gf_rem(f, mod, p), e, [1],
                         lambda a, b: rem(gf_mul(a, b, p)))


def gf_compose_mod(f: list[int], g: list[int], mod: list[int] | None,
                   p: int) -> list[int]:
    """f(g) mod p, and mod `mod` unless it is None, by Horner; g reduced.

    From degree 2 on, the first two steps are c_d g^2 + c_(d-1) g + c_(d-2)
    with g^2 formed as the square gf_mul(g, g), as Poly.evaluate does."""
    red = (lambda h: h) if mod is None else _fixed_rem(mod, p)
    out, rest = [], f
    if len(f) > 2:
        out = gf_add(gf_scale(red(gf_mul(g, g, p)), f[-1], p),
                     gf_add(gf_scale(g, f[-2], p), f[-3:-2], p), p)
        rest = f[:-3]
    for c in reversed(rest):
        out = red(gf_mul(out, g, p))
        if c:
            out = gf_add(out, [c], p)
    return out


def gf_deriv(f: list[int], p: int) -> list[int]:
    return zx_trim([i * c % p for i, c in enumerate(f)][1:])


# ---------------------------------------------------------------------------
# CRT and rational reconstruction
# ---------------------------------------------------------------------------

def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Residue mod m1*m2 matching r1 mod m1 and r2 mod m2 (m1, m2 coprime)."""
    t = (r2 - r1) * pow(m1, -1, m2) % m2
    return r1 + m1 * t


def crt_image(state, image: list[int], p: int):
    """(acc, mod) with the monic gcd image mod p taken into state, the
    images so far by CRT (None before the first): a lower degree restarts,
    an equal one combines, and a higher one marks p unlucky (None)."""
    if state is None or len(image) < len(state[0]):
        return image, p
    acc, mod = state
    if len(image) > len(acc):
        return None
    return [crt_pair(a, mod, b, p) for a, b in zip(acc, image)], mod * p


def rational_reconstruct(c: int, m: int):
    """Fraction n/d with n = c*d mod m and |n|, d <= sqrt(m/2), or None."""
    c %= m
    if c == 0:
        return Fraction(0)
    bound = math.isqrt((m - 1) // 2) if m > 1 else 0
    r0, t0 = m, 0
    r1, t1 = c, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if r1 == 0 or abs(t1) > bound:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    if math.gcd(abs(r1), t1) != 1 or math.gcd(t1, m) != 1:
        return None
    return Fraction(r1, t1)


# ---------------------------------------------------------------------------
# gcd over Z: modular primary route, subresultant PRS fallback
# ---------------------------------------------------------------------------

def zx_gcd_modular(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd over Z of two integer polynomials (positive lc).

    Classic small-primes algorithm: monic gcd images modulo word-size primes
    avoiding the leading coefficients, CRT-combined images lifted back to Q
    by rational reconstruction, and every candidate, the first prime's too,
    certified by trial division: an image has degree >= deg gcd, so a
    primitive common divisor of the lowest degree seen is the gcd, the
    images taken in by `crt_image`.  More than LIMITS.gcd_primes primes
    raise ResourceLimitError.
    """
    if not f or not g:
        return zx_primitive(f or g)[1]
    _, fp = zx_primitive(f)
    _, gp = zx_primitive(g)
    lcs = fp[-1] * gp[-1]

    state = None         # CRT-accumulated monic image and its modulus
    stable = 0           # primes in a row that confirmed the candidate
    candidate = None
    for drawn, p in enumerate(prime_stream(), 1):
        check_primes(drawn)
        if lcs % p == 0:
            continue
        hp = gf_gcd(gf_from_zx(fp, p), gf_from_zx(gp, p), p)
        if len(hp) == 1:
            return [1]
        new = crt_image(state, hp, p)
        if new is None:
            continue  # unlucky prime
        acc, mod = state = new
        cand = []
        for a in acc:
            q = rational_reconstruct(a, mod)
            if q is None:
                cand = None
                break
            cand.append(q)
        if cand is None:
            continue
        if cand == candidate:
            stable += 1
        else:
            candidate, stable = cand, 0
        den = math.lcm(*(c.denominator for c in cand))
        h = zx_trim([int(c * den) for c in cand])
        _, h = zx_primitive(h)
        if zx_divides(fp, h) is not None and zx_divides(gp, h) is not None:
            return h
        if stable > 8:
            raise VerificationError("modular gcd failed to stabilize")
    raise VerificationError("prime stream exhausted")  # pragma: no cover


def zx_gcd_subresultant(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd over Z via the subresultant PRS (slow, independent)."""
    if not f or not g:
        return zx_primitive(f or g)[1]
    _, a = zx_primitive(f)
    _, b = zx_primitive(g)
    if zx_deg(a) < zx_deg(b):
        a, b = b, a
    gg, h = 1, 1
    while True:
        delta = zx_deg(a) - zx_deg(b)
        rem = zx_pseudo_rem(a, b)
        if not rem:
            _, prim = zx_primitive(b)
            return prim
        if zx_deg(rem) == 0:
            return [1]
        a, b = b, [c // (gg * h ** delta) for c in rem]
        gg = a[-1]
        h = h ** (1 - delta) * gg ** delta if delta <= 1 else gg ** delta // h ** (delta - 1)


def zx_pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    """prem(f, g): remainder of lc(g)^(deg f - deg g + 1) * f by g."""
    rem = list(f)
    dg = zx_deg(g)
    lcg = g[-1]
    k = zx_deg(f) - dg + 1
    while rem and zx_deg(rem) >= dg:
        t = rem[-1]
        drem = zx_deg(rem)
        rem = [c * lcg for c in rem]
        for j, b in enumerate(g):
            rem[drem - dg + j] -= t * b
        rem = zx_trim(rem)
        k -= 1
    # normalize to the full pseudo-remainder power so divisions stay exact
    if k > 0:
        rem = [c * lcg ** k for c in rem]
    return rem


# ---------------------------------------------------------------------------
# resultants
# ---------------------------------------------------------------------------

def gf_resultant(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) over GF(p) by the Euclidean remainder sequence."""
    a, b = zx_trim([c % p for c in f]), zx_trim([c % p for c in g])
    if not a or not b:
        return 0
    res = 1
    while True:
        da, db = zx_deg(a), zx_deg(b)
        if db == 0:
            return res * pow(b[0], da, p) % p
        r = gf_rem(a, b, p)
        if not r:
            return 0
        res = res * pow(b[-1], da - zx_deg(r), p) % p
        if (da * db) % 2 == 1:
            res = (-res) % p
        a, b = b, r


def zx_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) over Z by CRT against a Hadamard-style bound."""
    if not f or not g:
        return 0
    n2f = math.isqrt(sum(c * c for c in f)) + 1
    n2g = math.isqrt(sum(c * c for c in g)) + 1
    bound = 2 * n2f ** zx_deg(g) * n2g ** zx_deg(f) + 1
    lcs = f[-1] * g[-1]
    res, mod = 0, 1
    for p in prime_stream():
        if lcs % p == 0:
            continue
        rp = gf_resultant(f, g, p)
        res = crt_pair(res, mod, rp, p) if mod > 1 else rp
        mod *= p
        if mod >= bound:
            break
    res %= mod
    if res > mod // 2:
        res -= mod
    return res
