import functools
import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from itergcd import modular
from itergcd.errors import LIMITS, ResourceLimitError
from itergcd.modular import (
    KRON_NATIVE_LEN,
    KRON_NATIVE_SQR,
    KRON_WIDE_LEN,
    KRON_WIDE_SQR,
    crt_pair,
    gf_add,
    gf_divmod,
    gf_from_zx,
    gf_gcd,
    gf_monic,
    gf_mul,
    gf_powmod,
    gf_sub,
    gf_xgcd,
    is_prime,
    prime_stream,
    rational_reconstruct,
    zx_gcd_modular,
    zx_mul,
    zx_primitive,
)


def test_is_prime_small_and_carmichael():
    primes = {2, 3, 5, 7, 11, 13, 97, 7919}
    for n in primes:
        assert is_prime(n)
    for n in (0, 1, 4, 561, 41041, 7917):  # 561, 41041 are Carmichael
        assert not is_prime(n)


def test_prime_stream_distinct_and_prime():
    seen = []
    stream = prime_stream()
    for _ in range(20):
        p = next(stream)
        assert is_prime(p)
        assert p not in seen
        assert p.bit_length() >= 28
        seen.append(p)


def _fresh_primes(count):
    """The first primes of the stream, straight from is_prime."""
    n = (1 << 29) - 1
    out = []
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n -= 2
    return out


def test_two_fresh_streams_yield_the_same_primes(monkeypatch):
    monkeypatch.setattr(modular, "_PRIMES", [])
    a = list(itertools.islice(prime_stream(), 8))
    monkeypatch.setattr(modular, "_PRIMES", [])
    b = list(itertools.islice(prime_stream(), 8))
    assert a == b == _fresh_primes(8)
    assert a[0] == (1 << 29) - 3 and a == sorted(a, reverse=True)


def test_prime_stream_memo_keeps_order(monkeypatch):
    monkeypatch.setattr(modular, "_PRIMES", [])
    a, b = prime_stream(), prime_stream()
    first = [next(a) for _ in range(5)]
    # b replays the five, then both extend the one shared list
    got_b = [next(b) for _ in range(12)]
    got_a = first + [next(a) for _ in range(10)]
    assert got_b == _fresh_primes(12)
    assert got_a == _fresh_primes(15)
    assert modular._PRIMES == got_a


def test_prime_stream_memo_threads(monkeypatch):
    monkeypatch.setattr(modular, "_PRIMES", [])
    want = _fresh_primes(400)
    got = {}

    start = threading.Barrier(6, timeout=60)

    def pull(t):
        stream = prime_stream()
        start.wait()
        got[t] = list(itertools.islice(stream, 400))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=pull, args=(t,)) for t in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert got == {t: want for t in range(6)}
    assert modular._PRIMES == want


def test_prime_stream_memo_skips_retests(monkeypatch):
    monkeypatch.setattr(modular, "_PRIMES", [])
    calls = []
    real = modular.is_prime
    monkeypatch.setattr(modular, "is_prime",
                        lambda n: calls.append(n) or real(n))
    first = list(itertools.islice(prime_stream(), 6))
    tested = len(calls)
    again = list(itertools.islice(prime_stream(), 6))
    assert again == first and len(calls) == tested


def test_crt_pair_reconstructs():
    rng = random.Random(1)
    for _ in range(50):
        m1, m2 = 10007, 30011
        v = rng.randrange(m1 * m2)
        r = crt_pair(v % m1, m1, v % m2, m2)
        assert r % m1 == v % m1 and r % m2 == v % m2


def test_rational_reconstruct_roundtrip():
    rng = random.Random(2)
    m = 2 ** 89 - 1
    for _ in range(100):
        num = rng.randint(-10 ** 9, 10 ** 9)
        den = rng.randint(1, 10 ** 6)
        q = Fraction(num, den)
        c = (q.numerator * pow(q.denominator, -1, m)) % m
        assert rational_reconstruct(c, m) == q


def test_rational_reconstruct_zero():
    # regression: zero residues must reconstruct immediately
    assert rational_reconstruct(0, 10007) == 0
    assert rational_reconstruct(10007, 10007) == 0


def test_gf_gcd_matches_structure():
    p = 10007
    a = gf_from_zx([1, 2, 1], p)          # (x+1)^2
    b = gf_from_zx([1, 3, 3, 1], p)       # (x+1)^3
    g = gf_gcd(a, b, p)
    assert g == gf_from_zx([1, 2, 1], p)  # monic gcd (x+1)^2


def test_gf_divmod_identity():
    rng = random.Random(4)
    p = 10007
    for _ in range(60):
        f = [rng.randrange(p) for _ in range(rng.randint(1, 8))]
        g = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
        if not any(g):
            continue
        while g and g[-1] == 0:
            g.pop()
        q, r = gf_divmod(f, g, p)
        lhs = [v % p for v in zx_mul(q, g)]
        total = [0] * max(len(lhs), len(r), len(f))
        for i, v in enumerate(lhs):
            total[i] = v
        for i, v in enumerate(r):
            total[i] = (total[i] + v) % p
        ftrim = list(f)
        while ftrim and ftrim[-1] == 0:
            ftrim.pop()
        while total and total[-1] == 0:
            total.pop()
        assert total == ftrim


def test_gf_divmod_modulo_prime_powers():
    # Hensel lifting divides by monic factors modulo p^(2^k)
    rng = random.Random(41)
    for m in (3 ** 8, 2 ** 16):
        for lc in (1, 5, m - 1):        # units mod m
            for _ in range(60):
                g = [rng.randrange(m) for _ in range(rng.randint(0, 6))] + [lc]
                f = [rng.randrange(m) for _ in range(rng.randint(0, 14))]
                q, r = gf_divmod(f, g, m)
                assert len(r) < len(g)
                assert gf_add(gf_mul(q, g, m), r, m) == gf_from_zx(f, m)
        assert gf_monic([2, 5], m) == [2 * pow(5, -1, m) % m, 1]


def test_gf_add_sub_reduce_every_coefficient():
    assert gf_sub([5, 7], [1], 3) == [1, 1]
    assert gf_add([1], [5, 7], 3) == [0, 1]
    rng = random.Random(43)
    for m in (3, 3 ** 4):
        for _ in range(200):
            f = [rng.randint(-3 * m, 3 * m) for _ in range(rng.randint(0, 8))]
            g = [rng.randint(-3 * m, 3 * m) for _ in range(rng.randint(0, 8))]
            fr, gr = gf_from_zx(f, m), gf_from_zx(g, m)
            for op in (gf_add, gf_sub):
                out = op(f, g, m)
                assert out == op(fr, gr, m)
                assert all(0 <= c < m for c in out)
                assert not out or out[-1] != 0


def test_gf_inverse_of_a_non_unit_raises():
    with pytest.raises(ValueError):
        gf_divmod([1, 0, 0, 1], [1, 3], 3 ** 8)
    with pytest.raises(ValueError):
        gf_divmod([1, 0, 0, 1], [1, 6], 2 ** 16)
    with pytest.raises(ValueError):
        gf_monic([1, 2], 2 ** 16)


def test_gf_powmod_frobenius():
    p = 103  # 3 mod 4, so x^2 + 1 is irreducible over GF(p)
    mod = gf_from_zx([1, 0, 1], p)
    assert gf_powmod([0, 1], p, mod, p) == [0, p - 1]   # x^p = -x
    assert gf_powmod([0, 1], p * p, mod, p) == [0, 1]   # x^(p^2) = x


def test_zx_gcd_modular_known_and_zero_coeff():
    # regression: gcds whose coefficients include zero used to stall
    f = [0, 0, 1, 1]     # x^3 + x^2
    g = [0, 0, 5, 1]     # x^3 + 5x^2
    assert zx_gcd_modular(f, g) == [0, 0, 1]
    a = zx_mul([0, 1], [-7, 0, 3])
    b = zx_mul([0, 1], [5, 2])
    assert zx_gcd_modular(a, b) == [0, 1]


def test_zx_gcd_modular_random_products():
    rng = random.Random(6)
    for _ in range(60):
        def rand_zx(lo, hi):
            f = [rng.randint(-20, 20) for _ in range(rng.randint(lo, hi))]
            while f and f[-1] == 0:
                f.pop()
            return f or [1]
        common = rand_zx(1, 4)
        a = zx_mul(rand_zx(1, 4), common)
        b = zx_mul(rand_zx(1, 4), common)
        g = zx_gcd_modular(a, b)
        _, cp = zx_primitive(common)
        # the true gcd divides both inputs and is a multiple of the
        # primitive common factor
        from itergcd.modular import zx_divides
        assert zx_divides(a, g) is not None
        assert zx_divides(b, g) is not None
        assert zx_divides(g, cp) is not None


def test_zx_gcd_modular_bad_images_hit_the_prime_cap(monkeypatch):
    # images that never agree reset the stability count at every prime, so
    # only the cap ends the loop
    rng = random.Random(8)
    monkeypatch.setattr(modular, "gf_gcd", lambda f, g, p: [rng.randrange(p), 1])
    monkeypatch.setattr(LIMITS, "gcd_primes", 20)
    with pytest.raises(ResourceLimitError):
        zx_gcd_modular([-1, 0, 1], [-1, 1])


# ---------------------------------------------------------------------------
# Kronecker zx_mul / gf_mul against the schoolbook route they replace
# ---------------------------------------------------------------------------

def school_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    while out and out[-1] == 0:
        out.pop()
    return out


def school_gf_mul(f, g, p):
    out = [c % p for c in school_mul(f, g)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _rand_vec(rng, n, lo, hi, zeros=0.3):
    """Length-n vector with inner zeros and a nonzero leading entry."""
    f = [0 if rng.random() < zeros else rng.randint(lo, hi) for _ in range(n)]
    if n:
        while f[-1] == 0:
            f[-1] = rng.randint(lo, hi)
    return f


_LENGTHS = sorted({1, 2, 3, KRON_NATIVE_SQR - 1, KRON_NATIVE_SQR,
                   KRON_NATIVE_LEN - 1, KRON_NATIVE_LEN, KRON_WIDE_SQR - 1,
                   KRON_WIDE_SQR, KRON_WIDE_LEN - 1, KRON_WIDE_LEN,
                   KRON_WIDE_LEN + 1, 40, 97})


@pytest.fixture(params=["crossover", "always", "bytewise"])
def kron_mode(request, monkeypatch):
    """Run at the measured crossovers, then with Kronecker for every length,
    then also without the machine-format digits (as on a big-endian host)."""
    if request.param != "crossover":
        for name in ("KRON_NATIVE_LEN", "KRON_NATIVE_SQR", "KRON_WIDE_LEN",
                     "KRON_WIDE_SQR"):
            monkeypatch.setattr(modular, name, 1)
    if request.param == "bytewise":
        monkeypatch.setattr(modular, "_NATIVE", {})
    return request.param


def test_kron_zx_mul_matches_schoolbook_random(kron_mode):
    rng = random.Random(41)
    # 1..62 bits give digits of 1, 2, 4 and 8 bytes, the rest wider ones
    for bits in (1, 2, 5, 6, 13, 14, 28, 29, 30, 62, 64, 65, 300, 3000):
        top = 1 << bits
        for _ in range(12):
            n, m = rng.choice(_LENGTHS), rng.choice(_LENGTHS)
            sign = rng.choice(("mixed", "pos", "neg"))
            lo = 0 if sign == "pos" else -top
            hi = 0 if sign == "neg" else top
            f = _rand_vec(rng, n, lo, hi)
            g = _rand_vec(rng, m, lo, hi)
            want = school_mul(f, g)
            assert zx_mul(f, g) == want
            assert zx_mul(tuple(f), tuple(g)) == want
            assert zx_mul(g, f) == want
            sq = school_mul(f, f)
            assert zx_mul(f, f) == sq
            t = tuple(f)
            assert zx_mul(t, t) == sq
            assert zx_mul(f, list(f)) == sq


def test_kron_zx_mul_extremes(kron_mode):
    # coefficients of 2**b - 1 and 2**b at lengths 2**L - 1 and 2**L bring
    # the product coefficients to the top of their digit, every digit width
    # from 1 byte up: no digit may borrow from or carry into the next, and
    # the sign bit must fit
    for n in (1, 3, 7, 8, 15, 16, 31):
        for b in range(1, 70):
            for c in (2 ** b - 1, 2 ** b):
                f = [c] * n
                g = [-c] * n
                h = [(-c) ** (i % 3 + 1) for i in range(n)]
                for a, d in ((f, f[:]), (f, g), (g, f), (h, f), (h, g)):
                    assert zx_mul(a, d) == school_mul(a, d)
                for a in (f, g, h):
                    assert zx_mul(a, a) == school_mul(a, a)
    # long inner zero runs
    f = [3] + [0] * 40 + [-5]
    assert zx_mul(f, f) == school_mul(f, f)
    assert zx_mul([0, 0, 7] * 9, [0, -2] * 9) == school_mul([0, 0, 7] * 9,
                                                             [0, -2] * 9)
    assert zx_mul([], [1, 2]) == [] and zx_mul([1] * 20, []) == []


@pytest.mark.parametrize("p", [2, 3, 10007, (1 << 29) - 3])
def test_kron_gf_mul_matches_schoolbook(p, kron_mode):
    assert is_prime(p)
    rng = random.Random(p)
    for _ in range(25):
        n, m = rng.choice(_LENGTHS), rng.choice(_LENGTHS)
        f = _rand_vec(rng, n, 0, p - 1)
        g = _rand_vec(rng, m, 0, p - 1)
        assert gf_mul(f, g, p) == school_gf_mul(f, g, p)
        assert gf_mul(f, f, p) == school_gf_mul(f, f, p)
    # a prime power modulus, as in Hensel lifting
    M = p ** 4
    f = _rand_vec(rng, 30, 0, M - 1)
    g = _rand_vec(rng, 20, 0, M - 1)
    assert gf_mul(f, g, M) == school_gf_mul(f, g, M)


def test_kron_gf_powmod_matches_repeated_multiplication(kron_mode):
    rng = random.Random(43)
    for p in (2, (1 << 29) - 3):
        mod = _rand_vec(rng, 40, 0, p - 1)
        mod[-1] = 1
        base = _rand_vec(rng, 30, 0, p - 1)
        want = [1]
        for e in range(1, 21):
            want = school_gf_divmod(school_gf_mul(want, base, p), mod, p)[1]
            assert gf_powmod(base, e, mod, p) == want


# ---------------------------------------------------------------------------
# packed gf_divmod against the long division it replaces
# ---------------------------------------------------------------------------

def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def school_gf_divmod(f, g, p):
    """Long division mod p, one quotient term and one coefficient at a
    time."""
    rem = [c % p for c in f]
    if len(rem) < len(g):
        return [], _trim(rem)
    inv = pow(g[-1], -1, p)
    q = [0] * (len(f) - len(g) + 1)
    for k in reversed(range(len(q))):
        t = rem[k + len(g) - 1] * inv % p
        q[k] = t
        for j, b in enumerate(g):
            rem[k + j] = (rem[k + j] - t * b) % p
    return _trim(q), _trim(rem)


def school_gf_gcd(f, g, p):
    while g:
        f, g = g, school_gf_divmod(f, g, p)[1]
    return [c * pow(f[-1], -1, p) % p for c in f] if f else []


# primes from 2 up to 2**31 - 1, whose budget is two terms between
# reductions, and two prime powers with unit leading coefficients
_DIV_PRIMES = (2, 3, 101, 10007, (1 << 29) - 3, (1 << 31) - 1)
_DIV_MODULI = _DIV_PRIMES + (3 ** 8, 2 ** 16)
_DIV_LENGTHS = sorted({1, 2, 3, modular.GF_PACK_LEN - 1, modular.GF_PACK_LEN,
                       modular.GF_PACK_LEN + 1, 40, 257})


@pytest.fixture(params=["crossover", "packed", "scalar", "bytewise"])
def pack_mode(request, monkeypatch):
    """Run at the measured crossovers, with the packed route for every
    shape, with the scalar loop alone, and on a host without machine-format
    digits (which turns the packed route off)."""
    if request.param in ("packed", "bytewise"):
        monkeypatch.setattr(modular, "GF_PACK_LEN", 1)
        monkeypatch.setattr(modular, "GF_PACK_QUO", 1)
        monkeypatch.setattr(modular, "GF_PACK_DENSITY", 1 << 20)
    if request.param == "scalar":
        monkeypatch.setattr(modular, "GF_PACK_LEN", 1 << 20)
    if request.param == "bytewise":
        monkeypatch.setattr(modular, "_NATIVE", {})
    return request.param


def _unit(rng, m):
    while True:
        c = rng.randrange(1, m)
        if math.gcd(c, m) == 1:
            return c


def _divisor(rng, n, m, shape):
    """Length-n divisor mod m: dense, monic, sparse (at most three nonzero
    terms) or all m - 1; its leading coefficient is a unit."""
    if shape == "top":
        return [m - 1] * n
    g = [rng.randrange(m) for _ in range(n)] if shape != "sparse" else [0] * n
    if shape == "sparse":
        for i in rng.sample(range(n - 1), min(2, n - 1)):
            g[i] = rng.randrange(1, m)
    g[-1] = 1 if shape == "monic" else _unit(rng, m)
    return g


@pytest.mark.parametrize("p", _DIV_MODULI)
def test_packed_gf_divmod_matches_school(p, pack_mode):
    rng = random.Random(p)
    for n in _DIV_LENGTHS:
        for shape in ("dense", "monic", "sparse", "top"):
            g = _divisor(rng, n, p, shape)
            for lf in {0, 1, n - 1, n, n + 1, n + 2, 2 * n, n + 45}:
                if n == 257 and lf > 2 * n - 200:
                    continue     # the schoolbook oracle is slow there
                f = _rand_vec(rng, lf, 0, p - 1, zeros=0.1)
                assert gf_divmod(f, g, p) == school_gf_divmod(f, g, p)
            # exact division, and remainders that lose their top terms
            q = _rand_vec(rng, rng.randint(1, 60), 0, p - 1)
            for r in ([], _rand_vec(rng, rng.randint(1, n), 0, p - 1),
                      _rand_vec(rng, rng.randint(0, n // 2), 0, p - 1)):
                r = r[:n - 1]
                f = gf_add(gf_mul(q, g, p), _trim(r), p)
                assert gf_divmod(f, g, p) == (q, _trim(list(r)))


@pytest.mark.parametrize("p", _DIV_PRIMES)
def test_packed_gf_divmod_at_the_digit_budget(p, pack_mode, monkeypatch):
    # every quotient term is 1 against g = (p-1, ..., p-1, 1), so each term
    # adds the most it can, (p - 1)**2, to every digit below the top; and
    # f = g = all p - 1.  Quotients of 60 and 300 terms outlast the budget
    # of the 31-bit and 29-bit primes.  Every digit handed to a reduction
    # must be below 2**63.
    budget = modular._pack_budget(p)
    assert p - 1 + budget * (p - 1) ** 2 < 1 << 63
    assert p - 1 + (budget + 1) * (p - 1) ** 2 >= 1 << 63
    seen = []
    real = modular._gf_reduce

    def checked(W, n, p):
        assert W < 1 << (64 * n) and not W & modular._top_bits(8, n)
        seen.append(n)
        return real(W, n, p)

    monkeypatch.setattr(modular, "_gf_reduce", checked)
    for n, lq in ((40, 60), (16, 300), (3, 300)):
        g = [p - 1] * (n - 1) + [1]
        q = [1] * lq
        f = gf_mul(q, g, p)
        assert gf_divmod(f, g, p) == (q, [])
        r = [p - 1] * (n - 1)
        assert gf_divmod(gf_add(f, r, p), g, p) == (q, _trim(list(r)))
        top = [p - 1] * (n + lq - 1)
        assert gf_divmod(top, [p - 1] * n, p) == school_gf_divmod(
            top, [p - 1] * n, p)
        assert gf_gcd(f, g, p) == gf_monic(g, p)
        assert gf_gcd(top, [p - 1] * n, p) == school_gf_gcd(
            top, [p - 1] * n, p)
    if pack_mode == "packed" and budget < 300:
        assert len(seen) > 3     # reductions mid-loop, not only at the end


@pytest.mark.parametrize("p", _DIV_PRIMES)
def test_packed_gf_gcd_xgcd_powmod(p, pack_mode):
    rng = random.Random(p + 1)
    for n, m, k in ((40, 30, 0), (17, 16, 15), (60, 45, 20), (257, 40, 3)):
        common = _rand_vec(rng, k + 1, 0, p - 1) if k else [1]
        f = gf_mul(_rand_vec(rng, n - k, 0, p - 1), common, p)
        g = gf_mul(_rand_vec(rng, m - k, 0, p - 1), common, p)
        d = gf_gcd(f, g, p)
        assert d == school_gf_gcd(f, g, p) == gf_gcd(g, f, p)
        assert not school_gf_divmod(d, gf_monic(common, p), p)[1]
        d2, s, t = gf_xgcd(f, g, p)
        assert d2 == d
        assert gf_add(school_gf_mul(s, f, p), school_gf_mul(t, g, p), p) == d
    mod = _rand_vec(rng, 40, 0, p - 1)
    mod[-1] = 1
    base = _rand_vec(rng, 50, 0, p - 1)
    want = school_gf_divmod(base, mod, p)[1]
    acc = [1]
    for e in range(1, 12):
        acc = school_gf_divmod(school_gf_mul(acc, want, p), mod, p)[1]
        assert gf_powmod(base, e, mod, p) == acc
    assert gf_gcd([], [], p) == [] and gf_gcd([3 % p or 1], [], p) == [1]


def test_gf_divmod_unreduced_input_keeps_the_scalar_contract():
    # f need not be reduced: the scalar loop reduces what it touches, and
    # the packed route must not take such an f
    p = (1 << 29) - 3
    rng = random.Random(7)
    g = _rand_vec(rng, 40, 0, p - 1)
    for f in ([c + p for c in _rand_vec(rng, 90, 0, p - 1)],
              [-c for c in _rand_vec(rng, 90, 0, p - 1)]):
        q, r = gf_divmod(f, g, p)
        assert (q, _trim([c % p for c in r])) == school_gf_divmod(f, g, p)


def test_zx_content_matches_the_gcd_fold():
    rng = random.Random(83)
    cases = [[], [0], [0, 0, 0], [-7], [0, -12, 18, 0], [5, 0, -10]]
    for _ in range(200):
        n = rng.randint(0, 12)
        bits = rng.choice((3, 30, 200))
        cases.append([rng.choice((0, rng.randint(-2 ** bits, 2 ** bits)))
                      for _ in range(n)])
    for f in cases:
        want = functools.reduce(math.gcd, (abs(c) for c in f if c), 0)
        assert modular.zx_content(f) == want
