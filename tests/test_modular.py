import functools
import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

from itergcd import gcdlab, modular
from itergcd.errors import LIMITS, ResourceLimitError, VerificationError
from itergcd.modular import (
    KRON_NATIVE_LEN,
    KRON_NATIVE_SQR,
    KRON_WIDE_LEN,
    KRON_WIDE_SQR,
    crt_image,
    crt_pair,
    gf_add,
    gf_compose_mod,
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
    zx_gcd_subresultant,
    zx_mul,
    zx_primitive,
)


def test_is_prime_small_and_carmichael():
    primes = {2, 3, 5, 7, 11, 13, 97, 7919}
    for n in primes:
        assert is_prime(n)
    for n in (0, 1, 4, 561, 41041, 7917):  # 561, 41041 are Carmichael
        assert not is_prime(n)


def test_is_prime_is_exact_past_the_first_twelve_bases():
    # the least strong pseudoprime to every prime base up to 37; base 41
    # makes Miller-Rabin exact below 3.3e24
    n = 318665857834031151167461
    assert n == 399165290221 * 798330580441 and not is_prime(n)
    assert is_prime((1 << 61) - 1)


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


def test_crt_image_restarts_combines_and_skips_unlucky_primes():
    state = crt_image(None, [3, 1], 7)
    assert state == ([3, 1], 7)
    assert crt_image(state, [5, 0, 1], 11) is None  # higher degree: unlucky
    acc, mod = crt_image(state, [5, 1], 11)
    assert mod == 77 and acc[1] == 1 and acc[0] % 7 == 3 and acc[0] % 11 == 5
    assert crt_image((acc, mod), [1], 13) == ([1], 13)  # lower: restart


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


def spy_stream(monkeypatch, head=()):
    """Replace modular.prime_stream by head + the real stream; return the
    list that records every prime drawn."""
    real = modular.prime_stream
    drawn = []

    def stream():
        for p in itertools.chain(head, real()):
            drawn.append(p)
            yield p

    monkeypatch.setattr(modular, "prime_stream", stream)
    return drawn


def test_zx_gcd_modular_certifies_the_first_image(monkeypatch):
    # the gcd x - 1 reconstructs from one prime, and trial division alone
    # certifies it: no second prime is drawn
    drawn = spy_stream(monkeypatch)
    f = zx_mul([-1, 1], [-3, 1])
    g = zx_mul([-1, 1], [-5, 1])
    assert zx_gcd_modular(f, g) == [-1, 1]
    assert len(drawn) == 1


def test_zx_gcd_modular_skips_an_unlucky_prime(monkeypatch):
    # the gcd is x - 10^7.  Modulo 1000003 its image is x + 30, which fails
    # trial division; (x-10^7)(x-1) and (x-10^7)(x-3) are both x(x+1) mod 2,
    # so that image of degree 2 must be dropped; the third prime certifies
    root = 10 ** 7
    f = zx_mul([-root, 1], [-1, 1])
    g = zx_mul([-root, 1], [-3, 1])
    assert gf_gcd(gf_from_zx(f, 1000003), gf_from_zx(g, 1000003), 1000003) == [30, 1]
    assert len(gf_gcd(gf_from_zx(f, 2), gf_from_zx(g, 2), 2)) == 3
    drawn = spy_stream(monkeypatch, (1000003, 2))
    assert zx_gcd_modular(f, g) == zx_gcd_subresultant(f, g) == [-root, 1]
    assert drawn[:2] == [1000003, 2] and len(drawn) > 2


def test_zx_gcd_modular_skips_a_prime_dividing_the_leading_coefficients(monkeypatch):
    # lc f * lc g = 9: the prime 3 is drawn but no image is taken mod 3
    drawn = spy_stream(monkeypatch, (3,))
    real_gcd, image_primes = modular.gf_gcd, []

    def gf_gcd_spy(a, b, p):
        image_primes.append(p)
        return real_gcd(a, b, p)

    monkeypatch.setattr(modular, "gf_gcd", gf_gcd_spy)
    f = zx_mul([-1, 3], [-2, 1])
    g = zx_mul([-1, 3], [4, 1])
    assert zx_gcd_modular(f, g) == [-1, 3]
    assert drawn[0] == 3 and 3 not in image_primes


def test_zx_gcd_modular_unverified_candidate_fails_to_stabilize(monkeypatch):
    # a candidate that every prime confirms but trial division never
    # accepts is a verification failure, well before the prime cap
    monkeypatch.setattr(modular, "zx_divides", lambda f, g: None)
    with pytest.raises(VerificationError, match="failed to stabilize"):
        zx_gcd_modular(zx_mul([-1, 1], [-3, 1]), zx_mul([-1, 1], [-5, 1]))


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
    """Run at the measured crossovers, then with Kronecker and GF(p) slots
    for every length, then also without the machine-format digits (as on a
    big-endian host, which turns the slots off)."""
    if request.param != "crossover":
        for name in ("KRON_NATIVE_LEN", "KRON_NATIVE_SQR", "KRON_WIDE_LEN",
                     "KRON_WIDE_SQR", "GF_SLOT_LEN"):
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
# gf_mul in unsigned slots, and the square-aware folds
# ---------------------------------------------------------------------------

# a prime power below 2**31 and a prime above it, which keeps zx_mul
_SLOT_MODULI = (2, 3, 10007, (1 << 29) - 3, 3 ** 19, (1 << 31) + 11)
_SLOT_LENGTHS = (31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257, 513)


@pytest.fixture
def slot_route(monkeypatch):
    """check(f, g, p): gf_mul(f, g, p) against the schoolbook product, and
    the route taken against the one its lengths, p and the reducedness of
    its inputs call for (zx_mul is called exactly off the slot route)."""
    real, calls = modular.zx_mul, []

    def spy(f, g):
        calls.append(1)
        return real(f, g)

    def check(f, g, p, want=None):
        calls.clear()
        got = gf_mul(f, g, p)
        assert got == (school_gf_mul(f, g, p) if want is None else want)
        slots = (min(len(f), len(g)) >= modular.GF_SLOT_LEN
                 and p < 1 << 31 and bool(modular._NATIVE)
                 and all(0 <= c < p for c in f + g))
        assert bool(calls) != slots
        return slots

    monkeypatch.setattr(modular, "zx_mul", spy)
    return check


@pytest.mark.parametrize("p", _SLOT_MODULI)
def test_slot_gf_mul_matches_school(p, kron_mode, slot_route):
    rng = random.Random(p + 29)
    for n in _SLOT_LENGTHS:
        f = _rand_vec(rng, n, 0, p - 1)
        g = _rand_vec(rng, n + rng.choice((0, 1)), 0, p - 1)
        short = _rand_vec(rng, rng.choice((1, 7, 31, 32, 33)), 0, p - 1)
        slot_route(f, g, p)
        slot_route(short, f, p)                   # unequal lengths
        slot_route(f, f, p)                       # a square: f is g
        runs = [rng.randrange(1, p)] + [0] * (n - 2) + [rng.randrange(1, p)]
        runs[n // 3] = rng.randrange(p)
        slot_route(runs, runs, p)                 # inner zero runs
        bad = [c + p if i % 2 else -c for i, c in enumerate(f)]
        assert not slot_route(bad, short, p)      # unreduced: zx_mul
        assert not slot_route(short, bad, p)


def _slot_edges(p, top):
    """Lengths m <= top at which m (p - 1)**2 has D bits with D = 0 or 7 mod
    8: the first and last such m for each D, as slots then hold exactly D
    or 8k - 1 bits."""
    sq, out = (p - 1) ** 2, set()
    for D in range(1, 80):
        lo, hi = max(1, -(-(1 << (D - 1)) // sq)), ((1 << D) - 1) // sq
        if D % 8 in (0, 7) and lo <= hi:
            out |= {m for m in (lo, hi) if m <= top}
    return sorted(out)


@pytest.mark.parametrize("p", [q for q in _SLOT_MODULI if q > 2]
                         + [(1 << 28) + 3])
def test_slot_gf_mul_all_top_coefficients(p, kron_mode, slot_route):
    # f, g all p - 1: product coefficient j is (p - 1)**2 times the number
    # of pairs i + l = j, the most a slot can get.  Where D is a multiple
    # of 8 (p = 2**29 - 3, m = 33: D = 64) the slot needs D // 8 + 1 bytes,
    # since the reduction's double slot takes 2D + 1 bits.  Where D = 8k - 1
    # and p is little above a power of 2, the quotients reach the top bit
    # of their mask; machine-digit slots read that bit back (p = 2**28 + 3,
    # m = 127: 8 bytes), strided ones drop it with their high bytes
    edges = _slot_edges(p, 2100)
    if p == (1 << 29) - 3:
        assert 33 in edges
    if p == (1 << 28) + 3:
        assert 127 in edges
    taken = 0
    for m in edges:
        f = [p - 1] * m
        for g in (f, [p - 1] * (m + 3)):
            n = len(g)
            want = [min(j + 1, m, n, m + n - 1 - j) % p
                    for j in range(m + n - 1)]
            taken += slot_route(f, g, p, want)
    assert taken or kron_mode == "bytewise" or p > 1 << 31


def horner_compose(f, g, mod, p):
    """f(g) mod p, and mod `mod` unless it is None, one Horner step at a
    time with the schoolbook kernels."""
    out = []
    for c in reversed(f):
        out = _trim([a % p for a in school_gf_mul(out, g, p)])
        out = gf_add(out, [c], p)
        if mod is not None:
            out = school_gf_divmod(out, mod, p)[1]
    return out


def _fold_maps(rng, p):
    """Maps mod p of degree 0 to 5: zero, constant, linear, with zero
    middle coefficients, with leading coefficient 1 and other than 1."""
    maps = [[], [rng.randrange(1, p)], [0, 1], [rng.randrange(p), p - 1]]
    for d in range(2, 6):
        for lead in {1, p - 1, rng.randrange(1, p)}:
            maps.append([rng.randrange(p) for _ in range(d)] + [lead])
            maps.append([rng.randrange(p)] + [0] * (d - 1) + [lead])
    return maps


def _fold_spy(monkeypatch, target, name):
    """Log of target.name calls, each followed by the gf_mul products it
    made as (f is g, min(len f, len g))."""
    log, real_mul, real = [], modular.gf_mul, getattr(target, name)

    def mul(f, g, p):
        log[-1].append((f is g, min(len(f), len(g))))
        return real_mul(f, g, p)

    def step(*args):
        log.append([])
        return real(*args)

    monkeypatch.setattr(modular, "gf_mul", mul)
    monkeypatch.setattr(target, name, step)
    return log


def _check_squares_first(log, f, g_len):
    """Each step's first product of two polynomials (both of 2 terms or
    more) is a square, and a map of degree 2 or more makes one."""
    for products in log:
        long = [sq for sq, m in products if m > 1]
        if len(f) > 2 and g_len > 1:
            assert long and long[0]
        assert long.count(True) <= 1


@pytest.mark.parametrize("p", [2, 3, (1 << 29) - 3])
def test_gf_iterates_fold_matches_horner(p, monkeypatch):
    rng = random.Random(p + 5)
    for q in _fold_maps(rng, p):
        want, y = [], [0, 1]
        for _ in range(4):
            y = horner_compose(q, y, None, p)
            want.append(y)
        log = _fold_spy(monkeypatch, gcdlab, "gf_compose_mod")
        assert gcdlab._gf_iterates(q, 4, p) == want
        assert len(log) == 4
        for products, y in zip(log, [[0, 1]] + want):
            _check_squares_first([products], q, len(y))
        monkeypatch.undo()


@pytest.mark.parametrize("p", [2, 3, (1 << 29) - 3])
def test_gf_compose_mod_fold_matches_horner(p, monkeypatch):
    rng = random.Random(p + 6)
    for f in _fold_maps(rng, p):
        for n in (2, 5, 40):
            mod = _rand_vec(rng, n, 0, p - 1)
            mod[-1] = 1
            for g in ([], [rng.randrange(1, p)],
                      _rand_vec(rng, n - 1, 0, p - 1)):
                log = _fold_spy(monkeypatch, modular, "gf_compose_mod")
                got = modular.gf_compose_mod(f, g, mod, p)
                monkeypatch.undo()
                assert got == horner_compose(f, g, mod, p)
                _check_squares_first(log, f, len(g))
                assert gf_compose_mod(f, g, None, p) == horner_compose(
                    f, g, None, p)


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


def _digits64(W, n):
    """The n 64-bit digits of 0 <= W < 2**(64 n)."""
    return memoryview(W.to_bytes(8 * n, "little")).cast("Q").tolist()


@pytest.mark.parametrize("p", _DIV_PRIMES)
def test_packed_gf_divmod_at_the_digit_budget(p, pack_mode, monkeypatch):
    # every quotient term is 1 against g = (p-1, ..., p-1, 1), so each term
    # adds the most it can, (p - 1)**2, to every digit below the top; and
    # f = g = all p - 1.  Quotients of 60 and 300 terms outlast the budget
    # of the 31-bit and 29-bit primes.  Every digit handed to a reduction
    # must be below 2**63, and every k-byte slot of a product below
    # 2**(8k - 1).  The Euclid's one-product step adds two products to a
    # digit: against b = all p - 1, a = (p - 1, ..., p - 1, p - 2, p - 1)
    # has the quotient -(x + 1), so every digit but the lowest two reaches
    # (p - 1) + 2 (p - 1)**2, exactly the most a budget of two allows.  For
    # p = 2**29 - 3 those digits go to the fold, which must take digits
    # below 2**64 and return them below 2**29 + 2**27, congruent mod p.
    budget = modular._pack_budget(p)
    assert p - 1 + budget * (p - 1) ** 2 < 1 << 63
    assert p - 1 + (budget + 1) * (p - 1) ** 2 >= 1 << 63
    two_terms = p - 1 + 2 * (p - 1) ** 2
    seen, folded, tops = [], [], []
    real, real_fold = modular._gf_reduce, modular._gf_fold

    def checked(W, n, p, k=8):
        assert W < 1 << (8 * k * n) and not W & modular._top_bits(k, n)
        seen.append(n)
        if k == 8:
            tops.append(max(_digits64(W, n)))
        return real(W, n, p, k)

    def checked_fold(W, c, lo, hi):
        n = modular._digits(lo)
        assert c == (1 << 29) - p and W < 1 << 64 * n
        out = real_fold(W, c, lo, hi)
        ins, outs = _digits64(W, n), _digits64(out, n)
        assert all(d < (1 << 29) + (1 << 27) for d in outs)
        assert all((d - e) % p == 0 for d, e in zip(ins, outs))
        folded.append(n)
        tops.append(max(ins))
        return out

    monkeypatch.setattr(modular, "_gf_reduce", checked)
    monkeypatch.setattr(modular, "_gf_fold", checked_fold)
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
        a, b = [p - 1] * (n - 1) + [p - 2, p - 1], [p - 1] * n
        for u, v in ((a, b), (b, a)):
            tops.clear()
            assert gf_gcd(u, v, p) == school_gf_gcd(a, b, p)
            # the first step is the one-product step
            assert not modular._packs(b, p) or tops[0] == two_terms
    if pack_mode == "packed" and budget < 300:
        assert len(seen) > 3     # reductions mid-loop, not only at the end
    assert bool(folded) == (pack_mode in ("packed", "crossover")
                            and p == (1 << 29) - 3)


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


# the packed Euclid folds digits by 2**29 = c mod p for c < 2**10: c = 3,
# the first prime of the stream; c = 1021, the largest such c of a stream
# prime; and c = 1081, the first stream prime past it, which _gf_reduce
# reduces
_EUCLID_PRIMES = ((1 << 29) - 3, (1 << 29) - 1021, (1 << 29) - 1081)
_EUCLID_LENGTHS = (modular.GF_PACK_LEN - 1, modular.GF_PACK_LEN,
                   modular.GF_PACK_LEN + 1, 257, 513)


def test_the_fold_takes_the_first_56_stream_primes():
    cs = [(1 << 29) - p for p in itertools.islice(prime_stream(), 57)]
    assert max(cs[:56]) == 1021 < 1 << 10 < cs[56] == 1081


def _inflate(f, e):
    """f(x**e)."""
    out = [0] * (e * len(f) - e + 1) if f else []
    out[::e] = f
    return out


def _sequence(rng, p, degrees):
    """(f, g) whose remainders mod p have exactly these degrees, from deg f
    down; the last remainder divides the one before, so it is the gcd."""
    rs = [_rand_vec(rng, degrees[-1] + 1, 0, p - 1)]
    rs.insert(0, gf_mul(_rand_vec(rng, degrees[-2] - degrees[-1] + 1, 0,
                                  p - 1), rs[0], p))
    for d in reversed(degrees[:-2]):
        q = _rand_vec(rng, d - len(rs[0]) + 2, 0, p - 1)
        rs.insert(0, gf_add(gf_mul(q, rs[0], p), rs[1], p))
    return rs[0], rs[1]


def _euclid_pairs(rng, n, p):
    """Pairs with a length-n member: dense; common factors of degree 1,
    n/2 and n - 1; remainder sequences that lose two or three degrees in a
    step (a zero just below the top) and end in a gcd of degree 0 or 3;
    all digits p - 1."""
    dense = lambda k: _rand_vec(rng, k, 0, p - 1, zeros=0)  # noqa: E731
    yield dense(n), dense(n - 1)
    for k in (1, n // 2, n - 1):
        common = dense(k + 1)
        yield (gf_mul(dense(n - k), common, p),
               gf_mul(dense(max(n - k - 1, 2)), common, p))
    for end in (0, min(3, n - 3)):
        degrees = [n - 1]
        while degrees[-1] > end:
            degrees.append(max(degrees[-1] - rng.choice((1, 1, 2, 3)), end))
        yield _sequence(rng, p, degrees)
    yield [p - 1] * n, [p - 1] * (n - 1)


@pytest.mark.parametrize("p", _EUCLID_PRIMES)
def test_packed_euclid_matches_school(p, pack_mode, monkeypatch):
    folds = []
    real = modular._gf_fold
    monkeypatch.setattr(modular, "_gf_fold",
                        lambda *args: folds.append(args[1]) or real(*args))
    rng = random.Random(p)
    for n in _EUCLID_LENGTHS:
        if n > 257 and pack_mode != "crossover":
            continue     # the schoolbook oracle is slow there
        for f, g in _euclid_pairs(rng, n, p):
            want = school_gf_gcd(f, g, p)
            assert gf_gcd(f, g, p) == want == gf_gcd(g, f, p)
        # both in x**e, and one in x**4 with the other in x**2
        for e in (2, 3, 4):
            for f, g in itertools.islice(_euclid_pairs(rng, n // e + 1, p), 3):
                f, g = _inflate(f, e), _inflate(g, e)
                assert gf_gcd(f, g, p) == school_gf_gcd(f, g, p)
        f, g = next(itertools.islice(_euclid_pairs(rng, n // 4 + 1, p), 2,
                                     None))
        f, g = _inflate(f, 4), _inflate(g, 2)
        assert gf_gcd(f, g, p) == school_gf_gcd(f, g, p) == gf_gcd(g, f, p)
    packed = pack_mode in ("packed", "crossover")
    assert set(folds) == ({(1 << 29) - p} if packed and p > (1 << 29) - 1024
                          else set())


def test_one_product_step_needs_a_budget_of_two(monkeypatch):
    # the largest prime with a budget of one term: a step of one product
    # would add two, 2 (p - 1)**2 > 2**63, so every step takes the window
    p = next(n for n in range(3037000499, 0, -2) if is_prime(n))
    assert modular._pack_budget(p) == 1 < modular._pack_budget(
        (1 << 31) - 1)
    real = modular._gf_reduce

    def checked(W, n, p, k=8):
        assert not W & modular._top_bits(k, n)
        return real(W, n, p, k)

    monkeypatch.setattr(modular, "_gf_reduce", checked)
    rng = random.Random(11)
    for n in (modular.GF_PACK_LEN, 40):
        pairs = list(_euclid_pairs(rng, n, p))
        # all p - 1 but the next to top digit: digits of 2 (p - 1)**2
        pairs.append(([p - 1] * (n - 1) + [p - 2, p - 1], [p - 1] * n))
        for f, g in pairs:
            assert gf_gcd(f, g, p) == school_gf_gcd(f, g, p)


def test_deflation_only_on_the_packed_route(monkeypatch):
    calls = []
    real = modular._deflation
    monkeypatch.setattr(modular, "_deflation",
                        lambda a, b: calls.append(len(b)) or real(a, b))
    p, n = (1 << 29) - 3, modular.GF_PACK_LEN
    short = _inflate([1, 2, 3, 4, 5, 6, 1], 2), _inflate([2, 3, 1], 2)
    assert gf_gcd(*short, p) == school_gf_gcd(*short, p) and not calls
    rng = random.Random(12)
    f, g = (_inflate(_rand_vec(rng, n, 0, p - 1, zeros=0), 2)
            for _ in range(2))
    assert gf_gcd(f, g, p) == school_gf_gcd(f, g, p) and calls
    assert modular._deflation(f, g) == 2
    assert modular._deflation([5], [7]) == 0
    assert modular._deflation(_inflate([1, 1], 6), _inflate([1, 0, 1], 4)) == 2
    # in x^4 and x^8 no input is dense enough to pack until it is deflated;
    # the Euclid then runs at the deflated lengths
    euclid = []
    real_euclid = modular._gf_euclid
    monkeypatch.setattr(modular, "_gf_euclid", lambda a, b, p: euclid.append(
        (len(a), len(b))) or real_euclid(a, b, p))
    for e, m in ((4, 64), (8, 32)):
        c, u, v = (_rand_vec(rng, k, 0, p - 1, zeros=0) for k in (5, m - 4, m - 8))
        f, g = (_inflate(gf_mul(c, w, p), e) for w in (u, v))
        assert not modular._packs(g, p)
        euclid.clear()
        h = gf_gcd(f, g, p)
        assert h == school_gf_gcd(f, g, p) and len(h) == 4 * e + 1
        assert euclid == [(m, m - 4)]


def test_gf_divmod_unreduced_input_keeps_the_scalar_contract():
    # f need not be reduced: the scalar loop reduces the quotient terms it
    # reads and the remainder it returns, and the packed route must not
    # take such an f
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


# ---------------------------------------------------------------------------
# remainders by a fixed modulus through rev(v)'s inverse
# ---------------------------------------------------------------------------

_REDUCER_MODULI = (2, 3, 101, 10007, (1 << 29) - 3)


def _crossover(p, n):
    return modular.GF_INVERSE_DEG.get(modular._slot_width(n, p),
                                      modular.GF_INVERSE_WIDE)


@pytest.mark.parametrize("p", _REDUCER_MODULI)
def test_fixed_rem_matches_gf_divmod(p, kron_mode):
    # n on both sides of the crossover for p's slot width, every dividend
    # degree from n to 2n - 2 (and 2n - 1 and beyond, which go to gf_rem),
    # shorter and zero dividends, monic and non-monic v
    rng = random.Random(p + 16)
    n0 = next(n for n in range(2, 200) if _crossover(p, n) <= n)
    for n in (2, 3, n0 - 1, n0, n0 + 1):
        for monic in (True, False):
            v = _rand_vec(rng, n + 1, 0, p - 1)
            if monic:
                v[-1] = 1
            modular._rev_inverse.cache_clear()
            rem = modular._fixed_rem(v, p)
            inverse = modular._rev_inverse.cache_info().currsize == 1
            assert inverse == (n >= _crossover(p, n) and bool(modular._NATIVE))
            for m in range(0, 2 * n + 2):
                a = _rand_vec(rng, m, 0, p - 1)
                assert rem(a) == gf_divmod(a, v, p)[1], (p, n, m, monic)
            assert rem([]) == []


@pytest.mark.parametrize("p", _REDUCER_MODULI)
def test_rev_inverse_is_the_power_series_inverse(p):
    rng = random.Random(p + 5)
    for n in (2, 3, 4, 5, 17, 64, 65, 100):
        v = _rand_vec(rng, n + 1, 0, p - 1)
        inv = modular._rev_inverse(tuple(v), p)
        # rev(v) inv = 1 mod x^(n-1)
        prod = school_gf_mul(v[::-1], inv, p) + [0] * n
        assert prod[:n - 1] == [1] + [0] * (n - 2), (p, n)


@pytest.mark.parametrize("p", _REDUCER_MODULI)
def test_powmod_and_compose_past_the_crossover(p, kron_mode):
    # gf_powmod and gf_compose_mod through the reducer against the same
    # steps with gf_divmod
    rng = random.Random(p + 17)
    n = 1 + next(n for n in range(2, 200) if _crossover(p, n) <= n)
    mod = _rand_vec(rng, n + 1, 0, p - 1)
    base = _rand_vec(rng, n + 5, 0, p - 1)
    want, b = [1], gf_divmod(base, mod, p)[1]
    for e in range(1, 9):
        want = gf_divmod(gf_mul(want, b, p), mod, p)[1]
        assert gf_powmod(base, e, mod, p) == want
    f = _rand_vec(rng, 7, 0, p - 1)
    want = []
    for c in reversed(f):
        want = gf_divmod(gf_add(gf_mul(want, b, p), [c], p), mod, p)[1]
    assert gf_compose_mod(f, b, mod, p) == want
