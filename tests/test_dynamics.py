import itertools
import random
from fractions import Fraction

import pytest

from itergcd.dynamics import (
    IN_RAMIFIED,
    IN_UNRAMIFIED,
    NOT_PERIODIC,
    OrbitRecord,
    Word,
    chebyshev,
    compositional_power_check,
    independence_probe,
    orbit,
    ramified_cycle_check,
    word_compose,
)
from itergcd.errors import DegenerateInputError, LIMITS, ResourceLimitError
from itergcd.numfield import NumberField
from itergcd.polys import Poly, iterate

X = Poly.x()
Q = NumberField.rationals()


def test_orbit_fixed_point():
    rec = orbit(X ** 2, Q.element(1))
    assert rec.is_periodic
    assert rec.preperiod == 0 and rec.period == 1
    assert rec.points == (Q.element(1), Q.element(1))


def test_orbit_preperiodic():
    # -1 -> 1 -> 1 under squaring
    rec = orbit(X ** 2, Q.element(-1))
    assert rec.preperiod == 1 and rec.period == 1
    assert rec.cycle() == (Q.element(1),)


def test_orbit_two_cycle():
    # 0 -> -1 -> 0 under x^2 - 1
    rec = orbit(X ** 2 - 1, Q.element(0))
    assert rec.preperiod == 0 and rec.period == 2
    assert set(rec.cycle()) == {Q.element(0), Q.element(-1)}


def test_orbit_escape_by_size():
    rec = orbit(X ** 2 + 1, Q.element(1), size_cap=64)
    assert not rec.is_periodic
    assert rec.escape_reason is not None
    with pytest.raises(DegenerateInputError):
        rec.cycle()


def test_orbit_escape_by_steps():
    # x + 1 never repeats; the step cap fires before any size blowup
    rec = orbit(X + 1, Q.element(0), step_cap=10, size_cap=10 ** 6)
    assert not rec.is_periodic
    assert len(rec.points) == 11


@pytest.mark.parametrize("caps", [{"step_cap": 0}, {"step_cap": -3},
                                  {"size_cap": 0}, {"size_cap": -1}])
def test_orbit_refuses_a_cap_below_one(caps):
    # a cap of 0 would report an escape after no step, or the 2-cycle
    # 0 -> -1 -> 0 of x^2 - 1 as escaped by size
    with pytest.raises(DegenerateInputError):
        orbit(X ** 2 - 1, Q.element(0), **caps)


def test_orbit_step_cap_one_takes_one_step():
    rec = orbit(X + 1, Q.element(0), step_cap=1)
    assert rec.escape_reason == "step cap" and len(rec.points) == 2


def test_orbit_in_number_field():
    field = NumberField(X ** 2 - 2)
    rec = orbit(X ** 2 - 1, field.generator())  # sqrt2 -> 1 -> 0 -> -1 -> 0
    assert rec.preperiod == 2 and rec.period == 2


def test_ramified_cycle_examples():
    assert ramified_cycle_check(X ** 2, Q.element(0)) == IN_RAMIFIED
    assert ramified_cycle_check(X ** 2 - 1, Q.element(0)) == IN_RAMIFIED
    assert ramified_cycle_check(X ** 2 - 2, Q.element(2)) == IN_UNRAMIFIED
    assert ramified_cycle_check(X ** 2 - 2, Q.element(3)) == NOT_PERIODIC
    # preperiodic but not periodic
    assert ramified_cycle_check(X ** 2, Q.element(-1)) == NOT_PERIODIC
    with pytest.raises(DegenerateInputError):
        ramified_cycle_check(X + 1, Q.element(0))


def test_compositional_power_check():
    f = X ** 2 - 2
    assert compositional_power_check(f, f) == 1
    assert compositional_power_check(iterate(f, 3), f) == 3
    assert compositional_power_check(X ** 4, f) == "none"
    assert compositional_power_check(X ** 3, f) == "none"
    assert compositional_power_check(Poly.const(5), f) == "none"
    # below degree 2 the degrees name no candidate power: refused
    for base in (Poly([1, 2]), Poly.const(1)):   # 2x + 1, 1
        with pytest.raises(DegenerateInputError):
            compositional_power_check(f, base)


def test_word_canonical_form():
    w = Word.from_letters("FFGFF")
    assert w.runs == (("F", 2), ("G", 1), ("F", 2))
    assert w.letters() == "FFGFF"
    assert w.render() == "F^2GF^2"
    with pytest.raises(DegenerateInputError):
        Word((("F", 2), ("F", 1)))
    with pytest.raises(DegenerateInputError):
        Word.from_letters("FXG")


def test_word_compose_order():
    # FG means f o g: apply g first
    f, g = X ** 2, X + 1
    w = Word.from_letters("FG")
    assert word_compose(w, f, g) == (X + 1) ** 2
    assert word_compose(Word.from_letters("GF"), f, g) == X ** 2 + 1
    assert word_compose(Word(()), f, g) == X


def test_independence_probe_dependent_pair():
    # f = 2x, g = x + 1: fg = 2x + 2 = g^2 f
    verdict, pair = independence_probe(Poly([0, 2]), X + 1, 4)
    assert verdict == "dependent"
    w1, w2 = pair
    assert {w1.letters(), w2.letters()} == {"FG", "GGF"}
    f, g = Poly([0, 2]), X + 1
    assert word_compose(w1, f, g) == word_compose(w2, f, g)


def test_independence_probe_no_collision():
    verdict, bound = independence_probe(Poly([0, 2]), Poly([1, 3]), 4)
    assert verdict == "no-collision-up-to"
    assert bound == 4
    with pytest.raises(DegenerateInputError):
        independence_probe(Poly.const(2), X, 3)


def test_chebyshev_commuting_family():
    # normalized chebyshev maps commute under composition
    c2, c3 = chebyshev(2), chebyshev(3)
    assert c2 == X ** 2 - 2
    assert c3 == X ** 3 - Poly.const(3) * X
    assert c2.compose(c3) == c3.compose(c2)
    assert c2.compose(c2) == chebyshev(4)
    assert chebyshev(6) == c2.compose(c3)
    with pytest.raises(DegenerateInputError):
        chebyshev(0)


def test_chebyshev_defining_identity():
    # c_d(y + 1/y) = y^d + 1/y^d checked at a rational sample point
    y = Fraction(3, 2)
    for d in range(1, 7):
        lhs = chebyshev(d).evaluate(y + 1 / y)
        assert lhs == y ** d + 1 / y ** d


def test_orbit_record_is_frozen():
    rec = orbit(X ** 2, Q.element(0))
    with pytest.raises(Exception):
        rec.period = 7


def reference_probe(f, g, max_len):
    """independence_probe by evaluating every word with word_compose."""
    seen = {}
    for length in range(1, max_len + 1):
        for letters in itertools.product("FG", repeat=length):
            w = Word.from_letters("".join(letters))
            p = word_compose(w, f, g)
            if p in seen:
                return ("dependent", (seen[p], w))
            seen[p] = w
    return ("no-collision-up-to", max_len)


def test_independence_probe_matches_word_compose():
    rng = random.Random(17)
    pairs = [(X ** 2, -(X ** 2)), (X ** 2, X ** 2 + 1), (2 * X, X + 1),
             (X ** 2 - 2, chebyshev(3))]
    for _ in range(12):
        f, g = (Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 2))] + [rng.choice((1, -1, 2))])
                for _ in range(2))
        pairs.append((f, g))
    for f, g in pairs:
        for max_len in (1, 3, 6):
            assert independence_probe(f, g, max_len) == \
                reference_probe(f, g, max_len)
    verdict, (w1, w2) = independence_probe(X ** 2, -(X ** 2), 6)
    assert (verdict, w1.letters(), w2.letters()) == ("dependent", "FF", "FG")


def test_independence_probe_checks_the_degree_cap(monkeypatch):
    # FFGG has degree 16; word_compose's last composition is unchecked
    f, g = X ** 2 + 1, X ** 2 - 1
    monkeypatch.setattr(LIMITS, "max_degree", 8)
    assert word_compose(Word.from_letters("FFGG"), f, g).degree == 16
    assert independence_probe(f, g, 3) == ("no-collision-up-to", 3)
    with pytest.raises(ResourceLimitError):
        independence_probe(f, g, 4)


def test_independence_probe_checks_the_coefficient_cap(monkeypatch):
    # the word F^6, the sixth iterate of x^2 + x/3 - 5/7, has a 243-bit
    # coefficient
    f, g = Poly([Fraction(-5, 7), Fraction(1, 3), 1]), X ** 2 - 1
    monkeypatch.setattr(LIMITS, "max_coeff_bits", 200)
    with pytest.raises(ResourceLimitError, match="243 bits exceeds cap 200"):
        independence_probe(f, g, 6)


def test_independence_probe_checks_the_word_cap(monkeypatch):
    # lengths 1..4 keep 2 + 4 + 8 + 16 = 30 words
    f, g = Poly([0, 2]), Poly([1, 3])
    monkeypatch.setattr(LIMITS, "indep_words", 30)
    assert independence_probe(f, g, 4) == ("no-collision-up-to", 4)
    with pytest.raises(ResourceLimitError, match="length 5 would keep 62"):
        independence_probe(f, g, 5)
    # a collision within the cap is still found: 2x o (x + 1) is
    # (x + 1) o (x + 1) o 2x, a word of length 3
    monkeypatch.setattr(LIMITS, "indep_words", 14)
    verdict, _ = independence_probe(Poly([0, 2]), X + 1, 40)
    assert verdict == "dependent"


@pytest.mark.parametrize("max_len", [0, -1])
def test_independence_probe_refuses_an_empty_search(max_len):
    # no word has length <= 0, so "no collision" would be vacuous
    with pytest.raises(DegenerateInputError):
        independence_probe(X ** 2, X ** 2 + 1, max_len)
    assert independence_probe(X ** 2, X ** 2 + 1, 1) == \
        ("no-collision-up-to", 1)
