"""Seeded properties of every square-and-multiply and compositional power.

Each power is checked against the naive fold it stands for: repeated
products, repeated composition, or a closed form.  The GF(p) power
``gf_powmod`` is covered in test_modular.py.
"""

import random
from fractions import Fraction

from itergcd.multiplicity import _self_compose
from itergcd.numfield import Jet, NumberField, identity_jet, jet_compose, nf_invert
from itergcd.polys import Poly, iterate

X = Poly.x()


def random_rational(rng, span=7):
    return Fraction(rng.randint(-span, span), rng.randint(1, 5))


def random_poly(rng, max_deg=4):
    return Poly([random_rational(rng) for _ in range(rng.randint(1, max_deg + 1))])


def random_elem(field, rng):
    return field.element(Poly([random_rational(rng) for _ in range(field.degree)]))


def test_poly_power_matches_repeated_products():
    rng = random.Random(201)
    for _ in range(25):
        f = random_poly(rng)
        acc = Poly.const(1)
        for e in range(13):
            assert f ** e == acc, (f, e)
            acc = acc * f


def test_number_field_power_matches_products_and_inverse():
    rng = random.Random(202)
    fields = [NumberField(X ** 2 - 3), NumberField(X ** 3 - X - 1)]
    for field in fields:
        for _ in range(12):
            a = random_elem(field, rng)
            if a.is_zero():
                continue
            inv = nf_invert(a)
            assert a * inv == field.one()
            up = down = field.one()
            for e in range(13):
                assert a ** e == up, (a, e)
                if e <= 6:
                    assert a ** -e == down, (a, -e)
                up = up * a
                down = down * inv


def test_iterate_of_affine_map_matches_repeated_composition():
    rng = random.Random(203)
    for _ in range(12):
        alpha = random_rational(rng) or Fraction(1, 2)
        f = Poly.const(alpha) * X + Poly.const(random_rational(rng))
        acc = X
        for n in range(21):
            assert iterate(f, n) == acc, (f, n)
            acc = f.compose(acc)


def test_iterate_of_affine_map_matches_closed_form_at_large_n():
    # paper-suite's affine family at n = 4 iterates x/2 + 2 to 2^n(2^n - 1)
    n = 16 * 15
    for alpha, beta in ((Fraction(1, 2), Fraction(2)), (Fraction(-3), Fraction(5, 7)),
                        (Fraction(1), Fraction(-2, 3))):
        f = Poly.const(alpha) * X + Poly.const(beta)
        if alpha == 1:
            closed = X + Poly.const(n * beta)
        else:
            an = alpha ** n
            closed = Poly.const(an) * X + Poly.const(beta * (an - 1) / (alpha - 1))
        assert iterate(f, n) == closed, (alpha, beta)


def test_self_compose_matches_chained_jet_compose():
    rng = random.Random(204)
    field = NumberField(X ** 2 - 2)
    for _ in range(6):
        center = random_elem(field, rng)
        coeffs = [center] + [random_elem(field, rng) for _ in range(5)]
        j = Jet(center, coeffs)
        acc = identity_jet(center, j.order)
        for k in range(10):
            assert _self_compose(j, k) == acc, k
            acc = jet_compose(j, acc)
