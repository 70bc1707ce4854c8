from fractions import Fraction

import pytest

from itergcd.errors import (
    DegenerateInputError,
    HypothesisViolationError,
    LIMITS,
    ResourceLimitError,
    UndecidedError,
    VerificationError,
)
from itergcd import multiplicity
from itergcd.multiplicity import (
    MultiplicityCertificate,
    _exceptional_power_solutions,
    direct_v,
    divisor_h,
    multiplicity_bound,
)
from itergcd.numfield import NumberField
from itergcd.polys import Poly, iterate, mult_of_factor

X = Poly.x()
Q_AT = {}


def field_at(value) -> NumberField:
    """Degree-1 field t - value, cached (field construction is not free)."""
    v = Fraction(value)
    if v not in Q_AT:
        Q_AT[v] = NumberField(X - Poly.const(v))
    return Q_AT[v]


def test_mult_of_factor_basic():
    f = (X - 2) ** 3 * (X ** 2 + 1)
    assert mult_of_factor(f, X - 2) == 3
    assert mult_of_factor(f, X ** 2 + 1) == 1
    assert mult_of_factor(f, X + 1) == 0
    assert mult_of_factor(Poly.const(5), X - 2) == 0


def test_mult_of_factor_additive_in_products():
    p = X ** 2 - 2
    f = p ** 2 * (X + 1)
    g = p * (X - 3)
    assert mult_of_factor(f * g, p) == 3
    assert mult_of_factor(f * g, X + 1) == 1


def test_direct_v_matches_full_expansion():
    # independent oracle: expand q^(n) - c outright and count the factor
    cases = [
        (X ** 2 - 2, X, X - Poly.const(2)),
        (X ** 2 - 2, Poly.const(2), X + Poly.const(2)),
        (X ** 2 + Poly.const(Fraction(1, 4)), X, X - Poly.const(Fraction(1, 2))),
        (X ** 2 - Poly.const(Fraction(3, 4)), X - 1, X - Poly.const(Fraction(1, 2))),
        (X ** 2, X ** 3, X),
        (X ** 2 - 2, Poly.zero(), X ** 2 - 2),
    ]
    for q, c, modulus in cases:
        field = NumberField(modulus)
        for n in range(1, 9):
            expanded = iterate(q, n) - c
            if expanded.is_zero():
                continue
            want = mult_of_factor(expanded, modulus.monic())
            assert direct_v(q, c, field, n) == want


def test_direct_v_rejects_degenerate_and_low_degree():
    with pytest.raises(DegenerateInputError):
        direct_v(X ** 2, X ** 4, field_at(0), 2)
    with pytest.raises(DegenerateInputError):
        direct_v(X + 1, X, field_at(0), 1)
    with pytest.raises(DegenerateInputError):
        direct_v(X ** 2, X, field_at(0), 0)


def test_direct_v_zero_when_orbit_misses():
    assert direct_v(X ** 2 - 2, X, field_at(5), 3) == 0


def congruence_allows(cert: MultiplicityCertificate, n: int) -> bool:
    if cert.congruence == "no n":
        return False
    if cert.congruence == "single n":
        return n == cert.ell
    a, m = cert.congruence.split(" mod ")
    return n >= cert.ell and (n - int(a)) % int(m) == 0


def check_invariant(q, c, cert, field, n_max=8):
    for n in range(1, n_max + 1):
        if iterate(q, n) == c:
            continue
        v = direct_v(q, c, field, n)
        assert v <= cert.bound_M
        if v > 0:
            assert congruence_allows(cert, n)


def test_case_constant_c_unramified():
    q = X ** 2 - 2
    c = Poly.const(2)
    field = field_at(-2)
    cert = multiplicity_bound(q, c, field)
    assert cert.case_tag == "constant-c"
    assert cert.bound_M == 1
    assert cert.congruence == "1 mod 1"
    assert (cert.ell, cert.r, cert.e, cert.u) == (1, 1, 1, 1)
    check_invariant(q, c, cert, field)


def test_case_no_hit():
    cert = multiplicity_bound(X ** 2, Poly.const(3), field_at(5))
    assert cert.case_tag == "not-periodic"
    assert cert.bound_M == 0
    assert cert.congruence == "no n"


def test_case_single_hit_preperiodic_target():
    # lambda = sqrt2 under x^2 - 2 reaches 0, whose own orbit never returns
    q = X ** 2 - 2
    c = Poly.zero()
    field = NumberField(X ** 2 - 2)
    cert = multiplicity_bound(q, c, field)
    assert cert.case_tag == "not-periodic"
    assert cert.congruence == "single n"
    assert cert.ell == 1
    assert cert.bound_M == 1
    assert cert.exceptional_ns == ((1, 1),)
    check_invariant(q, c, cert, field)


def test_case_u1_nontorsion_no_exceptional():
    q = X ** 2 - 2
    cert = multiplicity_bound(q, X, field_at(2))
    assert cert.case_tag == "u1-nontorsion"
    assert cert.bound_M == 1
    assert cert.exceptional_ns == ()
    check_invariant(q, X, cert, field_at(2))


def test_case_u1_nontorsion_with_exceptional_hit():
    # c built so that c'(-2) matches the derivative of q^(2) at -2, putting
    # one genuinely deeper tangency on the arithmetic progression
    q = X ** 2 - 2
    c = Poly.const(-16) * X - Poly.const(30)
    field = field_at(-2)
    cert = multiplicity_bound(q, c, field)
    assert cert.case_tag == "u1-nontorsion"
    assert cert.exceptional_ns == ((2, 2),)
    assert cert.bound_M == 2
    check_invariant(q, c, cert, field)


def test_case_superattracting():
    cert = multiplicity_bound(X ** 2, X ** 3, field_at(0))
    assert cert.case_tag == "superattracting"
    assert cert.bound_M == 3
    assert cert.u == 2
    assert cert.exceptional_ns == ((1, 2),)
    check_invariant(X ** 2, X ** 3, cert, field_at(0))


def test_case_u1_torsion_parabolic():
    # multiplier exactly 1: s = 1, first nonlinear coefficient decides
    q = X ** 2 + Poly.const(Fraction(1, 4))
    field = field_at(Fraction(1, 2))
    cert = multiplicity_bound(q, X, field)
    assert cert.case_tag == "u1-torsion"
    assert (cert.s, cert.d) == (1, 2)
    assert cert.bound_M == 2
    check_invariant(q, X, cert, field)
    # the bound is attained at every n here
    assert direct_v(q, X, field, 5) == 2


def test_case_u1_torsion_order_two():
    # multiplier -1: the return map over two cycle steps is parabolic
    q = X ** 2 - Poly.const(Fraction(3, 4))
    c = X - 1
    field = field_at(Fraction(1, 2))
    cert = multiplicity_bound(q, c, field)
    assert cert.case_tag == "u1-torsion"
    assert cert.s == 2
    assert cert.bound_M == 3
    check_invariant(q, c, cert, field)
    # orders alternate between the two residues of the doubled cycle
    got = [direct_v(q, c, field, n) for n in range(1, 7)]
    assert got == [2, 1, 2, 1, 2, 1]


def test_periodic_certificates_leave_direct_v_as_the_cross_check(monkeypatch):
    # the exceptional orders come from the cycle jets of the approach data;
    # direct_v, the n-fold chain, only checks them afterwards
    cases = [
        (X ** 2, X ** 3, field_at(0)),
        (X ** 2 - 2, Poly.const(-16) * X - Poly.const(30), field_at(-2)),
        (X ** 2 + Poly.const(Fraction(1, 4)), X, field_at(Fraction(1, 2))),
        (X ** 2 - Poly.const(Fraction(3, 4)), X - 1, field_at(Fraction(1, 2))),
        (X * (X - 1) ** 8, X - 1, field_at(1)),
    ]
    calls = []

    def spy(*args):
        calls.append(args)
        return direct_v(*args)

    monkeypatch.setattr(multiplicity, "direct_v", spy)
    certs = [multiplicity_bound(q, c, field) for q, c, field in cases]
    assert calls == []
    assert [cert.case_tag for cert in certs] == [
        "superattracting", "u1-nontorsion", "u1-torsion", "u1-torsion",
        "u1-torsion"]
    assert sum(len(cert.exceptional_ns) for cert in certs) == 4
    for (q, c, field), cert in zip(cases, certs):
        for n, v in cert.exceptional_ns:
            assert v == direct_v(q, c, field, n)


def test_hypothesis_violation_compositional_power():
    q = X ** 2 - 2
    with pytest.raises(HypothesisViolationError):
        multiplicity_bound(q, iterate(q, 2), field_at(1))


def test_hypothesis_violation_ramified_constant():
    with pytest.raises(HypothesisViolationError):
        multiplicity_bound(X ** 2, Poly.zero(), field_at(0))
    # 0 <-> -1 cycle of x^2 - 1 contains the critical point 0
    with pytest.raises(HypothesisViolationError):
        multiplicity_bound(X ** 2 - 1, Poly.zero(), field_at(3))


def test_certificate_json_shape():
    cert = multiplicity_bound(X ** 2 - 2, Poly.const(2), field_at(-2))
    d = cert.to_json_dict()
    assert d["case"] == "constant-c"
    assert d["bound"] == 1
    assert d["congruence"] == "1 mod 1"
    assert d["lambda_modulus"] == "t+2"
    assert isinstance(d["exceptional"], list)


def test_divisor_h_worked_pair():
    h, certs = divisor_h(X ** 2 - 2, X ** 2 - 1, Poly.zero(), 4)
    assert h == X ** 2 - 2
    assert set(certs) == {X ** 2 - 2}
    cert = certs[X ** 2 - 2]
    assert cert.congruence == "single n"
    # h is divisible by every grid gcd
    from itergcd.gcdlab import gcd_iterates
    for m in range(1, 5):
        for n in range(1, 5):
            G = gcd_iterates(X ** 2 - 2, X ** 2 - 1, Poly.zero(), m, n)
            assert (h % G).is_zero()


def test_divisor_h_trivial_when_gcds_stay_constant():
    h, certs = divisor_h(X ** 2, X ** 2 - 2, Poly.zero(), 3)
    assert h == Poly.const(1)
    assert certs == {}


def test_divisor_h_rejects_doubly_ramified_constant():
    with pytest.raises(HypothesisViolationError):
        divisor_h(X ** 2, X ** 2 - 1, Poly.zero(), 2)


def test_divisor_h_respects_certified_bounds():
    # every certified factor bound is an upper bound for the observed
    # multiplicities in the grid cells
    f, g = X ** 2 - 2, X ** 2 - 1
    h, certs = divisor_h(f, g, Poly.zero(), 4)
    from itergcd.gcdlab import gcd_iterates
    for p, cert in certs.items():
        for m in range(1, 5):
            for n in range(1, 5):
                G = gcd_iterates(f, g, Poly.zero(), m, n)
                assert mult_of_factor(G, p) <= cert.bound_M


def test_divisor_h_checks_the_grid_gcds_themselves(monkeypatch):
    # a factor list that loses x^2 - 2 leaves it out of h; only dividing by
    # the gcds poly_gcd returned, not by re-expanded lists, catches that
    from itergcd import gcdlab
    from itergcd.factoring import FactorList

    factor = gcdlab.factor_irreducible

    def lossy(f):
        fl = factor(f)
        return FactorList(fl.content, tuple(
            (p, e) for p, e in fl.factors if p != X ** 2 - 2))

    monkeypatch.setattr(gcdlab, "factor_irreducible", lossy)
    with pytest.raises(VerificationError, match="does not divide"):
        divisor_h(X ** 2 - 2, X ** 2 - 1, Poly.zero(), 4)


def test_divisor_h_falls_back_to_g_when_f_is_undecided(monkeypatch):
    # for non-constant c an undecided certificate for f is retried with g
    f, g, c = X ** 2 - 1, X ** 2 + X - 1, X
    bound = multiplicity.multiplicity_bound
    tried = []

    def undecided_for_f(q, c, field):
        tried.append(q)
        if q == f:
            raise UndecidedError("f left undecided")
        return bound(q, c, field)

    monkeypatch.setattr(multiplicity, "multiplicity_bound", undecided_for_f)
    h, certs = divisor_h(f, g, c, 4)
    assert certs and tried.count(f) == tried.count(g) == len(certs)
    for p, cert in certs.items():
        assert cert == bound(g, c, NumberField(p, check=False))


def test_divisor_h_constant_c_has_no_fallback(monkeypatch):
    def undecided(q, c, field):
        raise UndecidedError("undecided")

    monkeypatch.setattr(multiplicity, "multiplicity_bound", undecided)
    with pytest.raises(UndecidedError, match="undecided"):
        divisor_h(X ** 2 - 2, X ** 2 - 1, Poly.zero(), 4)


def test_exceptional_power_past_the_scan_cap(monkeypatch):
    # past LIMITS.power_search the height ratio h(w)/h(a1) names the one
    # candidate exponent, which is then checked exactly
    monkeypatch.setattr(LIMITS, "power_search", 3)
    Q = NumberField.rationals()
    two = Q.element(2)
    assert _exceptional_power_solutions(two, Q.element(1024)) == [10]
    assert _exceptional_power_solutions(two, Q.element(3)) == []


# ---------------------------------------------------------------------------
# the jet-order cap at every escalation site
# ---------------------------------------------------------------------------

CAP_MESSAGE = "jet refinement exceeded order cap 8"


def test_jet_cap_stops_direct_v(monkeypatch):
    # v_0(x^8) = 8 shows only in a jet of order 9
    field = field_at(0)
    assert direct_v(X ** 2, Poly.zero(), field, 3) == 8
    monkeypatch.setattr(LIMITS, "jet_order", 8)
    with pytest.raises(ResourceLimitError, match=CAP_MESSAGE):
        direct_v(X ** 2, Poly.zero(), field, 3)


def test_jet_cap_stops_the_approach_order_e(monkeypatch):
    # lambda = 1 reaches the fixed point 0 of x(x - 1)^8 with order e = 8
    q = X * (X - 1) ** 8
    cert = multiplicity_bound(q, X - 1, field_at(1))
    assert (cert.e, cert.u) == (8, 1)
    monkeypatch.setattr(LIMITS, "jet_order", 8)
    with pytest.raises(ResourceLimitError, match=CAP_MESSAGE):
        multiplicity_bound(q, X - 1, field_at(1))


def test_jet_cap_stops_the_cycle_order_u(monkeypatch):
    # lambda = 1 reaches 0 simply, but 0 is a fixed point of order u = 8
    q = X ** 8 - X ** 9
    cert = multiplicity_bound(q, X - 1, field_at(1))
    assert (cert.e, cert.u) == (1, 8)
    monkeypatch.setattr(LIMITS, "jet_order", 8)
    with pytest.raises(ResourceLimitError, match=CAP_MESSAGE):
        multiplicity_bound(q, X - 1, field_at(1))


def test_jet_cap_stops_the_torsion_order_d(monkeypatch):
    # the parabolic return map x + x^8 is tangent to the identity to order 8
    q = X + X ** 8
    cert = multiplicity_bound(q, X, field_at(0))
    assert (cert.case_tag, cert.d) == ("u1-torsion", 8)
    monkeypatch.setattr(LIMITS, "jet_order", 8)
    with pytest.raises(ResourceLimitError, match=CAP_MESSAGE):
        multiplicity_bound(q, X, field_at(0))


def test_jet_cap_stops_the_torsion_order_t(monkeypatch):
    # t equals e, so the cap is lowered only once e is known; d = 2 still
    # fits under it and the t probe is the first to need order 9
    from itergcd import multiplicity

    q = X * (X - 1) ** 8
    cert = multiplicity_bound(q, X - 1, field_at(1))
    assert (cert.case_tag, cert.d) == ("u1-torsion", 2)
    params = multiplicity.local_approach_params

    def params_then_cap(*args):
        out = params(*args)
        monkeypatch.setattr(LIMITS, "jet_order", 8)
        return out

    monkeypatch.setattr(multiplicity, "local_approach_params", params_then_cap)
    with pytest.raises(ResourceLimitError, match=CAP_MESSAGE):
        multiplicity_bound(q, X - 1, field_at(1))


def test_jet_cap_stops_the_order_on_the_cycle(monkeypatch):
    # at n = 1 + 3 the parabolic order is 2, which a jet of order 2 misses
    from itergcd.multiplicity import _v_on_cycle

    q = X ** 2 + Poly.const(Fraction(1, 4))
    field = field_at(Fraction(1, 2))
    lam = field.generator()
    pts = [lam]
    assert _v_on_cycle(q, X, lam, pts, pts, 3, 2) == direct_v(q, X, field, 4) == 2
    monkeypatch.setattr(LIMITS, "jet_order", 2)
    with pytest.raises(ResourceLimitError, match="order cap 2"):
        _v_on_cycle(q, X, lam, pts, pts, 3, 2)
