"""Vanishing orders of q^(n) - c at an algebraic point, with certificates.

Throughout, the point of interest is the distinguished root lambda of a
number field's modulus (the residue class of t).  The central routine,
multiplicity_bound, produces a MultiplicityCertificate: an exact upper bound
M on v_lambda(q^(n)(x) - c(x)) valid for every n with q^(n) != c, plus the
congruence class of n that can make the order positive at all, plus the
finitely many exceptional n where the generic argument does not apply (each
carrying its exactly computed order).

The case analysis keys on the local behaviour of q around the periodic point
c0 = c(lambda): the return map's linearization a1 can be absent (c0 critical,
"superattracting"), a non-root-of-unity, or torsion; each branch yields a
different shape of bound.  On the torsion branch every y = ell + idx*r has
q^(y) = (q^(r))^(idx) o q^(ell), and q^(r) has order 1 at c0, so q^(y) - c0
vanishes at lambda to the same order t = e as q^(ell) - c0: one jet depth
serves the whole cycle and no order is searched for.

divisor_h multiplies the per-factor bounds into a single polynomial that
every gcd(f^(m) - c, g^(n) - c) on a grid must divide, and checks that it
does.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import count, takewhile

from .dynamics import (
    IN_RAMIFIED,
    UNDECIDED_CAP,
    compositional_power_check,
    orbit,
    ramified_cycle_check,
)
from .emit import md_table
from .errors import (
    DegenerateInputError,
    HypothesisViolationError,
    LIMITS,
    ResourceLimitError,
    UndecidedError,
    VerificationError,
)
from .factoring import _factor_sort_key
from .gcdlab import gcd_grid
from .heights import weil_height_alg
from .modular import _binary_power
from .numfield import (
    Jet,
    NOT_A_ROOT_OF_UNITY,
    NumberField,
    NumberFieldElem,
    identity_jet,
    jet_at,
    jet_compose,
    nf_eval,
    root_of_unity_order,
)
from .polys import Poly, iterate, render_poly


# ---------------------------------------------------------------------------
# jets of compositional powers along an orbit
# ---------------------------------------------------------------------------

def _chain_jet(q: Poly, points, order: int) -> Jet:
    """Jet of q^(len(points)) at points[0], given points[i] = q^(i)(points[0])."""
    acc = jet_at(q, points[0], order)
    for pt in points[1:]:
        acc = jet_compose(jet_at(q, pt, order), acc)
    return acc


def _self_compose(j: Jet, k: int) -> Jet:
    """k-fold self-composition of a jet fixing its center (binary powering)."""
    if j.coeffs[0] != j.center:
        raise DegenerateInputError("self-composition needs a center-fixing jet")
    return _binary_power(j, k, identity_jet(j.center, j.order), jet_compose)


def _least_index(probe, order: int = 8) -> int:
    """First non-None probe(order) as the order doubles up to LIMITS.jet_order."""
    while True:
        index = probe(order)
        if index is not None:
            return index
        if order >= LIMITS.jet_order:
            raise ResourceLimitError("jet refinement exceeded order cap %d"
                                     % LIMITS.jet_order)
        order = min(order * 2, LIMITS.jet_order)


def direct_v(q: Poly, c: Poly, lam_field: NumberField, n: int) -> int:
    """Exact v_lambda(q^(n)(x) - c(x)) via an n-fold jet chain at lambda.

    The jet order doubles until the difference shows a nonzero coefficient,
    so no compositional power is ever expanded.
    """
    if q.degree < 2:
        raise DegenerateInputError("need deg q >= 2")
    if n < 1:
        raise DegenerateInputError("need n >= 1")
    if q.degree ** n == max(c.degree, 0) and iterate(q, n) == c:
        raise DegenerateInputError("q^(%d) equals c; order undefined" % n)
    lam = lam_field.generator()
    pts = [lam]
    for _ in range(n - 1):
        pts.append(nf_eval(q, pts[-1]))
    if nf_eval(q, pts[-1]) != nf_eval(c, lam):
        return 0
    return _least_index(lambda order: (
        _chain_jet(q, pts, order) - jet_at(c, lam, order)).first_nonzero(1))


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------

CERT_COLUMNS = ("case", "bound", "congruence", "ell", "r", "e", "u", "s",
                "d", "exceptional", "notes", "lambda_modulus", "c0")


class MultiplicityCertificate(namedtuple(
        "MultiplicityCertificate", "lambda_field c0 case_tag bound_M "
        "congruence ell r e u s d exceptional_ns notes",
        defaults=(None,) * 6 + ((), ()))):
    """bound_M bounds the order of q^(n) - c at lambda, the distinguished
    root of lambda_field; c0 = c(lambda).

    case_tag    not-periodic | constant-c | u1-nontorsion
                | u1-torsion | superattracting
    congruence  "<ell> mod <r>" | "single n" | "no n"
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "lambda_modulus": render_poly(self.lambda_field.modulus, "t"),
            "c0": render_poly(self.c0.rep, "t"),
            "case": self.case_tag,
            "bound": self.bound_M,
            "congruence": self.congruence,
            "ell": self.ell,
            "r": self.r,
            "e": self.e,
            "u": self.u,
            "s": self.s,
            "d": self.d,
            "exceptional": [[n, v] for n, v in self.exceptional_ns],
            "notes": list(self.notes),
        }

    def table(self):
        d = self.to_json_dict()
        d["exceptional"] = ";".join("%d:%d" % nv for nv in self.exceptional_ns)
        d["notes"] = ";".join(self.notes)
        return CERT_COLUMNS, [[d[k] for k in CERT_COLUMNS]]

    def to_md(self) -> str:
        return md_table(*self.table())


def _resolved_orbit(q: Poly, x0: NumberFieldElem):
    """Orbit that either repeats or escapes by size; step-cap is undecided."""
    rec = orbit(q, x0)
    if not rec.is_periodic and rec.escape_reason != "size cap":
        raise UndecidedError("orbit step cap hit before periodicity resolved")
    return rec


def _exceptional_power_solutions(a1: NumberFieldElem, w: NumberFieldElem) -> list[int]:
    """All k >= 0 with a1^k = w, for a1 certified not a root of unity.

    There is at most one such k.  Small k are scanned exactly; beyond the
    scan cap the height identity k*h(a1) = h(w) localizes the only possible
    candidate, which is then verified exactly.
    """
    acc = a1.field.one()
    for k in range(LIMITS.power_search + 1):
        if acc == w:
            return [k]
        acc = acc * a1
    ha = weil_height_alg(a1)
    hw = weil_height_alg(w)
    if ha.value <= 1e-6:
        raise UndecidedError("base height too small to localize the "
                             "exceptional exponent")
    k_est = hw.value / ha.value
    lo = max(LIMITS.power_search + 1, int(k_est) - 2)
    hi = int(k_est) + 3
    for k in range(lo, hi + 1):
        if a1 ** k == w:
            return [k]
    return []


def multiplicity_bound(q: Poly, c: Poly,
                       lam_field: NumberField) -> MultiplicityCertificate:
    """Certificate bounding v_lambda(q^(n) - c) over all n with q^(n) != c."""
    if q.degree < 2:
        raise DegenerateInputError("need deg q >= 2")
    if compositional_power_check(c, q) != "none":
        raise HypothesisViolationError(
            "c is a compositional power of q; no bound exists for the "
            "degenerate n and none is certified")
    lam = lam_field.generator()
    c0 = nf_eval(c, lam)
    if c.is_constant():
        rc = ramified_cycle_check(q, c0)
        if rc == IN_RAMIFIED:
            raise HypothesisViolationError(
                "constant c lies in a ramified cycle of q: orders of "
                "vanishing grow without bound")
        if rc == UNDECIDED_CAP:
            raise UndecidedError("ramified-cycle check hit the orbit cap")
    # ell: the first n >= 1 with q^(n)(lambda) = c0
    lam_rec = _resolved_orbit(q, lam)
    ell = next((i for i in range(1, len(lam_rec.points))
                if lam_rec.points[i] == c0), None)
    if ell is None:
        notes = () if lam_rec.is_periodic else (
            "no-hit conclusion relies on the orbit size cap (escape after "
            "%d steps)" % (len(lam_rec.points) - 1),)
        return MultiplicityCertificate(
            lam_field, c0, "not-periodic", 0, "no n", notes=notes)
    c0_rec = _resolved_orbit(q, c0)
    if not c0_rec.is_periodic or c0_rec.preperiod != 0:
        # a second hit would force c0 to be periodic, so ell is the only one
        v = direct_v(q, c, lam_field, ell)
        return MultiplicityCertificate(
            lam_field, c0, "not-periodic", v, "single n",
            ell=ell, exceptional_ns=((ell, v),))

    # c0 has least period r; e is the order of q^(ell) - c0 at lambda and
    # u the first nonvanishing jet index of the return map q^(r) at c0
    r = c0_rec.period
    prefix = lam_rec.points[:ell]
    cycle = c0_rec.points[:r]
    e = _least_index(lambda order: _chain_jet(q, prefix, order).first_nonzero(1))
    u = _least_index(lambda order: _chain_jet(q, cycle, order).first_nonzero(1))
    congruence = "%d mod %d" % (ell, r)
    if c.is_constant():
        if u != 1:
            raise VerificationError(
                "unramified cycle produced a vanishing linearization")
        return MultiplicityCertificate(
            lam_field, c0, "constant-c", e, congruence,
            ell=ell, r=r, e=e, u=1)

    degc = c.degree
    c_jet = jet_at(c, lam, degc + 1)

    if u > 1:
        exceptional, big = _orders_on_cycle(
            q, c, lam, prefix, cycle,
            takewhile(lambda k: e * u ** k <= degc, count()), degc)
        return MultiplicityCertificate(
            lam_field, c0, "superattracting", big, congruence,
            ell=ell, r=r, e=e, u=u, exceptional_ns=exceptional)

    a1 = _chain_jet(q, cycle, 2).coeffs[1]
    s = root_of_unity_order(a1)
    if s == NOT_A_ROOT_OF_UNITY:
        b_e = _chain_jet(q, prefix, e + 1).coeffs[e]
        c_e = c_jet.coeffs[e] if e <= degc else lam_field.zero()
        ks = (_exceptional_power_solutions(a1, c_e / b_e)
              if c_jet.first_nonzero(1) == e and not c_e.is_zero() else ())
        exceptional, big = _orders_on_cycle(q, c, lam, prefix, cycle, ks, e)
        return MultiplicityCertificate(
            lam_field, c0, "u1-nontorsion", big, congruence,
            ell=ell, r=r, e=e, u=1, exceptional_ns=exceptional)

    # a1 is torsion of exact order s: the rs-return map is tangent to the
    # identity and the decisive data is its first nonlinear coefficient d;
    # q^(y) - c0 has order t = e at every y = ell + idx*r (module docstring),
    # so one depth t*d + 1 serves every idx
    rs_pts = cycle * s

    def nonlinear_index(order):
        rs_jet = _chain_jet(q, rs_pts, order)
        if rs_jet.coeffs[1] != 1:
            raise VerificationError("torsion return map is not tangent to "
                                    "the identity")
        return rs_jet.first_nonzero(2)

    d = _least_index(nonlinear_index)
    ed = e * d
    depth = max(ed, degc) + 1
    alpha_d = _chain_jet(q, rs_pts, depth).coeffs[d]
    c_ed = c_jet.coeffs[ed] if ed <= degc else lam_field.zero()
    exceptional = ()
    big = ed
    lam_pts = prefix + rs_pts[:(s - 1) * r]
    for idx in range(s):
        g_pts = lam_pts[:ell + idx * r]
        g_jet = _chain_jet(q, g_pts, depth)
        k_star = (c_ed - g_jet.coeffs[ed]) / (alpha_d * g_jet.coeffs[e] ** d)
        ks = ()
        if k_star.is_rational():
            kq = k_star.as_fraction()
            if kq.denominator == 1 and kq >= 0:
                ks = (int(kq),)
        found, big = _orders_on_cycle(q, c, lam, g_pts, rs_pts, ks, big, depth)
        exceptional += found
    return MultiplicityCertificate(
        lam_field, c0, "u1-torsion", big, congruence,
        ell=ell, r=r, e=e, u=1, s=s, d=d,
        exceptional_ns=tuple(sorted(exceptional)))


def _orders_on_cycle(q: Poly, c: Poly, lam: NumberFieldElem, pts, cyc, ks,
                     floor: int, order: int = 8):
    """((n, v), ...) at n = len(pts) + len(cyc) k for each k in ks, with v
    from _v_on_cycle, and the bound max(floor, every v)."""
    found = tuple((len(pts) + len(cyc) * k,
                   _v_on_cycle(q, c, lam, pts, cyc, k, order)) for k in ks)
    return found, max([floor] + [v for _, v in found])


def _v_on_cycle(q: Poly, c: Poly, lam: NumberFieldElem, g_pts, rs_pts,
                k: int, order: int = 8) -> int:
    """v at n = y + rsk computed as (rs-return)^k composed with the q^(y)-jet.

    g_pts is the lambda orbit up to step y and rs_pts the rs-cycle it then
    enters (s = 1 for the orders on the progression ell + rk).  Binary
    self-composition keeps the cost logarithmic in k, so exceptional
    n found far out on the arithmetic progression stay reachable.
    """
    def order_at(order):
        total = jet_compose(_self_compose(_chain_jet(q, rs_pts, order), k),
                            _chain_jet(q, g_pts, order))
        return (total - jet_at(c, lam, order)).first_nonzero(1)

    return _least_index(order_at, order)


# ---------------------------------------------------------------------------
# the common-divisor polynomial over a gcd grid
# ---------------------------------------------------------------------------

def _base_map_for_constant(f: Poly, g: Poly, c0q: Fraction):
    """Pick whichever map does not hold c0 in a ramified cycle."""
    elem = NumberField.rationals().element(c0q)
    states = [(m, ramified_cycle_check(m, elem)) for m in (f, g)]
    usable = [m for m, st in states if st not in (IN_RAMIFIED, UNDECIDED_CAP)]
    if usable:
        return usable[0]
    if any(st == UNDECIDED_CAP for _, st in states):
        raise UndecidedError("ramified-cycle checks hit orbit caps for both maps")
    raise HypothesisViolationError(
        "constant c lies in a ramified cycle of both maps; no common "
        "divisor polynomial exists")


def divisor_h(f: Poly, g: Poly, c: Poly, grid_n: int):
    """h = prod p^(M_p) over the factor set of a grid of iterate gcds.

    Each factor in the universe of gcd_grid(f, g, c, grid_n), the monic
    irreducible factors of every gcd(f^(m) - c, g^(n) - c) with
    m, n <= grid_n, is certified by multiplicity_bound against a map
    satisfying the non-ramified hypothesis.  The returned h is verified to
    be divisible by every grid gcd; failure of that check is an internal
    error, never an expected outcome.

    Returns (h, certificates) with certificates a dict from monic irreducible
    factor to its MultiplicityCertificate.
    """
    if f.degree < 2 or g.degree < 2:
        raise DegenerateInputError("divisor construction needs degrees >= 2")
    for base in (f, g):
        if compositional_power_check(c, base) != "none":
            raise HypothesisViolationError(
                "c is a compositional power of one of the maps")
    if grid_n < 1:
        raise DegenerateInputError("grid size must be >= 1")

    if c.is_constant():
        primary = _base_map_for_constant(f, g, c[0])
        fallback = None
    else:
        primary, fallback = f, g

    # compositional_power_check above rules out degenerate cells
    grid = gcd_grid(f, g, c, grid_n)
    certs: dict[Poly, MultiplicityCertificate] = {}
    h = Poly.const(1)
    for p, mult in sorted(grid.factor_universe.items(),
                          key=lambda t: _factor_sort_key(t[0])):
        lam_field = NumberField(p, check=False)
        try:
            cert = multiplicity_bound(primary, c, lam_field)
        except UndecidedError:
            if fallback is None:
                raise
            cert = multiplicity_bound(fallback, c, lam_field)
        if mult > cert.bound_M:
            raise VerificationError(
                "grid exhibits %s^%d but the certificate bounds it by %d"
                % (render_poly(p), mult, cert.bound_M))
        certs[p] = cert
        h = h * p ** cert.bound_M
    # divide by the gcds themselves, not by their factor lists: each
    # exponent of those lists is already checked against its bound
    for (m, n), gcd_mn in grid.gcds.items():
        if not (h % gcd_mn).is_zero():
            raise VerificationError(
                "grid gcd at (%d, %d) does not divide the divisor polynomial"
                % (m, n))
    return h, certs
