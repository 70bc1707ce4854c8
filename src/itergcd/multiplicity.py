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
different shape of bound.  divisor_h multiplies the per-factor bounds into a
single polynomial that every gcd(f^(m) - c, g^(n) - c) on a grid must divide,
and checks that it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

@dataclass(frozen=True)
class ApproachParams:
    """Intermediate local data at lambda: where the orbit meets c0 and how."""

    c0: NumberFieldElem
    hit: bool                 # does the lambda-orbit ever reach c0?
    ell: int | None           # first n >= 1 with q^(n)(lambda) = c0
    periodic: bool            # is c0 periodic under q?
    r: int | None             # least period of c0 when periodic
    e: int | None             # order of q^(ell) - c0 at lambda
    u: int | None             # first nonvanishing jet index of q^(r) at c0
    a1: NumberFieldElem | None  # linear coefficient of q^(r) at c0
    prefix: tuple = ()        # lambda, q(lambda), ..., q^(ell-1)(lambda)
    cycle: tuple = ()         # c0, q(c0), ..., q^(r-1)(c0)
    notes: tuple = ()


CERT_COLUMNS = ("case", "bound", "congruence", "ell", "r", "e", "u", "s",
                "d", "exceptional", "notes", "lambda_modulus", "c0")


@dataclass(frozen=True)
class MultiplicityCertificate:
    lambda_field: NumberField
    c0: NumberFieldElem
    case_tag: str             # not-periodic | constant-c | u1-nontorsion
                              # | u1-torsion | superattracting
    bound_M: int
    congruence: str           # "<ell> mod <r>" | "single n" | "no n"
    ell: int | None = None
    r: int | None = None
    e: int | None = None
    u: int | None = None
    s: int | None = None
    d: int | None = None
    exceptional_ns: tuple = ()
    notes: tuple = ()

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


def local_approach_params(q: Poly, c: Poly, lam_field: NumberField) -> ApproachParams:
    """Local data of the (q, c) pair at the field's distinguished root."""
    if q.degree < 2:
        raise DegenerateInputError("need deg q >= 2")
    lam = lam_field.generator()
    c0 = nf_eval(c, lam)
    notes = []
    lam_rec = _resolved_orbit(q, lam)
    ell = next((i for i in range(1, len(lam_rec.points))
                if lam_rec.points[i] == c0), None)
    if ell is None:
        if not lam_rec.is_periodic:
            notes.append("no-hit conclusion relies on the orbit size cap "
                         "(escape after %d steps)" % (len(lam_rec.points) - 1))
        return ApproachParams(c0, False, None, False, None, None, None, None,
                           notes=tuple(notes))
    c0_rec = _resolved_orbit(q, c0)
    if not c0_rec.is_periodic or c0_rec.preperiod != 0:
        # a second hit would force c0 to be periodic, so ell is the only one
        return ApproachParams(c0, True, ell, False, None, None, None, None,
                           notes=tuple(notes))
    r = c0_rec.period
    lam_pts = lam_rec.points[:ell]
    cyc_pts = c0_rec.points[:r]
    e = _least_index(lambda order: _chain_jet(q, lam_pts, order).first_nonzero(1))
    u = _least_index(lambda order: _chain_jet(q, cyc_pts, order).first_nonzero(1))
    a_jet = _chain_jet(q, cyc_pts, max(2, u + 1))
    return ApproachParams(c0, True, ell, True, r, e, u, a_jet.coeffs[1],
                       lam_pts, cyc_pts, tuple(notes))


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
    params = local_approach_params(q, c, lam_field)
    if not params.hit:
        return MultiplicityCertificate(
            lam_field, c0, "not-periodic", 0, "no n", notes=params.notes)
    if not params.periodic:
        v = direct_v(q, c, lam_field, params.ell)
        return MultiplicityCertificate(
            lam_field, c0, "not-periodic", v, "single n",
            ell=params.ell, exceptional_ns=((params.ell, v),),
            notes=params.notes)

    ell, r, e, u = params.ell, params.r, params.e, params.u
    prefix, cycle = params.prefix, params.cycle
    congruence = "%d mod %d" % (ell, r)
    if c.is_constant():
        if params.a1.is_zero():
            raise VerificationError(
                "unramified cycle produced a vanishing linearization")
        return MultiplicityCertificate(
            lam_field, c0, "constant-c", e, congruence,
            ell=ell, r=r, e=e, u=1, notes=params.notes)

    degc = c.degree
    c_jet = jet_at(c, lam, degc + 1)

    if u > 1:
        exceptional = []
        big = degc
        k = 0
        while e * u ** k <= degc:
            n_k = ell + r * k
            v_k = _v_on_cycle(q, c, lam, prefix, cycle, k)
            exceptional.append((n_k, v_k))
            big = max(big, v_k)
            k += 1
        return MultiplicityCertificate(
            lam_field, c0, "superattracting", big, congruence,
            ell=ell, r=r, e=e, u=u, exceptional_ns=tuple(exceptional),
            notes=params.notes)

    a1 = params.a1
    s = root_of_unity_order(a1)
    if s == NOT_A_ROOT_OF_UNITY:
        b_e = _chain_jet(q, prefix, e + 1).coeffs[e]
        c_e = c_jet.coeffs[e] if e <= degc else lam_field.zero()
        t_c = c_jet.first_nonzero(1)
        exceptional = []
        big = e
        if t_c == e and not c_e.is_zero():
            for k in _exceptional_power_solutions(a1, c_e / b_e):
                n_k = ell + r * k
                v_k = _v_on_cycle(q, c, lam, prefix, cycle, k)
                exceptional.append((n_k, v_k))
                big = max(big, v_k)
        return MultiplicityCertificate(
            lam_field, c0, "u1-nontorsion", big, congruence,
            ell=ell, r=r, e=e, u=1, exceptional_ns=tuple(exceptional),
            notes=params.notes)

    # a1 is torsion of exact order s: the rs-return map is tangent to the
    # identity and the decisive data is its first nonlinear coefficient
    rs_pts = cycle * s

    def nonlinear_index(order):
        rs_jet = _chain_jet(q, rs_pts, order)
        if rs_jet.coeffs[1] != 1:
            raise VerificationError("torsion return map is not tangent to "
                                    "the identity")
        return rs_jet.first_nonzero(2)

    d = _least_index(nonlinear_index)
    exceptional = []
    big = 0
    lam_pts = prefix + rs_pts[:(s - 1) * r]
    for idx in range(s):
        y = ell + idx * r
        g_pts = lam_pts[:y]
        t = _least_index(lambda order: _chain_jet(q, g_pts, order).first_nonzero(1))
        depth = max(t * d, degc) + 1
        g_jet = _chain_jet(q, g_pts, depth)
        rs_deep = _chain_jet(q, rs_pts, depth)
        alpha_d = rs_deep.coeffs[d]
        beta_t = g_jet.coeffs[t]
        beta_td = g_jet.coeffs[t * d]
        c_td = c_jet.coeffs[t * d] if t * d <= degc else lam_field.zero()
        big = max(big, t * d)
        k_star = (c_td - beta_td) / (alpha_d * beta_t ** d)
        if k_star.is_rational():
            kq = k_star.as_fraction()
            if kq.denominator == 1 and kq >= 0:
                k_int = int(kq)
                n_star = y + r * s * k_int
                v_star = _v_on_cycle(q, c, lam, g_pts, rs_pts, k_int, depth)
                exceptional.append((n_star, v_star))
                big = max(big, v_star)
    return MultiplicityCertificate(
        lam_field, c0, "u1-torsion", big, congruence,
        ell=ell, r=r, e=e, u=1, s=s, d=d,
        exceptional_ns=tuple(sorted(exceptional)), notes=params.notes)


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
