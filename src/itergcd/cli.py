"""Command-line entry point.

Subcommands wrap the library one-to-one; polynomial arguments are expression
strings (see parser), points are rationals like "2/3" or the distinguished
root of --lambda-minpoly.  Reports go to stdout (or --out, written via a
temp file and rename); diagnostics go to stderr.

Exit codes: 0 success, 1 a verified claim failed or a hypothesis was
violated, 2 usage or input error, 3 a resource cap or undecidable search.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .dynamics import independence_probe, orbit, ramified_cycle_check
from .errors import (
    DegenerateInputError,
    EmbeddingError,
    HypothesisViolationError,
    ItergcdError,
    ParseError,
    ResourceLimitError,
    UndecidedError,
    VerificationError,
)
from .emit import FORMATS, emit
from .gcdlab import (
    NO_SOLUTION,
    gcd_grid,
    linear_common_root,
    linear_normal_form,
    reference_suite,
)
from .heights import ProbeReport, canonical_height, special_probe
from .multiplicity import divisor_h, multiplicity_bound
from .numfield import NumberField
from .parser import parse_poly
from .polys import Poly, render_poly


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise DegenerateInputError("bad rational %r: %s" % (text, ex))


def _field_point(args):
    """The point named by --lambda-minpoly (its distinguished root) or --x."""
    minpoly = args.lambda_minpoly
    if minpoly and args.x is not None:
        raise DegenerateInputError("give --x or --lambda-minpoly, not both")
    if minpoly:
        return NumberField(parse_poly(minpoly)).generator()
    if args.x is None:
        raise DegenerateInputError("need --x or --lambda-minpoly")
    return NumberField.rationals().element(_fraction_arg(args.x))


def _write_out(data: bytes, out_path: str | None) -> bool:
    """Write the report; False, after one line on stderr, if out_path fails."""
    if out_path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
        return True
    import tempfile   # here, not at the top: a report on stdout needs none
    directory = os.path.dirname(os.path.abspath(out_path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".itergcd-")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, out_path)
    except OSError as ex:
        print("itergcd: cannot write %s: %s" % (out_path, ex.strerror or ex),
              file=sys.stderr)
        return False
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return True


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (report, default_format, exit_code)
# ---------------------------------------------------------------------------

def _cmd_gcd_grid(args):
    rep = gcd_grid(parse_poly(args.f), parse_poly(args.g), parse_poly(args.c),
                   args.N, diagonal_only=args.diagonal)
    return rep, "csv", 0


def _cmd_divisor(args):
    h, certs = divisor_h(parse_poly(args.f), parse_poly(args.g),
                         parse_poly(args.c), args.N)
    report = {
        "f": args.f, "g": args.g, "c": args.c, "grid_n": args.N,
        "h": render_poly(h), "h_degree": h.degree,
        "certificates": [dict(factor=render_poly(p), **cert.to_json_dict())
                         for p, cert in certs.items()],
    }
    return report, "json", 0


def _cmd_mult_cert(args):
    field = NumberField(parse_poly(args.lambda_minpoly))
    cert = multiplicity_bound(parse_poly(args.q), parse_poly(args.c), field)
    return cert, "json", 0


def _cmd_height(args):
    x = _field_point(args)
    hv = canonical_height(parse_poly(args.f), x, steps=args.steps)
    report = {"f": args.f, "x": args.x or args.lambda_minpoly,
              "steps": args.steps,
              "value": hv.value, "error_bound": hv.error_bound}
    return report, "json", 0


def _cmd_special_probe(args):
    rows = special_probe(parse_poly(args.f), parse_poly(args.c),
                         args.n_lo, args.n_hi, steps=args.steps)
    return ProbeReport(args.f, args.c, tuple(rows)), "csv", 0


def _cmd_orbit(args):
    rec = orbit(parse_poly(args.q), _field_point(args),
                step_cap=args.step_cap, size_cap=args.size_cap)
    report = {
        "q": args.q,
        "points": [render_poly(p.rep, "t") for p in rec.points],
        "preperiod": rec.preperiod, "period": rec.period,
        "escape_reason": rec.escape_reason,
    }
    return report, "json", 0


def _cmd_ramified(args):
    verdict = ramified_cycle_check(parse_poly(args.q), _field_point(args))
    return {"q": args.q, "point": args.x or args.lambda_minpoly,
            "classification": verdict}, "json", 0


def _cmd_linear(args):
    if args.f or args.g:
        if not (args.f and args.g):
            raise DegenerateInputError("give both --f and --g, or neither")
        alpha, beta, gamma, shift, swapped = linear_normal_form(
            parse_poly(args.f), parse_poly(args.g))
    else:
        if not (args.alpha and args.beta and args.gamma):
            raise DegenerateInputError(
                "give --alpha/--beta/--gamma or a --f/--g pair")
        alpha = _fraction_arg(args.alpha)
        beta = _fraction_arg(args.beta)
        gamma = _fraction_arg(args.gamma)
        shift, swapped = Fraction(0), False
    c = parse_poly(args.c) if args.c else None
    if c is not None and shift != 0:
        c = c.shift(shift) - Poly.const(shift)
    lam = linear_common_root(alpha, beta, gamma, args.n, c=c)
    report = {"alpha": alpha, "beta": beta, "gamma": gamma, "n": args.n,
              "shift": shift, "swapped": swapped}
    if lam == NO_SOLUTION:
        report["result"] = NO_SOLUTION
    else:
        report["lambda"] = lam + shift
    return report, "json", 0


def _cmd_indep(args):
    status, detail = independence_probe(parse_poly(args.f), parse_poly(args.g),
                                        args.max_len)
    report = {"f": args.f, "g": args.g, "status": status}
    if status == "dependent":
        w1, w2 = detail
        report["witness"] = [w1.render(), w2.render()]
    else:
        report["max_len"] = detail
    return report, "json", 0


def _cmd_suite(args):
    rep = reference_suite()
    return rep, "md", 0 if rep.all_pass else 1


# ---------------------------------------------------------------------------

# built once per process: parsing leaves the tree unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="itergcd",
        description="exact gcds of iterated polynomials, with certificates")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=FORMATS, default=None)
        p.add_argument("--out", default=None, metavar="FILE")

    p = sub.add_parser("gcd-grid", help="grid of gcd(f^(m)-c, g^(n)-c)")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--diagonal", action="store_true")
    common(p)
    p.set_defaults(body=_cmd_gcd_grid)

    p = sub.add_parser("divisor", help="certified common divisor polynomial")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--N", type=int, default=3)
    common(p)
    p.set_defaults(body=_cmd_divisor)

    p = sub.add_parser("mult-cert", help="multiplicity bound certificate")
    p.add_argument("--q", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--lambda-minpoly", required=True, dest="lambda_minpoly")
    common(p)
    p.set_defaults(body=_cmd_mult_cert)

    p = sub.add_parser("height", help="canonical height of a point")
    p.add_argument("--f", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--lambda-minpoly", default=None, dest="lambda_minpoly")
    p.add_argument("--steps", type=int, default=32)
    common(p)
    p.set_defaults(body=_cmd_height)

    p = sub.add_parser("special-probe",
                       help="height decay of common-root factors")
    p.add_argument("--f", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--n-lo", type=int, default=1, dest="n_lo")
    p.add_argument("--n-hi", type=int, default=6, dest="n_hi")
    p.add_argument("--steps", type=int, default=40)
    common(p)
    p.set_defaults(body=_cmd_special_probe)

    p = sub.add_parser("orbit", help="forward orbit until repeat or cap")
    p.add_argument("--q", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--lambda-minpoly", default=None, dest="lambda_minpoly")
    p.add_argument("--step-cap", type=int, default=None, dest="step_cap")
    p.add_argument("--size-cap", type=int, default=None, dest="size_cap")
    common(p)
    p.set_defaults(body=_cmd_orbit)

    p = sub.add_parser("ramified", help="classify a point's cycle")
    p.add_argument("--q", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--lambda-minpoly", default=None, dest="lambda_minpoly")
    common(p)
    p.set_defaults(body=_cmd_ramified)

    p = sub.add_parser("linear", help="closed-form common root of linear maps")
    p.add_argument("--alpha", default=None)
    p.add_argument("--beta", default=None)
    p.add_argument("--gamma", default=None)
    p.add_argument("--f", default=None)
    p.add_argument("--g", default=None)
    p.add_argument("--c", default=None)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(body=_cmd_linear)

    p = sub.add_parser("indep", help="probe compositional independence")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--max-len", type=int, default=4, dest="max_len")
    common(p)
    p.set_defaults(body=_cmd_indep)

    p = sub.add_parser("paper-suite", help="re-run the bundled worked families")
    common(p)
    p.set_defaults(body=_cmd_suite)

    return top


_EXIT_CODES = (
    (ParseError, 2),
    (DegenerateInputError, 2),
    (HypothesisViolationError, 1),
    (VerificationError, 1),
    (UndecidedError, 3),
    (ResourceLimitError, 3),
    (EmbeddingError, 3),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, default_fmt, code = args.body(args)
        data = emit(report, args.format or default_fmt)
        return code if _write_out(data, args.out) else 2
    except ItergcdError as ex:
        label = "parse error" if isinstance(ex, ParseError) \
            else type(ex).__name__
        print("itergcd: %s: %s" % (label, ex), file=sys.stderr)
        for klass, code in _EXIT_CODES:
            if isinstance(ex, klass):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
