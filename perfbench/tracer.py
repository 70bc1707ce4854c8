"""Span and counter recorder that wraps the itergcd layers from outside.

``Tracer.install()`` replaces each traced function by a wrapper in every
``itergcd`` module that holds it (a name imported with ``from .x import y``
is a separate binding and is rebound too) and on the value classes whose
arithmetic carries the work.  A wrapper records one span per call: name,
start, end and the span that was open when the call began.  ``uninstall()``
puts every original back, so untraced passes run the library untouched.
Spans stay in memory; ``metrics()`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# The package modules, one layer each.  ``errors`` does no work.
LAYERS = ("cli", "parser", "emit", "gcdlab", "polys", "modular", "factoring",
          "numfield", "dynamics", "multiplicity", "heights")

# Public helpers called once per coefficient: a span each would cost more
# than the work it measures, so their time counts toward the caller.
UNTRACED = {"modular.lcm_int"}

# Arithmetic methods of the value classes: (layer, class, span, attributes).
METHODS = (
    ("polys", "Poly", "mul", ("__mul__", "__rmul__")),
    ("polys", "Poly", "addsub",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")),
    ("polys", "Poly", "convert", ("int_form", "from_int_list")),
    ("polys", "Poly", "divmod", ("__divmod__",)),
    ("polys", "Poly", "compose", ("compose",)),
    ("polys", "Poly", "pow", ("__pow__",)),
    ("numfield", "NumberFieldElem", "mul", ("__mul__", "__rmul__")),
)


def _coeff_bits(coeffs) -> int:
    return max((c.bit_length() for c in coeffs), default=0)


def _elem_bits(x) -> int:
    if hasattr(x, "bit_size"):
        return x.bit_size()
    q = Fraction(x)
    return q.numerator.bit_length() + q.denominator.bit_length()


def _count_iterate(c, args, result):
    c["polys.iterate.out_degree_sum"] += result.degree


def _count_zx_mul(c, args, result):
    f, g = args
    c["modular.zx_mul.coeff_products"] += (sum(1 for a in f if a)
                                           * sum(1 for b in g if b))
    c["modular.zx_mul.bits_sum"] += max(_coeff_bits(f), _coeff_bits(g))


def _count_gcd(c, args, result):
    if len(result) == 1:
        c["modular.zx_gcd_modular.trivial"] += 1


def _count_factor(c, args, result):
    c["factoring.factor_irreducible.in_degree_sum"] += args[0].degree
    c["factoring.factor_irreducible.factors_out"] += len(result.factors)


def _count_nf_mul(c, args, result):
    c["numfield.mul.bits_sum"] += max(_elem_bits(args[0]), _elem_bits(args[1]))


def _count_weil(c, args, result):
    c["heights.weil_height_alg.bits_sum"] += _elem_bits(args[0])


def _count_grid(c, args, result):
    c["gcdlab.cells"] += len(result.cells) + len(result.degenerate)


def _count_emit(c, args, result):
    c["emit.bytes_out"] += len(result)


# Counters computed from a call's arguments and result, after its span ends.
COUNTERS = {
    "polys.iterate": _count_iterate,
    "modular.zx_mul": _count_zx_mul,
    "modular.zx_gcd_modular": _count_gcd,
    "factoring.factor_irreducible": _count_factor,
    "numfield.mul": _count_nf_mul,
    "heights.weil_height_alg": _count_weil,
    "gcdlab.gcd_grid": _count_grid,
    "emit.emit": _count_emit,
}


def package_modules() -> list:
    """The itergcd package and its submodules, as imported."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "itergcd"
                                  or name.startswith("itergcd."))]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, outermost]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple] = []  # (owner, attribute, original)
        self.wrapped: dict = {}          # original function -> span name

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        counters, count = self.counters, COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   not depth[name]]
            spans.append(rec)
            stack.append(idx)
            depth[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                depth[name] -= 1
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        for layer in LAYERS:
            mod = sys.modules["itergcd." + layer]
            for attr, fn in sorted(vars(mod).items()):
                name = "%s.%s" % (layer, attr)
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(name, fn)
                self.wrapped[fn] = name
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, held, wrapper)
        for layer, cls_name, span, attrs in METHODS:
            cls = getattr(sys.modules["itergcd." + layer], cls_name)
            name = "%s.%s" % (layer, span)
            for attr in attrs:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self.wrapped[raw.__func__] = name
                    self._set(cls, attr,
                              classmethod(self._wrap(name, raw.__func__)))
                else:
                    self.wrapped[raw] = name
                    self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration less the time covered by its child spans."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        return [t1 - t0 - covered[i]
                for i, (_, t0, t1, _, _) in enumerate(self.spans)]

    def metrics(self) -> dict:
        """Per-layer numbers of the spans and counters recorded so far."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        total_s: defaultdict = defaultdict(float)
        layer_self: defaultdict = defaultdict(float)
        edges: Counter = Counter()   # (parent span name, child span name)
        spans = self.spans
        for (name, t0, t1, parent, outer), own in zip(spans,
                                                      self.self_times()):
            calls[name] += 1
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if outer:
                total_s[name] += t1 - t0
            if parent >= 0:
                edges[(spans[parent][0], name)] += 1
        c = self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in calls:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
            out[name + ".total_s"] = total_s[name]
        for layer in LAYERS:
            out[layer + ".self_s"] = layer_self[layer]
        for key in ("polys.iterate.out_degree_sum",
                    "modular.zx_mul.coeff_products",
                    "factoring.factor_irreducible.in_degree_sum",
                    "factoring.factor_irreducible.factors_out",
                    "gcdlab.cells", "emit.bytes_out"):
            out[key] = c[key]
        out["modular.zx_mul.operand_bits"] = ratio(
            c["modular.zx_mul.bits_sum"], calls["modular.zx_mul"])
        out["numfield.mul.operand_bits"] = ratio(
            c["numfield.mul.bits_sum"], calls["numfield.mul"])
        out["heights.weil_height_alg.arg_bits"] = ratio(
            c["heights.weil_height_alg.bits_sum"],
            calls["heights.weil_height_alg"])
        out["modular.primes_per_gcd"] = ratio(
            edges[("modular.zx_gcd_modular", "modular.gf_gcd")],
            calls["modular.zx_gcd_modular"])
        out["modular.trivial_gcd_ratio"] = ratio(
            c["modular.zx_gcd_modular.trivial"],
            calls["modular.zx_gcd_modular"])
        out["heights.canonical_height.steps"] = edges[
            ("heights.canonical_height", "numfield.nf_eval")]
        out["multiplicity.divisor_h.iterate_calls"] = edges[
            ("multiplicity.divisor_h", "polys.iterate")]
        return out
