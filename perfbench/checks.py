"""Self-checks of the benchmark: tracer, task lists and recorded outputs.

    python3 perfbench/checks.py

Run from the root of a checkout.  The traced-pass check runs one untraced
and one traced pass of every workload, about a minute in all.
"""

from __future__ import annotations

import json
import sys
import time
import unittest

import run
import tracer
import workloads

CLI = run.load_library()

# The layers each workload exists to stress; every layer is in one of them.
STRESSED = {
    "grid": ("gcdlab", "polys", "modular", "factoring"),
    "heights": ("heights", "numfield", "modular", "factoring", "polys"),
    "certify": ("multiplicity", "dynamics", "numfield", "cli", "parser",
                "emit", "gcdlab"),
}


def run_outputs(tasks):
    outputs = []
    for argv in tasks:
        status, out, _ = run.run_task(CLI, argv)
        outputs.append((status, run.canonical(argv, out)))
    return outputs


def bindings():
    """Every module attribute and value-class attribute of the package."""
    out = {}
    for mod in tracer.package_modules():
        out.update(((mod.__name__, a), v) for a, v in vars(mod).items())
    for layer, cls_name, _, _ in tracer.METHODS:
        cls = getattr(sys.modules["itergcd." + layer], cls_name)
        out.update(((cls.__qualname__, a), v) for a, v in vars(cls).items())
    return out


class TracerRebinding(unittest.TestCase):
    def test_every_binding_is_replaced_and_restored(self):
        before = bindings()
        t = tracer.Tracer()
        t.install()
        try:
            during = bindings()
        finally:
            t.uninstall()
        after = bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        originals = set(map(id, t.wrapped))
        for key, value in during.items():
            raw = getattr(value, "__func__", value)
            self.assertNotIn(id(raw), originals, "%s.%s not rebound" % key)
        iterate = during[("itergcd.polys", "iterate")]
        self.assertIs(iterate.__wrapped__, before[("itergcd.polys", "iterate")])
        for layer in ("gcdlab", "heights", "multiplicity", "dynamics"):
            self.assertIs(during[("itergcd." + layer, "iterate")], iterate)


class TaskLists(unittest.TestCase):
    def test_same_seed_same_list_other_seed_other_list(self):
        for w in ("grid", "heights"):
            lists = [workloads.build(w, s) for s in range(10)]
            self.assertEqual(lists, [workloads.build(w, s) for s in range(10)])
            self.assertNotEqual(lists[1], lists[2])
            self.assertGreater(len({json.dumps(x) for x in lists}), 4)
        # certify has no free parameters
        self.assertEqual(workloads.build("certify", 0),
                         workloads.build("certify", 7))

    def test_every_drawable_task_has_a_recorded_output(self):
        expected = run.load_expected()
        for w in workloads.WORKLOADS:
            universe = {tuple(t) for t in workloads.universe(w)}
            for s in range(20):
                self.assertLessEqual({tuple(t) for t in workloads.build(w, s)},
                                     universe)
            self.assertLessEqual(universe, set(expected))
        for argv, defect in workloads.KNOWN_DEFECTS.items():
            self.assertEqual(expected[argv]["known_defect"], defect)


class TracedPass(unittest.TestCase):
    def test_traced_pass_matches_untraced_and_covers_layers(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            wanted = {m["name"] for m in json.load(fh)["per_layer"]}
        produced = {"trace.overhead_s"}
        for w in workloads.WORKLOADS:
            tasks = workloads.build(w, 0)
            plain = run_outputs(tasks)
            t = tracer.Tracer()
            t.install()
            try:
                t0 = time.perf_counter()
                traced = run_outputs(tasks)
                wall = time.perf_counter() - t0
            finally:
                t.uninstall()
            self.assertEqual(plain, traced, w)
            own = t.self_times()
            self.assertGreaterEqual(min(own), -1e-9, w)
            self.assertLessEqual(sum(own), wall, w)
            metrics = t.metrics()
            for layer in STRESSED[w]:
                calls = sum(v for k, v in metrics.items()
                            if k.startswith(layer + ".") and k.endswith(".calls"))
                self.assertGreater(calls, 0, "%s on %s" % (layer, w))
            produced |= set(metrics)
        self.assertEqual(set().union(*STRESSED.values()), set(tracer.LAYERS))
        self.assertLessEqual(wanted, produced)


if __name__ == "__main__":
    unittest.main()
