"""Benchmark of the itergcd command line, run in-process.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  One client runs a closed loop: each task is one call of
``itergcd.cli.main(argv)`` and starts when the previous one has finished.  A
pass runs the workload's task list once; passes repeat until ``--seconds``
have gone by and at least MIN_SAMPLES task latencies are in.  Times are
scaled to a reference host speed measured between tasks (see calibrate).

Every task's exit code and output bytes (with the ``millis`` column of
``gcd-grid`` removed) are compared with ``expected.json``.  The last line
printed is one JSON object: with ``--trace 0`` it holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of the traced passes,
which alternate with untraced ones.  Details, including each task's output
digest, go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# p90 needs at least ten samples beyond it
MIN_SAMPLES = 110
# stop starting passes after this long, so a slow program still exits in time
HARD_STOP_S = 120.0
# cold starts before the first pass, after each pass, and at most in all
SETUP_STARTS = 6
SETUP_PER_PASS = 2
SETUP_MAX = 30
# The host is shared, and its speed swings by up to 70 % within seconds,
# alike for every kind of work.  Each time is therefore scaled by the
# calibration loop run on either side of it: a reported second is a second on
# a host where calibrate() takes CAL_REF_S.
CAL_REF_S = 0.0015
CAL_LOOP = 1000
SETUP_ARGV = ["linear", "--alpha", "2", "--beta", "3", "--gamma", "1",
              "--n", "5"]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_library():
    if not (SRC / "itergcd" / "cli.py").is_file():
        raise BenchError("no itergcd sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import itergcd.cli
    if Path(itergcd.__file__).resolve().parent != SRC / "itergcd":
        raise BenchError("imported itergcd from %s, not from %s"
                         % (itergcd.__file__, SRC))
    return itergcd.cli


def load_expected() -> dict:
    if not EXPECTED.is_file():
        raise BenchError("missing %s" % EXPECTED)
    with open(EXPECTED, encoding="utf-8") as fh:
        entries = json.load(fh)["tasks"]
    return {tuple(e["argv"]): e for e in entries}


def canonical(argv, out: bytes) -> bytes:
    """Output bytes with the gcd-grid timing column removed."""
    if argv[0] != "gcd-grid":
        return out
    lines = out.decode("utf-8").split("\n")
    return "\n".join(ln.rsplit(",", 1)[0] for ln in lines).encode("utf-8")


def run_task(cli, argv):
    """One CLI call: (exit code or exception name, stdout bytes, seconds)."""
    out, err = io.BytesIO(), io.BytesIO()
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
    t0 = time.perf_counter()
    try:
        status = cli.main(list(argv))
    except SystemExit as ex:
        status = ex.code
    except Exception as ex:  # an uncaught error is a task failure
        status = type(ex).__name__
    finally:
        elapsed = time.perf_counter() - t0
        for stream in (sys.stdout, sys.stderr):
            stream.flush()
            stream.detach()
        sys.stdout, sys.stderr = saved
    return status, out.getvalue(), elapsed


class Gate:
    """Compares each task's exit code and bytes with the recorded ones."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.wrong = []      # failures that are not a recorded known defect
        self.digests = {}    # argv -> (status, sha256 of canonical output)

    def check(self, argv, status, out: bytes) -> None:
        want = self.expected[tuple(argv)]
        got = canonical(argv, out)
        self.attempted += 1
        self.digests[tuple(argv)] = (status, hashlib.sha256(got).hexdigest())
        if status == want["exit"] and got.decode("utf-8") == want["stdout"]:
            return
        self.failed += 1
        if status != want.get("known_defect"):
            self.wrong.append({"argv": list(argv), "status": status,
                               "expected_exit": want["exit"]})


def _reference_loop() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += (i * 7919) % 104729
    q = Fraction(1, 3)
    for i in range(CAL_LOOP // 10):
        q = q * Fraction(i + 2, i + 1) - Fraction(1, i + 5)
    x = 3 ** 20000
    for _ in range(CAL_LOOP // 500):
        x = (x * x) >> 20000
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median duration of a fixed pure-Python loop of int, Fraction and
    big-int work; the median drops a repetition hit by a one-off stall."""
    return statistics.median(_reference_loop() for _ in range(3))


def scaled(elapsed: float, before: float, after: float) -> float:
    """elapsed at reference speed, from the calibrations on either side."""
    return elapsed * 2.0 * CAL_REF_S / (before + after)


def run_pass(cli, tasks, gate: Gate) -> list[float]:
    """Run the task list once; returns each task's scaled latency."""
    gc.collect()
    row = []
    before = calibrate()
    for argv in tasks:
        status, out, elapsed = run_task(cli, argv)
        after = calibrate()
        row.append(scaled(elapsed, before, after))
        before = after
        gate.check(argv, status, out)
    return row


def cold_starts(count: int, times: list) -> None:
    """Append the scaled wall times of `count` fresh interpreters, each
    importing itergcd.cli and running one trivial command."""
    code = ("import sys; sys.path.insert(0, %r); from itergcd.cli import main;"
            " sys.exit(main(%r))" % (str(SRC), SETUP_ARGV))
    before = calibrate()
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not proc.stdout:
            raise BenchError("set-up command failed: %r"
                             % proc.stderr.decode("utf-8", "replace"))
        after = calibrate()
        times.append(scaled(elapsed, before, after))
        before = after


def repeat(step, seconds: int, enough) -> None:
    """Call step() until --seconds are up and enough() holds.

    Another step starts only if it should end by half a step past the
    deadline, and never after HARD_STOP_S.
    """
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        last, elapsed = now - t0, now - started
        if elapsed + last > HARD_STOP_S:
            return
        if enough() and elapsed + last / 2 >= seconds:
            return


def measure(cli, tasks, gate: Gate, seconds: int) -> dict:
    """Passes with cold starts after each, so that set-up samples are
    spread over the run like the task samples."""
    rows, setup = [], []
    cold_starts(SETUP_STARTS, setup)

    def step():
        rows.append(run_pass(cli, tasks, gate))
        if len(setup) < SETUP_MAX:
            cold_starts(SETUP_PER_PASS, setup)

    repeat(step, seconds, lambda: len(rows) * len(tasks) >= MIN_SAMPLES)
    latencies = [t for row in rows for t in row]
    p90 = statistics.quantiles(latencies, n=10)[8]
    return {
        "pass_s": statistics.median(map(sum, rows)),
        "task_p50_ms": statistics.median(latencies) * 1000.0,
        "task_p90_ms": p90 * 1000.0,
        "task_samples": len(latencies),
        "beyond_p90": sum(1 for t in latencies if t > p90),
        "setup_s": statistics.median(setup),
        "latencies": rows, "setup": setup,
    }


def measure_traced(cli, tasks, gate: Gate, seconds: int):
    """Alternate untraced and traced passes; per-layer medians over traced."""
    from tracer import Tracer
    tracer = Tracer()
    plain, traced, layer_runs = [], [], []

    def step():
        plain.append(sum(run_pass(cli, tasks, gate)))
        tracer.reset()
        tracer.install()
        try:
            traced.append(sum(run_pass(cli, tasks, gate)))
        finally:
            tracer.uninstall()
        layer_runs.append(tracer.metrics())

    repeat(step, seconds, lambda: True)
    names = sorted(set().union(*layer_runs))
    layers = {n: statistics.median(r.get(n, 0) for r in layer_runs)
              for n in names}
    layers["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(plain))
    return layers, tracer, {"untraced_pass_s": plain, "traced_pass_s": traced}


def metric_table():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"]


def write_trace(path: Path, tracer) -> None:
    base = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, _ in tracer.spans:
            fh.write(json.dumps([name, t0 - base, t1 - base, parent]) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        end_to_end, per_layer = metric_table()
        cli = load_library()
        expected = load_expected()
        tasks = workloads.build(args.workload, args.seed)
        missing = [t for t in tasks if tuple(t) not in expected]
        if missing:
            raise BenchError("no expected output for %r" % (missing[0],))
        run_task(cli, SETUP_ARGV)   # warm-up, untimed
        gate = Gate(expected)
        if args.trace:
            values, tracer, detail = measure_traced(cli, tasks, gate,
                                                    args.seconds)
            table = per_layer
        else:
            detail = measure(cli, tasks, gate, args.seconds)
            values = dict(detail, peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            table = end_to_end
    except BenchError as ex:
        print("perfbench: %s" % ex, file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in table}
    error_rate = gate.failed / gate.attempted
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        write_trace(OUT / (stem + ".spans.jsonl"), tracer)
    with open(OUT / (stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "metrics": metrics, "detail": detail,
                   "error_rate": error_rate, "wrong": gate.wrong,
                   "tasks": [{"argv": list(a), "status": s, "sha256": d}
                             for a, (s, d) in gate.digests.items()]},
                  fh, indent=1, default=str)

    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("%-44s %14d samples, %d beyond p90, %d passes"
              % ("task_samples", detail["task_samples"],
                 detail["beyond_p90"], len(detail["latencies"])))
    print("%-44s %14.6g ratio (%d failed of %d attempted)"
          % ("error_rate", error_rate, gate.failed, gate.attempted))
    for w in gate.wrong[:5]:
        print("WRONG: %s" % json.dumps(w))
    print(json.dumps({"correct": not gate.wrong, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
