"""Record the reference output of every task any seed can draw.

    python3 perfbench/record.py

Run from the root of a checkout whose CLI output is the reference.  Writes
``perfbench/expected.json``: for each task its argv, exit code and stdout
with the ``millis`` column of ``gcd-grid`` removed.  A task listed in
``workloads.KNOWN_DEFECTS`` must fail with the recorded exception; its
expected output is taken with Python's int->str digit limit lifted, which
is what the CLI prints once the defect is fixed.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    cli = run.load_library()
    entries, seen = [], set()
    for workload in workloads.WORKLOADS:
        for argv in workloads.universe(workload):
            if tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            status, out, elapsed = run.run_task(cli, argv)
            entry = {"argv": argv}
            defect = workloads.KNOWN_DEFECTS.get(tuple(argv))
            if defect is not None:
                if status != defect:
                    raise SystemExit("%r: expected %s, got %r"
                                     % (argv, defect, status))
                limit = sys.get_int_max_str_digits()
                sys.set_int_max_str_digits(0)
                try:
                    status, out, _ = run.run_task(cli, argv)
                finally:
                    sys.set_int_max_str_digits(limit)
                entry["known_defect"] = defect
            if not isinstance(status, int):
                raise SystemExit("%r raised %s" % (argv, status))
            entry["exit"] = status
            entry["stdout"] = run.canonical(argv, out).decode("utf-8")
            entries.append(entry)
            print("%-8s %7.3fs exit %d  %s"
                  % (workload, elapsed, status, " ".join(argv)), flush=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"tasks": entries}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
