"""Task lists of the three benchmark workloads.

A task is the argv of one ``itergcd`` CLI call.  The structural families of
each workload are fixed; the workload seed draws only their free parameters:
the rational pairs of ``grid`` and the integer constants and points of
``heights``.  Every parameter is drawn from a finite pool, so
``expected.json`` can hold the reference output of every task that any seed
can produce (``universe``).  Pool members were chosen to cost about the same,
so the seed moves the inputs and not the amount of work.  The CLI's own
``--seed`` is never passed and stays at its default 0.
"""

from __future__ import annotations

import random

WORKLOADS = ("grid", "heights", "certify")

# -- grid -------------------------------------------------------------------

# The rational pair of the ROADMAP baseline.
ROADMAP_PAIR = ("x^2+x/3-5/7", "x^2-x/5+2/3")
# Rational quadratic pairs with the same denominators; the seed draws two.
# Each costs about the same as the ROADMAP pair.
RATIONAL_PAIRS = (
    ("x^2+2*x/3-5/7", "x^2-x/5+2/3"),
    ("x^2-x/3-5/7", "x^2+x/5+2/3"),
    ("x^2+x/3-4/7", "x^2-2*x/5+1/3"),
    ("x^2+2*x/3-3/7", "x^2-x/5+1/3"),
    ("x^2-2*x/3+5/7", "x^2+2*x/5-2/3"),
    ("x^2-x/3+2/7", "x^2-x/5-1/3"),
)
PAIRS_PER_RUN = 2


def _grid(f, g, c, sizes, diagonal=False):
    tail = ["--diagonal"] if diagonal else []
    return [["gcd-grid", "--f", f, "--g", g, "--c", c, "--N", str(n)] + tail
            for n in sizes]


def grid_tasks(pairs):
    # Many tasks of 0.1-0.4 s, none dominant: a task's time varies by about
    # 13 % from one run to the next on a shared host, and only a pass made of
    # many comparable tasks averages that out.
    tasks = (
        # iterates up to degree 256; cells carry x^2-2 factors
        _grid("x^2-2", "x^2-1", "0", range(4, 9))
        # cells are powers of x: CRT and trial division
        + _grid("x^3+x^2", "x^3+5*x^2", "0", range(3, 6))
        # a moving target c = x
        + _grid("x^2-1", "x^2+x-1", "x", range(6, 9))
        # fraction-heavy iterates
        + _grid(*ROADMAP_PAIR, "0", range(6, 9)))
    for f, g in pairs:
        tasks += _grid(f, g, "0", range(6, 9))
    # linear maps, trivial gcds
    return (tasks + _grid("2*x", "3*x+1", "x^2", (4, 8, 12, 16), diagonal=True)
            + _grid("2*x", "3*x+1", "x^2", (6,)))


# -- heights ----------------------------------------------------------------

# Height maps x^2+k and the like: the seed draws the integer constant k and
# four integer points.  48..63 all have six bits, and k is small, so every
# draw costs about 0.1-0.2 s.
HEIGHT_MAPS = (("x^2+%d", 18), ("x^2-%d", 18), ("x^2+x+%d", 18),
               ("x^3+%d", 11))   # (map, --steps)
CONSTANTS = (1, 2, 3, 5)
POINTS = tuple(range(48, 64))
POINTS_PER_MAP = 4


def _height(f, x, steps):
    return ["height", "--f", f, "--x=%s" % x, "--steps", str(steps)]


def heights_tasks(draws):
    """draws: for each of HEIGHT_MAPS, (constants, points) to combine."""
    tasks = [
        # the probes: x^(2^n) - c factors for c a power of two
        ["special-probe", "--f", "x^2+1", "--c", "0", "--steps", "24"],
        ["special-probe", "--f", "x^2", "--c", "16"],
        ["special-probe", "--f", "x^2", "--c", "1"],
        _height("x^2-1/2", "1", 19),
        # preperiodic points: the orbit repeats at once and the height is 0
        _height("x^2-1", "-1", 32),
        _height("x^2-2", "2", 32),
        _height("x^2+x", "-1", 32),
        # algebraic points: weil_height_alg needs min_poly and complex roots
        ["height", "--f", "x^2+x", "--lambda-minpoly", "t^16-2",
         "--steps", "4"],
        ["height", "--f", "x^2+x",
         "--lambda-minpoly", "t^8-8*t^6+20*t^4-16*t^2+2", "--steps", "5"],
    ]
    for (f, steps), (constants, points) in zip(HEIGHT_MAPS, draws):
        tasks += [_height(f % k, x, steps) for k in constants for x in points]
    return tasks


# -- certify ----------------------------------------------------------------

ORBIT_KNOWN_DEFECT = ("orbit", "--q", "x^2+1/4", "--x", "1/3")

CERTIFY_TASKS = (
    # mult-cert, one case per certificate branch
    ("mult-cert", "--q", "x^2-2", "--c", "2", "--lambda-minpoly", "t+2"),
    ("mult-cert", "--q", "x^2", "--c", "3", "--lambda-minpoly", "t-5"),
    ("mult-cert", "--q", "x^2-2", "--c", "0", "--lambda-minpoly", "t^2-2"),
    ("mult-cert", "--q", "x^2-2", "--c", "x", "--lambda-minpoly", "t-2"),
    ("mult-cert", "--q", "x^2-2", "--c=-16*x-30", "--lambda-minpoly", "t+2"),
    ("mult-cert", "--q", "x^2", "--c", "x^3", "--lambda-minpoly", "t"),
    ("mult-cert", "--q", "x^2+1/4", "--c", "x", "--lambda-minpoly", "t-1/2"),
    ("mult-cert", "--q", "x^2-3/4", "--c", "x-1", "--lambda-minpoly", "t-1/2"),
    # lambda = 2cos(pi/16), degree 8
    ("mult-cert", "--q", "x^2-2", "--c", "0",
     "--lambda-minpoly", "t^8-8*t^6+20*t^4-16*t^2+2"),
    ("divisor", "--f", "x^2-2", "--g", "x^2-1", "--c", "0", "--N", "8"),
    ("divisor", "--f", "x^2-1", "--g", "x^2+x-1", "--c", "x", "--N", "7"),
    ("paper-suite",),
    ("indep", "--f", "x^2", "--g", "x^2+1", "--max-len", "6"),
    ("indep", "--f", "2*x", "--g", "x+1", "--max-len", "6"),
    ("orbit", "--q", "x^2-1", "--x", "0"),
    ("orbit", "--q", "x^2-3/4", "--x", "1/2"),
    ORBIT_KNOWN_DEFECT,
    ("ramified", "--q", "x^2-1", "--x", "0"),
    ("ramified", "--q", "x^2-2", "--x", "2"),
    ("linear", "--alpha", "2", "--beta", "3", "--gamma", "1", "--n", "5"),
    ("linear", "--f", "2*x+1", "--g", "3*x-2", "--n", "4"),
    # refusals: exit 1 (hypothesis violated) and exit 2 (degenerate input)
    ("mult-cert", "--q", "x^2", "--c", "0", "--lambda-minpoly", "t"),
    ("mult-cert", "--q", "x^2-1", "--c", "0", "--lambda-minpoly", "t-3"),
    ("ramified", "--q", "x^2", "--x", "0"),
    ("linear", "--alpha", "2", "--beta", "2", "--gamma", "1", "--n", "3"),
)

# Tasks that fail at the seed commit, with the exception they raise.  The
# orbit of 1/3 under x^2+1/4 escapes by size, and rendering its points hits
# Python's 4300-digit int->str limit in polys._fmt_coeff.  The README says
# the exit should be 0 or 3.  The task stays in the workload and counts as a
# failure; its expected output is what the CLI prints with the limit lifted.
KNOWN_DEFECTS = {ORBIT_KNOWN_DEFECT: "ValueError"}


def build(workload: str, seed: int) -> list[list[str]]:
    """The task list of one run: the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "grid":
        return grid_tasks(rng.sample(RATIONAL_PAIRS, PAIRS_PER_RUN))
    if workload == "heights":
        return heights_tasks([([rng.choice(CONSTANTS)],
                               sorted(rng.sample(POINTS, POINTS_PER_MAP)))
                              for _ in HEIGHT_MAPS])
    if workload == "certify":
        return [list(t) for t in CERTIFY_TASKS]
    raise ValueError("unknown workload %r" % workload)


def universe(workload: str) -> list[list[str]]:
    """Every task that some seed can put into the workload."""
    if workload == "grid":
        seen, out = set(), []
        for pair in RATIONAL_PAIRS:
            for t in grid_tasks([pair]):
                if tuple(t) not in seen:
                    seen.add(tuple(t))
                    out.append(t)
        return out
    if workload == "heights":
        return heights_tasks([(CONSTANTS, POINTS)] * len(HEIGHT_MAPS))
    return build(workload, 0)
