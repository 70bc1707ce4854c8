"""Byte-identity snapshots of the CLI: every subcommand in json, csv and md.

Each entry of data/cli_snapshots.json holds an argv, its exit code, its
stdout with the gcd-grid `millis` column blanked, and its stderr.  An argv
without --format runs the subcommand's default format.  Re-record with

    PYTHONPATH=src python tests/test_cli_snapshots.py

and review the diff: a changed entry is a changed output.
"""

import csv
import io
import json
import pathlib
import re
import sys

import pytest

from itergcd.cli import main

DATA = pathlib.Path(__file__).resolve().parent / "data" / "cli_snapshots.json"

FORMATS = ("json", "csv", "md")
DEFAULT_FORMAT = {"gcd-grid": "csv", "special-probe": "csv",
                  "paper-suite": "md"}

COMMANDS = (
    ("gcd-grid", "--f", "x^2-2", "--g", "x^2-1", "--c", "0", "--N", "3"),
    # f iterate 1 equals c: the m = 1 cells are degenerate
    ("gcd-grid", "--f", "x^2", "--g", "x^2+1", "--c", "x^2", "--N", "2"),
    ("gcd-grid", "--f", "2*x", "--g", "3*x+1", "--c", "x^2", "--N", "4",
     "--diagonal"),
    # a rational pair whose cells all have gcd 1
    ("gcd-grid", "--f", "x^2+x/3-5/7", "--g", "x^2-1", "--c", "0", "--N", "7"),
    # trivial and nontrivial cells side by side, against a non-constant c
    ("gcd-grid", "--f", "x^2-1", "--g", "x^2+x-1", "--c", "x", "--N", "5"),
    # a shared squared seed: every cell is nontrivial
    ("gcd-grid", "--f", "x^3+x^2", "--g", "x^3+5*x^2", "--c", "0", "--N", "3"),
    # f iterate 2 equals c, in the row whose degree is deg c
    ("gcd-grid", "--f", "x^2", "--g", "x^2+1", "--c", "x^4", "--N", "3"),
    ("divisor", "--f", "x^2-2", "--g", "x^2-1", "--c", "0", "--N", "3"),
    ("mult-cert", "--q", "x^2-2", "--c", "0", "--lambda-minpoly", "t^2-2"),
    ("mult-cert", "--q", "x^2", "--c", "3", "--lambda-minpoly", "t-5"),
    ("height", "--f", "x^2-1/2", "--x", "1", "--steps", "10"),
    ("height", "--f", "x^2+x", "--lambda-minpoly", "t^2-2", "--steps", "3"),
    # integer orbits that escape: a negative start under an odd degree, a
    # non-monic map
    ("height", "--f", "x^2+5", "--x", "61", "--steps", "18"),
    ("height", "--f", "x^3+2", "--x=-60", "--steps", "11"),
    ("height", "--f", "3*x^2-7", "--x", "9", "--steps", "14"),
    # rational points: a denominator escapes 2-adically at every step; at
    # the default steps the cap ends the orbit; three primes escape at once
    ("height", "--f", "x^2+1", "--x", "1/2"),
    ("height", "--f", "x^2-1/2", "--x", "1"),
    ("height", "--f", "x^2+x/3-5/7", "--x", "2/5", "--steps", "16"),
    # the report echoes the argv text, not the parsed polynomial
    ("special-probe", "--f", "x^2 + 1", "--c", "0", "--n-hi", "3",
     "--steps", "12"),
    # default steps: the size cap ends every row's orbit
    ("special-probe", "--f", "x^2+1", "--c", "0", "--n-hi", "4"),
    # every level of x^64 - c splits: 16 = 2^4 and 1 = 1^2
    ("special-probe", "--f", "x^2", "--c", "16"),
    ("special-probe", "--f", "x^2", "--c", "1"),
    # 2 is a critical value of x^2 - 2 at n = 2: levels with repeated factors
    ("special-probe", "--f", "x^2-2", "--c", "2", "--n-hi", "5"),
    # a non-constant c
    ("special-probe", "--f", "x^2", "--c", "x", "--n-hi", "4"),
    ("orbit", "--q", "x^2-3/4", "--x", "1/2"),
    ("orbit", "--q", "x^2-2", "--lambda-minpoly", "t^2-2"),
    ("ramified", "--q", "x^2-1", "--x", "0"),
    ("linear", "--f", "2*x+1", "--g", "3*x-2", "--n", "4"),
    ("linear", "--alpha", "2", "--beta", "3", "--gamma", "1", "--n", "5",
     "--c", "x"),
    # the normal form of 2x + 1, 3x - 2 has shift -1, so c is shifted too:
    # a constant and a linear c give lambda = 19/13, and c = x none
    ("linear", "--f", "2*x+1", "--g", "3*x-2", "--n", "4", "--c", "499/13"),
    ("linear", "--f", "2*x+1", "--g", "3*x-2", "--n", "4", "--c", "x+480/13"),
    ("linear", "--f", "2*x+1", "--g", "3*x-2", "--n", "4", "--c", "x"),
    ("indep", "--f", "2*x", "--g", "x+1", "--max-len", "4"),
    ("indep", "--f", "x^2", "--g", "x^2+1", "--max-len", "3"),
    ("paper-suite",),
    # refusals: exit 1 (hypothesis violated) and exit 2 (degenerate input)
    ("mult-cert", "--q", "x^2-1", "--c", "0", "--lambda-minpoly", "t-3"),
    ("linear", "--alpha", "2", "--beta", "2", "--gamma", "1", "--n", "3"),
)


def argvs():
    """Each command once per format; the default format without --format."""
    out = []
    for cmd in COMMANDS:
        default = DEFAULT_FORMAT.get(cmd[0], "json")
        for fmt in FORMATS:
            out.append(list(cmd) if fmt == default
                       else list(cmd) + ["--format", fmt])
    return out


def run_cli(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.BytesIO(), io.BytesIO()
    saved = sys.stdout, sys.stderr
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
    try:
        code = main(list(argv))
    finally:
        for stream in (sys.stdout, sys.stderr):
            stream.flush()
            stream.detach()
        sys.stdout, sys.stderr = saved
    return code, out.getvalue().decode("utf-8"), err.getvalue().decode("utf-8")


def strip_millis(text):
    """The output with each gcd-grid cell time replaced by `*`."""
    text = re.sub(r'("millis": )[^,\n]+', r'\1"*"', text)
    lines = text.split("\n")
    if lines[0].startswith("m,n,"):   # gcd-grid csv: millis is last
        return "\n".join(ln.rsplit(",", 1)[0] + ",*" if i and ln else ln
                         for i, ln in enumerate(lines))
    out, col = [], None   # md: blank the millis cell under its header
    for ln in lines:
        cells = ln[2:-2].split(" | ") if ln.startswith("| ") else []
        if "millis" in cells:
            col = cells.index("millis")
        elif col is not None and cells and cells[col] != "---":
            cells[col] = "*"
            ln = "| " + " | ".join(cells) + " |"
        elif not cells:
            col = None
        out.append(ln)
    return "\n".join(out)


def record():
    entries = []
    for argv in argvs():
        code, out, err = run_cli(argv)
        entries.append({"argv": argv, "exit": code,
                        "stdout": strip_millis(out), "stderr": err})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n",
                    encoding="utf-8")


def _entries():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_snapshots_cover_every_subcommand_in_every_format():
    entries = _entries()
    assert [e["argv"] for e in entries] == argvs()
    seen = {(e["argv"][0], e["argv"][-1] if "--format" in e["argv"]
             else DEFAULT_FORMAT.get(e["argv"][0], "json")) for e in entries}
    commands = {"gcd-grid", "divisor", "mult-cert", "height", "special-probe",
                "orbit", "ramified", "linear", "indep", "paper-suite"}
    assert seen == {(c, f) for c in commands for f in FORMATS}
    assert {e["exit"] for e in entries} == {0, 1, 2}


# recording runs before the file exists; the coverage test then guards it
@pytest.mark.parametrize("entry", _entries() if DATA.exists() else [],
                         ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_snapshot(entry):
    code, out, err = run_cli(entry["argv"])
    assert (code, strip_millis(out), err) == (
        entry["exit"], entry["stdout"], entry["stderr"])


def test_strip_millis_blanks_only_the_millis_column():
    md = ("| factor | max multiplicity |\n| --- | --- |\n| x | 2 |\n\n"
          "| m | n | degree | gcd | factors | millis |\n"
          "| --- | --- | --- | --- | --- | --- |\n"
          "| 1 | 1 | 1 | x | x:1 | 0.25 |\n\nstabilized: true\n")
    assert strip_millis(md) == md.replace("0.25", "*")
    text = "m,n,degree,gcd,factors,millis\n1,1,1,x,x:1,0.25\n"
    assert strip_millis(text) == text.replace("0.25", "*")
    assert list(csv.reader(io.StringIO(strip_millis(text))))[1][-1] == "*"
    assert strip_millis('{"millis": 0.25,\n') == '{"millis": "*",\n'


if __name__ == "__main__":
    record()
