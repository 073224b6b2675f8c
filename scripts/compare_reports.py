#!/usr/bin/env python3
"""Compare two trees of `potlab verify` reports, `potlab solve` diagnostics
and `potlab potential` CSVs.

Every `check_*.csv`, `summary.txt`, `diagnostics.txt`, `wolff.csv` and
`maximal.csv` under OLD is matched with the file at the same relative path
under NEW.  For each file the script prints whether the rows and flags
(check CSV), the rows and verdicts (summary), the solver counts
(diagnostics: every line but start, energy, complementarity and residual)
or the rows and truncation flags (potential CSV) agree, and the largest
relative difference |a - b| / max(|a|, |b|) of each numeric column or
line; files whose bytes match print as byte-identical.
Summary notes are compared as text and reported, but they are rounded
copies of numbers compared elsewhere and do not fail the comparison.
The diagnostics' `start` line (`flat` when a file has none) names the
solve's warm start: `flat`, `scale=S` (its mesh's cell at data scale S)
or `n=N` (the same cell on mesh N).  Two solves from different starts
take different steps to the same energy: then only the energy is
compared, and the counts, residual and complementarity are reported
without failing.
The last two lines count the byte-identical files among all files seen
on either side and give the verdict.

Usage: python scripts/compare_reports.py OLD NEW

Exit status 1 when a file is missing on either side, a verdict, row
count, flag or solver count changed, or a numeric difference exceeds
1e-6; 2 on a usage error; else 0.
"""

import csv
import math
import re
import sys
from pathlib import Path

LIMIT = 1e-6
CSV_NUMERIC = ("point_x", "point_y", "radius", "lhs", "rhs", "ratio")
SUMMARY_NUMERIC = ("max_ratio", "drift")
DIAGNOSTICS_NUMERIC = ("energy", "complementarity", "residual")
POTENTIAL_FILES = ("wolff.csv", "maximal.csv")
POTENTIAL_NUMERIC = ("x", "y", "value")


def rel_diff(a: str, b: str) -> float:
    """Relative difference of two printed numbers; blanks match only blanks."""
    if a == b:
        return 0.0
    if not a or not b:
        return math.inf
    x, y = float(a), float(b)
    if x == y:
        return 0.0
    if math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_summary(path: Path) -> tuple[list[dict], list[str]]:
    """Rows {check, rows, max_ratio, drift, pass} and the note lines."""
    rows, notes = [], []
    for line in path.read_text().splitlines()[1:]:
        if line.startswith(" "):
            notes.append(line.strip())
            continue
        # name and rows, then right-aligned max_ratio (width 12) and drift
        # (width 10) that longer numbers overflow, then the verdict (width 5)
        head = re.match(r"(\S+)\s+(\d+)", line)
        name, nrows = head.groups()
        middle = line[head.end():-6]
        numbers = middle.split()
        if len(numbers) == 1:  # one blank column: a blank drift leaves its width
            numbers = [numbers[0], ""] if middle.endswith(" " * 10) else ["", numbers[0]]
        max_ratio, drift = numbers or ["", ""]
        rows.append({"check": name, "rows": nrows, "max_ratio": max_ratio,
                     "drift": drift, "pass": line[-5:].strip()})
    return rows, notes


def read_diagnostics(path: Path) -> dict:
    """The `name value` lines of a diagnostics file."""
    return dict(line.split() for line in path.read_text().splitlines())


def compare_rows(old: list[dict], new: list[dict], exact, numeric) -> tuple[list[str], dict]:
    """Changes in the exact columns and the largest difference per numeric one."""
    problems = []
    if len(old) != len(new):
        problems.append(f"{len(old)} rows -> {len(new)} rows")
    for i, (a, b) in enumerate(zip(old, new)):
        for col in exact:
            if a[col] != b[col]:
                problems.append(f"row {i + 1} {col}: {a[col]!r} -> {b[col]!r}")
    worst = {col: max((rel_diff(a[col], b[col]) for a, b in zip(old, new)), default=0.0)
             for col in numeric}
    return problems, worst


def compare_file(rel: Path, old: Path, new: Path) -> bool:
    """Rows, flags and verdicts exactly, numbers to LIMIT, of two files
    whose bytes differ."""
    info = []  # changes that are reported and do not fail
    if rel.name == "summary.txt":
        (a, notes_a), (b, notes_b) = read_summary(old), read_summary(new)
        problems, worst = compare_rows(a, b, ("check", "rows", "pass"), SUMMARY_NUMERIC)
        what = "checks, rows and verdicts"
    elif rel.name == "diagnostics.txt":
        a, b = read_diagnostics(old), read_diagnostics(new)
        starts = [d.pop("start", "flat") for d in (a, b)]
        names = sorted(a.keys() | b.keys())
        a, b = ({k: d.get(k, "") for k in names} for d in (a, b))
        # solves from different starts take different steps to the same
        # energy: each other change is reported
        same_start = starts[0] == starts[1]
        numeric = DIAGNOSTICS_NUMERIC if same_start else ("energy",)
        problems, worst = compare_rows([a], [b], [k for k in names if k not in numeric],
                                       [k for k in names if k in numeric])
        if not same_start:
            info, problems = [f"start: {starts[0]!r} -> {starts[1]!r}", *problems], []
        notes_a = notes_b = None
        what = "solver counts"
    elif rel.name in POTENTIAL_FILES:
        a, b = read_csv(old), read_csv(new)
        notes_a = notes_b = None
        problems, worst = compare_rows(a, b, ("truncation_flag",), POTENTIAL_NUMERIC)
        what = "rows and truncation flags"
    else:
        a, b = read_csv(old), read_csv(new)
        notes_a = notes_b = None
        problems, worst = compare_rows(a, b, ("check", "flag"), CSV_NUMERIC)
        what = "rows and flags"
    ok = not problems and all(v <= LIMIT for v in worst.values())
    diffs = " ".join(f"{col}={v:.2e}" for col, v in worst.items())
    verdict = "differ" if problems else "reported" if info else "equal"
    print(f"{'ok  ' if ok else 'FAIL'} {rel}: {what} {verdict}; max rel diff {diffs}")
    for p in problems[:10] + info:
        print(f"     {p}")
    if notes_a != notes_b:
        print("     notes differ (informational):")
        for x, y in zip(notes_a, notes_b):
            if x != y:
                print(f"       {x!r} -> {y!r}")
    return ok


def report_files(root: Path) -> set[Path]:
    patterns = ("check_*.csv", "summary.txt", "diagnostics.txt", *POTENTIAL_FILES)
    return {p.relative_to(root) for pattern in patterns for p in root.rglob(pattern)}


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().split("\n\n")[2], file=sys.stderr)
        return 2
    old_root, new_root = Path(argv[1]), Path(argv[2])
    old_files, new_files = report_files(old_root), report_files(new_root)
    ok = bool(old_files)
    if not old_files:
        print(f"FAIL no reports under {old_root}")
    for rel in sorted(old_files ^ new_files):
        print(f"FAIL {rel}: only under {old_root if rel in old_files else new_root}")
        ok = False
    identical = 0
    for rel in sorted(old_files & new_files):
        old, new = old_root / rel, new_root / rel
        if old.read_bytes() == new.read_bytes():
            print(f"ok   {rel}: byte-identical")
            identical += 1
        else:
            ok &= compare_file(rel, old, new)
    print(f"{identical} of {len(old_files | new_files)} files byte-identical")
    print("reports agree" if ok else "reports differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
