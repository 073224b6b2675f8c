#!/usr/bin/env python3
"""Compare this checkout's reports with those of another revision.

Usage: python scripts/compare_with.py [REV]

REV (default HEAD) is any git revision of this repository.  Its `src/` is
extracted with `git archive` into a temporary directory.  This checkout's
`scripts/run_standard_suite.py` then runs once on each `src/` (REV's and
this checkout's, chosen by PYTHONPATH), at the default seed and at
`--seed 7`, and `scripts/compare_reports.py` compares each pair of report
trees.  For each pair the script prints the comparison's line of every
file whose bytes differ, with its detail lines, then the two verdict lines
(the count of byte-identical files and `reports agree` or `reports
differ`), and it deletes its temporary files.

Exit status 0 when both pairs read `reports agree`, 1 otherwise, 2 when
REV cannot be extracted.
"""

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (("default seed", []), ("--seed 7", ["--seed", "7"]))


def extract(rev: str, dest: Path, *paths: str) -> bool:
    """Extract ``paths`` (default: the whole tree) of git revision ``rev``
    into ``dest``; False, with an error line, when git cannot."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *paths],
                             capture_output=True)
    if archive.returncode != 0:
        print(f"error: cannot extract {' '.join(paths) or 'the tree'} of {rev}: "
              f"{archive.stderr.decode().strip()}", file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return True


def run_suite(src: Path, seed: list, out: Path) -> None:
    """The standard suite on the package under ``src``, reports to ``out``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_standard_suite.py"),
                           *seed, str(out)], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"     note: the suite on {src} exited {done.returncode}")


def report_lines(output: str) -> list[str]:
    """The lines of a ``compare_reports.py`` output that name a change: all
    but the byte-identical files' lines, so every file whose bytes differ and
    the two closing verdict lines."""
    return [line for line in output.strip().splitlines()
            if not line.endswith(": byte-identical")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare reports with another revision")
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default HEAD)")
    args = parser.parse_args(argv)
    ok = True
    with tempfile.TemporaryDirectory(prefix="compare_with_") as tmp:
        tmp = Path(tmp)
        if not extract(args.rev, tmp / "rev", "src"):
            return 2
        for label, seed in SEEDS:
            old, new = tmp / label / "old", tmp / label / "new"
            run_suite(tmp / "rev" / "src", seed, old)
            run_suite(ROOT / "src", seed, new)
            done = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_reports.py"),
                                   str(old), str(new)], capture_output=True, text=True)
            print(f"{label} ({args.rev} -> this checkout):")
            for line in report_lines(done.stdout):
                print(f"  {line}")
            ok &= done.returncode == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
