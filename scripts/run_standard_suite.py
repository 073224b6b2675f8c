#!/usr/bin/env python3
"""Run `potlab verify` and `potlab solve` on every shipped config, and
`potlab potential` on each one with a `[measure]` section.

Usage: python scripts/run_standard_suite.py [--seed N] OUT

Each config's reports go to OUT/<config name>/ in the layout that
`potlab verify --out` writes (`check_*.csv` and `summary.txt`), next to
the `solution.txt` and `diagnostics.txt` of `potlab solve --out` and the
`wolff.csv` and `maximal.csv` of `potlab potential --out`, so two suite
runs, solver counters included, compare in one command:

    python scripts/compare_reports.py OLD NEW

Each config's `== name` line is followed by the verify, solve and
potential output and the config's wall seconds.  Without --seed `potlab
verify` and `potlab potential` draw from their default seed.  Exit status
1 when a check fails or a config cannot run, 2 on a usage error, else 0.
"""

import argparse
import sys
import time
from pathlib import Path

from potlab.harness import load_config
from potlab.harness.cli import main as potlab

CONFIGS = Path(__file__).parents[1] / "configs"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="potlab verify on every shipped config")
    parser.add_argument("--seed", type=int, default=None, help="sample-point seed for every config")
    parser.add_argument("out", type=Path, help="directory of the per-config report trees")
    args = parser.parse_args(argv)
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    ok = True
    for path in sorted(CONFIGS.glob("*.ini")):
        print(f"== {path.name}")
        t0 = time.perf_counter()
        where = ["--config", str(path), "--out", str(args.out / path.stem)]
        ok &= potlab(["verify", *where, *seed]) == 0
        ok &= potlab(["solve", *where]) == 0
        if load_config(path).measure:
            ok &= potlab(["potential", *where, *seed]) == 0
        print(f"wall {time.perf_counter() - t0:.2f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
