#!/usr/bin/env python3
"""Benchmark this checkout against another revision in alternating pairs.

Usage: python scripts/bench_pairs.py [REV] [--workload W] [--pairs N]

REV (default HEAD) is any git revision of this repository.  Its whole tree
is extracted with `git archive` into a temporary directory:
`perfbench/run.py` puts its own checkout's `src/` first on the import path,
so PYTHONPATH cannot point it at another revision.  The run length and the
workloads are those of this checkout's `BENCHMARK.json` (`run_seconds`, and
every workload unless W names one).  For each workload, pair k
(k = 1..N, default 10) runs `perfbench/run.py --workload W --seed k
--seconds run_seconds --trace 0` once in each tree, each tree with its own
`perfbench/`; odd pairs run REV first, even pairs this checkout first, so
neither side always runs on a warmer host.  Each pair prints one line with
every end-to-end metric of both sides, in the order they ran.

For each workload and end-to-end metric the script prints REV's and this
checkout's median [lower quartile, upper quartile], the change of the
median, REV's quartile spread, and in how many pairs this checkout was
strictly better (by the metric's `better` direction; `—` when every pair
tied).  It then prints each side's failed operations.

Exit status 0 when every run printed a result, 1 when one did not, 2 when
REV cannot be extracted.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from compare_with import extract

ROOT = Path(__file__).resolve().parents[1]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One `perfbench/run.py` run in ``tree``: its JSON result, or None."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"  run in {tree} (seed {seed}) exited {done.returncode}: "
              f"{done.stderr.strip()[-300:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def summarize(metrics, pairs):
    """One row per end-to-end metric of ``metrics`` (BENCHMARK.json entries)
    over ``pairs``, a list of (REV values, change values) dicts keyed by
    metric name: (name, unit, REV quartiles, change quartiles, wins, ties),
    quartiles being (lower, median, upper)."""
    rows = []
    for m in metrics:
        name = m["name"]
        old = np.array([a[name] for a, _ in pairs], dtype=float)
        new = np.array([b[name] for _, b in pairs], dtype=float)
        better = new < old if m["better"] == "lower" else new > old
        rows.append((name, m["unit"], tuple(np.percentile(old, [25, 50, 75]).tolist()),
                     tuple(np.percentile(new, [25, 50, 75]).tolist()),
                     int(better.sum()), int((new == old).sum())))
    return rows


def pair_line(workload: str, seed: int, metrics, results) -> str:
    """Pair ``seed``'s line: each side of ``results`` (side -> metric values,
    in run order) with every end-to-end metric of ``metrics``."""
    return f"{workload} pair {seed}: " + "  ".join(
        f"{side} " + " ".join(f"{m['name']} {values[m['name']]:.4g}" for m in metrics)
        for side, values in results.items())


def format_table(rev: str, summaries) -> str:
    """A markdown table of ``summaries``, a list of (workload, pair count,
    ``summarize`` rows)."""
    out = [f"| workload | metric | {rev} | change | median change | {rev} IQR | change better |",
           "|---|---|---|---|---|---|---|"]
    for workload, count, rows in summaries:
        for name, unit, (o1, om, o3), (n1, nm, n3), wins, ties in rows:
            shift = f"{(nm - om) / om:+.1%}" if om else f"{nm - om:+.4g}"
            won = "—" if ties == count else f"{wins}/{count}"
            out.append(f"| {workload} | `{name}` | {om:.4g} [{o1:.4g}, {o3:.4g}] {unit} | "
                       f"{nm:.4g} [{n1:.4g}, {n3:.4g}] {unit} | {shift} | "
                       f"{o3 - o1:.4g} {unit} | {won} |")
    return "\n".join(out)


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD", help="git revision (default HEAD)")
    parser.add_argument("--workload", choices=names, help="one workload (default: every one)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    summaries, failed = [], []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tree = Path(tmp) / "rev"
        if not extract(args.rev, tree):
            return 2
        for workload in [args.workload] if args.workload else names:
            pairs, fails = [], {"rev": 0, "change": 0}
            for seed in range(1, args.pairs + 1):
                order = [("rev", tree), ("change", ROOT)]
                if seed % 2 == 0:
                    order.reverse()
                results = {side: run_once(path, workload, seed, seconds)
                           for side, path in order}
                if None in results.values():
                    return 1
                for side, result in results.items():
                    fails[side] += result["failed"]
                values = {side: {k: v["value"] for k, v in result["metrics"].items()}
                          for side, result in results.items()}
                pairs.append((values["rev"], values["change"]))
                print(pair_line(workload, seed, metrics, values), flush=True)
            summaries.append((workload, len(pairs), summarize(metrics, pairs)))
            failed.append(f"{workload}: {args.rev} {fails['rev']}, change {fails['change']}")
    print(f"\n{args.pairs} pairs per workload at --seconds {seconds:g}, median [quartiles]:")
    print(format_table(args.rev, summaries))
    print("failed operations: " + "; ".join(failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
