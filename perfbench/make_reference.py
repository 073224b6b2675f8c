"""Write reference.json: the reports of every workload at the current code.

    python3 perfbench/make_reference.py

Run it only at a commit whose reports are the reference: the benchmark's
correctness gate compares every later run against this file.  It stores
each check's verdict, row count, drift and max_ratio, and the SHA-256 of
each report file; for dirac-estimates one entry per sample seed.
"""

from __future__ import annotations

import json
import os
import subprocess

from run import SINGLE_THREAD


def record(workload, state, seed: int, outdir) -> dict:
    from workloads import parse_summary, report_digests

    error = workload.run(state, seed, outdir)
    if error is not None:
        raise SystemExit(f"{workload.name}: {error}")
    summary = parse_summary(outdir / "summary.txt")
    if not all(entry and entry["passed"] for entry in summary.values()):
        raise SystemExit(f"{workload.name} seed {seed}: a check failed: {summary}")
    return {"checks": summary, "digests": report_digests(outdir, list(summary))}


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                            check=True).stdout.strip()
    os.environ.update(SINGLE_THREAD)  # before numpy is imported, as in run.py
    from workloads import OUT, REFERENCE, SAMPLE_SEEDS, WORKLOADS, EstimateWorkload

    ref = {"commit": commit, "workloads": {}}
    for workload in WORKLOADS.values():
        outdir = OUT / "reference" / workload.name
        outdir.mkdir(parents=True, exist_ok=True)
        state, _ = workload.prepare(0, outdir)
        seeds = range(SAMPLE_SEEDS) if isinstance(workload, EstimateWorkload) else [0]
        ref["workloads"][workload.name] = {
            workload.reference_key(seed): record(workload, state, seed, outdir)
            for seed in seeds
        }
        print(f"{workload.name}: {len(seeds)} reference entries", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
