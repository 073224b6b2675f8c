"""potlab benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload contact-verify --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run sets the workload up several
times (a fresh interpreter importing potlab and loading the config, plus
the workload's own set-up) and reports the median, then repeats the
timed phase until ``--seconds`` would be exceeded and reports the mean
repetition.  Every repetition is checked against the stored seed-commit
reference (``reference.json``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, writes the spans to
``.bench_out/trace-<workload>-seed<n>.jsonl`` and prints the per-layer
metrics.  Every metric is printed by name with its unit; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# one process, no extra threads: numpy's BLAS runs on the calling thread
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# set-ups per run; setup_s is their median
SETUP_REPS = 3

# a fresh interpreter importing potlab and loading one config
IMPORT_SNIPPET = (
    "import sys; sys.path.insert(0, 'src'); "
    "from potlab.harness import load_config; load_config(sys.argv[1])"
)


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_environment(workload, seed: int, reference_commit: str) -> None:
    import numpy
    import scipy

    print(f"# workload {workload.name} (configs/{workload.config})")
    print(f"# seed {seed} sample_seed {workload.sample_seed(seed)}")
    print(f"# nproc {os.cpu_count()} cpu {_cpu_model()}")
    print(f"# python {platform.python_version()} numpy {numpy.__version__} "
          f"scipy {scipy.__version__}")
    print(f"# commit {_git_commit()} reference_commit {reference_commit}")


def set_up(workload, seed: int, outdir: Path):
    """One set-up: a fresh interpreter importing potlab and loading the
    config, then the workload's in-process set-up.  Returns (seconds, state)."""
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(workload.config_path)],
                   cwd=ROOT, check=True, timeout=120)
    state, not_setup_s = workload.prepare(seed, outdir)
    return time.perf_counter() - t0 - not_setup_s, state


def timed_step(workload, state, seed: int, outdir: Path, reference):
    """One repetition of the timed phase and its gate."""
    from workloads import gate

    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        error = workload.run(state, seed, outdir)
    except Exception as exc:  # a crash fails every check of the repetition
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    failures, identical = gate(reference, outdir, error)
    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    return wall, failures, identical


def declared_metrics(key: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "potlab" / "__init__.py", ROOT / "configs", BENCH / "reference.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: run from a potlab checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    os.environ.update(SINGLE_THREAD)  # before numpy is imported
    import workloads  # first: it puts src/ on the import path
    import spans

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(workloads.REFERENCE) as fh:
        stored = json.load(fh)
    reference_commit = stored["commit"]
    reference = stored["workloads"][workload.name][workload.reference_key(args.seed)]
    outdir = workloads.OUT / workload.name
    print_environment(workload, args.seed, reference_commit)

    cache_classes = (workloads.checks.SolveCache, workloads.SolverResultCache)
    metrics: dict = {}
    if args.trace:
        setup_tracer = spans.Tracer()
        setup_tracer.install(cache_classes)
        try:
            _, state = set_up(workload, args.seed, outdir)
        finally:
            setup_tracer.restore()
        for name, value in spans.layer_metrics(setup_tracer, 1, "setup.").items():
            if name.startswith("setup.solver.") and name.split(".")[-1] in (
                    "calls", "iters", "self_s"):
                metrics[name] = value
    else:
        setups = []
        for _ in range(SETUP_REPS):
            seconds, state = set_up(workload, args.seed, outdir)
            setups.append(seconds)

    tracer = spans.Tracer()
    walls = {False: [], True: []}
    attempted = failed = 0
    identical = []
    start = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install(cache_classes)
        try:
            wall, failures, same = timed_step(workload, state, args.seed, outdir, reference)
        finally:
            tracer.restore()
        walls[traced].append(wall)
        if len(walls[False]) + len(walls[True]) == 1:
            # after set-up and one repetition, so the figure does not grow
            # with the number of repetitions that fit in --seconds
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted += len(reference["checks"])
        failed += len(failures)
        if traced:
            identical.append(same)
        every = walls[False] + walls[True]
        done = bool(walls[False]) and (bool(walls[True]) or not args.trace)
        if done and time.perf_counter() - start + statistics.median(every) > args.seconds:
            break
        traced = bool(args.trace) and not traced

    if args.trace:
        tracer.write(workloads.OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
        reps = len(walls[True])
        metrics.update(spans.layer_metrics(tracer, reps))
        traced_wall = statistics.fmean(walls[True])
        untraced_wall = statistics.fmean(walls[False])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace_overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["harness.reports_identical"] = (min(identical), "count")
        metrics["harness.reports_checked"] = (len(reference["digests"]), "count")
        if workload.name == "dirac-estimates" and metrics["solver.calls"][0] != 0:
            print("FAILED the timed phase made solver calls", file=sys.stderr)
            failed += 1
        expected = declared_metrics("per_layer")
    else:
        # the mean: on a shared machine it spreads less from run to run
        # than the median of the few repetitions that fit in --seconds
        metrics["wall_s"] = (statistics.fmean(walls[False]), "s")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        metrics["pass_share"] = ((attempted - failed) / attempted, "share")
        expected = declared_metrics("end_to_end")

    if sorted(metrics) != sorted(expected):
        print(f"error: metrics {sorted(set(metrics) ^ set(expected))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    every = walls[False] + walls[True]
    print(f"# repetitions {len(walls[False])} untraced, {len(walls[True])} traced; "
          f"walls {' '.join(f'{w:.3f}' for w in every)}")
    for name in expected:
        value, unit = metrics[name]
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in expected},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
