"""The benchmark's workloads, their timed phase and their correctness gate.

Each workload has a set-up step (``prepare``) and a timed step (``run``)
that writes the same per-check CSVs and summary as ``potlab verify``.
``gate`` turns one timed step into one verdict per check, against the
stored seed-commit reference in ``reference.json``.
"""

from __future__ import annotations

import copy
import hashlib
import io
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A check's drift and max_ratio may move by this share of the reference
# before the check counts as failed.  Tightening the solver tolerance
# tenfold moves them by at most 8e-9 of their value on contact.ini and
# jump.ini, and by at most 1.4e-9 on dirac.ini (sample seeds 0, 1, 17).
REL_TOL = 1e-6
# dirac-estimates draws its sample points from seed mod SAMPLE_SEEDS; the
# reference holds every one of them
SAMPLE_SEEDS = 64
ESTIMATE_CHECKS = ("maximal_estimates", "gradient_bounds")

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from potlab.harness import checks, cli, load_config  # noqa: E402
from potlab.solver import ComparisonChain, OPSequence, Solution  # noqa: E402


class SolverResultCache(checks.SolveCache):
    """Keeps only solver results; every other value is rebuilt on each get,
    so the estimate post-processing (contexts included) runs every time.
    ``solve_s`` is the time spent building the kept results."""

    KEEP = (Solution, OPSequence, ComparisonChain)

    def __init__(self):
        super().__init__()
        self.solve_s = 0.0

    def get(self, key, builder):
        if key in self._store:
            return self._store[key]
        t0 = time.perf_counter()
        value = builder()
        if isinstance(value, self.KEEP):
            self.solve_s += time.perf_counter() - t0
            self._store[key] = value
        return value

    def __len__(self) -> int:
        return len(self._store)


@dataclass
class Workload:
    name: str
    config: str

    @property
    def config_path(self) -> Path:
        return CONFIGS / self.config

    def sample_seed(self, seed: int) -> int:
        return seed

    def reference_key(self, seed: int) -> str:
        """The verify checks draw no sample points: one reference."""
        return "any"

    def prepare(self, seed: int, outdir: Path):
        """The workload's set-up: (state, seconds of it that are not set-up
        work and are left out of setup_s)."""
        return load_config(self.config_path), 0.0

    def run(self, state, seed: int, outdir: Path) -> str | None:
        """One `potlab verify` in-process; returns an error text or None.
        Exit code 1 (a failed check) is left to the gate, which names it."""
        argv = ["verify", "--config", str(self.config_path), "--out", str(outdir),
                "--seed", str(seed), "--jobs", "1"]
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return None if code in (0, 1) else f"potlab verify exited with {code}"


class EstimateWorkload(Workload):
    """maximal_estimates and gradient_bounds of dirac.ini over a cache that
    the set-up filled with solver results."""

    def sample_seed(self, seed: int) -> int:
        return seed % SAMPLE_SEEDS

    def reference_key(self, seed: int) -> str:
        return str(self.sample_seed(seed))

    def prepare(self, seed: int, outdir: Path):
        """Fills the cache by running both checks once at a single sample
        point: the solves do not depend on the points, and the pass's
        post-processing is kept short.  Only the solves count as set-up;
        the post-processing is the timed phase's work, so it is left out
        of setup_s."""
        cfg = load_config(self.config_path)
        one_point = copy.copy(cfg)
        one_point.check_params = {**cfg.check_params, "points": 1}
        cache = SolverResultCache()
        t0 = time.perf_counter()
        run_estimates(one_point, cache, self.sample_seed(seed), outdir)
        return (cfg, cache), time.perf_counter() - t0 - cache.solve_s

    def run(self, state, seed: int, outdir: Path) -> str | None:
        cfg, cache = state
        solved = len(cache)
        run_estimates(cfg, cache, self.sample_seed(seed), outdir)
        if len(cache) != solved:
            return "the timed phase ran the solver"
        return None


def run_estimates(cfg, cache, sample_seed: int, outdir: Path) -> None:
    """Run the estimate checks as `run_checks` would inside `potlab verify`
    (same per-check generator), then write their CSVs and a summary."""
    reports = []
    for name in ESTIMATE_CHECKS:
        rng = np.random.default_rng([sample_seed, cfg.checks.index(name)])
        reports.append(checks.CHECKS[name](cfg, cache, rng))
    for rep in reports:
        checks.write_check_csv(outdir / f"check_{rep.name}.csv", rep)
    checks.write_summary(outdir / "summary.txt", reports)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("contact-verify", "contact.ini"),
        EstimateWorkload("dirac-estimates", "dirac.ini"),
    )
}


# ---------------------------------------------------------------------------
# correctness gate


def parse_summary(path: Path) -> dict:
    """check name -> {rows, max_ratio, drift, passed} from a summary file."""
    out = {}
    for line in path.read_text().splitlines()[1:]:
        if line.startswith(" "):
            continue  # a note
        tokens = line.split()
        if len(tokens) != 5:
            out[tokens[0]] = None  # a blank max_ratio or drift column
            continue
        name, rows, max_ratio, drift, verdict = tokens
        out[name] = {"rows": int(rows), "max_ratio": float(max_ratio),
                     "drift": float(drift), "passed": verdict == "ok"}
    return out


def report_digests(outdir: Path, names) -> dict:
    files = [f"check_{name}.csv" for name in names] + ["summary.txt"]
    return {f: hashlib.sha256((outdir / f).read_bytes()).hexdigest()
            for f in files if (outdir / f).exists()}


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref)


def gate(reference: dict, outdir: Path, error: str | None) -> tuple[list[str], int]:
    """Failure reasons of one timed step (one entry per failed check) and
    the number of reports byte-identical to the reference."""
    names = list(reference["checks"])
    if error is None and not (outdir / "summary.txt").exists():
        error = "no summary written"
    if error is not None:
        return [f"{name}: {error}" for name in names], 0
    got = parse_summary(outdir / "summary.txt")
    failures = []
    for name, ref in reference["checks"].items():
        cur = got.get(name)
        if cur is None:
            failures.append(f"{name}: missing from the summary or a blank column")
        elif not cur["passed"]:
            failures.append(f"{name}: check failed")
        elif cur["rows"] != ref["rows"]:
            failures.append(f"{name}: {cur['rows']} rows, reference {ref['rows']}")
        elif not (_close(cur["drift"], ref["drift"])
                  and _close(cur["max_ratio"], ref["max_ratio"])):
            failures.append(
                f"{name}: drift {cur['drift']!r} max_ratio {cur['max_ratio']!r} left "
                f"the reference ({ref['drift']!r}, {ref['max_ratio']!r}) by more than {REL_TOL}"
            )
    digests = report_digests(outdir, names)
    identical = sum(digests.get(f) == d for f, d in reference["digests"].items())
    return failures, identical
