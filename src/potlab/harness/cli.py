"""Command-line interface.

Subcommands: ``solve`` (the solution that ``verify`` checks, raster +
diagnostics, with the mollification level when the measure has atoms),
``potential`` (batch Wolff evaluation, CSV), ``verify`` (run
the config's check list, each check over the ``[sweep]`` cells it crosses
through ``config.cells``, one report set gated on the drift across those
cells).  ``solve`` and ``potential`` realize the config on its finest
``[sweep] n`` mesh, so ``solve`` writes a solution that ``verify`` checks.
Each subcommand takes only the flags it reads.
Exit codes: 0 all checks pass, 1 check failure or bad data, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..errors import PotlabError
from ..grid import ball_mass, write_raster
from ..potentials import WolffParams, frac_maximal, wolff, write_potential_csv
from ..solver import finest_level
from .checks import (
    DEFAULT_SEED,
    SolveCache,
    primary_solution,
    run_checks,
    sample_points,
    write_check_csv,
    write_summary,
)
from .config import build_instance, load_config

__all__ = ["main", "console_entry"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potlab",
        description="obstacle problems with Orlicz growth: solves, potentials, estimate checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    solve, potential, verify = (sub.add_parser(name) for name in ("solve", "potential", "verify"))
    for p, fn in ((solve, cmd_solve), (potential, cmd_potential), (verify, cmd_verify)):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(fn=fn)
    for p in (potential, verify):
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                       help=f"sample-point seed, at least 0 (default {DEFAULT_SEED})")
    # perfbench/workloads.py passes --jobs 1, so the flag still parses
    verify.add_argument("--jobs", type=int, choices=[1], default=1,
                        help="checks run one at a time: only 1")
    return parser


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer of at least 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {seed}")
    return seed


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    out = _outdir(args)
    inst = build_instance(cfg, max(cfg.sweep_axis("n")))
    sol = primary_solution(SolveCache(), inst)
    write_raster(out / "solution.txt", sol.u)
    with open(out / "diagnostics.txt", "w") as fh:
        # only atoms are mollified: a density is solved as it is
        if inst.measure is not None and inst.measure.atoms:
            fh.write(f"mollification_level {finest_level(inst.grid)}\n")
        fh.write(f"iterations {sol.iterations}\n")
        fh.write(f"energy {sol.energy:.12g}\n")
        fh.write(f"complementarity {sol.complementarity:.12g}\n")
        fh.write(f"residual {sol.residual_history[-1]:.12g}\n")
        fh.write(f"factorizations {sol.factorizations}\n")
        fh.write(f"krylov_iterations {sol.krylov_iterations}\n")
        fh.write(f"lu_nnz {sol.lu_nnz}\n")
    print(f"solved in {sol.iterations} iterations; wrote {out / 'solution.txt'}")
    return 0


def cmd_potential(args) -> int:
    cfg = load_config(args.config)
    out = _outdir(args)
    inst = build_instance(cfg, max(cfg.sweep_axis("n")))
    if inst.measure is None:
        print("config carries no measure; nothing to evaluate", file=sys.stderr)
        return 1
    rng = np.random.default_rng([args.seed, 97])
    ig = inst.growth.ig
    R = 0.25
    r_min = inst.grid.r_min
    wp = WolffParams(1.0 / (ig + 1.0), ig + 1.0, R, r_min=r_min)
    pts = sample_points(rng, 64, R + r_min, 1.0 - R - r_min)
    wolff_rows, maximal_rows = [], []
    for x in pts:
        # mass below the cutoff makes both values lower bounds
        truncated = ball_mass(inst.measure, x, r_min) > 0
        wolff_rows.append((x[0], x[1], wolff(inst.measure, x, wp), truncated))
        mval = frac_maximal(inst.measure, x, 0.0, R, r_min=r_min)
        maximal_rows.append((x[0], x[1], mval, truncated))
    write_potential_csv(out / "wolff.csv", wolff_rows)
    write_potential_csv(out / "maximal.csv", maximal_rows)
    print(f"wrote {out / 'wolff.csv'} and {out / 'maximal.csv'} ({len(pts)} points)")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    out = _outdir(args)
    reports = run_checks(cfg, seed=args.seed)
    for rep in reports:
        write_check_csv(out / f"check_{rep.name}.csv", rep)
    write_summary(out / "summary.txt", reports)
    ok = all(r.passed for r in reports)
    print(f"verify: {'all checks passed' if ok else 'CHECK FAILURES'}; reports in {out}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except PotlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
