#!/usr/bin/env python3
"""How the solver's work grows with the mesh on the p = 3 contact solve.

Usage: python scripts/solver_scaling.py

Solves the problem of `configs/contact.ini` (p = 3, obstacle
0.2 - 1.5 |x - (0.5, 0.5)|^2, zero trace, tol 1e-8) once at each of
n = 64, 128 and 256, and prints one row per n: the fine-level Newton
steps, the sparse LU factorizations, the CG iterations and the L + U
nonzeros of all continuation levels (the solver's own `Solution`
counters), the wall
seconds of the solve and the peak RSS of the process.  Each n runs in a
fresh worker process, so each row's peak RSS belongs to its n alone
(interpreter and imports included).
"""

import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from potlab.field import VectorField, constant_coefficient
from potlab.grid import Grid2D, GridFunction
from potlab.orlicz import PowerGrowth
from potlab.solver import ObstacleProblem, SolverConfig, solve_vi

SIZES = (64, 128, 256)


def solve_once(n):
    grid = Grid2D(n)
    prob = ObstacleProblem(
        field=VectorField(PowerGrowth(3.0), constant_coefficient(1.0)),
        boundary=GridFunction.constant(grid, 0.0),
        obstacle=GridFunction.from_callable(
            grid, lambda X, Y: 0.2 - 1.5 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)
        ),
    )
    t0 = time.perf_counter()
    sol = solve_vi(prob, SolverConfig(tol=1e-8, epsilon=1e-8))
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return sol.iterations, sol.factorizations, sol.krylov_iterations, sol.lu_nnz, wall, rss_mb


def main() -> int:
    print(f"{'n':>5} {'newton':>7} {'LUs':>5} {'CG iters':>9} {'LU nnz':>10} {'wall s':>8} "
          f"{'peak RSS MB':>12}")
    for n in SIZES:
        with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
            steps, lus, cg, nnz, wall, rss = pool.submit(solve_once, n).result()
        print(f"{n:>5} {steps:>7} {lus:>5} {cg:>9} {nnz:>10} {wall:>8.2f} {rss:>12.0f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
