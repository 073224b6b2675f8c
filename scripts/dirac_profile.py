#!/usr/bin/env python3
"""Radial study of the centered-atom instance.

Solves the measure-data problem at the finest usable mollification level,
then writes a CSV comparing |Du|(r) with the radial flux identity
g(|Du|) * 2 pi r = mass, for growth exponents p = 2 and p = 4.

Usage: python scripts/dirac_profile.py [n] [outfile]
"""

import sys
from pathlib import Path

import numpy as np

from potlab.field import VectorField, constant_coefficient
from potlab.grid import Grid2D, GridFunction, MeasureData, gradient
from potlab.orlicz import PowerGrowth
from potlab.potentials import radial_potential_profile
from potlab.solver import (
    ObstacleProblem,
    SolverConfig,
    finest_level,
    mollify_measure,
    solve_equation,
)


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 128
    out = Path(sys.argv[2]) if len(sys.argv) > 2 else Path("out/dirac_profile.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    grid = Grid2D(n)
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    f = mollify_measure(mu, finest_level(grid), grid)
    rows = []
    for p in (2.0, 4.0):
        growth = PowerGrowth(p)
        trace = GridFunction.from_callable(
            grid,
            lambda X, Y: radial_potential_profile(growth, 1.0, np.hypot(X - 0.5, Y - 0.5)),
        )
        prob = ObstacleProblem(
            field=VectorField(growth, constant_coefficient(1.0)),
            boundary=trace, rhs=f,
        )
        sol = solve_equation(prob, SolverConfig(tol=1e-8))
        gx, gy = gradient(sol.u)
        mag = np.hypot(gx.values, gy.values)
        R = np.hypot(grid.X - 0.5, grid.Y - 0.5)
        for r in np.linspace(0.08, 0.45, 20):
            band = np.abs(R - r) <= grid.h / 2
            got = float(mag[band].mean())
            want = float(growth.g_inverse(1.0 / (2 * np.pi * r)))
            rows.append((p, r, got, want, abs(got - want) / want))
        print(f"p={p}: solved in {sol.iterations} iterations,"
              f" worst flux mismatch {max(e for q, _, _, _, e in rows if q == p):.3%}")
    with open(out, "w") as fh:
        fh.write("p,r,grad_magnitude,flux_identity,rel_error\n")
        for p, r, got, want, err in rows:
            fh.write(f"{p:g},{r:.6g},{got:.8g},{want:.8g},{err:.3e}\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
