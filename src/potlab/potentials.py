"""Wolff potentials and restricted maximal operators.

Each potential takes the paper's arguments: a measure, a point, two
exponents and a radius.  All radial objects share one log-spaced radius
ladder (24 radii per decade) from an inner cutoff to R: the continuum
limit rho -> 0 is not resolvable on a grid, and keeping the same
truncation on both sides of every inequality preserves ratio-based
verification.  ``_cutoff`` decides every ladder's cutoff: a given r_min,
else the 2h floor of the data's grid (atoms alone need an r_min).  The
maximal operators read each ball's node values with the snapped-centre
rule of ``ball_nodes``.  ``PointLadder.gather`` takes a mesh's whole list
of points and makes one gather per (mesh, radius): the balls of one radius
about every snapped centre are one (points, nodes) table, and every
per-ball statistic (the oscillation of u, the mean of |Du|, the vector
excess of Du, the mean of the obstacle kernel) is a row-wise reduction of
it, so each exponent costs only a sup over a point's stored ladder.  A
``WolffLadder`` likewise takes a measure's masses for the whole ladder in
one batched call, with breakpoints at the exact atom distances so the mass
jumps of Dirac measures do not contaminate the log-trapezoid rule; every
(beta, p) reads the same gather.  ``obstacle_kernel`` is the density of a
measure without atoms, whose potential is the same ladder of its masses.
The radial potential of a centered source (the exact solution the
``fundamental`` boundary preset and the radial scripts use) lives here too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, RangeError
from .grid import (
    GridFunction,
    MeasureData,
    ball_center,
    ball_masses,
    ball_nodes,
    ball_offsets,
    gradient,
    hessian,
)
from .orlicz import N_DIM, GrowthFunction, PowerGrowth

__all__ = [
    "WolffLadder",
    "obstacle_kernel",
    "wolff",
    "wolff_psi",
    "frac_maximal",
    "sharp_maximal",
    "sharp_maximal_vector",
    "vector_excess",
    "obstacle_maximal",
    "PointLadder",
    "radius_ladder",
    "radial_potential_profile",
    "write_potential_csv",
]


def _check_wolff_exponents(beta: float, p: float) -> None:
    if not (0.0 < beta <= N_DIM) or p <= 1.0:
        raise DataError(f"Wolff exponents need beta in (0, n] and p > 1, got {beta:g}, {p:g}")


@functools.lru_cache(maxsize=256)
def radius_ladder(r_min: float, R: float, per_decade: int = 24) -> np.ndarray:
    """Log-spaced radii including both endpoints exactly; read-only, as
    every caller with the same arguments shares the array."""
    if R <= r_min:
        raise RangeError(f"ladder needs R > r_min (got R={R:g}, r_min={r_min:g})")
    count = max(2, int(np.ceil(np.log10(R / r_min) * per_decade)) + 1)
    ladder = np.geomspace(r_min, R, count)
    ladder[0], ladder[-1] = r_min, R
    ladder.flags.writeable = False
    return ladder


def obstacle_kernel(psi: GridFunction, growth: GrowthFunction) -> GridFunction:
    """g(|Dpsi|)/|Dpsi| |D^2 psi| + 1, |D^2 psi| the entrywise l1 norm of the
    Hessian: at least 1, as the growth kernel and the norm are nonnegative."""
    gx, gy = gradient(psi)
    hxx, hxy, hyy = hessian(psi)
    hess_l1 = np.abs(hxx.values) + np.abs(hyy.values) + 2.0 * np.abs(hxy.values)
    return psi.with_values(growth.kernel(np.hypot(gx.values, gy.values)) * hess_l1 + 1.0)


def _cutoff(r_min: float | None, grid) -> float:
    """The inner cutoff of a ladder: ``r_min`` when given, else the 2h floor
    of ``grid``, the grid the data live on (None for atoms alone)."""
    if r_min is None:
        if grid is None:
            raise DataError("need either a grid (for the 2h cutoff) or an explicit r_min")
        return grid.r_min
    if r_min <= 0:
        raise DataError(f"r_min must be positive, got {r_min:g}")
    return r_min


@dataclass(frozen=True)
class WolffLadder:
    """One measure's masses of B_rho(x) for every rho of ``radius_ladder(r_min,
    R)``, broken at each atom distance in (r_min, R).  The masses do not
    depend on (beta, p), so every potential of x reads one gather."""

    radii: np.ndarray
    masses: np.ndarray  # |mu| of the closed ball

    @classmethod
    def gather(cls, mu: MeasureData, x, r_min: float, R: float) -> "WolffLadder":
        radii = radius_ladder(r_min, R)
        extra = []
        for ax, ay, _ in mu.atoms:
            d = float(np.hypot(ax - x[0], ay - x[1]))
            if r_min < d < R:
                extra.extend([d * (1.0 - 1e-9), d])
        if extra:
            radii = np.unique(np.concatenate([radii, np.asarray(extra)]))
        return cls(radii, ball_masses(mu, x, radii))

    @functools.cached_property
    def _log_steps(self) -> np.ndarray:
        return np.diff(np.log(self.radii))

    def potential(self, beta: float, p: float) -> float:
        """W_{beta,p}(x, R): ``np.trapezoid``'s log-trapezoid rule of
        (mass(rho) / rho^(n - beta p))^(1/(p-1)), log steps taken once."""
        _check_wolff_exponents(beta, p)
        y = (self.masses / self.radii ** (N_DIM - beta * p)) ** (1.0 / (p - 1.0))
        return float((self._log_steps * (y[1:] + y[:-1]) / 2.0).sum())


def wolff(mu: MeasureData, x, beta: float, p: float, R: float, *,
          r_min: float | None = None) -> float:
    """W^mu_{beta,p}(x, R) over [r_min, R]: the potential of x's ``WolffLadder``."""
    grid = mu.density.grid if mu.density is not None else None
    return WolffLadder.gather(mu, x, _cutoff(r_min, grid), R).potential(beta, p)


def wolff_psi(kernel: GridFunction, x, beta: float, p: float, R: float, *,
              r_min: float | None = None) -> float:
    """``wolff`` of the measure whose density is the obstacle kernel."""
    return wolff(MeasureData([], kernel), x, beta, p, R, r_min=r_min)


def _ladder_for(R: float, r_min: float | None, grid) -> np.ndarray:
    r_min = _cutoff(r_min, grid)
    if R < r_min:
        raise RangeError(f"maximal-operator radius {R:g} below the cutoff {r_min:g}")
    if R == r_min:
        return np.array([R])
    return radius_ladder(r_min, R)


def _check_exponent(name: str, value: float) -> None:
    if not (0.0 <= value <= N_DIM):
        raise DataError(f"{name} must lie in [0, n]")


# The per-ball statistics and the ladder sups below are the one formula of
# each maximal operator: the single-point operators and ``PointLadder``
# both call them, with scalar powers of the np.float64 radii in ladder
# order, so the two give bitwise equal values.  A statistic reduces the
# last axis, one ball's node values: numpy sums each contiguous row of a
# (points, nodes) table with the same pairwise rule as a single ball's
# 1-D values, so a row of a batch is bitwise that ball alone.

def _oscillation(vals: np.ndarray):
    """Mean oscillation of a ball's node values about their mean."""
    return np.abs(vals - vals.mean(axis=-1, keepdims=True)).mean(axis=-1)


def _abs_mean(vals: np.ndarray):
    """Mean of |f| over a ball's node values."""
    return np.abs(vals).mean(axis=-1)


def _vector_oscillation(vx: np.ndarray, vy: np.ndarray):
    """Mean euclidean distance of a ball's vectors to their componentwise means."""
    return np.hypot(vx - vx.mean(axis=-1, keepdims=True),
                    vy - vy.mean(axis=-1, keepdims=True)).mean(axis=-1)


def _sup(radii, power: float, stats) -> float:
    """sup over the ladder of rho^power times a per-ball statistic."""
    return float(max(rho**power * s for rho, s in zip(radii, stats)))


def _mass_sup(radii, power: float, masses) -> float:
    """sup over the ladder of rho^power times mass / |B_rho|."""
    return float(max(rho**power * m / (np.pi * rho**2) for rho, m in zip(radii, masses)))


def frac_maximal(obj, x, beta: float, R: float, *, r_min: float | None = None) -> float:
    """Restricted fractional maximal function: sup over the ladder of
    rho^beta times the ball average of |f| (functions) or mass/|B_rho|
    (measures)."""
    _check_exponent("beta", beta)
    if isinstance(obj, MeasureData):
        grid = obj.density.grid if obj.density is not None else None
        radii = _ladder_for(R, r_min, grid)
        return _mass_sup(radii, beta, ball_masses(obj, x, radii))
    f: GridFunction = obj
    radii = _ladder_for(R, r_min, f.grid)
    return _sup(radii, beta, [_abs_mean(f.values[ball_nodes(f.grid, x, rho)]) for rho in radii])


def sharp_maximal(f: GridFunction, x, alpha: float, R: float, *,
                  r_min: float | None = None) -> float:
    """Restricted sharp maximal function: sup of rho^(-alpha) times the
    mean oscillation of f over B_rho(x)."""
    _check_exponent("alpha", alpha)
    radii = _ladder_for(R, r_min, f.grid)
    return _sup(radii, -alpha,
                [_oscillation(f.values[ball_nodes(f.grid, x, rho)]) for rho in radii])


def vector_excess(fx: GridFunction, fy: GridFunction, center, radius: float) -> float:
    """Mean oscillation of a vector field over a ball: the mean euclidean
    distance to the componentwise ball means."""
    ii, jj = ball_nodes(fx.grid, center, radius)
    return float(_vector_oscillation(fx.values[ii, jj], fy.values[ii, jj]))


def sharp_maximal_vector(components, x, alpha: float, R: float, *,
                         r_min: float | None = None) -> float:
    """Sharp maximal function of a vector field (oscillation by
    ``vector_excess``)."""
    fx, fy = components
    _check_exponent("alpha", alpha)
    radii = _ladder_for(R, r_min, fx.grid)
    return _sup(radii, -alpha, [vector_excess(fx, fy, x, rho) for rho in radii])


def obstacle_maximal(kernel: GridFunction, x, beta: float, R: float, *,
                     r_min: float | None = None) -> float:
    """sup of rho^beta times the ball average of the obstacle kernel (which
    is >= 1, so this is its fractional maximal function)."""
    return frac_maximal(kernel, x, beta, R, r_min=r_min)


@dataclass(frozen=True)
class PointLadder:
    """Every per-ball statistic the maximal operators read at one point x,
    for each radius of ``radius_ladder(grid.r_min, R)``.

    ``gather`` builds the ladders of a mesh's points together: each ball
    B_rho(x) is a row of one gather per radius, every field statistic
    reads the same rows, and the measure's masses come from one
    ``ball_masses`` call per point.  The statistics do not depend on the
    exponent, so each maximal operator at each exponent is only a sup over
    the stored ladder, bitwise equal to the single-point operator of the
    same name.  The top ball is B_R(x) itself, so ``du_mean[-1]`` is
    avg_{B_R}|Du|.  A zero kernel or the zero measure gives zero columns,
    whose maximal operators read 0.0.
    """

    radii: np.ndarray
    u_oscillation: np.ndarray  # mean oscillation of u
    du_mean: np.ndarray  # mean of |Du|
    du_excess: np.ndarray  # vector_excess of (Du_x, Du_y)
    kernel_mean: np.ndarray  # mean of the obstacle kernel
    masses: np.ndarray  # |mu| of the closed ball

    @classmethod
    def gather(cls, u: GridFunction, du, du_mag: GridFunction, points, R: float, *,
               kernel: GridFunction, measure: MeasureData) -> list["PointLadder"]:
        """The ladder of each of ``points``, in order, for u, its gradient
        ``du = (Du_x, Du_y)``, ``du_mag = |Du|``, the obstacle kernel and the
        measure.  A point whose ball B_R exits the domain is a
        ``DomainError`` naming it."""
        grid = u.grid
        radii = _ladder_for(R, None, grid)
        # the top ball inside the domain puts every smaller one inside too
        centers = np.array([ball_center(grid, x, R) for x in points])
        ix, iy = centers[:, :1], centers[:, 1:]
        du_x, du_y = (c.values for c in du)
        stats = np.empty((4, len(points), radii.size))
        for k, rho in enumerate(radii):
            di, dj = ball_offsets(rho / grid.h)
            ii, jj = ix + di, iy + dj
            stats[:, :, k] = (
                _oscillation(u.values[ii, jj]),
                _abs_mean(du_mag.values[ii, jj]),
                _vector_oscillation(du_x[ii, jj], du_y[ii, jj]),
                _abs_mean(kernel.values[ii, jj]),
            )
        stats.flags.writeable = False
        return [cls(radii, *stats[:, p], masses=ball_masses(measure, x, radii))
                for p, x in enumerate(points)]

    def sharp_maximal(self, alpha: float) -> float:
        """``sharp_maximal(u, x, alpha, R)``."""
        _check_exponent("alpha", alpha)
        return _sup(self.radii, -alpha, self.u_oscillation)

    def frac_maximal(self, beta: float) -> float:
        """``frac_maximal(|Du|, x, beta, R)``."""
        _check_exponent("beta", beta)
        return _sup(self.radii, beta, self.du_mean)

    def sharp_maximal_vector(self, alpha: float) -> float:
        """``sharp_maximal_vector((Du_x, Du_y), x, alpha, R)``."""
        _check_exponent("alpha", alpha)
        return _sup(self.radii, -alpha, self.du_excess)

    def obstacle_maximal(self, beta: float) -> float:
        """``obstacle_maximal(kernel, x, beta, R)``."""
        _check_exponent("beta", beta)
        return _sup(self.radii, beta, self.kernel_mean)

    def measure_maximal(self, beta: float) -> float:
        """``frac_maximal(mu, x, beta, R, r_min=grid.r_min)``."""
        _check_exponent("beta", beta)
        return _mass_sup(self.radii, beta, self.masses)


def radial_potential_profile(growth: GrowthFunction, mass: float, r, *, c0: float = 1.0):
    """Radial potential with unit flux balance: u(r) = c0 - int_1^r
    g^{-1}(mass / (2 pi s)) ds, the field a centered source generates.

    Power growths integrate in closed form; general growths use a dense
    cumulative quadrature.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DataError("radial profile needs positive radii")
    if isinstance(growth, PowerGrowth):
        p = growth.p
        A = (mass / (2 * np.pi)) ** (1.0 / (p - 1.0))
        if p == 2.0:
            return c0 - A * np.log(r)
        kappa = (p - 2.0) / (p - 1.0)
        return c0 - A * (r**kappa - 1.0) / kappa
    lo = min(float(r.min()), 1.0) / 2.0
    hi = max(float(r.max()), 1.0) * 2.0
    s = np.geomspace(lo, hi, 4096)
    integrand = growth.g_inverse(mass / (2 * np.pi * s))
    trapezoids = np.diff(s) * (integrand[1:] + integrand[:-1]) / 2.0
    cum = np.concatenate([[0.0], np.cumsum(trapezoids)])
    at = np.interp(r, s, cum)
    at_ref = np.interp(1.0, s, cum)
    return c0 - (at - at_ref)


def write_potential_csv(path, rows) -> None:
    """Batch output: one (x, y, value, truncation_flag) row per point."""
    with open(path, "w") as fh:
        fh.write("x,y,value,truncation_flag\n")
        for x, y, value, flag in rows:
            fh.write(f"{x:.12g},{y:.12g},{value:.12g},{int(flag)}\n")
