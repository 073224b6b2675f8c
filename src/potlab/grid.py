"""Uniform 2D discretization: scalar fields, stencils, balls, and measures.

The domain is the unit square (the estimates are local: meshes vary, the
domain does not).  Nodes sit at cell centers of an n-by-n grid; the
outermost node ring doubles as the Dirichlet trace.  Ball queries snap
their center to the nearest node and reuse offset tables cached per
radius/h, so repeated ladder evaluations cost one fancy-indexing gather
per (center, radius).  Measure mass queries keep the exact center
(``disk_mask``): atoms and cut cells (node-center-in-disk) belong to a
disk by the same closed-ball rule as the offset tables.  They take a
whole radius ladder at once (``disk_integrals``, ``ball_masses``),
summing each disk over its own node box of one squared-distance table,
so every mass is bitwise the full-grid masked sum.  ``Grid2D`` states
the 2h resolution floor once (``r_min``, ``resolves``); every radius
filter and inner cutoff asks it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DomainError,
    GridMismatchError,
    ResolutionError,
)

__all__ = [
    "Grid2D",
    "GridFunction",
    "MeasureData",
    "gradient",
    "hessian",
    "ball_average",
    "ball_nodes",
    "ball_offsets",
    "disk_mask",
    "disk_integral",
    "disk_integrals",
    "ball_mass",
    "ball_masses",
    "median",
    "largest_median",
    "w11_distance",
    "write_raster",
    "read_raster",
]

_EPS = 1e-12


@dataclass
class Grid2D:
    """The unit square with n cells per axis and nodes at the cell centers."""

    n: int

    def __post_init__(self):
        if self.n < 16:
            raise DataError("grids need at least 16 cells per axis")
        self.h = 1.0 / self.n
        # the resolution floor: the smallest radius a ball query resolves
        self.r_min = 2.0 * self.h
        self.xs = self.ys = (np.arange(self.n) + 0.5) * self.h
        self.X, self.Y = np.meshgrid(self.xs, self.ys, indexing="ij")
        for arr in (self.xs, self.X, self.Y):
            arr.flags.writeable = False

    def resolves(self, radius: float) -> bool:
        """Whether a ball of this radius is at or above the 2h floor."""
        return radius >= self.r_min - _EPS

    def node_position(self, ix: int, iy: int) -> tuple[float, float]:
        return float(self.xs[ix]), float(self.ys[iy])

    def nearest_node(self, point) -> tuple[int, int]:
        x, y = point
        if not self.contains_point(point):
            raise DomainError(f"point {point} outside domain")
        ix = min(max(int(round(x / self.h - 0.5)), 0), self.n - 1)
        iy = min(max(int(round(y / self.h - 0.5)), 0), self.n - 1)
        return ix, iy

    def contains_point(self, point) -> bool:
        x, y = point
        return -_EPS <= x <= 1.0 + _EPS and -_EPS <= y <= 1.0 + _EPS

    def contains_ball(self, center, radius: float) -> bool:
        x, y = center
        return (x - radius >= -_EPS and x + radius <= 1.0 + _EPS
                and y - radius >= -_EPS and y + radius <= 1.0 + _EPS)

    def boundary_distance(self, point) -> float:
        x, y = point
        return min(x, 1.0 - x, y, 1.0 - y)

    def interior_mask(self) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=bool)
        m[1:-1, 1:-1] = True
        return m

    def ring_mask(self) -> np.ndarray:
        return ~self.interior_mask()


class GridFunction:
    """Scalar field on the nodes of a Grid2D; values are published read-only."""

    def __init__(self, grid: Grid2D, values: np.ndarray):
        values = np.array(values, dtype=float)
        if values.shape != (grid.n, grid.n):
            raise GridMismatchError(
                f"values shape {values.shape} does not match grid ({grid.n}, {grid.n})"
            )
        if not np.all(np.isfinite(values)):
            raise DataError("grid function values must be finite")
        values.flags.writeable = False
        self.grid = grid
        self.values = values

    @classmethod
    def from_callable(cls, grid: Grid2D, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.X, grid.Y), dtype=float) + np.zeros_like(grid.X))

    @classmethod
    def constant(cls, grid: Grid2D, value: float) -> "GridFunction":
        return cls(grid, np.full((grid.n, grid.n), float(value)))

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)

    def at_node(self, point) -> float:
        ix, iy = self.grid.nearest_node(point)
        return float(self.values[ix, iy])

    def __repr__(self):
        return f"GridFunction(n={self.grid.n}, range=[{self.values.min():.3g}, {self.values.max():.3g}])"


def _in_closed_ball(d2, radius):
    """The closed-ball rule of every membership test: d^2 <= r^2 (1 + 1e-12)."""
    return d2 <= radius**2 * (1.0 + 1e-12)


@functools.lru_cache(maxsize=512)
def ball_offsets(ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only node offsets (di, dj) of a node-centered disk whose radius
    is ``ratio`` mesh widths.

    Membership is the node-center rule |node - center| <= radius; every
    listed offset keeps the node inside the stated radius, and the node
    count matches the disk area up to one boundary ring.  The tables
    depend on radius/h only, so every grid shares them.
    """
    m = int(np.floor(ratio + _EPS))
    rng = np.arange(-m, m + 1)
    di, dj = np.meshgrid(rng, rng, indexing="ij")
    keep = _in_closed_ball(di.astype(float) ** 2 + dj.astype(float) ** 2, ratio)
    di, dj = di[keep].ravel(), dj[keep].ravel()
    di.flags.writeable = False
    dj.flags.writeable = False
    return di, dj


def ball_nodes(grid: Grid2D, center, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Node indices of the disk B_radius(center), center snapped to a node.

    Requires radius >= 2h and the (snapped) ball inside the domain.
    """
    if not grid.resolves(radius):
        raise ResolutionError(
            f"radius {radius:.4g} below the 2h resolution floor ({grid.r_min:.4g})"
        )
    ix, iy = grid.nearest_node(center)
    cx, cy = grid.node_position(ix, iy)
    if not grid.contains_ball((cx, cy), radius):
        raise DomainError(f"ball of radius {radius:.4g} at {center} exits the domain")
    di, dj = ball_offsets(radius / grid.h)
    return ix + di, iy + dj


def ball_average(f: GridFunction, center, radius: float) -> float:
    """Arithmetic mean of f over the nodes of B_radius(center)."""
    ii, jj = ball_nodes(f.grid, center, radius)
    return float(f.values[ii, jj].mean())


def median(f: GridFunction, center, radius: float) -> float:
    """Largest median of f over the ball: the supremum of levels exceeded
    by more than half the nodes."""
    ii, jj = ball_nodes(f.grid, center, radius)
    return largest_median(f.values[ii, jj])


def largest_median(values) -> float:
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    k = vals.size
    if k == 0:
        raise DataError("median of an empty sample")
    return float(vals[(k - 1) // 2])


def disk_mask(grid: Grid2D, center, radius: float) -> np.ndarray:
    """Nodes of the closed disk around the exact (unsnapped) center.

    The disk may exit the domain; nodes outside it are simply absent.
    """
    return _in_closed_ball((grid.X - center[0]) ** 2 + (grid.Y - center[1]) ** 2, radius)


def _node_span(h: float, n: int, lo: float, hi: float) -> tuple[int, int]:
    """Slice bounds of the nodes with coordinate in [lo, hi], widened by
    one node on each side (so rounding never drops a boundary node) and
    clipped to the grid."""
    start = math.ceil(lo / h - 0.5) - 1
    stop = math.floor(hi / h - 0.5) + 2
    return min(max(start, 0), n), min(max(stop, 0), n)


def disk_integral(f: GridFunction, center, radius: float) -> float:
    """Sum of f * h^2 over the nodes of the exact-center closed disk.

    Mass-type query: the disk may exit the domain (the outside contributes
    nothing), and the center is not snapped.
    """
    return float(disk_integrals(f, center, (radius,))[0])


def disk_integrals(f: GridFunction, center, radii) -> np.ndarray:
    """``disk_integral`` for every radius of a ladder.

    One squared-distance table covers the node box of the largest disk;
    each radius sums the ``disk_mask`` nodes of its own sub-box.  A sub-box
    lists those nodes in the full grid's row-major order, so each sum is
    bitwise the full-grid masked sum.
    """
    g = f.grid
    cx, cy = center
    top = max(radii)
    i0, i1 = _node_span(g.h, g.n, cx - top, cx + top)
    j0, j1 = _node_span(g.h, g.n, cy - top, cy + top)
    d2 = ((g.xs[i0:i1] - cx) ** 2)[:, None] + ((g.ys[j0:j1] - cy) ** 2)[None, :]
    vals = f.values[i0:i1, j0:j1]
    out = np.empty(len(radii))
    for k, radius in enumerate(radii):
        a, b = _node_span(g.h, g.n, cx - radius, cx + radius)
        c, d = _node_span(g.h, g.n, cy - radius, cy + radius)
        box = (slice(a - i0, b - i0), slice(c - j0, d - j0))
        out[k] = vals[box][_in_closed_ball(d2[box], radius)].sum() * g.h * g.h
    return out


def gradient(f: GridFunction) -> tuple[GridFunction, GridFunction]:
    """Centered differences in the interior, second-order one-sided on the
    boundary ring; exact for affine fields."""
    gx = np.gradient(f.values, f.grid.h, axis=0, edge_order=2)
    gy = np.gradient(f.values, f.grid.h, axis=1, edge_order=2)
    return f.with_values(gx), f.with_values(gy)


def _second_diff(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    v = np.moveaxis(v, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def hessian(f: GridFunction) -> tuple[GridFunction, GridFunction, GridFunction]:
    """(f_xx, f_xy, f_yy) by second-order stencils; exact for quadratics.

    The mixed derivative is the y-difference of the x-difference, which is
    symmetric in the two orders because the difference operators commute.
    """
    h = f.grid.h
    hxx = _second_diff(f.values, h, axis=0)
    hyy = _second_diff(f.values, h, axis=1)
    gx = np.gradient(f.values, h, axis=0, edge_order=2)
    hxy = np.gradient(gx, h, axis=1, edge_order=2)
    return f.with_values(hxx), f.with_values(hxy), f.with_values(hyy)


def w11_distance(f: GridFunction, g2: GridFunction) -> float:
    """int |f - g2| + int |Df - Dg2| by the midpoint rule on nodes."""
    if f.grid != g2.grid:
        raise GridMismatchError("w11_distance needs both functions on one grid")
    h2 = f.grid.h**2
    d0 = np.abs(f.values - g2.values).sum() * h2
    fx, fy = gradient(f)
    gx, gy = gradient(g2)
    d1 = np.hypot(fx.values - gx.values, fy.values - gy.values).sum() * h2
    return float(d0 + d1)


@dataclass
class MeasureData:
    """Radon measure: Dirac atoms plus an optional absolutely continuous
    grid density.  Atoms must lie strictly inside the domain the measure is
    used on; that is checked when a grid is available."""

    atoms: list[tuple[float, float, float]] = field(default_factory=list)
    density: GridFunction | None = None

    def __post_init__(self):
        self.atoms = [(float(x), float(y), float(m)) for x, y, m in self.atoms]
        if self.density is not None and np.any(self.density.values < 0):
            raise DataError("measure densities must be nonnegative")
        if self.density is not None:
            g = self.density.grid
            for x, y, _ in self.atoms:
                if g.boundary_distance((x, y)) <= 0:
                    raise DataError(f"atom at ({x}, {y}) not strictly inside the domain")

    def scaled(self, factor: float) -> "MeasureData":
        atoms = [(x, y, m * factor) for x, y, m in self.atoms]
        dens = None
        if self.density is not None:
            dens = self.density.with_values(self.density.values * factor)
        return MeasureData(atoms, dens)


def ball_mass(mu: MeasureData, center, radius: float) -> float:
    """|mu| of the closed ball: atom masses by the closed-ball rule of
    every membership test here, plus the cut-cell integral of the density
    (node-center-in-disk rule)."""
    return float(ball_masses(mu, center, (radius,))[0])


def ball_masses(mu: MeasureData, center, radii) -> np.ndarray:
    """``ball_mass`` for every radius of a ladder: the atom distances are
    taken once, the density integrated by ``disk_integrals``."""
    if min(radii) <= 0:
        raise DataError("ball_mass needs a positive radius")
    cx, cy = center
    atoms = [((x - cx) ** 2 + (y - cy) ** 2, abs(m)) for x, y, m in mu.atoms]
    out = np.array([
        sum(m for d2, m in atoms if _in_closed_ball(d2, radius))
        for radius in radii
    ], dtype=float)
    if mu.density is not None:
        out += disk_integrals(mu.density, center, radii)
    return out


# ---------------------------------------------------------------------------
# text I/O: headered rasters

def write_raster(path, f: GridFunction) -> None:
    g = f.grid
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.n} 0 0 1\n")
        for row in f.values:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_raster(path) -> GridFunction:
    """A ``write_raster`` file; any header or body it cannot parse is a ``DataError``."""
    with open(path) as fh:
        try:
            header = fh.readline().split()
            if len(header) != 5:
                raise DataError("raster header must be 'nx ny x0 y0 side'")
            n, ny = map(int, header[:2])
            if ny != n or tuple(map(float, header[2:])) != (0.0, 0.0, 1.0):
                raise DataError("rasters are square grids of the unit square: header 'n n 0 0 1'")
            values = np.loadtxt(fh, dtype=float)
        except ValueError as exc:
            raise DataError(f"malformed raster: {exc}") from None
    if values.shape != (n, n):
        raise DataError(f"raster body has shape {values.shape}, expected ({n}, {n})")
    return GridFunction(Grid2D(n), values)

