"""The vector field a(x, eta) = omega(x) * (g(|eta|)/|eta|) * eta.

A spatial coefficient omega with values in [c_low, c_high] (a raster is
clamped to that range, a config refuses a preset outside it) multiplies
the radial growth kernel.  The kernel cancels from the field's oscillation:
|a(x, eta) - mean_B a(., eta)| / g(|eta|) = |omega(x) - mean_B omega| for
every eta.  So the module measures the field's distance from its ball
averages by the coefficient alone: the mean-oscillation modulus omega(r)
over all balls up to radius r, and Dini-type integrals of that modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, ResolutionError, StateError
from .grid import GridFunction, Grid2D, ball_offsets
from .orlicz import GrowthFunction

__all__ = [
    "CoefficientField",
    "constant_coefficient",
    "affine_coefficient",
    "jump_coefficient",
    "checkerboard_coefficient",
    "coefficient_from_raster",
    "COEFFICIENT_PRESETS",
    "VectorField",
    "OscillationModulus",
    "dini_integral",
]


class CoefficientField:
    """Bounded measurable coefficient omega(x), separated from zero.

    Values are clamped to [c_low, c_high] on evaluation, which realizes the
    boundedness requirement for arbitrary user input.  A preset states its
    ``span``, the (min, max) of its unclamped values on the unit square, so
    a config can refuse one that the clamp would change; a raster or a
    custom function has no span.
    """

    def __init__(self, fn, c_low: float = 0.05, c_high: float = 20.0, label: str = "custom",
                 span: tuple[float, float] | None = None):
        if not (0.0 < c_low <= c_high < np.inf):
            raise DataError("need 0 < c_low <= c_high < inf")
        self._fn = fn
        self.c_low = float(c_low)
        self.c_high = float(c_high)
        self.label = label
        self.span = span

    def at(self, x, y):
        vals = np.asarray(self._fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float)), dtype=float)
        return np.clip(vals, self.c_low, self.c_high)

    def on_nodes(self, grid: Grid2D) -> np.ndarray:
        return self.at(grid.X, grid.Y)

    def on_cells(self, grid: Grid2D) -> np.ndarray:
        c = (np.arange(grid.n - 1) + 1.0) * grid.h
        CX, CY = np.meshgrid(c, c, indexing="ij")
        return self.at(CX, CY)

    def __repr__(self):
        return f"CoefficientField({self.label}, [{self.c_low:g}, {self.c_high:g}])"


def constant_coefficient(value: float = 1.0, **kw) -> CoefficientField:
    v = float(value)
    return CoefficientField(lambda X, Y: np.full_like(X, v), label=f"constant({v:g})",
                            span=(v, v), **kw)


def affine_coefficient(ax: float = 1.0, ay: float = 0.0, b: float = 1.0, **kw) -> CoefficientField:
    corners = (b, b + ax, b + ay, b + ax + ay)
    return CoefficientField(
        lambda X, Y: b + ax * X + ay * Y, label=f"affine({ax:g},{ay:g},{b:g})",
        span=(min(corners), max(corners)), **kw
    )


def jump_coefficient(amplitude: float = 0.2, position: float = 0.5, axis: int = 0, **kw) -> CoefficientField:
    """BMO-type jump: 1 + amplitude * sign(x_axis - position)."""
    def fn(X, Y):
        coord = X if axis == 0 else Y
        return 1.0 + amplitude * np.sign(coord - position)
    return CoefficientField(fn, label=f"jump({amplitude:g}@{position:g})",
                            span=(1.0 - abs(amplitude), 1.0 + abs(amplitude)), **kw)


def checkerboard_coefficient(amplitude: float = 0.2, period: float = 0.25, **kw) -> CoefficientField:
    def fn(X, Y):
        s = np.sin(2 * np.pi * X / period) * np.sin(2 * np.pi * Y / period)
        return 1.0 + amplitude * np.sign(s)
    return CoefficientField(fn, label=f"checkerboard({amplitude:g},{period:g})",
                            span=(1.0 - abs(amplitude), 1.0 + abs(amplitude)), **kw)


def coefficient_from_raster(gf: GridFunction, **kw) -> CoefficientField:
    from scipy.interpolate import RegularGridInterpolator

    g = gf.grid
    interp = RegularGridInterpolator(
        (g.xs, g.ys), gf.values, bounds_error=False, fill_value=None
    )
    def fn(X, Y):
        pts = np.stack([np.broadcast_arrays(X, Y)[0].ravel(),
                        np.broadcast_arrays(X, Y)[1].ravel()], axis=-1)
        return interp(pts).reshape(np.broadcast_arrays(X, Y)[0].shape)
    return CoefficientField(fn, label="raster", **kw)


# the coefficient presets by name; each preset's **kw are the clamp bounds
# of ``CoefficientField``
COEFFICIENT_PRESETS = {
    "constant": constant_coefficient,
    "affine": affine_coefficient,
    "jump": jump_coefficient,
    "checkerboard": checkerboard_coefficient,
}


class VectorField:
    """Model operator a(x, eta) = omega(x) * kernel(|eta|) * eta."""

    def __init__(self, growth: GrowthFunction, coefficient: CoefficientField):
        self.growth = growth
        self.coefficient = coefficient

    def a(self, x, eta):
        """Field value at point x (pair) for eta of shape (..., 2)."""
        eta = np.asarray(eta, dtype=float)
        t = np.hypot(eta[..., 0], eta[..., 1])
        k = self.growth.kernel(t)
        om = self.coefficient.at(x[0], x[1])
        return np.asarray(om * k)[..., None] * eta

    def oscillation_ladder(self, grid: Grid2D, r_max: float, gamma_prime: float = 2.0):
        """Per-radius suprema of the gamma'-mean oscillation of omega.

        Returns (radii, sup-values) on 16 radii log-spaced from 2h to
        r_max, or on the single radius 2h when r_max is at that floor; the
        running maximum of the values is the modulus omega(r).
        Centers run over the nodes of stride n // 16 whose ball stays
        inside the domain; a radius with no such center gets 0, and every
        radius gets 0 when the coefficient is constant on the nodes.
        """
        if gamma_prime <= 1.0:
            raise DataError("gamma_prime must exceed 1")
        if r_max > 0.5 + 1e-12:
            raise DomainError("modulus radius above half the domain width")
        if not grid.resolves(r_max):
            raise ResolutionError("modulus radius below the 2h resolution floor")
        if r_max > grid.r_min:
            radii = np.geomspace(grid.r_min, r_max, 16)
        else:
            radii = np.array([grid.r_min])
        om = self.coefficient.on_nodes(grid)
        if om.min() == om.max():
            # a constant coefficient has the zero modulus; gathering it would
            # leave the rounding of each ball mean (1e-16) in the sups
            return radii, np.zeros_like(radii)
        idx = np.arange(0, grid.n, max(1, grid.n // 16))
        cs = grid.xs[idx]
        sups = np.zeros_like(radii)
        for k, rho in enumerate(radii):
            # the centers are nodes and each ball stays inside the domain,
            # so the offsets index om directly; one gather per row of centers
            di, dj = ball_offsets(rho / grid.h)
            centers = idx[(rho <= cs) & (cs <= 1.0 - rho)]
            best = 0.0
            for ic in centers:
                vals = om[ic + di, centers[:, None] + dj]
                dev = np.abs(vals - vals.mean(axis=1, keepdims=True))
                best = max(best, float(np.mean(dev**gamma_prime, axis=1).max()))
            # t -> t^(1/gamma') is increasing: the max commutes with it
            sups[k] = best ** (1.0 / gamma_prime)
        return radii, sups

    def oscillation_modulus(self, grid: Grid2D, r_max: float,
                            gamma_prime: float = 2.0) -> "OscillationModulus":
        radii, sups = self.oscillation_ladder(grid, r_max, gamma_prime)
        return OscillationModulus(
            radii=radii,
            values=np.maximum.accumulate(sups),
            dini_exponent=1.0 / (1.0 + self.growth.sg),
        )

    def __repr__(self):
        return f"VectorField({self.growth!r}, {self.coefficient!r})"


@dataclass(frozen=True)
class OscillationModulus:
    """Sampled modulus r -> omega(r), nondecreasing."""

    radii: np.ndarray
    values: np.ndarray
    dini_exponent: float

    def __post_init__(self):
        if self.radii.size != self.values.size:
            raise DataError("radii and values must align")
        if self.radii.size and np.any(np.diff(self.radii) <= 0):
            raise DataError("modulus radii must be increasing")
        object.__setattr__(self, "_zero", self.radii.size == 0 or not np.any(self.values > 0))

    def is_zero(self) -> bool:
        return self._zero


def dini_integral(om: OscillationModulus, r: float, alpha_hat: float = 0.0,
                  weight=None) -> float:
    """int_{r_min}^{r} omega(rho)^q rho^(-alpha_hat) w(rho) drho/rho with
    q the stored Dini exponent 1/(1+sg) and r_min the modulus's first
    radius, by log-trapezoid over the samples.  ``alpha_hat`` may be
    negative, which shifts the measure to drho/rho^(1+alpha_hat).
    """
    if om.radii.size == 0:
        raise StateError("modulus holds no samples")
    keep = om.radii <= r * (1 + 1e-12)
    radii = om.radii[keep]
    vals = om.values[keep]
    if radii.size < 2:
        return 0.0
    integrand = vals**om.dini_exponent * radii ** (-alpha_hat)
    if weight is not None:
        integrand = integrand * np.asarray([weight(rho) for rho in radii], dtype=float)
    return float(np.trapezoid(integrand, np.log(radii)))
