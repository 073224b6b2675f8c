"""The vector field a(x, eta) = omega(x) * (g(|eta|)/|eta|) * eta.

A spatial coefficient omega, clamped to [c_low, c_high] at load, multiplies
the radial growth kernel.  The module also measures how far the field is
from its ball averages: the pointwise oscillation theta, the mean-
oscillation modulus omega(r) over all balls up to radius r, and Dini-type
integrals of that modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, SingularPointError, StateError
from .grid import GridFunction, Grid2D, ball_nodes, ball_offsets
from .orlicz import GrowthFunction

__all__ = [
    "CoefficientField",
    "constant_coefficient",
    "affine_coefficient",
    "jump_coefficient",
    "checkerboard_coefficient",
    "coefficient_from_raster",
    "make_coefficient",
    "VectorField",
    "OscillationModulus",
    "dini_integral",
]


class CoefficientField:
    """Bounded measurable coefficient omega(x), separated from zero.

    Values are clamped to [c_low, c_high] on evaluation, which realizes the
    boundedness requirement for arbitrary user input.
    """

    def __init__(self, fn, c_low: float = 0.05, c_high: float = 20.0, label: str = "custom"):
        if not (0.0 < c_low <= c_high < np.inf):
            raise DataError("need 0 < c_low <= c_high < inf")
        self._fn = fn
        self.c_low = float(c_low)
        self.c_high = float(c_high)
        self.label = label

    def at(self, x, y):
        vals = np.asarray(self._fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float)), dtype=float)
        return np.clip(vals, self.c_low, self.c_high)

    def on_nodes(self, grid: Grid2D) -> np.ndarray:
        return self.at(grid.X, grid.Y)

    def on_cells(self, grid: Grid2D) -> np.ndarray:
        cx = grid.origin[0] + (np.arange(grid.n - 1) + 1.0) * grid.h
        cy = grid.origin[1] + (np.arange(grid.n - 1) + 1.0) * grid.h
        CX, CY = np.meshgrid(cx, cy, indexing="ij")
        return self.at(CX, CY)

    def shifted(self, c: float) -> "CoefficientField":
        return CoefficientField(
            lambda X, Y: self._fn(X, Y) + c,
            self.c_low, self.c_high + max(c, 0.0), label=f"{self.label}+{c:g}",
        )

    def __repr__(self):
        return f"CoefficientField({self.label}, [{self.c_low:g}, {self.c_high:g}])"


def constant_coefficient(value: float = 1.0, **kw) -> CoefficientField:
    v = float(value)
    return CoefficientField(lambda X, Y: np.full_like(X, v), label=f"constant({v:g})", **kw)


def affine_coefficient(ax: float = 1.0, ay: float = 0.0, b: float = 1.0, **kw) -> CoefficientField:
    return CoefficientField(
        lambda X, Y: b + ax * X + ay * Y, label=f"affine({ax:g},{ay:g},{b:g})", **kw
    )


def jump_coefficient(amplitude: float = 0.2, position: float = 0.5, axis: int = 0, **kw) -> CoefficientField:
    """BMO-type jump: 1 + amplitude * sign(x_axis - position)."""
    def fn(X, Y):
        coord = X if axis == 0 else Y
        return 1.0 + amplitude * np.sign(coord - position)
    return CoefficientField(fn, label=f"jump({amplitude:g}@{position:g})", **kw)


def checkerboard_coefficient(amplitude: float = 0.2, period: float = 0.25, **kw) -> CoefficientField:
    def fn(X, Y):
        s = np.sin(2 * np.pi * X / period) * np.sin(2 * np.pi * Y / period)
        return 1.0 + amplitude * np.sign(s)
    return CoefficientField(fn, label=f"checkerboard({amplitude:g},{period:g})", **kw)


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


_COEFFICIENT_PRESETS = {
    "constant": constant_coefficient,
    "affine": affine_coefficient,
    "jump": jump_coefficient,
    "checkerboard": checkerboard_coefficient,
}


def make_coefficient(preset: str, **params) -> CoefficientField:
    preset = preset.strip().lower()
    if preset not in _COEFFICIENT_PRESETS:
        raise DataError(f"unknown coefficient preset {preset!r}")
    return _COEFFICIENT_PRESETS[preset](**params)


class VectorField:
    """Model operator omega(x) * kernel(|eta|) * eta with recorded
    ellipticity pair (v, L): the Jacobian satisfies
    D_eta a(x,eta) lam . lam >= v (g(t)/t) |lam|^2 and
    |a| + |eta||D_eta a| <= L g(t)."""

    def __init__(self, growth: GrowthFunction, coefficient: CoefficientField):
        self.growth = growth
        self.coefficient = coefficient
        self.v = min(coefficient.c_low, 1.0)
        self.L = max(1.0, coefficient.c_high * (1.0 + growth.sg))

    def a(self, x, eta):
        """Field value at point x (pair) for eta of shape (..., 2)."""
        eta = np.asarray(eta, dtype=float)
        t = np.hypot(eta[..., 0], eta[..., 1])
        k = self.growth.kernel(t)
        om = self.coefficient.at(x[0], x[1])
        return np.asarray(om * k)[..., None] * eta

    def jacobian(self, x, eta) -> np.ndarray:
        """Analytic Jacobian omega [ (g/t) I + (g' - g/t) eta (x) eta / t^2 ]."""
        eta = np.asarray(eta, dtype=float)
        t = float(np.hypot(eta[0], eta[1]))
        if t == 0.0:
            raise SingularPointError("Jacobian undefined at eta = 0; use the regularized path")
        om = float(self.coefficient.at(x[0], x[1]))
        k = float(self.growth.kernel(t))
        dgv = float(self.growth.dg(t))
        outer = np.outer(eta, eta) / t**2
        return om * (k * np.eye(2) + (dgv - k) * outer)

    # -- oscillation diagnostics ------------------------------------------

    def theta(self, ball, x, grid: Grid2D, eta_samples: int = 0,
              magnitudes: int = 24) -> float:
        """sup over eta of |a(x,eta) - mean_ball a(.,eta)| / g(|eta|).

        For the coefficient-times-kernel structure the kernel cancels and
        the sup equals |omega(x) - mean_ball omega| exactly; that is the
        default path.  With eta_samples > 0 the sup is approximated over
        that many directions and log-spaced magnitudes instead.
        """
        center, radius = ball
        if not grid.contains_ball(center, radius):
            raise DomainError("oscillation ball exits the domain")
        if np.hypot(x[0] - center[0], x[1] - center[1]) > radius * (1 + 1e-12):
            raise DomainError("evaluation point outside the oscillation ball")
        ii, jj = ball_nodes(grid, center, radius)
        om_nodes = self.coefficient.on_nodes(grid)[ii, jj]
        om_bar = float(om_nodes.mean())
        om_x = float(self.coefficient.at(x[0], x[1]))
        if eta_samples <= 0:
            return abs(om_x - om_bar)
        angles = np.linspace(0.0, 2 * np.pi, eta_samples, endpoint=False)
        mags = np.geomspace(1e-3, 1e3, magnitudes)
        best = 0.0
        for t in mags:
            gt = float(self.growth.g(t))
            eta = t * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
            ax = om_x * float(self.growth.kernel(t)) * eta
            abar = om_bar * float(self.growth.kernel(t)) * eta
            diff = np.linalg.norm(ax - abar, axis=-1) / gt
            best = max(best, float(diff.max()))
        return best

    def oscillation_ladder(self, grid: Grid2D, r_max: float, gamma_prime: float = 2.0):
        """Per-radius suprema of the gamma'-mean oscillation of omega.

        Returns (radii, sup-values) on 16 radii log-spaced from 2h to
        r_max; the running maximum of the values is the modulus omega(r).
        Centers run over the nodes of stride n // 16 whose ball stays
        inside the domain.
        """
        if gamma_prime <= 1.0:
            raise DataError("gamma_prime must exceed 1")
        if r_max > grid.side / 2 + 1e-12:
            raise DomainError("modulus radius above half the domain width")
        if r_max < 2 * grid.h:
            raise DomainError("modulus radius below the 2h resolution floor")
        radii = np.geomspace(2 * grid.h, r_max, 16)
        om = self.coefficient.on_nodes(grid)
        idx = np.arange(0, grid.n, max(1, grid.n // 16))
        sups = np.zeros_like(radii)
        for k, rho in enumerate(radii):
            # the centers are nodes and each ball stays inside the domain,
            # so the offsets index om directly
            di, dj = ball_offsets(rho / grid.h)
            ics = [i for i in idx
                   if grid.origin[0] + rho <= grid.xs[i] <= grid.origin[0] + grid.side - rho]
            jcs = [j for j in idx
                   if grid.origin[1] + rho <= grid.ys[j] <= grid.origin[1] + grid.side - rho]
            best = 0.0
            for ic in ics:
                for jc in jcs:
                    vals = om[ic + di, jc + dj]
                    dev = np.abs(vals - vals.mean())
                    osc = float(np.mean(dev**gamma_prime) ** (1.0 / gamma_prime))
                    if osc > best:
                        best = osc
            sups[k] = best
        return radii, sups

    def omega_modulus(self, r: float, grid: Grid2D, gamma_prime: float = 2.0) -> float:
        """Mean-oscillation modulus omega(r): sup over centers and radii
        <= r of the gamma'-mean oscillation of the coefficient."""
        _, sups = self.oscillation_ladder(grid, r, gamma_prime)
        return float(sups.max())

    def oscillation_modulus(self, grid: Grid2D, r_max: float,
                            gamma_prime: float = 2.0) -> "OscillationModulus":
        radii, sups = self.oscillation_ladder(grid, r_max, gamma_prime)
        return OscillationModulus(
            gamma_prime=gamma_prime,
            radii=radii,
            values=np.maximum.accumulate(sups),
            dini_exponent=1.0 / (1.0 + self.growth.sg),
        )

    def __repr__(self):
        return f"VectorField({self.growth!r}, {self.coefficient!r}, v={self.v:g}, L={self.L:g})"


@dataclass(frozen=True)
class OscillationModulus:
    """Sampled modulus r -> omega(r), nondecreasing, bounded by 2L."""

    gamma_prime: float
    radii: np.ndarray
    values: np.ndarray
    dini_exponent: float

    def __post_init__(self):
        if self.radii.size != self.values.size:
            raise DataError("radii and values must align")
        if self.radii.size and np.any(np.diff(self.radii) <= 0):
            raise DataError("modulus radii must be increasing")

    @classmethod
    def from_function(cls, fn, radii, sg: float, gamma_prime: float = 2.0):
        radii = np.asarray(radii, dtype=float)
        return cls(gamma_prime, radii, np.asarray(fn(radii), dtype=float),
                   1.0 / (1.0 + sg))

    @property
    def r_min(self) -> float:
        if self.radii.size == 0:
            raise StateError("modulus holds no samples")
        return float(self.radii[0])

    def is_zero(self) -> bool:
        return self.radii.size == 0 or not np.any(self.values > 0)


def dini_integral(om: OscillationModulus, r: float, alpha_hat: float = 0.0,
                  weight=None) -> tuple[float, float]:
    """int_{r_min}^{r} omega(rho)^q rho^(-alpha_hat) w(rho) drho/rho with
    q the stored Dini exponent 1/(1+sg), by log-trapezoid over the samples.

    Returns (value, r_min); the truncation radius is reported so both
    sides of any comparison can share it.  ``alpha_hat`` may be negative,
    which shifts the measure to drho/rho^(1+alpha_hat).
    """
    if om.radii.size == 0:
        raise StateError("modulus holds no samples")
    keep = om.radii <= r * (1 + 1e-12)
    radii = om.radii[keep]
    vals = om.values[keep]
    r_min = float(om.radii[0])
    if radii.size < 2:
        return 0.0, r_min
    integrand = vals**om.dini_exponent * radii ** (-alpha_hat)
    if weight is not None:
        integrand = integrand * np.asarray([weight(rho) for rho in radii], dtype=float)
    value = float(np.trapezoid(integrand, np.log(radii)))
    return value, r_min
