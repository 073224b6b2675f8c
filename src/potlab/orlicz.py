"""Growth-function calculus.

A growth function g drives the whole laboratory: it is C^1 on (0, inf),
vanishes only at 0, and its elasticity t*g'(t)/g(t) is pinned between the
lower index ig >= 1 and the upper index sg.  Its antiderivative
G(t) = int_0^t g is a strictly convex N-function; this module supplies G,
its inverse, the Young conjugate G*, index estimation, and the Sobolev
companion S(t) = G(t) * (G(t)/t)^(-1/n).

Supported kinds:

* ``power(p)``          g(t) = t^(p-1), indices (p-1, p-1)
* ``regularized_power`` g(t) = (mu + t^2)^((p-2)/2) t with mu > 0,
  indices (1, p-1); at mu = 0 it is ``power``
* ``tabulated``         monotone cubic interpolation of (t, g(t)) samples

Power and regularized kinds use closed forms for G and G^{-1}, power for
S^{-1} too; the tabulated kind integrates its interpolant.  Every other
inverse (g^{-1}, S^{-1}, the tabulated G^{-1}) is one log-space bisection.
All evaluators accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DomainError, InsufficientDataError, RangeError

__all__ = [
    "GrowthFunction",
    "PowerGrowth",
    "RegularizedPowerGrowth",
    "TabulatedGrowth",
    "GROWTH_KINDS",
    "estimate_indices",
]


def _checked(t, name="t", allow_negative=False):
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    if not allow_negative and np.any(arr < 0):
        raise DomainError(f"{name} must be nonnegative")
    return arr


def _like(arr, template):
    """Return a python float for scalar input, the array otherwise."""
    if np.isscalar(template) or np.ndim(template) == 0:
        return float(arr)
    return arr


class GrowthFunction:
    """Base class: scalar nonlinearity with pinned growth indices."""

    kind = "base"
    ig: float
    sg: float

    def g(self, t):
        raise NotImplementedError

    def dg(self, t):
        raise NotImplementedError

    def kernel(self, t):
        """g(t)/t, extended to t = 0 by its limit (finite since ig >= 1)."""
        arr = _checked(t)
        out = np.empty_like(arr)
        pos = arr > 0
        out[pos] = self.g(arr[pos]) / arr[pos]
        out[~pos] = self.kernel0
        return _like(out, t)

    @property
    def kernel0(self) -> float:
        raise NotImplementedError

    def G(self, t):
        raise NotImplementedError

    def G_inverse(self, s):
        raise NotImplementedError

    def g_inverse(self, s):
        """Invert g by log-space bisection.

        The bracket comes from the index sandwich around t = 1:
        g(1) beta^ig <= g(beta) <= g(1) beta^sg for beta >= 1, mirrored
        below 1, widened by a factor 2 on each side.
        """
        def invert(s):
            r = s / float(self.g(1.0))
            up = r >= 1.0
            lo = np.where(up, r ** (1.0 / self.sg), r ** (1.0 / self.ig)) * 0.5
            hi = np.where(up, r ** (1.0 / self.ig), r ** (1.0 / self.sg)) * 2.0
            return _bisect_increasing(self.g, s, lo, hi)
        return _map_positive(s, invert)

    def conjugate(self, s):
        """Young conjugate G*(s) = s g^{-1}(s) - G(g^{-1}(s)).

        First-order optimality of the Legendre transform; valid because G
        is differentiable and strictly convex, so the sup over t is
        attained where g(t) = s.
        """
        def legendre(s):
            t = self.g_inverse(s)
            return np.maximum(s * t - self.G(t), 0.0)
        return _map_positive(s, legendre)

    def S(self, t, n: int):
        """Sobolev companion S(t) = G(t) (G(t)/t)^(-1/n) for t > 0."""
        if n < 2:
            raise DomainError("dimension must be at least 2")
        arr = _checked(t)
        if np.any(arr <= 0):
            raise DomainError("S is defined for t > 0 only")
        Gt = self.G(arr)
        return _like(Gt * (Gt / arr) ** (-1.0 / n), t)

    def S_inverse(self, s, n: int):
        """Invert the strictly increasing map t -> S(t, n) by bisection."""
        return _map_positive(
            s, lambda s: _bisect_increasing(lambda t: self.S(t, n), s, 1e-14, 1e14)
        )

    def _index_sample_range(self):
        return 1e-8, 1e8


class PowerGrowth(GrowthFunction):
    """g(t) = t^(p-1) with p >= 2; G(t) = t^p / p."""

    kind = "power"

    def __init__(self, p: float):
        if not np.isfinite(p) or p < 2.0:
            raise DataError("power growth requires p >= 2")
        self.p = float(p)
        self.ig = self.p - 1.0
        self.sg = self.p - 1.0

    def g(self, t):
        arr = _checked(t)
        return _like(arr ** (self.p - 1.0), t)

    def dg(self, t):
        return _like((self.p - 1.0) * _checked(t) ** (self.p - 2.0), t)

    @property
    def kernel0(self) -> float:
        return 1.0 if self.p == 2.0 else 0.0

    def G(self, t):
        arr = _checked(t)
        return _like(arr**self.p / self.p, t)

    def G_inverse(self, s):
        arr = _checked(s, "s")
        return _like((self.p * arr) ** (1.0 / self.p), s)

    def S_inverse(self, s, n: int):
        """S(t) = p^(-1+1/n) t^(p-(p-1)/n), inverted in closed form."""
        if n < 2:
            raise DomainError("dimension must be at least 2")
        arr = _checked(s, "s")
        return _like((arr * self.p ** (1 - 1 / n)) ** (1 / (self.p - (self.p - 1) / n)), s)

    def __repr__(self):
        return f"PowerGrowth(p={self.p})"


class RegularizedPowerGrowth(GrowthFunction):
    """g(t) = (mu + t^2)^((p-2)/2) t, mu > 0; the classical regularized p-kernel."""

    kind = "regularized_power"

    def __init__(self, p: float, mu: float):
        if not np.isfinite(p) or p < 2.0:
            raise DataError("regularized power growth requires p >= 2")
        if not np.isfinite(mu) or mu <= 0.0:
            raise DataError("regularized power growth requires mu > 0 (mu = 0 is kind = power)")
        self.p = float(p)
        self.mu = float(mu)
        self.ig = 1.0
        self.sg = self.p - 1.0

    def g(self, t):
        arr = _checked(t)
        return _like((self.mu + arr**2) ** ((self.p - 2.0) / 2.0) * arr, t)

    def dg(self, t):
        arr = _checked(t)
        q = self.mu + arr**2
        if self.p == 2.0:
            return _like(np.ones_like(arr), t)
        return _like(q ** ((self.p - 4.0) / 2.0) * (self.mu + (self.p - 1.0) * arr**2), t)

    @property
    def kernel0(self) -> float:
        return self.mu ** ((self.p - 2.0) / 2.0)

    def G(self, t):
        arr = _checked(t)
        # mu^(p/2) [ (1 + t^2/mu)^(p/2) - 1 ] / p without cancellation
        mp = self.mu ** (self.p / 2.0)
        val = mp * np.expm1((self.p / 2.0) * np.log1p(arr**2 / self.mu)) / self.p
        return _like(val, t)

    def G_inverse(self, s):
        arr = _checked(s, "s")
        # (mu + t^2)^(p/2) = p s + mu^(p/2); expm1/log1p guard the small-s
        # cancellation in (..)^(2/p) - mu.
        mp = self.mu ** (self.p / 2.0)
        x = self.p * arr / mp
        t2 = self.mu * np.expm1((2.0 / self.p) * np.log1p(x))
        return _like(np.sqrt(np.maximum(t2, 0.0)), s)

    def __repr__(self):
        return f"RegularizedPowerGrowth(p={self.p}, mu={self.mu})"


# a table's lower index may fall this far below 1 (a fitted exponent's
# rounding), and a lower edge exponent this close to 1 is read as linear
_LINEAR_TOL = 1e-9


class TabulatedGrowth(GrowthFunction):
    """Growth function given by samples (t_i, g(t_i)) with t_i increasing.

    Inside the table, g is the monotone cubic (PCHIP) interpolant and G its
    exact antiderivative; outside, both continue by the power law fitted to
    the edge pair of nodes.  Tables whose estimated lower index falls below
    1 are rejected.
    """

    kind = "tabulated"

    def __init__(self, nodes, values):
        from scipy.interpolate import PchipInterpolator

        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise DataError("nodes and values must be 1-d arrays of equal length")
        if nodes.size < 3:
            raise InsufficientDataError("tabulated growth needs at least 3 nodes")
        if np.any(nodes <= 0) or np.any(np.diff(nodes) <= 0):
            raise DataError("nodes must be strictly increasing and positive")
        if np.any(values <= 0) or np.any(np.diff(values) <= 0):
            raise DataError("g samples must be strictly increasing and positive")
        self.nodes = nodes
        self.values = values
        self._interp = PchipInterpolator(nodes, values)
        self._dinterp = self._interp.derivative()
        self._anti = self._interp.antiderivative()
        e_lo = float(np.log(values[1] / values[0]) / np.log(nodes[1] / nodes[0]))
        # a lower edge within the index check's tolerance of linear is
        # linear, so that dg(0) and kernel0 both read values[0] / nodes[0]
        self._e_lo = 1.0 if abs(e_lo - 1.0) <= _LINEAR_TOL else e_lo
        self._e_hi = float(
            np.log(values[-1] / values[-2]) / np.log(nodes[-1] / nodes[-2])
        )
        lo, hi = estimate_indices(self)
        self.ig = min(lo, self._e_lo, self._e_hi)
        self.sg = max(hi, self._e_lo, self._e_hi)
        if self.ig < 1.0 - _LINEAR_TOL:
            raise DataError(f"tabulated growth has lower index {self.ig:.4f} < 1")
        # cumulative integral below the first node, by the edge power law
        self._G0 = values[0] * nodes[0] / (self._e_lo + 1.0)
        self._GN = self._G0 + float(self._anti(nodes[-1]) - self._anti(nodes[0]))

    def _by_range(self, t, inside, below, above):
        """``inside`` on the table's range [t_0, t_N]; beyond it, ``below``
        and ``above`` of t / t_0 and t / t_N, the edge power laws."""
        arr = _checked(t)
        out = np.empty_like(arr)
        lo, hi = arr < self.nodes[0], arr > self.nodes[-1]
        mid = ~lo & ~hi
        out[mid] = inside(arr[mid])
        out[lo] = below(arr[lo] / self.nodes[0])
        out[hi] = above(arr[hi] / self.nodes[-1])
        return _like(out, t)

    def g(self, t):
        (v0, vN), e0, eN = self.values[[0, -1]], self._e_lo, self._e_hi
        return self._by_range(t, self._interp, lambda r: v0 * r**e0, lambda r: vN * r**eN)

    def dg(self, t):
        (t0, tN), (v0, vN) = self.nodes[[0, -1]], self.values[[0, -1]]
        e0, eN = self._e_lo, self._e_hi
        with np.errstate(divide="ignore"):
            return self._by_range(t, self._dinterp, lambda r: e0 * v0 * r ** (e0 - 1.0) / t0,
                                  lambda r: eN * vN * r ** (eN - 1.0) / tN)

    @property
    def kernel0(self) -> float:
        if self._e_lo > 1.0:
            return 0.0
        return float(self.values[0] / self.nodes[0])

    def G(self, t):
        (t0, tN), vN = self.nodes[[0, -1]], self.values[-1]
        e0, eN = self._e_lo, self._e_hi
        return self._by_range(t, lambda x: self._G0 + (self._anti(x) - self._anti(t0)),
                              lambda r: self._G0 * r ** (e0 + 1.0),
                              lambda r: self._GN + (vN * tN / (eN + 1.0) * (r ** (eN + 1.0) - 1.0)))

    def G_inverse(self, s):
        t_lo, t_hi = self.nodes[0] * 1e-6, self.nodes[-1] * 1e6
        def invert(s):
            if np.any(s > self.G(t_hi)) or np.any(s < self.G(t_lo)):
                raise RangeError("value outside the invertible range of the table")
            return _bisect_increasing(self.G, s, t_lo, t_hi)
        return _map_positive(s, invert)

    def _index_sample_range(self):
        return float(self.nodes[0]), float(self.nodes[-1])

    def __repr__(self):
        return f"TabulatedGrowth({self.nodes.size} nodes)"

    @classmethod
    def from_file(cls, path) -> "TabulatedGrowth":
        """Load a two-column text file of (t, g(t)) samples."""
        with open(path) as fh:
            try:
                data = np.loadtxt(fh, dtype=float)
            except ValueError as exc:
                raise DataError(f"malformed table: {exc}") from None
        if data.ndim != 2 or data.shape[1] != 2:
            raise DataError("expected a two-column (t, g) table")
        return cls(data[:, 0], data[:, 1])


def _map_positive(s, fn):
    """Validate ``s`` and map its positive entries through ``fn``; zero
    stays zero.  The bisection inverses and the conjugate go through here."""
    arr = _checked(s, "s")
    out = np.zeros_like(arr)
    pos = arr > 0
    if np.any(pos):
        out[pos] = fn(arr[pos])
    return _like(out, s)


def _bisect_increasing(fn, s, lo, hi, iters=80):
    """Solve fn(t) = s for an increasing fn by bisection in log t inside
    the bracket [lo, hi], given per entry of s or once for all."""
    llo = np.full_like(s, np.log(lo))
    lhi = np.full_like(s, np.log(hi))
    for _ in range(iters):
        mid = 0.5 * (llo + lhi)
        too_low = fn(np.exp(mid)) < s
        llo = np.where(too_low, mid, llo)
        lhi = np.where(too_low, lhi, mid)
    return np.exp(0.5 * (llo + lhi))


# the growth kinds by name: each builds from its keyword parameters (a
# ``tabulated`` growth from the file of its samples)
GROWTH_KINDS = {
    "power": PowerGrowth,
    "regularized_power": RegularizedPowerGrowth,
    "tabulated": lambda file: TabulatedGrowth.from_file(file),
}


def estimate_indices(gf: GrowthFunction, samples: int = 4096):
    """Sampled (inf, sup) of the elasticity t g'(t)/g(t) on a log grid."""
    if samples < 16:
        raise InsufficientDataError("need at least 16 samples to estimate indices")
    lo, hi = gf._index_sample_range()
    t = np.geomspace(lo, hi, samples)
    ratio = t * gf.dg(t) / gf.g(t)
    return float(ratio.min()), float(ratio.max())
