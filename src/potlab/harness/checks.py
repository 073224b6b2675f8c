"""Estimate-verification checks.

The constants in the target inequalities are non-constructive, so every
check is ratio-based: it computes both sides at sampled balls or points
and records each LHS/RHS ratio in a ``RatioStudy``.  A cell's empirical
constant is its worst ratio (radius ladders and sample points aggregate
per cell), and cells group into families of one inequality.
Rows whose right side would vanish are flagged instead of divided;
exact-match rows additionally assert that the left side sits at
solver-tolerance level.

One gate decides every ratio check.  It passes when all of these hold:

* no row is flagged ``failed``;
* every ratio is finite and >= 0;
* every family with >= 2 cells has drift (largest over smallest positive
  constant) below ``DRIFT_LIMIT`` = 3, across meshes, data scalings and
  parameter values;
* at least one row is a ratio cell or an ``exact-match``;
* the check's own extra condition holds (an alpha = 0 consistency gap
  or a measured drift).

``excess_decay_homogeneous`` is a fit check: its verdict is its
power-law fit criterion, and the study only carries its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import DataError
from ..field import OscillationModulus, dini_integral
from ..grid import GridFunction, ball_average, ball_mass, disk_mask, gradient, median
from ..potentials import (
    ObstacleDensity,
    PointLadder,
    WolffLadder,
    radius_ladder,
    vector_excess,
)
from ..solver import (
    Solution,
    comparison_chain,
    finest_level,
    mollify_measure,
    solve_equation,
    solve_frozen,
    solve_vi,
)
from .config import CHECK_KEYS, ExperimentConfig, Instance, build_instance, cells, typed_value

__all__ = [
    "DEFAULT_SEED",
    "DRIFT_LIMIT",
    "CheckRow",
    "CheckReport",
    "RatioStudy",
    "SolveCache",
    "EstimateContext",
    "build_context",
    "maximal_sum_rhs",
    "sharp_gradient_rhs",
    "gradient_oscillation_rhs",
    "excess_rhs_with_errors",
    "fit_excess_decay",
    "sample_points",
    "CHECKS",
    "run_checks",
    "write_check_csv",
    "write_summary",
]

_RHS_FLOOR = 1e-14
DRIFT_LIMIT = 3.0
# the sample-point seed of ``run_checks`` and of ``potlab --seed``
DEFAULT_SEED = 12345


@dataclass
class CheckRow:
    point: tuple[float, float]
    radius: float
    lhs: float
    rhs: float
    ratio: float | None
    flag: str = ""


@dataclass
class CheckReport:
    name: str
    rows: list[CheckRow]
    summary: dict
    passed: bool
    notes: list[str] = field(default_factory=list)


def _drift(values) -> float | None:
    vals = [v for v in values if v is not None and v > 0]
    if len(vals) < 2:
        return None
    return max(vals) / min(vals)


class RatioStudy:
    """The rows of one check and the empirical constants behind its verdict.

    ``add`` records a row; a row with a ratio and a ``cell`` key raises
    that cell's constant to the row's ratio if it is the worst so far.
    ``family`` groups the cells whose constants must agree with each other
    (one inequality of the check); by default all cells form one family.
    """

    def __init__(self):
        self.rows: list[CheckRow] = []
        self.families: dict = {}  # family -> {cell: worst ratio}

    def add(self, point, radius, lhs, rhs, *, exact_tol=None, cell=None,
            family=None, tag: str = "") -> CheckRow:
        """Record lhs against rhs.  A right side at or below the floor is
        not divided: the row is flagged ``degenerate-skip``, or, given
        ``exact_tol``, ``exact-match`` when lhs <= exact_tol and ``failed``
        otherwise.  ``tag`` is appended to the flag."""
        if rhs > _RHS_FLOOR:
            row = CheckRow(point, radius, lhs, rhs, lhs / rhs)
        else:
            flag = "degenerate-skip"
            if exact_tol is not None:
                flag = "exact-match" if lhs <= exact_tol else "failed"
            row = CheckRow(point, radius, lhs, rhs, None, flag)
        if tag:
            row.flag = f"{row.flag} {tag}" if row.flag else tag
        self.rows.append(row)
        if cell is not None and row.ratio is not None:
            worst = self.families.setdefault(family, {})
            worst[cell] = max(worst.get(cell, row.ratio), row.ratio)
        return row

    def drift(self) -> float | None:
        """Largest over smallest positive cell constant, pooled over every
        cell; None below two such cells."""
        return _drift(v for worst in self.families.values() for v in worst.values())

    def family_drifts(self) -> dict:
        """Drift within each family, keyed by family."""
        return {fam: _drift(worst.values()) for fam, worst in self.families.items()}

    def passed(self) -> bool:
        """The gate, without the check's own extra condition."""
        flags = [set(r.flag.split()) for r in self.rows]
        ratios = [r.ratio for r in self.rows if r.ratio is not None]
        return (
            not any("failed" in f for f in flags)
            and all(np.isfinite(q) and q >= 0 for q in ratios)
            and all(d is None or d < DRIFT_LIMIT for d in self.family_drifts().values())
            and (bool(self.families) or any("exact-match" in f for f in flags))
        )

    def summary(self) -> dict:
        """Row count, worst ratio, and the pooled drift."""
        ratios = [r.ratio for r in self.rows if r.ratio is not None]
        return {
            "rows": len(self.rows),
            "max_ratio": max(ratios) if ratios else None,
            "drift": self.drift(),
        }

    def report(self, name: str, *, extra: bool = True, notes=None, **summary) -> CheckReport:
        """The check's report: the gate and-ed with ``extra``; ``summary``
        entries extend or override the study's summary."""
        return CheckReport(name, self.rows, {**self.summary(), **summary},
                           bool(self.passed() and extra), list(notes or []))


class SolveCache:
    """Memo for solved instances; keys are value tuples, builders pure.

    A key is ``(Instance.key, kind, *params)``: the realized instance
    (every input its solves and contexts read), the kind of value and that
    value's own parameters, never the check that asks, so checks that need
    one solve share it.  ``hits`` and ``misses`` count the gets that found
    a value and the ones that built it.
    """

    def __init__(self):
        self._store: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key, builder):
        if key in self._store:
            self.hits += 1
        else:
            self._store[key] = builder()
            self.misses += 1
        return self._store[key]


# ---------------------------------------------------------------------------
# shared field helpers

def grad_fields(u: GridFunction):
    gx, gy = gradient(u)
    mag = u.with_values(np.hypot(gx.values, gy.values))
    return gx, gy, mag


def _G_obstacle_gradient(inst: Instance):
    """G(|Dpsi|) on the nodes; None without an obstacle."""
    if inst.obstacle is None:
        return None
    px, py = gradient(inst.obstacle)
    return inst.growth.G(np.hypot(px.values, py.values))


def grad_distance_field(u1: GridFunction, u2: GridFunction) -> GridFunction:
    g1x, g1y = gradient(u1)
    g2x, g2y = gradient(u2)
    return u1.with_values(np.hypot(g1x.values - g2x.values, g1y.values - g2y.values))


def primary_solution(cache: SolveCache, inst: Instance) -> Solution:
    """The instance's own solution: one solve on the measure mollified at
    the finest level its mesh resolves, ``finest_level(inst.grid)`` (atoms
    become bumps, a density passes unchanged)."""
    def solve():
        rhs = inst.measure
        if rhs is not None:
            rhs = mollify_measure(rhs, finest_level(inst.grid), inst.grid)
        return solve_vi(inst.problem(rhs=rhs), inst.solver)
    return cache.get((inst.key, "vi"), solve)


def _param(cfg: ExperimentConfig, key: str, default):
    """The ``[checks]`` value of ``key`` (one of ``CHECK_KEYS``), of ``default``'s kind."""
    if key not in CHECK_KEYS:
        raise KeyError(f"[checks] {key} is not declared in CHECK_KEYS")
    if key not in cfg.check_params:
        return default
    value = typed_value("checks", key, cfg.check_params[key], default)
    if (key == "points" and value < 1) or (key.endswith("radius") and value <= 0):
        raise DataError(f"[checks] {key} must be positive, got {value!r}")
    return value


def sample_points(rng, count: int, lo: float, hi: float, atoms=(), min_sep: float = 0.05):
    """Seeded interior sample points, kept clear of every atom."""
    pts = []
    guard = 0
    while len(pts) < count and guard < 100 * count:
        guard += 1
        p = rng.uniform(lo, hi, size=2)
        if all(np.hypot(p[0] - ax, p[1] - ay) >= min_sep for ax, ay, _ in atoms):
            pts.append((float(p[0]), float(p[1])))
    if len(pts) < count:
        raise DataError("could not place the requested sample points")
    return pts


# ---------------------------------------------------------------------------
# estimate context and right-hand-side assemblies

@dataclass
class EstimateContext:
    """Everything the pointwise-estimate assemblies consume, built once per
    solved instance: gradient fields, obstacle density, the G(|Dpsi|) +
    G(|psi|) field and the oscillation modulus.  The inner cutoff of every
    ladder is the grid's resolution floor, ``inst.grid.r_min``."""

    inst: Instance
    u: GridFunction
    du_x: GridFunction
    du_y: GridFunction
    du_mag: GridFunction
    od: ObstacleDensity | None
    gpsi: GridFunction | None
    modulus: OscillationModulus


def build_context(inst: Instance, solution: Solution, r_max: float) -> EstimateContext:
    gx, gy, mag = grad_fields(solution.u)
    od = None
    gpsi = None
    if inst.obstacle is not None:
        od = ObstacleDensity.build(inst.obstacle, inst.growth)
        gpsi = inst.obstacle.with_values(
            _G_obstacle_gradient(inst) + inst.growth.G(np.abs(inst.obstacle.values))
        )
    modulus = inst.field.oscillation_modulus(
        inst.grid, r_max, gamma_prime=inst.gamma_prime
    )
    return EstimateContext(
        inst=inst,
        u=solution.u,
        du_x=gx,
        du_y=gy,
        du_mag=mag,
        od=od,
        gpsi=gpsi,
        modulus=modulus,
    )


def primary_context(cache: SolveCache, inst: Instance, r_max: float) -> EstimateContext:
    """``build_context`` of the instance's own solution, memoised."""
    sol = primary_solution(cache, inst)
    return cache.get((inst.key, "ctx", r_max), lambda: build_context(inst, sol, r_max))


def _dini_term(ctx: EstimateContext, x, r: float, alpha_hat: float) -> float:
    """The Dini integral of the modulus weighted by G^{-1}(avg_{B_rho} gpsi)."""
    if ctx.gpsi is None or ctx.modulus.is_zero():
        return 0.0
    growth = ctx.inst.growth
    return dini_integral(
        ctx.modulus, r, alpha_hat,
        weight=lambda rho: float(growth.G_inverse(ball_average(ctx.gpsi, x, rho))),
    )


def wolff_ladders(ctx: EstimateContext, x, R: float):
    """x's ``WolffLadder`` of the measure and of the obstacle density over
    [2h, 2R], the Wolff range of every estimate; None for an absent one."""
    measures = (ctx.inst.measure, ctx.od.measure if ctx.od is not None else None)
    return tuple(None if mu is None else WolffLadder.gather(mu, x, ctx.inst.grid.r_min, 2.0 * R)
                 for mu in measures)


def _wolff_pair(ctx: EstimateContext, ladders, beta: float, p: float):
    """(W^mu, W^psi) at (beta, p) of a point's ``wolff_ladders``, 0 for an
    absent one; the seam that the negative controls of the Wolff terms patch."""
    return tuple(0.0 if ladder is None else ladder.potential(beta, p) for ladder in ladders)


def point_ladder(ctx: EstimateContext, x, R: float) -> PointLadder:
    """x's ``PointLadder`` up to R for u, Du, the obstacle kernel and the measure."""
    return PointLadder.gather(ctx.u, (ctx.du_x, ctx.du_y), ctx.du_mag, x, R,
                              od=ctx.od, measure=ctx.inst.measure)


def maximal_sum_rhs(ctx: EstimateContext, x, R: float, alpha: float, du_avg: float,
                    ladders) -> float:
    """Bound for M^#_alpha(u) + M_{1-alpha}(Du).  At alpha = 1 it is the
    pointwise bound for |Du(x)|: avg_{B_R}|Du| + the Wolff pair at
    (1/(ig+1), ig+1) over 2R + the drho/rho Dini-coefficient integral.
    ``du_avg`` is avg_{B_R(x)}|Du| and ``ladders`` are x's ``wolff_ladders``."""
    ig = ctx.inst.growth.ig
    term1 = R ** (1.0 - alpha) * du_avg
    beta = 1.0 - alpha + alpha / (ig + 1.0)
    wmu, wps = _wolff_pair(ctx, ladders, beta, ig + 1.0)
    dini = _dini_term(ctx, x, 2.0 * R, alpha - 1.0)
    return term1 + wmu + wps + dini


def sharp_gradient_rhs(ctx: EstimateContext, x, R: float, alpha: float,
                       ladder: PointLadder, ladders) -> float:
    """Bound for M^#_alpha(Du): maximal terms to the power 1/ig, the Wolff
    pair at (1/(ig+1), ig+1), and the drho/rho^(1+alpha) Dini integral.
    avg_{B_R}|Du| and the maximal terms are read from ``ladder``, x's
    ``point_ladder`` up to R, the Wolff pair from x's ``wolff_ladders``."""
    ig = ctx.inst.growth.ig
    term1 = R ** (-alpha) * float(ladder.du_mean[-1])
    beta_m = 1.0 - alpha * ig
    if beta_m < 0:
        raise DataError("alpha too large for the maximal term (needs alpha <= 1/ig)")
    mmu = 0.0
    if ctx.inst.measure is not None:
        mmu = _g_inverse(ctx.inst, ladder.measure_maximal(beta_m))
    mps = 0.0
    if ctx.od is not None:
        mps = _g_inverse(ctx.inst, ladder.obstacle_maximal(beta_m))
    wmu, wps = _wolff_pair(ctx, ladders, 1.0 / (ig + 1.0), ig + 1.0)
    dini = _dini_term(ctx, x, 2.0 * R, alpha)
    return term1 + mmu + mps + wmu + wps + dini


def gradient_oscillation_rhs(ctx: EstimateContext, du_avg: float, x, y, R: float,
                             alpha: float, ladders_x, ladders_y) -> float:
    """Bound for |Du(x) - Du(y)| at x, y near x0, symmetric in x and y by
    construction; ``du_avg`` is avg_{B_R(x0)}|Du| and ``ladders_x`` and
    ``ladders_y`` are the points' ``wolff_ladders``."""
    ig = ctx.inst.growth.ig
    d = float(np.hypot(x[0] - y[0], x[1] - y[1]))
    if d == 0.0:
        return 0.0
    beta = -alpha + (1.0 + alpha) / (1.0 + ig)
    if beta <= 0:
        raise DataError("alpha too large for the oscillation Wolff pair")
    base = du_avg * (d / R) ** alpha
    wx = sum(_wolff_pair(ctx, ladders_x, beta, ig + 1.0))
    wy = sum(_wolff_pair(ctx, ladders_y, beta, ig + 1.0))
    dx = _dini_term(ctx, x, 2.0 * R, alpha)
    dy = _dini_term(ctx, y, 2.0 * R, alpha)
    return base + (wx + wy) * d**alpha + (dx + dy) * d**alpha


def _g_inverse(inst: Instance, s: float) -> float:
    """s^(1/ig), the power surrogate for g^{-1}(s) in every data term."""
    return s ** (1.0 / inst.growth.ig)


def measure_error_term(inst: Instance, x, R: float) -> float:
    """(|mu|(closed B_R) / R^(n-1))^(1/ig); zero without measure data."""
    if inst.measure is None:
        return 0.0
    return _g_inverse(inst, ball_mass(inst.measure, x, R) / R ** (2 - 1))


def obstacle_error_term(ctx: EstimateContext, x, R: float) -> float:
    """(R avg_{B_R} obstacle kernel)^(1/ig); zero without an obstacle."""
    if ctx.od is None:
        return 0.0
    return _g_inverse(ctx.inst, R * ball_average(ctx.od.kernel, x, R))


def coefficient_error_term(ctx: EstimateContext, mag: GridFunction, x,
                           r_omega: float, r_avg: float) -> float:
    """omega(r_omega)^(1/(1+sg)) {avg|Dv| + G^{-1}[avg (G|Dpsi| + G|psi|)]},
    averages over B_{r_avg}(x) and |Dv| = mag; zero for a coefficient
    without oscillation."""
    om = ctx.modulus
    if om.is_zero():
        return 0.0
    omR = float(np.interp(r_omega, om.radii, om.values))
    bracket = ball_average(mag, x, r_avg)
    if ctx.gpsi is not None:
        bracket += float(ctx.inst.growth.G_inverse(ball_average(ctx.gpsi, x, r_avg)))
    return omR**om.dini_exponent * bracket


def excess_rhs_with_errors(ctx: EstimateContext, x, R: float, rho: float,
                           beta_hat: float, excess_R: float) -> float:
    """Decay term plus the three error terms of the perturbed excess bound."""
    decay = (rho / R) ** beta_hat * excess_R
    amp = (R / rho) ** 2
    return decay + amp * (
        measure_error_term(ctx.inst, x, R) + obstacle_error_term(ctx, x, R)
    ) + amp * coefficient_error_term(ctx, ctx.du_mag, x, R, R)


def fit_excess_decay(gx: GridFunction, gy: GridFunction, x0, radii):
    """Least-squares power-law fit of the gradient excess over the ladder;
    returns (beta_hat, prefactor, rms log-residual, excess values)."""
    exc = np.array([vector_excess(gx, gy, x0, r) for r in radii])
    if np.any(exc <= 0):
        raise DataError("excess vanished on the ladder; instance is trivial")
    coef = np.polyfit(np.log(radii), np.log(exc), 1)
    fit = np.polyval(coef, np.log(radii))
    resid = float(np.sqrt(np.mean((np.log(exc) - fit) ** 2)))
    return float(coef[0]), float(np.exp(coef[1])), resid, exc


# ---------------------------------------------------------------------------
# checks

def check_comparison_inhomogeneous(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Inhomogeneous-vs-homogeneous comparison: avg_{B_R}|Du - Dw| against
    (R avg|f|)^(1/ig), or the (mass/R^{n-1})^(1/ig) form for measures."""
    center = _param(cfg, "center", (0.5, 0.5))
    R = _param(cfg, "radius", 0.25)
    study = RatioStudy()
    skipped = False
    for cell, inst in cells(cfg, "scale", scale="rhs_scale"):
        if inst.measure is None:
            study.add(center, R, 0.0, 0.0)
            skipped = True
            continue
        # atoms make the primary solution a mollification limit, whose
        # bound is the measure form
        measure_form = bool(inst.measure.atoms)
        sol = primary_solution(cache, inst)
        w = _homogeneous_ball(cache, inst, sol, (center, R))
        lhs = ball_average(grad_distance_field(sol.u, w.u), center, R)
        if measure_form:
            rhs = measure_error_term(inst, center, R)
        else:
            rhs = _g_inverse(inst, R * ball_average(inst.measure.density, center, R))
        study.add(center, R, lhs, rhs, exact_tol=10 * inst.solver.tol, cell=cell)
        if measure_form:
            off = _param(cfg, "off_center", (0.78, 0.5))
            r_off = _param(cfg, "off_radius", 0.1)
            w_off = _homogeneous_ball(cache, inst, sol, (off, r_off))
            lhs_off = ball_average(grad_distance_field(sol.u, w_off.u), off, r_off)
            study.add(off, r_off, lhs_off, measure_error_term(inst, off, r_off),
                      exact_tol=10 * inst.solver.tol)
    return study.report("comparison_inhomogeneous",
                        notes=["no right-hand data; check skipped"] if skipped else [])


def _homogeneous_ball(cache: SolveCache, inst: Instance, sol: Solution, ball) -> Solution:
    """The homogeneous obstacle problem on the ball with the primary
    solution ``sol`` as its trace."""
    return cache.get(
        (inst.key, "homog-ball", ball),
        lambda: solve_vi(replace(inst.problem(rhs=None), boundary=sol.u),
                         inst.solver, ball=ball, warm_start=sol.u),
    )


def check_frozen_coefficient(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Frozen-coefficient comparison: avg_{B_R}|Du - Dw| against
    omega(R)^(1/(1+sg)) {avg_{B_2R}|Du| + G^{-1}[avg(G|Dpsi| + G|psi|)]}."""
    center = _param(cfg, "center", (0.5, 0.5))
    R = _param(cfg, "radius", 0.2)
    side_center = _param(cfg, "side_center", (0.33, 0.5))
    side_R = _param(cfg, "side_radius", 0.15)
    study = RatioStudy()
    for cell, inst in cells(cfg, "amplitude"):
        sol = primary_solution(cache, inst)
        ctx = primary_context(cache, inst, 2 * R)
        om = inst.field.coefficient.on_nodes(inst.grid)
        # the side ball's row belongs to no cell
        for ball_center, ball_R, ball_cell in ((center, R, cell), (side_center, side_R, None)):
            ball = (ball_center, ball_R)
            w = cache.get(
                (inst.key, "frozen", ball),
                lambda: solve_frozen(replace(inst.problem(rhs=None), boundary=sol.u),
                                     ball, inst.solver, warm_start=sol.u),
            )
            lhs = ball_average(grad_distance_field(sol.u, w.u), ball_center, ball_R)
            # a ball the coefficient is constant on: freezing is a no-op
            # and the left side must sit at solver tolerance; constancy
            # is decided on the node set the frozen solve averages over
            rhs = 0.0
            if float(np.ptp(om[disk_mask(inst.grid, ball_center, ball_R)])) > 1e-12:
                rhs = coefficient_error_term(ctx, ctx.du_mag, ball_center, ball_R, 2 * ball_R)
            study.add(ball_center, ball_R, lhs, rhs, exact_tol=10 * inst.solver.tol,
                      cell=ball_cell)
    return study.report("frozen_coefficient")


def check_caccioppoli(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Energy bound on the half ball: avg_{B_{R/2}} G(|Du|) against
    avg_{B_R} G(|u - lambda|/R) + avg[G(|psi|/R) + G(|Dpsi|)], with lambda
    the ball mean of u."""
    center = _param(cfg, "center", (0.5, 0.5))
    R0 = _param(cfg, "radius", 0.36)
    study = RatioStudy()
    for cell, inst in cells(cfg, "scale"):
        sol = primary_solution(cache, inst)
        growth = inst.growth
        psi = inst.obstacle
        G_dpsi = _G_obstacle_gradient(inst)
        _, _, mag = grad_fields(sol.u)
        G_du = sol.u.with_values(growth.G(mag.values))
        radii = [R for R in (R0, R0 / 2, R0 / 4) if inst.grid.resolves(R / 2)]
        for R in radii:
            lam = ball_average(sol.u, center, R)
            lhs = ball_average(G_du, center, R / 2)
            rhs = ball_average(
                sol.u.with_values(growth.G(np.abs(sol.u.values - lam) / R)), center, R
            )
            if psi is not None:
                rhs += ball_average(
                    psi.with_values(growth.G(np.abs(psi.values) / R) + G_dpsi), center, R
                )
            # the cell's constant is the worst ratio over the radius
            # ladder (at slack radii the bound is simply not sharp)
            study.add(center, R, lhs, rhs, cell=cell)
    return study.report("caccioppoli", extra=study.drift() is not None)


def check_reverse_holder(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Reverse Hoelder bound: avg_{B_{3R/4}} G(|Du|) against
    G(avg_{B_R}|Du|) + avg[G(|Dpsi|) + G(|psi|)] for the shifted problem
    with u >= 0."""
    center = _param(cfg, "center", (0.5, 0.5))
    R0 = _param(cfg, "radius", 0.36)
    study = RatioStudy()
    for cell, inst in cells(cfg, "scale"):
        sol = primary_solution(cache, inst)
        growth = inst.growth
        # shift data so u >= 0; the homogeneous problem is invariant
        shift = min(0.0, float(sol.u.values.min()))
        _, _, mag = grad_fields(sol.u)
        G_du = sol.u.with_values(growth.G(mag.values))
        psi_term = None
        if inst.obstacle is not None:
            psi_shift = inst.obstacle.values - shift
            psi_term = inst.obstacle.with_values(
                _G_obstacle_gradient(inst) + growth.G(np.abs(psi_shift))
            )
        radii = [R for R in (R0, R0 / 2, R0 / 4) if inst.grid.resolves(3 * R / 4)]
        for R in radii:
            lhs = ball_average(G_du, center, 3 * R / 4)
            rhs = float(growth.G(ball_average(mag, center, R)))
            if psi_term is not None:
                rhs += ball_average(psi_term, center, R)
            study.add(center, R, lhs, rhs, cell=cell)
    return study.report("reverse_holder", extra=study.drift() is not None)


def check_sobolev_median(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Median-based Sobolev bound: G^{-1}(avg G(|u - m(u)|/R)) against
    S^{-1}(avg S(|Du|)) for the solved field and two synthetic fields."""
    center = _param(cfg, "center", (0.5, 0.5))
    R = _param(cfg, "radius", 0.3)
    study = RatioStudy()
    for n, inst in cells(cfg):
        sol = primary_solution(cache, inst)
        growth = inst.growth
        fields = {
            "solution": sol.u,
            "affine": GridFunction.from_callable(inst.grid, lambda X, Y: X),
            "wave": GridFunction.from_callable(
                inst.grid, lambda X, Y: np.sin(4 * np.pi * X)
            ),
        }
        for label, u in fields.items():
            _, _, mag = grad_fields(u)
            m = median(u, center, R)
            lhs = float(growth.G_inverse(
                ball_average(u.with_values(growth.G(np.abs(u.values - m) / R)), center, R)
            ))
            S_vals = np.zeros_like(mag.values)
            pos = mag.values > 0
            S_vals[pos] = growth.S(mag.values[pos], 2)
            rhs = float(growth.S_inverse(ball_average(u.with_values(S_vals), center, R), 2))
            study.add(center, R, lhs, rhs, cell=n, family=label)
    # the reported drift is the worst field's: the fields differ in kind
    drifts = [d for d in study.family_drifts().values() if d is not None]
    return study.report("sobolev_median", drift=max(drifts, default=None))


def _homogeneous_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Constant coefficient, no obstacle or measure, an oscillating trace."""
    return replace(cfg, coefficient={}, obstacle={}, measure={}, boundary={"preset": "sin_affine"})


def _homogeneous_fit(cfg, cache, inst: Instance):
    """Excess-decay fit of ``inst``, an instance of ``_homogeneous_config(cfg)``,
    at the config's decay ball: (radii, beta_hat, prefactor, residual,
    excess values)."""
    center = _param(cfg, "decay_center", (0.38, 0.31))
    R = _param(cfg, "decay_radius", 0.28)
    sol = cache.get((inst.key, "eq"), lambda: solve_equation(inst.problem(), inst.solver))
    gx, gy, _ = grad_fields(sol.u)
    radii = radius_ladder(max(6 * inst.grid.h, R / 8), R, 16)
    return (radii, *fit_excess_decay(gx, gy, center, radii))


def check_excess_decay_homogeneous(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Power-law decay of the gradient excess for the constant-coefficient
    homogeneous equation; reports the fitted exponent and log residual."""
    center = _param(cfg, "decay_center", (0.38, 0.31))
    R = _param(cfg, "decay_radius", 0.28)
    study = RatioStudy()
    summary: dict = {}
    passed = True
    for n, inst in cells(_homogeneous_config(cfg)):
        radii, beta_hat, pref, resid, exc = _homogeneous_fit(cfg, cache, inst)
        if exc[-1] <= 10 * inst.solver.tol:
            study.rows.append(CheckRow(center, R, exc[-1], 0.0, None, "trivial-skip"))
            continue
        for rho, e in zip(radii, exc):
            study.add(center, rho, float(e), float(pref * rho**beta_hat))
        summary[f"beta_hat_n{n}"] = beta_hat
        summary[f"fit_residual_n{n}"] = resid
        passed &= beta_hat > 0.05 and resid < 0.2
    betas = [v for k, v in summary.items() if k.startswith("beta_hat")]
    if len(betas) >= 2:
        summary["beta_spread"] = max(betas) - min(betas)
    summary.update(study.summary())
    return CheckReport("excess_decay_homogeneous", study.rows, summary, passed)


def check_excess_decay_with_errors(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Excess decay for the full instance: the ladder excess against the
    decay term plus measure, obstacle, and coefficient error terms."""
    center = _param(cfg, "errors_center", (0.58, 0.58))
    R = _param(cfg, "errors_radius", 0.2)
    study = RatioStudy()
    notes: list[str] = []
    for (n, inst), (_, hinst) in zip(cells(cfg), cells(_homogeneous_config(cfg))):
        sol = primary_solution(cache, inst)
        ctx = primary_context(cache, inst, 2 * R)
        beta_hat = _homogeneous_fit(cfg, cache, hinst)[1]
        chain = cache.get(
            (inst.key, "chain", (center, R)),
            lambda: comparison_chain(inst.problem(rhs=None), (center, R),
                                     inst.solver, outer=sol),
        )
        stages = _chain_stage_rows(study, inst, ctx, chain, sol, center, R)
        notes.append(
            f"n={n} chain stage ratios: "
            + " ".join(
                f"{r.flag.split('-')[-1]}={'degenerate' if r.ratio is None else format(r.ratio, '.3g')}"
                for r in stages
            )
        )
        # the ladder ends at R, so its last excess is the decay term's excess_R
        radii = radius_ladder(max(6 * inst.grid.h, R / 10), R, 12)
        excess = [vector_excess(ctx.du_x, ctx.du_y, center, rho) for rho in radii]
        for rho, lhs in zip(radii, excess):
            rhs = excess_rhs_with_errors(ctx, center, R, rho, beta_hat, excess[-1])
            study.add(center, rho, lhs, rhs, cell=n)
    return study.report("excess_decay_with_errors", notes=notes)


def _chain_stage_rows(study: RatioStudy, inst: Instance, ctx: EstimateContext,
                      chain, sol, center, R: float) -> list[CheckRow]:
    """Record one row per comparison-chain stage, each against the bound
    shape that controls it: the measure term for the inhomogeneity removal,
    the coefficient modulus for the freezing step, and the obstacle flux
    for the two equation transitions."""
    tol = 10 * inst.solver.tol
    half = R / 2.0
    out = []
    # inhomogeneity removal
    lhs1 = ball_average(grad_distance_field(sol.u, chain.w1.u), center, R)
    rhs1 = measure_error_term(inst, center, R)
    out.append(study.add(center, R, lhs1, rhs1, exact_tol=tol, tag="chain-w1"))
    # coefficient freezing
    lhs2 = ball_average(grad_distance_field(chain.w1.u, chain.w2.u), center, half)
    rhs2 = coefficient_error_term(ctx, grad_fields(chain.w1.u)[2], center, half, R)
    out.append(study.add(center, half, lhs2, rhs2, exact_tol=tol, tag="chain-w2"))
    # obstacle-flux transitions: both gaps are controlled by
    # (R avg(|div a_bar(Dpsi)| + 1))^(1/ig)
    if chain.obstacle_flux is not None:
        flux = chain.obstacle_flux
        flux_field = flux.with_values(np.abs(flux.values) + 1.0)
        rhs34 = _g_inverse(inst, half * ball_average(flux_field, center, half))
    else:
        rhs34 = _g_inverse(inst, half * 1.0)
    for label, a, b in (("chain-w3", chain.w2, chain.w3), ("chain-w4", chain.w3, chain.w4)):
        lhs = ball_average(grad_distance_field(a.u, b.u), center, half)
        out.append(study.add(center, half, lhs, rhs34, exact_tol=tol, tag=label))
    return out


def _estimate_setup(cfg, cache, rng):
    """The estimate checks' cells, radius R, seeded points and alphas.  The
    points keep 2R plus the coarsest cell's floor from the boundary and
    clear every atom; without an alpha axis the alphas follow the
    homogeneous excess-decay exponent on the coarsest mesh."""
    cell_list = list(cells(cfg))
    R = _param(cfg, "estimate_radius", 0.15)
    inst = min((inst for _, inst in cell_list), key=lambda i: i.grid.n)
    r_min = inst.grid.r_min
    margin = 2 * R + r_min + 1e-6
    if margin > 1.0 - margin:
        raise DataError(
            f"estimate_radius {R:g} leaves no room for sample points: the box "
            f"[{margin:.4g}, {1.0 - margin:.4g}] keeping 2R + 2h from the boundary is empty"
        )
    atoms = inst.measure.atoms if inst.measure is not None else ()
    points = sample_points(rng, _param(cfg, "points", 25), margin, 1.0 - margin, atoms,
                           min_sep=max(0.05, r_min))
    alphas = [float(a) for a in cfg.sweep_axis("alpha")]
    if not alphas:
        hinst = build_instance(_homogeneous_config(cfg), inst.grid.n)
        alpha_hat = min(0.5 * _homogeneous_fit(cfg, cache, hinst)[1], 0.4, 0.9 / inst.growth.ig)
        alphas = [0.0, alpha_hat / 2, alpha_hat]
    return cell_list, R, points, alphas


def check_maximal_estimates(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Maximal-function estimates: the sharp/fractional maximal sums of u
    and Du against the Wolff + Dini assemblies, swept over meshes and the
    admissible alpha range."""
    cell_list, R, points, alphas = _estimate_setup(cfg, cache, rng)
    study = RatioStudy()
    alpha0_gap = 0.0
    for n, inst in cell_list:
        ctx = primary_context(cache, inst, 2 * R)
        gathered = [(x, point_ladder(ctx, x, R), wolff_ladders(ctx, x, R)) for x in points]
        for x, ladder, _ in gathered:
            lhs0 = ladder.sharp_maximal(0.0) + ladder.frac_maximal(1.0)
            direct = _direct_beta0(ctx, x, R)
            alpha0_gap = max(alpha0_gap, abs(lhs0 - direct) / max(abs(direct), 1e-300))
        for alpha in alphas:
            for x, ladder, wolffs in gathered:
                lhs1 = ladder.sharp_maximal(alpha) + ladder.frac_maximal(1.0 - alpha)
                rhs1 = maximal_sum_rhs(ctx, x, R, alpha, float(ladder.du_mean[-1]), wolffs)
                study.add(x, R, lhs1, rhs1, cell=(n, alpha), family="maximal_sum")
                lhs2 = ladder.sharp_maximal_vector(alpha)
                rhs2 = sharp_gradient_rhs(ctx, x, R, alpha, ladder, wolffs)
                study.add(x, R, lhs2, rhs2, cell=(n, alpha), family="sharp_gradient",
                          tag="sharp-gradient")
    return study.report(
        "maximal_estimates", extra=alpha0_gap <= 1e-12,
        notes=[f"alpha values: {', '.join(f'{a:.4g}' for a in alphas)}"],
        alpha0_consistency_gap=alpha0_gap,
        **{f"drift_{fam}": d for fam, d in study.family_drifts().items()},
    )


def _direct_beta0(ctx: EstimateContext, x, R: float) -> float:
    """Independent recomputation of the alpha = 0 left side: the plain
    (Fefferman-Stein / Hardy-Littlewood style) ladder suprema."""
    radii = radius_ladder(ctx.inst.grid.r_min, R, 24)
    best_sharp = 0.0
    best_frac = 0.0
    for rho in radii:
        mean = ball_average(ctx.u, x, rho)
        osc = ball_average(ctx.u.with_values(np.abs(ctx.u.values - mean)), x, rho)
        best_sharp = max(best_sharp, osc)
        best_frac = max(best_frac, rho * ball_average(ctx.du_mag, x, rho))
    return best_sharp + best_frac


def check_gradient_bounds(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Pointwise gradient bound |Du(x0)| <= RHS and the oscillation bound
    |Du(x) - Du(y)| <= RHS at seeded points and symmetric pairs."""
    cell_list, R, points, alphas = _estimate_setup(cfg, cache, rng)
    angles = rng.uniform(0.0, 2 * np.pi, size=len(points))
    alpha = max(alphas)
    study = RatioStudy()
    for n, inst in cell_list:
        ctx = primary_context(cache, inst, 2 * R)
        for x0, ang in zip(points, angles):
            du_avg = ball_average(ctx.du_mag, x0, R)
            lhs = float(np.hypot(ctx.du_x.at_node(x0), ctx.du_y.at_node(x0)))
            rhs = maximal_sum_rhs(ctx, x0, R, 1.0, du_avg, wolff_ladders(ctx, x0, R))
            study.add(x0, R, lhs, rhs, cell=n)
            d = np.array([np.cos(ang), np.sin(ang)]) * R / 8.0
            x = (x0[0] + d[0], x0[1] + d[1])
            y = (x0[0] - d[0], x0[1] - d[1])
            dux = np.array([ctx.du_x.at_node(x), ctx.du_y.at_node(x)])
            duy = np.array([ctx.du_x.at_node(y), ctx.du_y.at_node(y)])
            lhs_osc = float(np.linalg.norm(dux - duy))
            rhs_osc = gradient_oscillation_rhs(ctx, du_avg, x, y, R, alpha,
                                               wolff_ladders(ctx, x, R), wolff_ladders(ctx, y, R))
            study.add(x, float(np.hypot(x[0] - y[0], x[1] - y[1])), lhs_osc, rhs_osc,
                      tag="oscillation")
    return study.report("gradient_bounds",
                        notes=[f"oscillation exponent alpha = {alpha:.4g}"])


# ---------------------------------------------------------------------------
# orchestration and reports

CHECKS = {
    "comparison_inhomogeneous": check_comparison_inhomogeneous,
    "frozen_coefficient": check_frozen_coefficient,
    "caccioppoli": check_caccioppoli,
    "reverse_holder": check_reverse_holder,
    "sobolev_median": check_sobolev_median,
    "excess_decay_homogeneous": check_excess_decay_homogeneous,
    "excess_decay_with_errors": check_excess_decay_with_errors,
    "maximal_estimates": check_maximal_estimates,
    "gradient_bounds": check_gradient_bounds,
}


def run_checks(cfg: ExperimentConfig, names=None, seed: int = DEFAULT_SEED):
    """Run the named checks (default: the config's list) one at a time, in
    request order, over one shared solve cache; check ``i`` draws its
    sample points from ``default_rng([seed, i])``."""
    names = list(names if names is not None else cfg.checks)
    if not names:
        raise DataError("no checks requested")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise DataError(f"unknown checks: {', '.join(unknown)}")
    cache = SolveCache()
    return [CHECKS[name](cfg, cache, np.random.default_rng([seed, idx]))
            for idx, name in enumerate(names)]


def _fmt(v) -> str:
    if v is None:
        return ""
    return f"{v:.12g}"


def write_check_csv(path, report: CheckReport) -> None:
    with open(path, "w") as fh:
        fh.write("check,point_x,point_y,radius,lhs,rhs,ratio,flag\n")
        for r in report.rows:
            fh.write(
                f"{report.name},{_fmt(r.point[0])},{_fmt(r.point[1])},"
                f"{_fmt(r.radius)},{_fmt(r.lhs)},{_fmt(r.rhs)},"
                f"{_fmt(r.ratio)},{r.flag}\n"
            )


def write_summary(path, reports) -> None:
    with open(path, "w") as fh:
        fh.write(f"{'check':32s} {'rows':>5s} {'max_ratio':>12s} {'drift':>10s} {'pass':>5s}\n")
        for rep in reports:
            mr = rep.summary.get("max_ratio")
            dr = rep.summary.get("drift")
            fh.write(
                f"{rep.name:32s} {rep.summary.get('rows', 0):5d} "
                f"{_fmt(mr):>12s} {_fmt(dr):>10s} "
                f"{'ok' if rep.passed else 'FAIL':>5s}\n"
            )
            for note in rep.notes:
                fh.write(f"    note: {note}\n")
