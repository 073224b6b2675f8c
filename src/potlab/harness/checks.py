"""Estimate-verification checks.

The constants in the target inequalities are non-constructive, so every
check is ratio-based: it computes both sides at sampled balls or points
and records each LHS/RHS ratio in a ``RatioStudy``.  A cell's empirical
constant is its worst ratio (radius ladders and sample points aggregate
per cell), and cells group into families of one inequality.
Rows whose right side would vanish are flagged instead of divided;
exact-match rows additionally assert that the left side sits at
solver-tolerance level.

A right side is a dict of named terms, one per summand of the paper's
bound (``du``, ``wolff_mu``, ``wolff_psi``, ``dini``, ...), and
``RatioStudy.add`` alone sums it, left to right in insertion order.
Every data term (a measure's mass, the obstacle kernel, a flux average,
a maximal function of either) enters through the growth's own inverse
``g_inverse``, the Orlicz form of the bound.  A negative control wraps
``RatioStudy.add`` and drops, rescales or raises to a power one named
term of every row with a cell: one case per row of
``test_check_fails_on_wrong_bound`` in ``tests/test_harness.py``.

Six checks read a solved cell's fields from its one ``EstimateContext``
(``primary_context``); the other three read their solves directly.

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
from ..grid import (
    GridFunction,
    MeasureData,
    ball_average,
    ball_center,
    ball_mass,
    ball_offsets,
    gradient,
    median,
)
from ..orlicz import N_DIM
from ..potentials import (
    PointLadder,
    WolffLadder,
    obstacle_kernel,
    radius_ladder,
    vector_excess,
)
from ..solver import (
    Solution,
    ball_solve_reads,
    comparison_chain,
    finest_level,
    mollify_measure,
    solve_equation,
    solve_frozen,
    solve_vi,
)
from .config import ExperimentConfig, Instance, build_instance, cells

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
# the contexts' modulus radius: 2R of the largest ball, R = 0.2 (_FROZEN_BALL, _ERRORS_BALL)
_MODULUS_RADIUS = 0.4
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

    def add(self, point, radius, lhs, terms: dict, *, exact_tol=None, cell=None,
            family=None, tag: str = "") -> CheckRow:
        """Record lhs against ``terms``, the right side's named summands,
        added left to right (``{}`` is 0.0).  A right side at or below the
        floor is not divided: the row is flagged ``degenerate-skip``, or,
        given ``exact_tol``, ``exact-match`` when lhs <= exact_tol and
        ``failed`` otherwise.  ``tag`` is appended to the flag."""
        rhs = sum(terms.values(), 0.0)
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
    a value and the ones that built it; ``key in cache`` counts neither.
    """

    def __init__(self):
        self._store: dict = {}
        self.hits = 0
        self.misses = 0

    def __contains__(self, key) -> bool:
        return key in self._store

    def get(self, key, builder):
        if key in self._store:
            self.hits += 1
        else:
            self._store[key] = builder()
            self.misses += 1
        return self._store[key]

    def values(self) -> list:
        """The cached values, in the order they were built."""
        return list(self._store.values())


# ---------------------------------------------------------------------------
# shared field helpers

def grad_fields(u: GridFunction):
    gx, gy = gradient(u)
    mag = u.with_values(np.hypot(gx.values, gy.values))
    return gx, gy, mag


def grad_distance_field(u1: GridFunction, u2: GridFunction) -> GridFunction:
    g1x, g1y = gradient(u1)
    g2x, g2y = gradient(u2)
    return u1.with_values(np.hypot(g1x.values - g2x.values, g1y.values - g2y.values))


def _warm_start(cache: SolveCache, inst: Instance, solution):
    """The warm start of ``inst``'s solve: ``solution(cache, base)``'s
    iterate times the factor of ``inst.start = (base, factor)``, on the
    same mesh (a scale link) or on the mesh n/2 (a mesh link, factor 1);
    None (a flat start) without a link.  Callers resolve it only when their
    own key is missing, and before their ``cache.get``, so no solve is
    built inside another's build and a hit makes no link lookup."""
    if inst.start is None:
        return None
    base, factor = inst.start
    u = solution(cache, base).u
    return u if factor == 1.0 else u.with_values(factor * u.values)


def primary_solution(cache: SolveCache, inst: Instance) -> Solution:
    """The instance's own solution: one solve on the measure mollified at
    the finest level its mesh resolves, ``finest_level(inst.grid)`` (atoms
    become bumps, a density passes unchanged, the zero measure is f = 0),
    started from the linked cell's (``_warm_start``), which on an exact
    scale link is converged already: the solve then takes no step."""
    key = (inst.key, "vi")
    warm = None if key in cache else _warm_start(cache, inst, primary_solution)
    return cache.get(key, lambda: solve_vi(
        inst.problem(rhs=mollify_measure(inst.measure, finest_level(inst.grid), inst.grid)),
        inst.solver, warm_start=warm))


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
    """The fields the checks read of one solved instance, built once per
    instance: gradient fields, the obstacle measure (no atoms, the obstacle
    kernel as density), G(|Dpsi|) and G(|Dpsi|) + G(|psi|), all zero without
    an obstacle, and the oscillation modulus up to ``_MODULUS_RADIUS``.  The
    inner cutoff of every ladder is the grid's floor, ``inst.grid.r_min``."""

    inst: Instance
    u: GridFunction
    du_x: GridFunction
    du_y: GridFunction
    du_mag: GridFunction
    obstacle_measure: MeasureData
    G_dpsi: GridFunction
    gpsi: GridFunction
    modulus: OscillationModulus


def build_context(inst: Instance, solution: Solution) -> EstimateContext:
    """The context of ``solution``; the one place that decides about the obstacle."""
    gx, gy, mag = grad_fields(solution.u)
    if inst.obstacle is None:
        G_dpsi = gpsi = GridFunction.constant(inst.grid, 0.0)
        obstacle_measure = MeasureData([], G_dpsi)
    else:
        psi = inst.obstacle
        obstacle_measure = MeasureData([], obstacle_kernel(psi, inst.growth))
        G_dpsi = psi.with_values(inst.growth.G(grad_fields(psi)[2].values))
        gpsi = psi.with_values(G_dpsi.values + inst.growth.G(np.abs(psi.values)))
    return EstimateContext(
        inst=inst,
        u=solution.u,
        du_x=gx,
        du_y=gy,
        du_mag=mag,
        obstacle_measure=obstacle_measure,
        G_dpsi=G_dpsi,
        gpsi=gpsi,
        modulus=inst.field.oscillation_modulus(inst.grid, _MODULUS_RADIUS),
    )


def primary_context(cache: SolveCache, inst: Instance) -> EstimateContext:
    """``build_context`` of the instance's own solution, memoised."""
    sol = primary_solution(cache, inst)
    return cache.get((inst.key, "ctx"), lambda: build_context(inst, sol))


def _dini_term(ctx: EstimateContext, x, r: float, alpha_hat: float) -> float:
    """The Dini integral of the modulus weighted by G^{-1}(avg_{B_rho} gpsi)."""
    if ctx.modulus.is_zero():
        return 0.0
    growth = ctx.inst.growth
    return dini_integral(
        ctx.modulus, r, alpha_hat,
        weight=lambda rho: float(growth.G_inverse(ball_average(ctx.gpsi, x, rho))),
    )


def wolff_ladders(ctx: EstimateContext, x, R: float):
    """x's ``WolffLadder`` of the measure and of the obstacle measure over
    [2h, 2R], the Wolff range of every estimate."""
    return tuple(WolffLadder.gather(mu, x, ctx.inst.grid.r_min, 2.0 * R)
                 for mu in (ctx.inst.measure, ctx.obstacle_measure))


def point_ladders(ctx: EstimateContext, points, R: float) -> list[PointLadder]:
    """Each point's ``PointLadder`` up to R for u, Du, the obstacle kernel
    and the measure, gathered together."""
    return PointLadder.gather(ctx.u, (ctx.du_x, ctx.du_y), ctx.du_mag, points, R,
                              kernel=ctx.obstacle_measure.density, measure=ctx.inst.measure)


def maximal_sum_rhs(ctx: EstimateContext, x, R: float, alpha: float, du_avg: float,
                    ladders) -> dict:
    """Bound for M^#_alpha(u) + M_{1-alpha}(Du).  At alpha = 1 it is the
    pointwise bound for |Du(x)|: ``du`` = avg_{B_R}|Du|, the Wolff pair
    ``wolff_mu``, ``wolff_psi`` at (1/(ig+1), ig+1) over 2R, and ``dini``,
    the drho/rho Dini-coefficient integral.  ``du_avg`` is avg_{B_R(x)}|Du|
    and ``ladders`` are x's ``wolff_ladders``."""
    ig = ctx.inst.growth.ig
    beta = 1.0 - alpha + alpha / (ig + 1.0)
    wmu, wps = (wolff.potential(beta, ig + 1.0) for wolff in ladders)
    return {"du": R ** (1.0 - alpha) * du_avg, "wolff_mu": wmu, "wolff_psi": wps,
            "dini": _dini_term(ctx, x, 2.0 * R, alpha - 1.0)}


def sharp_gradient_rhs(ctx: EstimateContext, x, R: float, alpha: float,
                       ladder: PointLadder, ladders) -> dict:
    """Bound for M^#_alpha(Du): ``du`` = R^-alpha avg_{B_R}|Du|, the maximal
    terms ``maximal_mu``, ``maximal_psi`` through g^{-1}, the Wolff pair
    at (1/(ig+1), ig+1), and the drho/rho^(1+alpha) Dini integral.
    avg_{B_R}|Du| and the maximal terms are read from ``ladder``, x's
    ``PointLadder`` up to R, the Wolff pair from x's ``wolff_ladders``."""
    ig = ctx.inst.growth.ig
    beta_m = 1.0 - alpha * ig
    if beta_m < 0:
        raise DataError("alpha too large for the maximal term (needs alpha <= 1/ig)")
    wmu, wps = (wolff.potential(1.0 / (ig + 1.0), ig + 1.0) for wolff in ladders)
    g_inverse = ctx.inst.growth.g_inverse
    return {"du": R ** (-alpha) * float(ladder.du_mean[-1]),
            "maximal_mu": g_inverse(ladder.measure_maximal(beta_m)),
            "maximal_psi": g_inverse(ladder.obstacle_maximal(beta_m)),
            "wolff_mu": wmu, "wolff_psi": wps, "dini": _dini_term(ctx, x, 2.0 * R, alpha)}


def gradient_oscillation_rhs(ctx: EstimateContext, du_avg: float, x, y, R: float,
                             alpha: float, ladders_x, ladders_y) -> dict:
    """Bound for |Du(x) - Du(y)| at x, y near x0, symmetric in x and y by
    construction: ``du`` = ``du_avg`` (d/R)^alpha, ``du_avg`` = avg_{B_R(x0)}|Du|,
    and both points' Wolff pairs (``wolff``, from ``ladders_x`` and ``ladders_y``)
    and Dini integrals (``dini``) times d^alpha; no term at x = y."""
    ig = ctx.inst.growth.ig
    d = float(np.hypot(x[0] - y[0], x[1] - y[1]))
    if d == 0.0:
        return {}
    beta = -alpha + (1.0 + alpha) / (1.0 + ig)
    if beta <= 0:
        raise DataError("alpha too large for the oscillation Wolff pair")
    wx, wy = (sum(ladder.potential(beta, ig + 1.0) for ladder in ladders)
              for ladders in (ladders_x, ladders_y))
    dx = _dini_term(ctx, x, 2.0 * R, alpha)
    dy = _dini_term(ctx, y, 2.0 * R, alpha)
    return {"du": du_avg * (d / R) ** alpha, "wolff": (wx + wy) * d**alpha,
            "dini": (dx + dy) * d**alpha}


def measure_error_term(inst: Instance, x, R: float) -> float:
    """g^{-1}(|mu|(closed B_R) / R^(n-1)); zero for the zero measure."""
    return inst.growth.g_inverse(ball_mass(inst.measure, x, R) / R ** (N_DIM - 1))


def obstacle_error_term(ctx: EstimateContext, x, R: float) -> float:
    """g^{-1}(R avg_{B_R} obstacle kernel); zero without an obstacle."""
    return ctx.inst.growth.g_inverse(R * ball_average(ctx.obstacle_measure.density, x, R))


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
    bracket += float(ctx.inst.growth.G_inverse(ball_average(ctx.gpsi, x, r_avg)))
    return omR**om.dini_exponent * bracket


def excess_rhs_with_errors(ctx: EstimateContext, x, R: float, rho: float,
                           beta_hat: float, excess_R: float) -> dict:
    """The perturbed excess bound: the ``decay`` term and the ``measure``,
    ``obstacle`` and ``coefficient`` error terms, each times (R/rho)^2."""
    amp = (R / rho) ** 2
    return {"decay": (rho / R) ** beta_hat * excess_R,
            "measure": amp * measure_error_term(ctx.inst, x, R),
            "obstacle": amp * obstacle_error_term(ctx, x, R),
            "coefficient": amp * coefficient_error_term(ctx, ctx.du_mag, x, R, R)}


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

# the comparison's ball, and the off-centre ball a measure's comparison reads
_COMPARISON_BALL = ((0.5, 0.5), 0.25)
_COMPARISON_OFF_BALL = ((0.78, 0.5), 0.1)


def comparison_w1(cache: SolveCache, inst: Instance, ball) -> Solution:
    """w1 on ``ball``, the homogeneous obstacle problem with the instance's
    own solution as its trace: every check that compares on the ball reads it."""
    sol = primary_solution(cache, inst)
    return cache.get((inst.key, "w1", ball), lambda: solve_vi(
        replace(inst.problem(), boundary=sol.u), inst.solver, ball=ball, warm_start=sol.u))


def _inhomogeneity_row(study: RatioStudy, cache: SolveCache, inst: Instance, ball,
                       measure: float, **row) -> CheckRow:
    """Record avg_B|Du - Dw1| on ``ball`` against the data term ``measure``;
    ``row`` holds ``RatioStudy.add``'s cell, family and tag."""
    x, R = ball
    lhs = ball_average(grad_distance_field(primary_solution(cache, inst).u,
                                           comparison_w1(cache, inst, ball).u), x, R)
    return study.add(x, R, lhs, {"measure": measure}, exact_tol=10 * inst.solver.tol, **row)


def _frozen_row(study: RatioStudy, ctx: EstimateContext, w1: Solution, w2: Solution,
                ball, **row) -> CheckRow:
    """Record avg_{B_r}|Dw1 - Dw2| on ``ball`` = B_r, w2 frozen on it, against
    the ``coefficient`` term omega(r)^(1/(1+sg)) {avg_{B_2r}|Dw1| +
    G^{-1}[avg(G|Dpsi| + G|psi|)]}, or against no term (an exact match)
    when omega is one value on all that a ball solve reads
    (``solver.ball_solve_reads``)."""
    inst = ctx.inst
    x, r = ball
    lhs = ball_average(grad_distance_field(w1.u, w2.u), x, r)
    read = ball_solve_reads(inst.problem(), ball)
    terms = {} if np.ptp(read) <= 1e-12 else {"coefficient": coefficient_error_term(
        ctx, grad_fields(w1.u)[2], x, r, 2 * r)}
    return study.add(x, r, lhs, terms, exact_tol=10 * inst.solver.tol, **row)


def check_comparison_inhomogeneous(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Inhomogeneous-vs-homogeneous comparison: avg_{B_R}|Du - Dw1| against
    g^{-1}(R avg|f|), or the g^{-1}(mass/R^{n-1}) form for measures."""
    center, R = _COMPARISON_BALL
    study = RatioStudy()
    skipped = False
    for cell, inst in cells(cfg, "scale", scale="rhs_scale"):
        if inst.measure.is_empty():
            study.add(center, R, 0.0, {})
            skipped = True
        elif inst.measure.atoms:
            # atoms make the primary solution a mollification limit, whose
            # bound is the measure form
            for ball, ball_cell in ((_COMPARISON_BALL, cell), (_COMPARISON_OFF_BALL, None)):
                _inhomogeneity_row(study, cache, inst, ball,
                                   measure_error_term(inst, *ball), cell=ball_cell)
        else:
            data = inst.growth.g_inverse(R * ball_average(inst.measure.density, center, R))
            _inhomogeneity_row(study, cache, inst, _COMPARISON_BALL, data, cell=cell)
    return study.report("comparison_inhomogeneous",
                        notes=["no right-hand data; check skipped"] if skipped else [])


# the frozen comparison's ball, and a ball beside it that belongs to no cell
_FROZEN_BALL = ((0.5, 0.5), 0.2)
_FROZEN_SIDE_BALL = ((0.33, 0.5), 0.15)


def check_frozen_coefficient(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Frozen-coefficient comparison on each ball B_R: w1(B_R) against w2,
    the frozen solve of w1(B_R) on the same ball, by ``_frozen_row``."""
    study = RatioStudy()
    for cell, inst in cells(cfg, "amplitude"):
        ctx = primary_context(cache, inst)
        for ball, ball_cell in ((_FROZEN_BALL, cell), (_FROZEN_SIDE_BALL, None)):
            w1 = comparison_w1(cache, inst, ball)
            w2 = cache.get((inst.key, "w2", ball), lambda: solve_frozen(
                replace(inst.problem(), boundary=w1.u), ball, inst.solver, warm_start=w1.u))
            _frozen_row(study, ctx, w1, w2, ball, cell=ball_cell)
    return study.report("frozen_coefficient")


# the largest ball of the energy bound's radius ladder
_CACCIOPPOLI_BALL = ((0.5, 0.5), 0.36)


def check_caccioppoli(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Energy bound on the half ball: avg_{B_{R/2}} G(|Du|) against
    avg_{B_R} G(|u - lambda|/R) + avg[G(|psi|/R) + G(|Dpsi|)], with lambda
    the ball mean of u."""
    center, R0 = _CACCIOPPOLI_BALL
    study = RatioStudy()
    for cell, inst in cells(cfg, "scale"):
        ctx = primary_context(cache, inst)
        u, growth, psi = ctx.u, inst.growth, inst.obstacle
        G_du = u.with_values(growth.G(ctx.du_mag.values))
        radii = [R for R in (R0, R0 / 2, R0 / 4) if inst.grid.resolves(R / 2)]
        for R in radii:
            lam = ball_average(u, center, R)
            lhs = ball_average(G_du, center, R / 2)
            terms = {"oscillation": ball_average(
                u.with_values(growth.G(np.abs(u.values - lam) / R)), center, R)}
            if psi is not None:
                terms["obstacle"] = ball_average(
                    psi.with_values(growth.G(np.abs(psi.values) / R) + ctx.G_dpsi.values),
                    center, R)
            # the cell's constant is the worst ratio over the radius
            # ladder (at slack radii the bound is simply not sharp)
            study.add(center, R, lhs, terms, cell=cell)
    return study.report("caccioppoli", extra=study.drift() is not None)


# the largest ball of the reverse Hoelder bound's radius ladder
_REVERSE_HOLDER_BALL = ((0.5, 0.5), 0.36)


def check_reverse_holder(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Reverse Hoelder bound: avg_{B_{3R/4}} G(|Du|) against
    G(avg_{B_R}|Du|) + avg[G(|Dpsi|) + G(|psi|)] for the shifted problem
    with u >= 0."""
    center, R0 = _REVERSE_HOLDER_BALL
    study = RatioStudy()
    for cell, inst in cells(cfg, "scale"):
        ctx = primary_context(cache, inst)
        growth, psi = inst.growth, inst.obstacle
        # shift data so u >= 0; the homogeneous problem is invariant
        shift = min(0.0, float(ctx.u.values.min()))
        G_du = ctx.u.with_values(growth.G(ctx.du_mag.values))
        psi_term = None if psi is None else psi.with_values(
            ctx.G_dpsi.values + growth.G(np.abs(psi.values - shift)))
        radii = [R for R in (R0, R0 / 2, R0 / 4) if inst.grid.resolves(3 * R / 4)]
        for R in radii:
            lhs = ball_average(G_du, center, 3 * R / 4)
            terms = {"du": float(growth.G(ball_average(ctx.du_mag, center, R)))}
            if psi_term is not None:
                terms["obstacle"] = ball_average(psi_term, center, R)
            study.add(center, R, lhs, terms, cell=cell)
    return study.report("reverse_holder", extra=study.drift() is not None)


# the median bound's ball
_SOBOLEV_BALL = ((0.5, 0.5), 0.3)


def check_sobolev_median(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Median-based Sobolev bound: G^{-1}(avg G(|u - m(u)|/R)) against
    S^{-1}(avg S(|Du|)) for the solved field and two synthetic fields."""
    center, R = _SOBOLEV_BALL
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
            S_vals[pos] = growth.S(mag.values[pos])
            du = float(growth.S_inverse(ball_average(u.with_values(S_vals), center, R)))
            study.add(center, R, lhs, {"du": du}, cell=n, family=label)
    # the reported drift is the worst field's: the fields differ in kind
    drifts = [d for d in study.family_drifts().values() if d is not None]
    return study.report("sobolev_median", drift=max(drifts, default=None))


def _homogeneous_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Constant coefficient, no obstacle or measure, an oscillating trace; meshes only."""
    return replace(cfg, coefficient={}, obstacle={}, measure={}, boundary={"preset": "sin_affine"},
                   sweep={"n": cfg.sweep["n"]})


# the ball of the homogeneous excess-decay fit
_DECAY_BALL = ((0.38, 0.31), 0.28)


def _homogeneous_solution(cache: SolveCache, inst: Instance) -> Solution:
    """The equation solve of ``inst``, an instance of ``_homogeneous_config``,
    started from the linked cell's (``_warm_start``)."""
    key = (inst.key, "eq")
    warm = None if key in cache else _warm_start(cache, inst, _homogeneous_solution)
    return cache.get(key, lambda: solve_equation(inst.problem(), inst.solver, warm_start=warm))


def _homogeneous_fit(cache, inst: Instance):
    """Excess-decay fit of ``inst``, an instance of ``_homogeneous_config``,
    on ``_DECAY_BALL``: (radii, beta_hat, prefactor, residual, excess
    values)."""
    center, R = _DECAY_BALL
    gx, gy, _ = grad_fields(_homogeneous_solution(cache, inst).u)
    radii = radius_ladder(max(6 * inst.grid.h, R / 8), R, 16)
    return (radii, *fit_excess_decay(gx, gy, center, radii))


def check_excess_decay_homogeneous(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Power-law decay of the gradient excess for the constant-coefficient
    homogeneous equation; reports the fitted exponent and log residual."""
    study = RatioStudy()
    summary: dict = {}
    passed = True
    for n, inst in cells(_homogeneous_config(cfg)):
        radii, beta_hat, pref, resid, exc = _homogeneous_fit(cache, inst)
        for rho, e in zip(radii, exc):
            study.add(_DECAY_BALL[0], rho, float(e), {"fit": float(pref * rho**beta_hat)})
        summary[f"beta_hat_n{n}"] = beta_hat
        summary[f"fit_residual_n{n}"] = resid
        passed &= beta_hat > 0.05 and resid < 0.2
    betas = [v for k, v in summary.items() if k.startswith("beta_hat")]
    if len(betas) >= 2:
        summary["beta_spread"] = max(betas) - min(betas)
    summary.update(study.summary())
    return CheckReport("excess_decay_homogeneous", study.rows, summary, passed)


# the ball of the perturbed excess decay and its comparison chain
_ERRORS_BALL = ((0.58, 0.58), 0.2)


def check_excess_decay_with_errors(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Excess decay for the full instance: the ladder excess against the
    decay term plus measure, obstacle, and coefficient error terms."""
    center, R = _ERRORS_BALL
    study = RatioStudy()
    notes: list[str] = []
    for (n, inst), (_, hinst) in zip(cells(cfg), cells(_homogeneous_config(cfg))):
        ctx = primary_context(cache, inst)
        beta_hat = _homogeneous_fit(cache, hinst)[1]
        w1 = comparison_w1(cache, inst, _ERRORS_BALL)
        chain = cache.get((inst.key, "chain", _ERRORS_BALL), lambda: comparison_chain(
            inst.problem(), _ERRORS_BALL, inst.solver, w1=w1))
        stages = _chain_stage_rows(study, cache, n, ctx, chain, center, R)
        notes.append(f"n={n} chain stage ratios: " + " ".join(
            f"{stage}={'degenerate' if r.ratio is None else format(r.ratio, '.3g')}"
            for stage, r in stages.items()))
        # the ladder ends at R, so its last excess is the decay term's excess_R
        radii = radius_ladder(max(6 * inst.grid.h, R / 10), R, 12)
        excess = [vector_excess(ctx.du_x, ctx.du_y, center, rho) for rho in radii]
        for rho, lhs in zip(radii, excess):
            study.add(center, rho, lhs,
                      excess_rhs_with_errors(ctx, center, R, rho, beta_hat, excess[-1]), cell=n)
    return study.report("excess_decay_with_errors", notes=notes)


def _chain_stage_rows(study: RatioStudy, cache: SolveCache, cell, ctx: EstimateContext,
                      chain, center, R: float) -> dict[str, CheckRow]:
    """Record one row per comparison-chain stage in ``cell``, keyed by the
    stage, each stage its own family ``chain-<stage>``: the inhomogeneity
    and frozen rows, then the obstacle flux against the two equation
    transitions."""
    inst = ctx.inst
    half = R / 2.0

    def row(stage):
        return {"cell": cell, "family": f"chain-{stage}", "tag": f"chain-{stage}"}

    out = {
        "w1": _inhomogeneity_row(study, cache, inst, (center, R),
                                 measure_error_term(inst, center, R), **row("w1")),
        "w2": _frozen_row(study, ctx, chain.w1, chain.w2, (center, half), **row("w2")),
    }
    # obstacle-flux transitions: both gaps are controlled by the ``flux``
    # term g^{-1}(R avg(|div a_bar(Dpsi)| + 1))
    flux = chain.obstacle_flux
    flux_field = flux.with_values(np.abs(flux.values) + 1.0)
    terms = {"flux": inst.growth.g_inverse(half * ball_average(flux_field, center, half))}
    for stage, a, b in (("w3", chain.w2, chain.w3), ("w4", chain.w3, chain.w4)):
        lhs = ball_average(grad_distance_field(a.u, b.u), center, half)
        out[stage] = study.add(center, half, lhs, terms, exact_tol=10 * inst.solver.tol,
                               **row(stage))
    return out


# the estimate checks' ball radius, and their sample points without [checks] points
_ESTIMATE_RADIUS = 0.15
_POINTS = 25


def _estimate_setup(cfg, cache, rng):
    """The estimate checks' cells, radius R, seeded points and alphas.  The
    points keep 2R plus the coarsest cell's floor from the boundary (a box
    of at least [0.425, 0.575], as every mesh has n >= 16) and clear every
    atom; the alphas follow the homogeneous excess-decay exponent on the
    coarsest mesh."""
    cell_list = list(cells(cfg))
    R = _ESTIMATE_RADIUS
    inst = min((inst for _, inst in cell_list), key=lambda i: i.grid.n)
    r_min = inst.grid.r_min
    margin = 2 * R + r_min + 1e-6
    points = sample_points(rng, cfg.check_params.get("points", _POINTS), margin, 1.0 - margin,
                           inst.measure.atoms, min_sep=max(0.05, r_min))
    hinst = build_instance(_homogeneous_config(cfg), inst.grid.n)
    alpha_hat = min(0.5 * _homogeneous_fit(cache, hinst)[1], 0.4, 0.9 / inst.growth.ig)
    return cell_list, R, points, [0.0, alpha_hat / 2, alpha_hat]


def check_maximal_estimates(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Maximal-function estimates: the sharp/fractional maximal sums of u
    and Du against the Wolff + Dini assemblies, swept over meshes and the
    admissible alpha range."""
    cell_list, R, points, alphas = _estimate_setup(cfg, cache, rng)
    study = RatioStudy()
    alpha0_gap = 0.0
    for n, inst in cell_list:
        ctx = primary_context(cache, inst)
        gathered = [(x, ladder, wolff_ladders(ctx, x, R))
                    for x, ladder in zip(points, point_ladders(ctx, points, R))]
        for (_, ladder, _), direct in zip(gathered, _direct_beta0(ctx, points, R)):
            lhs0 = ladder.sharp_maximal(0.0) + ladder.frac_maximal(1.0)
            alpha0_gap = max(alpha0_gap, abs(lhs0 - direct) / max(abs(direct), 1e-300))
        for alpha in alphas:
            for x, ladder, wolffs in gathered:
                lhs1 = ladder.sharp_maximal(alpha) + ladder.frac_maximal(1.0 - alpha)
                study.add(x, R, lhs1,
                          maximal_sum_rhs(ctx, x, R, alpha, float(ladder.du_mean[-1]), wolffs),
                          cell=(n, alpha), family="maximal_sum")
                study.add(x, R, ladder.sharp_maximal_vector(alpha),
                          sharp_gradient_rhs(ctx, x, R, alpha, ladder, wolffs),
                          cell=(n, alpha), family="sharp_gradient", tag="sharp-gradient")
    return study.report(
        "maximal_estimates", extra=alpha0_gap <= 1e-12,
        notes=[f"alpha values: {', '.join(f'{a:.4g}' for a in alphas)}"],
        alpha0_consistency_gap=alpha0_gap,
        **{f"drift_{fam}": d for fam, d in study.family_drifts().items()},
    )


def _direct_beta0(ctx: EstimateContext, points, R: float) -> list[float]:
    """Independent recomputation of the alpha = 0 left side at each point:
    the plain (Fefferman-Stein / Hardy-Littlewood style) ladder suprema.
    The balls of one radius about every snapped centre are one (points,
    nodes) table, each row reduced by its own mean, mean absolute
    deviation and rho times the mean of |Du|."""
    grid = ctx.inst.grid
    radii = radius_ladder(grid.r_min, R, 24)
    centers = np.array([ball_center(grid, x, R) for x in points])
    ix, iy = centers[:, :1], centers[:, 1:]
    best_sharp = np.zeros(len(points))
    best_frac = np.zeros(len(points))
    for rho in radii:
        di, dj = ball_offsets(rho / grid.h)
        ii, jj = ix + di, iy + dj
        u = ctx.u.values[ii, jj]
        mean = u.mean(axis=1, keepdims=True)
        best_sharp = np.maximum(best_sharp, np.abs(u - mean).mean(axis=1))
        best_frac = np.maximum(best_frac, rho * ctx.du_mag.values[ii, jj].mean(axis=1))
    return (best_sharp + best_frac).tolist()


def check_gradient_bounds(cfg: ExperimentConfig, cache: SolveCache, rng) -> CheckReport:
    """Pointwise gradient bound |Du(x0)| <= RHS and the oscillation bound
    |Du(x) - Du(y)| <= RHS at seeded points and symmetric pairs."""
    cell_list, R, points, alphas = _estimate_setup(cfg, cache, rng)
    angles = rng.uniform(0.0, 2 * np.pi, size=len(points))
    alpha = max(alphas)
    study = RatioStudy()
    for n, inst in cell_list:
        ctx = primary_context(cache, inst)
        for x0, ang in zip(points, angles):
            du_avg = ball_average(ctx.du_mag, x0, R)
            lhs = float(np.hypot(ctx.du_x.at_node(x0), ctx.du_y.at_node(x0)))
            study.add(x0, R, lhs, maximal_sum_rhs(ctx, x0, R, 1.0, du_avg,
                                                  wolff_ladders(ctx, x0, R)), cell=n)
            d = np.array([np.cos(ang), np.sin(ang)]) * R / 8.0
            x = (x0[0] + d[0], x0[1] + d[1])
            y = (x0[0] - d[0], x0[1] - d[1])
            dux = np.array([ctx.du_x.at_node(x), ctx.du_y.at_node(x)])
            duy = np.array([ctx.du_x.at_node(y), ctx.du_y.at_node(y)])
            lhs_osc = float(np.linalg.norm(dux - duy))
            terms = gradient_oscillation_rhs(ctx, du_avg, x, y, R, alpha,
                                             wolff_ladders(ctx, x, R), wolff_ladders(ctx, y, R))
            study.add(x, float(np.hypot(x[0] - y[0], x[1] - y[1])), lhs_osc, terms,
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


def run_checks(cfg: ExperimentConfig, names=None, seed: int = DEFAULT_SEED,
               cache: SolveCache | None = None):
    """Run the named checks (default: the config's list) one at a time, in
    request order, over one shared solve cache (``cache``, a new one by
    default); check ``i`` draws its sample points from
    ``default_rng([seed, i])``."""
    names = list(names if names is not None else cfg.checks)
    if not names:
        raise DataError("no checks requested")
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise DataError(f"unknown checks: {', '.join(unknown)}")
    cache = SolveCache() if cache is None else cache
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
