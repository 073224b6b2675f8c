"""Config loading, RHS assemblies, checks, reports, and the CLI."""

import gc
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from potlab import solver
from potlab.errors import DataError, DomainError
from potlab.field import COEFFICIENT_PRESETS, VectorField
from potlab.grid import (
    Grid2D,
    GridFunction,
    MeasureData,
    ball_average,
    ball_nodes,
    read_raster,
    write_raster,
)
from potlab.harness import checks, config
from potlab.harness.checks import (
    CHECKS,
    CheckRow,
    RatioStudy,
    SolveCache,
    build_context,
    gradient_oscillation_rhs,
    maximal_sum_rhs,
    point_ladders,
    run_checks,
    sample_points,
    sharp_gradient_rhs,
    wolff_ladders,
    write_check_csv,
    write_summary,
)
from potlab.harness.cli import main
from potlab.harness.config import (
    BOUNDARY_PRESETS,
    OBSTACLE_PRESETS,
    SWEEP_AXES,
    ExperimentConfig,
    Instance,
    build_instance,
    cells,
    load_config,
)
from potlab.orlicz import GROWTH_KINDS, GrowthFunction, PowerGrowth, RegularizedPowerGrowth
from potlab.potentials import (
    frac_maximal,
    obstacle_maximal,
    radial_potential_profile,
    radius_ladder,
    sharp_maximal,
    sharp_maximal_vector,
)
from potlab.solver import (
    ObstacleProblem,
    _ball_free_mask,
    comparison_chain,
    frozen_problem,
    solve_frozen,
    solve_op_sequence,
    solve_vi,
)

CONFIGS = Path(__file__).parents[1] / "configs"

TINY = """
[growth]
kind = power
p = 2.0

[coefficient]
preset = constant

[obstacle]
preset = none

[measure]
density = 1.0

[boundary]
preset = zero

[solver]
tol = 1e-7

[checks]
run = comparison_inhomogeneous

[sweep]
n = 24, 32
scale = 1, 4
"""

DIRAC = """
[growth]
kind = power
p = 2.0

[coefficient]
preset = constant

[obstacle]
preset = quadratic
height = -2.0
curvature = -0.5

[measure]
atoms = 0.5 0.5 1.0

[boundary]
preset = fundamental

[solver]
tol = 1e-7

[checks]
run = gradient_bounds

[sweep]
n = 48
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(TINY)
    return path


@pytest.fixture
def dirac_config(tmp_path):
    path = tmp_path / "dirac.ini"
    path.write_text(DIRAC)
    return path


def test_load_config(tiny_config):
    cfg = load_config(tiny_config)
    assert cfg.growth == {"kind": "power", "p": 2.0}
    assert cfg.checks == ["comparison_inhomogeneous"]
    assert cfg.sweep["n"] == [24, 32]
    assert cfg.solver.tol == 1e-7


def test_load_config_missing(tmp_path):
    with pytest.raises(DataError):
        load_config(tmp_path / "absent.ini")


def test_build_instance_scaling(tiny_config):
    cfg = load_config(tiny_config)
    inst = build_instance(cfg, 32, rhs_scale=4.0)
    assert inst.grid.n == 32
    assert np.allclose(inst.measure.density.values, 4.0)
    inst2 = build_instance(cfg, 32, data_scale=2.0)
    assert np.allclose(inst2.measure.density.values, 2.0)


def test_radial_profile_p2_log():
    r = np.array([0.1, 0.25, 0.5, 1.0])
    got = radial_potential_profile(PowerGrowth(2.0), 1.0, r, c0=1.0)
    want = 1.0 - np.log(r) / (2 * np.pi)
    assert np.allclose(got, want, rtol=1e-12)


def test_radial_profile_p4_power():
    r = np.array([0.1, 0.4])
    got = radial_potential_profile(PowerGrowth(4.0), 1.0, r, c0=1.0)
    A = (1.0 / (2 * np.pi)) ** (1 / 3)
    want = 1.0 - A * (r ** (2 / 3) - 1.0) / (2 / 3)
    assert np.allclose(got, want, rtol=1e-12)


def test_radial_profile_generic_matches_power():
    # the quadrature path for a non-power growth that happens to be a power
    r = np.array([0.2, 0.6])
    class Power3(GrowthFunction):
        # g(t) = t^2 outside PowerGrowth: the profile takes its quadrature path
        ig = sg = 2.0

        def g(self, t):
            return PowerGrowth(3.0).g(t)

    generic = radial_potential_profile(Power3(), 1.0, r)
    closed = radial_potential_profile(PowerGrowth(3.0), 1.0, r)
    assert np.allclose(generic, closed, rtol=1e-6)


def test_sample_points_deterministic_and_clear_of_atoms():
    rng1 = np.random.default_rng([7, 0])
    rng2 = np.random.default_rng([7, 0])
    atoms = [(0.5, 0.5, 1.0)]
    p1 = sample_points(rng1, 10, 0.3, 0.7, atoms, min_sep=0.05)
    p2 = sample_points(rng2, 10, 0.3, 0.7, atoms, min_sep=0.05)
    assert p1 == p2
    assert all(np.hypot(x - 0.5, y - 0.5) >= 0.05 for x, y in p1)


# -- assemblies -----------------------------------------------------------------

@pytest.fixture(scope="module")
def dirac_solved(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "dirac.ini"
    path.write_text(DIRAC)
    cfg = load_config(path)
    inst = build_instance(cfg, 48)
    return inst, solve_op_sequence(inst.problem(), inst.measure, [2, 4], inst.solver).finest


@pytest.fixture(scope="module")
def dirac_context(dirac_solved):
    return build_context(*dirac_solved, 0.3)


def test_context_at_the_resolution_floor(dirac_solved):
    # at r_max = 2h the context builds a one-radius modulus
    inst, sol = dirac_solved
    ctx = build_context(inst, sol, inst.grid.r_min)
    assert ctx.modulus.radii.tolist() == [inst.grid.r_min]


def _rhs(terms):
    """The right side ``RatioStudy.add`` makes of ``terms``."""
    return sum(terms.values(), 0.0)


def test_assemblies_monotone_in_data(dirac_context):
    ctx = dirac_context
    x, R = (0.5, 0.3), 0.15

    def maximal_sum(c, alpha):
        return _rhs(maximal_sum_rhs(c, x, R, alpha, ball_average(c.du_mag, x, R),
                                    wolff_ladders(c, x, R)))

    def sharp_gradient(c):
        return _rhs(sharp_gradient_rhs(c, x, R, 0.3, point_ladders(c, [x], R)[0],
                                       wolff_ladders(c, x, R)))

    base_vals = {
        "mstar": maximal_sum(ctx, 1.0),
        "max": maximal_sum(ctx, 0.3),
        "sharp": sharp_gradient(ctx),
    }
    # enlarge the measure: every assembly may only grow
    import dataclasses
    bigger = dataclasses.replace(
        ctx, inst=dataclasses.replace(ctx.inst, measure=ctx.inst.measure.scaled(2.0))
    )
    assert maximal_sum(bigger, 1.0) >= base_vals["mstar"]
    assert maximal_sum(bigger, 0.3) >= base_vals["max"]
    assert sharp_gradient(bigger) >= base_vals["sharp"]
    # enlarge the obstacle kernel pointwise
    kernel = ctx.obstacle_measure.density
    fatter = dataclasses.replace(
        ctx, obstacle_measure=MeasureData([], kernel.with_values(kernel.values + 0.5))
    )
    assert maximal_sum(fatter, 1.0) >= base_vals["mstar"]
    assert sharp_gradient(fatter) >= base_vals["sharp"]
    # enlarge the coefficient modulus pointwise
    import potlab.field as fieldmod
    om = ctx.modulus
    louder = dataclasses.replace(
        ctx,
        modulus=fieldmod.OscillationModulus(
            om.radii, om.values + 0.1, om.dini_exponent
        ),
    )
    assert maximal_sum(louder, 1.0) >= base_vals["mstar"]
    assert sharp_gradient(louder) >= base_vals["sharp"]


def test_measure_scaling_identity(dirac_context):
    # scaling mu by 4 multiplies the measure error term by 4^(1/ig) exactly
    import dataclasses
    from potlab.harness.checks import measure_error_term
    ctx = dirac_context
    x, R = (0.5, 0.3), 0.15
    base = measure_error_term(ctx.inst, x, R)
    scaled = dataclasses.replace(ctx.inst, measure=ctx.inst.measure.scaled(4.0))
    ig = ctx.inst.growth.ig
    assert measure_error_term(scaled, x, R) == pytest.approx(
        4.0 ** (1.0 / ig) * base, rel=1e-12
    )


def test_oscillation_rhs_symmetric(dirac_context):
    ctx = dirac_context
    x0 = (0.5, 0.3)
    x, y = (0.52, 0.31), (0.48, 0.29)
    wx, wy = wolff_ladders(ctx, x, 0.15), wolff_ladders(ctx, y, 0.15)
    du_avg = ball_average(ctx.du_mag, x0, 0.15)
    a = gradient_oscillation_rhs(ctx, du_avg, x, y, 0.15, 0.3, wx, wy)
    b = gradient_oscillation_rhs(ctx, du_avg, y, x, 0.15, 0.3, wy, wx)
    assert a == b


# -- absent data is zero data -------------------------------------------------------

# neither a measure nor an obstacle; the jump coefficient has a nonzero
# modulus, so the Dini terms integrate the zero G(|Dpsi|) + G(|psi|) field
# instead of taking the zero-modulus fast path
NO_DATA = ExperimentConfig(coefficient={"preset": "jump", "amplitude": 0.3},
                           boundary={"preset": "sin_affine"}, sweep={"n": [32]})


@pytest.fixture(scope="module")
def no_data_solved():
    cache = SolveCache()
    inst = build_instance(NO_DATA, 32)
    return cache, checks.primary_context(cache, inst, 0.3)


def test_absent_data_adds_zero_to_every_estimate(no_data_solved):
    _, ctx = no_data_solved
    assert ctx.inst.measure.is_empty() and ctx.inst.obstacle is None
    assert not ctx.modulus.is_zero()
    x, R = (0.45, 0.55), 0.15
    ladders = wolff_ladders(ctx, x, R)
    ladder, = point_ladders(ctx, [x], R)
    du_avg = float(ladder.du_mean[-1])
    for beta in (0.5, 0.25):
        assert [wolff.potential(beta, 2.0) for wolff in ladders] == [0.0, 0.0]
    assert checks.measure_error_term(ctx.inst, x, R) == 0.0
    assert checks.obstacle_error_term(ctx, x, R) == 0.0
    om = ctx.modulus
    assert checks.coefficient_error_term(ctx, ctx.du_mag, x, R, R) == (
        float(np.interp(R, om.radii, om.values)) ** om.dini_exponent
        * ball_average(ctx.du_mag, x, R))
    # every data term is 0.0, so the sums are bitwise the terms that need no data
    for alpha in (0.0, 0.3, 1.0):
        terms = maximal_sum_rhs(ctx, x, R, alpha, du_avg, ladders)
        assert terms == {"du": R ** (1.0 - alpha) * du_avg, "wolff_mu": 0.0, "wolff_psi": 0.0,
                         "dini": 0.0}
        assert _rhs(terms) == terms["du"]
    for alpha in (0.0, 0.3):
        terms = sharp_gradient_rhs(ctx, x, R, alpha, ladder, ladders)
        assert terms == {"du": R ** (-alpha) * du_avg, "maximal_mu": 0.0, "maximal_psi": 0.0,
                         "wolff_mu": 0.0, "wolff_psi": 0.0, "dini": 0.0}
        assert _rhs(terms) == terms["du"]


def test_chain_without_an_obstacle_has_a_zero_flux(no_data_solved):
    cache, ctx = no_data_solved
    inst = ctx.inst
    center, R = (0.5, 0.5), 0.2
    half = (center, R / 2)
    prob = inst.problem()
    w1 = checks.comparison_w1(cache, inst, (center, R))
    chain = comparison_chain(prob, (center, R), inst.solver, w1=w1)
    assert not chain.obstacle_flux.values.any()
    # w3 is driven by the zero flux: bitwise the frozen solve without data
    w3 = solve_frozen(replace(prob, boundary=chain.w1.u), half, inst.solver,
                      warm_start=chain.w1.u)
    assert np.array_equal(chain.w3.u.values, w3.u.values)
    rows = checks._chain_stage_rows(RatioStudy(), cache, 32, ctx, chain, center, R)
    assert list(rows) == ["w1", "w2", "w3", "w4"]
    assert rows["w1"].rhs == 0.0  # no measure: the inhomogeneity term is zero
    assert [rows[s].flag.split()[-1] for s in ("w3", "w4")] == ["chain-w3", "chain-w4"]
    assert all(rows[s].rhs == checks._g_inverse(inst, R / 2) for s in ("w3", "w4"))


# -- the ratio-stability gate ------------------------------------------------------

def _study(*ratios, family=None):
    study = RatioStudy()
    for i, q in enumerate(ratios):
        study.add((0.5, 0.5), 0.1, q, {"t": 1.0}, cell=i, family=family)
    return study


def test_ratio_study_drift_limit_is_strict():
    assert _study(1.0, 2.9).passed()
    assert _study(1.0, 2.9).drift() == pytest.approx(2.9)
    assert not _study(1.0, 3.0).passed()


def test_ratio_study_cell_keeps_worst_ratio():
    study = RatioStudy()
    for q in (0.5, 2.0, 1.0):
        study.add((0.5, 0.5), 0.1, q, {"t": 1.0}, cell="a")
    study.add((0.5, 0.5), 0.1, 1.0, {"t": 1.0}, cell="b")
    assert study.families == {None: {"a": 2.0, "b": 1.0}}
    assert study.drift() == pytest.approx(2.0)


def test_ratio_study_gates_each_family():
    study = _study(1.0, 2.0, family="one")
    study.add((0.5, 0.5), 0.1, 5.0, {"t": 1.0}, cell=0, family="two")
    study.add((0.5, 0.5), 0.1, 6.0, {"t": 1.0}, cell=1, family="two")
    assert study.family_drifts() == {"one": 2.0, "two": pytest.approx(1.2)}
    assert study.drift() == pytest.approx(6.0)  # pooled, reported only
    assert study.passed()


def test_ratio_study_failed_row_fails():
    study = _study(1.0, 1.5)
    row = study.add((0.5, 0.5), 0.1, 1e-3, {}, exact_tol=1e-7, tag="chain-w1")
    assert row.flag == "failed chain-w1"
    assert not study.passed()


def test_ratio_study_nan_ratio_fails():
    assert not _study(1.0, float("nan")).passed()


def test_ratio_study_single_cell_passes():
    study = _study(7.0)
    assert study.drift() is None
    assert study.passed()
    assert study.summary()["drift"] is None


def test_ratio_study_needs_evidence():
    assert not RatioStudy().passed()
    study = RatioStudy()
    study.add((0.5, 0.5), 0.1, 1.0, {})  # degenerate-skip
    study.add((0.5, 0.5), 0.1, 2.0, {"t": 1.0})  # a ratio outside every cell
    assert not study.passed()
    study.add((0.5, 0.5), 0.1, 0.0, {}, exact_tol=1e-7, tag="chain-w2")
    assert study.rows[-1].flag == "exact-match chain-w2"
    assert study.passed()


def test_ratio_study_sums_no_terms_to_a_float_zero():
    row = RatioStudy().add((0.5, 0.5), 0.1, 1.0, {})
    assert row.rhs == 0.0 and type(row.rhs) is float
    assert (row.ratio, row.flag) == (None, "degenerate-skip")


@pytest.mark.parametrize("terms, exact_tol, lhs, flag", [
    # a right side at or below the 1e-14 floor is not divided, whatever
    # terms make it up
    ({"a": 1e-15, "b": 0.0}, None, 1.0, "degenerate-skip"),
    ({"a": 1e-15}, 1e-7, 1e-8, "exact-match"),
    ({"a": 0.0, "b": 1e-15}, 1e-7, 1e-3, "failed"),
    ({"a": 1.0, "b": -1.0}, 1e-7, 1e-3, "failed"),
    ({"a": 6e-15, "b": 6e-15}, None, 1.0, ""),
])
def test_ratio_study_flags_the_sum_of_the_terms(terms, exact_tol, lhs, flag):
    row = RatioStudy().add((0.5, 0.5), 0.1, lhs, terms, exact_tol=exact_tol)
    assert row.flag == flag
    assert (row.ratio is None) == (flag != "")


def test_ratio_study_sums_the_terms_left_to_right():
    # bit for bit the left-to-right + of the values in insertion order:
    # 1e16 + 1 rounds back to 1e16, so another order would give 1.0
    row = RatioStudy().add((0.5, 0.5), 0.1, 1.0, {"a": 1e16, "b": 1.0, "c": -1e16, "d": 2.0})
    assert row.rhs == ((1e16 + 1.0) + -1e16) + 2.0 == 2.0
    values = np.random.default_rng(3).lognormal(0.0, 4.0, size=7).tolist()
    for order in (values, values[::-1], sorted(values)):
        row = RatioStudy().add((0.5, 0.5), 0.1, 1.0, {f"t{i}": v for i, v in enumerate(order)})
        want = order[0]
        for v in order[1:]:
            want = want + v
        assert row.rhs == want


@pytest.fixture(scope="module")
def dirac_two_meshes(tmp_path_factory):
    """The test DIRAC config on n = 32, 64 at 4 points, with one solve
    cache shared by the tests that use it (solves are pure)."""
    path = tmp_path_factory.mktemp("controls") / "dirac2.ini"
    path.write_text(DIRAC.replace("[sweep]\nn = 48", "[sweep]\nn = 32, 64"))
    cfg = load_config(path)
    cfg.check_params["points"] = 4
    return cfg, SolveCache()


def test_gradient_bounds_evaluates_each_pair_once(dirac_two_meshes, monkeypatch):
    # one oscillation bound per pair and mesh: the bound is symmetric by
    # construction (test_oscillation_rhs_symmetric), so nothing swaps it
    cfg, cache = dirac_two_meshes
    calls = []
    rhs = checks.gradient_oscillation_rhs

    def counted(*args):
        calls.append(None)
        return rhs(*args)

    monkeypatch.setattr(checks, "gradient_oscillation_rhs", counted)
    rep = CHECKS["gradient_bounds"](cfg, cache, np.random.default_rng([5, 0]))
    pairs = [r for r in rep.rows if "oscillation" in r.flag.split()]
    assert len(calls) == len(pairs) == cfg.check_params["points"] * len(cfg.sweep["n"])


# -- the failure matrix ------------------------------------------------------------
#
# Every check must be able to fail on a wrong bound.  A case wraps
# RatioStudy.add and passes the named terms of every row with a cell (the
# rows the drift gate reads) through one transform f(term, radius, n), n
# the row's mesh; a transform that returns None drops the term.  A case
# whose check still passes is a strict xfail whose reason gives the drift
# measured on its config.

def _drop(t, R, n):
    return None


def _times_r(k):
    return lambda t, R, n: t * R**k


def _times_mesh(k):
    return lambda t, R, n: t * (n / 32) ** k


def _power(k):
    return lambda t, R, n: t**k


def _non_decaying_field(cache, inst):
    """In place of the homogeneous solve: the cone |x - c| about the fit's
    centre, whose gradient excess is the same at every radius."""
    (cx, cy), _ = checks._DECAY_BALL
    return SimpleNamespace(u=GridFunction.from_callable(
        inst.grid, lambda X, Y: np.hypot(X - cx, Y - cy)))


def _passes(reason):
    """The strict xfail of a case whose check still passes; a case that
    transforms no term, or whose true bound fails, is still an error."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@pytest.fixture(scope="module")
def matrix_config(dirac_two_meshes):
    """The matrix's configs by name, each with one SolveCache: the shipped
    configs, and ``dirac2``, the test DIRAC config of ``dirac_two_meshes``."""
    made = {"dirac2": dirac_two_meshes}

    def get(name):
        if name not in made:
            made[name] = (load_config(CONFIGS / f"{name}.ini"), SolveCache())
        return made[name]
    return get


_WOLFF = ("wolff_mu", "wolff_psi")
_GRADIENT = ("du", "wolff_mu", "wolff_psi", "dini")


@pytest.mark.parametrize("check, config, names, wrong", [
    pytest.param("comparison_inhomogeneous", "dirac", ("measure",), _drop,
                 id="comparison-measure-dropped"),
    pytest.param("comparison_inhomogeneous", "poisson", ("measure",), _power(2),
                 id="comparison-poisson-measure-squared"),
    pytest.param("comparison_inhomogeneous", "dirac", ("measure",), _power(2),
                 id="comparison-dirac-measure-squared"),
    pytest.param("comparison_inhomogeneous", "dirac", ("measure",), _times_r(1),
                 id="comparison-measure-times-R", marks=_passes(
                     "passes with the measure term times R: one ball radius moves every "
                     "cell alike; drift 1.028 as for the true bound, max ratio 1.24")),
    pytest.param("frozen_coefficient", "jump", ("coefficient",), _drop,
                 id="frozen-coefficient-dropped"),
    pytest.param("frozen_coefficient", "jump", ("coefficient",), _times_mesh(2),
                 id="frozen-coefficient-times-mesh2"),
    pytest.param("frozen_coefficient", "jump", ("coefficient",), _power(2),
                 id="frozen-coefficient-squared", marks=_passes(
                     "passes with the coefficient term squared (omega^(2/(1+sg)) and its "
                     "bracket squared): drift 1.04 against the true bound's 1.44, over "
                     "jump.ini's amplitudes 0.2 and 0.4")),
    pytest.param("caccioppoli", "contact", ("obstacle",), _drop,
                 id="caccioppoli-obstacle-dropped", marks=_passes(
                     "passes with the obstacle term dropped: drift 1.007, max ratio 36.2")),
    pytest.param("caccioppoli", "contact", ("oscillation",), _times_r(3),
                 id="caccioppoli-oscillation-times-R3", marks=_passes(
                     "passes with /R dropped from G(|u - lambda|/R) (the term times R^3 at "
                     "p = 3): every cell reads the same radius ladder; drift 1.016 as for "
                     "the true bound")),
    pytest.param("caccioppoli", "contact", ("obstacle",), _power(2),
                 id="caccioppoli-obstacle-squared"),
    pytest.param("reverse_holder", "contact", ("obstacle",), _drop,
                 id="reverse_holder-obstacle-dropped", marks=_passes(
                     "passes with the obstacle term dropped: drift 1.003 (true bound "
                     "1.020), max ratio 1.21")),
    pytest.param("reverse_holder", "contact", ("du",), _power(1 / 3),
                 id="reverse_holder-du-cube-root"),
    pytest.param("sobolev_median", "contact", ("du",), _drop, id="sobolev_median-du-dropped"),
    pytest.param("sobolev_median", "contact", ("du",), _times_r(-1),
                 id="sobolev_median-du-over-R", marks=_passes(
                     "passes with the right side over R (/R dropped from the left side): "
                     "one ball radius moves every cell alike; drift 1.016 as for the true "
                     "bound")),
    pytest.param("excess_decay_homogeneous", "dirac", (), _non_decaying_field,
                 id="excess_decay_homogeneous-non-decaying-field"),
    pytest.param("excess_decay_with_errors", "dirac", ("measure",), _drop,
                 id="excess_decay_with_errors-measure-dropped"),
    pytest.param("excess_decay_with_errors", "dirac", ("flux",), _drop,
                 id="excess_decay_with_errors-flux-dropped"),
    pytest.param("excess_decay_with_errors", "dirac", ("flux",), _times_mesh(2),
                 id="excess_decay_with_errors-flux-times-mesh2"),
    pytest.param("excess_decay_with_errors", "dirac", ("measure",), _power(2),
                 id="excess_decay_with_errors-measure-squared", marks=_passes(
                     "passes with the measure terms squared: the cells are meshes at one "
                     "data scale; gated drifts 1.074 (excess) and 1.080 (chain-w1), "
                     "pooled 5.35")),
    pytest.param("maximal_estimates", "dirac2", _WOLFF, _drop,
                 id="maximal_estimates-wolff-dropped", marks=_passes(
                     "passes with both Wolff terms dropped; the pooled drift is 3.55 but "
                     "the gated per-family drifts are 1.004 (maximal sum) and 1.042 "
                     "(sharp gradient)")),
    pytest.param("maximal_estimates", "dirac2", _WOLFF, _times_mesh(1),
                 id="maximal_estimates-wolff-times-mesh", marks=_passes(
                     "passes with the Wolff pair scaled by n/32; per-family drifts 2.06 "
                     "(maximal sum) and 2.73 (sharp gradient)")),
    pytest.param("maximal_estimates", "dirac2", _WOLFF, _power(2),
                 id="maximal_estimates-wolff-squared", marks=_passes(
                     "passes with both Wolff terms squared: the cells are meshes at one data "
                     "scale, so a wrong data power is left to the homogeneity test; "
                     "per-family drifts 1.47 (maximal sum) and 1.98 (sharp gradient)")),
    pytest.param("maximal_estimates", "dirac2", _GRADIENT + ("maximal_mu", "maximal_psi"),
                 _times_mesh(2), id="maximal_estimates-bound-times-mesh2"),
    pytest.param("gradient_bounds", "dirac2", _WOLFF, _drop,
                 id="gradient_bounds-wolff-dropped", marks=_passes(
                     "passes with both Wolff terms dropped, drift 1.13")),
    pytest.param("gradient_bounds", "dirac2", _WOLFF, _times_mesh(1),
                 id="gradient_bounds-wolff-times-mesh", marks=_passes(
                     "passes with the Wolff pair scaled by n/32, drift 1.91")),
    pytest.param("gradient_bounds", "dirac2", _WOLFF, _power(2),
                 id="gradient_bounds-wolff-squared", marks=_passes(
                     "passes with both Wolff terms squared: the cells are meshes at one data "
                     "scale, so a wrong data power is left to the homogeneity test; "
                     "drift 1.12")),
    # a bound off by (n/32)^2 drifts by 4x between n = 32 and n = 64
    pytest.param("gradient_bounds", "dirac2", _GRADIENT, _times_mesh(2),
                 id="gradient_bounds-bound-times-mesh2"),
])
def test_check_fails_on_wrong_bound(matrix_config, monkeypatch, check, config, names, wrong):
    cfg, cache = matrix_config(config)
    if not CHECKS[check](cfg, cache, np.random.default_rng([5, 0])).passed:
        pytest.fail(f"{check} fails on {config} with the true bound")
    seen = set()
    add = RatioStudy.add

    def wrong_add(study, point, radius, lhs, terms, *, cell=None, **row):
        if cell is not None:
            n = cell if isinstance(cell, int) else cell[0]
            seen.update(terms.keys() & set(names))
            terms = {k: wrong(t, radius, n) if k in names else t for k, t in terms.items()}
            terms = {k: t for k, t in terms.items() if t is not None}
        return add(study, point, radius, lhs, terms, cell=cell, **row)

    if names:
        monkeypatch.setattr(RatioStudy, "add", wrong_add)
    else:  # excess_decay_homogeneous: its verdict is a fit, not a bound
        monkeypatch.setattr(checks, "_homogeneous_solution", wrong)
    rep = CHECKS[check](cfg, cache, np.random.default_rng([5, 0]))
    if seen != set(names):
        pytest.fail(f"no row with a cell carries {sorted(set(names) - seen)}")
    assert rep.passed is False


# -- homogeneity of the gradient bounds' terms -------------------------------------

# the terms that integrate the obstacle kernel: W^psi, M^psi, and the
# oscillation's Wolff pairs (W^mu + W^psi at each of its two points)
_OBSTACLE_TERMS = {"wolff_psi", "maximal_psi", "wolff"}


def _gradient_bound_terms(ctx, x, R, alpha):
    """Every term of the gradient bounds at x, keyed (bound, term): the |Du|
    bound, the maximal sum and the sharp gradient at alpha, and the
    oscillation bound of the pair R/8 either side of x."""
    ladder, = point_ladders(ctx, [x], R)
    wolffs = wolff_ladders(ctx, x, R)
    du_avg = float(ladder.du_mean[-1])
    x1, y1 = (x[0] + R / 8, x[1]), (x[0] - R / 8, x[1])
    bounds = {
        "gradient": maximal_sum_rhs(ctx, x, R, 1.0, du_avg, wolffs),
        "maximal_sum": maximal_sum_rhs(ctx, x, R, alpha, du_avg, wolffs),
        "sharp_gradient": sharp_gradient_rhs(ctx, x, R, alpha, ladder, wolffs),
        "oscillation": gradient_oscillation_rhs(ctx, du_avg, x1, y1, R, alpha,
                                                wolff_ladders(ctx, x1, R),
                                                wolff_ladders(ctx, y1, R)),
    }
    return {(bound, name): t for bound, terms in bounds.items() for name, t in terms.items()}


@pytest.fixture(scope="module")
def scaled_bound_terms(tmp_path_factory):
    """Per config, the gradient-bound terms at data scale 1 and 4: the test
    DIRAC config (p = 2, so the problem is linear) at n = 48, and contact.ini
    (p = 3 with f = 0, 2-homogeneous) at n = 32.  The scale-4 cell multiplies
    the measure, trace and obstacle by 4 and starts from 4 times the
    scale-1 solution."""
    path = tmp_path_factory.mktemp("homogeneity") / "dirac.ini"
    path.write_text(DIRAC)
    out = {}
    for name, cfg, n in (("dirac", load_config(path), 48),
                         ("contact", load_config(CONFIGS / "contact.ini"), 32)):
        out[name] = [_gradient_bound_terms(checks.primary_context(
            SolveCache(), build_instance(cfg, n, data_scale=s), 0.3), (0.45, 0.55), 0.15, 0.3)
            for s in (1.0, 4.0)]
    return out


@pytest.mark.parametrize("config, group", [
    ("dirac", "data"),
    ("contact", "data"),
    pytest.param("dirac", "obstacle", marks=pytest.mark.xfail(strict=True, reason=(
        "finding: the obstacle kernel's +1 is not homogeneous, so at data scale 4 "
        "W^psi and M^psi scale by 0.75 of 4 and the oscillation's Wolff pairs by "
        "0.957 of 4 (n = 48)"))),
    pytest.param("contact", "obstacle", marks=pytest.mark.xfail(strict=True, reason=(
        "finding: the obstacle kernel's +1 is not homogeneous, so at data scale 4 "
        "W^psi scales by 0.843-0.853 of 4, M^psi by 0.830 of 4 and the "
        "oscillation's Wolff pairs by 0.839 of 4 (n = 32)"))),
])
def test_gradient_bound_terms_scale_like_du(scaled_bound_terms, config, group):
    # data scale 4 multiplies the solution, so |Du|, by 4 (measured to 2e-16
    # relative): each term of a gradient bound must scale by 4 too, to the
    # solver tolerance (1e-7 or finer)
    one, four = scaled_bound_terms[config]
    keys = [key for key in one if (key[1] in _OBSTACLE_TERMS) == (group == "obstacle")]
    assert {name for _, name in keys} == ({"wolff_psi", "maximal_psi", "wolff"}
                                          if group == "obstacle"
                                          else {"du", "wolff_mu", "maximal_mu", "dini"})
    assert all(one[key] > 0 for key in keys if key[1] in ("du", "wolff_psi"))
    for key in keys:
        assert four[key] == pytest.approx(4.0 * one[key], rel=1e-6, abs=0.0), key


LADDER_POINTS = ((0.5, 0.53), (0.47, 0.49), (0.3, 0.35), (0.68, 0.62))


def _assert_ladders_equal_operators(ctx, R, alphas):
    # every sup of each point's ladder, gathered as one batch, is bitwise
    # the single-point operator
    r_min = ctx.inst.grid.r_min
    for x, ladder in zip(LADDER_POINTS, checks.point_ladders(ctx, LADDER_POINTS, R)):
        assert float(ladder.du_mean[-1]) == ball_average(ctx.du_mag, x, R)
        for alpha in alphas:
            beta = 1.0 - alpha
            assert ladder.sharp_maximal(alpha) == sharp_maximal(ctx.u, x, alpha, R)
            assert ladder.frac_maximal(beta) == frac_maximal(ctx.du_mag, x, beta, R)
            assert ladder.sharp_maximal_vector(alpha) == sharp_maximal_vector(
                (ctx.du_x, ctx.du_y), x, alpha, R)
            assert ladder.obstacle_maximal(beta) == obstacle_maximal(
                ctx.obstacle_measure.density, x, beta, R)
            assert ladder.measure_maximal(beta) == frac_maximal(
                ctx.inst.measure, x, beta, R, r_min=r_min)


def _ladder_context(tmp_path, measure, boundary):
    """The test DIRAC instance (atom and obstacle), or its density twin, at n = 64."""
    path = tmp_path / "ladder.ini"
    path.write_text(DIRAC.replace("atoms = 0.5 0.5 1.0", measure)
                    .replace("preset = fundamental", f"preset = {boundary}"))
    return checks.primary_context(SolveCache(), build_instance(load_config(path), 64), 0.3)


@pytest.mark.parametrize("measure, boundary", [("atoms = 0.5 0.5 1.0", "fundamental"),
                                               ("density = 1.0", "zero")])
def test_point_ladder_equals_the_maximal_operators(tmp_path, measure, boundary):
    # the first two points sit next to the atom
    ctx = _ladder_context(tmp_path, measure, boundary)
    assert ctx.obstacle_measure.density.values.min() >= 1.0
    assert (ctx.inst.measure.density is not None) == (measure[0] == "d")
    _assert_ladders_equal_operators(ctx, 0.15, (0.0, 0.2, 0.5, 1.0))


def test_a_point_gathered_alone_equals_it_inside_a_batch(tmp_path):
    # a ladder's columns do not depend on which other points share its gather
    ctx = _ladder_context(tmp_path, "atoms = 0.5 0.5 1.0", "fundamental")
    batch = checks.point_ladders(ctx, LADDER_POINTS, 0.15)
    for x, in_batch in zip(LADDER_POINTS, batch):
        alone, = checks.point_ladders(ctx, [x], 0.15)
        for column in ("radii", "u_oscillation", "du_mean", "du_excess", "kernel_mean",
                       "masses"):
            assert getattr(alone, column).tolist() == getattr(in_batch, column).tolist()


def test_a_batch_with_an_outside_ball_names_that_point(tmp_path):
    # B_0.15 about (0.1, 0.5) exits the unit square; its neighbours in the
    # batch do not, and the error names the point that does
    ctx = _ladder_context(tmp_path, "atoms = 0.5 0.5 1.0", "fundamental")
    with pytest.raises(DomainError, match=r"radius 0\.15 at \(0\.1, 0\.5\) exits the domain"):
        checks.point_ladders(ctx, [LADDER_POINTS[0], (0.1, 0.5), LADDER_POINTS[1]], 0.15)


def _plain_ball(grid, center, rho, snap):
    """The nodes of the closed ball d^2 <= rho^2 (1 + 1e-12) around the
    center, snapped to the nearest node by rounding when ``snap``: a mask
    over the full grid from the node coordinates alone."""
    cx, cy = center
    if snap:
        cx, cy = grid.xs[int(round(cx * grid.n - 0.5))], grid.ys[int(round(cy * grid.n - 0.5))]
    d2 = (grid.xs[:, None] - cx) ** 2 + (grid.ys[None, :] - cy) ** 2
    return d2 <= rho**2 * (1.0 + 1e-12)


def _plain_mass(mu, grid, x, rho):
    """|mu| of the closed ball B_rho(x): the atoms inside it plus the
    density summed over the unsnapped ball's nodes times h^2."""
    mass = sum(abs(m) for ax, ay, m in mu.atoms
               if (ax - x[0]) ** 2 + (ay - x[1]) ** 2 <= rho**2 * (1.0 + 1e-12))
    if mu.density is not None:
        mass += mu.density.values[_plain_ball(grid, x, rho, snap=False)].sum() / grid.n**2
    return mass


@pytest.mark.parametrize("measure, boundary", [("atoms = 0.5 0.5 1.0", "fundamental"),
                                               ("density = 1.0", "zero")])
def test_ladders_equal_a_plain_full_grid_loop(tmp_path, measure, boundary):
    # each PointLadder column and each WolffLadder mass against a loop
    # over the whole grid that shares no helper with the ladders, at n = 64
    # and points next to and away from the atom
    ctx = _ladder_context(tmp_path, measure, boundary)
    inst = ctx.inst
    g, R = inst.grid, 0.15
    for x, ladder in zip(LADDER_POINTS, point_ladders(ctx, LADDER_POINTS, R)):
        want = []
        for rho in ladder.radii:
            ball = _plain_ball(g, x, rho, snap=True)
            u, vx, vy = ctx.u.values[ball], ctx.du_x.values[ball], ctx.du_y.values[ball]
            want.append((np.abs(u - u.mean()).mean(), np.abs(ctx.du_mag.values[ball]).mean(),
                         np.hypot(vx - vx.mean(), vy - vy.mean()).mean(),
                         ctx.obstacle_measure.density.values[ball].mean(),
                         _plain_mass(inst.measure, g, x, rho)))
        got = np.column_stack([ladder.u_oscillation, ladder.du_mean, ladder.du_excess,
                               ladder.kernel_mean, ladder.masses])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        for mu, wolff_ladder in zip((inst.measure, ctx.obstacle_measure),
                                    wolff_ladders(ctx, x, R)):
            np.testing.assert_allclose(
                wolff_ladder.masses, [_plain_mass(mu, g, x, rho) for rho in wolff_ladder.radii],
                rtol=1e-12, atol=0)


def test_maximal_estimates_fails_on_a_wrong_ladder(dirac_two_meshes, monkeypatch):
    # a ladder statistic off by 1% moves the alpha = 0 sum away from the
    # independent _direct_beta0; the consistency gap must catch it
    import dataclasses
    cfg, cache = dirac_two_meshes
    gather = checks.point_ladders

    def wrong(ctx, points, R):
        return [dataclasses.replace(ladder, u_oscillation=ladder.u_oscillation * 1.01)
                for ladder in gather(ctx, points, R)]

    honest = CHECKS["maximal_estimates"](cfg, cache, np.random.default_rng([5, 0]))
    assert honest.passed and honest.summary["alpha0_consistency_gap"] <= 1e-12
    monkeypatch.setattr(checks, "point_ladders", wrong)
    rep = CHECKS["maximal_estimates"](cfg, cache, np.random.default_rng([5, 0]))
    assert rep.passed is False
    assert rep.summary["alpha0_consistency_gap"] > 1e-4
    assert max(rep.summary["drift_maximal_sum"], rep.summary["drift_sharp_gradient"]) < 3


def _count_grid_calls(monkeypatch, *names):
    """Log each call of the named ``potlab.grid`` functions, through every
    potlab module that holds them; returns {name: log}."""
    import potlab.grid as gridmod
    calls = {name: [] for name in names}
    for name, log in calls.items():
        original = getattr(gridmod, name)

        def counted(*args, _original=original, _log=log, **kwargs):
            _log.append(None)
            return _original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("potlab") and \
                    vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def _per_point_beta0(ctx, x, R):
    # the plain per-point reference: one ball query per (point, radius)
    radii = radius_ladder(ctx.inst.grid.r_min, R, 24)
    best_sharp = 0.0
    best_frac = 0.0
    for rho in radii:
        ball = ball_nodes(ctx.inst.grid, x, rho)
        u = ctx.u.values[ball]
        mean = float(u.mean())
        best_sharp = max(best_sharp, float(np.abs(u - mean).mean()))
        best_frac = max(best_frac, rho * float(ctx.du_mag.values[ball].mean()))
    return best_sharp + best_frac


def test_direct_beta0_is_the_per_point_loop_bitwise(dirac_two_meshes, monkeypatch):
    # one gather per (mesh, radius) for every point, each point's value
    # bitwise that of its own loop, and no ball query through ball_nodes
    cfg, cache = dirac_two_meshes
    cell_list, R, points, _ = checks._estimate_setup(cfg, cache, np.random.default_rng([5, 0]))
    contexts = [checks.primary_context(cache, inst, 2 * R) for _, inst in cell_list]
    want = [[_per_point_beta0(ctx, x, R) for x in points] for ctx in contexts]
    assert len(contexts) == 2
    calls = _count_grid_calls(monkeypatch, "ball_nodes")
    got = [checks._direct_beta0(ctx, points, R) for ctx in contexts]
    assert got == want
    assert calls["ball_nodes"] == []


def test_maximal_estimates_gathers_per_point_not_per_alpha(tmp_path, monkeypatch):
    # each point's ladders are gathered once per mesh, and avg_{B_R}|Du| of
    # maximal_sum_rhs is read from the point's ladder, so an added alpha adds
    # no ball and no mass gather (a ladder regathered per alpha adds a whole
    # ladder per point)
    calls = _count_grid_calls(monkeypatch, "ball_nodes", "ball_masses")
    path = tmp_path / "dirac.ini"
    path.write_text(DIRAC)
    cfg = load_config(path)
    cfg.check_params["points"] = 4
    cache = SolveCache()
    setup = checks._estimate_setup
    counts = []
    for alphas in ([0.0, 0.2], [0.0, 0.2], [0.0, 0.1, 0.2]):
        monkeypatch.setattr(checks, "_estimate_setup",
                            lambda *args, _alphas=alphas: (*setup(*args)[:3], _alphas))
        for log in calls.values():
            log.clear()
        CHECKS["maximal_estimates"](cfg, cache, np.random.default_rng([5, 0]))
        counts.append({name: len(log) for name, log in calls.items()})
    # the first run also builds the context; the later two run on the cache
    assert counts[1]["ball_nodes"] > 0 and counts[1]["ball_masses"] > 0
    assert counts[2]["ball_nodes"] == counts[1]["ball_nodes"]
    assert counts[2]["ball_masses"] == counts[1]["ball_masses"]


# -- check running / reports -------------------------------------------------------

def test_run_checks_and_reports(tiny_config, tmp_path):
    cfg = load_config(tiny_config)
    reports = run_checks(cfg)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.passed
    assert all(r.rhs > 0 or r.ratio is None for r in rep.rows)
    csv_path = tmp_path / "report.csv"
    write_check_csv(csv_path, rep)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "check,point_x,point_y,radius,lhs,rhs,ratio,flag"
    assert len(lines) == 1 + len(rep.rows)
    write_summary(tmp_path / "summary.txt", reports)
    assert "comparison_inhomogeneous" in (tmp_path / "summary.txt").read_text()


def test_run_checks_unknown_name(tiny_config):
    cfg = load_config(tiny_config)
    with pytest.raises(DataError):
        run_checks(cfg, names=["nonsense"])


def test_frozen_check_on_checkerboard(tmp_path):
    text = TINY.replace(
        "[coefficient]\npreset = constant\n",
        "[coefficient]\npreset = checkerboard\namplitude = 0.2\nperiod = 0.25\n",
    ).replace("run = comparison_inhomogeneous", "run = frozen_coefficient")
    path = tmp_path / "checker.ini"
    path.write_text(text)
    cfg = load_config(path)
    cfg.sweep["n"] = [32, 48]
    rep = run_checks(cfg)[0]
    assert rep.passed
    assert any(r.ratio is not None for r in rep.rows)


def test_frozen_check_decides_constancy_on_the_solved_disk(tmp_path):
    # jump at x = 0.45, side ball B_0.15(0.33, 0.5) at n = 33: the ball's
    # last node is at x = 0.439, before the jump, but the cell energy of
    # the frozen solve reads the cell centred at x = 0.455, past it
    text = TINY.replace(
        "[coefficient]\npreset = constant\n",
        "[coefficient]\npreset = jump\nposition = 0.45\n",
    ).replace("run = comparison_inhomogeneous", "run = frozen_coefficient")
    path = tmp_path / "jump045.ini"
    path.write_text(text)
    cfg = load_config(path)
    cfg.sweep["n"] = [33]
    cfg.sweep["amplitude"] = [0.2]
    rep = run_checks(cfg)[0]
    side = [r for r in rep.rows if r.point == checks._FROZEN_SIDE_BALL[0]]
    assert len(side) == 1
    assert side[0].flag == ""
    assert side[0].ratio is not None and side[0].ratio > 0


def _jump_config(tmp_path, position, n, extra=""):
    """The shipped jump config with its jump moved to ``position``, on one mesh."""
    text = (CONFIGS / "jump.ini").read_text().replace("position = 0.5", f"position = {position}")
    path = tmp_path / "jump.ini"
    path.write_text(text + extra)
    cfg = load_config(path)
    cfg.sweep["n"] = [n]
    return cfg


@pytest.mark.parametrize("n, position", [(64, 0.48047), (128, 0.47461)])
def test_frozen_check_sees_a_jump_just_past_the_side_ball(tmp_path, n, position):
    # at n = 64 the side ball B_0.15(0.33, 0.5) ends at the node x = 0.47656
    # and the jump lies before the next cell centre, x = 0.48438, which the
    # frozen solve's cell energy reads; at n = 128 the jump lies between the
    # nodes x = 0.47266 and 0.48047.  Either way freezing changes the solve,
    # so the side rows are ratio rows, not exact matches that fail
    rep = run_checks(_jump_config(tmp_path, position, n))[0]
    side = [r for r in rep.rows if r.point == checks._FROZEN_SIDE_BALL[0]]
    assert len(side) == 2
    assert all(r.flag == "" and r.ratio is not None and r.ratio > 0 for r in side)
    assert rep.passed


def test_frozen_check_passes_with_data_on_a_constant_ball(tmp_path):
    # the check freezes w1, not u: the [measure] data part u from w1, so a
    # frozen solve of u would differ from u on the side ball, where the
    # coefficient is constant and the right side is 0
    rep = run_checks(_jump_config(tmp_path, 0.5, 64, "\n[measure]\ndensity = 1.0\n"))[0]
    assert rep.passed
    side = [r for r in rep.rows if r.point == checks._FROZEN_SIDE_BALL[0]]
    assert len(side) == 2 and all(r.flag == "exact-match" for r in side)


def _stage_rows(rep, stage):
    return [r for r in rep.rows if r.flag.split()[-1:] == [f"chain-{stage}"]]


def test_chain_freezes_by_the_frozen_rule(tmp_path):
    # with the jump at x = 0.75, omega is one value on all that the chain's
    # frozen solve on the half ball B_0.1(0.58, 0.58) reads, so freezing is
    # a no-op and each mesh's w2 row must be an exact match, as in
    # frozen_coefficient
    path = tmp_path / "jump.ini"
    path.write_text((CONFIGS / "jump.ini").read_text().replace("position = 0.5", "position = 0.75"))
    rep = run_checks(load_config(path), names=["excess_decay_with_errors"])[0]
    w2 = _stage_rows(rep, "w2")
    assert len(w2) == 2 and all(r.flag == "exact-match chain-w2" for r in w2)
    assert rep.passed


def test_excess_decay_with_errors_solves_one_w1_per_ball(monkeypatch):
    # the chain reads the cached w1 of its ball, the only solve on that ball
    balls = []
    _solve = solver._solve

    def logged(prob, cfg, ball, warm_start):
        balls.append(ball)
        return _solve(prob, cfg, ball, warm_start)

    monkeypatch.setattr(solver, "_solve", logged)
    cfg, cache = load_config(CONFIGS / "dirac.ini"), SolveCache()
    CHECKS["excess_decay_with_errors"](cfg, cache, np.random.default_rng(0))
    ball = checks._ERRORS_BALL
    keys = [inst.key for _, inst in cells(cfg)]
    assert [(k[0], k[2]) for k in cache._store if k[1] == "w1"] == [(key, ball) for key in keys]
    for key in keys:
        assert cache._store[(key, "chain", ball)].w1 is cache._store[(key, "w1", ball)]
    assert balls.count(ball) == len(keys)


def test_excess_decay_with_errors_fails_on_mesh_dependent_chain_bound(monkeypatch):
    # each chain stage is its own family with one cell per mesh, so a stage
    # bound off by (n/32)^2 drifts 4x between n = 64 and 128
    cfg, cache = load_config(CONFIGS / "dirac.ini"), SolveCache()
    honest = CHECKS["excess_decay_with_errors"](cfg, cache, np.random.default_rng(0))
    assert honest.passed
    distance = checks.grad_distance_field
    monkeypatch.setattr(checks, "grad_distance_field", lambda u1, u2: u1.with_values(
        distance(u1, u2).values * (u1.grid.n / 32) ** 2))
    wrong = CHECKS["excess_decay_with_errors"](cfg, cache, np.random.default_rng(0))
    assert wrong.passed is False


def test_chain_obstacle_flux_rows_see_contact(tmp_path, monkeypatch):
    # dirac.ini with a bump obstacle touched inside the chain's half ball
    # B_0.1(0.58, 0.58): w2, w3 and w4 differ, so the flux rows are ratio
    # rows that can drift
    text = (CONFIGS / "dirac.ini").read_text()
    for old, new in (
        ("preset = quadratic\nheight = -2.0\ncurvature = -0.5",
         "preset = bump\nheight = 1.5\nradius = 0.12\ncx = 0.6\ncy = 0.6\nfloor = 0.0"),
        ("run = comparison_inhomogeneous, excess_decay_with_errors, maximal_estimates, "
         "gradient_bounds", "run = excess_decay_with_errors"),
        ("n = 64, 128\nscale = 1, 4, 16", "n = 64, 128"),
    ):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "bump.ini"
    path.write_text(text)
    cfg, cache = load_config(path), SolveCache()
    center, half = checks._ERRORS_BALL[0], checks._ERRORS_BALL[1] / 2
    for _, inst in cells(cfg):
        u = checks.primary_solution(cache, inst).u.values
        contact = inst.grid.interior_mask() & (u <= inst.obstacle.values)
        assert contact.any()
        assert np.hypot(inst.grid.X[contact] - center[0],
                        inst.grid.Y[contact] - center[1]).max() < half
    honest = CHECKS["excess_decay_with_errors"](cfg, cache, np.random.default_rng(0))
    w3, w4 = _stage_rows(honest, "w3"), _stage_rows(honest, "w4")
    assert len(w3) == len(w4) == 2
    assert all(r.ratio is not None for r in w3 + w4)
    assert all(a.lhs != b.lhs for a, b in zip(w3, w4))
    assert honest.passed
    distance = checks.grad_distance_field
    monkeypatch.setattr(checks, "grad_distance_field", lambda u1, u2: u1.with_values(
        distance(u1, u2).values * (u1.grid.n / 32) ** 2))
    wrong = CHECKS["excess_decay_with_errors"](cfg, cache, np.random.default_rng(0))
    assert wrong.passed is False
    for stage in ("w3", "w4"):  # each flux row alone drifts past the gate
        lo, hi = sorted(r.ratio for r in _stage_rows(wrong, stage))
        assert hi / lo >= checks.DRIFT_LIMIT


def test_cli_verify_deterministic_on_estimates(dirac_config, tmp_path):
    # the heaviest code path: mollification sweeps, Wolff and maximal
    # assemblies, seeded points; two runs must agree to the byte
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    args = ["verify", "--config", str(dirac_config), "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    name = "check_gradient_bounds.csv"
    assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_comparison_check_skips_without_data(tmp_path):
    text = TINY.replace("[measure]\ndensity = 1.0\n", "[measure]\n")
    path = tmp_path / "nodata.ini"
    path.write_text(text)
    cfg = load_config(path)
    rep = run_checks(cfg)[0]
    assert all(r.flag == "degenerate-skip" for r in rep.rows)
    assert any("skipped" in note for note in rep.notes)


def test_all_checks_registered():
    assert set(CHECKS) == {
        "comparison_inhomogeneous",
        "frozen_coefficient",
        "caccioppoli",
        "reverse_holder",
        "sobolev_median",
        "excess_decay_homogeneous",
        "excess_decay_with_errors",
        "maximal_estimates",
        "gradient_bounds",
    }


# -- CLI -----------------------------------------------------------------------------

@pytest.fixture
def dirac_with_density(tmp_path):
    """The shipped dirac config with a constant density next to its atom,
    on the n = 64 mesh only."""
    text = (CONFIGS / "dirac.ini").read_text()
    for old, new in (("atoms = 0.5 0.5 1.0\n", "atoms = 0.5 0.5 1.0\ndensity = 1.0\n"),
                     ("n = 64, 128\n", "n = 64\n")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "dirac_density.ini"
    path.write_text(text)
    return path


def test_cli_verify_atoms_plus_density(dirac_with_density, tmp_path):
    # the density reaches the boundary; only the atom is mollified
    out = tmp_path / "v"
    assert main(["verify", "--config", str(dirac_with_density), "--out", str(out)]) == 0
    rows = [line.split() for line in (out / "summary.txt").read_text().splitlines()[1:]
            if not line.startswith(" ")]
    assert len(rows) == 4 and all(row[-1] == "ok" for row in rows)


def test_cli_solve_atoms_plus_density(dirac_with_density, tmp_path):
    out = tmp_path / "s"
    assert main(["solve", "--config", str(dirac_with_density), "--out", str(out)]) == 0
    assert (out / "solution.txt").exists()


def test_cli_solve_writes_the_verified_solution(tmp_path):
    # `potlab solve` and the checks reach the solution by the same path
    path = CONFIGS / "dirac.ini"
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
    cfg = load_config(path)
    verified = checks.primary_solution(SolveCache(), build_instance(cfg, max(cfg.sweep["n"])))
    assert np.array_equal(read_raster(tmp_path / "solution.txt").values, verified.u.values)


def test_cli_solve_writes_the_finest_swept_mesh(tiny_config, tmp_path):
    # [sweep] n = 24, 32: the written solution is the one verify checks at 32
    assert main(["solve", "--config", str(tiny_config), "--out", str(tmp_path)]) == 0
    assert read_raster(tmp_path / "solution.txt").grid.n == 32


def test_cli_solve_writes_the_first_listed_scale(tmp_path):
    # [sweep] scale = 4, 16: solve writes the scale-4 cell that verify
    # checks, not a scale-1 solution that no cell holds
    path = tmp_path / "contact.ini"
    path.write_text((CONFIGS / "contact.ini").read_text()
                    .replace("n = 64, 128", "n = 32").replace("scale = 1, 4, 16", "scale = 4, 16"))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    cfg = load_config(path)
    verified = checks.primary_solution(SolveCache(), build_instance(cfg, 32, data_scale=4.0))
    assert np.array_equal(read_raster(tmp_path / "o" / "solution.txt").values, verified.u.values)


def test_cli_verify_deterministic(tiny_config, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["verify", "--config", str(tiny_config), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(tiny_config), "--out", str(out2)]) == 0
    f1 = (out1 / "check_comparison_inhomogeneous.csv").read_bytes()
    f2 = (out2 / "check_comparison_inhomogeneous.csv").read_bytes()
    assert f1 == f2


def test_cli_solve_writes_artifacts(tiny_config, tmp_path):
    out = tmp_path / "sol"
    assert main(["solve", "--config", str(tiny_config), "--out", str(out)]) == 0
    assert (out / "solution.txt").exists()
    diag = dict(line.split() for line in (out / "diagnostics.txt").read_text().splitlines())
    assert "complementarity" in diag
    # p = 2 scales exactly: the scale-1 cell starts from its mesh's scale-4
    # solution divided by 4, already converged
    assert diag["start"] == "scale=4"
    assert (diag["factorizations"] == diag["iterations"] == diag["krylov_iterations"]
            == diag["krylov_misses"] == "0")
    assert diag["lu_nnz"] == "0"
    # a density is solved unmollified: no level to report
    assert "mollification_level" not in diag
    # with no scale axis, [sweep] n = 24, 32 lists no n = 16 cell to start
    # from; p = 2 on one level: one Newton step, one factorization, no CG
    flat = tmp_path / "flat.ini"
    flat.write_text(TINY.replace("scale = 1, 4\n", ""))
    assert main(["solve", "--config", str(flat), "--out", str(tmp_path / "f")]) == 0
    diag = dict(line.split() for line in (tmp_path / "f" / "diagnostics.txt").read_text()
                .splitlines())
    assert diag["start"] == "flat"
    assert diag["factorizations"] == diag["iterations"] == "1"
    assert diag["krylov_iterations"] == diag["krylov_misses"] == "0"
    assert int(diag["lu_nnz"]) > 0


def test_cli_solve_writes_the_mollification_level(tmp_path):
    # the atom of the DIRAC data at n = 64 is solved as its level-8 bump
    path = tmp_path / "dirac64.ini"
    path.write_text(DIRAC.replace("[sweep]\nn = 48", "[sweep]\nn = 64"))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    diag = dict(line.split() for line in (tmp_path / "s" / "diagnostics.txt").read_text()
                .splitlines())
    assert diag["mollification_level"] == "8"


def test_cli_solve_counts_the_finest_cell_alone(tmp_path):
    # [sweep] n = 32, 64: the n = 64 cell starts from the n = 32 one, whose
    # factorizations are its own
    path = tmp_path / "dirac.ini"
    path.write_text(DIRAC.replace("[sweep]\nn = 48", "[sweep]\nn = 32, 64"))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    diag = dict(line.split() for line in (tmp_path / "s" / "diagnostics.txt").read_text()
                .splitlines())
    assert diag["start"] == "n=32"
    fine = build_instance(load_config(path), 64)
    sol = checks.primary_solution(SolveCache(), fine)
    assert diag["factorizations"] == str(sol.factorizations)
    assert sol.factorizations < checks.primary_solution(
        SolveCache(), replace(fine, start=None)).factorizations


def test_cli_solve_infeasible_exits_one(tmp_path, capsys):
    # the solve, not the problem's construction, refuses the trace
    bad = TINY.replace("preset = none", "preset = quadratic\nheight = 3.0\ncurvature = 0.0")
    path = tmp_path / "bad.ini"
    path.write_text(bad)
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "below the obstacle" in err[0]


def test_cli_potential_csv(dirac_config, tmp_path):
    out = tmp_path / "pot"
    assert main(["potential", "--config", str(dirac_config), "--out", str(out)]) == 0
    for name in ("wolff.csv", "maximal.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "x,y,value,truncation_flag"
        assert len(lines) == 65


def test_cli_potential_without_measure_exits_one(tmp_path, capsys):
    path = tmp_path / "nodata.ini"
    path.write_text(TINY.replace("[measure]\ndensity = 1.0\n", ""))
    out = tmp_path / "pot"
    assert main(["potential", "--config", str(path), "--out", str(out)]) == 1
    assert "config carries no measure" in capsys.readouterr().err
    assert not (out / "wolff.csv").exists()


@pytest.mark.parametrize("command", ["solve", "potential", "verify"])
@pytest.mark.parametrize("atom", ["1.5 0.5", "0.5 1.0"])
def test_atom_outside_the_unit_square_is_refused(tmp_path, capsys, command, atom):
    # the error names the atom, not the bump its mollification would make
    path = tmp_path / "outside.ini"
    path.write_text(DIRAC.replace("atoms = 0.5 0.5 1.0", f"atoms = {atom} 1.0"))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    x, y = (float(t) for t in atom.split())
    assert capsys.readouterr().err.splitlines() == [
        f"error: [measure] atom ({x:g}, {y:g}) is not strictly inside the unit square"]
    assert not (tmp_path / "o" / "wolff.csv").exists()


@pytest.mark.parametrize("command", ["solve", "potential", "verify"])
def test_out_that_cannot_be_written_is_one_error_line(dirac_config, tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out, reason in ((taken, "File exists"), (taken / "sub", "Not a directory")):
        assert main([command, "--config", str(dirac_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: cannot write {out}: {reason}"]


def test_coefficient_from_raster_config(tiny_config, tmp_path):
    import potlab.grid as gridmod
    g = gridmod.Grid2D(32)
    omega = gridmod.GridFunction.from_callable(g, lambda X, Y: 1.0 + 0.5 * X)
    raster = tmp_path / "omega.txt"
    gridmod.write_raster(raster, omega)
    cfg = load_config(tiny_config)
    cfg.coefficient = {"file": raster.name}
    cfg.base_dir = tmp_path
    inst = build_instance(cfg, 32)
    got = inst.field.coefficient.on_nodes(inst.grid)
    assert np.allclose(got, 1.0 + 0.5 * inst.grid.X, atol=1e-9)


def test_raster_data_scales_with_the_data(tiny_config, tmp_path):
    # a raster obstacle or boundary is data like a preset's: data_scale
    # multiplies it
    raster = tmp_path / "psi.txt"
    write_raster(raster, GridFunction.from_callable(Grid2D(32), lambda X, Y: 0.1 * X * Y))
    cfg = load_config(tiny_config)
    cfg.obstacle = cfg.boundary = {"preset": "file", "path": raster.name}
    inst = build_instance(cfg, 32, data_scale=4.0)
    assert np.array_equal(inst.obstacle.values, 4.0 * read_raster(raster).values)
    assert np.array_equal(inst.boundary.values, 4.0 * read_raster(raster).values)


@pytest.mark.parametrize("section, old, new, sign", [
    # the obstacle stays below the zero trace, a density is nonnegative
    ("obstacle", "preset = none", "preset = file\npath = raster.txt", -1.0),
    # without a source nothing else ties the solve to the cell's mesh
    ("boundary", "density = 1.0\n\n[boundary]\npreset = zero",
     "\n[boundary]\npreset = file\npath = raster.txt", 1.0),
    ("measure", "density = 1.0", "density = raster.txt", 1.0),
], ids=["obstacle", "boundary", "density"])
def test_raster_off_the_cells_mesh_is_refused(tmp_path, capsys, section, old, new, sign):
    # a raster is not resampled: a cell on another mesh is a data error
    # naming the section and both meshes, not a solve on the raster's mesh
    write_raster(tmp_path / "raster.txt",
                 GridFunction.from_callable(Grid2D(64), lambda X, Y: sign * (0.1 + X * Y)))
    text = (CONFIGS / "poisson.ini").read_text().replace(old, new).replace(
        "run = comparison_inhomogeneous", "run = sobolev_median")
    path = tmp_path / "raster.ini"
    path.write_text(text)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"[{section}] raster is on the n = 64 mesh, not the cell's n = 128" in err[0]
    path.write_text(text.replace("n = 64, 128", "n = 64"))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_cells_cross_the_meshes_outermost():
    # load_config refuses an amplitude sweep on a preset without amplitude,
    # so the swept coefficient is a jump
    cfg = ExperimentConfig(coefficient={"preset": "jump"},
                           sweep={"n": [32, 16], "scale": [1, 4], "amplitude": [0.2, 0.4]})
    assert [cell for cell, _ in cells(cfg)] == [32, 16]
    assert [cell for cell, _ in cells(cfg, "scale")] == [(32, 1.0), (32, 4.0),
                                                         (16, 1.0), (16, 4.0)]
    for cell, inst in cells(cfg, "scale", "amplitude"):
        assert len(cell) == 3 and inst.grid.n == cell[0]
    # scale drives the named build_instance keyword: key = (n, data_scale, rhs_scale, ...)
    assert [inst.key[1:3] for _, inst in cells(cfg, "scale")] == [(1.0, 1.0), (4.0, 1.0)] * 2
    assert [inst.key[1:3] for _, inst in cells(cfg, "scale", scale="rhs_scale")] == [
        (1.0, 1.0), (1.0, 4.0)] * 2
    swept = list(cells(cfg, "amplitude"))
    assert [cell for cell, _ in swept] == [(32, 0.2), (32, 0.4), (16, 0.2), (16, 0.4)]
    assert [dict(inst.key[4])["amplitude"] for _, inst in swept] == [0.2, 0.4] * 2


def test_section_amplitude_is_the_amplitude_axis_default():
    # without [sweep] amplitude the section's own amplitude is the one
    # cell value per mesh, not the default sweep 0.2, 0.4
    cfg = ExperimentConfig(coefficient={"preset": "jump", "amplitude": 0.3},
                           sweep={"n": [64, 128]})
    own = list(cells(cfg, "amplitude"))
    assert [cell for cell, _ in own] == [(64, 0.3), (128, 0.3)]
    assert [dict(inst.key[4])["amplitude"] for _, inst in own] == [0.3, 0.3]
    # a swept amplitude still replaces it
    cfg.sweep = {"n": [16], "amplitude": [0.1, 0.5]}
    assert [cell for cell, _ in cells(cfg, "amplitude")] == [(16, 0.1), (16, 0.5)]


def test_an_axis_a_check_does_not_cross_is_held_at_its_first_value(tmp_path):
    # jump.ini with amplitude = 0.3, 0.5: the checks that cross no amplitude
    # realize 0.3, not the preset's default 0.2
    path = tmp_path / "jump.ini"
    path.write_text((CONFIGS / "jump.ini").read_text()
                    .replace("amplitude = 0.2, 0.4", "amplitude = 0.3, 0.5"))
    cfg = load_config(path)
    held = list(cells(cfg))
    assert [cell for cell, _ in held] == [64, 128]
    for _, inst in held:
        assert set(np.unique(inst.field.coefficient.on_nodes(inst.grid))) == {0.7, 1.3}
    # scale is held as data_scale, at 1 when the config lists none
    cfg.sweep = {"n": [16], "scale": [4, 16], "amplitude": [0.3, 0.5]}
    assert [inst.key[1:3] for _, inst in cells(cfg)] == [(4.0, 1.0)]
    assert [inst.key[1:3] for _, inst in cells(cfg, "amplitude")] == [(4.0, 1.0)] * 2
    assert [inst.key[1:3] for _, inst in cells(cfg, "scale", scale="rhs_scale")] == [
        (1.0, 4.0), (1.0, 16.0)]
    cfg.sweep = {"n": [16], "amplitude": [0.3, 0.5]}
    assert [inst.key[1:3] for _, inst in cells(cfg)] == [(1.0, 1.0)]


def test_amplitude_has_one_source():
    # without [sweep] amplitude a jump or checkerboard preset has one cell
    # per mesh at the section's amplitude, the preset's 0.2 when it sets none
    for preset in ("jump", "checkerboard"):
        cfg = ExperimentConfig(coefficient={"preset": preset}, sweep={"n": [64, 128]})
        got = list(cells(cfg, "amplitude"))
        assert [cell for cell, _ in got] == [(64, None), (128, None)]
        for _, inst in got:
            assert set(np.unique(inst.field.coefficient.on_nodes(inst.grid))) == {0.8, 1.2}


def test_amplitude_set_twice_is_refused(tmp_path, capsys):
    # a [coefficient] amplitude that [sweep] amplitude would override
    path = tmp_path / "jump.ini"
    path.write_text((CONFIGS / "jump.ini").read_text()
                    .replace("preset = jump\n", "preset = jump\namplitude = 0.3\n"))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "[coefficient] amplitude" in err[0] and "[sweep] amplitude" in err[0]


def test_data_scale_is_an_exact_symmetry_at_p3():
    # p = 3 power growth is 2-homogeneous and contact.ini has f = 0, so
    # scaling boundary and obstacle together by s scales the solution by s.
    # Measured at n = 32: max|u_s - s u_1| / max|s u_1| is 1.4e-16 at s = 4
    # and 4.6e-12 at s = 16, with 14% of the nodes in contact.  The scaled
    # cells' own solves start from s u_1 (their scale link), so the scaled
    # problems are solved here from a flat start
    cfg = load_config(CONFIGS / "contact.ini")
    inst = build_instance(cfg, 32)
    u1 = checks.primary_solution(SolveCache(), inst).u.values
    for s in (4.0, 16.0):
        scaled = build_instance(cfg, 32, data_scale=s)
        flat = solve_vi(scaled.problem(), scaled.solver)
        assert flat.iterations > 0
        us = flat.u.values
        assert np.mean(us - scaled.obstacle.values <= 1e-9) > 0.1
        assert np.abs(us - s * u1).max() <= inst.solver.tol * np.abs(s * u1).max()


# every ball a check solves on: the comparison's two, the frozen check's
# two, and the comparison chain's ball and half ball
_SOLVED_BALLS = {
    "comparison": checks._COMPARISON_BALL,
    "comparison-off": checks._COMPARISON_OFF_BALL,
    "frozen": checks._FROZEN_BALL,
    "frozen-side": checks._FROZEN_SIDE_BALL,
    "errors": checks._ERRORS_BALL,
    "errors-half": (checks._ERRORS_BALL[0], checks._ERRORS_BALL[1] / 2),
}


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("ball", list(_SOLVED_BALLS.values()), ids=list(_SOLVED_BALLS))
def test_comparison_averages_over_the_nodes_it_solved_on(ball, n):
    # avg_B |D(u - w)| reads the node set that w was solved on, and the
    # frozen coefficient is the mean over that same set
    g = Grid2D(n)
    averaged = np.zeros((g.n, g.n), dtype=bool)
    averaged[ball_nodes(g, *ball)] = True
    assert np.array_equal(averaged, _ball_free_mask(g, ball))
    coef = COEFFICIENT_PRESETS["checkerboard"]()
    prob = ObstacleProblem(field=VectorField(PowerGrowth(2.0), coef),
                           boundary=GridFunction.constant(g, 0.0))
    frozen = frozen_problem(prob, ball).field.coefficient.at(*ball[0])
    assert frozen == ball_average(GridFunction(g, coef.on_nodes(g)), *ball)


@pytest.mark.parametrize("name", ["poisson.ini", "dirac.ini"])
def test_comparison_ratios_are_invariant_under_rhs_scale_at_p2(name):
    # at p = 2 the problem is linear in the data, so |Du - Dw| and the data
    # term both scale by the source scale.  Measured at n = 32: the three
    # cells' ratios agree to 4e-16 relative
    cfg = load_config(CONFIGS / name)
    cfg.sweep["n"] = [32]
    rep = CHECKS["comparison_inhomogeneous"](cfg, SolveCache(), np.random.default_rng(0))
    ratios = [r.ratio for r in rep.rows if r.ratio is not None]
    assert cfg.sweep["scale"] == [1.0, 4.0, 16.0] and len(ratios) == 3
    assert max(ratios) / min(ratios) - 1.0 <= 1e-10


def test_comparison_without_right_hand_data_notes_once():
    # 2 meshes x 3 source scales skip: one degenerate row each, one note
    cfg = ExperimentConfig(sweep={"n": [16, 32], "scale": [1.0, 4.0, 16.0]})
    rep = run_checks(cfg, names=["comparison_inhomogeneous"])[0]
    assert len(rep.rows) == 6
    assert rep.notes == ["no right-hand data; check skipped"]


def test_every_preset_builds_from_its_required_keys(tmp_path):
    # every entry of every table realizes on the smallest mesh, given only
    # the keys it cannot default
    raster = tmp_path / "raster.txt"
    write_raster(raster, GridFunction.from_callable(Grid2D(16), lambda X, Y: 1.0 + X * Y))
    t = np.geomspace(1e-3, 1e3, 16)
    np.savetxt(tmp_path / "table.txt", np.column_stack([t, t**2]))
    tables = [
        ("growth", "kind", GROWTH_KINDS,
         {"power": {"p": 3.0}, "regularized_power": {"p": 3.0, "mu": 1.0},
          "tabulated": {"file": "table.txt"}}),
        ("coefficient", "preset", [*COEFFICIENT_PRESETS, "file"], {"file": {"file": raster.name}}),
        ("obstacle", "preset", OBSTACLE_PRESETS, {"file": {"path": raster.name}}),
        ("boundary", "preset", BOUNDARY_PRESETS, {"file": {"path": raster.name}}),
    ]
    for section, key, names, required in tables:
        for name in names:
            # fundamental needs an atom: every instance carries one
            cfg = ExperimentConfig(base_dir=tmp_path, measure={"atoms": "0.5 0.5 1.0"})
            setattr(cfg, section, {key: name, **required.get(name, {})})
            inst = build_instance(cfg, 16)
            assert inst.grid.n == inst.boundary.grid.n == 16
            assert (inst.obstacle is None) == (section != "obstacle" or name == "none")
    for measure in ({}, {"density": 1.0}, {"density": raster.name},
                    {"atoms": "0.5 0.5 1.0; 0.25 0.75 2.0", "density": 1.0}):
        inst = build_instance(ExperimentConfig(base_dir=tmp_path, measure=measure), 16)
        assert inst.measure.is_empty() == (not measure)


def test_the_fundamental_trace_scales_with_the_data_only():
    # the trace preset reads the unit measure: data scale 4 multiplies the
    # ring by 4, and source scale 4 (the measure alone) leaves it as it is
    cfg = load_config(CONFIGS / "dirac.ini")
    ring = ~Grid2D(64).interior_mask()
    unit, data4, rhs4 = (build_instance(cfg, 64, **kw).boundary.values[ring]
                         for kw in ({}, {"data_scale": 4.0}, {"rhs_scale": 4.0}))
    assert np.abs(unit).max() > 1.0
    assert np.array_equal(data4, 4.0 * unit) and np.array_equal(rhs4, unit)
    assert build_instance(cfg, 64, rhs_scale=4.0).measure.atoms == [(0.5, 0.5, 4.0)]


@pytest.mark.parametrize("old, new, message", [
    # [sweep] names only the axes verify crosses; a setting lives in [solver]
    ("[sweep]\n", "[sweep]\ngamma_prime = 4\n", "[sweep] gamma_prime is not an axis"),
    ("[sweep]\n", "[sweep]\nepsilon = 1e-6\n", "set epsilon under [solver]"),
    ("[sweep]\n", "[sweep]\nmesh = 32\n", "[sweep] mesh is not an axis"),
    # the estimate checks' alphas follow the homogeneous fit: no axis
    ("[sweep]\n", "[sweep]\nalpha = 0.1, 0.2\n", "[sweep] alpha is not an axis (known: n, "
     "scale, amplitude); the estimate checks' alphas follow the homogeneous excess-decay fit"),
    # a config lists its meshes: no hidden default
    ("n = 64, 128\n", "", "[sweep] n is missing"),
    # an amplitude sweep that the preset would ignore names the preset
    ("n = 64, 128", "n = 64, 128\namplitude = 0.2, 0.4", "[sweep] amplitude sweeps a jump or "
     "checkerboard coefficient; the constant coefficient has no amplitude"),
    # the sample seed has one source, verify's and potential's --seed
    ("tol = 1e-8", "tol = 1e-8\nseed = 4", "[solver] seed is not a key (known: epsilon, tol, "
     "max_iter); the sample seed is --seed"),
    ("[sweep]\n", "[sweep]\nseed = 4\n", "the sample seed is --seed"),
    # the oscillation modulus's exponent is no solver setting
    ("tol = 1e-8", "tol = 1e-8\ngamma_prime = 4", "[solver] gamma_prime is not a key"),
    # [checks] is run and points: each check's ball is a constant next to it
    ("[checks]\n", "[checks]\ncenter = 0.5\n", "[checks] center is not a key"),
    ("[checks]\n", "[checks]\ncenter = 0.5 0.5 0.5\n", "[checks] center is not a key"),
    ("[checks]\n", "[checks]\nradius = wide\n", "[checks] radius is not a key"),
    # a count of sample points is at least 1
    ("run = comparison_inhomogeneous", "run = gradient_bounds\npoints = 0",
     "[checks] points must be positive, got 0"),
    ("run = comparison_inhomogeneous", "run = gradient_bounds\npoints = -3",
     "[checks] points must be positive, got -3"),
    ("[checks]\n", "[checks]\nradius = -0.36\n",
     "[checks] radius is not a key (known: run, points)"),
    ("run = comparison_inhomogeneous", "run = maximal_estimates\nestimate_radius = -0.1",
     "[checks] estimate_radius is not a key (known: run, points)"),
    ("tol = 1e-8", "tol = abc", "[solver] tol must be"),
    ("tol = 1e-8", "tol = 1e-8\ntol = 1e-9", "option 'tol'"),
    # a number is finite wherever it is set, and the solver takes at least
    # one step
    ("tol = 1e-8", "tol = inf", "[solver] tol must be a finite number, got inf"),
    ("tol = 1e-8", "tol = nan", "[solver] tol must be a finite number, got nan"),
    ("epsilon = 1e-8", "epsilon = nan", "[solver] epsilon must be a finite number, got nan"),
    ("epsilon = 1e-8", "epsilon = inf", "[solver] epsilon must be a finite number, got inf"),
    ("value = 1.0", "value = nan", "[coefficient] value must be a finite number, got nan"),
    ("density = 1.0", "density = inf", "[measure] density must be a finite number, got inf"),
    ("density = 1.0", "atoms = 0.5 0.5 nan",
     "[measure] atoms: the mass of atom (0.5, 0.5) must be a finite number, got nan"),
    ("preset = none", "preset = quadratic\ncurvature = inf",
     "[obstacle] curvature must be a finite number, got inf"),
    ("scale = 1, 4, 16", "scale = nan", "[sweep] scale must be a finite number, got nan"),
    ("tol = 1e-8", "tol = 1e-8\nmax_iter = -3", "[solver] max_iter must be at least 1, got -3"),
    ("tol = 1e-8", "tol = 1e-8\nmax_iter = 0", "[solver] max_iter must be at least 1, got 0"),
    # the vocabulary is closed: a misspelt section or key is named
    ("[solver]\n", "[grdi]\nn = 64\n\n[solver]\n", "[grdi] is not a section"),
    ("tol = 1e-8", "tolerance = 1e-3", "[solver] tolerance is not a key"),
    ("[checks]\n", "[checks]\nradisu = 0.2\n", "[checks] radisu is not a key"),
    ("n = 64, 128", "n =", "[sweep] n lists no value"),
    # the domain is the unit square and the meshes are [sweep] n
    ("[solver]\n", "[grid]\nn = 128\n\n[solver]\n", "the meshes are [sweep] n"),
    # meshes are integers, the other axes numbers; an integer setting takes
    # no fraction
    ("n = 64, 128", "n = 64, abc", "[sweep] n must be an integer, got 'abc'"),
    ("n = 64, 128", "n = 64.5", "[sweep] n must be an integer, got 64.5"),
    # the mollification level is a function of the mesh, not an axis
    ("n = 64, 128", "n = 64\nlevel = 2.5", "[sweep] level is not an axis (known: n, scale, "
     "amplitude); each mesh solves the finest mollification level it resolves"),
    ("scale = 1, 4, 16", "scale = 1, x", "[sweep] scale must be a number, got 'x'"),
    # a value listed twice is one cell, or one check, twice
    ("n = 64, 128", "n = 64, 64", "[sweep] n lists 64 twice"),
    ("scale = 1, 4, 16", "scale = 1, 4, 1.0", "[sweep] scale lists 1.0 twice"),
    ("run = comparison_inhomogeneous",
     "run = excess_decay_homogeneous, excess_decay_homogeneous",
     "[checks] run lists excess_decay_homogeneous twice"),
    # a zero scale is the zero problem, which has no ratio to gate
    ("scale = 1, 4, 16", "scale = 0, 1", "[sweep] scale must be positive, got 0"),
    ("scale = 1, 4, 16", "scale = 1, -4", "[sweep] scale must be positive, got -4"),
    ("tol = 1e-8", "tol = 1e-8\nmax_iter = 2.7", "[solver] max_iter must be an integer, got 2.7"),
    # every problem section is closed and typed, and its files are read
    ("preset = none", "preset = quadratic\nheigth = -2.0", "quadratic obstacle takes no heigth"),
    ("value = 1.0", "value = abc", "[coefficient] value must be a number, got 'abc'"),
    ("value = 1.0", "value = 1.0\nc_low = 0.1", "constant coefficient takes no c_low (it takes value)"),
    ("density = 1.0", "atoms = 0.5 0.5 one", "[measure] atoms: each atom is three numbers"),
    ("density = 1.0", "density = 1.0\nmass = 2.0", "measure takes no mass (it takes atoms, density)"),
    ("preset = zero", "preset = zero\nc1 = 1.0", "zero boundary takes no c1"),
    ("preset = none", "preset = file\npath = absent.txt", "absent.txt: No such file or directory"),
    ("kind = power\np = 2.0", "kind = tabulated\nfile = absent.txt",
     "absent.txt: No such file or directory"),
    ("preset = zero", "preset = radial", "unknown boundary preset 'radial'"),
    # mu = 0 is kind = power; regularized_power needs mu > 0
    ("kind = power", "kind = regularized_power", "missing a required argument: 'mu'"),
    ("kind = power", "kind = regularized_power\nmu = 0",
     "requires mu > 0 (mu = 0 is kind = power)"),
])
def test_malformed_config_is_a_data_error(tmp_path, capsys, old, new, message):
    path = tmp_path / "bad_value.ini"
    path.write_text((CONFIGS / "poisson.ini").read_text().replace(old, new))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


@pytest.mark.parametrize("config, old, new, message", [
    ("jump.ini", "amplitude = 0.2, 0.4", "amplitude = 1.5, 0.4",
     "jump coefficient with position = 0.5, amplitude = 1.5 takes values in [-0.5, 2.5]"),
    ("jump.ini", "amplitude = 0.2, 0.4", "amplitude = 0.2, -0.96",
     "amplitude = -0.96 takes values in [0.04, 1.96]"),
    ("poisson.ini", "value = 1.0", "value = 25",
     "constant coefficient with value = 25 takes values in [25, 25]"),
    ("poisson.ini", "preset = constant\nvalue = 1.0", "preset = affine\nax = -1.0",
     "affine coefficient with ax = -1.0 takes values in [0, 1]"),
])
def test_a_preset_coefficient_outside_its_range_is_refused(tmp_path, capsys, config, old, new,
                                                           message):
    # the clamp to [c_low, c_high] would solve another coefficient than the
    # one the config names, so a preset that needs it is an error
    path = tmp_path / config
    path.write_text((CONFIGS / config).read_text().replace(old, new))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert "outside its range [c_low, c_high] = [0.05, 20]" in err[0]
    if config == "jump.ini":  # every swept amplitude is realized at load
        with pytest.raises(DataError, match="takes values in"):
            load_config(path)


@pytest.mark.parametrize("old, new, message", [
    # growth and coefficient parameters are named when missing or unknown
    ("p = 2.0\n", "", "power growth: missing a required argument: 'p'"),
    ("p = 2.0\n", "p = 2.0\nmu = 0.1\n", "power growth takes no mu (it takes p)"),
    ("value = 1.0", "valu = 1.0", "constant coefficient takes no valu"),
    ("kind = power", "kind = regularized_power", "missing a required argument: 'mu'"),
    ("kind = power", "kind = regularized_power\nmu = 0.0",
     "requires mu > 0 (mu = 0 is kind = power)"),
])
def test_cli_solve_bad_parameter_exits_one(tmp_path, capsys, old, new, message):
    path = tmp_path / "bad_parameter.ini"
    path.write_text((CONFIGS / "poisson.ini").read_text().replace(old, new))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.name)
def test_shipped_config_loads_and_builds(path):
    # the benchmark loads shipped configs in its set-up: each stays inside
    # the closed vocabulary and realizes in every cell the checks cross
    cfg = load_config(path)
    assert cfg.checks
    for cell, inst in cells(cfg, "scale", "amplitude"):
        assert inst.grid.n == inst.boundary.grid.n == cell[0]


def test_frozen_check_crosses_amplitudes_of_oscillating_presets(tmp_path):
    # two balls per (mesh, amplitude) cell; a constant coefficient has no
    # amplitude to cross (load_config refuses a sweep of it), so it runs
    # one cell per mesh
    rows = {}
    for preset in ("jump", "constant"):
        text = TINY.replace(
            "[coefficient]\npreset = constant\n", f"[coefficient]\npreset = {preset}\n"
        ).replace("run = comparison_inhomogeneous", "run = frozen_coefficient")
        path = tmp_path / f"{preset}.ini"
        path.write_text(text)
        cfg = load_config(path)
        cfg.sweep = {"n": [24], "amplitude": [0.2, 0.4]} if preset == "jump" else {"n": [24]}
        rows[preset] = len(run_checks(cfg)[0].rows)
    assert rows == {"jump": 4, "constant": 2}


def test_cli_runs_as_module_once(tmp_path):
    # the harness package must not import the cli module, or `python -m`
    # finds it in sys.modules and warns that it runs twice
    import os
    import subprocess
    import sys
    from pathlib import Path

    import potlab

    src = str(Path(potlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "potlab.harness.cli", "--help"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify" in proc.stdout


def test_cli_usage_errors(capsys):
    assert main([]) == 2
    assert main(["unknown-command"]) == 2
    assert main(["verify"]) == 2  # --config is required
    # each subcommand takes only the flags it reads; verify alone crosses
    # the [sweep] axes
    config = ["--config", "unread.ini"]
    assert main(["sweep", *config]) == 2
    assert main(["solve", *config, "--seed", "1"]) == 2
    assert main(["solve", *config, "--jobs", "8"]) == 2
    assert main(["potential", *config, "--jobs", "8"]) == 2
    # verify runs its checks one at a time; any other --jobs is refused
    # before the config is read
    for jobs in ("0", "-3", "2"):
        capsys.readouterr()
        assert main(["verify", *config, "--jobs", jobs]) == 2
        assert f"argument --jobs: invalid choice: {jobs}" in capsys.readouterr().err
    # a sample seed is at least 0
    for command in ("verify", "potential"):
        capsys.readouterr()
        assert main([command, *config, "--seed", "-1"]) == 2
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err


def test_cli_bad_config_exits_one(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[growth]\nkind = nonsense\n\n[checks]\nrun = maximal_estimates\n")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


# -- small end-to-end check smoke ----------------------------------------------------

def test_gradient_bounds_small_instance(dirac_config):
    cfg = load_config(dirac_config)
    cfg.check_params["points"] = 4
    reports = run_checks(cfg)
    rep = reports[0]
    assert rep.name == "gradient_bounds"
    assert rep.passed
    assert all(r.ratio is None or r.ratio > 0 for r in rep.rows)


def test_checks_share_the_primary_solve(dirac_config, monkeypatch):
    # comparison_inhomogeneous makes the unit-scale primary solve among its
    # data scalings, started from the data-scale-16 cell's solution;
    # gradient_bounds asks for the same problem and must find both in the
    # cache instead of solving them again
    cfg = load_config(dirac_config)
    cfg.check_params["points"] = 2
    cfg.sweep["scale"] = [1.0, 4.0, 16.0]
    primary = []  # whole-grid solves; the ball solves pass a ball
    solve = checks.solve_vi

    def counting_solve(prob, solver, **kw):
        if kw.get("ball") is None:
            primary.append(prob)
        return solve(prob, solver, **kw)

    monkeypatch.setattr(checks, "solve_vi", counting_solve)
    cache = SolveCache()
    CHECKS["comparison_inhomogeneous"](cfg, cache, np.random.default_rng([5, 0]))
    scales = cfg.sweep["scale"]
    # one per data scaling, and the data-scale-16 base of the unit cell
    assert len(primary) == len(scales) + 1 == 4
    # per scale: the primary solve and two homogeneous ball solves
    assert cache.misses == 3 * len(scales) + 1
    CHECKS["gradient_bounds"](cfg, cache, np.random.default_rng([5, 1]))
    assert len(primary) == 4
    # new: the homogeneous fit's equation and the estimate context only
    assert cache.misses == 3 * len(scales) + 1 + 2
    assert cache.hits >= 1


def test_instance_key_names_the_realized_problem(dirac_config, tmp_path):
    import copy

    cfg = load_config(dirac_config)
    base = build_instance(cfg, 48).key
    hash(base)
    assert build_instance(cfg, 48, rhs_scale=1.0).key == base
    assert build_instance(cfg, 48, data_scale=1.0).key == base
    assert build_instance(cfg, 48, rhs_scale=4.0).key != base
    assert build_instance(cfg, 48, data_scale=4.0).key != build_instance(
        cfg, 48, rhs_scale=4.0).key
    assert build_instance(cfg, 64).key != base
    assert build_instance(checks._homogeneous_config(cfg), 48).key != base
    # how the checks sample never enters the key
    other = copy.copy(cfg)
    other.check_params = {**cfg.check_params, "points": 1}
    assert build_instance(other, 48).key == base
    # the sweep's first scale enters it only through the scale link: a cell
    # at scale 1 of a sweep that starts at 2 starts from that cell, halved
    other.sweep = {**cfg.sweep, "scale": [2.0]}
    linked = build_instance(other, 48).key
    assert linked[:-2] == base[:-2]
    assert linked[-2:] == (0.5, build_instance(other, 48, data_scale=2.0).key)
    # an explicit amplitude equal to the config's is the config's problem
    path = tmp_path / "jump.ini"
    path.write_text(TINY.replace(
        "[coefficient]\npreset = constant\n",
        "[coefficient]\npreset = jump\namplitude = 0.2\n",
    ))
    jump = load_config(path)
    assert build_instance(jump, 32, amplitude=0.2).key == build_instance(jump, 32).key
    assert build_instance(jump, 32, amplitude=0.4).key != build_instance(jump, 32).key


def test_instances_and_primary_solves_read_no_config():
    # an Instance carries every input of its solves and contexts, and the
    # mollification level is no sweep axis
    import dataclasses
    import inspect

    assert "config" not in {f.name for f in dataclasses.fields(Instance)}
    for fn in (checks.primary_solution, checks.primary_context):
        assert "cfg" not in inspect.signature(fn).parameters
    assert SWEEP_AXES == ("n", "scale", "amplitude")


def _dirac_sweep(tmp_path, meshes: str):
    path = tmp_path / f"dirac_{meshes.replace(', ', '_')}.ini"
    path.write_text(DIRAC.replace("n = 48", f"n = {meshes}"))
    return load_config(path)


def test_a_cell_starts_from_the_cached_solution_one_mesh_coarser(tmp_path, monkeypatch):
    # [sweep] n = 32, 64: the n = 64 primary and equation solves each start
    # from the n = 32 cell's cached solution, which is solved once
    cfg = _dirac_sweep(tmp_path, "32, 64")
    starts = []
    for name in ("solve_vi", "solve_equation"):
        def recording(prob, solver, fn=getattr(checks, name), **kw):
            starts.append((prob.grid.n, kw.get("warm_start")))
            return fn(prob, solver, **kw)
        monkeypatch.setattr(checks, name, recording)
    (_, coarse), (_, fine) = cells(cfg)
    assert coarse.start is None and fine.start[0].key == coarse.key and fine.start[1] == 1.0
    hcfg = checks._homogeneous_config(cfg)
    cache = SolveCache()
    checks.primary_solution(cache, fine)
    checks._homogeneous_solution(cache, build_instance(hcfg, 64))
    assert cache.misses == 4
    assert [n for n, _ in starts] == [32, 64, 32, 64]
    assert starts[0][1] is None and starts[2][1] is None
    assert starts[1][1] is checks.primary_solution(cache, coarse).u
    assert starts[3][1] is checks._homogeneous_solution(cache, build_instance(hcfg, 32)).u
    # the n = 32 cells found their solves in the cache
    assert (cache.misses, len(starts)) == (4, 4)


def test_a_sweep_without_the_half_mesh_links_no_coarse_cell(tmp_path):
    linked = build_instance(_dirac_sweep(tmp_path, "32, 64"), 64)
    alone = build_instance(_dirac_sweep(tmp_path, "48, 64"), 64)
    assert alone.start is None and linked.start[0].grid.n == 32
    # the link is the key's last two entries (factor, linked key), the only
    # ones that differ
    assert alone.key != linked.key and alone.key[:-2] == linked.key[:-2]
    assert alone.key[-2:] == (None, None) and linked.key[-2:] == (1.0, linked.start[0].key)


def test_the_sweep_order_does_not_change_a_cell(tmp_path):
    # n = 64, 32 solves the n = 32 cell first, for the n = 64 cell's start,
    # and finds it in the cache when its own turn comes
    solved = []
    for meshes in ("32, 64", "64, 32"):
        cache = SolveCache()
        solved.append({n: checks.primary_solution(cache, inst).u.values
                       for n, inst in cells(_dirac_sweep(tmp_path, meshes))})
        assert cache.misses == 2
    for n in (32, 64):
        assert np.array_equal(solved[0][n], solved[1][n])


def _contact_sweep(tmp_path, scales: str = "1, 4, 16"):
    path = tmp_path / f"contact_{scales.replace(', ', '_')}.ini"
    path.write_text((CONFIGS / "contact.ini").read_text()
                    .replace("n = 64, 128", "n = 32, 64").replace("scale = 1, 4, 16",
                                                                  f"scale = {scales}"))
    return load_config(path)


def _atom_contact_sweep(tmp_path, scales: str = "1, 4, 16"):
    # an atom at p = 3: the data scale by s, but the solution would scale by
    # s only if the measure scaled by s^2, so the data scaling is not exact
    return replace(_contact_sweep(tmp_path, scales), measure={"atoms": "0.3 0.3 0.5"})


def test_an_exact_scaling_links_every_scale_to_the_largest(tmp_path):
    # p = 3 with f = 0 and p = 2 with an atom scale exactly: a cell at data
    # scale s starts from the same mesh's cell at the largest scale, times
    # s/s_max, wherever the sweep lists that scale; the largest-scale cells
    # keep the mesh link, and a check that holds the first scale starts
    # from the largest-scale cell too
    for cfg in (_contact_sweep(tmp_path, "4, 1, 16"), _contact_sweep(tmp_path, "16, 4, 1"),
                load_config(CONFIGS / "dirac.ini")):
        scales, (coarse, fine) = cfg.sweep["scale"], cfg.sweep["n"]
        top = max(scales)
        swept = dict(cells(cfg, "scale"))
        assert swept[(coarse, top)].start is None
        assert swept[(fine, top)].start[0] is swept[(coarse, top)]
        assert swept[(fine, top)].start[1] == 1.0
        for n in (coarse, fine):
            for s in scales:
                if s != top:
                    base, factor = swept[(n, s)].start
                    assert base is swept[(n, top)] and factor == s / top
        for n, inst in cells(cfg):
            assert inst.key == swept[(n, scales[0])].key
            if scales[0] != top:
                assert inst.start[0].key == swept[(n, top)].key


def test_a_scaled_cell_links_to_its_mesh_at_the_first_scale(tmp_path):
    # where the scaling is not exact (an atom at p = 3) a cell at data scale
    # s starts from the same mesh's cell at the first scale s0, times s/s0;
    # the first-scale cells keep the mesh link, and a check that holds the
    # first scale links no other scale.  Nothing is solved
    for scales, factors in (("1, 4, 16", {4.0: 4.0, 16.0: 16.0}),
                            ("4, 1, 16", {1.0: 0.25, 16.0: 4.0})):
        cfg = _atom_contact_sweep(tmp_path, scales)
        swept = dict(cells(cfg, "scale"))
        s0 = float(scales.split(",")[0])
        assert swept[(32, s0)].start is None
        assert swept[(64, s0)].start[0] is swept[(32, s0)] and swept[(64, s0)].start[1] == 1.0
        for n in (32, 64):
            for s, factor in factors.items():
                base, got = swept[(n, s)].start
                assert base is swept[(n, s0)] and got == factor
        held = dict(cells(cfg))
        assert held[32].key == swept[(32, s0)].key and held[32].start is None
        assert held[64].key == swept[(64, s0)].key and held[64].start[0].grid.n == 32


def test_rhs_and_amplitude_cells_keep_the_mesh_link():
    # their data are not a multiple of another cell's: every such cell on
    # n = 128 starts from its own cell on n = 64, which starts flat.  The
    # unit cell of a source sweep holds the data scale at 1, and p = 2
    # scales exactly, so it starts from its mesh's data-scale-16 cell
    for name, axes in (("dirac.ini", ("scale",)), ("poisson.ini", ("scale",)),
                       ("jump.ini", ("amplitude",))):
        swept = dict(cells(load_config(CONFIGS / name), *axes, scale="rhs_scale"))
        assert len(swept) == (6 if axes == ("scale",) else 4)
        for (n, value), inst in swept.items():
            if axes == ("scale",) and value == 1.0:
                base, factor = inst.start
                assert (base.grid.n, base.key[1:3], factor) == (n, (16.0, 1.0), 1 / 16)
            elif n == 64:
                assert inst.start is None
            else:
                base, factor = inst.start
                assert base is swept[(64, value)] and factor == 1.0


def test_a_scaled_solve_starts_from_the_first_scale_solution_times_the_factor(tmp_path,
                                                                             monkeypatch):
    # where the scaling is not exact (an atom at p = 3), each scaled primary
    # solve starts from factor * u_base, u_base the cached solution of the
    # same mesh's first-scale cell, and polishes it
    starts = []
    solve = checks.solve_vi

    def recording(prob, solver, **kw):
        sol = solve(prob, solver, **kw)
        starts.append((kw.get("warm_start"), sol))
        return sol
    monkeypatch.setattr(checks, "solve_vi", recording)
    swept = dict(cells(_atom_contact_sweep(tmp_path), "scale"))
    cache = SolveCache()
    for n in (32, 64):
        u_base = checks.primary_solution(cache, swept[(n, 1.0)]).u
        for s in (4.0, 16.0):
            starts.clear()
            sol = checks.primary_solution(cache, swept[(n, s)])
            [(warm, solved)] = starts
            assert solved is sol and sol.converged and sol.iterations >= 1
            assert warm.grid == u_base.grid and np.array_equal(warm.values, s * u_base.values)


def test_below_the_largest_scale_an_exact_cell_starts_converged(tmp_path):
    # p = 3 with f = 0 is 2-homogeneous: the scale-16 cell's solution times
    # s/16 is the scale-s cell's, and scaling it down shrinks its residual
    # by (s/16)^2, so only the scale-16 cell of each mesh takes a step
    swept = dict(cells(_contact_sweep(tmp_path), "scale"))
    cache = SolveCache()
    sols = {cell: checks.primary_solution(cache, inst) for cell, inst in swept.items()}
    for (n, s), sol in sols.items():
        top = sols[(n, 16.0)]
        if s == 16.0:
            assert sol.iterations >= 1 and sol.factorizations >= 1
        else:
            assert (sol.iterations, sol.factorizations, sol.krylov_iterations) == (0, 0, 0)
            assert np.array_equal(sol.u.values, (s / 16.0) * top.u.values)
            assert sol.residual_history[0] <= (s / 16.0) ** 2 * top.residual_history[-1] * 1.01


class _CountedLU:
    """A SuperLU that gc lists (SuperLU itself is not tracked): the solver
    reads only ``solve`` and ``nnz``."""

    def __init__(self, lu):
        self.lu, self.nnz = lu, lu.nnz

    def solve(self, b):
        return self.lu.solve(b)


def _live_lus() -> int:
    return sum(isinstance(obj, _CountedLU) for obj in gc.get_objects())


@pytest.mark.parametrize("name", ["contact.ini", "dirac.ini"])
def test_no_lu_is_alive_when_one_is_factored(monkeypatch, name):
    # no LU outlives its solve: none is alive when a solve starts or an LU
    # is factored, and none once run_checks returns
    at_factor, at_solve = [], []
    factor, solve = solver.splu, checks.solve_vi

    def counted_splu(H, **kw):
        at_factor.append(_live_lus())
        return _CountedLU(factor(H, **kw))

    def counted_solve(prob, cfg, **kw):
        at_solve.append(_live_lus())
        return solve(prob, cfg, **kw)
    monkeypatch.setattr(solver, "splu", counted_splu)
    monkeypatch.setattr(checks, "solve_vi", counted_solve)
    run_checks(load_config(CONFIGS / name))
    assert at_factor and set(at_factor) == {0}
    assert at_solve and max(at_solve) == 0
    assert _live_lus() == 0


class _DepthCache(SolveCache):
    """A SolveCache that records, as each build starts, how many other
    builds are open."""

    def __init__(self):
        super().__init__()
        self.depth, self.open_at_build = 0, []

    def get(self, key, builder):
        def build():
            self.open_at_build.append(self.depth)
            self.depth += 1
            try:
                return builder()
            finally:
                self.depth -= 1
        return super().get(key, build)


@pytest.mark.parametrize("name", ["contact.ini", "dirac.ini"])
def test_no_build_starts_inside_another(name):
    # a linked cell's solution is resolved before the cell's own get, so a
    # timer around each build counts every solve once
    cache = _DepthCache()
    run_checks(load_config(CONFIGS / name), cache=cache)
    assert cache.misses == len(cache.open_at_build) > 0
    assert set(cache.open_at_build) == {0}


@pytest.mark.parametrize("name, hits, misses", [("contact.ini", 13, 6), ("dirac.ini", 40, 30)])
def test_cache_hits_count_only_shared_values(monkeypatch, name, hits, misses):
    # a hit is a value that a second check shares: a cell found in the cache
    # resolves no warm start, so no hit is a lookup of its linked cell
    resolved = []
    warm_start = checks._warm_start

    def counted(cache, inst, solution):
        resolved.append(inst)
        return warm_start(cache, inst, solution)
    monkeypatch.setattr(checks, "_warm_start", counted)
    cache = SolveCache()
    run_checks(load_config(CONFIGS / name), cache=cache)
    assert (cache.hits, cache.misses) == (hits, misses)
    # each warm start is resolved for a solve that is then built
    assert 0 < len(resolved) <= cache.misses


def test_cells_realize_each_cell_once(tmp_path, monkeypatch):
    # the scale-16 cells are each linked to by two scaled cells and the
    # n = 128 scale-16 cell to the n = 64 one; each is still realized once
    realized = []
    realize = config._realize_cell

    def counting(cfg, built, *spec):
        realized.append(spec)
        return realize(cfg, built, *spec)
    monkeypatch.setattr(config, "_realize_cell", counting)
    swept = list(cells(load_config(CONFIGS / "contact.ini"), "scale"))
    assert len(swept) == 6 and len(realized) == 6
    assert sorted(realized) == sorted((n, s, 1.0, None) for n, s in (cell for cell, _ in swept))


def test_realize_reads_each_builders_signature_once(monkeypatch):
    # every cell realizes five sections; a builder's keywords are read once
    config._keywords.cache_clear()
    read = []
    signature = config.inspect.signature
    monkeypatch.setattr(config, "inspect", SimpleNamespace(
        signature=lambda build: read.append(build) or signature(build)))
    cfg = load_config(CONFIGS / "dirac.ini")
    for _ in range(2):
        assert len(list(cells(cfg))) > 1
    assert read and len(read) == len(set(read))
    assert config._keywords.cache_info().maxsize is not None


def test_report_rhs_floor_flagging():
    row = CheckRow((0, 0), 0.1, 0.0, 0.0, None, "degenerate-skip")
    assert row.ratio is None
    cache = SolveCache()
    calls = []
    cache.get("k", lambda: calls.append(1) or 7)
    cache.get("k", lambda: calls.append(1) or 8)
    assert calls == [1]
    assert (cache.misses, cache.hits) == (1, 1)


def test_solve_cache_membership_counts_nothing():
    cache = SolveCache()
    assert "k" not in cache
    cache.get("k", lambda: 7)
    assert "k" in cache
    assert (cache.misses, cache.hits) == (1, 0)


def test_solve_cache_counts_a_miss_after_its_builder_returns():
    # a builder that raises stores nothing and counts nothing; the next get
    # of its key builds again
    cache = SolveCache()

    def fail():
        raise DataError("no solve")

    with pytest.raises(DataError):
        cache.get("k", fail)
    assert (cache.misses, cache.hits) == (0, 0)
    assert cache.get("k", lambda: 7) == 7
    assert (cache.misses, cache.hits) == (1, 0)
