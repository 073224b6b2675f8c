"""Vector field, oscillation diagnostics, and Dini integrals."""

import numpy as np
import pytest

from potlab.errors import DomainError, ResolutionError, StateError
from potlab.field import (
    CoefficientField,
    OscillationModulus,
    VectorField,
    affine_coefficient,
    checkerboard_coefficient,
    constant_coefficient,
    dini_integral,
    jump_coefficient,
)
from potlab.grid import Grid2D, GridFunction, ball_average, ball_nodes
from potlab.harness.config import ExperimentConfig, build_coefficient
from potlab.orlicz import PowerGrowth


def field(p=2.0, coeff=None):
    return VectorField(PowerGrowth(p), coeff or constant_coefficient(1.0))


def bound_L(vf):
    """The growth constant L with |a(x, eta)| <= L g(|eta|)."""
    return max(1.0, vf.coefficient.c_high * (1.0 + vf.growth.sg))


# -- field values ----------------------------------------------------------------

def test_eval_a_identity_for_p2():
    vf = field(2.0)
    assert np.allclose(vf.a((0.3, 0.3), [3.0, 4.0]), [3.0, 4.0])


def test_eval_a_zero_at_origin():
    vf = field(4.0)
    assert np.allclose(vf.a((0.3, 0.3), [0.0, 0.0]), [0.0, 0.0])


def test_eval_a_coefficient_scaling():
    vf = VectorField(PowerGrowth(4.0), constant_coefficient(2.0))
    assert np.allclose(vf.a((0.1, 0.1), [1.0, 0.0]), [2.0, 0.0])


def test_growth_bound_on_field():
    vf = VectorField(PowerGrowth(3.0), constant_coefficient(2.0))
    rng = np.random.default_rng(13)
    eta = rng.normal(size=(200, 2)) * 10.0 ** rng.uniform(-2, 2, (200, 1))
    t = np.linalg.norm(eta, axis=1)
    a = vf.a((0.5, 0.5), eta)
    assert np.all(np.linalg.norm(a, axis=1) <= bound_L(vf) * vf.growth.g(t) * (1 + 1e-12))


# -- monotonicity / coercivity ---------------------------------------------------

@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_monotonicity_constant(p):
    vf = field(p)
    rng = np.random.default_rng(21)
    eta = rng.normal(size=(10_000, 2)) * 10.0 ** rng.uniform(-1, 1, (10_000, 1))
    xi = rng.normal(size=(10_000, 2)) * 10.0 ** rng.uniform(-1, 1, (10_000, 1))
    diff = eta - xi
    norm = np.linalg.norm(diff, axis=1)
    keep = norm > 1e-12
    lhs = np.sum((vf.a((0.5, 0.5), eta) - vf.a((0.5, 0.5), xi)) * diff, axis=1)
    ratio = lhs[keep] / vf.growth.G(norm[keep])
    assert ratio.min() >= 0.1
    if p == 2.0:
        assert abs(ratio.min() - 2.0) <= 1e-9


def test_coercivity():
    vf = field(3.0)
    rng = np.random.default_rng(22)
    eta = rng.normal(size=(10_000, 2)) * 10.0 ** rng.uniform(-2, 2, (10_000, 1))
    t = np.linalg.norm(eta, axis=1)
    keep = t > 1e-12
    dot = np.sum(vf.a((0.5, 0.5), eta) * eta, axis=1)
    assert (dot[keep] / vf.growth.G(t[keep])).min() > 0.5


# -- oscillation ----------------------------------------------------------------

def theta_gap(vf, g, ball, x):
    """The oscillation theta = sup over eta of |a(x,eta) - mean_B a(.,eta)| / g(|eta|),
    sampled over 8 directions and 24 log-spaced magnitudes, checked against
    |omega(x) - mean_B omega|, which it returns.

    The kernel cancels, which is why the modulus may read omega alone.
    """
    center, radius = ball
    ii, jj = ball_nodes(g, center, radius)
    angles = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    eta = np.concatenate([t * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
                          for t in np.geomspace(1e-3, 1e3, 24)])
    mean_a = vf.a((g.X[ii, jj][:, None], g.Y[ii, jj][:, None]), eta).mean(axis=0)
    theta = float((np.linalg.norm(vf.a(x, eta) - mean_a, axis=-1)
                   / vf.growth.g(np.linalg.norm(eta, axis=-1))).max())
    om = vf.coefficient.on_nodes(g)
    gap = abs(float(vf.coefficient.at(*x)) - float(om[ii, jj].mean()))
    assert theta == pytest.approx(gap, rel=1e-12)
    return gap


def test_theta_constant_coefficient():
    g = Grid2D(64)
    vf = field(2.0)
    assert theta_gap(vf, g, ((0.5, 0.5), 0.25), (0.5, 0.5)) == 0.0


def test_theta_affine_center():
    g = Grid2D(128)
    vf = VectorField(PowerGrowth(2.0), affine_coefficient(1.0, 0.0, 1.0))
    val = theta_gap(vf, g, ((0.5, 0.5), 0.25), (0.5, 0.5))
    assert val == pytest.approx(0.0, abs=g.h)


def test_theta_affine_offset_matches_ball_average_oracle():
    g = Grid2D(128)
    coeff = affine_coefficient(1.0, 0.0, 1.0)
    vf = VectorField(PowerGrowth(2.0), coeff)
    got = theta_gap(vf, g, ((0.5, 0.5), 0.25), (0.75, 0.5))
    omega = GridFunction(g, coeff.on_nodes(g))
    oracle = abs(coeff.at(0.75, 0.5) - ball_average(omega, (0.5, 0.5), 0.25))
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(0.25, abs=2 * g.h)


def test_theta_sampled_equals_model_path():
    g = Grid2D(64)
    vf = VectorField(PowerGrowth(3.0), jump_coefficient(0.2))
    assert theta_gap(vf, g, ((0.5, 0.5), 0.2), (0.55, 0.5)) > 0


def test_oscillation_ladder_additive_shift_invariance():
    g = Grid2D(64)
    base = jump_coefficient(0.2)
    shifted = CoefficientField(lambda X, Y: base.at(X, Y) + 0.5, base.c_low, base.c_high + 0.5)
    _, sups = field(2.0, base).oscillation_ladder(g, 0.3)
    _, sups_shifted = field(2.0, shifted).oscillation_ladder(g, 0.3)
    assert sups.max() > 0
    assert sups_shifted == pytest.approx(sups, rel=1e-12)


def test_omega_modulus_constant_zero():
    g = Grid2D(64)
    assert field(2.0).oscillation_modulus(g, 0.25).values[-1] == 0.0


@pytest.mark.parametrize("coeff", [constant_coefficient(0.3), constant_coefficient(0.7),
                                   jump_coefficient(0.0)])
def test_constant_coefficient_has_the_zero_modulus(coeff):
    # the mean of equal node values need not be exact (0.3 gives 1.1e-16
    # per ball), so a gathered ladder would read a nonzero modulus
    g = Grid2D(64)
    radii, sups = field(2.0, coeff).oscillation_ladder(g, 0.25)
    assert radii.size == 16 and sups.tolist() == [0.0] * 16
    assert field(2.0, coeff).oscillation_modulus(g, 0.25).is_zero()


def test_omega_modulus_jump():
    g = Grid2D(128)
    vf = VectorField(PowerGrowth(2.0), jump_coefficient(0.2))
    val = vf.oscillation_modulus(g, 0.25).values[-1]
    assert 0.0 < val <= 2 * bound_L(vf)
    # doubling the amplitude doubles the modulus exactly
    vf2 = VectorField(PowerGrowth(2.0), jump_coefficient(0.4))
    assert vf2.oscillation_modulus(g, 0.25).values[-1] == pytest.approx(2 * val, rel=1e-12)


def test_oscillation_modulus_monotone():
    g = Grid2D(128)
    vf = VectorField(PowerGrowth(2.0), checkerboard_coefficient(0.3, 0.25))
    om = vf.oscillation_modulus(g, 0.3)
    assert np.all(np.diff(om.values) >= 0)
    assert om.values.max() <= 2 * bound_L(vf)


def test_omega_modulus_guards():
    g = Grid2D(64)
    with pytest.raises(DomainError):
        field(2.0).oscillation_modulus(g, 0.9)


def test_oscillation_ladder_resolution_floor():
    g = Grid2D(64)
    vf = field(2.0, jump_coefficient(0.3, 0.47))
    radii, _ = vf.oscillation_ladder(g, 2 * g.h)
    assert radii[0] == radii[-1] == 2 * g.h
    with pytest.raises(ResolutionError):
        vf.oscillation_ladder(g, 2 * g.h * (1 - 1e-9))


def test_oscillation_modulus_at_the_resolution_floor():
    # a one-radius modulus: its Dini integral is 0 at any radius
    g = Grid2D(64)
    om = field(2.0, jump_coefficient(0.3, 0.47)).oscillation_modulus(g, 2 * g.h)
    assert om.radii.tolist() == [2 * g.h]
    assert dini_integral(om, 0.3) == 0.0


def _reference_ladder(vf, g, r_max, gamma_prime):
    """The ladder written out per ball with the snapped-center gather."""
    radii = np.geomspace(2 * g.h, r_max, 16)
    om = vf.coefficient.on_nodes(g)
    idx = np.arange(0, g.n, max(1, g.n // 16))
    sups = np.zeros_like(radii)
    for k, rho in enumerate(radii):
        for ic in idx:
            for jc in idx:
                cx, cy = g.xs[ic], g.ys[jc]
                if not (rho <= cx <= 1.0 - rho and rho <= cy <= 1.0 - rho):
                    continue
                vals = om[ball_nodes(g, (cx, cy), rho)]
                osc = float(np.mean(np.abs(vals - vals.mean()) ** gamma_prime)
                            ** (1.0 / gamma_prime))
                sups[k] = max(sups[k], osc)
    return radii, sups


@pytest.mark.parametrize("coeff", [jump_coefficient(0.3, 0.47),
                                   checkerboard_coefficient(0.2, 0.25),
                                   affine_coefficient(0.7, -0.4, 1.0)])
@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("gamma_prime", [1.5, 2.0, 3.0])
def test_oscillation_ladder_equals_per_ball_reference(coeff, n, gamma_prime):
    g = Grid2D(n)
    vf = field(2.0, coeff)
    for r_max in (0.3, 0.5):
        radii, sups = vf.oscillation_ladder(g, r_max, gamma_prime)
        ref_radii, ref_sups = _reference_ladder(vf, g, r_max, gamma_prime)
        assert np.array_equal(radii, ref_radii)
        assert np.array_equal(sups, ref_sups)
        assert sups.max() > 0
    # no node is a center whose ball of radius 1/2 stays inside the domain
    assert sups[-1] == 0.0


# -- Dini integrals ----------------------------------------------------------------

def test_dini_integral_zero_modulus():
    radii = np.geomspace(1e-4, 1.0, 64)
    om = OscillationModulus(radii, np.zeros_like(radii), 1.0 / (1.0 + 1.0))
    assert dini_integral(om, 1.0) == 0.0


def test_dini_integral_linear_integrand():
    # omega(rho) = rho^(1+sg)  ->  integrand rho  ->  integral over (0, 1] is 1
    sg = 1.5
    radii = np.geomspace(1e-8, 1.0, 1024)
    om = OscillationModulus(radii, radii ** (1 + sg), 1.0 / (1.0 + sg))
    value = dini_integral(om, 1.0)
    assert value == pytest.approx(1.0, abs=1e-3)


def test_dini_integral_sqrt_integrand():
    # omega(rho) = rho^((1+sg)/2) -> integrand rho^(-1/2) -> integral 2
    sg = 1.0
    radii = np.geomspace(1e-8, 1.0, 4096)
    om = OscillationModulus(radii, radii ** ((1 + sg) / 2.0), 1.0 / (1.0 + sg))
    value = dini_integral(om, 1.0)
    assert value == pytest.approx(2.0, abs=2e-3)


def test_dini_integral_weight_and_exponent():
    sg = 1.0
    radii = np.geomspace(1e-8, 1.0, 2048)
    om = OscillationModulus(radii, radii ** (1 + sg), 1.0 / (1.0 + sg))
    # measure rho * rho^(-1/2) * rho * drho/rho = rho^(1/2) drho: integral 2/3
    value = dini_integral(om, 1.0, alpha_hat=0.5, weight=lambda r: r)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_dini_integral_empty():
    om = OscillationModulus(np.array([]), np.array([]), 0.5)
    with pytest.raises(StateError):
        dini_integral(om, 1.0)


def test_make_coefficient_presets():
    cfg = ExperimentConfig()
    for preset in ("constant", "affine", "jump", "checkerboard"):
        c = build_coefficient(cfg, {"preset": preset})
        assert 0 < c.c_low <= c.c_high
    g = Grid2D(32)
    vals = build_coefficient(cfg, {"preset": "jump", "amplitude": 0.3}).on_nodes(g)
    assert set(np.round(np.unique(vals), 10)) == {0.7, 1.3}


def test_coefficient_clamping():
    c = affine_coefficient(100.0, 0.0, 0.0, c_low=0.5, c_high=2.0)
    g = Grid2D(32)
    vals = c.on_nodes(g)
    assert vals.min() >= 0.5 and vals.max() <= 2.0
