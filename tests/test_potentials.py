"""Wolff potentials and maximal operators against closed forms."""

import numpy as np
import pytest

from potlab.errors import DataError, RangeError
from potlab.grid import (
    Grid2D,
    GridFunction,
    MeasureData,
    ball_average,
    ball_mass,
    gradient,
)
from potlab.harness.cli import main
from potlab.harness.config import OBSTACLE_PRESETS
from potlab.orlicz import PowerGrowth, RegularizedPowerGrowth, TabulatedGrowth
from potlab.potentials import (
    WolffLadder,
    frac_maximal,
    obstacle_kernel,
    obstacle_maximal,
    radius_ladder,
    sharp_maximal,
    sharp_maximal_vector,
    wolff,
    wolff_psi,
)

from mass_rule import shell_binned_disk_integrals

ATOM = MeasureData(atoms=[(0.0, 0.0, 1.0)])


def test_wolff_zero_measure():
    mu = MeasureData(atoms=[])
    assert wolff(mu, (0.3, 0.3), 0.5, 2.0, 0.5, r_min=0.01) == 0.0


def test_wolff_dirac_closed_form():
    # unit atom at distance 0.1, beta = 1/2, p = 2, n = 2: the integrand is
    # rho^-2 above the atom distance, so W over (0, 0.5] equals 10 - 2 = 8
    value = wolff(ATOM, (0.1, 0.0), 0.5, 2.0, 0.5, r_min=0.01)
    assert value == pytest.approx(8.0, rel=1e-3)


def test_wolff_homogeneity_exact():
    beta, p, R = 0.5, 2.0, 0.5
    base = wolff(ATOM, (0.1, 0.0), beta, p, R, r_min=0.01)
    for lam in (2.0, 10.0, 0.25):
        scaled = wolff(ATOM.scaled(lam), (0.1, 0.0), beta, p, R, r_min=0.01)
        assert scaled == pytest.approx(lam ** (1.0 / (p - 1.0)) * base, rel=1e-12)


ATOM_CONFIG = """
[growth]
kind = power
p = 2.0

[measure]
atoms = 0.5 0.5 1.0

[boundary]
preset = fundamental

[sweep]
n = 48
"""


def test_wolff_truncation_flag_and_divergence(tmp_path):
    # atom at the evaluation point: the tail below r_min carries mass and
    # the value grows like r_min^-(n - beta p)/(p-1) as r_min shrinks
    v1 = wolff(ATOM, (0.0, 0.0), 0.5, 2.0, 0.5, r_min=1e-3)
    v2 = wolff(ATOM, (0.0, 0.0), 0.5, 2.0, 0.5, r_min=5e-4)
    assert v2 / v1 == pytest.approx(2.0, rel=5e-3)
    # `potlab potential` flags exactly the points whose dropped tail
    # [0, r_min) holds the atom, r_min = 2h, in both of its tables
    config = tmp_path / "atom.ini"
    config.write_text(ATOM_CONFIG)
    assert main(["potential", "--config", str(config), "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "wolff.csv", delimiter=",", skiprows=1)
    near = np.hypot(rows[:, 0] - 0.5, rows[:, 1] - 0.5) <= 2.0 / 48
    assert near.any() and not near.all()
    assert np.array_equal(rows[:, 3] == 1, near)
    maximal = np.loadtxt(tmp_path / "maximal.csv", delimiter=",", skiprows=1)
    assert np.array_equal(maximal[:, 3], rows[:, 3])


def test_wolff_range_error():
    with pytest.raises(RangeError):
        wolff(ATOM, (0.1, 0.0), 0.5, 2.0, 0.005, r_min=0.01)


def test_wolff_params_validation():
    with pytest.raises(DataError):
        wolff(ATOM, (0.1, 0.0), 0.0, 2.0, 0.5, r_min=0.01)
    with pytest.raises(DataError):
        wolff(ATOM, (0.1, 0.0), 0.5, 1.0, 0.5, r_min=0.01)


def test_wolff_of_atoms_alone_needs_a_cutoff():
    # atoms carry no grid, so no 2h floor: the cutoff must be given
    with pytest.raises(DataError, match="explicit r_min"):
        wolff(ATOM, (0.1, 0.0), 0.5, 2.0, 0.5)
    with pytest.raises(DataError, match="explicit r_min"):
        frac_maximal(ATOM, (0.1, 0.0), 0.5, 0.5)


@pytest.mark.parametrize("r_min", [0.0, -0.01])
def test_nonpositive_cutoff_is_a_data_error(r_min):
    g = Grid2D(32)
    dens = MeasureData([], GridFunction.constant(g, 1.0))
    kernel = GridFunction.constant(g, 2.0)
    with pytest.raises(DataError, match="r_min must be positive"):
        wolff(ATOM, (0.1, 0.0), 0.5, 2.0, 0.5, r_min=r_min)
    with pytest.raises(DataError, match="r_min must be positive"):
        wolff_psi(kernel, (0.5, 0.5), 0.5, 2.0, 0.3, r_min=r_min)
    with pytest.raises(DataError, match="r_min must be positive"):
        frac_maximal(dens, (0.5, 0.5), 0.5, 0.3, r_min=r_min)
    with pytest.raises(DataError, match="r_min must be positive"):
        sharp_maximal(kernel, (0.5, 0.5), 0.5, 0.3, r_min=r_min)


def test_default_cutoff_is_the_density_grids_floor():
    # with a density the default cutoff is its grid's 2h floor, bitwise
    g = Grid2D(48)
    dens = GridFunction.from_callable(g, lambda X, Y: 1.0 + X * Y)
    x = (0.51, 0.47)
    for mu in (MeasureData([], dens), MeasureData([(0.6, 0.5, 1.0)], dens)):
        for beta, p in ((0.5, 2.0), (0.3, 3.0)):
            assert wolff(mu, x, beta, p, 0.3) == wolff(mu, x, beta, p, 0.3, r_min=g.r_min)
    assert wolff_psi(dens, x, 0.5, 2.0, 0.3) == wolff_psi(dens, x, 0.5, 2.0, 0.3, r_min=g.r_min)


def grid_psi(fn, n=128):
    g = Grid2D(n)
    return GridFunction.from_callable(g, fn)


def test_wolff_psi_affine_closed_form():
    # affine obstacle: kernel is identically 1, the ball integral is the
    # disk area, and for beta = 1/2, p = 2 the potential is pi (R - r_min)
    psi = grid_psi(lambda X, Y: 0.3 * X - 0.1)
    kernel = obstacle_kernel(psi, PowerGrowth(2.0))
    assert np.allclose(kernel.values, 1.0, atol=1e-9)
    R, r_min = 0.4, 4 * psi.grid.h
    got = wolff_psi(kernel, (0.5, 0.5), 0.5, 2.0, R, r_min=r_min)
    assert got == pytest.approx(np.pi * (R - r_min), rel=0.1)


def test_wolff_psi_zero_obstacle_kernel_floor():
    psi = grid_psi(lambda X, Y: np.zeros_like(X))
    kernel = obstacle_kernel(psi, PowerGrowth(2.0))
    assert np.allclose(kernel.values, 1.0, atol=1e-12)
    affine = obstacle_kernel(grid_psi(lambda X, Y: 0.3 * X), PowerGrowth(2.0))
    assert wolff_psi(kernel, (0.5, 0.5), 0.5, 2.0, 0.3, r_min=0.05) == pytest.approx(
        wolff_psi(affine, (0.5, 0.5), 0.5, 2.0, 0.3, r_min=0.05), rel=1e-9
    )


def test_wolff_psi_shift_invariance():
    psi = grid_psi(lambda X, Y: 0.2 - ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
    k1 = obstacle_kernel(psi, PowerGrowth(2.0))
    k2 = obstacle_kernel(psi.with_values(psi.values + 3.7), PowerGrowth(2.0))
    assert wolff_psi(k1, (0.5, 0.5), 0.5, 2.0, 0.3, r_min=0.05) == pytest.approx(
        wolff_psi(k2, (0.5, 0.5), 0.5, 2.0, 0.3, r_min=0.05), rel=1e-12
    )


def test_obstacle_kernel_quadratic():
    # psi = |x - c|^2 / 2 has unit Hessian; the entrywise l1 norm is 2 and
    # the p = 2 kernel is |D^2 psi| + 1 = 3 in the interior
    psi = grid_psi(lambda X, Y: 0.5 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
    kernel = obstacle_kernel(psi, PowerGrowth(2.0))
    inner = kernel.values[2:-2, 2:-2]
    assert np.allclose(inner, 3.0, atol=1e-8)
    got = obstacle_maximal(kernel, (0.5, 0.5), 0.5, 0.3)
    assert got == pytest.approx(3.0 * 0.3**0.5, rel=0.02)


_T = np.geomspace(1e-3, 1e3, 25)


@pytest.mark.parametrize("growth", [
    PowerGrowth(2.0), PowerGrowth(3.0), PowerGrowth(4.0),
    RegularizedPowerGrowth(3.0, 0.5), TabulatedGrowth(_T, _T + _T**2),
], ids=["power2", "power3", "power4", "regularized3", "tabulated"])
@pytest.mark.parametrize("preset", ["quadratic", "bump", "affine"])
def test_obstacle_kernel_is_at_least_one(preset, growth):
    # g(t)/t >= 0 and |D^2 psi|_1 >= 0, so the kernel never drops below its
    # +1 floor, also where the obstacle is flat, kinked or steep
    for scale in (1.0, 40.0):
        psi = grid_psi(OBSTACLE_PRESETS[preset](), n=48)
        kernel = obstacle_kernel(psi.with_values(scale * psi.values), growth)
        assert kernel.values.min() >= 1.0


def test_obstacle_maximal_affine_and_floor():
    psi = grid_psi(lambda X, Y: 0.3 * X)
    kernel = obstacle_kernel(psi, PowerGrowth(2.0))
    R = 0.3
    assert obstacle_maximal(kernel, (0.5, 0.5), 0.5, R) == pytest.approx(R**0.5, rel=1e-9)
    assert obstacle_maximal(kernel, (0.5, 0.5), 0.0, R) >= 1.0


def test_frac_maximal_constant_field():
    g = Grid2D(64)
    f = GridFunction.constant(g, 3.0)
    R = 0.3
    assert frac_maximal(f, (0.5, 0.5), 0.7, R) == pytest.approx(3.0 * R**0.7, rel=1e-12)
    assert frac_maximal(f, (0.5, 0.5), 0.0, R) == pytest.approx(3.0, rel=1e-12)


def test_frac_maximal_atom_slope():
    # a unit atom at the center: the sup sits at the smallest ladder radius
    # with value r_min^(beta-2)/pi; halving r_min scales it by 2^(2-beta)
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    beta = 0.5
    v1 = frac_maximal(mu, (0.5, 0.5), beta, 0.3, r_min=1e-2)
    v2 = frac_maximal(mu, (0.5, 0.5), beta, 0.3, r_min=5e-3)
    assert v1 == pytest.approx(1e-2 ** (beta - 2) / np.pi, rel=1e-12)
    assert v2 / v1 == pytest.approx(2 ** (2 - beta), rel=1e-12)


def test_sharp_maximal_constant_zero():
    g = Grid2D(64)
    assert sharp_maximal(GridFunction.constant(g, 2.0), (0.5, 0.5), 0.0, 0.3) == 0.0


def test_sharp_maximal_affine_oracle():
    # mean oscillation of an affine field over B_rho is |a| rho kappa with
    # kappa the disk average of |e . y|; the node-set average is the oracle
    g = Grid2D(128)
    a = 2.0
    f = GridFunction.from_callable(g, lambda X, Y: a * X)
    from potlab.grid import ball_nodes
    R = 0.3
    x = (0.5, 0.5)
    expect = 0.0
    for rho in radius_ladder(2 * g.h, R, 24):
        ii, jj = ball_nodes(g, x, rho)
        vals = f.values[ii, jj]
        expect = max(expect, np.abs(vals - vals.mean()).mean())
    got = sharp_maximal(f, x, 0.0, R)
    assert got == pytest.approx(expect, rel=1e-12)
    kappa = 4.0 / (3.0 * np.pi)
    assert got == pytest.approx(a * R * kappa, rel=0.05)
    # alpha = 1 makes the ladder value radius-independent
    got1 = sharp_maximal(f, x, 1.0, R)
    assert got1 == pytest.approx(a * kappa, rel=0.05)


def test_obstacle_maximal_is_frac_maximal_of_kernel():
    psi = grid_psi(lambda X, Y: 0.2 - 1.5 * ((X - 0.5) ** 2 + (Y - 0.45) ** 2), n=64)
    kernel = obstacle_kernel(psi, PowerGrowth(3.0))
    for x in ((0.5, 0.5), (0.37, 0.6)):
        for beta in (0.0, 0.4, 1.0):
            assert obstacle_maximal(kernel, x, beta, 0.2) == frac_maximal(kernel, x, beta, 0.2)


def test_sharp_maximal_vector_equals_componentwise_ball_averages():
    # the oscillation against the componentwise ball means, written with
    # three ball averages per radius
    g = Grid2D(64)
    f = GridFunction.from_callable(g, lambda X, Y: np.sin(5 * X) * np.cos(3 * Y) + X * Y**2)
    gx, gy = gradient(f)
    R = 0.2
    for x in ((0.5, 0.5), (0.41, 0.63)):
        for alpha in (0.0, 0.3, 1.0):
            expect = 0.0
            for rho in radius_ladder(2 * g.h, R, 24):
                mx = ball_average(gx, x, rho)
                my = ball_average(gy, x, rho)
                osc = gx.with_values(np.hypot(gx.values - mx, gy.values - my))
                expect = max(expect, rho ** (-alpha) * ball_average(osc, x, rho))
            assert sharp_maximal_vector((gx, gy), x, alpha, R) == expect


def test_sharp_maximal_vector_matches_scalar_on_gradient():
    g = Grid2D(64)
    f = GridFunction.from_callable(g, lambda X, Y: np.sin(2 * X + Y))
    gx, gy = gradient(f)
    v = sharp_maximal_vector((gx, gy), (0.5, 0.5), 0.0, 0.25)
    assert v > 0
    assert np.isfinite(v)


def test_maximal_monotone_in_R():
    g = Grid2D(64)
    f = GridFunction.from_callable(g, lambda X, Y: np.sin(3 * X) + Y**2)
    psi = GridFunction.from_callable(g, lambda X, Y: 0.2 * X * Y)
    kernel = obstacle_kernel(psi, PowerGrowth(2.0))
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    x = (0.5, 0.5)
    for small, big in ((0.15, 0.3), (0.2, 0.4)):
        assert sharp_maximal(f, x, 0.3, small) <= sharp_maximal(f, x, 0.3, big) + 1e-15
        assert frac_maximal(f, x, 0.3, small) <= frac_maximal(f, x, 0.3, big) + 1e-15
        assert frac_maximal(mu, x, 0.3, small, r_min=0.01) <= frac_maximal(
            mu, x, 0.3, big, r_min=0.01
        ) + 1e-15
        assert obstacle_maximal(kernel, x, 0.3, small) <= obstacle_maximal(
            kernel, x, 0.3, big) + 1e-15


def test_sharp_dominated_by_fractional_of_gradient():
    # M^#_alpha(u) <= C M_{1-alpha}(|Du|) with C stable under refinement
    consts = []
    for n in (64, 128):
        g = Grid2D(n)
        u = GridFunction.from_callable(
            g, lambda X, Y: np.sin(2 * np.pi * X) * Y + 0.3 * X**2
        )
        gx, gy = gradient(u)
        mag = u.with_values(np.hypot(gx.values, gy.values))
        worst = 0.0
        for x in ((0.5, 0.5), (0.4, 0.6), (0.35, 0.35)):
            for alpha in (0.0, 0.3, 0.7):
                num = sharp_maximal(u, x, alpha, 0.3)
                den = frac_maximal(mag, x, 1.0 - alpha, 0.3)
                worst = max(worst, num / den)
        consts.append(worst)
    assert max(consts) / min(consts) < 2.0


def test_wolff_dyadic_sum_consistency():
    # the quadrature agrees with the dyadic sum over radii R/2^i within a
    # bounded factor for the Dirac closed form
    beta, p, R, r_min = 0.5, 2.0, 0.5, 0.01
    x = (0.1, 0.0)
    quad = wolff(ATOM, x, beta, p, R, r_min=r_min)
    total, R_i = 0.0, R
    while R_i >= r_min:
        mass = ball_mass(ATOM, x, R_i)
        total += (mass / R_i ** (2 - beta * p)) ** (1.0 / (p - 1.0))
        R_i /= 2.0
    assert 1.0 / 2.5 <= total / quad <= 2.5


def _wolff_psi_by_shells(kernel, x, beta, p, R, r_min):
    # the ladder's masses by the shell rule written out in mass_rule.py
    radii = radius_ladder(r_min, R)
    masses = np.array(shell_binned_disk_integrals(kernel, x, radii))
    integrand = (masses / radii ** (2 - beta * p)) ** (1.0 / (p - 1.0))
    return float(np.trapezoid(integrand, np.log(radii)))


def test_wolff_psi_independent_of_beta_order():
    # every call order of beta gives the shell rule's values
    g = Grid2D(48)
    psi = GridFunction.from_callable(g, lambda X, Y: 0.3 - (X - 0.4) ** 2 - 0.5 * (Y - 0.6) ** 4)
    growth = PowerGrowth(3.0)
    x = (0.41, 0.53)
    betas = (0.3, 0.5, 0.9)
    want = [_wolff_psi_by_shells(obstacle_kernel(psi, growth), x, beta, 3.0, 0.3, 2 * g.h)
            for beta in betas]
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0, 1]):
        kernel = obstacle_kernel(psi, growth)
        for i in order:
            assert wolff_psi(kernel, x, betas[i], 3.0, 0.3, r_min=2 * g.h) == want[i]


def test_one_wolff_ladder_is_every_potential_bitwise():
    # one gather of a point's masses serves every (beta, p), bitwise equal
    # to wolff and wolff_psi; the atoms sit below, inside and beyond (r_min, R)
    g = Grid2D(48)
    dens = GridFunction.from_callable(g, lambda X, Y: 1.0 + X * Y)
    atoms = [(0.5, 0.5, 1.0), (0.61, 0.5, 0.4), (0.95, 0.95, 2.0)]
    psi = GridFunction.from_callable(g, lambda X, Y: 0.3 - (X - 0.4) ** 2 - 0.5 * (Y - 0.6) ** 4)
    kernel = obstacle_kernel(psi, PowerGrowth(3.0))
    obstacle = MeasureData([], kernel)
    x, r_min, R = (0.51, 0.5), 2 * g.h, 0.3
    for mu in (MeasureData(atoms), MeasureData(atoms, dens), MeasureData([], dens), obstacle):
        ladder = WolffLadder.gather(mu, x, r_min, R)
        for beta, p in ((0.3, 3.0), (0.5, 2.0), (0.9, 3.0), (2.0, 1.5)):
            assert ladder.potential(beta, p) == wolff(mu, x, beta, p, R, r_min=r_min)
            # the log-trapezoid rule over the ladder, in np.trapezoid's arithmetic
            y = (ladder.masses / ladder.radii ** (2 - beta * p)) ** (1 / (p - 1))
            assert ladder.potential(beta, p) == float(np.trapezoid(y, np.log(ladder.radii)))
            if mu is obstacle:
                assert ladder.potential(beta, p) == wolff_psi(kernel, x, beta, p, R, r_min=r_min)
    # only the atom at distance 0.1 breaks the ladder
    with_atoms = WolffLadder.gather(MeasureData(atoms), x, r_min, R)
    assert len(with_atoms.radii) == len(radius_ladder(r_min, R)) + 2
    assert np.array_equal(WolffLadder.gather(obstacle, x, r_min, R).radii, radius_ladder(r_min, R))


def test_radius_ladder_endpoints():
    lad = radius_ladder(0.01, 0.5, 24)
    assert lad[0] == 0.01 and lad[-1] == 0.5
    assert np.all(np.diff(lad) > 0)
    ref = np.geomspace(0.01, 0.5, int(np.ceil(np.log10(0.5 / 0.01) * 24)) + 1)
    ref[0], ref[-1] = 0.01, 0.5
    assert np.array_equal(lad, ref)
    # one cached array shared by every caller, so it must be read-only
    assert radius_ladder(0.01, 0.5, 24) is lad
    with pytest.raises(ValueError):
        lad[1] = 0.0
    with pytest.raises(RangeError):
        radius_ladder(0.5, 0.1)
