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
    disk_integral,
    gradient,
)
from potlab.harness.cli import main
from potlab.orlicz import PowerGrowth
from potlab.potentials import (
    ObstacleDensity,
    WolffLadder,
    WolffParams,
    frac_maximal,
    obstacle_maximal,
    radius_ladder,
    sharp_maximal,
    sharp_maximal_vector,
    wolff,
    wolff_psi,
)

ATOM = MeasureData(atoms=[(0.0, 0.0, 1.0)])


def test_wolff_zero_measure():
    mu = MeasureData(atoms=[])
    wp = WolffParams(0.5, 2.0, 0.5, r_min=0.01)
    assert wolff(mu, (0.3, 0.3), wp) == 0.0


def test_wolff_dirac_closed_form():
    # unit atom at distance 0.1, beta = 1/2, p = 2, n = 2: the integrand is
    # rho^-2 above the atom distance, so W over (0, 0.5] equals 10 - 2 = 8
    wp = WolffParams(0.5, 2.0, 0.5, r_min=0.01)
    value = wolff(ATOM, (0.1, 0.0), wp)
    assert value == pytest.approx(8.0, rel=1e-3)


def test_wolff_homogeneity_exact():
    wp = WolffParams(0.5, 2.0, 0.5, r_min=0.01)
    base = wolff(ATOM, (0.1, 0.0), wp)
    for lam in (2.0, 10.0, 0.25):
        scaled = wolff(ATOM.scaled(lam), (0.1, 0.0), wp)
        assert scaled == pytest.approx(lam ** (1.0 / (wp.p - 1.0)) * base, rel=1e-12)


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
    wp1 = WolffParams(0.5, 2.0, 0.5, r_min=1e-3)
    wp2 = WolffParams(0.5, 2.0, 0.5, r_min=5e-4)
    v1 = wolff(ATOM, (0.0, 0.0), wp1)
    v2 = wolff(ATOM, (0.0, 0.0), wp2)
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
        wolff(ATOM, (0.1, 0.0), WolffParams(0.5, 2.0, 0.005, r_min=0.01))


def test_wolff_params_validation():
    with pytest.raises(DataError):
        WolffParams(0.0, 2.0, 0.5)
    with pytest.raises(DataError):
        WolffParams(0.5, 1.0, 0.5)


def grid_psi(fn, n=128):
    g = Grid2D(n)
    return GridFunction.from_callable(g, fn)


def test_wolff_psi_affine_closed_form():
    # affine obstacle: kernel is identically 1, the ball integral is the
    # disk area, and for beta = 1/2, p = 2 the potential is pi (R - r_min)
    psi = grid_psi(lambda X, Y: 0.3 * X - 0.1)
    od = ObstacleDensity.build(psi, PowerGrowth(2.0))
    assert np.allclose(od.kernel.values, 1.0, atol=1e-9)
    g = psi.grid
    wp = WolffParams(0.5, 2.0, 0.4, r_min=4 * g.h)
    got = wolff_psi(od, (0.5, 0.5), wp)
    assert got == pytest.approx(np.pi * (wp.R - wp.r_min), rel=0.1)


def test_wolff_psi_zero_obstacle_kernel_floor():
    psi = grid_psi(lambda X, Y: np.zeros_like(X))
    od = ObstacleDensity.build(psi, PowerGrowth(2.0))
    assert np.allclose(od.kernel.values, 1.0, atol=1e-12)
    affine = ObstacleDensity.build(grid_psi(lambda X, Y: 0.3 * X), PowerGrowth(2.0))
    wp = WolffParams(0.5, 2.0, 0.3, r_min=0.05)
    assert wolff_psi(od, (0.5, 0.5), wp) == pytest.approx(
        wolff_psi(affine, (0.5, 0.5), wp), rel=1e-9
    )


def test_wolff_psi_shift_invariance():
    psi = grid_psi(lambda X, Y: 0.2 - ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
    od1 = ObstacleDensity.build(psi, PowerGrowth(2.0))
    od2 = ObstacleDensity.build(psi.with_values(psi.values + 3.7), PowerGrowth(2.0))
    wp = WolffParams(0.5, 2.0, 0.3, r_min=0.05)
    assert wolff_psi(od1, (0.5, 0.5), wp) == pytest.approx(
        wolff_psi(od2, (0.5, 0.5), wp), rel=1e-12
    )


def test_obstacle_kernel_quadratic():
    # psi = |x - c|^2 / 2 has unit Hessian; the entrywise l1 norm is 2 and
    # the p = 2 kernel is |D^2 psi| + 1 = 3 in the interior
    psi = grid_psi(lambda X, Y: 0.5 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
    od = ObstacleDensity.build(psi, PowerGrowth(2.0))
    inner = od.kernel.values[2:-2, 2:-2]
    assert np.allclose(inner, 3.0, atol=1e-8)
    got = obstacle_maximal(od, (0.5, 0.5), 0.5, 0.3)
    assert got == pytest.approx(3.0 * 0.3**0.5, rel=0.02)


def test_obstacle_maximal_affine_and_floor():
    psi = grid_psi(lambda X, Y: 0.3 * X)
    od = ObstacleDensity.build(psi, PowerGrowth(2.0))
    R = 0.3
    assert obstacle_maximal(od, (0.5, 0.5), 0.5, R) == pytest.approx(R**0.5, rel=1e-9)
    assert obstacle_maximal(od, (0.5, 0.5), 0.0, R) >= 1.0


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
    od = ObstacleDensity.build(psi, PowerGrowth(3.0))
    for x in ((0.5, 0.5), (0.37, 0.6)):
        for beta in (0.0, 0.4, 1.0):
            assert obstacle_maximal(od, x, beta, 0.2) == frac_maximal(od.kernel, x, beta, 0.2)


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
    od = ObstacleDensity.build(psi, PowerGrowth(2.0))
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    x = (0.5, 0.5)
    for small, big in ((0.15, 0.3), (0.2, 0.4)):
        assert sharp_maximal(f, x, 0.3, small) <= sharp_maximal(f, x, 0.3, big) + 1e-15
        assert frac_maximal(f, x, 0.3, small) <= frac_maximal(f, x, 0.3, big) + 1e-15
        assert frac_maximal(mu, x, 0.3, small, r_min=0.01) <= frac_maximal(
            mu, x, 0.3, big, r_min=0.01
        ) + 1e-15
        assert obstacle_maximal(od, x, 0.3, small) <= obstacle_maximal(od, x, 0.3, big) + 1e-15


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
    wp = WolffParams(0.5, 2.0, 0.5, r_min=0.01)
    x = (0.1, 0.0)
    quad = wolff(ATOM, x, wp)
    total, R_i = 0.0, wp.R
    while R_i >= wp.r_min:
        mass = ball_mass(ATOM, x, R_i)
        total += (mass / R_i ** (2 - wp.beta * wp.p)) ** (1.0 / (wp.p - 1.0))
        R_i /= 2.0
    assert 1.0 / 2.5 <= total / quad <= 2.5


def _wolff_psi_per_radius(od, x, wp):
    # one disk integral per radius: the formula the batched ladder replaces
    radii = radius_ladder(wp.r_min, wp.R)
    masses = np.array([disk_integral(od.kernel, x, rho) for rho in radii])
    integrand = (masses / radii ** (2 - wp.beta * wp.p)) ** (1.0 / (wp.p - 1.0))
    return float(np.trapezoid(integrand, np.log(radii)))


def test_wolff_psi_independent_of_beta_order():
    # every call order of beta gives the per-radius values
    g = Grid2D(48)
    psi = GridFunction.from_callable(g, lambda X, Y: 0.3 - (X - 0.4) ** 2 - 0.5 * (Y - 0.6) ** 4)
    growth = PowerGrowth(3.0)
    x = (0.41, 0.53)
    params = [WolffParams(beta, 3.0, 0.3, r_min=2 * g.h) for beta in (0.3, 0.5, 0.9)]
    want = [_wolff_psi_per_radius(ObstacleDensity.build(psi, growth), x, wp) for wp in params]
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0, 1]):
        od = ObstacleDensity.build(psi, growth)
        for i in order:
            assert wolff_psi(od, x, params[i]) == want[i]


def test_one_wolff_ladder_is_every_potential_bitwise():
    # one gather of a point's masses serves every (beta, p), bitwise equal
    # to wolff and wolff_psi; the atoms sit below, inside and beyond (r_min, R)
    g = Grid2D(48)
    dens = GridFunction.from_callable(g, lambda X, Y: 1.0 + X * Y)
    atoms = [(0.5, 0.5, 1.0), (0.61, 0.5, 0.4), (0.95, 0.95, 2.0)]
    psi = GridFunction.from_callable(g, lambda X, Y: 0.3 - (X - 0.4) ** 2 - 0.5 * (Y - 0.6) ** 4)
    od = ObstacleDensity.build(psi, PowerGrowth(3.0))
    x, r_min, R = (0.51, 0.5), 2 * g.h, 0.3
    for mu in (MeasureData(atoms), MeasureData(atoms, dens), MeasureData([], dens), od.measure):
        ladder = WolffLadder.gather(mu, x, r_min, R)
        for beta, p in ((0.3, 3.0), (0.5, 2.0), (0.9, 3.0), (2.0, 1.5)):
            wp = WolffParams(beta, p, R, r_min=r_min)
            assert ladder.potential(beta, p) == wolff(mu, x, wp)
            if mu is od.measure:
                assert ladder.potential(beta, p) == wolff_psi(od, x, wp)
    # only the atom at distance 0.1 breaks the ladder
    with_atoms = WolffLadder.gather(MeasureData(atoms), x, r_min, R)
    assert len(with_atoms.radii) == len(radius_ladder(r_min, R)) + 2
    assert np.array_equal(WolffLadder.gather(od.measure, x, r_min, R).radii, radius_ladder(r_min, R))


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
