"""Grid discretization: stencils, balls, medians, measures, and I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from potlab.errors import (
    DataError,
    DomainError,
    GridMismatchError,
    ResolutionError,
)
from potlab.grid import (
    Grid2D,
    GridFunction,
    MeasureData,
    ball_average,
    ball_mass,
    ball_masses,
    ball_nodes,
    ball_offsets,
    disk_integral,
    disk_integrals,
    gradient,
    hessian,
    largest_median,
    median,
    read_raster,
    w11_distance,
    write_raster,
)

from mass_rule import shell_binned_disk_integrals


@pytest.fixture
def grid():
    return Grid2D(64)


def f_of(grid, fn):
    return GridFunction.from_callable(grid, fn)


def test_nearest_node_matches_clipped_rounding():
    g = Grid2D(48)
    rng = np.random.default_rng(5)
    pts = np.concatenate([
        rng.random((400, 2)),
        [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
        np.stack([g.xs[:2] + 0.5 * g.h, g.ys[-2:] + 0.5 * g.h], axis=1),
    ])
    for x, y in pts:
        want = tuple(int(np.clip(round(c / g.h - 0.5), 0, g.n - 1)) for c in (x, y))
        got = g.nearest_node((x, y))
        assert got == want
        assert all(type(i) is int for i in got)


# -- gradient / hessian -----------------------------------------------------

def test_gradient_affine_exact(grid):
    gx, gy = gradient(f_of(grid, lambda X, Y: 2.0 * X - 3.0 * Y + 1.0))
    assert np.allclose(gx.values, 2.0, atol=1e-13)
    assert np.allclose(gy.values, -3.0, atol=1e-13)


def test_gradient_constant(grid):
    gx, gy = gradient(GridFunction.constant(grid, 4.2))
    assert np.abs(gx.values).max() < 1e-12
    assert np.abs(gy.values).max() < 1e-12


def test_gradient_second_order_convergence():
    errs = []
    for n in (32, 64, 128):
        g = Grid2D(n)
        gx, _ = gradient(f_of(g, lambda X, Y: np.sin(2 * np.pi * X)))
        exact = 2 * np.pi * np.cos(2 * np.pi * g.X)
        errs.append(np.abs(gx.values - exact)[1:-1, 1:-1].max())
    # halving h divides the error by about 4
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_gradient_quadratic_interior(grid):
    gx, _ = gradient(f_of(grid, lambda X, Y: X**2))
    exact = 2 * grid.X
    assert np.abs(gx.values - exact)[1:-1, 1:-1].max() < 1e-12


def test_hessian_bilinear_exact(grid):
    hxx, hxy, hyy = hessian(f_of(grid, lambda X, Y: X * Y))
    assert np.allclose(hxy.values, 1.0, atol=1e-10)
    assert np.allclose(hxx.values, 0.0, atol=1e-10)
    assert np.allclose(hyy.values, 0.0, atol=1e-10)


def test_hessian_affine_zero(grid):
    hxx, hxy, hyy = hessian(f_of(grid, lambda X, Y: 3 * X - Y))
    for h in (hxx, hxy, hyy):
        assert np.allclose(h.values, 0.0, atol=1e-10)


def test_hessian_second_order_convergence():
    errs = []
    for n in (32, 64, 128):
        g = Grid2D(n)
        hxx, _, _ = hessian(f_of(g, lambda X, Y: np.sin(X)))
        errs.append(np.abs(hxx.values + np.sin(g.X))[2:-2, 2:-2].max())
    assert errs[0] / errs[1] > 3.0


def test_hessian_gradient_consistency(grid):
    f = f_of(grid, lambda X, Y: np.sin(2 * X) * np.cos(Y))
    hxx, hxy, hyy = hessian(f)
    gx, gy = gradient(f)
    gxx, _ = gradient(gx)
    _, gyy = gradient(gy)
    inner = (slice(2, -2), slice(2, -2))
    assert np.abs(hxx.values - gxx.values)[inner].max() < 10 * grid.h
    assert np.abs(hyy.values - gyy.values)[inner].max() < 10 * grid.h


# -- ball machinery ----------------------------------------------------------

def test_ball_average_constant_exact(grid):
    assert ball_average(GridFunction.constant(grid, 5.0), (0.5, 0.5), 0.25) == 5.0


def test_ball_average_affine_symmetric(grid):
    v = ball_average(f_of(grid, lambda X, Y: X), (0.5, 0.5), 0.25)
    assert v == pytest.approx(0.5, abs=grid.h)


def test_ball_average_quadratic_oracle():
    # mean of |x - c|^2 over a disk of radius r is r^2/2
    g = Grid2D(128)
    f = f_of(g, lambda X, Y: (X - 0.5) ** 2 + (Y - 0.5) ** 2)
    r = 0.25
    assert ball_average(f, (0.5, 0.5), r) == pytest.approx(r**2 / 2, abs=2 * g.h * r)


def test_ball_average_linearity(grid):
    f1 = f_of(grid, lambda X, Y: np.sin(X + Y))
    f2 = f_of(grid, lambda X, Y: X**2)
    lhs = ball_average(f1.with_values(2 * f1.values + 3 * f2.values), (0.5, 0.5), 0.2)
    rhs = 2 * ball_average(f1, (0.5, 0.5), 0.2) + 3 * ball_average(f2, (0.5, 0.5), 0.2)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_ball_average_guards(grid):
    f = GridFunction.constant(grid, 1.0)
    with pytest.raises(ResolutionError):
        ball_average(f, (0.5, 0.5), 0.5 * grid.h)
    with pytest.raises(DomainError):
        ball_average(f, (0.1, 0.5), 0.3)


def test_resolution_floor_at_2h(grid):
    # exactly 2h is resolved; a radius just below it is refused
    assert grid.r_min == 2 * grid.h
    assert grid.resolves(grid.r_min)
    ii, jj = ball_nodes(grid, (0.5, 0.5), grid.r_min)
    assert ii.size == 13  # the node-center disk of radius 2 mesh widths
    below = grid.r_min * (1 - 1e-9)
    assert not grid.resolves(below)
    with pytest.raises(ResolutionError):
        ball_nodes(grid, (0.5, 0.5), below)


def test_ball_index_count_matches_disk_area():
    g = Grid2D(128)
    for r in (0.1, 0.2, 0.37):
        di, _ = ball_offsets(r / g.h)
        count = di.size
        area = np.pi * r**2
        ring = 2 * np.pi * (r + g.h) * g.h + 4 * g.h**2
        assert abs(count * g.h**2 - area) <= ring


def test_mean_oscillation_vs_best_constant():
    # avg |f - avg f| <= 2 min_c avg |f - c|, scanning c over node values
    g = Grid2D(32)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.normal(size=(32, 32)))
    ii, jj = ball_nodes(g, (0.5, 0.5), 0.3)
    vals = f.values[ii, jj]
    lhs = np.abs(vals - vals.mean()).mean()
    best = min(np.abs(vals - c).mean() for c in vals)
    assert lhs <= 2 * best + 1e-12


# -- median -------------------------------------------------------------------

def test_largest_median_order_statistic():
    assert largest_median([1, 1, 2, 3, 3]) == 2
    assert largest_median([1.0]) == 1.0
    assert largest_median([2, 1]) == 1  # more than half must lie strictly above
    with pytest.raises(DataError):
        largest_median([])


def test_median_constant_and_affine(grid):
    assert median(GridFunction.constant(grid, 3.3), (0.5, 0.5), 0.2) == 3.3
    m = median(f_of(grid, lambda X, Y: X), (0.5, 0.5), 0.2)
    assert m == pytest.approx(0.5, abs=grid.h)


# -- W^{1,1} ---------------------------------------------------------------

def test_w11_distance(grid):
    f = f_of(grid, lambda X, Y: X)
    assert w11_distance(f, f) == 0.0
    shifted = f.with_values(f.values + 0.7)
    assert w11_distance(f, shifted) == pytest.approx(0.7, rel=1e-12)
    zero = GridFunction.constant(grid, 0.0)
    assert w11_distance(f, zero) == pytest.approx(1.5, abs=5 * grid.h)
    with pytest.raises(GridMismatchError):
        w11_distance(f, GridFunction.constant(Grid2D(32), 0.0))


# -- measures ------------------------------------------------------------------

def test_ball_mass_atoms():
    mu = MeasureData(atoms=[(0.0, 0.0, 1.0)])
    assert ball_mass(mu, (0.0, 0.0), 0.05) == 1.0
    assert ball_mass(mu, (0.3, 0.0), 0.2) == 0.0
    assert ball_mass(mu, (0.1, 0.0), 0.1) == 1.0  # closed ball: boundary atom counts


def test_ball_mass_disk_area():
    g = Grid2D(128)
    mu = MeasureData(density=GridFunction.constant(g, 1.0))
    r = 0.25
    got = ball_mass(mu, (0.5, 0.5), r)
    assert got == pytest.approx(np.pi * r**2, abs=2 * g.h * 2 * np.pi * r)


def test_ball_mass_additive_and_monotone():
    mu1 = MeasureData(atoms=[(0.3, 0.3, 1.0)])
    mu2 = MeasureData(atoms=[(0.7, 0.7, 2.0)])
    both = MeasureData(atoms=mu1.atoms + mu2.atoms)
    c, r = (0.5, 0.5), 0.4
    assert ball_mass(both, c, r) == ball_mass(mu1, c, r) + ball_mass(mu2, c, r)
    assert ball_mass(both, c, 0.2) <= ball_mass(both, c, 0.4)


def test_negative_density_rejected():
    g = Grid2D(32)
    with pytest.raises(DataError):
        MeasureData(density=GridFunction.constant(g, -1.0))


@given(st.floats(min_value=0.1, max_value=0.4))
@settings(max_examples=20, deadline=None)
def test_disk_integral_constant(r):
    g = Grid2D(64)
    val = disk_integral(GridFunction.constant(g, 2.0), (0.5, 0.5), r)
    assert val == pytest.approx(2.0 * np.pi * r**2, abs=2.0 * 3 * g.h * r + 8 * g.h**2)


def _full_grid_disk_integral(f, center, radius):
    # the accuracy reference: numpy's pairwise sum of the full-grid
    # closed-ball mask, with the closed-ball rule written out
    g = f.grid
    inside = (g.X - center[0]) ** 2 + (g.Y - center[1]) ** 2 <= radius**2 * (1.0 + 1e-12)
    return float(f.values[inside].sum() * g.h * g.h)


def _full_grid_node_count(g, center, radius):
    return int(np.count_nonzero(
        (g.X - center[0]) ** 2 + (g.Y - center[1]) ** 2 <= radius**2 * (1.0 + 1e-12)))


def _gamma(k):
    # Higham's gamma_k = k u / (1 - k u), u the unit roundoff
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


_TIE_NODES = ((0, 1), (1, 3), (3, 2), (2, 4), (4, 0))  # in quarters of the mesh


def _exact_bound_radii(g, c):
    """Radii whose closed-ball bound r^2 (1 + 1e-12) equals some tie node's
    squared distance from c exactly, where only a <= comparison keeps the
    node in the disk."""
    d2 = (g.X - c[0]) ** 2 + (g.Y - c[1]) ** 2
    radii = []
    for a, b in _TIE_NODES:
        dd = d2[a * (g.n - 1) // 4, b * (g.n - 1) // 4]
        r0 = np.sqrt(dd / (1.0 + 1e-12))
        radii += [r for r in r0 + np.arange(-3, 4) * np.spacing(r0)
                  if r > 0 and r**2 * (1.0 + 1e-12) == dd]
    return radii


def _mass_test_disks(n):
    """(centers, radii per center) of the disk-mass tests on an n-mesh: an
    interior, a near-edge and an outside center each, and a sorted ladder
    holding radii at exact node distances and exact-bound radii (the 1e-12
    tie rule)."""
    g = Grid2D(n)
    node = (float(g.xs[n // 4]), float(g.ys[n // 4]))
    centers = [(0.5, 0.5), (0.37, 0.61), node,  # interior
               (0.02, 0.97), (g.xs[0], 0.4),  # near an edge
               (1.0 + 0.5 * g.h, 0.4)]  # just outside the domain
    ladders = []
    for c in centers:
        ties = np.hypot(g.xs[[0, n // 3, n - 1]] - c[0], g.ys[[1, n // 2, n - 2]] - c[1])
        ladders.append(np.unique(np.concatenate(
            [np.geomspace(g.h, 1.2, 30), ties, g.h * np.arange(1, 6),
             _exact_bound_radii(g, c)])))
    return centers, ladders


@pytest.mark.parametrize("n", [16, 48, 128])
def test_disk_integrals_equal_full_grid_masked_sums(n):
    # the node sets are the full-grid masks; the masses are pinned with ==
    # to the shell rule (mass_rule.py) and lie within the recursive-summation
    # bound of the masked pairwise sums
    g = Grid2D(n)
    f = GridFunction(g, np.random.default_rng(n).standard_normal((n, n)))
    for c, radii in zip(*_mass_test_disks(n)):
        got = disk_integrals(f, c, radii)
        assert got.tolist() == shell_binned_disk_integrals(f, c, radii)
        assert [disk_integral(f, c, r) for r in radii] == \
            [shell_binned_disk_integrals(f, c, [r])[0] for r in radii]
        # within the recursive-summation bound of the pairwise masked sum
        for r, mass in zip(radii, got):
            m = _full_grid_node_count(g, c, r)
            abs_mass = _full_grid_disk_integral(f.with_values(np.abs(f.values)), c, r)
            assert abs(mass - _full_grid_disk_integral(f, c, r)) <= \
                2 * _gamma(m + len(radii)) * abs_mass


@pytest.mark.parametrize("n", [16, 48, 128])
def test_disk_masses_of_ones_count_the_full_grid_mask(n):
    # sums of ones are exact in any order: each mass is the closed-ball
    # mask's node count times h^2, so the node sets (and the 1e-12 tie
    # rule) stay pinned bit for bit whatever the summation order
    g = Grid2D(n)
    ones = GridFunction.constant(g, 1.0)
    centers, ladders = _mass_test_disks(n)
    assert sum(len(_exact_bound_radii(g, c)) for c in centers) >= 6
    for c, radii in zip(centers, ladders):
        counts = np.array([_full_grid_node_count(g, c, r) for r in radii], dtype=float)
        assert disk_integrals(ones, c, radii).tolist() == (counts * g.h * g.h).tolist()
        assert [disk_integral(ones, c, r) for r in radii] == (counts * g.h * g.h).tolist()


# twelve atoms of mixed sign and scale: past numpy's 8-way pairwise
# threshold, so only an atom-by-atom sum in list order matches Python's sum
_MANY_ATOMS = [(0.3, 0.3, -72.0), (0.5, 0.52, 4.5), (0.7, 0.4, 2.2), (0.45, 0.55, -0.75),
               (0.2, 0.45, -57.0), (0.6, 0.25, 0.38), (0.46, 0.41, 0.054), (0.8, 0.8, 900.0),
               (0.35, 0.2, -0.094), (0.55, 0.45, 0.042), (0.4, 0.7, 61.0), (0.65, 0.6, 3.9)]


def test_ball_masses_equal_atom_sum_plus_density_integral():
    # every atom sits exactly at a ladder radius (its distance is a rung)
    g = Grid2D(48)
    dens = GridFunction(g, np.random.default_rng(3).uniform(0.0, 2.0, (48, 48)))
    c = (0.45, 0.4)
    for atoms in ([(0.3, 0.3, 1.0), (0.5, 0.52, -0.25), (0.7, 0.4, 2.0)], _MANY_ATOMS):
        mu = MeasureData(atoms=atoms, density=dens)
        atom_dists = [np.hypot(x - c[0], y - c[1]) for x, y, _ in mu.atoms]
        radii = np.unique(np.concatenate([np.geomspace(2 * g.h, 0.6, 40), atom_dists]))
        ladder = shell_binned_disk_integrals(dens, c, radii)
        for k, (r, got) in enumerate(zip(radii, ball_masses(mu, c, radii))):
            atom_mass = sum(abs(m) for x, y, m in mu.atoms
                            if np.hypot(x - c[0], y - c[1]) <= r + 1e-12 * max(1.0, r))
            assert got == float(atom_mass + ladder[k])
            assert ball_mass(mu, c, r) == \
                float(atom_mass + shell_binned_disk_integrals(dens, c, [r])[0])
        with pytest.raises(DataError):
            ball_masses(mu, c, [0.0, 0.1])


def test_ladders_in_any_order_give_the_sorted_ladders_masses():
    # a shuffled ladder with a repeated radius reads, bit for bit, the
    # sorted ladder's masses in the caller's order
    g = Grid2D(48)
    rng = np.random.default_rng(5)
    dens = GridFunction(g, rng.standard_normal((48, 48)))
    mu = MeasureData(atoms=_MANY_ATOMS, density=dens.with_values(np.abs(dens.values)))
    c = (0.45, 0.4)
    atom_dists = [np.hypot(x - c[0], y - c[1]) for x, y, _ in mu.atoms]
    radii = np.unique(np.concatenate([np.geomspace(2 * g.h, 0.6, 25), atom_dists]))
    shuffled = rng.permutation(np.concatenate([radii, radii[[7]]]))
    back = np.searchsorted(radii, shuffled)
    assert disk_integrals(dens, c, shuffled).tolist() == \
        disk_integrals(dens, c, radii)[back].tolist()
    assert ball_masses(mu, c, shuffled).tolist() == ball_masses(mu, c, radii)[back].tolist()


@pytest.mark.parametrize("n", [16, 48, 128])
def test_ball_masses_never_decrease_along_a_sorted_ladder(n):
    g = Grid2D(n)
    dens = GridFunction(g, np.random.default_rng(n).uniform(0.0, 2.0, (n, n)))
    atoms = [(0.3, 0.3, 1.0), (0.5, 0.52, -0.25), (0.7, 0.4, 2.0)]
    for mu in (MeasureData(density=dens), MeasureData(atoms=atoms, density=dens)):
        for c, radii in zip(*_mass_test_disks(n)):
            masses = ball_masses(mu, c, radii)
            assert np.all(np.diff(masses) >= 0.0)


# -- I/O -------------------------------------------------------------------------

def test_raster_roundtrip(tmp_path):
    g = Grid2D(32)
    f = f_of(g, lambda X, Y: np.sin(X) + Y)
    path = tmp_path / "field.txt"
    write_raster(path, f)
    assert path.read_text().splitlines()[0] == "32 32 0 0 1"
    back = read_raster(path)
    assert back.grid == g
    assert np.allclose(back.values, f.values, rtol=0, atol=1e-16)


@pytest.mark.parametrize("header", ["32 32 -1 -1 2", "32 32 0 0 2", "32 32 0.5 0 1"])
def test_raster_off_the_unit_square_is_a_data_error(tmp_path, header):
    path = tmp_path / "field.txt"
    write_raster(path, GridFunction.constant(Grid2D(32), 1.0))
    body = path.read_text().split("\n", 1)[1]
    path.write_text(f"{header}\n{body}")
    with pytest.raises(DataError, match="unit square"):
        read_raster(path)


@pytest.mark.parametrize("text", ["a b 0 0 1\n1 2\n", "16 16 0 0 1\n" + "1 x\n" * 16])
def test_malformed_raster_is_a_data_error(tmp_path, text):
    # a raster is outside input: a header or body that is not numbers is
    # bad data, not a ValueError
    path = tmp_path / "field.txt"
    path.write_text(text)
    with pytest.raises(DataError, match="malformed raster"):
        read_raster(path)


def test_grid_validation():
    with pytest.raises(DataError):
        Grid2D(8)


def test_gridfunction_immutable(grid):
    f = GridFunction.constant(grid, 1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0
