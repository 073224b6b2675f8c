"""Variational-inequality solver: oracles, invariants, mollification, chains."""

from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from potlab import solver
from potlab.errors import (
    ChainError,
    DataError,
    DomainError,
    EnergyIncreaseError,
    GridMismatchError,
    IterationLimitError,
    LevelError,
)
from potlab.field import (
    CoefficientField,
    VectorField,
    affine_coefficient,
    constant_coefficient,
    jump_coefficient,
)
from potlab.grid import Grid2D, GridFunction, MeasureData, disk_integral
from potlab.orlicz import PowerGrowth, RegularizedPowerGrowth, TabulatedGrowth
from potlab.solver import (
    ObstacleProblem,
    SolverConfig,
    apply_operator,
    comparison_chain,
    frozen_problem,
    mollify_measure,
    solve_equation,
    solve_frozen,
    solve_op_sequence,
    solve_vi,
)

CFG = SolverConfig(tol=1e-9)


def unit_field(p=2.0):
    return VectorField(PowerGrowth(p), constant_coefficient(1.0))


def ring_only(grid, fn):
    """Boundary data with zeroed interior, to deny the solver a free start."""
    full = GridFunction.from_callable(grid, fn)
    vals = np.zeros_like(full.values)
    ring = ~grid.interior_mask()
    vals[ring] = full.values[ring]
    return GridFunction(grid, vals)


def test_affine_data_reproduces_affine():
    g = Grid2D(48)
    prob = ObstacleProblem(field=unit_field(2.0), boundary=ring_only(g, lambda X, Y: X))
    sol = solve_equation(prob, CFG)
    assert np.abs(sol.u.values - g.X).max() < 1e-8
    assert sol.complementarity <= 10 * CFG.tol


def test_affine_data_p4():
    g = Grid2D(48)
    prob = ObstacleProblem(
        field=unit_field(4.0), boundary=ring_only(g, lambda X, Y: 0.3 * X + 0.1 * Y)
    )
    sol = solve_equation(prob, CFG)
    exact = 0.3 * g.X + 0.1 * g.Y
    assert np.abs(sol.u.values - exact).max() < 1e-7


def test_unregularized_degenerate_kernel_from_flat_start():
    # epsilon = 0, p = 3: the flat interior start has m = 0 on every inner
    # cell, so those nodes have no curvature in the Newton system
    g = Grid2D(48)
    prob = ObstacleProblem(field=unit_field(3.0), boundary=ring_only(g, lambda X, Y: X))
    sol = solve_equation(prob, SolverConfig(tol=1e-9, epsilon=0.0))
    assert sol.converged
    assert np.abs(sol.u.values - g.X).max() < 1e-7


def _flat_start_power(p):
    # zero trace and f = 1: the start is flat, so every cell has m = epsilon
    g = Grid2D(48)
    return ObstacleProblem(field=unit_field(p), boundary=GridFunction.constant(g, 0.0),
                           rhs=GridFunction.constant(g, 1.0))


@pytest.mark.parametrize("p, epsilon", [(4.0, 1e-8), (4.5, 1e-4), (5.0, 1e-4)])
def test_degenerate_kernel_from_flat_start_converges(p, epsilon):
    sol = solve_equation(_flat_start_power(p), SolverConfig(epsilon=epsilon))
    assert sol.converged


_EPSILON_CONTINUATION = ("the line search collapses after 0 iterations from a flat start at "
                         "epsilon = 1e-8; ROADMAP item 11's epsilon continuation mends it")


@pytest.mark.xfail(strict=True, raises=IterationLimitError, reason=_EPSILON_CONTINUATION)
@pytest.mark.parametrize("p", [4.5, 5.0, 6.0])
def test_degenerate_kernel_from_flat_start_at_tiny_epsilon(p):
    sol = solve_equation(_flat_start_power(p), SolverConfig(epsilon=1e-8))
    assert sol.converged


def test_zero_problem():
    g = Grid2D(48)
    zero = GridFunction.constant(g, 0.0)
    prob = ObstacleProblem(field=unit_field(2.0), boundary=zero, obstacle=zero)
    sol = solve_vi(prob, CFG)
    assert np.all(sol.u.values == 0.0)
    assert sol.iterations == 0


def test_linear_solve_matches_sparse_oracle():
    # independent route: assemble the Euler-Lagrange system of the p = 2
    # cell energy (the diagonal five-point stencil) and solve it directly
    n = 48
    g = Grid2D(n)
    f = GridFunction.from_callable(g, lambda X, Y: np.sin(2 * np.pi * X) + 1.0)
    zero = GridFunction.constant(g, 0.0)
    sol = solve_vi(
        ObstacleProblem(field=unit_field(2.0), boundary=zero, rhs=f),
        SolverConfig(tol=1e-11),
    )

    idx = np.arange(n * n).reshape(n, n)
    interior = np.zeros((n, n), dtype=bool)
    interior[1:-1, 1:-1] = True
    rows, cols, vals = [], [], []
    rhs = np.zeros(n * n)
    scale = 1.0 / (2 * g.h**2)
    for i in range(n):
        for j in range(n):
            k = idx[i, j]
            if not interior[i, j]:
                rows.append(k); cols.append(k); vals.append(1.0)
                continue
            rows.append(k); cols.append(k); vals.append(4.0 * scale)
            for di, dj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                rows.append(k); cols.append(idx[i + di, j + dj]); vals.append(-scale)
            rhs[k] = f.values[i, j]
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n * n, n * n))
    ref = spla.spsolve(A, rhs).reshape(n, n)
    assert np.abs(sol.u.values - ref).max() < 1e-8


def test_null_rhs_vi_equals_equation():
    g = Grid2D(48)
    bdata = ring_only(g, lambda X, Y: X + 0.2 * np.sin(2 * np.pi * Y))
    low = GridFunction.constant(g, -1e6)
    vi = solve_vi(ObstacleProblem(field=unit_field(3.0), boundary=bdata, obstacle=low), CFG)
    eq = solve_equation(ObstacleProblem(field=unit_field(3.0), boundary=bdata), CFG)
    assert np.abs(vi.u.values - eq.u.values).max() < 10 * CFG.tol


def _same_solution(a, b):
    """Every Solution field equal, the iterate bit for bit."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "u":
            assert x.grid == y.grid and x.values.tobytes() == y.values.tobytes()
        else:
            assert x == y, f.name


@pytest.mark.parametrize("ball", [None, ((0.5, 0.5), 0.3)], ids=["interior", "ball"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_equation_is_the_obstacle_problem_at_minus_infinity(monkeypatch, p, ball):
    # one loop: no obstacle solves as an obstacle no node reaches, and no
    # data as zero data, down to the last bit; n = 64 runs the coarse start
    coarse = []
    start = solver._coarse_start
    monkeypatch.setattr(solver, "_coarse_start", lambda *a: coarse.append(1) or start(*a))
    g = Grid2D(64)
    bdata = GridFunction.from_callable(g, lambda X, Y: X + 0.2 * np.sin(2 * np.pi * Y))
    prob = ObstacleProblem(field=unit_field(p), boundary=bdata)
    eq = solve_equation(prob, CFG, ball=ball)
    low = replace(prob, obstacle=GridFunction.constant(g, -1e3))
    _same_solution(eq, solve_vi(low, CFG, ball=ball))
    zero = replace(prob, rhs=GridFunction.constant(g, 0.0))
    _same_solution(eq, solve_equation(zero, CFG, ball=ball))
    assert len(coarse) == 3


def test_warm_start_on_another_mesh_is_refused():
    prob = ObstacleProblem(field=unit_field(2.0), boundary=GridFunction.constant(Grid2D(32), 0.0))
    with pytest.raises(GridMismatchError, match=r"Grid2D\(n=64\).*Grid2D\(n=32\)"):
        solve_equation(prob, CFG, warm_start=GridFunction.constant(Grid2D(64), 0.0))


def test_feasibility_and_trace():
    g = Grid2D(48)
    psi = GridFunction.from_callable(
        g, lambda X, Y: 0.2 - 1.5 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)
    )
    bdata = GridFunction.constant(g, 0.0)
    sol = solve_vi(ObstacleProblem(field=unit_field(2.0), boundary=bdata, obstacle=psi), CFG)
    assert np.all(sol.u.values >= psi.values - 1e-12)
    ring = ~g.interior_mask()
    assert np.array_equal(sol.u.values[ring], bdata.values[ring])
    assert sol.complementarity <= 10 * CFG.tol
    # the obstacle is active somewhere for this instance
    assert np.any(np.isclose(sol.u.values, psi.values, atol=1e-10) & ~ring)


def test_energy_monotone_along_iterates():
    g = Grid2D(48)
    f = GridFunction.constant(g, 4.0)
    zero = GridFunction.constant(g, 0.0)
    sol = solve_vi(ObstacleProblem(field=unit_field(3.0), boundary=zero, rhs=f), CFG)
    e = np.array(sol.energy_history)
    assert np.all(np.diff(e) <= 1e-12 * (np.abs(e[:-1]) + 1.0))


def test_infeasible_boundary_raises():
    # the trace is checked once, by the solve, on the ring it pins
    g = Grid2D(48)
    psi = GridFunction.constant(g, 1.0)
    bdata = GridFunction.constant(g, 0.0)
    prob = ObstacleProblem(field=unit_field(2.0), boundary=bdata, obstacle=psi)
    with pytest.raises(DataError, match="below the obstacle"):
        solve_vi(prob, CFG)


def test_infeasible_trace_off_the_ball_raises():
    # the donor is above psi on the ring and on the ball but below it at one
    # node that a ball solve pins and a full solve frees
    g = Grid2D(48)
    psi = GridFunction.constant(g, 0.0)
    ball = ((0.5, 0.5), 0.2)
    donor = np.ones((g.n, g.n))
    donor[10, 10] = -1.0
    assert not solver._ball_free_mask(g, ball)[10, 10] and g.interior_mask()[10, 10]
    prob = ObstacleProblem(field=unit_field(2.0), boundary=GridFunction(g, donor), obstacle=psi)
    assert solve_vi(prob, CFG).converged
    with pytest.raises(DataError, match="below the obstacle"):
        solve_vi(prob, CFG, ball=ball)


def test_iteration_limit_carries_last_iterate():
    # p = 2 is quadratic and converges in one Newton step; p = 3 needs more
    g = Grid2D(48)
    f = GridFunction.constant(g, 1.0)
    zero = GridFunction.constant(g, 0.0)
    with pytest.raises(IterationLimitError) as info:
        solve_vi(
            ObstacleProblem(field=unit_field(3.0), boundary=zero, rhs=f),
            SolverConfig(tol=1e-9, max_iter=3),
        )
    assert info.value.last is not None
    assert info.value.last.converged is False
    assert info.value.last.iterations == 3
    assert info.value.last.stop_reason == "iteration budget"
    assert "iteration budget" in str(info.value)


def _contact_problem(n):
    g = Grid2D(n)
    psi = GridFunction.from_callable(
        g, lambda X, Y: 0.2 - 1.5 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2)
    )
    return ObstacleProblem(
        field=unit_field(3.0), boundary=GridFunction.constant(g, 0.0), obstacle=psi
    )


def test_absurd_ascent_direction_collapses_line_search(monkeypatch):
    # every halving of a reversed step 1e30 times too long raises the energy
    hessian = solver._hessian
    monkeypatch.setattr(solver, "_hessian", lambda *a: -1e-30 * hessian(*a))
    with pytest.raises(IterationLimitError) as info:
        solve_vi(_contact_problem(48), CFG)
    assert info.value.last.stop_reason == "line search collapsed"
    assert info.value.last.iterations == 0
    assert "line search collapsed" in str(info.value)


def test_accepted_energy_increase_raises(monkeypatch):
    # an ascent direction that a broken sufficient-decrease test accepts
    hessian = solver._hessian
    monkeypatch.setattr(solver, "_hessian", lambda *a: -hessian(*a))
    monkeypatch.setattr(solver, "_SUFFICIENT_DECREASE", 1e6)
    with pytest.raises(EnergyIncreaseError):
        solve_vi(_contact_problem(48), CFG)


def _record_levels(monkeypatch, events):
    """Append to ``events`` the Solution of every continuation level as it
    returns, and "lu", "cg" or "miss" for each factorization and each
    lagged-LU CG solve in between."""
    minimize, splu, cg = solver._minimize, solver.splu, solver._lagged_cg

    def level(*a):
        sol = minimize(*a)
        events.append(sol)
        return sol

    def factor(*a, **k):
        events.append("lu")
        return splu(*a, **k)

    def krylov(*a):
        x, its = cg(*a)
        events.append("miss" if x is None else "cg")
        return x, its

    monkeypatch.setattr(solver, "_minimize", level)
    monkeypatch.setattr(solver, "splu", factor)
    monkeypatch.setattr(solver, "_lagged_cg", krylov)


def _levels(events):
    return [e for e in events if isinstance(e, solver.Solution)]


def test_warm_start_on_the_mesh_half_as_fine_is_prolonged_and_polished(monkeypatch):
    cfg = SolverConfig(tol=1e-8)
    flat = solve_vi(_contact_problem(64), cfg)
    coarse = solve_vi(_contact_problem(32), cfg)
    events = []
    _record_levels(monkeypatch, events)
    warm = solve_vi(_contact_problem(64), cfg, warm_start=coarse.u)
    # one level, on the problem's own mesh: the coarse solve is the start
    assert [s.u.grid for s in _levels(events)] == [Grid2D(64)]
    assert np.abs(warm.u.values - flat.u.values).max() <= cfg.tol
    assert warm.factorizations < flat.factorizations


def test_warm_start_on_the_problem_mesh_runs_no_coarse_level(monkeypatch):
    # the flat start's own values, passed as a warm start, skip the cascade
    prob = _contact_problem(64)
    events = []
    _record_levels(monkeypatch, events)
    sol = solve_vi(prob, CFG, warm_start=prob.boundary)
    assert sol.converged
    assert [s.u.grid for s in _levels(events)] == [Grid2D(64)]


def test_warm_start_on_a_quarter_mesh_is_refused():
    with pytest.raises(GridMismatchError, match=r"Grid2D\(n=16\).*Grid2D\(n=64\)"):
        solve_vi(_contact_problem(64), CFG, warm_start=GridFunction.constant(Grid2D(16), 0.0))


def test_flat_start_keeps_its_coarse_cascade(monkeypatch):
    # n = 128 from a flat start: the n = 32 and n = 64 levels, then its own,
    # with one LU per level and one more where a CG misses
    events = []
    _record_levels(monkeypatch, events)
    sol = solve_vi(_contact_problem(128), CFG)
    assert [s.u.grid.n for s in _levels(events)] == [32, 64, 128]
    assert (sol.iterations, sol.factorizations, sol.krylov_iterations) == (6, 6, 89)


def test_lagged_lu_saves_factorizations(monkeypatch):
    levels = []
    _record_levels(monkeypatch, levels)
    sol = solve_vi(_contact_problem(128), SolverConfig(tol=1e-8))
    steps = sum(s.iterations for s in levels if isinstance(s, solver.Solution))
    assert sol.factorizations < steps
    assert sol.krylov_iterations > 0


def test_inexact_newton_agrees_with_exact_newton(monkeypatch):
    # forced CG steps end at the same solution as steps that each factor
    # their Hessian and solve it exactly
    cfg = SolverConfig(tol=1e-8)
    inexact = solve_vi(_contact_problem(128), cfg)
    levels = []
    _record_levels(monkeypatch, levels)
    monkeypatch.setattr(solver, "_CG_MAX_ITER", 0)
    exact = solve_vi(_contact_problem(128), cfg)
    assert inexact.converged and exact.converged
    assert inexact.krylov_iterations > 0 and exact.krylov_iterations == 0
    # with no CG iterations allowed, every Newton step factors its Hessian
    assert exact.factorizations == sum(s.iterations for s in _levels(levels))
    scale = np.abs(exact.u.values).max()
    assert np.abs(inexact.u.values - exact.u.values).max() <= 1e-9 * scale


def test_a_cg_miss_refactors_and_the_newest_lu_stays(monkeypatch):
    # p = 4 Hessians move too fast between steps for the lagged LU
    events = []
    _record_levels(monkeypatch, events)
    g = Grid2D(64)
    bdata = ring_only(g, lambda X, Y: X + 0.3 * np.sin(2 * np.pi * Y))
    sol = solve_equation(ObstacleProblem(field=unit_field(4.0), boundary=bdata), CFG)
    assert sol.converged
    misses, cg_after_miss, level = 0, 0, []
    for e in events:
        if not isinstance(e, solver.Solution):
            level.append(e)
            continue
        # one "lu" or "cg" per Newton step; the first step and each miss factor
        assert level.count("lu") + level.count("cg") == e.iterations
        assert level[:1] == ["lu"] and level.count("lu") == 1 + level.count("miss")
        assert all(level[i + 1] == "lu" for i, x in enumerate(level) if x == "miss")
        if "miss" in level:
            cg_after_miss += "cg" in level[level.index("miss"):]
        misses += level.count("miss")
        level = []
    assert misses == sol.krylov_misses > 0
    # after a miss the level's new LU preconditions later steps
    assert cg_after_miss > 0


def test_a_lagged_lu_outlives_a_change_of_the_unknown_set(monkeypatch):
    # n = 128 warm-started from n = 64: the prolonged start frees nodes the
    # first LU was not built on, and CG on that LU still converges
    coarse = solve_vi(_contact_problem(64), CFG)
    sets = []
    build = solver._lagged_preconditioner

    def recorded(lu, lu_nodes, nodes, diagonal, size):
        sets.append(np.array_equal(lu_nodes, nodes))
        return build(lu, lu_nodes, nodes, diagonal, size)
    monkeypatch.setattr(solver, "_lagged_preconditioner", recorded)
    sol = solve_vi(_contact_problem(128), CFG, warm_start=coarse.u)
    assert sol.converged
    assert sets and not all(sets)
    assert (sol.factorizations, sol.krylov_misses) == (1, 0)


TABULATED_P25 = TabulatedGrowth(np.geomspace(1e-6, 1e3, 600), np.geomspace(1e-6, 1e3, 600) ** 1.5)
GROWTHS = [PowerGrowth(2.0), PowerGrowth(3.0), PowerGrowth(4.0), TABULATED_P25,
           RegularizedPowerGrowth(2.0, 0.5), RegularizedPowerGrowth(3.0, 0.5),
           RegularizedPowerGrowth(4.0, 0.5)]
GROWTH_IDS = ["p2", "p3", "p4", "tabulated", "regularized-p2", "regularized-p3",
              "regularized-p4"]

# the four nodes of a cell in `_cell_flux` order (a, b, c, d) and the
# signs of their weights in the cell gradient (dux, duy)
_CORNERS = ((0, 0), (1, 0), (0, 1), (1, 1))
_WX = (-1.0, 1.0, -1.0, 1.0)
_WY = (-1.0, -1.0, 1.0, 1.0)


def _coo_hessian(vals, omega_cells, growth, inv2h, eps2, unknown):
    """Reference assembly: the Jacobian of `_divergence` in the nodes of
    ``unknown`` numbered in row-major order, summed from the 4x4 cell
    blocks as COO triplets."""
    dux, duy, m = solver._cell_flux(vals, inv2h, eps2)
    kappa = growth.kernel(m)
    rho = np.zeros_like(m)
    pos = m > 0
    rho[pos] = (growth.dg(m[pos]) - kappa[pos]) / (m[pos] * m[pos])
    iso = omega_cells * kappa * inv2h**2
    rank1 = omega_cells * rho
    n = vals.shape[0]
    number = np.full(vals.shape, -1, dtype=np.int32)
    count = int(unknown.sum())
    number[unknown] = np.arange(count, dtype=np.int32)
    nodes = [number[i:n - 1 + i, j:n - 1 + j] for i, j in _CORNERS]
    keep = [k >= 0 for k in nodes]
    proj = [inv2h * (wx * dux + wy * duy) for wx, wy in zip(_WX, _WY)]
    rows, cols, data = [], [], []
    for a in range(4):
        for b in range(4):
            both = keep[a] & keep[b]
            val = rank1 * proj[a] * proj[b]
            cross = _WX[a] * _WX[b] + _WY[a] * _WY[b]
            if cross:
                val += cross * iso
            rows.append(nodes[a][both])
            cols.append(nodes[b][both])
            data.append(val[both])
    H = sp.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(count, count),
    )
    diag = H.diagonal()
    flat = diag <= 0
    if flat.any():
        H = H + sp.diags(np.where(flat, diag.max() if diag.max() > 0 else 1.0, 0.0),
                         format="csc")
    return H


def _level_hessian(u, omega, growth, inv2h, eps2, unknown, free):
    """The solver's Hessian on ``unknown`` with the pattern of the level
    whose free set is ``free``, and its nodes (flat indices, in order)."""
    pattern = solver._Pattern(free)
    H = solver._hessian(u, omega, growth, inv2h, eps2, pattern, unknown)
    return H, pattern.restrict(unknown)[0]


@pytest.mark.parametrize("growth", GROWTHS, ids=GROWTH_IDS)
@pytest.mark.parametrize("n", [24, 25])
@pytest.mark.parametrize("where", ["interior", "disk"])
def test_pattern_hessian_matches_coo_assembly(growth, n, where):
    g = Grid2D(n)
    rng = np.random.default_rng(n)
    free = (g.interior_mask() if where == "interior"
            else solver._ball_free_mask(g, ((0.45, 0.55), 0.3)))
    u = np.sin(3 * g.X) * np.cos(2 * g.Y) + 0.1 * rng.standard_normal((n, n))
    u[n // 3:n // 2, n // 3:n // 2] = 0.5  # a flat patch: m = 0 cells at epsilon = 0
    omega = 1.0 + 0.5 * rng.random((n - 1, n - 1))
    for eps2, share in ((1e-16, 1.0), (0.0, 0.7), (1e-16, 0.4)):
        unknown = free & (rng.random((n, n)) < share)
        H, nodes = _level_hessian(u, omega, growth, 0.5 / g.h, eps2, unknown, free)
        ref = _coo_hessian(u, omega, growth, 0.5 / g.h, eps2, unknown)
        # the reference numbers the unknowns row-major; put it in the pattern's order
        perm = (np.cumsum(unknown.ravel()) - 1)[nodes]
        ref = ref[perm][:, perm]
        assert H.shape == ref.shape == (unknown.sum(),) * 2
        assert np.abs((H - ref).toarray()).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [16, 33, 64, 128])
def test_dissection_order_is_a_permutation(n):
    order = solver._dissection_order(n)
    assert np.array_equal(np.sort(order), np.arange(n * n))
    assert not order.flags.writeable


def test_dissection_order_fills_less_than_minimum_degree(monkeypatch):
    # the first fine-level Hessian of the n = 128 contact problem, factored
    # in the dissection order and by SuperLU's own minimum-degree ordering;
    # Solution.lu_nnz sums the fill of every factorization
    factors = []
    splu = solver.splu

    def factor(H, **k):
        lu = splu(H, **k)
        factors.append((H, lu.nnz))
        return lu

    monkeypatch.setattr(solver, "splu", factor)
    sol = solve_vi(_contact_problem(128), SolverConfig(tol=1e-8))
    assert sol.lu_nnz == sum(nnz for _, nnz in factors)
    H, nnz = next((H, nnz) for H, nnz in factors if H.shape[0] > 64 * 64)
    mmd = splu(H, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    assert nnz < mmd.nnz


@pytest.mark.parametrize("growth", GROWTHS, ids=GROWTH_IDS)
def test_hessian_matches_divergence_difference(growth):
    n = 24
    g = Grid2D(n)
    rng = np.random.default_rng(3)
    u = np.sin(3 * g.X) * np.cos(2 * g.Y) + 0.1 * rng.standard_normal((n, n))
    omega = 1.0 + 0.5 * rng.random((n - 1, n - 1))
    unknown = g.interior_mask() & (rng.random((n, n)) < 0.8)
    inv2h, eps2 = 0.5 / g.h, 1e-16
    H, nodes = _level_hessian(u, omega, growth, inv2h, eps2, unknown, g.interior_mask())
    v = np.zeros((n, n))
    v[unknown] = rng.standard_normal(int(unknown.sum()))
    delta = 1e-6
    plus = solver._divergence(u + delta * v, omega, growth, inv2h, eps2)[0]
    minus = solver._divergence(u - delta * v, omega, growth, inv2h, eps2)[0]
    fd = ((plus - minus) / (2 * delta)).flat[nodes]
    got = H @ v.flat[nodes]
    assert np.abs(got - fd).max() <= 1e-6 * np.abs(fd).max()


@pytest.mark.parametrize("growth", [PowerGrowth(3.0), TABULATED_P25], ids=["p3", "tabulated"])
def test_hessian_eigenvalue_floor(growth):
    # the assembled Newton matrix is symmetric positive definite on the
    # unknowns, so each projected Newton step is a descent direction
    n = 16
    g = Grid2D(n)
    rng = np.random.default_rng(12)
    u = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 2, (n, n))
    omega = 1.0 + 0.5 * rng.random((n - 1, n - 1))
    unknown = g.interior_mask() & (rng.random((n, n)) < 0.8)
    H = _level_hessian(u, omega, growth, 0.5 / g.h, 1e-16, unknown, g.interior_mask())[0]
    H = H.toarray()
    assert np.abs(H - H.T).max() <= 1e-12 * np.abs(H).max()
    assert np.linalg.eigvalsh(H).min() > 0


def test_cell_gradient_of_checkerboard_is_zero():
    board = (-1.0) ** np.add.outer(np.arange(16), np.arange(16))
    dux, duy, _ = solver._cell_flux(board, 8.0, 0.0)
    assert not dux.any() and not duy.any()


def test_fine_iterations_flat_in_n():
    iters = {n: solve_vi(_contact_problem(n), SolverConfig(tol=1e-8)).iterations
             for n in (64, 128)}
    assert iters[128] <= iters[64] + 2


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(16, 24),
    p=st.sampled_from([2.0, 3.0]),
    height=st.floats(-0.3, 0.4),
    curvature=st.floats(0.0, 4.0),
    trace=st.floats(0.0, 0.5),
    source=st.floats(-4.0, 4.0),
)
def test_kkt_conditions_hold(n, p, height, curvature, trace, source):
    g = Grid2D(n)
    psi = GridFunction.from_callable(
        g, lambda X, Y: height - curvature * ((X - 0.4) ** 2 + (Y - 0.55) ** 2)
    )
    ring = ~g.interior_mask()
    bvals = np.where(ring, np.maximum(trace * g.X, psi.values), 0.0)
    prob = ObstacleProblem(
        field=unit_field(p),
        boundary=GridFunction(g, bvals),
        obstacle=psi,
        rhs=GridFunction.constant(g, source),
    )
    sol = solve_vi(prob, CFG)
    u = sol.u.values
    resid = apply_operator(g, prob.field.growth, np.ones((n - 1, n - 1)), u,
                           CFG.epsilon) - source
    free = ~ring
    contact = free & (u <= psi.values)
    assert np.all(u >= psi.values)
    assert np.all(resid[contact] >= -10 * CFG.tol)
    gap = (u - psi.values)[free]
    assert np.abs(np.minimum(gap, resid[free])).max() <= 10 * CFG.tol


def test_raw_measure_rejected():
    # a problem holds bounded data only: a measure is refused when the
    # problem is built, by an error that names the mollification
    g = Grid2D(48)
    zero = GridFunction.constant(g, 0.0)
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    with pytest.raises(DataError, match="mollify_measure"):
        ObstacleProblem(field=unit_field(2.0), boundary=zero, rhs=mu)


def test_rotational_symmetry():
    g = Grid2D(64)
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    f = mollify_measure(mu, 8, g)
    zero = GridFunction.constant(g, 0.0)
    sol = solve_vi(ObstacleProblem(field=unit_field(2.0), boundary=zero, rhs=f), CFG)
    assert np.abs(sol.u.values - np.rot90(sol.u.values)).max() < 10 * CFG.tol


# -- comparison scaling --------------------------------------------------------

def test_inhomogeneous_comparison_scaling():
    g = Grid2D(48)
    zero = GridFunction.constant(g, 0.0)
    ball = ((0.5, 0.5), 0.25)
    ratios = []
    for lam in (1.0, 4.0, 16.0):
        f = GridFunction.constant(g, lam)
        u = solve_vi(ObstacleProblem(field=unit_field(2.0), boundary=zero, rhs=f), CFG)
        w = solve_vi(
            ObstacleProblem(field=unit_field(2.0), boundary=u.u),
            CFG, ball=ball, warm_start=u.u,
        )
        from potlab.grid import ball_average, gradient
        ux, uy = gradient(u.u)
        wx, wy = gradient(w.u)
        diff = u.u.with_values(np.hypot(ux.values - wx.values, uy.values - wy.values))
        lhs = ball_average(diff, *ball)
        rhs = ball[1] * lam  # (R avg|f|)^(1/ig) with ig = 1
        ratios.append(lhs / rhs)
    assert max(ratios) / min(ratios) < 3.0


# -- mollification ---------------------------------------------------------------

def test_mollify_mass_exact():
    g = Grid2D(128)
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    for level in (2, 4, 8, 16):
        f = mollify_measure(mu, level, g)
        assert abs(float(f.values.sum()) * g.h**2 - 1.0) <= 1e-10


def test_mollify_support_containment():
    g = Grid2D(128)
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    level = 8
    f = mollify_measure(mu, level, g)
    rb = 1.0 / (4 * level)
    inside = disk_integral(f, (0.5, 0.5), rb * (1 + 2 * g.h))
    assert inside == pytest.approx(1.0, abs=1e-10)


def test_mollify_passes_density_through():
    # only atoms are mollified: a density, here one that reaches the
    # boundary, is added to the bumps unchanged
    g = Grid2D(64)
    dens = GridFunction.from_callable(g, lambda X, Y: 1.0 + X * Y)
    atoms = [(0.5, 0.5, 1.0), (0.3, 0.6, 0.5)]
    for level in (2, 4, 8):
        bumps = mollify_measure(MeasureData(atoms=atoms), level, g)
        f = mollify_measure(MeasureData(atoms=atoms, density=dens), level, g)
        assert np.array_equal(f.values, bumps.values + dens.values)
        assert np.array_equal(mollify_measure(MeasureData(density=dens), level, g).values,
                              dens.values)


def test_mollify_density_on_another_grid():
    coarse = Grid2D(32)
    dens = GridFunction.from_callable(
        coarse, lambda X, Y: np.where(np.hypot(X - 0.5, Y - 0.5) < 0.2, 1.0, 0.0)
    )
    with pytest.raises(GridMismatchError):
        mollify_measure(MeasureData(density=dens), 2, Grid2D(64))


@pytest.mark.parametrize("n", [16, 24, 32, 48, 64, 96, 128, 256])
def test_finest_level_is_a_function_of_the_mesh(n):
    # the largest level whose bump 1/(4 level) the mesh resolves; no list
    # of levels caps it
    import inspect

    assert list(inspect.signature(solver.finest_level).parameters) == ["grid"]
    g = Grid2D(n)
    level = solver.finest_level(g)
    assert g.resolves(1.0 / (4 * level)) and not g.resolves(1.0 / (4 * (level + 1)))
    assert {64: 8, 128: 16, 256: 32}.get(n, level) == level


def test_mollify_level_errors():
    g = Grid2D(64)
    near_edge = MeasureData(atoms=[(0.05, 0.5, 1.0)])
    with pytest.raises(LevelError):
        mollify_measure(near_edge, 2, g)  # bump radius 1/8 > distance 0.05
    centered = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    with pytest.raises(LevelError):
        mollify_measure(centered, 16, g)  # bump radius 1/64 < 2h = 1/32


def test_mollify_negative_mass_preserved():
    g = Grid2D(64)
    mu = MeasureData(atoms=[(0.5, 0.5, -2.0)])
    f = mollify_measure(mu, 4, g)
    assert float(f.values.sum()) * g.h**2 == pytest.approx(-2.0, abs=1e-10)
    total_variation = sum(abs(m) for _, _, m in mu.atoms)
    assert float(np.abs(f.values).sum()) * g.h**2 <= total_variation + 1e-10


# -- mollification sequences ------------------------------------------------------

def test_op_sequence_zero_measure_matches_homogeneous():
    g = Grid2D(48)
    bdata = ring_only(g, lambda X, Y: X)
    mu = MeasureData(density=GridFunction.constant(g, 0.0))
    seq = solve_op_sequence(ObstacleProblem(field=unit_field(2.0), boundary=bdata), mu,
                            [2, 4], CFG)
    hom = solve_equation(ObstacleProblem(field=unit_field(2.0), boundary=bdata), CFG)
    for sol in seq.solutions:
        assert np.abs(sol.u.values - hom.u.values).max() < 10 * CFG.tol


def test_op_sequence_smooth_density_plateaus():
    # a density is not mollified, so every level solves the same problem
    # and the warm-started levels return the first level's solution
    g = Grid2D(64)
    mu = MeasureData(density=GridFunction.from_callable(
        g, lambda X, Y: 1.0 + np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y) * 0.5
    ))
    zero = GridFunction.constant(g, 0.0)
    seq = solve_op_sequence(ObstacleProblem(field=unit_field(2.0), boundary=zero), mu,
                            [2, 4, 8], CFG)
    first = seq.solutions[0].u.values
    assert all(np.array_equal(sol.u.values, first) for sol in seq.solutions)
    assert seq.distances == [0.0, 0.0]


def test_op_sequence_requires_increasing_levels():
    g = Grid2D(48)
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    zero = GridFunction.constant(g, 0.0)
    prob = ObstacleProblem(field=unit_field(2.0), boundary=zero)
    with pytest.raises(DataError):
        solve_op_sequence(prob, mu, [4, 2], CFG)


def test_op_sequence_iteration_limit_keeps_the_last_iterate():
    g = Grid2D(48)
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    zero = GridFunction.constant(g, 0.0)
    prob = ObstacleProblem(field=unit_field(3.0), boundary=zero)
    with pytest.raises(IterationLimitError) as info:
        solve_op_sequence(prob, mu, [2, 4], SolverConfig(tol=1e-9, max_iter=1))
    assert str(info.value).startswith("level 2: stopped by iteration budget")
    assert info.value.last.stop_reason == "iteration budget"
    assert info.value.last.iterations == 1


# -- frozen solves and chains -------------------------------------------------------

def test_frozen_constant_coefficient_is_noop():
    # n = 64 also has a coarse level, which a converged start skips
    for n in (48, 64):
        g = Grid2D(n)
        bdata = ring_only(g, lambda X, Y: X + 0.3 * np.sin(2 * np.pi * Y))
        u = solve_equation(ObstacleProblem(field=unit_field(2.0), boundary=bdata), CFG)
        w = solve_frozen(
            ObstacleProblem(field=unit_field(2.0), boundary=u.u),
            ((0.5, 0.5), 0.2), CFG, warm_start=u.u,
        )
        assert np.array_equal(w.u.values, u.u.values)
        assert w.iterations == 0


def test_frozen_average_of_affine_coefficient():
    g = Grid2D(128)
    coeff = affine_coefficient(1.0, 0.0, 1.0)
    vf = VectorField(PowerGrowth(2.0), coeff)
    prob = ObstacleProblem(field=vf, boundary=GridFunction.constant(g, 0.0))
    got = float(frozen_problem(prob, ((0.4, 0.5), 0.2)).field.coefficient.at(0.4, 0.5))
    assert got == pytest.approx(1.4, abs=2 * g.h)


def test_freeze_ball_leaving_the_domain_is_refused_before_any_mean():
    # the domain is checked before the coefficient is read over the ball
    def unread(X, Y):
        raise AssertionError("coefficient read for a ball outside the domain")

    g = Grid2D(48)
    field = VectorField(PowerGrowth(2.0), CoefficientField(unread))
    prob = ObstacleProblem(field=field, boundary=GridFunction.constant(g, 0.0))
    ball = ((0.9, 0.5), 0.3)
    message = r"^ball of radius 0\.3 at \(0\.9, 0\.5\) exits the domain$"
    with pytest.raises(DomainError, match=message):
        frozen_problem(prob, ball)
    with pytest.raises(DomainError, match=message):
        solve_frozen(prob, ball, CFG)


def test_stationary_start_builds_no_pattern(monkeypatch):
    # a level builds its Hessian pattern at its first Newton step, so a
    # start that already meets the stopping test builds none
    built = []
    original = solver._Pattern.__init__

    def counted(self, free):
        built.append(None)
        original(self, free)

    monkeypatch.setattr(solver._Pattern, "__init__", counted)
    g = Grid2D(64)
    zero = GridFunction.constant(g, 0.0)
    sol = solve_vi(ObstacleProblem(field=unit_field(3.0), boundary=zero), CFG)
    assert sol.converged and sol.iterations == 0
    assert built == []
    # the counter sees the patterns of a solve that steps: one per level
    sol = solve_equation(ObstacleProblem(field=unit_field(3.0),
                                         boundary=ring_only(g, lambda X, Y: X)), CFG)
    assert sol.iterations > 0 and len(built) == 2


def test_chain_collapses_without_data():
    g = Grid2D(48)
    bdata = ring_only(g, lambda X, Y: X)
    prob = ObstacleProblem(field=unit_field(2.0), boundary=bdata)
    outer = solve_equation(prob, CFG)
    ball = ((0.5, 0.5), 0.2)
    w1 = solve_vi(replace(prob, boundary=outer.u), CFG, ball=ball, warm_start=outer.u)
    chain = comparison_chain(prob, ball, CFG, w1=w1)
    for stage in (chain.w1, chain.w2, chain.w3, chain.w4):
        assert np.abs(stage.u.values - outer.u.values).max() < 10 * CFG.tol


def test_chain_affine_obstacle_flux_free():
    g = Grid2D(48)
    bdata = ring_only(g, lambda X, Y: X)
    psi = GridFunction.from_callable(g, lambda X, Y: 0.1 * X - 5.0)
    prob = ObstacleProblem(field=unit_field(3.0), boundary=bdata, obstacle=psi)
    outer = solve_vi(prob, CFG)
    ball = ((0.5, 0.5), 0.2)
    w1 = solve_vi(replace(prob, boundary=outer.u), CFG, ball=ball, warm_start=outer.u)
    chain = comparison_chain(prob, ball, CFG, w1=w1)
    # affine obstacle flux is divergence-free: the driven and homogeneous
    # frozen equations coincide
    assert np.abs(chain.w3.u.values - chain.w4.u.values).max() < 10 * CFG.tol


def test_chain_freezes_the_coefficient_once(monkeypatch):
    # w2-w4 solve one frozen problem, whose mean is one full-grid
    # coefficient evaluation; each stage and the obstacle flux are bitwise
    # the solves of frozen_problem that solve_frozen makes per stage

    g = Grid2D(48)
    vf = VectorField(PowerGrowth(2.0), jump_coefficient(0.3, position=0.45))
    psi = GridFunction.from_callable(g, lambda X, Y: 0.2 - 1.5 * ((X - 0.5) ** 2 + (Y - 0.5) ** 2))
    prob = ObstacleProblem(field=vf, boundary=ring_only(g, lambda X, Y: X), obstacle=psi)
    outer = solve_vi(prob, CFG)
    ball = ((0.5, 0.5), 0.2)
    half = ((0.5, 0.5), 0.1)
    w1 = solve_vi(replace(prob, boundary=outer.u, rhs=None), CFG, ball=ball, warm_start=outer.u)
    calls = []
    on_nodes = CoefficientField.on_nodes

    def counted(self, grid):
        calls.append(grid)
        return on_nodes(self, grid)

    monkeypatch.setattr(CoefficientField, "on_nodes", counted)
    chain = comparison_chain(prob, ball, CFG, w1=w1)
    assert len(calls) == 1
    monkeypatch.undo()
    w2 = solve_frozen(replace(prob, boundary=w1.u, rhs=None), half, CFG, warm_start=w1.u)
    frozen = frozen_problem(prob, half).field
    flux = GridFunction(g, apply_operator(g, frozen.growth, frozen.coefficient.on_cells(g),
                                          psi.values, CFG.epsilon))
    w3 = solve_frozen(replace(prob, boundary=w1.u, obstacle=None, rhs=flux), half, CFG,
                      warm_start=w1.u)
    w4 = solve_frozen(replace(prob, boundary=w1.u, obstacle=None, rhs=None), half, CFG,
                      warm_start=w3.u)
    for got, want in ((chain.w1, w1), (chain.w2, w2), (chain.w3, w3), (chain.w4, w4)):
        assert np.array_equal(got.u.values, want.u.values)
    assert np.array_equal(chain.obstacle_flux.values, flux.values)


def test_chain_error_names_stage():
    # w1 comes solved; freezing the jump on the half ball moves w2 further
    # than two Newton steps reach at p = 3
    g = Grid2D(48)
    vf = VectorField(PowerGrowth(3.0), jump_coefficient(0.3, position=0.45))
    prob = ObstacleProblem(field=vf, boundary=ring_only(g, lambda X, Y: X))
    outer = solve_vi(prob, CFG)
    ball = ((0.5, 0.5), 0.2)
    w1 = solve_vi(replace(prob, boundary=outer.u), CFG, ball=ball, warm_start=outer.u)
    bad = SolverConfig(tol=CFG.tol, max_iter=2)
    with pytest.raises(ChainError) as info:
        comparison_chain(prob, ball, bad, w1=w1)
    assert info.value.stage == "w2"


def test_chain_needs_doubled_ball():
    g = Grid2D(48)
    zero = GridFunction.constant(g, 0.0)
    prob = ObstacleProblem(field=unit_field(2.0), boundary=zero)
    ball = ((0.2, 0.5), 0.15)
    w1 = solve_vi(prob, CFG, ball=ball)
    with pytest.raises(DomainError):
        comparison_chain(prob, ball, CFG, w1=w1)


def test_ball_solve_requires_containment():
    g = Grid2D(48)
    zero = GridFunction.constant(g, 0.0)
    prob = ObstacleProblem(field=unit_field(2.0), boundary=zero)
    with pytest.raises(DomainError):
        solve_vi(prob, CFG, ball=((0.9, 0.5), 0.3))


def test_jump_field_solves():
    g = Grid2D(48)
    vf = VectorField(PowerGrowth(2.0), jump_coefficient(0.3))
    bdata = ring_only(g, lambda X, Y: X)
    sol = solve_equation(ObstacleProblem(field=vf, boundary=bdata), CFG)
    assert sol.converged
    assert sol.complementarity <= 10 * CFG.tol


def test_tabulated_growth_solve_matches_power():
    # a sampled p = 3 table drives the solver through the interpolated
    # kernel; the solution should track the closed-form growth's
    from potlab.orlicz import TabulatedGrowth
    t = np.geomspace(1e-6, 1e3, 600)
    tab = TabulatedGrowth(t, t**2)
    g = Grid2D(48)
    f = GridFunction.constant(g, 1.0)
    zero = GridFunction.constant(g, 0.0)
    cfg = SolverConfig(tol=1e-8)
    sol_tab = solve_vi(
        ObstacleProblem(
            field=VectorField(tab, constant_coefficient(1.0)), boundary=zero, rhs=f
        ),
        cfg,
    )
    sol_pow = solve_vi(
        ObstacleProblem(field=unit_field(3.0), boundary=zero, rhs=f), cfg
    )
    assert sol_tab.converged
    assert np.abs(sol_tab.u.values - sol_pow.u.values).max() < 1e-4
