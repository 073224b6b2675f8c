"""Variational-inequality and equation solvers.

The discrete energy lives on the (n-1)^2 cells spanned by 2x2 node blocks:

    E(u) = sum_cells omega_c G(m_c) h^2  -  sum_free f u h^2,
    m_c  = sqrt(|Du_c|^2 + eps^2),

with Du_c the average of the four surrounding node differences: one
gradient sample per cell.  Du_c depends only on the two diagonal
differences of its 2x2 block, so the checkerboard (-1)^(i+j) has Du_c = 0
on every cell and adds nothing to the cell energy; only the pinned ring
holds that mode (for p = 2 the Hessian couples each node to its diagonal
neighbours only, so the sublattices i + j even and i + j odd are
decoupled in the interior).  Minimization over {u >= psi, u = h on the
pinned set} is a projected Newton (primal-dual active-set) method.  An
equation is the obstacle problem with psi = -inf, and absent data is f = 0:
both are solved by the same loop, in which no node of an equation is ever
active (Hintermueller-Ito-Kunisch, SIAM J. Optim. 13, 2003).
Each step fixes the active set, the free nodes on the obstacle whose
residual pushes into it, and solves the sparse 9-point Hessian system of
the cell energy on the other free nodes.  Each continuation level numbers
its free nodes once, at its first step, in a nested-dissection order of the
node box, and builds the Hessian's CSC pattern on them; a step gathers the
stencil coefficients into it, drops the active rows and columns, and SuperLU
factors in that order.  The Newton steps are inexact: each solves its
system only to the relative residual eta_k of Eisenstat-Walker choice 2
(SIAM J. Sci. Comput. 17, 1996), by conjugate gradients preconditioned
with the level's latest LU (Knoll-Keyes, J. Comput. Phys. 193, 2004).
That LU outlives changes of the unknown set: on the nodes it was built on
it is applied through a restrict/extend position map, and a node freed
since gets its inverse diagonal.  The level factors at its first step and
whenever CG misses (it falls behind the pace that reaches eta_k within an
iteration cap, or meets nonpositive curvature or a non-finite value); the
newest LU stays, and the level frees it with its pattern.  The forcing
changes only the steps, not the stopping test below.  The step is
searched along the projected path max(u + t d, psi), halving t until the
Armijo condition holds, so every accepted step decreases the energy.  A
warm start on the problem's mesh is polished as it is; one on
Grid2D(n/2), such as the solution of the same cell one mesh coarser, is
prolonged bilinearly onto the free nodes (the pinned ones reset, the
obstacle projected) and then polished.  Only a flat start, on meshes
with even n and n/2 >= 32, is first replaced by the solution of the same
problem on Grid2D(n/2) (2x2 block means of start, obstacle and data),
prolonged the same way; this coarse-to-fine continuation keeps the
Newton step count nearly flat in n.  The solver converges when the
projected residual satisfies both  h * ||pr||_2 <= tol  and
max |pr| <= 10 tol,  so the reported complementarity bound holds by
construction.  ``Solution.stop_reason`` says why a solve stopped, and
``factorizations``, ``krylov_iterations``, ``krylov_misses`` and ``lu_nnz``
count the linear algebra of all its levels; no LU leaves a solve.

A problem holds bounded data, a grid function.  A measure is solved only
through its mollifications (Boccardo-Gallouet, J. Funct. Anal. 87, 1989):
``mollify_measure`` gives the data of one level, and ``solve_op_sequence``
takes the measure and solves one level after another.

A full solve pins the ring; a ball-restricted solve frees the ball's
``ball_nodes`` and pins every other node to the trace donor, realizing
"w = u on the ball boundary" without a second mesh; a solve refuses a
donor below the obstacle on a node it pins.  A frozen solve is the ball
solve of ``frozen_problem``; the comparison chain takes w1 solved, builds
its frozen problem once and solves w2-w4 on it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (
    ChainError,
    DataError,
    DomainError,
    EnergyIncreaseError,
    GridMismatchError,
    IterationLimitError,
    LevelError,
)
from .field import VectorField, constant_coefficient
from .grid import Grid2D, GridFunction, MeasureData, ball_nodes, w11_distance

__all__ = [
    "SolverConfig",
    "ObstacleProblem",
    "Solution",
    "solve_vi",
    "solve_equation",
    "solve_frozen",
    "frozen_problem",
    "finest_level",
    "mollify_measure",
    "solve_op_sequence",
    "OPSequence",
    "comparison_chain",
    "ComparisonChain",
    "apply_operator",
]


_BACKTRACK = 0.5             # step shrink factor of the Armijo line search
_SUFFICIENT_DECREASE = 1e-4  # Armijo constant
_MAX_HALVINGS = 60           # line-search steps before the search counts as collapsed
_COARSEST = 32               # smallest n of a continuation level
_CG_MAX_ITER = 12            # CG steps on a lagged LU before the solve counts as a miss
_CG_RTOL = 1e-10             # floor of the forcing term eta: CG stops by ||H d + r|| <= eta ||r||
_EW_GAMMA = 0.9              # Eisenstat-Walker choice 2: eta = gamma (|pr_k| / |pr_k-1|)^alpha
_EW_ALPHA = 2.0
_EW_ETA_MAX = 0.1            # the forcing term of a level's first step, and its cap


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-8        # kernel regularization inside m = sqrt(|Du|^2 + eps^2)
    tol: float = 1e-8            # projected-residual tolerance, discrete L2 norm
    max_iter: int = 100          # Newton steps on the finest level

    def __post_init__(self):
        for key, ok, need in (("tol", 0 < self.tol < np.inf, "positive and finite"),
                              ("epsilon", 0 <= self.epsilon < np.inf, "nonnegative and finite"),
                              ("max_iter", self.max_iter >= 1, "at least 1")):
            if not ok:
                raise DataError(f"[solver] {key} must be {need}, got {getattr(self, key):g}")


@dataclass
class ObstacleProblem:
    """Problem instance: field, Dirichlet trace, optional obstacle, bounded data.

    The trace is a full grid function whose outermost ring (or, for ball
    solves, everything outside the ball) supplies the pinned values; the
    solve checks them against the obstacle.  The data is a grid function:
    a measure enters only mollified (`mollify_measure`, `solve_op_sequence`).
    """

    field: VectorField
    boundary: GridFunction
    obstacle: GridFunction | None = None
    rhs: GridFunction | None = None

    def __post_init__(self):
        if self.rhs is not None and not isinstance(self.rhs, GridFunction):
            raise DataError(f"rhs must be bounded data on the grid, not "
                            f"{type(self.rhs).__name__}; mollify a measure with mollify_measure")
        g = self.boundary.grid
        if self.obstacle is not None and self.obstacle.grid != g:
            raise DataError("obstacle and boundary live on different grids")
        if self.rhs is not None and self.rhs.grid != g:
            raise DataError("rhs and boundary live on different grids")

    @property
    def grid(self) -> Grid2D:
        return self.boundary.grid


@dataclass
class Solution:
    u: GridFunction
    iterations: int
    residual_history: list[float]
    energy_history: list[float]
    complementarity: float
    energy: float
    factorizations: int             # sparse LUs, summed over the continuation levels
    krylov_iterations: int          # lagged-LU CG iterations, summed over the levels
    krylov_misses: int              # CG solves that missed and refactored, summed over the levels
    lu_nnz: int                     # nonzeros of L + U of every LU, summed over the levels
    stop_reason: str = "converged"  # or "iteration budget", "line search collapsed"

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def _cell_flux(vals, inv2h, eps2):
    """Cell gradients (the mean of the four surrounding node differences)
    and the regularized magnitudes m = sqrt(|Du_c|^2 + eps^2)."""
    a = vals[:-1, :-1]
    b = vals[1:, :-1]
    c = vals[:-1, 1:]
    d = vals[1:, 1:]
    dux = (b + d - a - c) * inv2h
    duy = (c + d - a - b) * inv2h
    m = np.sqrt(dux * dux + duy * duy + eps2)
    return dux, duy, m


def _divergence(vals, omega_cells, growth, inv2h, eps2):
    """The nodal -div(omega g(m)/m Du) of the cell stencil, with the cell
    magnitudes m it was built from."""
    dux, duy, m = _cell_flux(vals, inv2h, eps2)
    k = omega_cells * growth.kernel(m)
    qx = k * dux
    qy = k * duy
    r = np.zeros_like(vals)
    r[:-1, :-1] -= qx + qy
    r[1:, :-1] += qx - qy
    r[:-1, 1:] += qy - qx
    r[1:, 1:] += qx + qy
    r *= inv2h
    return r, m


def apply_operator(grid: Grid2D, growth, omega_cells, values, epsilon: float = 0.0):
    """Discrete -div(omega g(|Dv|)/|Dv| Dv) at the nodes, the adjoint of
    the cell-gradient stencil the energy uses."""
    return _divergence(values, omega_cells, growth, 0.5 / grid.h, epsilon**2)[0]


def _projected_residual(resid, u, psi, free):
    pr = np.where(free, resid, 0.0)
    active = free & (u <= psi)
    pr[active] = np.minimum(pr[active], 0.0)
    return pr


def _complementarity(u, resid, psi, free):
    return float(np.abs(np.minimum((u - psi)[free], resid[free])).max())


@functools.lru_cache(maxsize=8)
def _dissection_order(n: int) -> np.ndarray:
    """The n x n node box's flat indices in geometric nested-dissection order
    (George, SIAM J. Numer. Anal. 10, 1973): a box's middle line across its
    longer side comes after both halves, each ordered alike, down to boxes
    of side 2; one line separates them, as the 9-point stencil couples only
    nodes at distance 1.  Read-only: the levels on n-node meshes share it."""
    def cut(box):
        if max(box.shape) <= 2:
            return [box.ravel()]
        if box.shape[0] < box.shape[1]:
            box = box.T
        m = box.shape[0] // 2
        return cut(box[:m]) + cut(box[m + 1:]) + [box[m]]

    order = np.concatenate(cut(np.arange(n * n).reshape(n, n)))
    order.flags.writeable = False
    return order


class _Pattern:
    """The CSC structure of the 9-point Hessian on a level's free nodes,
    ``nodes`` in `_dissection_order`, built once per level: entry k of
    column ``cols[k]`` lies in row ``rows[k]`` and holds entry ``src[k]``
    of `_hessian`'s flat coefficients."""

    def __init__(self, free):
        order = _dissection_order(free.shape[0])
        self.nodes = order[free.ravel()[order]]
        pos = np.full(free.shape, -1, dtype=np.int32)
        pos.flat[self.nodes] = np.arange(self.nodes.size, dtype=np.int32)
        # the positions (-1 off the free set) of the node pairs of `_hessian`'s blocks
        ends = [(pos, pos), (pos[:-1, :], pos[1:, :]), (pos[:, :-1], pos[:, 1:]),
                (pos[:-1, :-1], pos[1:, 1:]), (pos[1:, :-1], pos[:-1, 1:])]
        a, b = (np.concatenate([pair[k].ravel() for pair in ends]) for k in (0, 1))
        src = np.flatnonzero((a >= 0) & (b >= 0)).astype(np.int32)
        a, b = a[src], b[src]
        off = a != b
        # scipy's COO -> CSC conversion sorts the entries by column and row
        pattern = sp.csc_matrix((np.concatenate([src, src[off]]),
                                 (np.concatenate([a, b[off]]), np.concatenate([b, a[off]]))),
                                shape=(self.nodes.size,) * 2)
        pattern.sort_indices()
        self.rows, self.src = pattern.indices, pattern.data
        self.cols = np.repeat(np.arange(self.nodes.size, dtype=np.int32), np.diff(pattern.indptr))
        self._last = None

    def restrict(self, unknown):
        """(nodes, indices, indptr, src) on ``unknown``, the other free nodes
        dropped; the last result is kept, as steps mostly repeat the set."""
        if self._last is None or not np.array_equal(unknown, self._last[0]):
            keep = unknown.ravel()[self.nodes]
            entry = keep[self.rows] & keep[self.cols]
            number = (np.cumsum(keep) - 1).astype(np.int32)
            indptr = np.zeros(int(keep.sum()) + 1, dtype=np.int32)
            np.cumsum(np.bincount(self.cols[entry], minlength=keep.size)[keep], out=indptr[1:])
            self._last = unknown.copy(), (self.nodes[keep], number[self.rows[entry]],
                                          indptr, self.src[entry])
        return self._last[1]


def _hessian(vals, omega_cells, growth, inv2h, eps2, pattern, unknown):
    """The Jacobian of `_divergence` in the nodes of ``unknown``, numbered
    in the pattern's order, as a CSC matrix.

    Per cell it is omega [kappa I + (g'(m) - kappa)/m^2 xi xi^T] with
    kappa = g(m)/m and xi = Du_c, pulled back through the cell stencil
    (corner weights -s, t, -t, s; s, t = (dux +- duy)/2h); the rank-one
    term is dropped where m = 0.  The coefficients come in five blocks: the
    diagonal and the pairs (i, j)-(i+1, j), (i, j)-(i, j+1),
    (i, j)-(i+1, j+1), (i+1, j)-(i, j+1).
    """
    dux, duy, m = _cell_flux(vals, inv2h, eps2)
    kappa = growth.kernel(m)
    rho = np.zeros_like(m)
    pos = m > 0
    rho[pos] = (growth.dg(m[pos]) - kappa[pos]) / (m[pos] * m[pos])
    iso = 2.0 * omega_cells * kappa * inv2h**2
    rank1 = omega_cells * rho
    s, t = inv2h * (dux + duy), inv2h * (dux - duy)
    ss, tt, st = rank1 * s * s + iso, rank1 * t * t + iso, rank1 * s * t
    n = vals.shape[0]
    diag, down, right = np.zeros((n, n)), np.zeros((n - 1, n)), np.zeros((n, n - 1))
    for i, j, c in ((0, 0, ss), (1, 1, ss), (1, 0, tt), (0, 1, tt)):
        diag[i:n - 1 + i, j:n - 1 + j] += c
    for i in (0, 1):
        down[:, i:n - 1 + i] -= st
        right[i:n - 1 + i] += st
    nodes, indices, indptr, src = pattern.restrict(unknown)
    # a node whose four cells all have m = 0 (epsilon = 0, p > 2) has no
    # curvature; give it the largest diagonal, a stable gradient step
    d = diag.flat[nodes]
    if (d <= 0).any():
        diag.flat[nodes[d <= 0]] += d.max() if d.max() > 0 else 1.0
    coef = np.concatenate([diag.ravel(), down.ravel(), right.ravel(), -ss.ravel(), -tt.ravel()])
    return sp.csc_matrix((coef[src], indices, indptr), shape=(nodes.size, nodes.size))


def _lagged_preconditioner(lu, lu_nodes, nodes, diagonal, size):
    """r -> z for CG on the unknowns ``nodes``: ``lu``, built on the unknowns
    ``lu_nodes``, on the nodes the two share (r zero-extended to the LU's
    unknowns, the result restricted back), and r / ``diagonal`` on the nodes
    freed since.  Both parts are symmetric positive definite, so the whole is
    too.  ``size`` bounds the flat node indices."""
    at = np.full(size, -1, dtype=np.int64)
    at[lu_nodes] = np.arange(lu_nodes.size)
    where = at[nodes]
    shared = where >= 0
    where = where[shared]

    def apply(r):
        y = np.zeros(lu_nodes.size)
        y[where] = r[shared]
        z = r / diagonal
        z[shared] = lu.solve(y)[where]
        return z
    return apply


def _lagged_cg(H, b, precondition, eta):
    """Solve H x = b to the forcing tolerance ``eta`` (`_forcing`), a
    relative residual, by conjugate gradients preconditioned with
    ``precondition``: the level's latest LU, on unknowns that may have
    changed since it was factored (`_lagged_preconditioner`).  Returns
    (x, iterations); x is None on a miss: a relative residual that falls
    behind the pace 2 eta^(k/_CG_MAX_ITER) (the shape of the classical CG
    bound, reaching ``eta`` by the cap), nonpositive curvature p.Hp, or a
    non-finite value.  A miss is the one reason a level refactors after its
    first step, and the new LU then preconditions its later steps."""
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = float(r @ z)
    norm_b = float(np.linalg.norm(b))
    for k in range(1, _CG_MAX_ITER + 1):
        Hp = H @ p
        curv = float(p @ Hp)
        if not (np.isfinite(curv) and curv > 0.0):
            return None, k
        alpha = rz / curv
        x += alpha * p
        r -= alpha * Hp
        rel = float(np.linalg.norm(r)) / norm_b
        if rel <= eta:
            return x, k
        if rel > 2.0 * eta ** (k / _CG_MAX_ITER):
            return None, k
        z = precondition(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    return None, _CG_MAX_ITER


def _forcing(l2, l2_prev, eta_prev):
    """Eisenstat-Walker choice 2 (SIAM J. Sci. Comput. 17, 1996): the
    relative CG tolerance of a Newton step whose projected residual fell from
    ``l2_prev`` to ``l2`` after a step solved to ``eta_prev``.  The usual
    safeguard, gamma eta_prev^alpha as a lower bound once it exceeds 0.1,
    keeps eta from falling faster than the last step can justify."""
    eta = _EW_GAMMA * (l2 / l2_prev) ** _EW_ALPHA
    floor = _EW_GAMMA * eta_prev ** _EW_ALPHA
    if floor > 0.1:
        eta = max(eta, floor)
    return min(max(eta, _CG_RTOL), _EW_ETA_MAX)


def _block_mean(a):
    """Means over the 2x2 node blocks: the restriction to Grid2D(n/2)."""
    return 0.25 * (a[0::2, 0::2] + a[1::2, 0::2] + a[0::2, 1::2] + a[1::2, 1::2])


def _prolong(c):
    """Bilinear interpolation from Grid2D(n/2) to Grid2D(n): fine node 2I
    sits a quarter coarse spacing below coarse node I, node 2I + 1 a
    quarter above; the outermost fine nodes take the edge value."""
    def axis0(a):
        out = np.empty((2 * a.shape[0],) + a.shape[1:])
        out[0::2] = 0.75 * a + 0.25 * np.concatenate([a[:1], a[:-1]])
        out[1::2] = 0.75 * a + 0.25 * np.concatenate([a[1:], a[-1:]])
        return out
    return axis0(axis0(c).T).T


def _prolonged(coarse, start, psi, free):
    """A start from values on Grid2D(n/2): ``coarse`` prolonged on the free
    nodes, ``start`` on the pinned ones, the obstacle projected."""
    u = np.where(free, _prolong(coarse), start)
    u[free] = np.maximum(u[free], psi[free])
    return u


def _coarse_start(grid, growth, omega_cells, f, start, psi, free, cfg):
    """Warm start from the same problem solved on Grid2D(n/2), prolonged by
    `_prolonged`, and the coarse Solution; None when no 2x2 block is
    entirely free.  The coarse solve need not converge."""
    coarse_free = _block_mean(free.astype(float)) == 1.0
    if not coarse_free.any():
        return None
    coarse = Grid2D(grid.n // 2)
    sol = _minimize(coarse, growth, omega_cells[1::2, 1::2], _block_mean(f),
                    _block_mean(start), _block_mean(psi), coarse_free, cfg, True)
    return _prolonged(sol.u.values, start, psi, free), sol


def _minimize(grid, growth, omega_cells, f, start, psi, free, cfg, cascade):
    h = grid.h
    h2 = h * h
    inv2h, eps2 = 0.5 / h, cfg.epsilon**2
    u = np.array(start, dtype=float)
    u[free] = np.maximum(u[free], psi[free])

    def objective(vals):
        """(energy, residual)."""
        r, m = _divergence(vals, omega_cells, growth, inv2h, eps2)
        E = float((omega_cells * growth.G(m)).sum()) - float((f[free] * vals[free]).sum())
        return E * h2, r - f

    def stationary(u, resid):
        pr = _projected_residual(resid, u, psi, free)
        l2 = h * float(np.linalg.norm(pr))
        return l2, l2 <= cfg.tol and float(np.abs(pr).max()) <= 10.0 * cfg.tol

    E, resid = objective(u)
    factorizations = krylov = misses = lu_nnz = 0
    if (cascade and grid.n % 2 == 0 and grid.n // 2 >= _COARSEST
            and not stationary(u, resid)[1]):
        warm = _coarse_start(grid, growth, omega_cells, f, u, psi, free, cfg)
        if warm is not None:
            u, coarse = warm
            factorizations, krylov, misses, lu_nnz = (
                coarse.factorizations, coarse.krylov_iterations, coarse.krylov_misses,
                coarse.lu_nnz)
            E, resid = objective(u)
    pattern = lu = lu_nodes = None
    eta = _EW_ETA_MAX
    res_hist: list[float] = []
    en_hist: list[float] = [E]
    stop = "iteration budget"
    it = 0
    while True:
        l2, done = stationary(u, resid)
        if res_hist:
            eta = _forcing(l2, res_hist[-1], eta)
        res_hist.append(l2)
        if done:
            stop = "converged"
            break
        if it >= cfg.max_iter:
            break
        pattern = pattern or _Pattern(free)  # not before: a stationary start needs none
        unknown = free & ~((u <= psi) & (resid > 0))
        H = _hessian(u, omega_cells, growth, inv2h, eps2, pattern, unknown)
        nodes = pattern.restrict(unknown)[0]
        b = -resid.flat[nodes]
        step = None
        if lu is not None:
            step, cg_iters = _lagged_cg(
                H, b, _lagged_preconditioner(lu, lu_nodes, nodes, H.diagonal(), u.size), eta)
            krylov += cg_iters
            if step is None:
                lu = None  # freed before the next one is factored
                misses += 1
        if step is None:
            lu = splu(H, permc_spec="NATURAL", options={"SymmetricMode": True})
            factorizations += 1
            lu_nnz += lu.nnz
            step = lu.solve(b)
            lu_nodes = nodes
        del H  # not held while the next step's Hessian is assembled
        d = np.zeros_like(u)
        d.flat[nodes] = step
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = u + t * d
            np.maximum(cand, psi, out=cand, where=unknown)
            Ec, rc = objective(cand)
            dec = h2 * float(np.sum(resid * (cand - u)))
            if Ec <= E + _SUFFICIENT_DECREASE * dec + 1e-14 * (abs(E) + 1e-300):
                break
            t *= _BACKTRACK
        else:
            stop = "line search collapsed"
            break
        if Ec > E + 1e-12 * (abs(E) + 1.0):
            raise EnergyIncreaseError(
                f"accepted step raised the energy from {E!r} to {Ec!r}"
            )
        u, resid, E = cand, rc, Ec
        en_hist.append(E)
        it += 1

    return Solution(
        u=GridFunction(grid, u),
        iterations=it,
        residual_history=res_hist,
        energy_history=en_hist,
        complementarity=_complementarity(u, resid, psi, free),
        energy=E,
        factorizations=factorizations,
        krylov_iterations=krylov,
        krylov_misses=misses,
        lu_nnz=lu_nnz,
        stop_reason=stop,
    )


def _ball_free_mask(grid: Grid2D, ball) -> np.ndarray:
    """The nodes a ball solve frees: the ball's ``ball_nodes`` off the ring."""
    free = np.zeros((grid.n, grid.n), dtype=bool)
    free[ball_nodes(grid, *ball)] = True
    return free & grid.interior_mask()


def _solve(prob: ObstacleProblem, cfg: SolverConfig, ball, warm_start) -> Solution:
    grid = prob.grid
    # an equation is the obstacle problem with psi = -inf, and no data is f = 0
    psi = np.full((grid.n,) * 2, -np.inf) if prob.obstacle is None else prob.obstacle.values
    f = np.zeros((grid.n,) * 2) if prob.rhs is None else prob.rhs.values
    free = grid.interior_mask() if ball is None else _ball_free_mask(grid, ball)
    # pinned nodes come from the trace donor and are never touched
    trace = prob.boundary.values
    if np.any(trace[~free] < psi[~free] - 1e-12):
        raise DataError("trace donor lies below the obstacle on pinned nodes")
    start = prob.boundary if warm_start is None else warm_start
    if start.grid == grid:
        start = np.where(free, start.values, trace)
    elif 2 * start.grid.n == grid.n:
        start = _prolonged(start.values, trace, psi, free)
    else:
        raise GridMismatchError(
            f"warm start on Grid2D(n={start.grid.n}) for a problem on Grid2D(n={grid.n}), "
            f"not on that mesh or the one half as fine"
        )
    # only a flat start runs the coarse cascade: a warm start is already close
    sol = _minimize(grid, prob.field.growth, prob.field.coefficient.on_cells(grid),
                    f, start, psi, free, cfg, warm_start is None)
    if not sol.converged:
        raise IterationLimitError(
            f"stopped by {sol.stop_reason} after {sol.iterations} iterations "
            f"(projected residual {sol.residual_history[-1]:.3e}, tol {cfg.tol:.1e})",
            last=sol,
        )
    return sol


def solve_vi(prob: ObstacleProblem, cfg: SolverConfig | None = None, *,
             ball=None, warm_start=None) -> Solution:
    """Minimize the discrete energy over {u >= psi, pinned trace}; every LU
    it factors is freed before it returns."""
    return _solve(prob, cfg or SolverConfig(), ball, warm_start)


def solve_equation(prob: ObstacleProblem, cfg: SolverConfig | None = None, *,
                   ball=None, warm_start=None) -> Solution:
    """The obstacle problem with psi = -inf: the same minimization, with
    no node ever active."""
    if prob.obstacle is not None:
        raise DataError("solve_equation expects a problem without obstacle")
    return _solve(prob, cfg or SolverConfig(), ball, warm_start)


def solve_frozen(prob: ObstacleProblem, ball, cfg: SolverConfig | None = None, *,
                 warm_start=None) -> Solution:
    """Solve ``frozen_problem(prob, ball)`` on the ball."""
    return _solve(frozen_problem(prob, ball), cfg or SolverConfig(), ball, warm_start)


def frozen_problem(prob: ObstacleProblem, ball) -> ObstacleProblem:
    """``prob`` with omega replaced by its mean over the ball's ``ball_nodes``:
    for the coefficient-times-kernel field, exactly a_bar(eta) = mean(omega) kernel(|eta|) eta."""
    grid = prob.grid
    nodes = ball_nodes(grid, *ball)  # a ball outside the domain raises before omega is read
    coef = prob.field.coefficient
    mean = float(coef.on_nodes(grid)[nodes].mean())
    frozen = constant_coefficient(mean, c_low=coef.c_low, c_high=coef.c_high)
    return replace(prob, field=VectorField(prob.field.growth, frozen))


def _bump_radius(level: int) -> float:
    """The radius of the bump an atom becomes at mollification ``level``."""
    return 1.0 / (4.0 * level)


def finest_level(grid: Grid2D) -> int:
    """The largest mollification level whose bump radius the grid resolves."""
    level = 1
    while grid.resolves(_bump_radius(level + 1)):
        level += 1
    return level


def mollify_measure(mu: MeasureData, level: int, grid: Grid2D) -> GridFunction:
    """Bounded data for ``mu`` at ``level``: each atom becomes the normalized
    bump (1 - |x/r|^2)^2 of radius r = 1/(4 level), renormalized on the grid
    so its mass is exact; a density is already bounded and is added as is."""
    if level < 1 or int(level) != level:
        raise DataError("mollification level must be a positive integer")
    rb = _bump_radius(level)
    if not grid.resolves(rb):
        raise LevelError(
            f"bump radius {rb:.4g} below the 2h resolution floor ({grid.r_min:.4g})"
        )
    out = np.zeros((grid.n, grid.n))
    for ax, ay, mass in mu.atoms:
        if grid.boundary_distance((ax, ay)) <= rb:
            raise LevelError(
                f"bump of radius {rb:.4g} around atom ({ax:g}, {ay:g}) exits the domain"
            )
        rho2 = ((grid.X - ax) ** 2 + (grid.Y - ay) ** 2) / rb**2
        w = np.where(rho2 < 1.0, (1.0 - np.minimum(rho2, 1.0)) ** 2, 0.0)
        s = float(w.sum()) * grid.h**2
        out += (mass / s) * w
    if mu.density is not None:
        if mu.density.grid != grid:
            raise GridMismatchError("measure density and target grid differ")
        out += mu.density.values
    return GridFunction(grid, out)


@dataclass
class OPSequence:
    """Mollification sweep: one solve per level plus limit diagnostics."""

    levels: list[int]
    solutions: list[Solution]
    distances: list[float]

    @property
    def finest(self) -> Solution:
        return self.solutions[-1]


def solve_op_sequence(prob: ObstacleProblem, mu: MeasureData, levels,
                      cfg: SolverConfig | None = None) -> OPSequence:
    """Solve ``prob`` with data ``mu`` mollified at each level, warm-starting
    each level with the previous solution; ``prob``'s own data is replaced."""
    levels = [int(l) for l in levels]
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise DataError("mollification levels must be increasing")
    cfg = cfg or SolverConfig()
    solutions: list[Solution] = []
    distances: list[float] = []
    prev = None
    for lvl in levels:
        try:
            f = mollify_measure(mu, lvl, prob.grid)
            sol = solve_vi(replace(prob, rhs=f), cfg, warm_start=prev)
        except LevelError as exc:
            raise LevelError(f"level {lvl}: {exc}") from exc
        except IterationLimitError as exc:
            raise IterationLimitError(f"level {lvl}: {exc}", last=exc.last) from exc
        if prev is not None:
            distances.append(w11_distance(prev, sol.u))
        solutions.append(sol)
        prev = sol.u
    return OPSequence(levels, solutions, distances)


@dataclass
class ComparisonChain:
    """The four comparison problems attached to a ball B_R:

    w1  homogeneous obstacle problem on B_R with the outer trace,
    w2  frozen-coefficient obstacle problem on B_{R/2} with trace w1,
    w3  frozen-coefficient equation driven by the obstacle flux on B_{R/2},
    w4  frozen-coefficient homogeneous equation on B_{R/2}.

    ``obstacle_flux`` is the frozen operator applied to the obstacle, the
    right side of w3; zero without an obstacle, so that w3 is w4's equation
    with f = 0.
    """

    w1: Solution
    w2: Solution
    w3: Solution
    w4: Solution
    obstacle_flux: GridFunction


def comparison_chain(prob: ObstacleProblem, ball, cfg: SolverConfig | None = None, *,
                     w1: Solution) -> ComparisonChain:
    """The chain on ``ball`` from its solved first stage ``w1``."""
    center, radius = ball
    grid = prob.grid
    if not grid.contains_ball(center, 2 * radius):
        raise DomainError("comparison chain needs the doubled ball inside the domain")
    cfg = cfg or SolverConfig()
    half = (center, radius / 2.0)

    def stage(name, fn):
        try:
            return fn()
        except (IterationLimitError, DataError, DomainError) as exc:
            raise ChainError(name, exc) from exc

    # the frozen problem on B_{R/2} with trace w1, built once for w2-w4
    def frozen_w2():
        frozen = frozen_problem(replace(prob, boundary=w1.u, rhs=None), half)
        return frozen, solve_vi(frozen, cfg, ball=half, warm_start=w1.u)

    frozen, w2 = stage("w2", frozen_w2)
    if prob.obstacle is not None:
        flux = apply_operator(grid, frozen.field.growth, frozen.field.coefficient.on_cells(grid),
                              prob.obstacle.values, cfg.epsilon)
        rhs3 = GridFunction(grid, flux)
    else:
        rhs3 = GridFunction.constant(grid, 0.0)
    w3 = stage("w3", lambda: solve_equation(
        replace(frozen, obstacle=None, rhs=rhs3), cfg, ball=half, warm_start=w1.u
    ))
    w4 = stage("w4", lambda: solve_equation(
        replace(frozen, obstacle=None), cfg, ball=half, warm_start=w3.u
    ))
    return ComparisonChain(w1, w2, w3, w4, rhs3)
