"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy solved instances (the measure-data sequence on the fine mesh,
the standard check configs) are shared through module-scoped fixtures so
the suite stays inside its runtime budgets.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from potlab.grid import Grid2D, GridFunction, MeasureData, gradient
from potlab.harness.checks import run_checks
from potlab.harness.cli import main as cli_main
from potlab.harness.config import build_instance, load_config
from potlab.orlicz import PowerGrowth, RegularizedPowerGrowth
from potlab.potentials import wolff
from potlab.solver import SolverConfig, solve_equation, solve_op_sequence, mollify_measure

CONFIGS = Path(__file__).parents[1] / "configs"


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def dirac_cfg():
    return load_config(CONFIGS / "dirac.ini")


@pytest.fixture(scope="module")
def dirac_seq_128(dirac_cfg):
    """Mollification sweep of the centered-atom instance on the fine mesh,
    shared by the solver-oracle and approximation-sequence criteria."""
    t0 = time.monotonic()
    inst = build_instance(dirac_cfg, 128)
    seq = solve_op_sequence(inst.problem(), inst.measure, [2, 4, 8, 16], inst.solver)
    return inst, seq, time.monotonic() - t0


def test_criterion_1_orlicz_sandwich():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    ok = True
    slack = 1e-9
    for growth in (
        PowerGrowth(2.0), PowerGrowth(3.0), PowerGrowth(4.0),
        RegularizedPowerGrowth(3.0, 1.0), RegularizedPowerGrowth(4.0, 0.5),
    ):
        beta = rng.uniform(1.0, 100.0, 10_000)
        t = 10.0 ** rng.uniform(-6.0, 6.0, 10_000)
        ig, sg = growth.ig, growth.sg
        rg = growth.g(beta * t) / growth.g(t)
        rG = growth.G(beta * t) / growth.G(t)
        rI = growth.G_inverse(beta * t) / growth.G_inverse(t)
        ok &= bool(np.all(rg >= beta**ig * (1 - slack)) and np.all(rg <= beta**sg * (1 + slack)))
        ok &= bool(np.all(rG >= beta ** (1 + ig) * (1 - slack)) and np.all(rG <= beta ** (1 + sg) * (1 + slack)))
        ok &= bool(np.all(rI >= beta ** (1 / (1 + sg)) * (1 - slack)) and np.all(rI <= beta ** (1 / (1 + ig)) * (1 + slack)))
        small = 1.0 / beta
        rg = growth.g(small * t) / growth.g(t)
        ok &= bool(np.all(rg >= small**sg * (1 - slack)) and np.all(rg <= small**ig * (1 + slack)))
        ok &= bool(np.all(np.abs(growth.G_inverse(growth.G(t)) - t) <= 1e-10 * t))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _report(1, ok, f"index sandwiches + inverse round trip on 1e4 samples ({elapsed:.2f}s)")


def test_criterion_2_conjugate_oracle():
    rng = np.random.default_rng(102)
    ok = True
    for p in (2.0, 2.5, 3.0, 4.0):
        growth = PowerGrowth(p)
        s = 10.0 ** rng.uniform(-6, 6, 1000)
        pprime = p / (p - 1.0)
        exact = s**pprime / pprime
        got = growth.conjugate(s)
        ok &= bool(np.all(np.abs(got - exact) <= 1e-8 * exact))
        t = 10.0 ** rng.uniform(-6, 6, 1000)
        Gt = growth.G(t)
        ok &= bool(np.all(growth.conjugate(Gt / t) <= Gt * (1 + 1e-9)))
    _report(2, ok, "Young conjugate matches s^{p'}/p' to 1e-8; slope conjugacy holds")


def test_criterion_3_monotonicity():
    from potlab.field import VectorField, constant_coefficient
    rng = np.random.default_rng(103)
    ok = True
    for p in (2.0, 3.0, 4.0):
        vf = VectorField(PowerGrowth(p), constant_coefficient(1.0))
        eta = rng.normal(size=(10_000, 2)) * 10.0 ** rng.uniform(-1, 1, (10_000, 1))
        xi = rng.normal(size=(10_000, 2)) * 10.0 ** rng.uniform(-1, 1, (10_000, 1))
        diff = eta - xi
        norm = np.linalg.norm(diff, axis=1)
        keep = norm > 1e-12
        lhs = np.sum((vf.a((0.5, 0.5), eta) - vf.a((0.5, 0.5), xi)) * diff, axis=1)
        ratio = lhs[keep] / vf.growth.G(norm[keep])
        ok &= bool(ratio.min() >= 0.1)
        if p == 2.0:
            ok &= bool(ratio.min() >= 2.0 - 1e-9)
    _report(3, ok, "monotonicity constant >= 0.1 for p in {2,3,4}; exactly 2 at p = 2")


def test_criterion_4_wolff_closed_form():
    mu = MeasureData(atoms=[(0.0, 0.0, 1.0)])
    value = wolff(mu, (0.1, 0.0), 0.5, 2.0, 0.5, r_min=0.01)
    ok = abs(value - 8.0) <= 1e-3 * 8.0
    base = value
    for lam in (3.0, 0.5, 16.0):
        got = wolff(mu.scaled(lam), (0.1, 0.0), 0.5, 2.0, 0.5, r_min=0.01)
        ok &= abs(got - lam * base) <= 1e-12 * max(abs(got), 1.0)
    _report(4, ok, f"Dirac potential {value:.6f} vs 8 closed form; scaling exact")


def test_criterion_5_solver_oracles(dirac_seq_128, dirac_cfg):
    inst, seq, t_seq = dirac_seq_128
    t0 = time.monotonic()
    ok = True
    comp_ok = True
    # (a) affine data reproduces the affine solution
    g = Grid2D(128)
    from potlab.field import VectorField, constant_coefficient
    field2 = VectorField(PowerGrowth(2.0), constant_coefficient(1.0))
    full = GridFunction.from_callable(g, lambda X, Y: X)
    vals = np.zeros_like(full.values)
    ring = ~g.interior_mask()
    vals[ring] = full.values[ring]
    from potlab.solver import ObstacleProblem
    sol_a = solve_equation(
        ObstacleProblem(field=field2, boundary=GridFunction(g, vals)),
        SolverConfig(tol=1e-9),
    )
    ok &= bool(np.abs(sol_a.u.values - g.X).max() <= 1e-8)
    comp_ok &= sol_a.complementarity <= 10 * 1e-9
    # (b) mollified atom matches the logarithmic potential away from the core
    u = seq.finest.u
    R = np.hypot(inst.grid.X - 0.5, inst.grid.Y - 0.5)
    exact = 1.0 - np.log(R) / (2 * np.pi)
    band = (R >= 0.1) & (R <= 0.4)
    rel = np.abs(u.values - exact)[band] / np.abs(exact)[band]
    ok &= bool(rel.max() <= 0.02)
    comp_ok &= all(s.complementarity <= 10 * inst.solver.tol for s in seq.solutions)
    # (c) radial flux identity for the degenerate p = 4 kernel
    g4 = Grid2D(128)
    field4 = VectorField(PowerGrowth(4.0), constant_coefficient(1.0))
    A = (1.0 / (2 * np.pi)) ** (1 / 3)
    trace = GridFunction.from_callable(
        g4, lambda X, Y: 1.0 - A * 1.5 * np.hypot(X - 0.5, Y - 0.5) ** (2 / 3)
    )
    mu = MeasureData(atoms=[(0.5, 0.5, 1.0)])
    sol_c = solve_equation(
        ObstacleProblem(field=field4, boundary=trace,
                        rhs=mollify_measure(mu, 16, g4)),
        SolverConfig(tol=1e-8),
    )
    gx, gy = gradient(sol_c.u)
    mag = np.hypot(gx.values, gy.values)
    R4 = np.hypot(g4.X - 0.5, g4.Y - 0.5)
    for r in (0.1, 0.15, 0.2, 0.3, 0.4):
        bandr = np.abs(R4 - r) <= g4.h / 2
        want = (1.0 / (2 * np.pi * r)) ** (1 / 3)
        ok &= bool(abs(mag[bandr].mean() - want) <= 0.03 * want)
    comp_ok &= sol_c.complementarity <= 10 * 1e-8
    elapsed = t_seq + (time.monotonic() - t0)
    ok &= comp_ok and elapsed < 600.0
    _report(5, ok, f"affine/log-potential/radial-flux oracles + complementarity ({elapsed:.0f}s)")


def test_criterion_6_approximation_sequence(dirac_seq_128):
    inst, seq, _ = dirac_seq_128
    d = seq.distances
    ok = all(b < a for a, b in zip(d, d[1:])) and len(d) == 3
    for level in (2, 4, 8, 16):
        f = mollify_measure(MeasureData(atoms=[(0.5, 0.5, 1.0)]), level, inst.grid)
        mass = float(f.values.sum()) * inst.grid.h**2
        ok &= abs(mass - 1.0) <= 1e-10
    _report(6, ok, f"W11 gaps strictly decreasing {['%.4g' % v for v in d]}; masses exact")


@pytest.fixture(scope="module")
def standard_reports():
    out = {}
    for name, checks in (
        ("poisson", ["comparison_inhomogeneous"]),
        ("contact", ["caccioppoli", "reverse_holder"]),
        ("jump", ["frozen_coefficient"]),
    ):
        cfg = load_config(CONFIGS / f"{name}.ini")
        for rep in run_checks(cfg, names=checks):
            out[rep.name] = rep
    return out


def test_criterion_7_comparison_chain_stability(standard_reports):
    ok = True
    parts = []
    for name in ("comparison_inhomogeneous", "frozen_coefficient",
                 "caccioppoli", "reverse_holder"):
        rep = standard_reports[name]
        drift = rep.summary.get("drift")
        ok &= rep.passed
        parts.append(f"{name}:{drift:.2f}" if drift else name)
    _report(7, ok, "drift across meshes and scalings: " + ", ".join(parts))


def test_criterion_8_excess_decay():
    rep2 = run_checks(load_config(CONFIGS / "homogeneous_p2.ini"))[0]
    beta2 = [v for k, v in rep2.summary.items() if k.startswith("beta_hat")]
    res2 = [v for k, v in rep2.summary.items() if k.startswith("fit_residual")]
    ok = rep2.passed and all(b >= 0.8 for b in beta2) and all(r < 0.2 for r in res2)
    rep4 = run_checks(load_config(CONFIGS / "homogeneous_p4.ini"))[0]
    beta4 = [v for k, v in rep4.summary.items() if k.startswith("beta_hat")]
    ok &= rep4.passed and len(beta4) == 2 and abs(beta4[0] - beta4[1]) <= 0.15
    _report(
        8, ok,
        f"harmonic beta {['%.3f' % b for b in beta2]}, "
        f"degenerate beta {['%.3f' % b for b in beta4]}",
    )


@pytest.fixture(scope="module")
def estimate_reports(dirac_cfg):
    reports = run_checks(dirac_cfg, names=["maximal_estimates", "gradient_bounds"])
    return {rep.name: rep for rep in reports}


def test_criterion_9_pointwise_estimates(estimate_reports):
    t1 = estimate_reports["maximal_estimates"]
    t2 = estimate_reports["gradient_bounds"]
    ratios = [r.ratio for r in t2.rows if r.ratio is not None]
    drift = t2.summary.get("drift")
    ok = (
        t1.passed
        and t2.passed
        and t1.summary["alpha0_consistency_gap"] <= 1e-12
        and all(np.isfinite(v) and v > 0 for v in ratios)
        and drift is not None
        and drift < 3.0
    )
    _report(
        9, ok,
        f"gradient-bound ratios finite, drift {drift:.2f} across meshes; "
        f"alpha=0 recomputation gap {t1.summary['alpha0_consistency_gap']:.1e}",
    )


def test_criterion_10_determinism(tmp_path):
    cfg_text = (CONFIGS / "poisson.ini").read_text().replace(
        "n = 64, 128", "n = 24, 32"
    )
    path = tmp_path / "determinism.ini"
    path.write_text(cfg_text)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    code1 = cli_main(["verify", "--config", str(path), "--out", str(out1), "--seed", "7"])
    code2 = cli_main(["verify", "--config", str(path), "--out", str(out2), "--seed", "7"])
    ok = code1 == 0 and code2 == 0
    for name in ("check_comparison_inhomogeneous.csv", "summary.txt"):
        ok &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _report(10, ok, "seeded verify runs are byte-identical")
