"""Growth-function calculus: closed forms, inverses, conjugates, indices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from potlab.errors import DataError, DomainError, InsufficientDataError, RangeError
from potlab.harness.config import ExperimentConfig, build_growth
from potlab.orlicz import (
    N_DIM,
    GrowthFunction,
    PowerGrowth,
    RegularizedPowerGrowth,
    TabulatedGrowth,
    estimate_indices,
)


def test_eval_g_power():
    assert PowerGrowth(3.0).g(2.0) == pytest.approx(4.0)
    assert PowerGrowth(3.0).g(0.0) == 0.0
    assert RegularizedPowerGrowth(3.0, 1.0).g(0.0) == 0.0


def test_eval_g_regularized_closed_form():
    g = RegularizedPowerGrowth(3.0, 1.0)
    assert g.g(1.0) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_eval_g_rejects_bad_input():
    g = PowerGrowth(3.0)
    with pytest.raises(DomainError):
        g.g(np.nan)
    with pytest.raises(DomainError):
        g.g(-1.0)


def test_eval_G_power():
    assert PowerGrowth(2.0).G(3.0) == pytest.approx(4.5)
    assert PowerGrowth(4.0).G(1.0) == pytest.approx(0.25)


def test_eval_G_regularized_vs_quadrature():
    g = RegularizedPowerGrowth(3.0, 1.0)
    expected = (2.0**1.5 - 1.0) / 3.0
    assert g.G(1.0) == pytest.approx(expected, rel=1e-12)
    # independent oracle: adaptive quadrature of g
    for t in (0.3, 1.0, 2.7, 10.0):
        ref, _ = quad(lambda s: g.g(s), 0.0, t, epsrel=1e-12)
        assert g.G(t) == pytest.approx(ref, rel=1e-10)


def test_inverse_G_closed_forms():
    g2 = PowerGrowth(2.0)
    assert g2.G_inverse(2.0) == pytest.approx(2.0)
    assert g2.G_inverse(0.0) == 0.0
    g3 = PowerGrowth(3.0)
    assert g3.G_inverse(9.0) == pytest.approx(3.0)


@given(st.floats(min_value=1e-6, max_value=1e6),
       st.sampled_from([2.0, 2.5, 3.0, 4.0]),
       st.sampled_from([0.0, 0.3, 1.0]))
@settings(max_examples=200, deadline=None)
def test_inverse_roundtrip(t, p, mu):
    g = PowerGrowth(p) if mu == 0.0 else RegularizedPowerGrowth(p, mu)
    assert g.G_inverse(g.G(t)) == pytest.approx(t, rel=1e-10)


_NODES = np.geomspace(1e-3, 1e3, 200)


@pytest.mark.parametrize("growth", [
    PowerGrowth(2.0), PowerGrowth(3.0), PowerGrowth(4.5),
    RegularizedPowerGrowth(3.0, 0.5), RegularizedPowerGrowth(4.0, 1e-2),
    TabulatedGrowth(_NODES, _NODES + _NODES**2),
])
def test_g_inverse_roundtrip(growth):
    t = np.geomspace(1e-6, 1e6, 481)
    assert np.all(np.abs(growth.g_inverse(growth.g(t)) / t - 1.0) <= 1e-12)
    assert growth.g_inverse(0.0) == 0.0
    assert isinstance(growth.g_inverse(growth.g(2.0)), float)


def test_young_conjugate_examples():
    assert PowerGrowth(2.0).conjugate(1.0) == pytest.approx(0.5)
    assert PowerGrowth(3.0).conjugate(4.0) == pytest.approx(
        (2.0 / 3.0) * 4.0**1.5, rel=1e-10
    )
    assert PowerGrowth(3.0).conjugate(0.0) == 0.0


def test_young_conjugate_brute_force_sup():
    # oracle: the Legendre sup over a fine grid
    growth = PowerGrowth(3.0)
    s = 4.0
    t = np.linspace(0.0, 10.0, 400_001)
    brute = np.max(s * t - growth.G(t))
    assert growth.conjugate(s) == pytest.approx(brute, rel=1e-8)


def test_young_conjugate_regularized_brute_force():
    growth = RegularizedPowerGrowth(3.0, 1.0)
    for s in (0.2, 1.0, 5.0):
        t = np.linspace(0.0, 20.0, 400_001)
        brute = np.max(s * t - growth.G(t))
        assert growth.conjugate(s) == pytest.approx(brute, rel=1e-7)


def test_estimate_indices_power():
    lo, hi = estimate_indices(PowerGrowth(3.0))
    assert lo == pytest.approx(2.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)
    lo, hi = estimate_indices(PowerGrowth(2.5))
    assert lo == pytest.approx(1.5, abs=1e-12)
    assert hi == pytest.approx(1.5, abs=1e-12)


def test_estimate_indices_regularized():
    g = RegularizedPowerGrowth(3.0, 1.0)
    # brute-force oracle over a dense log grid: elasticity 1 + t^2/(1+t^2)
    t = np.geomspace(1e-8, 1e8, 200_000)
    ratio = 1.0 + t**2 / (1.0 + t**2)
    assert ratio.min() == pytest.approx(1.0, abs=1e-6)
    assert ratio.max() == pytest.approx(2.0, abs=1e-6)
    lo, hi = estimate_indices(g)
    assert lo == pytest.approx(1.0, abs=1e-6)
    assert hi == pytest.approx(2.0, abs=1e-6)


def test_sobolev_S_values():
    growth = PowerGrowth(2.0)
    assert growth.S(2.0) == pytest.approx(2.0)
    assert growth.S(1.0) == pytest.approx(0.5 * 0.5**-0.5)
    assert PowerGrowth(3.0).S(1.0) == pytest.approx(
        (1 / 3) * (1 / 3) ** -0.5
    )
    with pytest.raises(DomainError):
        growth.S(0.0)


def test_S_inverse_roundtrip():
    growth = RegularizedPowerGrowth(3.0, 1.0)
    for t in (0.01, 0.5, 3.0, 40.0):
        assert growth.S_inverse(growth.S(t)) == pytest.approx(t, rel=1e-9)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 7.0])
@pytest.mark.parametrize("n", [N_DIM])
def test_power_S_inverse_closed_form_matches_the_bisection(p, n):
    # S is the companion in the lab's dimension n: p^(-1+1/n) t^(p-(p-1)/n)
    growth = PowerGrowth(p)
    s = np.array([0.0, 1e-9, 0.02, 1.0, 3.7, 250.0, 1e6])
    got = growth.S_inverse(s)
    want = GrowthFunction.S_inverse(growth, s)
    assert got[0] == 0.0 and np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert np.allclose(growth.S(got[1:]), s[1:], rtol=1e-13, atol=0.0)
    assert np.allclose(p ** (-1 + 1 / n) * got[1:] ** (p - (p - 1) / n), s[1:],
                       rtol=1e-12, atol=0.0)
    one = growth.S_inverse(3.7)
    assert isinstance(one, float) and one == got[4]
    with pytest.raises(DomainError):
        growth.S_inverse(-1.0)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 7.0])
def test_power_g_inverse_closed_form_matches_the_bisection(p):
    growth = PowerGrowth(p)
    s = np.array([0.0, 1e-9, 0.02, 1.0, 3.7, 250.0, 1e6])
    got = growth.g_inverse(s)
    want = GrowthFunction.g_inverse(growth, s)
    # numpy's array ** and Python's scalar pow may differ in the last bit
    assert got[0] == 0.0 and np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert np.allclose(growth.g(got[1:]), s[1:], rtol=1e-13, atol=0.0)
    one = growth.g_inverse(3.7)
    assert isinstance(one, float) and one == pytest.approx(got[4], rel=1e-15)
    if p == 2.0:  # g is the identity: its inverse returns s bit for bit
        assert np.array_equal(got, s) and one == 3.7
    with pytest.raises(DomainError):
        growth.g_inverse(-1.0)


# ---------------------------------------------------------------------------
# scaling sandwiches and conjugate inequalities

def _sample_pairs(rng, count):
    beta = rng.uniform(1.0, 100.0, count)
    t = 10.0 ** rng.uniform(-6.0, 6.0, count)
    return beta, t


@pytest.mark.parametrize("growth", [
    PowerGrowth(2.0), PowerGrowth(3.0),
    RegularizedPowerGrowth(3.0, 1.0), RegularizedPowerGrowth(4.0, 0.5),
])
def test_scaling_sandwich(growth):
    rng = np.random.default_rng(7)
    beta, t = _sample_pairs(rng, 10_000)
    slack = 1e-9
    ig, sg = growth.ig, growth.sg
    ratio_g = growth.g(beta * t) / growth.g(t)
    assert np.all(ratio_g >= beta**ig * (1 - slack))
    assert np.all(ratio_g <= beta**sg * (1 + slack))
    ratio_G = growth.G(beta * t) / growth.G(t)
    assert np.all(ratio_G >= beta ** (1 + ig) * (1 - slack))
    assert np.all(ratio_G <= beta ** (1 + sg) * (1 + slack))
    # mirrored bounds below 1
    small = 1.0 / beta
    ratio_g = growth.g(small * t) / growth.g(t)
    assert np.all(ratio_g >= small**sg * (1 - slack))
    assert np.all(ratio_g <= small**ig * (1 + slack))


@pytest.mark.parametrize("growth", [
    PowerGrowth(3.0), RegularizedPowerGrowth(3.0, 1.0),
])
def test_inverse_scaling_sandwich(growth):
    rng = np.random.default_rng(8)
    beta, t = _sample_pairs(rng, 10_000)
    slack = 1e-9
    ig, sg = growth.ig, growth.sg
    ratio = growth.G_inverse(beta * t) / growth.G_inverse(t)
    assert np.all(ratio >= beta ** (1 / (1 + sg)) * (1 - slack))
    assert np.all(ratio <= beta ** (1 / (1 + ig)) * (1 + slack))


@pytest.mark.parametrize("growth", [
    PowerGrowth(2.0), PowerGrowth(3.0), RegularizedPowerGrowth(3.0, 1.0),
])
def test_young_inequality(growth):
    rng = np.random.default_rng(9)
    s = 10.0 ** rng.uniform(-4, 4, 500)
    t = 10.0 ** rng.uniform(-4, 4, 500)
    lhs = s * t
    rhs = growth.conjugate(s) + growth.G(t)
    assert np.all(lhs <= rhs * (1 + 1e-10) + 1e-300)


def test_conjugate_domination():
    # G*(g(t)) <= c G(t); equality constant p - 1 for pure powers
    for p in (2.0, 3.0, 4.0):
        growth = PowerGrowth(p)
        t = np.geomspace(1e-6, 1e6, 200)
        ratio = growth.conjugate(growth.g(t)) / growth.G(t)
        assert np.allclose(ratio, p - 1.0, rtol=1e-9)
    growth = RegularizedPowerGrowth(3.0, 1.0)
    t = np.geomspace(1e-6, 1e6, 200)
    ratio = growth.conjugate(growth.g(t)) / growth.G(t)
    assert np.all(np.isfinite(ratio))
    assert ratio.max() < 5.0


def test_conjugate_of_mean_slope():
    # G*(G(t)/t) <= G(t)
    for growth in (PowerGrowth(2.0), PowerGrowth(3.5), RegularizedPowerGrowth(3.0, 1.0)):
        t = np.geomspace(1e-6, 1e6, 200)
        assert np.all(growth.conjugate(growth.G(t) / t) <= growth.G(t) * (1 + 1e-9))


def test_doubling_conditions():
    for growth in (PowerGrowth(3.0), RegularizedPowerGrowth(4.0, 1.0)):
        t = np.geomspace(1e-6, 1e6, 200)
        assert np.all(growth.G(2 * t) / growth.G(t) <= 2 ** (1 + growth.sg) * (1 + 1e-12))
        theta = 2.0 ** (1.0 / growth.ig) * 2.0
        assert np.all(growth.G(t) <= growth.G(theta * t) / (2 * theta) * (1 + 1e-12))


def test_kernel_monotone_from_zero():
    # t -> g(t)/t nondecreasing, so the kernel extends continuously to 0
    for growth in (PowerGrowth(2.0), PowerGrowth(3.0), RegularizedPowerGrowth(3.0, 1.0)):
        t = np.geomspace(1e-10, 1e4, 300)
        k = growth.kernel(t)
        assert np.all(np.diff(k) >= -1e-12 * np.abs(k[:-1]))
        assert growth.kernel(0.0) == pytest.approx(growth.kernel0)


def test_kernel_origin_values():
    assert PowerGrowth(2.0).kernel(0.0) == 1.0
    assert PowerGrowth(3.0).kernel(0.0) == 0.0
    assert RegularizedPowerGrowth(3.0, 4.0).kernel(0.0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# tabulated kind

def _power_table(p=3.0, lo=1e-4, hi=1e4, count=400):
    t = np.geomspace(lo, hi, count)
    return t, t ** (p - 1.0)


def test_tabulated_matches_power():
    t, v = _power_table()
    tab = TabulatedGrowth(t, v)
    assert tab.ig == pytest.approx(2.0, abs=1e-3)
    assert tab.sg == pytest.approx(2.0, abs=1e-3)
    x = np.geomspace(1e-3, 1e3, 50)
    assert np.allclose(tab.g(x), x**2, rtol=5e-6)
    assert np.allclose(tab.G(x), x**3 / 3, rtol=1e-5)
    assert np.allclose(tab.G_inverse(tab.G(x)), x, rtol=1e-8)


def test_tabulated_rejects_sublinear():
    t = np.geomspace(1e-2, 1e2, 64)
    v = np.sqrt(t)  # elasticity 1/2 < 1
    with pytest.raises(DataError):
        TabulatedGrowth(t, v)


def test_tabulated_needs_three_nodes():
    with pytest.raises(InsufficientDataError):
        TabulatedGrowth([1.0, 2.0], [1.0, 2.0])


def test_tabulated_range_error():
    t, v = _power_table(lo=1e-2, hi=1e2)
    tab = TabulatedGrowth(t, v)
    with pytest.raises(RangeError):
        tab.G_inverse(1e30)


def test_make_growth_factory(tmp_path):
    def growth(**spec):
        return build_growth(ExperimentConfig(growth=spec, base_dir=tmp_path))

    assert growth(kind="power", p=3.0).sg == 2.0
    assert growth(kind="regularized_power", p=3.0, mu=1.0).ig == 1.0
    t, v = _power_table()
    path = tmp_path / "table.txt"
    np.savetxt(path, np.column_stack([t, v]))
    tab = growth(kind="tabulated", file=path.name)
    assert isinstance(tab, TabulatedGrowth)
    with pytest.raises(DataError):
        growth(kind="unknown")
    path.write_text("1 2\n3 four\n")
    with pytest.raises(DataError, match="table.txt: malformed table"):
        growth(kind="tabulated", file=path.name)


def test_power_requires_p_at_least_two():
    with pytest.raises(DataError):
        PowerGrowth(1.5)
    with pytest.raises(DataError):
        RegularizedPowerGrowth(3.0, -1.0)


_T9 = np.geomspace(1e-3, 1e3, 9)


@pytest.mark.parametrize("growth", [
    PowerGrowth(2.0), PowerGrowth(2.5), PowerGrowth(3.0), PowerGrowth(4.0),
    RegularizedPowerGrowth(2.0, 0.5), RegularizedPowerGrowth(2.5, 1e-3),
    RegularizedPowerGrowth(3.0, 1.0), RegularizedPowerGrowth(3.5, 0.1),
    RegularizedPowerGrowth(4.0, 0.5),
    TabulatedGrowth(_NODES, _NODES + _NODES**2),
    # linear: the fitted lower edge exponent rounds to 1 - 2e-16
    TabulatedGrowth(np.geomspace(1e-3, 1e3, 9), 1.5 * np.geomspace(1e-3, 1e3, 9)),
    # a lower index the index check accepts below 1 reads as linear at 0
    pytest.param(TabulatedGrowth(_T9, _T9 ** (1 - 1e-10)),
                 id="TabulatedGrowth(9 nodes, exponent 1 - 1e-10)"),
], ids=repr)
def test_growth_is_finite_at_zero(growth):
    # every kind extends g, g' and g(t)/t to t = 0 by finite values
    t = np.array([0.0, 1e-300, 1e-8, 1.0])
    for method in (growth.g, growth.dg, growth.kernel):
        assert np.all(np.isfinite(method(t)))
        assert np.isfinite(method(0.0))


def test_linear_table_has_one_slope_at_zero():
    # a linear table g = c t has g'(0) = g(t)/t = c however its fitted
    # lower edge exponent rounds: dg and kernel0 read one rule
    rng = np.random.default_rng(400)
    for _ in range(400):
        lo = 10 ** rng.uniform(-4, 0)
        t = np.geomspace(lo, lo * 10 ** rng.uniform(1, 4), 9)
        growth = TabulatedGrowth(t, 10 ** rng.uniform(-2, 2) * t)
        assert growth.dg(0.0) == growth.kernel0 == growth.values[0] / growth.nodes[0]


def test_check_indices_on_log_grid():
    t, v = _power_table()
    cases = ((PowerGrowth(2.5), 1e-9), (RegularizedPowerGrowth(3.0, 1.0), 1e-9),
             (TabulatedGrowth(t, v), 1e-3))
    for growth, slack in cases:
        lo, hi = estimate_indices(growth)
        assert growth.ig - slack <= lo and hi <= growth.sg + slack
