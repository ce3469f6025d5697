"""Monte-Carlo engine tests.

Determinism is the load-bearing property here: every step block of every
chunk of paths draws from its own counter range of a Philox generator keyed
by (seed, chunk), so results must not depend on worker count or on how many
paths run alongside.
"""

import tracemalloc

import numpy as np
import pytest

from powerswap.conditions import ConditionWarning
from powerswap.models import (
    DeliveryPeriod,
    GeneralSeparable,
    HestonParams,
    Samuelson,
    TradingSeasonal,
    UniformWeight,
)
from powerswap.simulate import (
    _CHUNK,
    _STEP_BLOCK,
    GridSpec,
    Measure,
    SimulationError,
    _block_increments,
    _build_coeffs,
    simulate_paths,
    simulate_summary,
    simulate_terminal,
    simulate_variance_integrals,
)

DP = DeliveryPeriod(0.75, 5.0 / 6.0)
UNI = UniformWeight()
SAM = Samuelson(3.5)


def _params(**over):
    base = dict(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6, f0=30.0, r=0.01)
    base.update(over)
    return HestonParams(**base)


def test_grid_spec_validation():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=10, n_paths=3, seed=1)
    assert g.dt == pytest.approx(0.05)
    assert len(g.times()) == 11
    with pytest.raises(ValueError):
        GridSpec(t0=-0.1, t_end=0.5, n_steps=10, n_paths=3, seed=1)
    with pytest.raises(ValueError):
        GridSpec(t0=0.5, t_end=0.5, n_steps=10, n_paths=3, seed=1)
    for t_end in (np.inf, np.nan):
        with pytest.raises(ValueError):
            GridSpec(t0=0.0, t_end=t_end, n_steps=10, n_paths=3, seed=1)
    with pytest.raises(ValueError):
        GridSpec(t0=0.0, t_end=0.5, n_steps=0, n_paths=3, seed=1)
    with pytest.raises(ValueError):
        GridSpec(t0=0.0, t_end=0.5, n_steps=10, n_paths=0, seed=1)
    # a bool is not a count
    for field in ("n_steps", "n_paths"):
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            GridSpec(**{"t0": 0.0, "t_end": 0.5, "n_steps": 10, "n_paths": 3, "seed": 1,
                        field: True})
    with pytest.raises(ValueError):
        GridSpec(t0=0.0, t_end=0.5, n_steps=10, n_paths=3, seed=-1)


def test_same_seed_same_paths():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=50, n_paths=40, seed=11)
    a = simulate_paths(_params(), SAM, UNI, DP, g)
    b = simulate_paths(_params(), SAM, UNI, DP, g)
    np.testing.assert_array_equal(a.x_paths, b.x_paths)
    np.testing.assert_array_equal(a.nu_paths, b.nu_paths)


def test_worker_count_does_not_change_results():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=40, n_paths=9000, seed=5)
    one = simulate_paths(_params(), SAM, UNI, DP, g, workers=1)
    four = simulate_paths(_params(), SAM, UNI, DP, g, workers=4)
    np.testing.assert_array_equal(one.x_paths, four.x_paths)
    np.testing.assert_array_equal(one.nu_paths, four.nu_paths)


def test_path_streams_are_independent_of_path_count():
    # path i draws from stream (seed, i), so a shorter run is a prefix
    g_small = GridSpec(t0=0.0, t_end=0.5, n_steps=30, n_paths=3, seed=17)
    g_big = GridSpec(t0=0.0, t_end=0.5, n_steps=30, n_paths=10, seed=17)
    small = simulate_paths(_params(), SAM, UNI, DP, g_small)
    big = simulate_paths(_params(), SAM, UNI, DP, g_big)
    np.testing.assert_array_equal(small.x_paths, big.x_paths[:3])
    np.testing.assert_array_equal(small.nu_paths, big.nu_paths[:3])


def test_different_seeds_differ():
    g1 = GridSpec(t0=0.0, t_end=0.5, n_steps=30, n_paths=5, seed=1)
    g2 = GridSpec(t0=0.0, t_end=0.5, n_steps=30, n_paths=5, seed=2)
    a = simulate_paths(_params(), SAM, UNI, DP, g1)
    b = simulate_paths(_params(), SAM, UNI, DP, g2)
    assert not np.array_equal(a.x_paths, b.x_paths)


def test_initial_values_and_positivity():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=100, n_paths=200, seed=3)
    out = simulate_paths(_params(), SAM, UNI, DP, g)
    np.testing.assert_array_equal(out.x_paths[:, 0], np.log(30.0))
    np.testing.assert_array_equal(out.nu_paths[:, 0], 0.6)
    assert (out.nu_paths >= 0).all()
    assert np.isfinite(out.x_paths).all()
    np.testing.assert_allclose(out.f_paths, np.exp(out.x_paths), rtol=0)


def test_terminal_matches_paths():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=60, n_paths=500, seed=9)
    paths = simulate_paths(_params(), SAM, UNI, DP, g)
    term = simulate_terminal(_params(), SAM, UNI, DP, g)
    np.testing.assert_array_equal(term.x, paths.x_paths[:, -1])
    np.testing.assert_array_equal(term.nu, paths.nu_paths[:, -1])
    np.testing.assert_array_equal(term.f, paths.f_paths[:, -1])


def test_summary_matches_paths():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=25, n_paths=6000, seed=21)
    paths = simulate_paths(_params(), SAM, UNI, DP, g)
    stats = simulate_summary(_params(), SAM, UNI, DP, g)
    f = paths.f_paths
    np.testing.assert_allclose(stats.mean_f, f.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(
        stats.stderr_f, f.std(axis=0, ddof=1) / np.sqrt(g.n_paths), rtol=1e-10
    )
    np.testing.assert_allclose(stats.mean_nu, paths.nu_paths.mean(axis=0), rtol=1e-12)


def test_summary_stderr_undefined_for_one_path():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=5, n_paths=1, seed=3)
    stats = simulate_summary(_params(), SAM, UNI, DP, g)
    assert stats.stderr_f is None
    paths = simulate_paths(_params(), SAM, UNI, DP, g)
    np.testing.assert_allclose(stats.mean_f, paths.f_paths[0], rtol=1e-12)


def test_trading_seasonal_measures_bit_identical():
    ts = TradingSeasonal(0.6, 0.7, 0.2)
    p = _params(theta=ts.theta)
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=80, n_paths=300, seed=7)
    q = simulate_paths(p, ts, UNI, DP, g, measure=Measure.Q)
    qt = simulate_paths(p, ts, UNI, DP, g, measure=Measure.Q_TILDE)
    np.testing.assert_array_equal(q.x_paths, qt.x_paths)
    np.testing.assert_array_equal(q.nu_paths, qt.nu_paths)


def test_measure_changes_drift_by_market_price_term():
    """One Euler step: the Q drift carries the extra S xi nu term in X."""
    from powerswap.averaging import market_price_factor, swap_vol_factor

    p = _params()
    g = GridSpec(t0=0.0, t_end=0.001, n_steps=1, n_paths=64, seed=3)
    q = simulate_paths(p, SAM, UNI, DP, g, measure=Measure.Q)
    qt = simulate_paths(p, SAM, UNI, DP, g, measure=Measure.Q_TILDE)
    s0 = swap_vol_factor(SAM, UNI, DP, 0.0)
    xi0 = market_price_factor(SAM, UNI, DP, 0.0)
    expected = s0 * xi0 * 0.6 * 0.001
    np.testing.assert_allclose(qt.x_paths[:, 1] - q.x_paths[:, 1], expected, atol=1e-15)
    # and the variance reversion speed differs instead under Q tilde
    assert not np.array_equal(q.nu_paths[:, 1], qt.nu_paths[:, 1])


def test_deterministic_variance_limit_tracks_ode():
    """With sigma_vv=0 the variance must follow the mean-reversion ODE."""
    p = _params(sigma_vv=0.0, rho=0.0, nu0=0.3)
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=5000, n_paths=2, seed=1)
    out = simulate_paths(p, SAM, UNI, DP, g)
    exact = 0.6 + (0.3 - 0.6) * np.exp(-3.0 * out.times)
    np.testing.assert_allclose(out.nu_paths[0], exact, atol=1e-3)


def test_martingale_property_light():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=250, n_paths=20_000, seed=77)
    term = simulate_terminal(_params(), SAM, UNI, DP, g, workers=2)
    z = (term.f.mean() - 30.0) / (term.f.std(ddof=1) / np.sqrt(g.n_paths))
    assert abs(z) < 4.0


def test_horizon_beyond_delivery_start_rejected():
    g = GridSpec(t0=0.0, t_end=0.76, n_steps=10, n_paths=2, seed=1)
    with pytest.raises(ValueError):
        simulate_paths(_params(), SAM, UNI, DP, g)


def test_measure_must_be_enum():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=10, n_paths=2, seed=1)
    with pytest.raises(TypeError):
        simulate_paths(_params(), SAM, UNI, DP, g, measure="Q")


def test_feller_violation_warns():
    p = _params(kappa=0.5, sigma_vv=1.4)
    g = GridSpec(t0=0.0, t_end=0.1, n_steps=20, n_paths=4, seed=1)
    with pytest.warns(ConditionWarning):
        simulate_paths(p, SAM, UNI, DP, g)
    # a trading-seasonal variant whose theta the params do not use is
    # checked on the params' theta: 2 kappa 0.01 = 0.06 <= 0.16
    with pytest.warns(ConditionWarning, match="Feller"):
        simulate_terminal(_params(theta=0.01), TradingSeasonal(0.6, 0.7, 0.2), UNI, DP, g)


def test_implicit_denominator_guard():
    # a market-price factor so large that 1 + kappa_eff dt goes negative
    # under the delivery-adjusted measure must fail loudly, not corrupt nu;
    # a steep linear ramp over the window keeps quadrature trivial while
    # pushing xi into the thousands
    ramp = GeneralSeparable(
        s=lambda t, u: 1.0 + (np.asarray(u, float) - 0.75) * 12.0 * (1e5 - 1.0),
        bound_r=1e5,
    )
    p = _params(rho=-0.9, sigma_vv=0.4)
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=5, n_paths=2, seed=1)
    with pytest.raises((SimulationError, ValueError)), pytest.warns(ConditionWarning):
        simulate_paths(p, ramp, UNI, DP, g)


@pytest.mark.parametrize("n_steps", [_STEP_BLOCK + 1, 2 * _STEP_BLOCK + 1])
def test_prefix_stable_across_chunk_and_step_block_boundaries(n_steps):
    # 4095 and 4097 paths sit either side of the first chunk boundary, 9000
    # spans three chunks; 33 and 65 steps end one step into a new step block
    p = _params()
    full = simulate_paths(p, SAM, UNI, DP, GridSpec(0.0, 0.5, n_steps, 9000, seed=23))
    for n_paths in (4095, 4097, 9000):
        g = GridSpec(0.0, 0.5, n_steps, n_paths, seed=23)
        term = simulate_terminal(p, SAM, UNI, DP, g)
        np.testing.assert_array_equal(term.x, full.x_paths[:n_paths, -1])
        np.testing.assert_array_equal(term.nu, full.nu_paths[:n_paths, -1])
        stats = simulate_summary(p, SAM, UNI, DP, g)
        np.testing.assert_allclose(stats.mean_f, full.f_paths[:n_paths].mean(axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(stats.mean_nu, full.nu_paths[:n_paths].mean(axis=0),
                                   rtol=1e-12)


def test_terminal_and_summary_do_not_depend_on_workers():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=2 * _STEP_BLOCK + 1, n_paths=9000, seed=29)
    one = simulate_terminal(_params(), SAM, UNI, DP, g, workers=1)
    three = simulate_terminal(_params(), SAM, UNI, DP, g, workers=3)
    np.testing.assert_array_equal(one.x, three.x)
    np.testing.assert_array_equal(one.nu, three.nu)
    s_one = simulate_summary(_params(), SAM, UNI, DP, g, workers=1)
    s_three = simulate_summary(_params(), SAM, UNI, DP, g, workers=3)
    for name in ("mean_f", "stderr_f", "mean_nu"):
        np.testing.assert_array_equal(getattr(s_one, name), getattr(s_three, name))


def _coeffs(n_steps, rho=-0.3):
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=n_steps, n_paths=1, seed=0)
    return _build_coeffs(_params(rho=rho), SAM, UNI, DP, g, Measure.Q_TILDE)


def test_blocks_and_chunks_draw_disjoint_numbers():
    c = _coeffs(2 * _STEP_BLOCK)
    draws = {(chunk, block): _block_increments(c, 31, chunk, block, _CHUNK)
             for chunk, block in [(0, 0), (0, 1), (1, 0)]}
    for a, b in [((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 0))]:
        assert np.intersect1d(draws[a], draws[b]).size == 0, (a, b)


def test_increments_have_brownian_moments():
    # three chunks of the blocks a 69-step run draws (the last block is short)
    rho = -0.3
    c = _coeffs(2 * _STEP_BLOCK + 5, rho=rho)
    dw = np.concatenate(
        [_block_increments(c, 43, chunk, block, _CHUNK)
         for chunk in range(3) for block in range(3)])
    dw_f, dw_s = dw[:, 0].ravel() / c.sqdt, dw[:, 1].ravel() / c.sqdt
    n = dw_f.size
    assert n == 3 * c.n_steps * _CHUNK
    for z in (dw_f, dw_s):
        assert abs(z.mean()) < 5.0 / np.sqrt(n)
        assert abs(z.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
    corr = np.corrcoef(dw_f, dw_s)[0, 1]
    assert abs(corr - rho) < 5.0 * (1.0 - rho * rho) / np.sqrt(n)


def test_terminal_memory_holds_one_step_block():
    # drawing every increment of a 4096 x 2000 chunk up front takes
    # 4096 * 2 * 2000 doubles = 131 MB
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=2000, n_paths=_CHUNK, seed=41)
    tracemalloc.start()
    try:
        simulate_terminal(_params(), SAM, UNI, DP, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ---------------------------------------------------------------------------
# variance-only stream (conditional Monte-Carlo)


def _integrals(v):
    return np.stack([v.drift, v.var, v.vol_dw])


@pytest.mark.parametrize("n_steps", [_STEP_BLOCK + 1, 2 * _STEP_BLOCK + 1])
def test_variance_integrals_prefix_stable(n_steps):
    p = _params()
    full = _integrals(simulate_variance_integrals(
        p, SAM, UNI, DP, GridSpec(0.0, 0.5, n_steps, 9000, seed=23)))
    for n_paths in (4095, 4097):
        g = GridSpec(0.0, 0.5, n_steps, n_paths, seed=23)
        np.testing.assert_array_equal(
            _integrals(simulate_variance_integrals(p, SAM, UNI, DP, g)), full[:, :n_paths])


def test_variance_integrals_do_not_depend_on_workers():
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=2 * _STEP_BLOCK + 1, n_paths=9000, seed=29)
    one = simulate_variance_integrals(_params(), SAM, UNI, DP, g, workers=1)
    three = simulate_variance_integrals(_params(), SAM, UNI, DP, g, workers=3)
    np.testing.assert_array_equal(_integrals(one), _integrals(three))


def test_variance_integrals_with_deterministic_variance():
    # sigma_vv = 0: nu follows its ODE, so I is the same on every path, D is
    # I / 2 under Q_tilde, and J = sum S sqrt(nu) dW is N(0, I)
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=50, n_paths=20_000, seed=17)
    v = simulate_variance_integrals(_params(sigma_vv=0.0), SAM, UNI, DP, g)
    np.testing.assert_allclose(v.var, v.var[0], rtol=1e-12)
    np.testing.assert_array_equal(v.drift, 0.5 * v.var)
    n = g.n_paths
    assert abs(v.vol_dw.mean()) < 5.0 * np.sqrt(v.var[0] / n)
    assert abs(v.vol_dw.var() / v.var[0] - 1.0) < 5.0 * np.sqrt(2.0 / n)


def test_variance_integrals_reject_lost_positivity():
    # 4 kappa theta = 0.2 < sigma_vv^2 = 1.96: the drift-implicit Milstein
    # step loses positivity in both kernels
    p = _params(kappa=0.5, theta=0.1, sigma_vv=1.4)
    g = GridSpec(t0=0.0, t_end=0.5, n_steps=50, n_paths=1000, seed=1)
    for simulate in (simulate_terminal, simulate_variance_integrals):
        with pytest.raises(SimulationError, match="4 kappa theta"), \
                pytest.warns(ConditionWarning):
            simulate(p, SAM, UNI, DP, g)
