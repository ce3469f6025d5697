import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from powerswap import charfn, pricer
from powerswap.averaging import decompose
from powerswap.charfn import RiccatiCoefficients, char_fn, solve_riccati
from powerswap.conditions import ConditionWarning
from powerswap.models import (
    DeliveryPeriod,
    DeliverySeasonal,
    GeneralSeparable,
    HestonParams,
    OptionSpec,
    Samuelson,
    TradingSeasonal,
    UniformWeight,
)
from powerswap.pricer import (
    PriceResult,
    PricingError,
    TruncationError,
    black76_oracle,
    price_fourier,
    price_fourier_many,
    price_mc,
    price_mc_many,
    _finalize_prob,
)
from powerswap.simulate import (
    GridSpec,
    Measure,
    simulate_paths,
    simulate_summary,
    simulate_terminal,
)
from powerswap.averaging import swap_vol_factor

from _reference import lognormal_call_put, samuelson_d1_d2, samuelson_psi_series

DP = DeliveryPeriod(0.75, 5.0 / 6.0)
UNI = UniformWeight()
SAM = Samuelson(3.5)
T = 0.5


def _params(**over):
    base = dict(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6, f0=30.0, r=0.01)
    base.update(over)
    return HestonParams(**base)


# ---------------------------------------------------------------------------
# lognormal oracle


def test_black76_against_reference():
    for f, k, tv, df in [
        (30.0, 30.0, 0.04, 0.99),
        (30.0, 24.0, 0.09, 1.0),
        (30.0, 36.0, 0.02, 0.95),
        (100.0, 1.0, 1.0, 1.0),
    ]:
        call, put = black76_oracle(f, k, tv, df)
        ref_call, ref_put = lognormal_call_put(f, k, tv, df)
        assert call == pytest.approx(ref_call, rel=1e-13)
        assert put == pytest.approx(ref_put, rel=1e-13)


def test_black76_at_the_money_symmetric_form():
    # f = k collapses to df * f * (2 N(sd/2) - 1)
    call, put = black76_oracle(30.0, 30.0, 0.04, 1.0)
    assert call == pytest.approx(30.0 * (2.0 * norm.cdf(0.1) - 1.0), rel=1e-13)
    assert call == put


def test_black76_zero_variance_is_intrinsic():
    assert black76_oracle(30.0, 24.0, 0.0, 0.9) == (0.9 * 6.0, 0.0)
    assert black76_oracle(24.0, 30.0, 0.0, 0.9) == (0.0, 0.9 * 6.0)
    assert black76_oracle(30.0, 30.0, 0.0, 0.9) == (0.0, 0.0)


def test_black76_parity():
    call, put = black76_oracle(31.0, 28.0, 0.05, 0.97)
    assert call - put == pytest.approx(0.97 * 3.0, rel=1e-14)


# ---------------------------------------------------------------------------
# Fourier pricing


def test_fourier_parity_and_monotonicity():
    p = _params()
    strikes = np.linspace(22.0, 38.0, 9)
    results = price_fourier_many(p, SAM, UNI, DP, strikes=strikes, exercise=T)
    df = np.exp(-0.01 * T)
    calls = np.array([r.call for r in results])
    for k, r in zip(strikes, results):
        assert r.call - r.put == pytest.approx(df * (30.0 - k), abs=1e-10)
        assert 0.0 <= r.q1 <= 1.0
        assert 0.0 <= r.q2 <= 1.0
        assert r.method == "fourier"
        assert r.stderr is None
    assert (np.diff(calls) < 0).all()


def test_fourier_many_matches_single_calls():
    p = _params()
    many = price_fourier_many(p, SAM, UNI, DP, strikes=[24.0, 30.0], exercise=T)
    for k, r in zip([24.0, 30.0], many):
        single = price_fourier(p, SAM, UNI, DP, OptionSpec(strike=k, exercise=T))
        assert r.call == single.call
        assert r.put == single.put


def test_fourier_deep_strikes():
    p = _params()
    itm = price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30e-6, exercise=T))
    otm = price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30e6, exercise=T))
    assert itm.q1 == pytest.approx(1.0, abs=1e-4)
    assert itm.q2 == pytest.approx(1.0, abs=1e-4)
    assert otm.q1 == pytest.approx(0.0, abs=1e-4)
    assert otm.q2 == pytest.approx(0.0, abs=1e-4)
    df = np.exp(-0.01 * T)
    assert itm.call == pytest.approx(df * (30.0 - 30e-6), rel=1e-9)
    assert otm.call == pytest.approx(0.0, abs=1e-8)


def test_degenerate_heston_matches_lognormal():
    """No vol-of-vol, no correlation: integrated variance is deterministic."""
    p = _params(sigma_vv=0.0, rho=0.0, nu0=0.4)
    nu_t = lambda u: 0.6 + (0.4 - 0.6) * np.exp(-3.0 * u)
    total_var, err = quad(
        lambda u: swap_vol_factor(SAM, UNI, DP, u) ** 2 * nu_t(u), 0.0, T,
        epsabs=1e-13, epsrel=1e-13,
    )
    assert err < 1e-12
    df = np.exp(-0.01 * T)
    for k in (24.0, 30.0, 36.0):
        res = price_fourier(p, SAM, UNI, DP, OptionSpec(strike=k, exercise=T))
        ref_call, ref_put = lognormal_call_put(30.0, k, total_var, df)
        assert res.call == pytest.approx(ref_call, abs=1e-7)
        assert res.put == pytest.approx(ref_put, abs=1e-7)


def test_fourier_rejects_theta_negative_before_exercise():
    # theta(t) = 0.6 - 2 t turns negative at t = 0.3 < T; the simulator
    # rejects it too, on its grid
    p = _params(theta=lambda t: 0.6 - 2.0 * t)
    with pytest.raises(ValueError, match="theta"):
        price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T))
    with pytest.warns(ConditionWarning), pytest.raises(ValueError, match="theta"):
        price_mc(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T),
                 GridSpec(t0=0.0, t_end=T, n_steps=10, n_paths=10, seed=1))


def test_general_separable_with_samuelson_shape_matches_samuelson():
    p = _params()
    shape = GeneralSeparable(lambda t, u: np.exp(-3.5 * (np.asarray(u, float) - t)),
                             bound_r=1.0)
    opt = OptionSpec(strike=30.0, exercise=T)
    general = price_fourier(p, shape, UNI, DP, opt)
    closed = price_fourier(p, SAM, UNI, DP, opt)
    assert general.call == pytest.approx(closed.call, abs=1e-10)
    assert general.q1 == pytest.approx(closed.q1, abs=1e-10)
    assert general.q2 == pytest.approx(closed.q2, abs=1e-10)


def test_fourier_context_decomposes_once(monkeypatch):
    # one stacked k = 2 system serves both transforms, so a GeneralSeparable
    # moment cache is filled once per pricing call
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    monkeypatch.setattr(charfn, "decompose", counting)
    price_fourier_many(_params(), SAM, UNI, DP, [28.0, 32.0], T, ode_tol=1e-6)
    assert len(calls) == 1


def test_fourier_diagnostics_and_truncation(monkeypatch):
    p = _params()
    solves = []

    def counting_solve(*args, **kwargs):
        solves.append(np.size(args[3]))
        return solve_riccati(*args, **kwargs)

    monkeypatch.setattr(pricer, "solve_riccati", counting_solve)
    res = price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T))
    # one stacked k = 2 solve per block of at most 16 panels of 32 nodes,
    # (phi, phi - i), until both k are truncated, once per pricing call
    # however many strikes it prices
    panels = res.diagnostics["panels_k1"], res.diagnostics["panels_k2"]
    assert len(solves) == -(-max(panels) // 16)
    one_strike = len(solves)
    solves.clear()
    price_fourier_many(p, SAM, UNI, DP, [24.0, 27.0, 30.0, 33.0, 36.0], T)
    assert len(solves) == one_strike
    assert max(solves) <= 2 * 16 * 32
    assert res.diagnostics["panels_k1"] >= 1
    assert res.diagnostics["phi_used_k1"] <= 400.0
    assert res.diagnostics["novikov_ok"] is True
    # an absurdly small cap cannot fit the envelope criterion
    with pytest.raises(TruncationError) as exc_info:
        price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T), phi_max=4.0)
    assert exc_info.value.envelope > 1e-12
    assert np.isfinite(exc_info.value.partial)


@pytest.mark.parametrize("lam", [3.5, 1.0])
def test_samuelson_prices_match_series_oracle(lam):
    # the pricer's own nodes and truncation, with Q_hat from the series
    # solution instead of a Riccati solve
    p = _params()
    strikes = [3e-5, 24.0, 30.0, 36.0, 3e7]
    results = price_fourier_many(p, Samuelson(lam), UNI, DP, strikes, T)
    d1, d2 = samuelson_d1_d2(lam * (DP.tau2 - DP.tau1))
    decay = np.exp(-lam * (DP.tau1 - T))
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(32)
    x = np.log(p.f0)
    q = {}
    for k in (1, 2):
        panels = results[0].diagnostics[f"panels_k{k}"]
        nodes = (2.0 * (np.arange(panels)[:, None] + 0.5) + gl_nodes).ravel()
        psi0, psi1 = samuelson_psi_series(nodes, T, k, lam, 3.0, 0.6, 0.4, -0.3,
                                          d1 * decay, d2 * decay)
        qhat = np.exp(psi0 + p.nu0 * psi1 + 1j * nodes * x)
        q[k] = [0.5 + np.dot(np.tile(gl_weights, panels),
                             np.real(np.exp(-1j * nodes * np.log(s)) * qhat / (1j * nodes)))
                / np.pi for s in strikes]
    df = np.exp(-0.01 * T)
    for s, res, q1, q2 in zip(strikes, results, q[1], q[2]):
        # the pricer clamps probabilities to [0, 1] and the call at 0
        q1, q2 = min(max(q1, 0.0), 1.0), min(max(q2, 0.0), 1.0)
        assert (res.q1, res.q2) == pytest.approx((q1, q2), abs=1e-12)
        assert res.call == pytest.approx(max(df * (p.f0 * q1 - s * q2), 0.0), abs=1e-9)


def _per_panel_exercise_probs(p, vol, k, strikes):
    """1 - Q_k panel by panel: one Riccati solve per 32-node panel of width 2,
    stopped after two panels in a row with max |Q_hat| / phi < 1e-12."""
    rc = RiccatiCoefficients.for_model(p, vol, UNI, DP, k)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(32)
    totals = np.zeros(len(strikes))
    lo, below = 0.0, 0
    while below < 2:
        nodes = lo + 1.0 + gl_nodes
        qhat = char_fn(solve_riccati(rc, 0.0, T, nodes), np.log(p.f0), p.nu0)
        for i, strike in enumerate(strikes):
            integrand = np.real(np.exp(-1j * nodes * np.log(strike)) * qhat / (1j * nodes))
            totals[i] += np.dot(gl_weights, integrand)
        below = below + 1 if np.max(np.abs(qhat) / nodes) < 1e-12 else 0
        lo += 2.0
    return 0.5 + totals / np.pi, lo / 2.0


@pytest.mark.parametrize("vol", [DeliverySeasonal(1.0, 0.4, 0.0),
                                 TradingSeasonal(0.6, 0.7, 0.2)])
def test_block_solves_match_per_panel_solves(vol):
    p = _params(theta=vol.theta) if isinstance(vol, TradingSeasonal) else _params()
    strikes = [26.0, 30.0, 34.0]
    results = price_fourier_many(p, vol, UNI, DP, strikes, T)
    for k in (1, 2):
        probs, panels = _per_panel_exercise_probs(p, vol, k, strikes)
        assert results[0].diagnostics[f"panels_k{k}"] == panels
        got = [getattr(r, f"q{k}") for r in results]
        np.testing.assert_allclose(got, probs, rtol=0.0, atol=1e-10)


def test_novikov_warning_points_at_the_caller():
    # kappa = 0.1 fails 8 kappa^2 > sigma_vv^2 / (lam delta)^2; the tiny
    # phi_max stops the Fourier pricing right after the check.  It fails
    # Feller too (2 kappa theta = 0.12 <= 0.16), which only the simulator checks.
    p = _params(kappa=0.1)
    opt = OptionSpec(strike=30.0, exercise=T)
    g = GridSpec(t0=0.0, t_end=T, n_steps=4, n_paths=10, seed=1)
    feller = "Feller condition fails (0.12 <= 0.16); the variance process may hit zero"
    novikov = ("Novikov condition fails (0.08 <= 1.88082); "
               "the measure change is not guaranteed")
    for price in (
        lambda: price_fourier(p, SAM, UNI, DP, opt, phi_max=4.0),
        lambda: price_fourier_many(p, SAM, UNI, DP, [30.0], T, phi_max=4.0),
    ):
        with pytest.warns(ConditionWarning) as record, pytest.raises(TruncationError):
            price()
        assert [w.filename for w in record] == [__file__]
        assert [str(w.message) for w in record] == [novikov]
    for run in (
        lambda: price_mc(p, SAM, UNI, DP, opt, g),
        lambda: price_mc_many(p, SAM, UNI, DP, [27.0, 30.0], T, g),
        lambda: simulate_paths(p, SAM, UNI, DP, g),
        lambda: simulate_terminal(p, SAM, UNI, DP, g, workers=2),
        lambda: simulate_summary(p, SAM, UNI, DP, g, measure=Measure.Q),
    ):
        with pytest.warns(ConditionWarning) as record:
            run()
        assert [w.filename for w in record] == [__file__, __file__]
        assert [str(w.message) for w in record] == [feller, novikov]


def test_finalize_prob_clamp():
    diags = {}
    assert _finalize_prob(1.0 + 5e-7, 1, diags) == 1.0
    assert diags.get("clamped_q1")
    assert _finalize_prob(-5e-7, 2, {}) == 0.0
    assert _finalize_prob(0.5, 1, {}) == 0.5
    with pytest.raises(PricingError):
        _finalize_prob(1.0 + 5e-6, 1, {})
    with pytest.raises(PricingError):
        _finalize_prob(-5e-6, 2, {})


def test_price_result_frozen():
    res = price_fourier(_params(), SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T))
    assert isinstance(res, PriceResult)
    with pytest.raises(AttributeError):
        res.call = 0.0


def test_fourier_at_later_valuation_time(monkeypatch):
    p = _params()
    res = price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T), t=0.25)
    assert res.call > 0.0
    df = np.exp(-0.01 * (T - 0.25))
    assert res.call - res.put == pytest.approx(df * (30.0 - 30.0), abs=1e-10)
    with pytest.raises(ValueError):
        price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T), t=0.6)
    # every bad input below is rejected before the first Riccati solve
    solves = []
    monkeypatch.setattr(pricer, "solve_riccati",
                        lambda *args, **kwargs: solves.append(1) or solve_riccati(*args, **kwargs))
    opt = OptionSpec(strike=30.0, exercise=T)
    for kwargs, message in [
        (dict(opt=opt, nu=-0.1), "nu must be non-negative, got -0.1"),
        (dict(opt=opt, nu=np.nan), "nu must be finite, got nan"),
        (dict(opt=opt, nu=np.inf), "nu must be finite, got inf"),
        (dict(opt=opt, x=np.nan), "x must be finite, got nan"),
        (dict(opt=opt, x=np.inf), "x must be finite, got inf"),
        (dict(opt=opt, x=-np.inf), "x must be finite, got -inf"),
        (dict(opt=opt, phi_max=np.inf), "phi_max must be finite, got inf"),
        (dict(opt=OptionSpec(strike=30.0, exercise=0.75)),
         "exercise 0.75 must precede the delivery start 0.75"),
    ]:
        with pytest.raises(ValueError) as info:
            price_fourier(p, SAM, UNI, DP, **kwargs)
        assert type(info.value) is ValueError
        assert str(info.value) == message
    assert solves == []


# ---------------------------------------------------------------------------
# Monte-Carlo pricing


def test_mc_deterministic_and_documented():
    p = _params()
    g = GridSpec(t0=0.0, t_end=T, n_steps=100, n_paths=4000, seed=12)
    a = price_mc(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T), g, workers=1)
    b = price_mc(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T), g, workers=3)
    assert a.call == b.call and a.put == b.put and a.stderr == b.stderr
    assert a.method == "mc"
    assert a.diagnostics["n_paths"] == 4000
    assert a.diagnostics["seed"] == 12
    assert a.diagnostics["measure"] == "Q_tilde"
    assert a.stderr is not None and a.stderr > 0


def test_mc_many_matches_single_calls():
    p = _params()
    g = GridSpec(t0=0.0, t_end=T, n_steps=70, n_paths=5000, seed=19)
    strikes = [24.0, 30.0, 36.0]
    many = price_mc_many(p, SAM, UNI, DP, strikes, T, g, workers=2)
    assert len(many) == len(strikes)
    for k, res in zip(strikes, many):
        assert res == price_mc(p, SAM, UNI, DP, OptionSpec(strike=k, exercise=T), g)
    with pytest.raises(ValueError):
        price_mc_many(p, SAM, UNI, DP, [30.0, -1.0], T, g)


def test_mc_single_path_has_undefined_stderr():
    g = GridSpec(t0=0.0, t_end=T, n_steps=20, n_paths=1, seed=4)
    res = price_mc(_params(), SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T), g)
    assert res.stderr is None
    assert res.diagnostics["put_stderr"] is None
    assert np.isfinite(res.call) and np.isfinite(res.put)


def test_fourier_pricing_does_not_load_scipy_integrate():
    # scipy.integrate costs about 0.4 s and 25 MB at import; the Riccati
    # solver is written in numpy so that pricing never loads it
    code = ("import sys, powerswap\n"
            "from powerswap.models import *\n"
            "p = HestonParams(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6,"
            " f0=30.0, r=0.01)\n"
            "powerswap.price_fourier_many(p, Samuelson(3.5), UniformWeight(),"
            " DeliveryPeriod(0.75, 5 / 6), [24.0, 30.0, 36.0], 0.5, ode_tol=1e-6)\n"
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_does_not_load_scipy_stats():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, powerswap; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_mc_zero_strike_recovers_discounted_forward():
    p = _params()
    g = GridSpec(t0=0.0, t_end=T, n_steps=200, n_paths=30_000, seed=5)
    res = price_mc(p, SAM, UNI, DP, OptionSpec(strike=1e-9, exercise=T), g, workers=2)
    df = np.exp(-0.01 * T)
    assert abs(res.call - df * 30.0) < 3.0 * res.stderr
    assert res.q2 == 1.0


def test_mc_grid_must_end_at_exercise():
    p = _params()
    g = GridSpec(t0=0.0, t_end=0.4, n_steps=100, n_paths=100, seed=1)
    with pytest.raises(ValueError):
        price_mc(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T), g)


def test_mc_measure_invariance_for_flat_profile():
    ts = TradingSeasonal(0.6, 0.7, 0.2)
    p = _params(theta=ts.theta)
    g = GridSpec(t0=0.0, t_end=T, n_steps=100, n_paths=3000, seed=8)
    q = price_mc(p, ts, UNI, DP, OptionSpec(strike=30.0, exercise=T), g, measure=Measure.Q)
    qt = price_mc(p, ts, UNI, DP, OptionSpec(strike=30.0, exercise=T), g, measure=Measure.Q_TILDE)
    assert q.call == qt.call
    assert q.put == qt.put
    assert q.q1 == qt.q1 and q.q2 == qt.q2


def test_mc_parity_is_exact_per_sample():
    p = _params()
    g = GridSpec(t0=0.0, t_end=T, n_steps=100, n_paths=20_000, seed=33)
    (c1, p1), (c2, p2) = [(r.call, r.put) for r in
                          price_mc_many(p, SAM, UNI, DP, [27.0, 33.0], T, g, workers=2)]
    df = np.exp(-0.01 * T)
    # per path, call - put = F_c - K on the conditional forward F_c, so across
    # two strikes priced on one sample the forward cancels up to round-off
    assert c1 - p1 - c2 + p2 == pytest.approx(df * (33.0 - 27.0), abs=1e-10)


def test_mc_conditional_forward_is_a_martingale_at_zero_rho():
    # at rho = 0, F_c = f0 exp(-D + I / 2) with D = I / 2 under Q_tilde
    g = GridSpec(t0=0.0, t_end=T, n_steps=100, n_paths=5000, seed=3)
    res = price_mc(_params(rho=0.0), SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T), g)
    assert res.diagnostics["estimator"] == "conditional"
    assert res.diagnostics["forward_mean"] == pytest.approx(30.0, rel=1e-12)
    assert res.diagnostics["forward_stderr"] < 1e-12


def test_mc_forward_diagnostics_within_noise_of_f0():
    g = GridSpec(t0=0.0, t_end=T, n_steps=100, n_paths=20_000, seed=9)
    diag = price_mc(_params(), SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T), g).diagnostics
    assert diag["forward_stderr"] > 0
    assert abs(diag["forward_mean"] - 30.0) < 4.0 * diag["forward_stderr"]
    one = price_mc(_params(), SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T),
                   GridSpec(t0=0.0, t_end=T, n_steps=20, n_paths=1, seed=4))
    assert one.diagnostics["forward_stderr"] is None


def test_mc_conditional_stderr_beats_plain_payoff():
    p = _params()
    g = GridSpec(t0=0.0, t_end=T, n_steps=100, n_paths=20_000, seed=21)
    res = price_mc(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T), g, workers=2)
    payoff = np.maximum(simulate_terminal(p, SAM, UNI, DP, g, workers=2).f - 30.0, 0.0)
    plain_stderr = np.exp(-0.01 * T) * payoff.std(ddof=1) / np.sqrt(g.n_paths)
    assert res.stderr <= plain_stderr / 3.0


def test_mc_conditional_prices_match_fourier():
    p = _params()
    strikes = [24.0, 30.0, 36.0]
    g = GridSpec(t0=0.0, t_end=T, n_steps=100, n_paths=20_000, seed=13)
    mc = price_mc_many(p, SAM, UNI, DP, strikes, T, g, workers=2)
    for fr, res in zip(price_fourier_many(p, SAM, UNI, DP, strikes, T), mc):
        assert abs(res.call - fr.call) <= 4.0 * res.stderr
        assert abs(res.put - fr.put) <= 4.0 * res.diagnostics["put_stderr"]


def test_mc_zero_conditional_variance_is_intrinsic():
    # nu0 = 5e-324 and one step: I = S^2 nu0 dt rounds to 0, so every path
    # prices at its intrinsic value, with no RuntimeWarning from d+-
    p = _params(nu0=5e-324)
    g = GridSpec(t0=0.0, t_end=T, n_steps=1, n_paths=10, seed=1)
    df = np.exp(-0.01 * T)
    for k, call, put in [(24.0, df * 6.0, 0.0), (36.0, 0.0, df * 6.0)]:
        res = price_mc(p, SAM, UNI, DP, OptionSpec(strike=k, exercise=T), g)
        assert res.call == pytest.approx(call, abs=1e-12)
        assert res.put == pytest.approx(put, abs=1e-12)
        assert res.q2 == res.q1 == (1.0 if k < 30.0 else 0.0)
