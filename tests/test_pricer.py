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
    ExponentialWeight,
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


@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5])
def test_near_exercise_matches_lognormal(gap):
    # a short time to exercise leaves little variance, so the integrand
    # decays slowly: phi reaches about 900, 2750 and 8440
    p = _params(sigma_vv=0.0, rho=0.0, nu0=0.4)
    t = T - gap
    total_var = quad(
        lambda u: swap_vol_factor(SAM, UNI, DP, u) ** 2 * (0.6 - 0.2 * np.exp(-3.0 * (u - t))),
        t, T, epsabs=1e-15, epsrel=1e-13)[0]
    strikes = [29.0, 30.0, 31.0]
    for k, res in zip(strikes, price_fourier_many(p, SAM, UNI, DP, strikes, T, t=t)):
        ref_call, ref_put = lognormal_call_put(30.0, k, total_var, np.exp(-0.01 * gap))
        assert res.call == pytest.approx(ref_call, abs=1e-9)
        assert res.put == pytest.approx(ref_put, abs=1e-9)


def test_non_decaying_price_fails_at_the_ceiling():
    # 1e-8 before exercise the integrand is still about 1e-4 at phi = 1e4
    with pytest.raises(TruncationError, match=r"at the ceiling phi = 10000 ") as info:
        price_fourier(_params(), SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T),
                      t=T - 1e-8)
    assert info.value.envelope > 1e-12
    assert np.isfinite(info.value.partial)


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
    solves, work = [], []

    def counting_solve(*args, **kwargs):
        solves.append(np.size(args[3]))
        sol = solve_riccati(*args, **kwargs)
        work.append((sol.n_steps, sol.n_rhs))
        return sol

    monkeypatch.setattr(pricer, "solve_riccati", counting_solve)
    res = price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T))
    # one stacked k = 2 solve, (phi, phi - i), per block of 16, 32, 64, ...
    # panels, until both k are truncated, once per pricing call however many
    # strikes it prices: at the money 8 nodes per panel, and 42 panels take
    # blocks of 16 and 32
    assert res.diagnostics["nodes_per_panel"] == 8
    assert res.diagnostics["panels_k1"] == res.diagnostics["panels_k2"] == 42
    assert solves == [2 * 8 * 16, 2 * 8 * 32]
    assert res.diagnostics["riccati_solves"] == len(solves)
    # the Riccati work is summed over those solves
    steps, rhs = map(sum, zip(*work))
    assert (res.diagnostics["riccati_steps"], res.diagnostics["riccati_rhs"]) == (steps, rhs)
    assert 0 < steps and 6 * steps < rhs
    solves.clear()
    ladder = price_fourier_many(p, SAM, UNI, DP, [24.0, 27.0, 30.0, 33.0, 36.0], T)
    assert solves == [2 * 8 * 16, 2 * 8 * 32]
    assert ladder[0].diagnostics["nodes_per_panel"] == 8
    # the nodes per panel follow the largest |ln(f0 / K)| priced, 32 for a
    # deep strike, and no block holds more than 16 panels of 32 nodes: deep
    # strikes keep 16-panel blocks, and a slow decay at 8 nodes grows them
    # to 64
    solves.clear()
    deep = price_fourier_many(p, SAM, UNI, DP, [30.0, 3e7], T)
    assert deep[0].diagnostics["nodes_per_panel"] == 32
    assert solves == [2 * 32 * 16] * 3
    solves.clear()
    feller = _params(kappa=1.5, theta=0.3, sigma_vv=1.5, rho=-0.5, nu0=0.3)
    with pytest.warns(ConditionWarning):
        slow = price_fourier_many(feller, SAM, UNI, DP, [30.0], T)
    assert slow[0].diagnostics["panels_k1"] > 16 + 32 + 64 + 64
    assert solves[:5] == [2 * 8 * 16, 2 * 8 * 32, 2 * 8 * 64, 2 * 8 * 64, 2 * 8 * 64]
    assert res.diagnostics["phi_used_k1"] == 42 * 2.0
    assert res.diagnostics["novikov_ok"] is True
    # an absurdly low ceiling cannot fit the envelope criterion, and the
    # error names it and the envelope once
    monkeypatch.setattr(pricer, "_PHI_HARD_CAP", 4.0)
    with pytest.raises(TruncationError) as exc_info:
        price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T))
    assert exc_info.value.envelope > 1e-12
    assert np.isfinite(exc_info.value.partial)
    assert str(exc_info.value) == (
        f"integrand envelope still {exc_info.value.envelope:.3e} at the ceiling "
        f"phi = 4 (partial value {exc_info.value.partial:.10g})")


@pytest.mark.parametrize("lam", [3.5, 1.0])
def test_samuelson_prices_match_series_oracle(lam):
    # the pricer's own nodes and truncation, with Q_hat from the series
    # solution instead of a Riccati solve
    p = _params()
    strikes = [3e-5, 24.0, 30.0, 36.0, 3e7]
    results = price_fourier_many(p, Samuelson(lam), UNI, DP, strikes, T)
    d1, d2 = samuelson_d1_d2(lam * (DP.tau2 - DP.tau1))
    decay = np.exp(-lam * (DP.tau1 - T))
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(
        results[0].diagnostics["nodes_per_panel"])
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


@pytest.mark.parametrize("vol", [SAM, Samuelson(1.0), DeliverySeasonal(1.0, 0.4, 0.0),
                                 TradingSeasonal(0.6, 0.7, 0.2)])
def test_both_transforms_share_one_truncation_point(vol):
    p = _params(theta=vol.theta) if isinstance(vol, TradingSeasonal) else _params()
    diagnostics = price_fourier_many(p, vol, UNI, DP, [24.0, 30.0, 36.0], T)[0].diagnostics
    assert diagnostics["panels_k1"] == diagnostics["panels_k2"]
    assert diagnostics["phi_used_k1"] == diagnostics["phi_used_k2"]


@pytest.mark.parametrize("ceiling", [1.0, 4.0, 40.0])
def test_truncation_failure_is_raised_once_before_any_strike(monkeypatch, ceiling):
    # below a ceiling of 2 no panel fits, and no block is solved
    priced = []
    monkeypatch.setattr(pricer, "_finalize_prob",
                        lambda raw, k, diagnostics: priced.append(k) or raw)
    monkeypatch.setattr(pricer, "_PHI_HARD_CAP", ceiling)
    with pytest.raises(TruncationError) as info:
        price_fourier_many(_params(), SAM, UNI, DP, [24.0, 30.0, 36.0], T)
    assert priced == []
    assert np.isfinite(info.value.partial)
    assert info.value.envelope > 1e-12
    if ceiling < 2.0:
        assert info.value.partial == 0.5
        assert info.value.envelope == np.inf
    # with no strike there is no price to fail
    assert price_fourier_many(_params(), SAM, UNI, DP, [], T) == []


def _per_panel_exercise_probs(p, vol, strikes, t, nu, w=UNI, n_nodes=32, panels=None,
                              exercise=T):
    """(1 - Q_k in row k - 1, panels) on width-2 panels of ``n_nodes``
    Gauss-Legendre nodes, with one Riccati solve per k: on the first
    ``panels`` panels at once or, if None, panel by panel until two panels
    in a row on which max |Q_hat_k| / phi < 1e-12 for both k.  The solves
    are not told nu, so they control every node to the full tolerance."""
    rcs = [RiccatiCoefficients.for_model(p, vol, w, DP, k) for k in (1, 2)]
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(n_nodes)
    count = 1 if panels is None else panels
    totals = np.zeros((2, len(strikes)))
    done, below = 0, 0
    while (below < 2) if panels is None else (done < panels):
        nodes = (2.0 * (done + np.arange(count))[:, None] + 1.0 + gl_nodes).ravel()
        qhat = [char_fn(solve_riccati(rc, t, exercise, nodes), np.log(p.f0), nu)
                for rc in rcs]
        turns = np.exp(-1j * np.outer(np.log(strikes), nodes))
        for k, q in enumerate(qhat):
            totals[k] += np.real(turns * (q / (1j * nodes))) @ np.tile(gl_weights, count)
        both = all(np.max(np.abs(q) / nodes) < 1e-12 for q in qhat)
        below = below + 1 if both else 0
        done += count
    return 0.5 + totals / np.pi, done


@pytest.mark.parametrize("vol", [DeliverySeasonal(1.0, 0.4, 0.0),
                                 TradingSeasonal(0.6, 0.7, 0.2), SAM])
def test_block_solves_match_per_panel_solves(vol):
    # the pricer's block solves weight each node's error by |Q_hat| at the
    # state's nu; at the initial state, mid-life at a low variance, and at
    # nu = 0 (Psi1 unseen) they must match solves that weight nothing
    p = _params(theta=vol.theta) if isinstance(vol, TradingSeasonal) else _params()
    strikes = [26.0, 30.0, 34.0]
    for t, nu in ((0.0, p.nu0), (0.25, 0.3), (0.0, 0.0)):
        results = price_fourier_many(p, vol, UNI, DP, strikes, T, t=t, nu=nu)
        probs, panels = _per_panel_exercise_probs(p, vol, strikes, t, nu)
        for k in (1, 2):
            assert results[0].diagnostics[f"panels_k{k}"] == panels
            got = [getattr(r, f"q{k}") for r in results]
            np.testing.assert_allclose(got, probs[k - 1], rtol=0.0, atol=1e-10)


def test_feller_set_prices_by_default():
    # sigma_vv^2 = 2.25 > 2 kappa theta = 0.9: the integrand decays slowly,
    # to phi = 640 at 8 nodes per panel
    p = _params(kappa=1.5, theta=0.3, sigma_vv=1.5, rho=-0.5, nu0=0.3)
    strikes = [30.0, 36.0, 42.0]
    with pytest.warns(ConditionWarning):
        results = price_fourier_many(p, SAM, UNI, DP, strikes, T)
    panels = results[0].diagnostics["panels_k1"]
    assert panels == 320
    probs, _ = _per_panel_exercise_probs(p, SAM, strikes, 0.0, p.nu0, panels=panels)
    for k in (1, 2):
        got = [getattr(r, f"q{k}") for r in results]
        np.testing.assert_allclose(got, probs[k - 1], rtol=0.0, atol=1e-10)


# log-moneyness m = ln(f0 / K) of each strike set: near the money, where
# the variance to exercise decides between 8 and 32 nodes per panel, at the
# edge |m| = 1, and deep, where 32 always serve
MONEYNESS_SETS = ([-0.5, -0.25, 0.0, 0.25, 0.5], [-1.0, 1.0], [-14.0, -4.0, 4.0, 14.0])


@pytest.mark.parametrize("vol, w, near_nu0, near_nu9", [
    (SAM, UNI, 8, 8), (Samuelson(1.0), UNI, 8, 32),
    (DeliverySeasonal(1.0, 0.4, 0.0), UNI, 32, 32),
    (DeliverySeasonal(1.0, 0.4, 0.0), ExponentialWeight(1.0), 32, 32),
    (TradingSeasonal(0.6, 0.7, 0.2), UNI, 32, 32),
    (GeneralSeparable(lambda t, u: np.exp(-3.5 * (np.asarray(u, float) - t)), bound_r=1.0),
     UNI, 8, 8),
])
def test_node_rule_holds_across_log_moneyness(vol, w, near_nu0, near_nu9):
    # each strike set is priced with the nodes per panel the rule picks; its
    # probabilities must match 48 nodes per panel on the same truncation at
    # the initial state, mid-life at a low variance, at nu = 0, at the high
    # variances nu = 4 and 9, and at a later exercise
    p = _params(theta=vol.theta) if isinstance(vol, TradingSeasonal) else _params()
    chosen = {}
    for t, nu, exercise in ((0.0, p.nu0, T), (0.25, 0.3, T), (0.0, 0.0, T),
                            (0.0, 4.0, T), (0.0, 9.0, T), (0.0, p.nu0, 0.74)):
        for i, moneyness in enumerate(MONEYNESS_SETS):
            strikes = p.f0 * np.exp(-np.array(moneyness))
            results = price_fourier_many(p, vol, w, DP, strikes, exercise, t=t, nu=nu)
            diagnostics = results[0].diagnostics
            chosen[t, nu, exercise, i] = diagnostics["nodes_per_panel"]
            ref, _ = _per_panel_exercise_probs(p, vol, strikes, t, nu, w, n_nodes=48,
                                               panels=diagnostics["panels_k1"],
                                               exercise=exercise)
            for k in (1, 2):
                got = [getattr(r, f"q{k}") for r in results]
                np.testing.assert_allclose(got, np.clip(ref[k - 1], 0.0, 1.0),
                                           rtol=0.0, atol=1e-10)
    # 8 nodes only within |m| < 1, where the variance to exercise leaves
    # room: |m| = 0.5 with the initial variance takes 8 under a decay of 1
    # or more, 32 where the variance does not decay, and nu = 9 takes 32
    # unless a decay of 3.5 damps it
    assert set(chosen.values()) <= {8, 32}
    assert all(n == 32 for (*_, i), n in chosen.items() if i > 0)
    assert (chosen[0.0, p.nu0, T, 0], chosen[0.0, 9.0, T, 0]) == (near_nu0, near_nu9)


def test_novikov_warning_points_at_the_caller(monkeypatch):
    # kappa = 0.1 fails 8 kappa^2 > sigma_vv^2 / (lam delta)^2; a tiny
    # ceiling stops the Fourier pricing right after the check.  It fails
    # Feller too (2 kappa theta = 0.12 <= 0.16), which only the simulator checks.
    p = _params(kappa=0.1)
    opt = OptionSpec(strike=30.0, exercise=T)
    g = GridSpec(t0=0.0, t_end=T, n_steps=4, n_paths=10, seed=1)
    feller = "Feller condition fails (0.12 <= 0.16); the variance process may hit zero"
    novikov = ("Novikov condition fails (0.08 <= 1.88082); "
               "the measure change is not guaranteed")
    monkeypatch.setattr(pricer, "_PHI_HARD_CAP", 4.0)
    for price in (
        lambda: price_fourier(p, SAM, UNI, DP, opt),
        lambda: price_fourier_many(p, SAM, UNI, DP, [30.0], T),
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


def test_bench_ladder_holds_its_prices_at_a_loose_tolerance():
    # the benchmark's Samuelson ladder: at ode_tol 1e-6 the 8th-order step
    # keeps every call within 1e-9 of an ode_tol 1e-12 solve (1.5e-10; a
    # Dormand-Prince 5(4) step lands 5.7e-9 off), and at the default
    # tolerance the whole pass, two solves on 8-node panels, costs at most
    # 320 right-hand sides (299; 423 with three 16-panel blocks of 32-node
    # panels), a count that repeats exactly from run to run
    strikes = [24.0, 27.0, 30.0, 33.0, 36.0]
    loose, default, tight = (price_fourier_many(_params(), SAM, UNI, DP, strikes, T,
                                                **tol)
                             for tol in ({"ode_tol": 1e-6}, {}, {"ode_tol": 1e-12}))
    for a, b in zip(loose, tight):
        assert abs(a.call - b.call) <= 1e-9
    assert default[0].diagnostics["riccati_rhs"] <= 320


def test_non_finite_ode_tol_is_refused():
    with pytest.raises(charfn.RiccatiError, match="abs_tol must be finite"):
        price_fourier_many(_params(), SAM, UNI, DP, [30.0], T, ode_tol=np.inf)


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


def test_fourier_path_loads_no_scipy_until_mc():
    # scipy.special alone costs about 0.3 s and 23 MB at import; only the
    # Monte-Carlo and Black-76 prices need it, and they still price after
    # a Fourier price and the CLI have run in the same process
    code = ("import contextlib, io, sys, powerswap\n"
            "from powerswap import cli\n"
            "from powerswap.models import *\n"
            "from powerswap.simulate import GridSpec\n"
            "p = HestonParams(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6,"
            " f0=30.0, r=0.01)\n"
            "args = (p, Samuelson(3.5), UniformWeight(), DeliveryPeriod(0.75, 5 / 6))\n"
            "powerswap.price_fourier_many(*args, [24.0, 30.0, 36.0], 0.5, ode_tol=1e-6)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['price', '--method', 'fourier']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
            "res = powerswap.price_mc(*args, OptionSpec(30.0, 0.5),"
            " GridSpec(0.0, 0.5, 20, 2000, seed=3))\n"
            "print(res.call > 0 and res.stderr > 0)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "True"]


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


def test_mc_without_strikes_simulates_nothing(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated paths for no strike")

    monkeypatch.setattr(pricer, "simulate_variance_integrals", no_simulation)
    p = _params()
    g = GridSpec(t0=0.0, t_end=T, n_steps=1000, n_paths=32768, seed=1)
    assert price_mc_many(p, SAM, UNI, DP, [], T, g) == []
    # the input checks still hold without a strike
    with pytest.raises(ValueError, match="must precede the delivery start"):
        price_mc_many(p, SAM, UNI, DP, [], 0.75, g)
    with pytest.raises(ValueError, match="grid must end at the exercise"):
        price_mc_many(p, SAM, UNI, DP, [], 0.4, g)


def test_mc_rejects_exercise_at_delivery_start(monkeypatch):
    # the paper needs T < tau1; the Fourier engine rejects T = tau1 with the
    # same message, and the MC engine must do so before simulating
    runs = []
    monkeypatch.setattr(pricer, "simulate_variance_integrals",
                        lambda *args, **kwargs: runs.append(1))
    p = _params()
    g = GridSpec(t0=0.0, t_end=0.75, n_steps=20, n_paths=100, seed=1)
    message = "exercise 0.75 must precede the delivery start 0.75"
    with pytest.raises(ValueError, match=f"^{message}$"):
        price_mc_many(p, SAM, UNI, DP, [30.0], 0.75, g)
    with pytest.raises(ValueError, match=f"^{message}$"):
        price_mc(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=0.75), g)
    with pytest.raises(ValueError, match=f"^{message}$"):
        price_fourier_many(p, SAM, UNI, DP, [30.0], 0.75)
    assert runs == []


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
    # both estimators run on the same variance paths: the conditional one
    # averages out only the part of the payoff that Z, the dW_F noise
    # independent of dW_sigma, adds
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


def test_mc_control_variates_match_fourier_and_cut_stderr():
    # the mc_ladder benchmark grid; the controls J and I - E[I] must leave
    # the estimate unbiased and cut the ATM variance well beyond 4x
    p = _params()
    strikes = [27.0, 30.0, 33.0]
    g = GridSpec(t0=0.0, t_end=T, n_steps=1000, n_paths=32768, seed=1)
    mc = price_mc_many(p, SAM, UNI, DP, strikes, T, g, workers=2)
    for fr, res in zip(price_fourier_many(p, SAM, UNI, DP, strikes, T), mc):
        assert res.diagnostics["controls"] == ["J", "I"]
        assert abs(res.call - fr.call) <= 4.0 * res.stderr
    atm = mc[1]
    assert atm.stderr <= atm.diagnostics["raw_stderr"] / 4.0


def test_mc_few_paths_fall_back_to_the_plain_mean():
    # an intercept and two controls leave no residual degree of freedom at
    # 3 paths, so up to 3 paths the pricer averages without controls
    opt = OptionSpec(strike=30.0, exercise=T)
    for n_paths, controls in ((1, []), (2, []), (3, []), (4, ["J", "I"])):
        g = GridSpec(t0=0.0, t_end=T, n_steps=20, n_paths=n_paths, seed=4)
        res = price_mc(_params(), SAM, UNI, DP, opt, g)
        assert res.diagnostics["controls"] == controls
        assert res.diagnostics["estimator"] == "conditional"
        if n_paths == 1:
            assert res.stderr is None and res.diagnostics["raw_stderr"] is None
        elif not controls:
            assert res.stderr == res.diagnostics["raw_stderr"] > 0
        else:
            assert res.stderr > 0 and res.diagnostics["raw_stderr"] > 0


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
