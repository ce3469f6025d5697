import ast
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from powerswap import averaging, charfn, models, pricer, simulate
from powerswap.averaging import decompose
from powerswap.charfn import RiccatiCoefficients, RiccatiError, char_fn, solve_riccati
from powerswap.conditions import ConditionWarning, full_report
from powerswap.models import (
    CustomWeight,
    DeliveryPeriod,
    DeliverySeasonal,
    ExponentialWeight,
    GeneralSeparable,
    HestonParams,
    OptionSpec,
    Samuelson,
    TradingSeasonal,
    UniformWeight,
    integrate_over_delivery,
    weight_density,
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
    _ndtr_pair,
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
# the benchmark's delivery-seasonal model, which takes the closed form
DS, EXP = DeliverySeasonal(1.0, 0.4, 0.0), ExponentialWeight(1.0)


def _params(**over):
    base = dict(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6, f0=30.0, r=0.01)
    base.update(over)
    return HestonParams(**base)


def _ode_params(**over):
    """``_params`` with theta = 0.6 given as a function of time: the same
    system, which no closed form takes, so its Samuelson ladder keeps a
    DOP853 solve."""
    return _params(theta=lambda t: 0.6, **over)


# ---------------------------------------------------------------------------
# lognormal oracle


@pytest.mark.parametrize("args, message", [
    ((0.0, 30.0, 0.1), "f and k must be finite and > 0, got f=0.0, k=30.0"),
    ((30.0, -1.0, 0.1), "f and k must be finite and > 0, got f=30.0, k=-1.0"),
    ((30.0, 30.0, -0.1), "total_var must be finite and >= 0, got -0.1"),
    ((30.0, 30.0, 0.1, 0.0), "df must lie in (0, 1], got 0.0"),
    ((30.0, 30.0, 0.1, 1.5), "df must lie in (0, 1], got 1.5"),
    ((30.0, 30.0, np.inf), "total_var must be finite and >= 0, got inf"),
    ((30.0, 30.0, np.nan), "total_var must be finite and >= 0, got nan"),
    ((np.inf, 30.0, 0.1), "f and k must be finite and > 0, got f=inf, k=30.0"),
    ((30.0, np.nan, 0.1), "f and k must be finite and > 0, got f=30.0, k=nan"),
    ((30.0, 30.0, 0.1, np.nan), "df must lie in (0, 1], got nan"),
], ids=["f-zero", "k-negative", "variance-negative", "df-zero", "df-above-one",
        "variance-inf", "variance-nan", "f-inf", "k-nan", "df-nan"])
def test_black76_refusals(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        black76_oracle(*args)


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


def test_ndtr_pair_against_scipy():
    # scipy is imported here only.  Its ndtr takes 1 - erf below |d| = sqrt 2
    # and squares erfc's argument in floating point, so it strays from the
    # exact N by up to about d^2 ulp in the tail, and it underflows to 0 past
    # |d| = 37.7; the pair takes one erfc of the same argument, and returns
    # the subnormal tail there
    from scipy.special import ndtr

    edges = [np.inf, 0.0, 1e-300, 2.0 ** -0.5, 5.0, *np.arange(37.5, 40.01, 0.25)]
    d = np.concatenate([edges, np.negative(edges),
                        np.random.default_rng(0).normal(0.0, 10.0, 4000)])
    n_d, n_minus_d = _ndtr_pair(d)
    tiny = np.finfo(float).tiny
    for got, ref in ((n_d, ndtr(d)), (n_minus_d, ndtr(-d))):
        normal = ref >= tiny
        ulps = np.abs(got - ref)[normal] / np.spacing(ref[normal])
        assert np.all(ulps <= 4.0 * (1.0 + d[normal] ** 2))
        assert np.all(ulps[np.abs(d[normal]) <= 1.0] <= 8.0)
        assert np.all((got[~normal] >= 0.0) & (got[~normal] < tiny))
    assert np.all(np.abs(n_d + n_minus_d - 1.0) <= np.spacing(1.0))
    for got, ref in zip(_ndtr_pair(-d), (n_minus_d, n_d)):
        assert got.tobytes() == ref.tobytes()
    assert [float(x) for x in _ndtr_pair(np.inf)] == [1.0, 0.0]
    assert [float(x) for x in _ndtr_pair(0.0)] == [0.5, 0.5]


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
    # on the same rule a strike prices bit for bit alike alone and in a ladder
    # of any length and order, by DOP853 (Samuelson) and in closed form (the
    # delivery-seasonal bench ladder)
    p = _params()
    ladder = [24.0, 27.0, 30.0, 33.0, 36.0]
    for vol, w, strikes in ((SAM, UNI, [24.0, 30.0]), (DS, EXP, ladder),
                            (SAM, UNI, ladder[::-1]), (DS, EXP, ladder[::-1])):
        many = price_fourier_many(p, vol, w, DP, strikes=strikes, exercise=T)
        for k, r in zip(strikes, many):
            single = price_fourier(p, vol, w, DP, OptionSpec(strike=k, exercise=T))
            assert r.diagnostics["nodes"] == single.diagnostics["nodes"]
            assert (r.call, r.put, r.q1, r.q2) == (single.call, single.put, single.q1,
                                                   single.q2)


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
    # decays slowly, to phi of about 900, 2750 and 8440; the map from (0, 1]
    # knows that before the first solve, and at most one doubling follows
    p = _params(sigma_vv=0.0, rho=0.0, nu0=0.4)
    t = T - gap
    total_var = quad(
        lambda u: swap_vol_factor(SAM, UNI, DP, u) ** 2 * (0.6 - 0.2 * np.exp(-3.0 * (u - t))),
        t, T, epsabs=1e-15, epsrel=1e-13)[0]
    strikes = [29.0, 30.0, 31.0]
    results = price_fourier_many(p, SAM, UNI, DP, strikes, T, t=t)
    for k, res in zip(strikes, results):
        ref_call, ref_put = lognormal_call_put(30.0, k, total_var, np.exp(-0.01 * gap))
        assert res.call == pytest.approx(ref_call, abs=1e-9)
        assert res.put == pytest.approx(ref_put, abs=1e-9)
    assert results[0].diagnostics["riccati_solves"] <= 2


@pytest.mark.parametrize("sigma_vv, rho", [(0.0, 0.0), (0.5, -0.3)])
def test_high_variance_matches_lognormal(sigma_vv, rho):
    # a total variance of 130.8 to exercise: the integrand varies on a scale
    # of about 1 / sqrt(v) = 0.09 near phi = 0 and is gone by phi = 1
    p = _params(kappa=1.0, theta=3.0, nu0=4.0, sigma_vv=sigma_vv, rho=rho)
    vol, dp, strikes = DeliverySeasonal(6.0, 0.4, 0.0), DeliveryPeriod(1.2, 1.3), [6.0, 30.0, 150.0]
    if sigma_vv:
        # 8 kappa^2 = 8 <= sigma_vv^2 / (a delta)^2 = 9: Novikov fails
        with pytest.warns(ConditionWarning, match="Novikov"):
            results = price_fourier_many(p, vol, UNI, dp, strikes, 1.0)
    else:
        results = price_fourier_many(p, vol, UNI, dp, strikes, 1.0)
    for res in results:
        assert 0.0 <= res.q2 <= res.q1 <= 1.0
    if sigma_vv:
        return
    total_var = quad(lambda u: swap_vol_factor(vol, UNI, dp, u) ** 2 * (3.0 + np.exp(-u)),
                     0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    assert total_var == pytest.approx(130.8, abs=0.05)
    for k, res in zip(strikes, results):
        ref_call, ref_put = lognormal_call_put(30.0, k, total_var, np.exp(-0.01))
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


def test_engines_reject_an_infinite_theta_before_any_step(monkeypatch):
    # theta(t) = inf past t = 0.3 < T is refused where the engines first
    # evaluate theta, not left to fail late as a Riccati step size underflow
    # or an overflow of the simulator's state
    def never(*args, **kwargs):
        raise AssertionError("a Riccati solve or a path step ran")

    for module, name in ((pricer, "solve_riccati"), (pricer, "_closed_form"),
                         (simulate, "_nu_steps")):
        monkeypatch.setattr(module, name, never)
    p = _params(theta=lambda t: np.inf if t > 0.3 else 0.6)
    with pytest.raises(ValueError, match="theta"):
        price_fourier_many(p, SAM, UNI, DP, [30.0], T)
    with pytest.raises(ValueError, match="theta"):
        price_mc_many(p, SAM, UNI, DP, [30.0], T, GridSpec(0.0, T, 10, 10, seed=1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_theta_that_is_not_finite_is_refused_before_the_feller_check(bad):
    # the Feller check reads theta's minimum on a grid; a NaN there used to
    # warn "Feller condition fails (nan <= 0.16)" before the engine named theta
    p = _params(theta=lambda t: bad if t > 0.3 else 0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: price_mc_many(p, SAM, UNI, DP, [30.0], T,
                                          GridSpec(0.0, T, 10, 10, seed=1)),
                    lambda: full_report(p, SAM, DP)):
            with pytest.raises(ValueError, match=r"theta\(t\) must be finite"):
                run()


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


def test_repeat_contract_integrates_no_delivery_moments(monkeypatch, cold_moments):
    # the moments depend on the contract alone, so a second price on it with
    # other Heston parameters runs no quadrature, and prices as if cold
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate_over_delivery(*args, **kwargs)

    monkeypatch.setattr(averaging, "integrate_over_delivery", counting)
    monkeypatch.setattr(models, "integrate_over_delivery", counting)
    strikes = [27.0, 33.0]
    price_fourier_many(_params(), DS, EXP, DP, strikes, T)
    assert len(calls) > 0
    calls.clear()
    other = _params(kappa=2.0, rho=-0.5, nu0=0.4)
    warm = price_fourier_many(other, DS, EXP, DP, strikes, T)
    assert calls == []
    cold_moments()
    cold = price_fourier_many(other, DS, EXP, DP, strikes, T)
    assert [r.call for r in warm] == [r.call for r in cold]


def test_unhashable_weight_callable_prices_uncached(cold_moments):
    # numpy's Polynomial defines no hash, so a weight holding one cannot key
    # the decomposition cache; it still prices, as the same polynomial in a
    # lambda
    poly = CustomWeight(np.polynomial.Polynomial([1.0, 0.5]))
    plain = CustomWeight(lambda u: 1.0 + 0.5 * u)
    u = np.linspace(DP.tau1, DP.tau2, 5)
    assert weight_density(poly, DP, u) == pytest.approx(weight_density(plain, DP, u),
                                                        rel=1e-14)
    strikes = [27.0, 33.0]
    for _ in range(2):  # a repeat integrates again rather than failing
        got = price_fourier_many(_params(), DS, poly, DP, strikes, T)
        want = price_fourier_many(_params(), DS, plain, DP, strikes, T)
        assert [r.call for r in got] == pytest.approx([r.call for r in want], rel=1e-12)
    # only the lambda weight's decomposition was kept
    assert averaging._contract_decomposition.cache_info().currsize == 1


def test_fourier_diagnostics_and_truncation(monkeypatch):
    # the bench Samuelson system on its DOP853 solve
    p = _ode_params()
    solves, work = [], []

    def counting_solve(*args, **kwargs):
        solves.append(np.size(args[3]))
        sol = solve_riccati(*args, **kwargs)
        work.append((sol.n_steps, sol.n_rhs))
        return sol

    monkeypatch.setattr(pricer, "solve_riccati", counting_solve)
    res = price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T))
    # one stacked k = 2 solve, (phi, phi - i), on the 127 nodes of a
    # 128-node rule, less the 8 past 1.5 times the decay point, once per
    # pricing call however many strikes it prices
    diagnostics = res.diagnostics
    assert diagnostics["nodes"] == 119
    assert solves == [2 * 119]
    assert diagnostics["riccati_solves"] == 1
    steps, rhs = work[0]
    assert (diagnostics["riccati_steps"], diagnostics["riccati_rhs"]) == (steps, rhs)
    assert 0 < steps and 6 * steps < rhs
    # phi = -ln(u) / C maps the decay point, near phi = 78, to u = e^-3
    assert 3.0 / diagnostics["map_scale"] == pytest.approx(78.0, abs=1.0)
    assert diagnostics["phi_used_k1"] == diagnostics["phi_used_k2"] < 1.5 * 78.0
    assert 0.0 <= diagnostics["quadrature_error"] < 1e-10
    assert diagnostics["novikov_ok"] is True
    for key in ("panels_k1", "panels_k2", "nodes_per_panel"):
        assert key not in diagnostics
    solves.clear()
    ladder = price_fourier_many(p, SAM, UNI, DP, [24.0, 27.0, 30.0, 33.0, 36.0], T)
    assert solves == [2 * 119]
    # a deep strike turns e^{i phi ln(f0 / K)} faster, and the first rule
    # grows with the largest |ln(f0 / K)| priced: 2048 nodes, still one solve
    solves.clear()
    deep = price_fourier_many(p, SAM, UNI, DP, [30.0, 3e7], T)
    assert len(solves) == 1 and 1024 < deep[0].diagnostics["nodes"] < 2048
    # each price carries its own error estimate
    assert deep[0].diagnostics["quadrature_error"] != deep[1].diagnostics["quadrature_error"]
    assert ladder[0].diagnostics["map_scale"] == deep[0].diagnostics["map_scale"]
    # an absurdly low ceiling cuts the integrand short, and the error names
    # it and the envelope once
    monkeypatch.setattr(pricer, "_PHI_HARD_CAP", 4.0)
    with pytest.raises(TruncationError) as exc_info:
        price_fourier(p, SAM, UNI, DP, OptionSpec(strike=30.0, exercise=T))
    assert exc_info.value.envelope > 1e-12
    assert np.isfinite(exc_info.value.partial)
    assert str(exc_info.value) == (
        f"integrand envelope still {exc_info.value.envelope:.3e} at the ceiling "
        f"phi = 4 (partial value {exc_info.value.partial:.10g})")


def test_bench_ladders_take_one_solve():
    # both bench ladders take one evaluation of a closed form, which takes
    # no step at all: Kummer's functions for Samuelson, the classical form
    # for delivery-seasonal.  With theta as a function of time the
    # Samuelson system keeps its DOP853 solve, where FSAL DOP853 costs 12
    # rhs per accepted step and 11 per rejected one; its last step takes the
    # rest of the span, where a sliver of 0.002 after a step of 0.058 would
    # cost one more step
    strikes = [24.0, 27.0, 30.0, 33.0, 36.0]
    for p, vol, w, transform, steps, rejected in (
            (_params(), SAM, UNI, "closed_form", 0, 0),
            (_ode_params(), SAM, UNI, "dop853", 13, 1),
            (_params(), DS, EXP, "closed_form", 0, 0)):
        diagnostics = price_fourier_many(p, vol, w, DP, strikes, T)[0].diagnostics
        assert diagnostics["transform"] == transform
        assert diagnostics["riccati_solves"] == 1
        assert diagnostics["riccati_steps"] == steps
        assert diagnostics["riccati_rhs"] == 12 * steps + 11 * rejected


def test_decay_point_too_small_starts_the_map_again(monkeypatch):
    # a decay point ten times below the integrand's own leaves it large at
    # 1.5 times that point; the map then starts again from four times it,
    # twice here, and prices as before
    p = _params()
    strikes = [24.0, 30.0, 36.0]
    before = price_fourier_many(p, SAM, UNI, DP, strikes, T)
    monkeypatch.setattr(pricer, "_decay_point", lambda *args: 10.0)
    after = price_fourier_many(p, SAM, UNI, DP, strikes, T)
    assert after[0].diagnostics["riccati_solves"] == 3
    assert after[0].diagnostics["map_scale"] == 3.0 / 160.0
    for a, b in zip(before, after):
        assert (a.q1, a.q2) == pytest.approx((b.q1, b.q2), abs=1e-10)


@pytest.mark.parametrize("lam", [3.5, 1.0])
def test_samuelson_prices_match_series_oracle(monkeypatch, lam):
    # the pricer's own nodes and quadrature, with Q_hat from the series
    # solution instead of the Kummer form (lam = 3.5, on all 1910 nodes) or
    # a DOP853 solve (lam = 1, where kappa / lam = 3)
    p = _params()
    strikes = [3e-5, 24.0, 30.0, 36.0, 3e7]
    results = price_fourier_many(p, Samuelson(lam), UNI, DP, strikes, T)
    assert results[0].diagnostics["transform"] == ("closed_form" if lam == 3.5 else "dop853")
    d1, d2 = samuelson_d1_d2(lam * (DP.tau2 - DP.tau1))
    decay = np.exp(-lam * (DP.tau1 - T))

    def series_solve(rc, t, exercise, phi, abs_tol, nu):
        psi0, psi1 = samuelson_psi_series(phi, exercise - t, 2, lam, 3.0, 0.6, 0.4, -0.3,
                                          d1 * decay, d2 * decay)
        return charfn.CharFnSolution(k=2, t=t, T=exercise, phi=phi, psi0=psi0, psi1=psi1,
                                     n_steps=0, n_rhs=0)

    # every chunk goes to the series, including those the Kummer form takes
    _dop853_only(monkeypatch)
    monkeypatch.setattr(pricer, "solve_riccati", series_solve)
    oracle = price_fourier_many(p, Samuelson(lam), UNI, DP, strikes, T)
    assert results[-1].diagnostics["nodes"] == oracle[-1].diagnostics["nodes"] > 900
    for res, ref in zip(results, oracle):
        assert (res.q1, res.q2) == pytest.approx((ref.q1, ref.q2), abs=1e-12)
        assert res.call == pytest.approx(ref.call, abs=1e-9)


def test_wide_strikes_at_tiny_variance_fail_after_one_solve(monkeypatch):
    # 1e-8 before exercise the integrand still reads about 1e-4 at the
    # ceiling, and strikes 3e-5 and 3e7 lay thousands of nodes below it; the
    # chunk that holds the largest of them is solved first and fails alone
    solves = []
    monkeypatch.setattr(pricer, "solve_riccati",
                        lambda rc, t, T, phi, **kw: solves.append(phi)
                        or solve_riccati(rc, t, T, phi, **kw))
    with pytest.raises(TruncationError, match="at the ceiling phi = 10000 ") as info:
        price_fourier_many(_params(), SAM, UNI, DP, [3e-5, 30.0, 3e7], T, t=T - 1e-8)
    assert len(solves) == 1
    # the top chunk of the partition: nodes just below the ceiling only
    assert solves[0].size <= 2 * pricer._SOLVE_NODES
    assert 0.9 * charfn._PHI_HARD_CAP < solves[0].real.min()
    assert solves[0].real.max() <= charfn._PHI_HARD_CAP
    assert info.value.envelope > 1e-12
    assert np.isfinite(info.value.partial)


@pytest.mark.parametrize("vol", [SAM, Samuelson(1.0), DeliverySeasonal(1.0, 0.4, 0.0),
                                 TradingSeasonal(0.6, 0.7, 0.2)])
def test_both_transforms_share_one_truncation_point(vol):
    # one stacked solve on (phi, phi - i) gives both transforms on the same
    # nodes, so they share the largest node
    p = _params(theta=vol.theta) if isinstance(vol, TradingSeasonal) else _params()
    diagnostics = price_fourier_many(p, vol, UNI, DP, [24.0, 30.0, 36.0], T)[0].diagnostics
    assert diagnostics["phi_used_k1"] == diagnostics["phi_used_k2"]
    assert diagnostics["riccati_solves"] == 1


@pytest.mark.parametrize("ceiling", [1.0, 4.0, 40.0])
def test_truncation_failure_is_raised_once_before_any_strike(monkeypatch, ceiling):
    # the map never reaches past the ceiling, so the first rule keeps nodes
    # below even a ceiling of 1, and one solve (in closed form here) reads
    # the envelope there
    priced, solves = [], []
    monkeypatch.setattr(pricer, "_finalize_prob",
                        lambda raw, k, diagnostics: priced.append(k) or raw)
    solve_nodes = pricer._solve_nodes
    monkeypatch.setattr(pricer, "_solve_nodes",
                        lambda *args: solves.append(1) or solve_nodes(*args))
    monkeypatch.setattr(pricer, "_PHI_HARD_CAP", ceiling)
    with pytest.raises(TruncationError) as info:
        price_fourier_many(_params(), SAM, UNI, DP, [24.0, 30.0, 36.0], T)
    assert priced == []
    assert np.isfinite(info.value.partial)
    assert 1e-12 < info.value.envelope < np.inf
    assert len(solves) == 1
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
    # the pricer's stacked solve of all its nodes weights each node's error
    # by |Q_hat| at the state's nu; at the initial state, mid-life at a low
    # variance, and at nu = 0 (Psi1 unseen) it must match per-k solves on
    # width-2 panels that weight nothing
    p = _params(theta=vol.theta) if isinstance(vol, TradingSeasonal) else _params()
    strikes = [26.0, 30.0, 34.0]
    for t, nu in ((0.0, p.nu0), (0.25, 0.3), (0.0, 0.0)):
        results = price_fourier_many(p, vol, UNI, DP, strikes, T, t=t, nu=nu)
        probs, _ = _per_panel_exercise_probs(p, vol, strikes, t, nu)
        for k in (1, 2):
            got = [getattr(r, f"q{k}") for r in results]
            np.testing.assert_allclose(got, probs[k - 1], rtol=0.0, atol=1e-10)


def test_feller_set_prices_by_default():
    # sigma_vv^2 = 2.25 > 2 kappa theta = 0.9: the integrand decays slowly,
    # as e^{-0.033 phi}; the reference takes 320 panels, to phi = 640, where
    # max |Q_hat_k| / phi is below 1e-12
    p = _params(kappa=1.5, theta=0.3, sigma_vv=1.5, rho=-0.5, nu0=0.3)
    strikes = [30.0, 36.0, 42.0]
    with pytest.warns(ConditionWarning):
        results = price_fourier_many(p, SAM, UNI, DP, strikes, T)
    assert results[0].diagnostics["riccati_solves"] == 1
    probs, _ = _per_panel_exercise_probs(p, SAM, strikes, 0.0, p.nu0, panels=320)
    for k in (1, 2):
        got = [getattr(r, f"q{k}") for r in results]
        np.testing.assert_allclose(got, probs[k - 1], rtol=0.0, atol=1e-10)


def test_feller_set_at_high_variance_holds_the_ode_tolerance():
    # exercise 2.9 before delivery at 3.0, from nu = 9: the one solve takes
    # its step size from its highest nodes, so the default ode_tol leaves
    # the probabilities within 1e-11 of a 1e-13 solve (blocks of panels
    # solved apart left 3.3e-10)
    p = _params(kappa=1.5, theta=0.3, sigma_vv=1.5, rho=-0.5, nu0=0.3)
    dp, strikes = DeliveryPeriod(3.0, 3.0 + 1.0 / 12.0), [24.0, 30.0, 36.0, 42.0]
    with pytest.warns(ConditionWarning):
        default, tight = (price_fourier_many(p, SAM, UNI, dp, strikes, 2.9, nu=9.0, **tol)
                          for tol in ({}, {"ode_tol": 1e-13}))
    for a, b in zip(default, tight):
        assert (a.q1, a.q2) == pytest.approx((b.q1, b.q2), abs=1e-11)


def _largest_rule(monkeypatch, price):
    """(results of price(), node count n of the largest Fejer rule it used)."""
    sizes = []
    fejer2 = pricer._fejer2
    monkeypatch.setattr(pricer, "_fejer2", lambda n: sizes.append(n) or fejer2(n))
    results = price()
    monkeypatch.setattr(pricer, "_fejer2", fejer2)
    return results, max(sizes)


@pytest.mark.parametrize("args", [
    (_params(), SAM, UNI, DP, [24.0, 27.0, 30.0, 33.0, 36.0], T, {}),
    (_params(), DeliverySeasonal(1.0, 0.4, 0.0), ExponentialWeight(1.0), DP,
     [24.0, 27.0, 30.0, 33.0, 36.0], T, {}),
    (_params(kappa=1.5, theta=0.3, sigma_vv=1.5, rho=-0.5, nu0=0.3), SAM, UNI, DP,
     [30.0, 36.0, 42.0], T, {}),
    (_params(), SAM, UNI, DP, [3e-5, 30.0, 3e7], T, {}),
    (_params(), SAM, UNI, DP, [29.0, 30.0, 31.0], T, {"t": T - 1e-3}),
    (_params(kappa=1.0, theta=3.0, nu0=4.0, sigma_vv=0.0, rho=0.0),
     DeliverySeasonal(6.0, 0.4, 0.0), UNI, DeliveryPeriod(1.2, 1.3), [6.0, 30.0, 150.0],
     1.0, {}),
    (_params(theta=TradingSeasonal(0.6, 0.7, 0.2).theta), TradingSeasonal(0.6, 0.7, 0.2), UNI,
     DP, [30.0 * np.exp(-m) for m in (-1.0, 0.0, 1.0)], T, {"nu": 9.0}),
    (_params(), Samuelson(1.0), UNI, DP, [30.0 * np.exp(-m) for m in (-4.0, 0.5, 4.0)], 0.74,
     {}),
], ids=["bench", "quadrature", "feller", "deep", "near-exercise", "high-variance",
        "trading-seasonal-nu-9", "late-exercise"])
def test_quadrature_error_covers_the_doubled_rule(monkeypatch, args):
    # the nested estimate |F_n - F_{n/2}| must bound the distance to the
    # rule of 2n nodes, up to 1e-14 for rounding and for the different step
    # sequences of the two solves
    p, vol, w, dp, strikes, exercise, kwargs = args
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        results, n = _largest_rule(monkeypatch, lambda: price_fourier_many(
            p, vol, w, dp, strikes, exercise, **kwargs))
        monkeypatch.setattr(pricer, "_MIN_NODES", 2 * n)
        doubled, n2 = _largest_rule(monkeypatch, lambda: price_fourier_many(
            p, vol, w, dp, strikes, exercise, **kwargs))
    assert n2 == 2 * n
    for res, ref in zip(results, doubled):
        error = res.diagnostics["quadrature_error"]
        assert error <= 1e-10
        assert max(abs(res.q1 - ref.q1), abs(res.q2 - ref.q2)) <= error + 1e-14


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
        (dict(opt=opt, t=-0.1), "valuation time -0.1 must not be negative"),
    ]:
        with pytest.raises(ValueError) as info:
            price_fourier(p, SAM, UNI, DP, **kwargs)
        assert type(info.value) is ValueError
        assert str(info.value) == message
    assert solves == []
    # the closed form's core, which does not check t, never sees it either
    with pytest.raises(ValueError, match="must not be negative"):
        price_fourier(p, DS, EXP, DP, opt, t=-0.1)


# ---------------------------------------------------------------------------
# the closed-form transforms: constant coefficients, and Samuelson by Kummer


def _dop853_only(monkeypatch):
    """Price every model by DOP853 solves, as if none had a closed form."""
    for_model = RiccatiCoefficients.for_model
    monkeypatch.setattr(RiccatiCoefficients, "for_model",
                        lambda *args: replace(for_model(*args), closed_form=False))


def _outcome(case, **kwargs):
    """(calls, transform, (q1, q2)) of one Fourier ladder, or the type of its
    failure."""
    p, vol, w, dp, strikes, exercise, state = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        try:
            results = price_fourier_many(p, vol, w, dp, strikes, exercise, **state,
                                         **kwargs)
        except (PricingError, RiccatiError) as exc:
            return type(exc)
    return (np.array([r.call for r in results]), results[0].diagnostics["transform"],
            np.array([[r.q1, r.q2] for r in results]).T)


def _assert_no_arbitrage(case, outcome):
    """The Fourier no-arbitrage invariants on one priced ladder, its strikes
    ascending: calls decreasing and convex in K, q1 >= q2, and
    df (f0 - K)+ <= call <= df f0 as the pricer forms them.  Over the two
    60-ladder sweeps below the worst margins were +6.6e-15 df f0 in the steps
    of the calls, none in their slopes, and -2.8e-12 in q1 - q2 (a deep
    in-the-money strike, both 1 to within it, solved by DOP853).  The slacks
    are 1e-12 of df f0 and of df, and for q1 - q2 the 1e-10 to which the
    quadrature holds each probability."""
    p, vol, w, dp, strikes, exercise, state = case
    calls, _, (q1, q2) = outcome
    df = float(np.exp(-p.r * (exercise - state.get("t", 0.0))))
    fwd = float(np.exp(np.log(p.f0)))
    assert np.all(np.diff(calls) <= 1e-12 * df * fwd), case
    assert np.all(np.diff(np.diff(calls) / np.diff(strikes)) >= -1e-12 * df), case
    assert np.all(q1 >= q2 - 1e-10), case
    assert np.all(calls >= np.maximum(df * (fwd - np.asarray(strikes)), 0.0)), case
    assert np.all(calls <= df * fwd), case


def _assert_both_paths_agree(monkeypatch, cases):
    """Each case ends the same way as by an ode_tol 1e-13 DOP853 solve, with
    calls within 1e-10, and a priced ladder keeps the no-arbitrage
    invariants; returns the transform that priced each priced case."""
    fast = [_outcome(case) for case in cases]
    with monkeypatch.context() as m:
        _dop853_only(m)
        slow = [_outcome(case, ode_tol=1e-13) for case in cases]
    transforms = []
    for case, got, ref in zip(cases, fast, slow):
        if isinstance(ref, type):
            assert got is ref, case
        else:
            assert not isinstance(got, type), (case, got)
            assert ref[1] == "dop853"
            assert np.max(np.abs(got[0] - ref[0])) <= 1e-10, case
            _assert_no_arbitrage(case, got)
            transforms.append(got[1])
    return transforms


def _sweep_cases(n, seed, shape=DeliverySeasonal):
    """n ladders over the regime-sweep ranges of ROADMAP.md: delivery-seasonal,
    Samuelson (lam from 0.01 to 30) or trading-seasonal shapes, the last with
    theta(t) = vol.theta (alpha from 0.001 to 3, beta from 0.01 to 2, gamma
    uniform), log-uniform draws of the shape and Heston parameters, delivery
    start and length, uniform or exponential weights with rates of either
    sign, exercise in (0.05, 0.999) tau1, half of them valued at a t0 > 0,
    and four strikes from 0.2 to 5 f0."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    cases = []
    for _ in range(n):
        if shape is Samuelson:
            vol = Samuelson(log_uniform(0.01, 30.0))
        elif shape is TradingSeasonal:
            vol = TradingSeasonal(log_uniform(0.001, 3.0), log_uniform(0.01, 2.0),
                                  float(rng.uniform()))
        else:
            b = log_uniform(0.01, 3.0)
            vol = DeliverySeasonal(a=b + log_uniform(0.01, 3.0), b=b, c=float(rng.uniform()))
        p = HestonParams(kappa=log_uniform(0.05, 30.0),
                         theta=vol.theta if shape is TradingSeasonal else log_uniform(0.001, 3.0),
                         sigma_vv=log_uniform(0.01, 3.0), rho=float(rng.uniform(-0.99, 0.99)),
                         nu0=log_uniform(0.001, 4.0), f0=log_uniform(1.0, 300.0),
                         r=float(rng.uniform(0.0, 0.1)))
        tau1 = log_uniform(0.05, 5.0)
        dp = DeliveryPeriod(tau1, tau1 + log_uniform(1.0 / 365.0, 1.0))
        w = (UniformWeight() if rng.uniform() < 0.5
             else ExponentialWeight(float(rng.choice([-1.0, 1.0])) * log_uniform(1e-3, 1e3)))
        exercise = float(rng.uniform(0.05, 0.999)) * tau1
        t = 0.0 if rng.uniform() < 0.5 else float(rng.uniform()) * exercise
        cases.append((p, vol, w, dp, p.f0 * np.geomspace(0.2, 5.0, 4), exercise, {"t": t}))
    return cases


@pytest.mark.slow
def test_closed_form_agrees_with_dop853_over_the_regime_sweep(monkeypatch):
    # the few that fail are ladders of tiny total variance, where both paths
    # raise TruncationError
    transforms = _assert_both_paths_agree(monkeypatch, _sweep_cases(60, seed=2007))
    assert len(transforms) >= 50 and set(transforms) == {"closed_form"}


# 60 Samuelson ladders of the sweep.  51 price: 7 in closed form on every
# chunk and 3 on some; 30 take DOP853 as every chunk passes the bound on
# |zeta|, 10 as kappa / lam lies within 0.05 of an integer and 1 on the gain
# bound of Psi0's log form.  9 raise TruncationError both ways
SAMUELSON_SWEEP = _sweep_cases(60, seed=2007, shape=Samuelson)


def test_samuelson_closed_form_agrees_with_dop853_on_a_sweep_sample(monkeypatch):
    # ten of the Samuelson sweep for the quick loop, three in closed form
    transforms = _assert_both_paths_agree(monkeypatch, SAMUELSON_SWEEP[13:23])
    assert len(transforms) == 9 and transforms.count("closed_form") == 3


@pytest.mark.slow
def test_samuelson_closed_form_agrees_with_dop853_over_the_regime_sweep(monkeypatch):
    transforms = _assert_both_paths_agree(monkeypatch, SAMUELSON_SWEEP)
    assert len(transforms) >= 50 and transforms.count("closed_form") >= 7


# 60 trading-seasonal ladders of the sweep, with theta(t) = vol.theta, which
# no closed form takes: both sides are DOP853 solves, at the default ode_tol
# and at 1e-13.  59 price, with a worst call gap of 8.6e-11; one raises
# TruncationError both ways
THETA_SWEEP = _sweep_cases(60, seed=2007, shape=TradingSeasonal)


def test_theta_of_t_prices_agree_with_a_tight_solve_on_a_sweep_sample(monkeypatch):
    transforms = _assert_both_paths_agree(monkeypatch, THETA_SWEEP[:10])
    assert transforms == ["dop853"] * 10


@pytest.mark.slow
def test_theta_of_t_prices_agree_with_a_tight_solve_over_the_regime_sweep(monkeypatch):
    transforms = _assert_both_paths_agree(monkeypatch, THETA_SWEEP)
    assert transforms == ["dop853"] * 59


def test_richardson_strike_derivative_is_the_exercise_probability_over_the_sweeps():
    # dC/dK = -df q2.  Strikes f0 + j h, j = -2..2, h = 1e-5 f0, priced as one
    # ladder; Richardson's (4 D(h) - D(2h)) / 3 of the central differences
    # D cancels their h^2 term, which on sharp densities alone misses by up to
    # 5.1e-7.  The worst errors were 9.3e-11 (delivery-seasonal), 8.7e-11
    # (Samuelson) and 2.4e-11 (theta(t)); the other ladders raise
    # TruncationError, the tiny-variance ones of ROADMAP item 5
    priced = []
    for cases in (_sweep_cases(60, seed=2007), SAMUELSON_SWEEP, THETA_SWEEP):
        priced.append(0)
        for p, vol, w, dp, _, exercise, state in cases:
            h = 1e-5 * p.f0
            case = (p, vol, w, dp, p.f0 + h * np.arange(-2.0, 3.0), exercise, state)
            outcome = _outcome(case)
            if outcome is TruncationError:
                continue
            calls, _, (_, q2) = outcome
            df = float(np.exp(-p.r * (exercise - state.get("t", 0.0))))
            d_h = (calls[3] - calls[1]) / (2.0 * h)
            d_2h = (calls[4] - calls[0]) / (4.0 * h)
            assert abs((4.0 * d_h - d_2h) / 3.0 + df * q2[2]) <= 5e-10, case
            priced[-1] += 1
    assert priced == [56, 51, 59]


def test_pricer_nodes_pass_the_closed_form_checks(monkeypatch):
    # the pricer calls the closed form's unchecked core; routed through the
    # checked entry, every node batch it passes is accepted, or refused as
    # outside the Samuelson form's bounds exactly where the core returns
    # None, and the prices are the same bits
    cases = [(_params(), DS, EXP, DP, [24.0, 27.0, 30.0, 33.0, 36.0], T, {}),
             (_params(), DS, EXP, DP, [3e-5, 30.0, 3e7], T, {}),
             *_sweep_cases(60, seed=2007),
             (_params(), SAM, UNI, DP, [24.0, 27.0, 30.0, 33.0, 36.0], T, {}),
             (_params(), SAM, UNI, DP, [3e-5, 30.0, 3e7], T, {}),
             *SAMUELSON_SWEEP[13:23]]
    unchecked = [_outcome(case) for case in cases]
    batches, refused = [], []

    def checked(rc, t, T, phi):
        try:
            sol = charfn.solve_riccati_closed_form(rc, t, T, phi)
        except ValueError as exc:
            assert "outside the region" in str(exc) and rc.lam > 0
            refused.append(phi.size)
            return None
        batches.append(phi.size)
        return sol.psi0, sol.psi1

    monkeypatch.setattr(pricer, "_closed_form", checked)
    for case, before in zip(cases, unchecked):
        after = _outcome(case)
        if isinstance(before, type):
            assert after is before, case
        else:
            assert after[1] == before[1]
            assert before[1] == "closed_form" or isinstance(case[1], Samuelson)
            assert np.array_equal(after[0], before[0]), case
            assert np.array_equal(after[2], before[2]), case
    assert len(batches) >= len(cases) and refused


@pytest.mark.parametrize("case", [
    (_params(sigma_vv=0.01), DS, EXP, DP, [24.0, 30.0, 36.0], T, {}),
    (_params(sigma_vv=3.0), DS, EXP, DP, [24.0, 30.0, 36.0], T, {}),
    (_params(rho=0.99), DS, EXP, DP, [24.0, 30.0, 36.0], T, {}),
    (_params(rho=-0.99), DS, EXP, DP, [24.0, 30.0, 36.0], T, {}),
    (_params(), DS, EXP, DP, [29.9, 30.0, 30.1], T, {"t": T - 1e-4}),
    (_params(), DS, UNI, DeliveryPeriod(5.5, 5.5 + 1.0 / 12.0), [24.0, 30.0, 36.0], 5.0, {}),
    (_params(kappa=30.0, theta=0.001, sigma_vv=3.0, rho=0.99, nu0=4.0), DS, UNI,
     DeliveryPeriod(5.5, 5.5 + 1.0 / 12.0), [3.0, 30.0, 300.0], 5.0, {}),
    (_params(theta=0.01), DS, EXP, DP, [24.0, 30.0, 36.0], T, {"nu": 4.0}),
    (_params(theta=3.0), DS, EXP, DP, [24.0, 30.0, 36.0], T, {"nu": 1e-3}),
    (_params(kappa=1.5, theta=0.3, sigma_vv=1.5, rho=-0.5, nu0=0.3), DS, EXP, DP,
     [30.0, 36.0, 42.0], T, {}),
    (_params(), DS, EXP, DP, [3e-5, 30.0, 3e7], T, {}),
    (_params(), TradingSeasonal(0.6, 0.7, 0.2), UNI, DP, [24.0, 30.0, 36.0], T, {}),
], ids=["sigma-0.01", "sigma-3", "rho+0.99", "rho-0.99", "span-1e-4", "span-5",
        "span-5-sigma-3-rho+0.99", "nu-above-theta", "nu-below-theta", "feller", "deep",
        "trading-seasonal"])
def test_closed_form_agrees_with_dop853_at_the_edges(monkeypatch, case):
    assert _assert_both_paths_agree(monkeypatch, [case]) == ["closed_form"]


def _samuelson_case(lam=3.5, strikes=(24.0, 30.0, 36.0), state=None, **over):
    return (_params(**over), Samuelson(lam), UNI, DP, list(strikes), T, state or {})


@pytest.mark.parametrize("case,transform", [
    (_samuelson_case(kappa=3.5 * 0.97), "dop853"),
    (_samuelson_case(kappa=3.5 * 1.03), "dop853"),
    (_samuelson_case(kappa=3.5 * 1.96), "dop853"),
    (_samuelson_case(kappa=3.5 * 2.04), "dop853"),
    (_samuelson_case(kappa=3.5 * 2.06), "closed_form"),
    (_samuelson_case(kappa=3.5 * 0.01), "dop853"),
    (_samuelson_case(rho=0.99), "closed_form"),
    (_samuelson_case(rho=-0.99), "closed_form"),
    (_samuelson_case(sigma_vv=0.01), "dop853"),
    (_samuelson_case(sigma_vv=3.0), "dop853"),
    (_samuelson_case(strikes=(29.9, 30.0, 30.1), state={"t": T - 1e-4}), "dop853"),
    (_samuelson_case(lam=1.44), "closed_form"),
    (_samuelson_case(lam=1.38), "dop853"),
], ids=["kappa-over-lam-0.97", "kappa-over-lam-1.03", "kappa-over-lam-1.96",
        "kappa-over-lam-2.04", "kappa-over-lam-2.06", "kappa-over-lam-0.01", "rho+0.99",
        "rho-0.99", "sigma-0.01", "sigma-3", "span-1e-4", "zeta-inside", "zeta-outside"])
def test_samuelson_closed_form_agrees_with_dop853_at_the_edges(monkeypatch, case, transform):
    # within 0.05 of an integer kappa / lam the model keeps DOP853, and so
    # does a chunk past the Kummer form's bounds: |zeta| up to 236 at sigma_vv
    # = 3 and 168 at a span of 1e-4, the gain in Psi0's log form at sigma_vv
    # = 0.01.  lam = 1.44 and 1.38 put the largest |zeta| at 7.94 and 8.19,
    # either side of _KUMMER_Z_MAX = 8
    assert _assert_both_paths_agree(monkeypatch, [case]) == [transform]


@pytest.mark.parametrize("lam,low,high", [(1.44, 7.5, 8.0), (1.38, 8.0, 8.5)])
def test_the_zeta_edge_ladders_sit_either_side_of_the_bound(monkeypatch, lam, low, high):
    # |zeta| at T of the bench model's one chunk, from the node batch the
    # pricer hands the closed form: sqrt(c1^2 + 2 sigma^2 c2) / lam with
    # c1 = sigma rho xi - i rho sigma S phi and c2 = (phi^2 / 2 + i phi / 2) S^2
    assert charfn._KUMMER_Z_MAX == 8.0
    seen = []
    closed_form = pricer._closed_form

    def spy(rc, t, T, phi):
        s, xi, sigma = rc.big_s(T), rc.xi(T), rc.sigma_vv
        c1 = sigma * rc.rho * (xi - 1j * s * phi)
        c2 = (0.5 * phi * phi + 0.5j * phi) * s * s
        seen.append(np.max(np.abs(np.sqrt(c1 * c1 + 2.0 * sigma * sigma * c2))) / rc.lam)
        return closed_form(rc, t, T, phi)

    monkeypatch.setattr(pricer, "_closed_form", spy)
    _outcome(_samuelson_case(lam=lam))
    assert len(seen) == 1 and low < seen[0] <= high


def test_an_unsettled_kummer_series_leaves_the_chunk_to_dop853(monkeypatch):
    # with no tail small enough, no series length settles: the bench Samuelson
    # ladder's chunk is then solved by DOP853, as if it had no closed form
    strikes = [24.0, 27.0, 30.0, 33.0, 36.0]
    with monkeypatch.context() as m:
        _dop853_only(m)
        want = price_fourier_many(_params(), SAM, UNI, DP, strikes, T)
    terms = []
    kummer_terms = charfn._kummer_terms
    monkeypatch.setattr(charfn, "_KUMMER_TAIL", 0.0)
    monkeypatch.setattr(charfn, "_kummer_terms",
                        lambda *args: terms.append(kummer_terms(*args)) or terms[-1])
    got = price_fourier_many(_params(), SAM, UNI, DP, strikes, T)
    assert terms == [None]
    assert got[0].diagnostics["transform"] == "dop853"
    for res, ref in zip(got, want):
        assert (res.call, res.put, res.q1, res.q2) == (ref.call, ref.put, ref.q1, ref.q2)
        assert res.diagnostics == ref.diagnostics


@pytest.mark.parametrize("p,vol,w,transform", [
    (_params(), DS, EXP, "closed_form"),
    (_params(), TradingSeasonal(0.6, 0.7, 0.2), UNI, "closed_form"),
    (_params(sigma_vv=0.0), DS, EXP, "dop853"),
    (_params(theta=TradingSeasonal(0.6, 0.7, 0.2).theta), TradingSeasonal(0.6, 0.7, 0.2),
     UNI, "dop853"),
    (_params(), SAM, UNI, "closed_form"),
    (_ode_params(), SAM, UNI, "dop853"),
    (_params(), Samuelson(3.0), UNI, "dop853"),
    (_params(), GeneralSeparable(s=lambda t, u: np.exp(-3.5 * (np.asarray(u) - t)),
                                 bound_r=1.0), UNI, "dop853"),
], ids=["delivery-seasonal", "trading-seasonal", "sigma-0", "theta-of-t", "samuelson",
        "samuelson-theta-of-t", "samuelson-kappa-equals-lam", "general-separable"])
def test_only_constant_coefficients_take_the_closed_form(p, vol, w, transform):
    # S and xi flat, or Samuelson with kappa / lam off the integers, with a
    # constant theta and sigma_vv > 0 take a closed form; theta(t), sigma_vv
    # = 0, kappa = lam and a general separable shape keep DOP853
    assert RiccatiCoefficients.for_model(p, vol, w, DP, 2).closed_form == (
        transform == "closed_form")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConditionWarning)
        diagnostics = price_fourier_many(p, vol, w, DP, [30.0], T)[0].diagnostics
    assert diagnostics["transform"] == transform
    assert diagnostics["riccati_solves"] == 1
    assert (diagnostics["riccati_steps"] > 0) == (transform == "dop853")


def test_a_closed_form_that_is_not_finite_falls_back_to_dop853(monkeypatch):
    strikes = [24.0, 30.0, 36.0]
    with monkeypatch.context() as m:
        _dop853_only(m)
        reference = price_fourier_many(_params(), DS, EXP, DP, strikes, T)
    closed_form = pricer._closed_form

    def one_nan(*args):
        psi0, psi1 = closed_form(*args)
        psi1[0] = np.nan
        return psi0, psi1

    monkeypatch.setattr(pricer, "_closed_form", one_nan)
    assert price_fourier_many(_params(), DS, EXP, DP, strikes, T) == reference
    # a solve that fails keeps its type and the time it reached, as it
    # does on the DOP853 path
    monkeypatch.setattr(charfn, "_MAX_STEPS", 2)
    for patch in (lambda m: None, _dop853_only):
        with monkeypatch.context() as m, pytest.raises(RiccatiError) as info:
            patch(m)
            price_fourier_many(_params(), DS, EXP, DP, strikes, T)
        assert "stopped after 2 steps" in str(info.value)
        assert 0.0 < info.value.t_fail <= T
    # where the closed form is finite, no step is taken
    monkeypatch.setattr(pricer, "_closed_form", closed_form)
    assert price_fourier_many(_params(), DS, EXP, DP, strikes, T)[0].call > 0.0


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
    # the benchmark's Samuelson system on its DOP853 solve (the bench ladder
    # itself takes the Kummer form, which ode_tol does not bind): at ode_tol
    # 1e-6 the 8th-order step keeps every call within 1e-9 of an ode_tol
    # 1e-12 solve (a Dormand-Prince 5(4) step lands 5.7e-9 off), and at the default
    # tolerance the whole pass, one solve on 119 nodes, costs at most 320
    # right-hand sides (179; 299 with two blocks of width-2 panels), a count
    # that repeats exactly from run to run
    strikes = [24.0, 27.0, 30.0, 33.0, 36.0]
    loose, default, tight = (price_fourier_many(_ode_params(), SAM, UNI, DP, strikes, T,
                                                **tol)
                             for tol in ({"ode_tol": 1e-6}, {}, {"ode_tol": 1e-12}))
    for a, b in zip(loose, tight):
        assert abs(a.call - b.call) <= 1e-9
    assert default[0].diagnostics["riccati_rhs"] <= 320


def test_non_finite_ode_tol_is_refused(monkeypatch):
    # before the model is set up, whether its transform is solved by DOP853
    # (Samuelson) or in closed form (delivery-seasonal), where ode_tol binds
    # nothing
    def never(*args):
        raise AssertionError("the model was set up before ode_tol was checked")

    monkeypatch.setattr(charfn, "decompose", never)
    for vol, w in ((SAM, UNI), (DS, EXP)):
        with pytest.raises(RiccatiError, match="abs_tol must be finite"):
            price_fourier_many(_params(), vol, w, DP, [30.0], T, ode_tol=np.inf)
        with pytest.raises(RiccatiError, match="abs_tol 1.0e-16 is below"):
            price_fourier_many(_params(), vol, w, DP, [30.0], T, ode_tol=1e-16)


_SCIPY_MODULES = ("print(sorted(m for m in sys.modules"
                  " if m == 'scipy' or m.startswith('scipy.')))\n")


def _run_python(code, timeout=120):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")


# scipy is a test dependency only: it is about 100 MB, and scipy.special alone
# costs 25 MB and 0.25 s at import.  The three tests below cover import, both
# Fourier ladders, the Monte-Carlo engine, the simulator, a tabulated shape and
# the CLI, and each asserts that no scipy module at all has been loaded


def test_import_does_not_load_scipy_stats():
    assert _run_python("import sys, powerswap\n" + _SCIPY_MODULES, timeout=60)[0] == "[]"


def test_fourier_pricing_does_not_load_scipy_integrate():
    # the Riccati solver (DOP853) and the closed-form transform are numpy only
    code = ("import sys, powerswap\n"
            "from powerswap.models import *\n"
            "p = HestonParams(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6,"
            " f0=30.0, r=0.01)\n"
            "powerswap.price_fourier_many(p, Samuelson(3.5), UniformWeight(),"
            " DeliveryPeriod(0.75, 5 / 6), [24.0, 30.0, 36.0], 0.5, ode_tol=1e-6)\n"
            "res = powerswap.price_fourier_many(p, DeliverySeasonal(1.0, 0.4, 0.0),"
            " ExponentialWeight(1.0), DeliveryPeriod(0.75, 5 / 6), [24.0, 30.0, 36.0], 0.5)\n"
            "assert res[0].diagnostics['transform'] == 'closed_form'\n"
            + _SCIPY_MODULES)
    assert _run_python(code)[0] == "[]"


def test_fourier_path_loads_no_scipy_until_mc():
    # no scipy after a Fourier price and the CLI, and none after the
    # Monte-Carlo prices, the simulator and a tabulated shape either: MC's
    # Black-76 takes N(d) from math.erfc and tables interpolate with np.interp
    code = ("import contextlib, io, sys, numpy as np, powerswap\n"
            "from powerswap import cli\n"
            "from powerswap.averaging import decompose\n"
            "from powerswap.models import *\n"
            "from powerswap.simulate import GridSpec, simulate_summary\n"
            "p = HestonParams(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6,"
            " f0=30.0, r=0.01)\n"
            "dp = DeliveryPeriod(0.75, 5 / 6)\n"
            "args = (p, Samuelson(3.5), UniformWeight(), dp)\n"
            "powerswap.price_fourier_many(*args, [24.0, 30.0, 36.0], 0.5, ode_tol=1e-6)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['price', '--method', 'fourier']) == 0\n"
            + _SCIPY_MODULES +
            "grid = GridSpec(0.0, 0.5, 20, 2000, seed=3)\n"
            "res = powerswap.price_mc_many(*args, [24.0, 30.0, 36.0], 0.5, grid)\n"
            "print(all(r.call > 0 and r.stderr > 0 for r in res))\n"
            "simulate_summary(*args, grid)\n"
            "t_grid, u_grid = np.linspace(0.0, 0.75, 4), np.linspace(0.75, 5 / 6, 3)\n"
            "table = GeneralSeparable.from_table(t_grid, u_grid,"
            " np.exp(-3.5 * (u_grid - t_grid[:, None])), bound_r=1.0)\n"
            "assert np.all(decompose(table, UniformWeight(), dp).big_s(t_grid) > 0)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['price', '--method', 'both', '--paths', '2000',"
            " '--steps', '50']) == 0\n"
            + _SCIPY_MODULES)
    assert _run_python(code)[:3] == ["[]", "True", "[]"]


def test_no_module_of_powerswap_imports_scipy():
    # the static half of the tests above: no import statement in the package,
    # at module level or in a function, names scipy, nor mpmath, which the
    # tests use as a reference for the Kummer series
    for path in sorted(Path(pricer.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for banned in ("scipy", "mpmath"):
                assert not any(n == banned or n.startswith(banned + ".") for n in names), \
                    f"{path.name}:{node.lineno} imports {banned}"


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
