"""Averaging-factor tests: closed forms against brute-force quadrature.

The closed-form values the package computes are checked three ways: the
stored regression table for the one-month Samuelson factors, a from-scratch
Simpson integration of the weighted moments, and the internal identity
d2 = Var / (2 E) that ties the spread factor to the moments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerswap import averaging, models
from powerswap.averaging import (
    d1_d2,
    decompose,
    market_price_factor,
    samuelson_variance,
    swap_spread,
    swap_vol_factor,
    variance_factor,
)
from powerswap.models import (
    CustomWeight,
    DeliveryPeriod,
    DeliverySeasonal,
    ExponentialWeight,
    GeneralSeparable,
    Samuelson,
    TradingSeasonal,
    UniformWeight,
    integrate_over_delivery,
)

from _reference import brute_force_moments, samuelson_d1_d2

DP = DeliveryPeriod(0.75, 5.0 / 6.0)
UNI = UniformWeight()
T_GRID = np.linspace(0.0, 0.75, 7)

_KNOTS, _LEVELS = [0.75, 0.78, 0.8, 5.0 / 6.0], [1.0, 2.0, 1.5, 0.5]
# (weight, unnormalized weight for the brute-force oracle)
WEIGHTS = [
    (UNI, lambda u: 1.0),
    (ExponentialWeight(rate=0.5), lambda u: np.exp(-0.5 * u)),
    (CustomWeight.from_table(_KNOTS, _LEVELS), lambda u: np.interp(u, _KNOTS, _LEVELS)),
]
# (variant, s(t, u) written out for the oracle)
VOLS = [
    (Samuelson(3.5), lambda t, u: np.exp(-3.5 * (u - t))),
    (DeliverySeasonal(1.0, 0.4, 0.0), lambda t, u: 1.0 + 0.4 * np.cos(2 * np.pi * u)),
    (TradingSeasonal(0.6, 0.7, 0.2), lambda t, u: 1.0),
]

# one-month window: (lam, d1, variance, d2) rounded to four decimals
ONE_MONTH_TABLE = [
    (1.5, 0.9400, 0.0012, 0.0006),
    (3.5, 0.8674, 0.0053, 0.0031),
    (5.5, 0.8022, 0.0112, 0.0070),
]


@pytest.mark.parametrize("lam,e_d1,e_var,e_d2", ONE_MONTH_TABLE)
def test_one_month_factors_match_stored_table(lam, e_d1, e_var, e_d2):
    dp = DeliveryPeriod(0.75, 0.75 + 1.0 / 12.0)
    d1, d2 = d1_d2(lam, dp.delta)
    var = samuelson_variance(lam, dp)
    assert round(d1, 4) == e_d1
    assert round(var, 4) == e_var
    assert round(d2, 4) == e_d2


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(min_value=1e-3, max_value=50.0),
    delta=st.floats(min_value=1e-3, max_value=2.0),
)
def test_d2_is_half_variance_over_mean(lam, delta):
    dp = DeliveryPeriod(0.5, 0.5 + delta)
    d1, d2 = d1_d2(lam, delta)
    var = samuelson_variance(lam, dp)
    assert d2 == pytest.approx(0.5 * var / d1, abs=1e-12, rel=1e-10)


@pytest.mark.parametrize("lam", [0.5, 1.5, 3.5, 5.5])
def test_d2_identity_at_delivery_width(lam):
    d1, d2 = d1_d2(lam, DP.delta)
    var = samuelson_variance(lam, DP)
    assert abs(d2 - 0.5 * var / d1) < 1e-12


def test_d1_d2_tiny_argument_series():
    # the closed form cancels badly for small lam * x; the series must
    # take over seamlessly
    d1a, d2a = d1_d2(1e-9, 1.0 / 12.0)
    y = 1e-9 / 12.0
    assert d1a == pytest.approx(1.0 - y / 2.0, rel=1e-14)
    assert d2a == pytest.approx(y * y / 24.0, rel=1e-6)
    assert samuelson_variance(1e-7, DP) == pytest.approx((1e-7 / 12.0) ** 2 / 12.0, rel=1e-4)


@pytest.mark.parametrize("y", np.concatenate([np.logspace(-8, np.log10(20.0), 25),
                                              [0.0999, 0.1, 0.1001, 0.29]]))
def test_d1_d2_match_decimal_reference(y):
    # the closed-form d2 subtracts two numbers near 1 for small y (2e-4
    # relative error at y = 2e-6), so small y needs the series branch
    d1, d2 = d1_d2(y, 1.0)
    ref_d1, ref_d2 = samuelson_d1_d2(y)
    assert d1 == pytest.approx(ref_d1, rel=1e-13, abs=0.0)
    assert d2 == pytest.approx(ref_d2, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("y", np.concatenate([np.logspace(-8, np.log10(20.0), 25),
                                              [0.999e-3, 1e-3, 1.03e-3, 0.1]]))
def test_samuelson_variance_matches_decimal_reference(y):
    # the variance is 2 d1 d2; taking it as g(2y) - g(y)^2 instead loses
    # about nine digits to cancellation near y = 1e-3
    ref_d1, ref_d2 = samuelson_d1_d2(y)
    var = samuelson_variance(y, DeliveryPeriod(0.5, 1.5))
    assert var == pytest.approx(2.0 * ref_d1 * ref_d2, rel=1e-13, abs=0.0)


def test_samuelson_factors_against_quadrature():
    sam = Samuelson(3.5)
    for t in (0.0, 0.3, 0.75):
        mean, var = brute_force_moments(
            lambda tt, u: np.exp(-3.5 * (u - tt)), lambda u: 1.0, DP.tau1, DP.tau2, t
        )
        assert swap_vol_factor(sam, UNI, DP, t) == pytest.approx(mean, rel=1e-9)
        assert market_price_factor(sam, UNI, DP, t) == pytest.approx(
            0.5 * var / mean, rel=1e-7
        )


def test_delivery_seasonal_factors_closed_form_values():
    ds = DeliverySeasonal(a=1.0, b=0.4, c=0.0)
    # computed once from the closed form and pinned; the delivery window
    # [0.75, 5/6] sits where the cosine is increasing through zero
    assert swap_vol_factor(ds, UNI, DP, 0.0) == pytest.approx(1.1023490523349450, rel=1e-12)
    assert market_price_factor(ds, UNI, DP, 0.0) == pytest.approx(
        0.0015263786131965926, rel=1e-10
    )
    mean, var = brute_force_moments(
        lambda tt, u: 1.0 + 0.4 * np.cos(2 * np.pi * u), lambda u: 1.0, DP.tau1, DP.tau2, 0.0
    )
    assert swap_vol_factor(ds, UNI, DP, 0.0) == pytest.approx(mean, rel=1e-8)
    assert market_price_factor(ds, UNI, DP, 0.0) == pytest.approx(0.5 * var / mean, rel=1e-8)


def test_delivery_seasonal_factors_time_independent():
    ds = DeliverySeasonal(a=1.0, b=0.4, c=0.3)
    s_vals = [swap_vol_factor(ds, UNI, DP, t) for t in (0.0, 0.2, 0.75)]
    assert s_vals[0] == s_vals[1] == s_vals[2]


def test_exponential_weight_moments_match_quadrature():
    sam = Samuelson(2.0)
    s_fn = lambda tt, u: np.exp(-2.0 * (u - tt))
    for w, w_fn in WEIGHTS[1:]:
        for t in T_GRID:
            mean, var = brute_force_moments(s_fn, w_fn, DP.tau1, DP.tau2, t)
            assert swap_vol_factor(sam, w, DP, t) == pytest.approx(mean, rel=1e-8)
            assert market_price_factor(sam, w, DP, t) == pytest.approx(0.5 * var / mean, rel=1e-6)


def test_trading_seasonal_factors_are_degenerate():
    ts = TradingSeasonal(0.6, 0.7, 0.2)
    for w, _ in WEIGHTS:
        for t in (0.0, 0.4, 0.75):
            assert swap_vol_factor(ts, w, DP, t) == 1.0
            assert market_price_factor(ts, w, DP, t) == 0.0


@pytest.mark.parametrize("lam", [0.1, 0.5, 3.5, 12.0, 50.0])
def test_samuelson_quadrature_matches_closed_form(lam):
    # a flat exponential weight takes the quadrature path, the uniform one d1_d2
    d1, d2 = d1_d2(lam, DP.delta)
    dec = decompose(Samuelson(lam), ExponentialWeight(0.0), DP)
    assert dec.big_s(DP.tau1) == pytest.approx(d1, rel=1e-14, abs=0.0)
    assert dec.xi(DP.tau1) == pytest.approx(d2, rel=1e-12, abs=0.0)


def _g(y):
    return -np.expm1(-y) / y


@pytest.mark.parametrize("tau1", [0.75, 10.0])
@pytest.mark.parametrize("rate", [300.0, -300.0, 600.0, -600.0, 2000.0, -2000.0, 1e4])
def test_steep_exponential_weight_matches_closed_form(tau1, rate):
    # with x = u - tau1 on [0, delta], E[e^{-lam x}] = g((r + lam) delta) / g(r delta)
    # and E[e^{-2 lam x}] = g((r + 2 lam) delta) / g(r delta); e^{-rate u} itself
    # under- or overflows here
    lam = 3.5
    dp = DeliveryPeriod(tau1, tau1 + 1.0 / 12.0)
    mean = _g((rate + lam) * dp.delta) / _g(rate * dp.delta)
    second = _g((rate + 2.0 * lam) * dp.delta) / _g(rate * dp.delta)
    dec = decompose(Samuelson(lam), ExponentialWeight(rate), dp)
    assert dec.big_s(tau1) == pytest.approx(mean, rel=1e-12, abs=0.0)
    # the variance is integrated on the normalized weight and relative to
    # mean^2, so the quadrature's absolute tolerance does not swamp it
    # however steep the weight
    assert dec.xi(tau1) == pytest.approx(0.5 * (second - mean * mean) / mean, rel=1e-6, abs=0.0)


def test_constant_general_separable_is_exact():
    g = GeneralSeparable(s=lambda t, u: 0.7 * np.ones_like(np.asarray(u, float)), bound_r=1.0)
    assert swap_vol_factor(g, UNI, DP, 0.1) == 0.7
    assert market_price_factor(g, UNI, DP, 0.1) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_factor_or_weight_is_rejected(bad):
    # NaN passes a "<= 0" positivity check, so S and xi used to come out NaN
    g = GeneralSeparable(s=lambda t, u: np.full(np.shape(u), bad), bound_r=1.0)
    with pytest.raises(ValueError, match="must be finite"):
        swap_vol_factor(g, UNI, DP, 0.1)
    with pytest.raises(ValueError, match="must be finite"):
        decompose(g, UNI, DP).xi(np.array([0.0, 0.5]))
    w = CustomWeight(lambda u: np.full(np.shape(u), bad))
    with pytest.raises(ValueError, match="positive and finite"):
        decompose(Samuelson(3.5), w, DP)


def test_general_separable_quadrature_path():
    g = GeneralSeparable(
        s=lambda t, u: np.exp(-1.2 * (np.asarray(u, float) - t)) * (1.0 + 0.1 * np.asarray(u, float)),
        bound_r=2.0,
    )
    mean, var = brute_force_moments(
        lambda tt, u: np.exp(-1.2 * (u - tt)) * (1.0 + 0.1 * u), lambda u: 1.0, DP.tau1, DP.tau2, 0.2
    )
    assert swap_vol_factor(g, UNI, DP, 0.2) == pytest.approx(mean, rel=1e-8)
    assert market_price_factor(g, UNI, DP, 0.2) == pytest.approx(0.5 * var / mean, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(min_value=0.05, max_value=20.0),
    t=st.floats(min_value=0.0, max_value=0.75),
)
def test_market_price_factor_non_negative(lam, t):
    assert market_price_factor(Samuelson(lam), UNI, DP, t) >= 0.0


@settings(max_examples=40, deadline=None)
@given(
    b=st.floats(min_value=0.01, max_value=0.9),
    c=st.floats(min_value=0.0, max_value=0.999),
)
def test_delivery_seasonal_variance_never_negative(b, c):
    ds = DeliverySeasonal(a=1.0, b=b, c=c)
    assert market_price_factor(ds, UNI, DP, 0.0) >= 0.0
    assert swap_vol_factor(ds, UNI, DP, 0.0) > 0.0


def test_t_beyond_delivery_start_rejected():
    with pytest.raises(ValueError):
        swap_vol_factor(Samuelson(3.5), UNI, DP, 0.76)
    with pytest.raises(ValueError):
        market_price_factor(Samuelson(3.5), UNI, DP, 0.8)
    general = GeneralSeparable(s=lambda t, u: np.exp(-(np.asarray(u, float) - t)), bound_r=1.0)
    for vol in [vol for vol, _ in VOLS] + [general]:
        dec = decompose(vol, UNI, DP)
        for t in (0.76, np.array([0.0, 0.5, 0.8])):
            with pytest.raises(ValueError, match="delivery start"):
                dec.big_s(t)
            with pytest.raises(ValueError, match="delivery start"):
                dec.xi(t)
        assert dec.big_s(DP.tau1) > 0.0


def test_general_separable_integrates_each_distinct_time_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate_over_delivery(*args, **kwargs)

    # the weight normalizer integrates through the models module's name
    monkeypatch.setattr(averaging, "integrate_over_delivery", counting)
    monkeypatch.setattr(models, "integrate_over_delivery", counting)
    g = GeneralSeparable(
        s=lambda t, u: np.exp(-1.2 * (np.asarray(u, float) - t)) * (1.0 + 0.1 * np.asarray(u, float)),
        bound_r=2.0,
    )
    dec = decompose(g, UNI, DP)
    t = np.linspace(0.0, DP.tau1, 50)
    first = dec.big_s(t)
    dec.xi(t)
    again = dec.big_s(t)
    # one mean and one variance integral per grid time, none for repeats
    assert len(calls) <= 2 * t.size
    assert again.tobytes() == first.tobytes()

    # a custom weight adds one normalizer integral per decomposition
    calls.clear()
    dec = decompose(g, WEIGHTS[2][0], DP)
    t = np.linspace(0.0, DP.tau1, 10)
    dec.big_s(t)
    dec.xi(t)
    assert len(calls) <= 2 * t.size + 1


def test_variance_factor_ties_to_mean_and_market_price():
    sam = Samuelson(3.5)
    t = 0.3
    s = swap_vol_factor(sam, UNI, DP, t)
    xi = market_price_factor(sam, UNI, DP, t)
    # xi = Var / (2 mean), so Var = 2 xi S
    assert variance_factor(sam, UNI, DP, t) == pytest.approx(2.0 * s * xi, rel=1e-12)


def test_swap_spread():
    # the geometric swap sits above the arithmetic one by the dispersion term
    assert swap_spread(30.0, 0.002) == pytest.approx(30.0 * np.expm1(0.001), rel=1e-14)
    assert swap_spread(30.0, 0.002) == pytest.approx(0.030015, abs=5e-7)
    assert swap_spread(30.0, 0.0) == 0.0
    assert swap_spread(30.0, 1e-18) == pytest.approx(30.0 * 0.5e-18, rel=1e-10)
    with pytest.raises(ValueError):
        swap_spread(30.0, -1e-6)
    with pytest.raises(ValueError):
        swap_spread(0.0, 0.01)


def test_decompose_matches_pointwise_factors():
    for vol, s_fn in VOLS:
        for w, w_fn in WEIGHTS:
            dec = decompose(vol, w, DP)
            s_vec = np.asarray(dec.big_s(T_GRID), dtype=float)
            xi_vec = np.asarray(dec.xi(T_GRID), dtype=float)
            for i, ti in enumerate(T_GRID):
                assert s_vec[i] == pytest.approx(swap_vol_factor(vol, w, DP, ti), rel=1e-12)
                assert xi_vec[i] == pytest.approx(market_price_factor(vol, w, DP, ti), abs=1e-15)
                mean, var = brute_force_moments(s_fn, w_fn, DP.tau1, DP.tau2, ti)
                assert s_vec[i] == pytest.approx(mean, rel=1e-8)
                assert xi_vec[i] == pytest.approx(0.5 * var / mean, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("vol", [vol for vol, _ in VOLS])
@pytest.mark.parametrize("w", [w for w, _ in WEIGHTS])
def test_decompose_quadrature_work_independent_of_time_grid(monkeypatch, cold_moments,
                                                            vol, w):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return integrate_over_delivery(*args, **kwargs)

    monkeypatch.setattr(averaging, "integrate_over_delivery", counting)
    counts = []
    # a first decomposition on each grid size, then a repeat on the contract
    for n, clear in ((10, True), (1000, True), (1000, False)):
        if clear:
            cold_moments()
        calls.clear()
        dec = decompose(vol, w, DP)
        t = np.linspace(0.0, DP.tau1, n)
        dec.big_s(t)
        dec.xi(t)
        counts.append(len(calls))
    # at most one mean and one variance integral, whatever the grid size,
    # and none once the contract's moments are cached
    assert counts[0] == counts[1] <= 2
    assert counts[2] == 0
