import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerswap.averaging import swap_vol_factor
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
    as_time_function,
    eval_s,
    theta_min_on_grid,
    variant_tag,
    weight_density,
    weight_hat,
    weight_normalizer,
)

DP = DeliveryPeriod(0.75, 5.0 / 6.0)


def test_delivery_period_validation():
    assert DP.delta == pytest.approx(1.0 / 12.0)
    with pytest.raises(ValueError):
        DeliveryPeriod(0.8, 0.75)
    with pytest.raises(ValueError):
        DeliveryPeriod(0.75, 0.75)
    with pytest.raises(ValueError):
        DeliveryPeriod(-0.1, 0.5)
    for tau2 in (np.inf, np.nan):
        with pytest.raises(ValueError):
            DeliveryPeriod(0.75, tau2)


def test_heston_params_validation():
    p = HestonParams(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6, f0=30.0, r=0.01)
    assert p.theta_fn()(0.3) == 0.6
    for bad in (
        dict(kappa=0.0),
        dict(theta=-0.1),
        dict(sigma_vv=-1e-9),
        dict(rho=1.0),
        dict(rho=-1.0),
        dict(nu0=0.0),
        dict(f0=0.0),
        dict(r=-0.01),
        dict(kappa=np.inf),
        dict(theta=np.inf),
        dict(sigma_vv=np.inf),
        dict(nu0=np.inf),
        dict(f0=np.inf),
        dict(r=np.inf),
        dict(f0=np.nan),
    ):
        kwargs = dict(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6, f0=30.0, r=0.01)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            HestonParams(**kwargs)


def test_heston_params_callable_theta():
    ts = TradingSeasonal(alpha=0.6, beta=0.7, gamma=0.2)
    p = HestonParams(kappa=3.0, theta=ts.theta, sigma_vv=0.4, rho=-0.3, nu0=0.6, f0=30.0, r=0.01)
    fn = p.theta_fn()
    t = np.array([0.0, 0.25, 0.5])
    np.testing.assert_allclose(fn(t), 0.6 * np.exp(0.7 * np.sin(2 * np.pi * (t + 0.2))))


def test_trading_seasonal_theta_bounds():
    ts = TradingSeasonal(alpha=0.6, beta=0.7, gamma=0.2)
    t = np.linspace(0.0, 2.0, 4001)
    vals = ts.theta(t)
    assert vals.min() >= ts.theta_min - 1e-15
    assert isinstance(ts.theta_min, float)
    assert ts.theta_min == pytest.approx(0.6 * np.exp(-0.7), rel=1e-15)
    # the shape profile is identically one
    assert eval_s(ts, 0.2, 0.8) == 1.0
    for bad in (dict(alpha=np.inf), dict(beta=np.inf), dict(alpha=np.nan)):
        kwargs = dict(alpha=0.6, beta=0.7, gamma=0.2)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            TradingSeasonal(**kwargs)


def test_variant_tags():
    assert variant_tag(TradingSeasonal(0.6, 0.7, 0.2)) == "trading_seasonal"
    assert variant_tag(Samuelson(3.5)) == "samuelson"
    assert variant_tag(DeliverySeasonal(1.0, 0.4, 0.0)) == "delivery_seasonal"
    assert variant_tag(GeneralSeparable(lambda t, u: np.ones_like(u), 1.0)) == "general_separable"


def test_samuelson_shape():
    sam = Samuelson(3.5)
    u = np.array([0.75, 0.8, 5.0 / 6.0])
    np.testing.assert_allclose(eval_s(sam, 0.5, u), np.exp(-3.5 * (u - 0.5)), rtol=1e-15)
    for lam in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            Samuelson(lam)
    with pytest.raises(ValueError):
        eval_s(sam, 0.9, 0.8)  # requires t <= u


def test_delivery_seasonal_shape():
    ds = DeliverySeasonal(a=1.0, b=0.4, c=0.0)
    u = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(eval_s(ds, 0.0, u), 1.0 + 0.4 * np.cos(2 * np.pi * u), rtol=1e-15)
    assert eval_s(ds, 0.0, u).min() > 0.0
    with pytest.raises(ValueError):
        DeliverySeasonal(a=0.4, b=0.4, c=0.0)
    with pytest.raises(ValueError):
        DeliverySeasonal(a=1.0, b=0.4, c=1.0)
    with pytest.raises(ValueError):
        DeliverySeasonal(a=np.inf, b=0.4, c=0.0)


def test_general_separable_bound_enforced():
    g = GeneralSeparable(s=lambda t, u: 5.0 * np.ones_like(np.asarray(u, float)), bound_r=2.0)
    with pytest.raises(ValueError):
        eval_s(g, 0.0, 0.8)
    for bad in (np.nan, np.inf):
        g_bad = GeneralSeparable(s=lambda t, u: bad * np.ones_like(np.asarray(u, float)),
                                 bound_r=2.0)
        with pytest.raises(ValueError, match="finite"):
            eval_s(g_bad, 0.0, 0.8)
    g_ok = GeneralSeparable(s=lambda t, u: 1.5 * np.ones_like(np.asarray(u, float)), bound_r=2.0)
    assert eval_s(g_ok, 0.0, 0.8) == 1.5
    for bound_r in (np.inf, np.nan):
        with pytest.raises(ValueError):
            GeneralSeparable(s=lambda t, u: np.ones_like(np.asarray(u, float)),
                             bound_r=bound_r)


def test_general_separable_from_table():
    # s = a + b t + c u + d t u is bilinear, so interpolation on any grid
    # reproduces it up to round-off
    def s(t, u):
        return 1.0 + 0.3 * t - 0.4 * u + 0.2 * t * u

    t_grid = np.array([0.0, 0.1, 0.35, 0.4, 0.75])
    u_grid = np.array([0.75, 0.76, 0.8, 5.0 / 6.0])
    vals = s(t_grid[:, None], u_grid)
    g = GeneralSeparable.from_table(t_grid, u_grid, vals, bound_r=2.0)
    rng = np.random.default_rng(0)
    for t in rng.uniform(0.0, 0.75, 50):
        u = rng.uniform(0.75, 5.0 / 6.0, 20)
        np.testing.assert_allclose(eval_s(g, t, u), s(t, u), rtol=0, atol=1e-15)
    for t, u in ((-0.1, 0.8), (0.76, 0.8), (0.5, 0.74), (0.5, 0.84), (np.nan, 0.8)):
        with pytest.raises(ValueError, match="does not cover"):
            g.s(t, np.array([0.8, u]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^values must be finite"):
            GeneralSeparable.from_table(t_grid, u_grid, np.full(vals.shape, bad), bound_r=2.0)
        with pytest.raises(ValueError, match=r"^u_grid must be finite"):
            GeneralSeparable.from_table(t_grid, [0.75, 0.8, bad, 0.9], vals, bound_r=2.0)
    # a repeated point, a turn, a 2-d grid, or a single point, which no
    # engine can use: the table must bracket every t and u it is asked for
    for bad in ([0.0, 0.5, 0.5, 0.75, 0.8], [0.0, 0.6, 0.5, 0.75, 0.8], [t_grid], [0.5]):
        with pytest.raises(ValueError, match=r"^t_grid must be"):
            GeneralSeparable.from_table(bad, u_grid, vals, bound_r=2.0)
        with pytest.raises(ValueError, match=r"^u_grid must be"):
            GeneralSeparable.from_table(t_grid, bad[:4], vals, bound_r=2.0)
    with pytest.raises(ValueError, match=r"^values must have shape"):
        GeneralSeparable.from_table(t_grid, u_grid, vals[:, 1:], bound_r=2.0)


def test_from_table_matches_scipy_and_takes_decreasing_grids():
    # scipy is imported here only, as the reference the numpy interpolation
    # replaced; it took decreasing grids, so from_table does too
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(1)
    t_grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 0.75, 7)), [0.75]])
    u_grid = np.concatenate([[0.75], np.sort(rng.uniform(0.75, 5.0 / 6.0, 5)), [5.0 / 6.0]])
    values = rng.uniform(0.5, 1.5, (t_grid.size, u_grid.size))
    g = GeneralSeparable.from_table(t_grid, u_grid, values, bound_r=2.0)
    ref = RegularGridInterpolator((t_grid, u_grid), values)
    flipped = [GeneralSeparable.from_table(t_grid[::-1], u_grid, values[::-1], bound_r=2.0),
               GeneralSeparable.from_table(t_grid, u_grid[::-1], values[:, ::-1], bound_r=2.0),
               GeneralSeparable.from_table(t_grid[::-1], u_grid[::-1], values[::-1, ::-1],
                                           bound_r=2.0)]
    for t in np.concatenate([t_grid, rng.uniform(0.0, 0.75, 40)]):
        u = np.concatenate([u_grid, rng.uniform(0.75, 5.0 / 6.0, 20)])
        got = eval_s(g, t, u)
        np.testing.assert_allclose(got, ref(np.column_stack([np.full(u.size, t), u])),
                                   rtol=1e-15, atol=0)
        for other in flipped:
            assert eval_s(other, t, u).tobytes() == got.tobytes()


# ---------------------------------------------------------------------------
# weights


def test_uniform_weight_density():
    z = weight_normalizer(UniformWeight(), DP)
    assert z == pytest.approx(DP.delta, rel=1e-15)
    d = weight_density(UniformWeight(), DP, 0.8)
    assert d == pytest.approx(12.0, rel=1e-12)
    # the left endpoint is accepted as a continuous extension
    assert weight_density(UniformWeight(), DP, 0.75) == pytest.approx(12.0, rel=1e-12)
    with pytest.raises(ValueError):
        weight_density(UniformWeight(), DP, 0.74)
    with pytest.raises(ValueError):
        weight_density(UniformWeight(), DP, 0.84)


def test_exponential_weight_matches_discount_ratio():
    w = ExponentialWeight(rate=0.01)
    lo = weight_density(w, DP, 0.75)
    hi = weight_density(w, DP, 5.0 / 6.0)
    assert lo / hi == pytest.approx(np.exp(0.01 / 12.0), rel=1e-12)
    assert weight_hat(w, 0.8) == pytest.approx(np.exp(-0.008), rel=1e-14)


def test_exponential_weight_zero_rate_is_uniform():
    w = ExponentialWeight(rate=0.0)
    u = np.linspace(0.75, 5.0 / 6.0, 7)
    np.testing.assert_allclose(weight_density(w, DP, u), 12.0, rtol=1e-12)
    for rate in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            ExponentialWeight(rate=rate)


def test_from_table_keeps_its_own_tables(cold_moments):
    # a weight keys the decomposition cache, so a change to the caller's arrays
    # after the build must reach neither it nor a tabulated shape
    u_grid, levels = np.array([0.75, 0.8, 5.0 / 6.0]), np.array([1.0, 2.0, 0.5])
    w = CustomWeight.from_table(u_grid, levels)
    t_grid, values = np.array([0.0, 0.5, 0.75]), np.full((3, 3), 0.5)
    g = GeneralSeparable.from_table(t_grid, u_grid, values, bound_r=2.0)
    u = np.linspace(0.75, 5.0 / 6.0, 7)

    def read():
        # empty the cache first, or it would hide a table that went stale
        cold_moments()
        return (weight_hat(w, u), weight_density(w, DP, u), eval_s(g, 0.3, u),
                np.float64(swap_vol_factor(Samuelson(3.5), w, DP, 0.5)))

    before = read()
    u_grid[1], levels[1], t_grid[1], values[:] = 0.79, 50.0, 0.4, 1.9
    for old, new in zip(before, read()):
        assert new.tobytes() == old.tobytes()


def test_custom_weight_knots_are_a_tuple():
    # a tuple keeps the weight hashable, and so usable as a cache key
    w = CustomWeight(lambda u: np.ones_like(u), knots=[0.78, 0.8])
    assert w.knots == (0.78, 0.8)
    assert weight_normalizer(w, DP) == pytest.approx(DP.delta, rel=1e-14)


def test_custom_weight_from_table():
    w = CustomWeight.from_table([0.7, 0.8, 0.9], [1.0, 2.0, 1.0])
    assert weight_hat(w, 0.75) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        CustomWeight.from_table([0.7, 0.7], [1.0, 1.0])
    with pytest.raises(ValueError):
        CustomWeight.from_table([0.7, 0.8], [1.0, -1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=r"^values must be finite"):
            CustomWeight.from_table([0.75, 5.0 / 6.0], [1.0, bad])
        with pytest.raises(ValueError, match=r"^u_grid must be finite"):
            CustomWeight.from_table([0.75, bad], [1.0, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(min_value=-5.0, max_value=5.0),
    tau1=st.floats(min_value=0.05, max_value=2.0),
    width=st.floats(min_value=0.02, max_value=1.0),
)
@example(rate=5e-324, tau1=1.0, width=0.5)  # expm1(-y) / rate underflows to 0 here
def test_weight_density_integrates_to_one(rate, tau1, width):
    dp = DeliveryPeriod(tau1, tau1 + width)
    w = ExponentialWeight(rate=rate)
    u = np.linspace(dp.tau1, dp.tau2, 20_001)
    total = np.trapezoid(weight_density(w, dp, u), u)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_option_spec():
    o = OptionSpec(strike=30.0, exercise=0.5)
    assert o.strike == 30.0
    with pytest.raises(ValueError):
        OptionSpec(strike=-1.0, exercise=0.5)
    with pytest.raises(ValueError):
        OptionSpec(strike=30.0, exercise=0.0)
    for bad in (dict(strike=np.inf), dict(exercise=np.inf), dict(strike=np.nan)):
        kwargs = dict(strike=30.0, exercise=0.5)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            OptionSpec(**kwargs)


def test_as_time_function_wraps_scalars_and_callables():
    f = as_time_function(0.6)
    np.testing.assert_allclose(f(np.array([0.0, 1.0])), [0.6, 0.6])
    g = as_time_function(lambda t: t + 1.0)
    np.testing.assert_allclose(g(np.array([0.0, 1.0])), [1.0, 2.0])
    # a callable that only supports scalars still works on arrays
    h = as_time_function(lambda t: 0.5 if t < 0.5 else 1.5)
    np.testing.assert_allclose(h(np.array([0.0, 1.0])), [0.5, 1.5])


def test_theta_min_on_grid():
    assert theta_min_on_grid(0.6, 0.75) == 0.6
    val = theta_min_on_grid(lambda t: 0.5 + np.square(t - 0.3), 0.75, resolution=1e-4)
    assert val == pytest.approx(0.5, abs=1e-7)


_TABLE_WEIGHT = CustomWeight.from_table([0.7, 0.8, 0.9], [1.0, 2.0, 1.0])
_NOT_POSITIVE = GeneralSeparable(lambda t, u: np.zeros_like(np.asarray(u, float)), bound_r=1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: theta_min_on_grid(0.6, 0.0), ValueError, "horizon must be finite and > 0, got 0.0"),
    (lambda: theta_min_on_grid(0.6, -1.0), ValueError,
     "horizon must be finite and > 0, got -1.0"),
    (lambda: theta_min_on_grid(0.6, np.inf), ValueError,
     "horizon must be finite and > 0, got inf"),
    (lambda: CustomWeight.from_table([0.7, 0.8, 0.9], [1.0, 2.0]), ValueError,
     "weight table needs matching 1-d u_grid and values with >= 2 points"),
    (lambda: _TABLE_WEIGHT.w_hat(np.array([0.8, 0.95])), ValueError,
     "weight table does not cover the requested u"),
    (lambda: GeneralSeparable(s=2.0, bound_r=1.0), ValueError,
     "s must be callable as s(t, u)"),
    (lambda: eval_s(_NOT_POSITIVE, 0.0, np.array([0.8])), ValueError,
     "general separable factor must satisfy s(t, u) > 0"),
    (lambda: eval_s(object(), 0.0, 0.8), TypeError, "unsupported volatility structure object"),
    (lambda: weight_hat(object(), 0.8), TypeError, "unsupported weight function object"),
    (lambda: variant_tag(object()), TypeError, "unsupported volatility structure object"),
    (lambda: weight_density(UniformWeight(), DP, np.nan), ValueError,
     "u must lie in the delivery period [0.75, 0.8333333333333334]"),
    (lambda: eval_s(Samuelson(3.5), np.nan, 0.8), ValueError,
     "t and u must be finite with t <= u, got t=nan"),
    (lambda: eval_s(Samuelson(3.5), 0.1, np.nan), ValueError,
     "t and u must be finite with t <= u, got t=0.1"),
    (lambda: eval_s(Samuelson(3.5), 0.1, np.inf), ValueError,
     "t and u must be finite with t <= u, got t=0.1"),
], ids=["theta-horizon-zero", "theta-horizon-negative", "theta-horizon-inf",
        "weight-table-mismatch", "weight-table-off-grid", "general-not-callable",
        "general-not-positive", "eval-s-type", "weight-hat-type", "variant-tag-type",
        "weight-density-u-nan", "eval-s-t-nan", "eval-s-u-nan", "eval-s-u-inf"])
def test_models_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
