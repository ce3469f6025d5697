"""Averaged swap volatility and the market price of delivery risk.

With U a random delivery time distributed by the normalized weight over
(tau1, tau2], the swap volatility factor is S(t) = E[s(t, U)] and the market
price of delivery risk factor is xi(t) = 0.5 * Var[s(t, U)] / E[s(t, U)].
The swap volatility is then S(t) sqrt(nu(t)) and the risk premium
xi(t) sqrt(nu(t)).

Every built-in shape factors as s(t, u) = e^{-lam (tau1 - t)} h(u), with
lam = 0 except for the Samuelson variant, so S(t) = S(tau1) e^{-lam (tau1 - t)}
and xi(t) = xi(tau1) e^{-lam (tau1 - t)}.  The pair (S(tau1), xi(tau1)) is
computed once: in closed form for the trading-seasonal variant and for the
Samuelson and delivery-seasonal variants under the uniform weight, otherwise
by one adaptive Gauss-Legendre quadrature of the weighted moments.  Only
``GeneralSeparable`` has no such factoring and is integrated at each time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import (
    DeliveryPeriod,
    DeliverySeasonal,
    GeneralSeparable,
    Samuelson,
    TradingSeasonal,
    TWO_PI,
    UniformWeight,
    VolStructure,
    WeightFunction,
    eval_s,
    integrate_over_delivery,
    weight_hat,
    weight_normalizer,
)

__all__ = [
    "SwapVolDecomposition",
    "d1_d2",
    "samuelson_variance",
    "swap_vol_factor",
    "market_price_factor",
    "variance_factor",
    "swap_spread",
    "decompose",
]

_SERIES_CUTOFF = 1e-6


def _g(y: float) -> float:
    """(1 - exp(-y)) / y with a Taylor fallback for small arguments."""
    if y < _SERIES_CUTOFF:
        return 1.0 - y / 2.0 + y * y / 6.0 - y * y * y / 24.0
    return -np.expm1(-y) / y


def d1_d2(lam: float, x: float) -> tuple[float, float]:
    """Samuelson averaging factors over a period of length x.

    d1(x) = (1 - e^{-lam x}) / (lam x) is the mean of e^{-lam (U - tau1)} for
    U uniform on a period of length x; d2(x) = 0.5 * (0.5 (1 + e^{-lam x}) - d1(x))
    is the corresponding market-price factor.  For lam * x < 1e-6 both use
    4-term Taylor expansions to avoid cancellation.
    """
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if not x > 0:
        raise ValueError(f"period length must be > 0, got {x}")
    y = lam * x
    if y < _SERIES_CUTOFF:
        d1 = 1.0 - y / 2.0 + y * y / 6.0 - y ** 3 / 24.0
        d2 = y * y / 24.0 - y ** 3 / 48.0 + y ** 4 / 160.0
        return d1, d2
    d1 = _g(y)
    d2 = 0.5 * (0.5 * (1.0 + np.exp(-y)) - d1)
    return float(d1), float(d2)


def samuelson_variance(lam: float, dp: DeliveryPeriod) -> float:
    """Var[e^{-lam (U - tau1)}] for U uniform on the delivery period."""
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    y = lam * dp.delta
    if y < 1e-3:
        # g(2y) - g(y)^2 loses all digits to cancellation for small y
        return y * y / 12.0 - y ** 3 / 12.0 + 17.0 * y ** 4 / 360.0
    d1 = _g(y)
    return float(_g(2.0 * y) - d1 * d1)


def _clamp_variance(var: float) -> float:
    if var < 0.0:
        if var > -1e-14:
            return 0.0
        raise RuntimeError(f"averaged variance must be non-negative, got {var}")
    return var


def _check_t(t: float, dp: DeliveryPeriod) -> float:
    t = float(t)
    if t > dp.tau1:
        raise ValueError(f"t must not exceed the delivery start {dp.tau1}, got {t}")
    return t


def _cos_means(vol: DeliverySeasonal, dp: DeliveryPeriod) -> tuple[float, float]:
    """Means of cos(2 pi (u + c)) and cos^2 over the delivery period."""
    a1 = TWO_PI * (dp.tau1 + vol.c)
    a2 = TWO_PI * (dp.tau2 + vol.c)
    c1 = (np.sin(a2) - np.sin(a1)) / (TWO_PI * dp.delta)
    c2 = 0.5 + (np.sin(2.0 * a2) - np.sin(2.0 * a1)) / (4.0 * TWO_PI * dp.delta)
    return c1, c2


def _weighted_moments(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
                      t: float) -> tuple[float, float]:
    """Mean and variance of s(t, U) by adaptive quadrature.

    When every sampled node value coincides, s is constant as far as the
    quadrature can see and the exact result (value, 0) is returned.
    """
    seen_lo = [np.inf]
    seen_hi = [-np.inf]

    def s_vals(u):
        vals = np.asarray(eval_s(vol, t, u), dtype=float)
        seen_lo[0] = min(seen_lo[0], float(vals.min()))
        seen_hi[0] = max(seen_hi[0], float(vals.max()))
        return vals

    den = weight_normalizer(w, dp)
    num = integrate_over_delivery(lambda u: weight_hat(w, u) * s_vals(u), w, dp)
    mean = num / den
    if seen_lo[0] == seen_hi[0]:
        return seen_lo[0], 0.0
    var = integrate_over_delivery(
        lambda u: weight_hat(w, u) * (s_vals(u) - mean) ** 2, w, dp) / den
    return mean, var


def _mean_var(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
              t: float) -> tuple[float, float]:
    if isinstance(vol, DeliverySeasonal) and isinstance(w, UniformWeight):
        c1, c2 = _cos_means(vol, dp)
        return vol.a + vol.b * c1, vol.b * vol.b * (c2 - c1 * c1)
    return _weighted_moments(vol, w, dp, t)


def _moment_factors(mean: float, var: float) -> tuple[float, float]:
    """(S, xi) from the mean and variance of s(t, U)."""
    return float(mean), float(0.5 * _clamp_variance(var) / mean)


def _delivery_factors(vol: VolStructure, w: WeightFunction,
                      dp: DeliveryPeriod) -> tuple[float, float]:
    """(S(tau1), xi(tau1)) for every variant except ``GeneralSeparable``."""
    if isinstance(vol, TradingSeasonal):
        return 1.0, 0.0
    if isinstance(vol, Samuelson) and isinstance(w, UniformWeight):
        return d1_d2(vol.lam, dp.delta)
    return _moment_factors(*_mean_var(vol, w, dp, dp.tau1))


def _decayed(value: float, vol: VolStructure, dp: DeliveryPeriod, t):
    """value * e^{-lam (tau1 - t)}, lam = 0 unless ``vol`` is Samuelson."""
    lam = vol.lam if isinstance(vol, Samuelson) else 0.0
    t_arr = np.asarray(t, dtype=float)
    out = value * np.exp(-lam * (dp.tau1 - t_arr))
    return float(out) if t_arr.ndim == 0 else out


def _factors(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
             t: float) -> tuple[float, float]:
    """(S(t), xi(t)) at one time t <= tau1."""
    t = _check_t(t, dp)
    if isinstance(vol, GeneralSeparable):
        return _moment_factors(*_mean_var(vol, w, dp, t))
    s1, xi1 = _delivery_factors(vol, w, dp)
    return _decayed(s1, vol, dp, t), _decayed(xi1, vol, dp, t)


def swap_vol_factor(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
                    t: float) -> float:
    """Averaged volatility factor S(t) = E[s(t, U)] for t <= tau1."""
    return _factors(vol, w, dp, t)[0]


def market_price_factor(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
                        t: float) -> float:
    """Delivery-risk factor xi(t) = 0.5 * Var[s(t, U)] / E[s(t, U)] >= 0."""
    return _factors(vol, w, dp, t)[1]


def variance_factor(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
                    t: float) -> float:
    """Var[s(t, U)] = 2 S(t) xi(t), the deterministic part of the swap-spread integrand.

    Var[sigma(t, U)] along a variance path nu is variance_factor(t) * nu(t).
    """
    big_s, xi = _factors(vol, w, dp, t)
    return 2.0 * big_s * xi


def swap_spread(f_arith: float, variance_integral: float) -> float:
    """Geometric-minus-arithmetic swap spread F - F^a.

    Given the arithmetic-average swap price and the accumulated delivery-time
    variance integral of sigma(s, U) up to t, returns
    F^a * (e^{integral / 2} - 1) >= 0.
    """
    if not f_arith > 0:
        raise ValueError(f"f_arith must be > 0, got {f_arith}")
    if variance_integral < 0:
        raise ValueError(
            f"variance integral must be non-negative, got {variance_integral}")
    return float(f_arith * np.expm1(0.5 * variance_integral))


@dataclass(frozen=True)
class SwapVolDecomposition:
    """Deterministic curves t -> S(t) and t -> xi(t) for one delivery period.

    Both callables accept scalars or arrays of times in [0, tau1].
    """
    big_s: Callable
    xi: Callable
    dp: DeliveryPeriod
    weight: WeightFunction


def _vectorize_scalar(f):
    def fn(t):
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim == 0:
            return f(float(t_arr))
        return np.array([f(float(v)) for v in t_arr])
    return fn


def decompose(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod) -> SwapVolDecomposition:
    """Bundle S(t) and xi(t) as vectorized functions of time.

    The pair (S(tau1), xi(tau1)) is computed once and scaled by the
    Samuelson decay; only ``GeneralSeparable`` is evaluated point by point.
    """
    if isinstance(vol, GeneralSeparable):
        big_s = _vectorize_scalar(lambda tv: swap_vol_factor(vol, w, dp, tv))
        xi = _vectorize_scalar(lambda tv: market_price_factor(vol, w, dp, tv))
    else:
        s1, xi1 = _delivery_factors(vol, w, dp)

        def big_s(t):
            return _decayed(s1, vol, dp, t)

        def xi(t):
            return _decayed(xi1, vol, dp, t)
    return SwapVolDecomposition(big_s=big_s, xi=xi, dp=dp, weight=w)
