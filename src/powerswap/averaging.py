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
``GeneralSeparable`` has no such factoring; its moments are integrated once
per distinct time and kept for the life of its decomposition.

``decompose`` is the one implementation of S and xi: the pointwise factors
below are single calls into it, and both pricing engines evaluate its curves.
"""

from __future__ import annotations

import functools
import math
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

# below this lam * x, d2 sums (n - 1) / (4 (n + 1)!) (-y)^n for n = 2..11,
# accurate to about 2e-16 relative
_D2_SERIES_CUTOFF = 0.1
_D2_SERIES = [0.0, 0.0] + [(n - 1) / (4.0 * math.factorial(n + 1)) for n in range(2, 12)]


def _g(y: float) -> float:
    """(1 - exp(-y)) / y; expm1 keeps it accurate for small y."""
    return -np.expm1(-y) / y


def d1_d2(lam: float, x: float) -> tuple[float, float]:
    """Samuelson averaging factors over a period of length x.

    d1(x) = (1 - e^{-lam x}) / (lam x) is the mean of e^{-lam (U - tau1)} for
    U uniform on a period of length x; d2(x) = 0.5 * (0.5 (1 + e^{-lam x}) - d1(x))
    is the corresponding market-price factor.  Its closed form subtracts two
    numbers near 1 when lam * x is small, so below 0.1 d2 is taken from its
    Taylor series instead.
    """
    if not lam > 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if not x > 0:
        raise ValueError(f"period length must be > 0, got {x}")
    y = lam * x
    d1 = _g(y)
    if y < _D2_SERIES_CUTOFF:
        return float(d1), float(np.polynomial.polynomial.polyval(-y, _D2_SERIES))
    return float(d1), float(0.5 * (0.5 * (1.0 + np.exp(-y)) - d1))


def samuelson_variance(lam: float, dp: DeliveryPeriod) -> float:
    """Var[e^{-lam (U - tau1)}] for U uniform on the delivery period, = 2 d1 d2."""
    d1, d2 = d1_d2(lam, dp.delta)
    return 2.0 * d1 * d2


def _clamp_variance(var: float) -> float:
    if var < 0.0:
        if var > -1e-14:
            return 0.0
        raise RuntimeError(f"averaged variance must be non-negative, got {var}")
    return var


def _cos_means(vol: DeliverySeasonal, dp: DeliveryPeriod) -> tuple[float, float]:
    """Means of cos(2 pi (u + c)) and cos^2 over the delivery period."""
    a1 = TWO_PI * (dp.tau1 + vol.c)
    a2 = TWO_PI * (dp.tau2 + vol.c)
    c1 = (np.sin(a2) - np.sin(a1)) / (TWO_PI * dp.delta)
    c2 = 0.5 + (np.sin(2.0 * a2) - np.sin(2.0 * a1)) / (4.0 * TWO_PI * dp.delta)
    return c1, c2


def _weighted_moments(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
                      t: float, den: float) -> tuple[float, float]:
    """Mean and variance of s(t, U) by adaptive quadrature.

    ``den`` is ``weight_normalizer(w, dp)``, computed once by the caller.
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

    num = integrate_over_delivery(lambda u: weight_hat(w, u) * s_vals(u), w, dp)
    mean = num / den
    if seen_lo[0] == seen_hi[0]:
        return seen_lo[0], 0.0
    var = integrate_over_delivery(
        lambda u: weight_hat(w, u) * (s_vals(u) - mean) ** 2, w, dp) / den
    return mean, var


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
    if isinstance(vol, DeliverySeasonal) and isinstance(w, UniformWeight):
        c1, c2 = _cos_means(vol, dp)
        return _moment_factors(vol.a + vol.b * c1, vol.b * vol.b * (c2 - c1 * c1))
    return _moment_factors(*_weighted_moments(vol, w, dp, dp.tau1, weight_normalizer(w, dp)))


def swap_vol_factor(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
                    t: float) -> float:
    """Averaged volatility factor S(t) = E[s(t, U)] for t <= tau1."""
    return decompose(vol, w, dp).big_s(t)


def market_price_factor(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
                        t: float) -> float:
    """Delivery-risk factor xi(t) = 0.5 * Var[s(t, U)] / E[s(t, U)] >= 0."""
    return decompose(vol, w, dp).xi(t)


def variance_factor(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
                    t: float) -> float:
    """Var[s(t, U)] = 2 S(t) xi(t), the deterministic part of the swap-spread integrand.

    Var[sigma(t, U)] along a variance path nu is variance_factor(t) * nu(t).
    """
    dec = decompose(vol, w, dp)
    return 2.0 * dec.big_s(t) * dec.xi(t)


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

    Both callables accept scalars or arrays of times in [0, tau1] and raise
    ValueError for a time past tau1.
    """
    big_s: Callable
    xi: Callable


def _curve(dp: DeliveryPeriod, fn: Callable) -> Callable:
    """fn(t_array) as a curve on [0, tau1]: a float for a scalar t, else an array."""
    def curve(t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr > dp.tau1):
            raise ValueError(
                f"t must not exceed the delivery start {dp.tau1}, got {np.max(t_arr)}")
        out = fn(t_arr)
        return float(out) if t_arr.ndim == 0 else out
    return curve


def decompose(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod) -> SwapVolDecomposition:
    """Bundle S(t) and xi(t) as vectorized functions of time.

    The pair (S(tau1), xi(tau1)) is computed once and scaled by the
    Samuelson decay.  ``GeneralSeparable`` integrates both moments once per
    distinct time: the Riccati solver asks for the same stage times in every
    doubling pass and every block.
    """
    if isinstance(vol, GeneralSeparable):
        den = weight_normalizer(w, dp)

        @functools.lru_cache(maxsize=None)
        def factors(t: float) -> tuple[float, float]:
            return _moment_factors(*_weighted_moments(vol, w, dp, t, den))

        big_s = np.vectorize(lambda t: factors(float(t))[0], otypes=[float])
        xi = np.vectorize(lambda t: factors(float(t))[1], otypes=[float])
    else:
        s1, xi1 = _delivery_factors(vol, w, dp)
        lam = vol.lam if isinstance(vol, Samuelson) else 0.0

        def big_s(t):
            return s1 * np.exp(-lam * (dp.tau1 - t))

        def xi(t):
            return xi1 * np.exp(-lam * (dp.tau1 - t))
    return SwapVolDecomposition(big_s=_curve(dp, big_s), xi=_curve(dp, xi))
