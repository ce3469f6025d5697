"""Averaged swap volatility and the market price of delivery risk.

With U a random delivery time distributed by the normalized weight over
(tau1, tau2], the swap volatility factor is S(t) = E[s(t, U)] and the market
price of delivery risk factor is xi(t) = 0.5 * Var[s(t, U)] / E[s(t, U)].
The swap volatility is then S(t) sqrt(nu(t)) and the risk premium
xi(t) sqrt(nu(t)).

Every built-in shape factors as s(t, u) = e^{-lam (tau1 - t)} h(u), with
lam = 0 except for the Samuelson variant, so S(t) = S(tau1) e^{-lam (tau1 - t)}
and xi(t) = xi(tau1) e^{-lam (tau1 - t)}.  Such a contract's decomposition,
(S(tau1), xi(tau1)) and lam, is built once and kept whole in a bounded
cache: it depends on the shape, the weight and the delivery period alone,
never on the Heston parameters, the state or the strikes.  The pair comes
from the paper's d1 and d2 for Samuelson under the uniform weight, otherwise
from one adaptive Gauss-Legendre quadrature of the weighted moments, exact
where the shape is constant.  A callable inside a shape or weight is keyed
by identity; a contract holding one that cannot be hashed is decomposed
uncached.  Only ``GeneralSeparable`` has no such factoring; each of its
decompositions integrates the moments once per distinct time it is asked
for, and is built anew on every call, so that what it keeps lives no longer
than one price.

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
    GeneralSeparable,
    Samuelson,
    UniformWeight,
    VolStructure,
    WeightFunction,
    _period_weight,
    eval_s,
    integrate_over_delivery,
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

# contracts whose decompositions are kept; the key is (shape, weight, period)
_CONTRACT_CACHE_SIZE = 128

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
    if not 0 < lam < math.inf:
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    if not 0 < x < math.inf:
        raise ValueError(f"period length must be finite and > 0, got {x}")
    y = lam * x
    d1 = _g(y)
    if y < _D2_SERIES_CUTOFF:
        return float(d1), float(np.polynomial.polynomial.polyval(-y, _D2_SERIES))
    return float(d1), float(0.5 * (0.5 * (1.0 + np.exp(-y)) - d1))


def samuelson_variance(lam: float, dp: DeliveryPeriod) -> float:
    """Var[e^{-lam (U - tau1)}] for U uniform on the delivery period, = 2 d1 d2."""
    d1, d2 = d1_d2(lam, dp.delta)
    return 2.0 * d1 * d2


def _weighted_factors(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod,
                      t: float, den: float) -> tuple[float, float]:
    """(S(t), xi(t)) from the mean and variance of s(t, U) by adaptive quadrature.

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

    num = integrate_over_delivery(lambda u: _period_weight(w, dp, u) * s_vals(u), w, dp)
    mean = num / den
    if seen_lo[0] == seen_hi[0]:
        return seen_lo[0], 0.0
    # scaled to order 1, or the absolute tolerance swamps the tiny variance of a steep weight
    var = mean * mean * integrate_over_delivery(
        lambda u: _period_weight(w, dp, u) / den * (s_vals(u) / mean - 1.0) ** 2, w, dp)
    return float(mean), float(0.5 * var / mean)


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
    if not 0 < f_arith < math.inf:
        raise ValueError(f"f_arith must be finite and > 0, got {f_arith}")
    if not 0 <= variance_integral < math.inf:
        raise ValueError(
            f"variance_integral must be finite and >= 0, got {variance_integral}")
    return float(f_arith * np.expm1(0.5 * variance_integral))


@dataclass(frozen=True)
class SwapVolDecomposition:
    """Deterministic curves t -> S(t) and t -> xi(t) for one delivery period.

    Both callables accept scalars or arrays of times in [0, tau1] and raise
    ValueError for a time past tau1 or not finite, unless called with
    ``check=False`` by a caller that has checked its whole span of times
    once.  ``lam`` is the common decay rate of S and xi, which are S(tau1)
    and xi(tau1) times e^{-lam (tau1 - t)}: 0 for the flat shapes,
    Samuelson's lam for it, and None where they do not factor so
    (``GeneralSeparable``).
    """
    big_s: Callable
    xi: Callable
    lam: float | None = None


def _curve(dp: DeliveryPeriod, fn: Callable) -> Callable:
    """fn(t_array) as a curve on [0, tau1]: a float for a scalar t, else an array."""
    def curve(t, check=True):
        t_arr = np.asarray(t, dtype=float)
        if check:
            ok = (t_arr <= dp.tau1) & (t_arr > -np.inf)
            if not ok.all():
                raise ValueError("t must be finite and must not exceed the delivery start "
                                 f"{dp.tau1}, got {t_arr[~ok].flat[0]}")
        out = fn(t_arr)
        return float(out) if t_arr.ndim == 0 else out
    return curve


@functools.lru_cache(maxsize=_CONTRACT_CACHE_SIZE)
def _contract_decomposition(vol: VolStructure, w: WeightFunction,
                            dp: DeliveryPeriod) -> SwapVolDecomposition:
    """The decomposition of every variant except ``GeneralSeparable``: S(tau1)
    and xi(tau1) from d1 and d2 for Samuelson under the uniform weight, else
    from the weighted moments at tau1, each scaled by the Samuelson decay."""
    if isinstance(vol, Samuelson) and isinstance(w, UniformWeight):
        s1, xi1 = d1_d2(vol.lam, dp.delta)
    else:
        s1, xi1 = _weighted_factors(vol, w, dp, dp.tau1, weight_normalizer(w, dp))
    lam = vol.lam if isinstance(vol, Samuelson) else 0.0

    def big_s(t):
        return s1 * np.exp(-lam * (dp.tau1 - t))

    def xi(t):
        return xi1 * np.exp(-lam * (dp.tau1 - t))
    return SwapVolDecomposition(big_s=_curve(dp, big_s), xi=_curve(dp, xi), lam=lam)


def decompose(vol: VolStructure, w: WeightFunction, dp: DeliveryPeriod) -> SwapVolDecomposition:
    """S(t) and xi(t) as vectorized functions of time, with their decay rate.

    Every variant but ``GeneralSeparable`` returns the contract's one cached
    decomposition.  ``GeneralSeparable`` gets a new one on each call, which
    integrates both moments once per distinct time, so a time the Riccati
    solver asks for again (t = T in every block's solve) costs nothing.
    """
    if isinstance(vol, GeneralSeparable):
        den = weight_normalizer(w, dp)

        @functools.lru_cache(maxsize=None)
        def factors(t: float) -> tuple[float, float]:
            return _weighted_factors(vol, w, dp, t, den)

        big_s = np.vectorize(lambda t: factors(float(t))[0], otypes=[float])
        xi = np.vectorize(lambda t: factors(float(t))[1], otypes=[float])
        return SwapVolDecomposition(big_s=_curve(dp, big_s), xi=_curve(dp, xi))
    try:
        return _contract_decomposition(vol, w, dp)
    except TypeError:  # an unhashable callable in the shape or weight cannot key the cache
        return _contract_decomposition.__wrapped__(vol, w, dp)
