"""Independent reference implementations used by several test modules.

Everything here is written directly from the closed-form expressions, on
purpose not sharing code with the package, so that agreement between the
two is meaningful.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import simpson
from scipy.stats import norm


def const_coef_psi(phi, tau, kappa, theta, sigma, rho, sbar, alpha, beta):
    """Closed-form Riccati solution when every coefficient is constant.

    This is the classical square-root-volatility transform solution with
    an overall volatility scale ``sbar``, drift-coupling coefficient
    ``alpha`` and linear coefficient ``beta``.  Returns (psi0, psi1)
    evaluated at time to maturity ``tau``.
    """
    phi = np.asarray(phi, dtype=complex)
    a_lin = beta - 1j * rho * sigma * sbar * phi
    p_const = (0.5 * phi**2 - 1j * alpha * phi) * sbar * sbar
    d = np.sqrt(a_lin * a_lin + 2.0 * sigma * sigma * p_const)
    r_minus = (a_lin - d) / (sigma * sigma)
    r_plus = (a_lin + d) / (sigma * sigma)
    c = r_minus / r_plus
    e = np.exp(-d * tau)
    psi1 = r_minus * (1.0 - e) / (1.0 - c * e)
    psi0 = (kappa * theta / (sigma * sigma)) * (
        (a_lin - d) * tau - 2.0 * np.log((1.0 - c * e) / (1.0 - c))
    )
    return psi0, psi1


def lognormal_call_put(f, k, total_var, df=1.0):
    """Plain lognormal forward-option prices, written from scratch."""
    if total_var <= 0.0:
        call = df * max(f - k, 0.0)
        put = df * max(k - f, 0.0)
        return call, put
    sd = np.sqrt(total_var)
    d_plus = (np.log(f / k) + 0.5 * total_var) / sd
    d_minus = d_plus - sd
    call = df * (f * norm.cdf(d_plus) - k * norm.cdf(d_minus))
    put = df * (k * norm.cdf(-d_minus) - f * norm.cdf(-d_plus))
    return call, put


def brute_force_moments(s_func, weight_func, tau1, tau2, t, n=10_001):
    """Weighted mean and variance of u -> s_func(t, u) by Simpson's rule.

    ``weight_func`` is the unnormalized weight; the normalizer is computed
    with the same rule so its error largely cancels in the ratio.
    """
    u = np.linspace(tau1, tau2, n)
    w = np.asarray([weight_func(v) for v in u], dtype=float)
    s = np.asarray([s_func(t, v) for v in u], dtype=float)
    z = simpson(w, x=u)
    mean = simpson(w * s, x=u) / z
    second = simpson(w * s * s, x=u) / z
    return mean, second - mean * mean


def samuelson_d1_d2(y):
    """d1 = (1 - e^{-y}) / y and d2 = (0.5 (1 + e^{-y}) - d1) / 2 in 60-digit decimals.

    Sixty digits leave more than forty after the cancellation in d2 at
    y = 1e-8, so both are exact to double precision.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        y = Decimal(float(y))
        e = (-y).exp()
        d1 = (1 - e) / y
        d2 = (Decimal("0.5") * (1 + e) - d1) / 2
        return float(d1), float(d2)
