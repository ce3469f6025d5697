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


def samuelson_psi_series(phi, tau, k, lam, kappa, theta, sigma, rho, s_tau, xi_tau,
                         n_terms=600, n_path=65):
    """Psi0, Psi1 of the k-th transform at time to maturity ``tau``, without an ODE solver.

    For the Samuelson shape with constant theta and sigma > 0, S and xi at
    time to maturity s are ``s_tau z`` and ``xi_tau z`` with z = e^{-lam s}.
    Psi1 = -w_s / (a w), a = sigma^2 / 2, linearises the Riccati equation to
    the confluent (Kummer) equation

        z w_zz + (1 - kappa/lam - (b1/lam) z) w_z - (a c s_tau^2 / lam^2) z w = 0,

    b1 = sigma rho (xi_tau - s_tau [k = 1]) - i rho sigma s_tau phi and
    c = phi^2/2 - i alpha_k phi, with w = 1 and w_z = 0 at z = 1.  Its only
    finite singular point is z = 0, so the Taylor series at z = 1 converges
    for |1 - e^{-lam tau}| < 1.  Psi0 = -(kappa theta / a) log w, with the
    phase of w unwrapped along s on ``n_path`` points.
    """
    phi = np.asarray(phi, dtype=complex)
    alpha = 0.5 if k == 1 else -0.5
    a = 0.5 * sigma * sigma
    c = 0.5 * phi * phi - 1j * alpha * phi
    b1 = sigma * rho * (xi_tau - (s_tau if k == 1 else 0.0)) - 1j * rho * sigma * s_tau * phi
    # in u = z - 1: (1 + u) w'' + (p + q u) w' - r (1 + u) w = 0
    p = 1.0 - kappa / lam - b1 / lam
    q = -b1 / lam
    r = a * c * s_tau * s_tau / (lam * lam)
    coef = np.zeros((n_terms,) + phi.shape, dtype=complex)
    coef[0] = 1.0
    for n in range(n_terms - 2):
        before = coef[n - 1] if n else 0.0
        coef[n + 2] = -((n + 1) * (n + p) * coef[n + 1] + (q * n - r) * coef[n]
                        - r * before) / ((n + 2) * (n + 1))
    u_end = np.exp(-lam * tau) - 1.0
    if not abs(u_end) < 1.0:
        raise ValueError(f"the series needs |1 - e^(-lam tau)| < 1, got {abs(u_end)}")
    tail = np.max(np.abs(coef[-2:])) * abs(u_end) ** (n_terms - 2)
    if not tail < 1e-17:
        raise ValueError(f"{n_terms} terms leave a tail term of {tail:.1e}")
    u = (np.exp(-lam * np.linspace(0.0, tau, n_path)) - 1.0).reshape((-1,) + (1,) * phi.ndim)
    w = np.zeros(u.shape[:1] + phi.shape, dtype=complex)
    w_z = np.zeros(phi.shape, dtype=complex)
    for n in range(n_terms - 1, -1, -1):
        w = w * u + coef[n]
        if n:
            w_z = w_z * u_end + n * coef[n]
    log_w = np.log(np.abs(w[-1])) + 1j * np.unwrap(np.angle(w), axis=0)[-1]
    psi1 = lam * (1.0 + u_end) * w_z / (a * w[-1])
    psi0 = -(kappa * theta / a) * log_w
    return psi0, psi1
