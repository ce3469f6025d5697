"""Riccati ODE systems and characteristic functions for the swap option pricer.

For k = 1, 2 the exponential-affine transform Q_hat_k = exp(Psi0 + nu Psi1 + i phi x)
requires, backward in time with zero terminal data,

    dPsi1/dt = -sigma^2/2 Psi1^2 + (beta_k(t) - i rho sigma S(t) phi) Psi1
               + (phi^2/2 - i alpha_k phi) S(t)^2,
    dPsi0/dt = -kappa theta(t) Psi1,

with alpha_1 = 1/2, alpha_2 = -1/2, beta_1 = kappa + sigma rho (xi(t) - S(t)),
beta_2 = kappa + sigma rho xi(t).  Time dependence of S and xi rules out the
textbook log-linear solution, so the system is integrated by classical RK4 in
s = T - t with step-doubling error control.  Psi0 is advanced inside the same
RK stages as Psi1, which keeps the coupled system at order 4 and avoids any
complex-logarithm branch tracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .averaging import decompose
from .models import (
    DeliveryPeriod,
    HestonParams,
    VolStructure,
    WeightFunction,
)

__all__ = ["RiccatiCoefficients", "CharFnSolution", "RiccatiError",
           "solve_riccati", "solve_riccati_fixed", "riccati_path", "char_fn",
           "PHI_MAX_DEFAULT"]

PHI_MAX_DEFAULT = 400.0
_PHI_HARD_CAP = 1e4


class RiccatiError(RuntimeError):
    """Error control failed or the solution blew up during integration."""

    def __init__(self, message: str, t_fail: float | None = None):
        super().__init__(message)
        self.t_fail = t_fail


@dataclass(frozen=True)
class RiccatiCoefficients:
    """Time-dependent coefficients of one Riccati system (k = 1 or 2)."""
    k: int
    kappa: float
    sigma_vv: float
    rho: float
    big_s: Callable
    xi: Callable
    theta: Callable

    @classmethod
    def for_model(cls, p: HestonParams, vol: VolStructure, w: WeightFunction,
                  dp: DeliveryPeriod, k: int) -> "RiccatiCoefficients":
        if k not in (1, 2):
            raise ValueError(f"k must be 1 or 2, got {k}")
        dec = decompose(vol, w, dp)
        return cls(k=k, kappa=p.kappa, sigma_vv=p.sigma_vv, rho=p.rho,
                   big_s=dec.big_s, xi=dec.xi, theta=p.theta_fn())

    @property
    def alpha(self) -> float:
        """alpha_k of the S(t)^2 term: 1/2 for k = 1, -1/2 for k = 2."""
        return 0.5 if self.k == 1 else -0.5

    def beta(self, t):
        """Linear-term coefficient beta_k(t); real and bounded on [0, tau1]."""
        if self.k == 1:
            return self.kappa + self.sigma_vv * self.rho * (np.asarray(self.xi(t))
                                                            - np.asarray(self.big_s(t)))
        return self.kappa + self.sigma_vv * self.rho * np.asarray(self.xi(t))


@dataclass(frozen=True)
class CharFnSolution:
    """Psi0, Psi1 at (t, T) for one or more Fourier arguments phi."""
    k: int
    t: float
    T: float
    phi: np.ndarray | float
    psi0: np.ndarray | complex
    psi1: np.ndarray | complex
    n_steps: int


def _check_phi(phi_arr: np.ndarray, phi_max: float) -> None:
    if not 0 < phi_max <= _PHI_HARD_CAP:
        raise ValueError(f"phi_max must lie in (0, {_PHI_HARD_CAP}]")
    if np.any(np.abs(phi_arr) > phi_max):
        raise ValueError(
            f"|phi| exceeds the configured maximum {phi_max}")


def _integrate(rc: RiccatiCoefficients, t: float, T: float, phi: np.ndarray,
               n: int, keep_path: bool = False):
    """RK4 in s = T - t' from s=0 to s=T-t on the coupled (Psi1, Psi0) system."""
    span = T - t
    h = span / n
    s_half = np.linspace(0.0, span, 2 * n + 1)
    t_stage = T - s_half
    s_vals = np.asarray(rc.big_s(t_stage), dtype=float)
    beta_vals = np.asarray(rc.beta(t_stage), dtype=float)
    theta_vals = np.asarray(rc.theta(t_stage), dtype=float)

    half_sig2 = 0.5 * rc.sigma_vv * rc.sigma_vv
    rho_sig = rc.rho * rc.sigma_vv
    const_phi = 0.5 * phi * phi - 1j * rc.alpha * phi   # multiplies S(t)^2
    kappa = rc.kappa

    psi1 = np.zeros(phi.shape, dtype=complex)
    psi0 = np.zeros(phi.shape, dtype=complex)
    if keep_path:
        path1 = np.empty((n + 1,) + phi.shape, dtype=complex)
        path0 = np.empty((n + 1,) + phi.shape, dtype=complex)
        path1[0] = psi1
        path0[0] = psi0

    def rhs(idx, p1):
        s_here = s_vals[idx]
        dp1 = (half_sig2 * p1 * p1
               - (beta_vals[idx] - 1j * rho_sig * s_here * phi) * p1
               - const_phi * (s_here * s_here))
        dp0 = kappa * theta_vals[idx] * p1
        return dp1, dp0

    sixth = h / 6.0
    for j in range(n):
        i0 = 2 * j
        k1_1, k1_0 = rhs(i0, psi1)
        k2_1, k2_0 = rhs(i0 + 1, psi1 + 0.5 * h * k1_1)
        k3_1, k3_0 = rhs(i0 + 1, psi1 + 0.5 * h * k2_1)
        k4_1, k4_0 = rhs(i0 + 2, psi1 + h * k3_1)
        psi1 = psi1 + sixth * (k1_1 + 2.0 * (k2_1 + k3_1) + k4_1)
        psi0 = psi0 + sixth * (k1_0 + 2.0 * (k2_0 + k3_0) + k4_0)
        if not np.isfinite(psi1).all():
            t_fail = T - (j + 1) * h
            raise RiccatiError(
                f"Riccati solution blew up near t = {t_fail:.6g}", t_fail=t_fail)
        if keep_path:
            path1[j + 1] = psi1
            path0[j + 1] = psi0
    if keep_path:
        return psi0, psi1, path0, path1
    return psi0, psi1


def _as_phi_array(phi) -> tuple[np.ndarray, bool]:
    phi_arr = np.asarray(phi, dtype=float)
    scalar = phi_arr.ndim == 0
    return (phi_arr.reshape(1) if scalar else phi_arr), scalar


def _solution(rc, t, T, phi_arr, scalar, psi0, psi1, n_steps) -> CharFnSolution:
    """Package Psi0, Psi1 (node axis last); a scalar phi drops that axis."""
    fields = (phi_arr, psi0, psi1)
    if scalar:
        fields = tuple(a[..., 0] for a in fields)
    phi, psi0, psi1 = (a.item() if a.ndim == 0 else a for a in fields)
    return CharFnSolution(k=rc.k, t=t, T=T, phi=phi, psi0=psi0, psi1=psi1,
                          n_steps=int(n_steps))


def solve_riccati(rc: RiccatiCoefficients, t: float, T: float, phi,
                  abs_tol: float = 1e-10, n_start: int = 64,
                  max_n: int = 1 << 16,
                  phi_max: float = PHI_MAX_DEFAULT) -> CharFnSolution:
    """Solve for Psi0, Psi1 at time t with step-doubling error control.

    phi may be a scalar or an array (solved as one vectorized batch).  The
    grid doubles from n_start until both components move by less than abs_tol;
    exceeding max_n raises RiccatiError with the achieved difference.
    """
    phi_arr, scalar = _as_phi_array(phi)
    _check_phi(phi_arr, phi_max)
    if not 0 <= t <= T:
        raise ValueError(f"need 0 <= t <= T, got t={t}, T={T}")
    if t == T:
        z = np.zeros(phi_arr.shape, dtype=complex)
        return _solution(rc, t, T, phi_arr, scalar, z, z.copy(), 0)
    n = n_start
    prev0, prev1 = _integrate(rc, t, T, phi_arr, n)
    while True:
        n2 = 2 * n
        cur0, cur1 = _integrate(rc, t, T, phi_arr, n2)
        err = max(float(np.max(np.abs(cur0 - prev0))),
                  float(np.max(np.abs(cur1 - prev1))))
        if err < abs_tol:
            return _solution(rc, t, T, phi_arr, scalar, cur0, cur1, n2)
        if n2 >= max_n:
            raise RiccatiError(
                f"step-doubling did not reach tolerance {abs_tol:.1e} by "
                f"n={n2} (last change {err:.2e})")
        n, prev0, prev1 = n2, cur0, cur1


def solve_riccati_fixed(rc: RiccatiCoefficients, t: float, T: float, phi,
                        n_steps: int) -> CharFnSolution:
    """Single RK4 pass on a fixed grid, for convergence/diagnostic studies."""
    phi_arr, scalar = _as_phi_array(phi)
    _check_phi(phi_arr, PHI_MAX_DEFAULT)
    if not 0 <= t < T:
        raise ValueError(f"need 0 <= t < T, got t={t}, T={T}")
    psi0, psi1 = _integrate(rc, t, T, phi_arr, int(n_steps))
    return _solution(rc, t, T, phi_arr, scalar, psi0, psi1, n_steps)


def riccati_path(rc: RiccatiCoefficients, t: float, T: float, phi, n_steps: int):
    """Psi0, Psi1 on the whole grid, ordered by ascending time t.

    Returns (times, psi0, psi1) with times of length n_steps + 1 from t to T;
    row i of each psi array belongs to times[i].
    """
    phi_arr, scalar = _as_phi_array(phi)
    _check_phi(phi_arr, PHI_MAX_DEFAULT)
    if not 0 <= t < T:
        raise ValueError(f"need 0 <= t < T, got t={t}, T={T}")
    _, _, path0, path1 = _integrate(rc, t, T, phi_arr, int(n_steps), keep_path=True)
    times = np.linspace(t, T, int(n_steps) + 1)
    path = _solution(rc, t, T, phi_arr, scalar, path0[::-1], path1[::-1], n_steps)
    return times, path.psi0, path.psi1


def char_fn(sol: CharFnSolution, x: float, nu: float):
    """Q_hat_k = exp(Psi0 + nu Psi1 + i phi x); |char_fn| = e^{Re Psi0 + nu Re Psi1}."""
    if nu < 0:
        raise ValueError(f"nu must be non-negative, got {nu}")
    return np.exp(sol.psi0 + nu * sol.psi1 + 1j * np.asarray(sol.phi) * x)
