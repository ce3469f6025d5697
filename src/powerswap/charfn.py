"""Riccati ODE systems and characteristic functions for the swap option pricer.

For k = 1, 2 the exponential-affine transform Q_hat_k = exp(Psi0 + nu Psi1 + i phi x)
requires, backward in time with zero terminal data,

    dPsi1/dt = -sigma^2/2 Psi1^2 + (beta_k(t) - i rho sigma S(t) phi) Psi1
               + (phi^2/2 - i alpha_k phi) S(t)^2,
    dPsi0/dt = -kappa theta(t) Psi1,

with alpha_1 = 1/2, alpha_2 = -1/2, beta_1 = kappa + sigma rho (xi(t) - S(t)),
beta_2 = kappa + sigma rho xi(t).  Time dependence of S and xi rules out the
textbook log-linear solution, so the system is integrated numerically in
s = T - t with the Dormand-Prince 5(4) pair (Dormand & Prince 1980; Hairer,
Norsett & Wanner, Solving ODEs I, sec. II.5), the whole node batch in one
solve with one step size.  One step routine serves every entry point:
``solve_riccati`` adapts the step size to a tolerance, while
``solve_riccati_fixed`` and ``riccati_path`` take equal steps on a fixed grid
for convergence and residual studies.  Psi0 is advanced inside the same
stages as Psi1, which avoids any complex-logarithm branch tracking.  phi may
be complex: the k = 2 system at phi - i is the k = 1 system at phi, which
lets the pricer solve one system for both transforms.

The adaptive tolerance abs_tol bounds each step's local error in every
component of Psi, relative to 1 + |Psi|.  Given the variance nu at which
Q_hat will be read, ``solve_riccati`` instead weights each node's bound by
the size of its transform (a component-weighted norm, Hairer, Norsett &
Wanner sec. II.4): nodes with |Q_hat| >= 1e-2 keep abs_tol, smaller ones get
up to 1e6 times more room, as a price integrates Q_hat and feels an error
in Psi there only in proportion to |Q_hat| (Lord & Kahl 2007).  The
high-phi nodes of a block, whose transform has all but decayed, then no
longer set the step count of the whole block.
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
    _require_positive_int,
)

__all__ = ["RiccatiCoefficients", "CharFnSolution", "RiccatiError",
           "solve_riccati", "solve_riccati_fixed", "riccati_path", "char_fn",
           "PHI_MAX_DEFAULT"]

PHI_MAX_DEFAULT = 400.0
_PHI_HARD_CAP = 1e4
# attempted steps (accepted or rejected) before an adaptive solve gives up
_MAX_STEPS = 10_000
# below about 100 ulp the error estimate is rounding noise, so a tighter
# abs_tol would be "met" without being achieved (solve_ivp and ode45 apply
# the same floor to their relative tolerance)
_MIN_ABS_TOL = 100 * np.finfo(float).eps

# Transform-weighted step control (solve_riccati with nu): a node's error
# scale is divided by w = clip(|Q_hat| / _QHAT_FULL_CONTROL, _WEIGHT_FLOOR, 1).
# As w <= 1 no scale is tighter than without nu, and nodes with
# |Q_hat| >= 1e-2 are controlled exactly as without it.  The floor keeps Psi
# within about 1e-4 (1 + |Psi|) at nodes near the pricer's truncation level,
# so its envelope test still reads |Q_hat| correctly.  The threshold bounds
# how far a loose ode_tol moves prices: at ode_tol 1e-6 the bench ladder's
# calls lie 5.7e-9 from its recorded references with 1e-2, as unweighted,
# but 6.9e-9 with 0.1 and 2.7e-8, past the bench's 1e-8 check, with 1.
_QHAT_FULL_CONTROL = 1e-2
_WEIGHT_FLOOR = 1e-6

# Dormand-Prince 5(4): stage times, stage weights (row 6 is the 5th-order
# solution, so its last stage is the next step's first) and the weights of
# the embedded error estimate, 5th minus 4th order
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = tuple(np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])


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
    """Psi0, Psi1 at (t, T) for one or more Fourier arguments phi.

    ``n_steps`` counts accepted steps (the grid size on a fixed grid) and
    ``n_rhs`` the right-hand-side evaluations, each over the whole batch.
    """
    k: int
    t: float
    T: float
    phi: np.ndarray | float
    psi0: np.ndarray | complex
    psi1: np.ndarray | complex
    n_steps: int
    n_rhs: int


def _check_phi(phi_arr: np.ndarray, phi_max: float) -> None:
    if not 0 < phi_max <= _PHI_HARD_CAP:
        raise ValueError(f"phi_max must lie in (0, {_PHI_HARD_CAP}]")
    if np.any(np.abs(phi_arr.real) > phi_max):
        raise ValueError(
            f"|Re phi| exceeds the configured maximum {phi_max}")


def _as_phi_array(phi) -> tuple[np.ndarray, bool]:
    phi_arr = np.asarray(phi)
    phi_arr = phi_arr.astype(complex if np.iscomplexobj(phi_arr) else float)
    scalar = phi_arr.ndim == 0
    return (phi_arr.reshape(1) if scalar else phi_arr), scalar


def _solution(rc, t, T, phi_arr, scalar, psi0, psi1, n_steps, n_rhs) -> CharFnSolution:
    """Package Psi0, Psi1 (node axis last); a scalar phi drops that axis."""
    fields = (phi_arr, psi0, psi1)
    if scalar:
        fields = tuple(a[..., 0] for a in fields)
    phi, psi0, psi1 = (a.item() if a.ndim == 0 else a for a in fields)
    return CharFnSolution(k=rc.k, t=t, T=T, phi=phi, psi0=psi0, psi1=psi1,
                          n_steps=int(n_steps), n_rhs=int(n_rhs))


def _dp_system(rc: RiccatiCoefficients, T: float, phi: np.ndarray):
    """Dormand-Prince steps in s = T - t' on the state y = (Psi1 nodes, Psi0 nodes).

    phi is flat.  Returns (y, stages, step): the zero terminal state, the
    stage array with row 0 holding the slope there, and step(y, s, h), which
    fills rows 1-6 for the step from s to s + h and returns the 5th-order
    solution.  Row 6 is then the slope at that solution; a caller that takes
    the step copies it to row 0 (first same as last).
    """
    half_sig2 = 0.5 * rc.sigma_vv * rc.sigma_vv
    n = phi.size
    rot = 1j * rc.rho * rc.sigma_vv * phi
    const_phi = 0.5 * phi * phi - 1j * rc.alpha * phi   # multiplies S(t)^2
    kappa = rc.kappa

    def coefficients(s):
        """(S, beta_k, kappa theta) at t' = T - s, one row per time in s."""
        t_here = T - s
        return np.stack([rc.big_s(t_here), rc.beta(t_here),
                         kappa * np.asarray(rc.theta(t_here))], axis=-1)

    def rhs(y, coef, out):
        """(dPsi1/ds, dPsi0/ds) at state y, written into out."""
        s_here, beta, kappa_theta = coef
        p1 = y[:n]
        out[:n] = (half_sig2 * p1 - beta + s_here * rot) * p1 - (s_here * s_here) * const_phi
        np.multiply(kappa_theta, p1, out=out[n:])

    def step(y, s, h):
        # stages 5 and 6 share the time s + h
        coef = coefficients(s + h * _DP_C[1:6])
        for i in range(1, 7):
            y_stage = y + h * (_DP_A[i] @ stages[:i])
            rhs(y_stage, coef[min(i, 5) - 1], stages[i])
        return y_stage

    y = np.zeros(2 * n, dtype=complex)
    stages = np.empty((7, 2 * n), dtype=complex)
    rhs(y, coefficients(0.0), stages[0])
    return y, stages, step


def _transform_weight(y: np.ndarray, y_new: np.ndarray, nu: float) -> np.ndarray:
    """clip(|Q_hat| / _QHAT_FULL_CONTROL, _WEIGHT_FLOOR, 1) per node.

    |Q_hat| is the larger of its values at y and y_new, and
    |Q_hat| = e^{Re(Psi0 + nu Psi1)}: the i phi x term has modulus 1 for
    real phi, and on a stacked row phi - i it only adds the factor e^x that
    Q_hat_1(phi) = Q_hat_2(phi - i) / e^x removes again.  Taken in logs, so
    that no |Q_hat| overflows.
    """
    n = y.size // 2
    log_q = np.maximum((y[n:] + nu * y[:n]).real, (y_new[n:] + nu * y_new[:n]).real)
    return np.exp(np.clip(log_q - np.log(_QHAT_FULL_CONTROL), np.log(_WEIGHT_FLOOR), 0.0))


def _dormand_prince(rc: RiccatiCoefficients, t: float, T: float, phi: np.ndarray,
                    abs_tol: float, nu: float | None = None):
    """Adaptive steps from s = 0 to s = T - t.

    A step is accepted when every component's error estimate is at most
    abs_tol (1 + max(|y|, |y_new|)); with nu given, both components of a node
    divide that scale by the node's ``_transform_weight``.  A non-finite
    trial step is rejected.  Returns (psi0, psi1, accepted steps, rhs
    evaluations).
    """
    span = T - t
    shape, phi = phi.shape, phi.ravel()
    n = phi.size
    y, stages, step = _dp_system(rc, T, phi)
    s, h, n_rhs, accepted = 0.0, span / 16.0, 1, 0
    for _ in range(_MAX_STEPS):
        h = min(h, span - s)
        y_new = step(y, s, h)
        n_rhs += 6
        scale = abs_tol * (1.0 + np.maximum(np.abs(y), np.abs(y_new)))
        if nu is not None:
            scale = (scale.reshape(2, n) / _transform_weight(y, y_new, nu)).ravel()
        err = float(np.max(np.abs(h * (_DP_E @ stages)) / scale))
        if not (np.isfinite(err) and np.isfinite(y_new).all()):
            err = np.inf
        if err <= 1.0:
            s = span if h == span - s else s + h
            y, accepted = y_new, accepted + 1
            stages[0] = stages[6]
            if s == span:
                return y[n:].reshape(shape), y[:n].reshape(shape), accepted, n_rhs
        h *= min(max(0.9 * err ** -0.2, 0.2), 5.0) if err > 0 else 5.0
        if s + h == s:
            raise RiccatiError(
                f"Riccati step size underflow near t = {T - s:.6g}", t_fail=T - s)
    raise RiccatiError(
        f"Riccati solve stopped after {_MAX_STEPS} steps near t = {T - s:.6g}",
        t_fail=T - s)


def _fixed_grid(rc: RiccatiCoefficients, t: float, T: float, phi, n_steps: int):
    """n_steps equal steps from s = 0 to s = T - t.

    Returns (phi array, scalar flag, psi0 path, psi1 path); row j of a path
    belongs to s = j (T - t) / n_steps.  A non-finite state raises
    RiccatiError with the time reached as ``t_fail``.
    """
    phi_arr, scalar = _as_phi_array(phi)
    _check_phi(phi_arr, PHI_MAX_DEFAULT)
    if not 0 <= t < T:
        raise ValueError(f"need 0 <= t < T, got t={t}, T={T}")
    _require_positive_int("n_steps", n_steps)
    h = (T - t) / n_steps
    n = phi_arr.size
    with np.errstate(over="ignore", invalid="ignore"):
        y, stages, step = _dp_system(rc, T, phi_arr.ravel())
        path = np.empty((n_steps + 1, 2 * n), dtype=complex)
        path[0] = y
        for j in range(n_steps):
            y = path[j + 1] = step(y, j * h, h)
            if not np.isfinite(y).all():
                t_fail = T - (j + 1) * h
                raise RiccatiError(
                    f"Riccati solution blew up near t = {t_fail:.6g}", t_fail=t_fail)
            stages[0] = stages[6]
    rows = (n_steps + 1,) + phi_arr.shape
    return phi_arr, scalar, path[:, n:].reshape(rows), path[:, :n].reshape(rows)


def solve_riccati(rc: RiccatiCoefficients, t: float, T: float, phi,
                  abs_tol: float = 1e-10,
                  phi_max: float = PHI_MAX_DEFAULT,
                  nu: float | None = None) -> CharFnSolution:
    """Solve for Psi0, Psi1 at time t with adaptive Dormand-Prince 5(4).

    phi may be a real or complex scalar or array, solved as one vectorized
    batch with one step size.  Without ``nu``, abs_tol bounds every step's
    local error estimate in each component of Psi0 and Psi1, relative to
    1 + |Psi|.  With ``nu``, the variance at which the caller will read
    Q_hat = exp(Psi0 + nu Psi1 + i phi x), a node's bound is divided by
    clip(|Q_hat| / 1e-2, 1e-6, 1): nodes whose transform is at least 1e-2
    are held to abs_tol as without ``nu``, and smaller ones, which a price
    feels proportionally less, to at most 1e6 abs_tol.  Step-size underflow,
    a blow-up that no step size avoids, or more than ``_MAX_STEPS``
    attempted steps raise RiccatiError with the time reached as ``t_fail``;
    so does an abs_tol below ``_MIN_ABS_TOL``, before any step.
    """
    phi_arr, scalar = _as_phi_array(phi)
    _check_phi(phi_arr, phi_max)
    if not 0 <= t <= T:
        raise ValueError(f"need 0 <= t <= T, got t={t}, T={T}")
    if nu is not None and not 0 <= nu < np.inf:
        raise ValueError(f"nu must be finite and non-negative, got {nu}")
    if not abs_tol >= _MIN_ABS_TOL:
        raise RiccatiError(f"abs_tol {abs_tol:.1e} is below {_MIN_ABS_TOL:.1e}, which "
                           f"double-precision error control cannot reach", t_fail=T)
    if t == T:
        z = np.zeros(phi_arr.shape, dtype=complex)
        return _solution(rc, t, T, phi_arr, scalar, z, z.copy(), 0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        psi0, psi1, n_steps, n_rhs = _dormand_prince(rc, t, T, phi_arr, abs_tol, nu)
    return _solution(rc, t, T, phi_arr, scalar, psi0, psi1, n_steps, n_rhs)


def solve_riccati_fixed(rc: RiccatiCoefficients, t: float, T: float, phi,
                        n_steps: int) -> CharFnSolution:
    """Psi0, Psi1 at time t after n_steps equal Dormand-Prince steps.

    The endpoint of ``riccati_path`` on the same grid, bit for bit.
    """
    phi_arr, scalar, path0, path1 = _fixed_grid(rc, t, T, phi, n_steps)
    return _solution(rc, t, T, phi_arr, scalar, path0[-1], path1[-1], n_steps,
                     6 * n_steps + 1)


def riccati_path(rc: RiccatiCoefficients, t: float, T: float, phi, n_steps: int):
    """Psi0, Psi1 on the whole grid, ordered by ascending time t.

    Returns (times, psi0, psi1) with times of length n_steps + 1 from t to T;
    row i of each psi array belongs to times[i].
    """
    phi_arr, scalar, path0, path1 = _fixed_grid(rc, t, T, phi, n_steps)
    times = np.linspace(t, T, n_steps + 1)
    path = _solution(rc, t, T, phi_arr, scalar, path0[::-1], path1[::-1], n_steps,
                     6 * n_steps + 1)
    return times, path.psi0, path.psi1


def char_fn(sol: CharFnSolution, x: float, nu: float):
    """Q_hat_k = exp(Psi0 + nu Psi1 + i phi x); |char_fn| = e^{Re Psi0 + nu Re Psi1}."""
    if nu < 0:
        raise ValueError(f"nu must be non-negative, got {nu}")
    return np.exp(sol.psi0 + nu * sol.psi1 + 1j * np.asarray(sol.phi) * x)
