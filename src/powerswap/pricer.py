"""Option prices on electricity swaps: Fourier inversion, Monte-Carlo, Black-76.

The call price is e^{-r(T-t)} (e^x (1 - Q1) - K (1 - Q2)) where 1 - Q_k are
exercise probabilities recovered from the characteristic functions by

    1 - Q_k = 1/2 + (1/pi) Integral_0^inf Re(e^{-i phi ln K} Q_hat_k / (i phi)) dphi.

``price_fourier_many`` does all Fourier pricing in one pass.  It first
solves the transform of each k once: fixed-width panels with 32-point
Gauss-Legendre nodes, 16 panels per Riccati call, until max |Q_hat_k| / phi
stays below 1e-12 on two panels in a row.  Neither that truncation nor the
node values depend on the strike, so each strike is then one weighted sum
over the same nodes per k.  Puts follow from put-call parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtr

from .charfn import PHI_MAX_DEFAULT, RiccatiCoefficients, char_fn, solve_riccati
from .conditions import _warn_if_failed, check_novikov
from .models import (
    DeliveryPeriod,
    HestonParams,
    OptionSpec,
    VolStructure,
    WeightFunction,
)
from .simulate import GridSpec, Measure, simulate_terminal

__all__ = ["PriceResult", "PricingError", "TruncationError", "price_fourier",
           "price_fourier_many", "price_mc", "price_mc_many", "black76_oracle"]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_PANEL_WIDTH = 2.0
_BLOCK_PANELS = 16
_ENVELOPE_TOL = 1e-12
_PROB_SLACK = 1e-6


class PricingError(RuntimeError):
    """A pricing invariant failed beyond numerical slack."""


class TruncationError(PricingError):
    """The Fourier integrand had not decayed below tolerance by phi_max."""

    def __init__(self, message: str, partial: float, envelope: float):
        super().__init__(f"{message} (partial value {partial:.10g}, "
                         f"last envelope {envelope:.3e})")
        self.partial = partial
        self.envelope = envelope


@dataclass(frozen=True)
class PriceResult:
    call: float
    put: float
    q1: float
    q2: float
    method: str
    stderr: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _truncated_transform(rc: RiccatiCoefficients, t: float, T: float, x: float,
                         nu: float, phi_max: float, ode_tol: float) -> tuple:
    """(nodes, qhat, panels, envelope, converged) for one k, solving block by block."""
    n_panels = int(phi_max * (1.0 + 1e-12) // _PANEL_WIDTH)
    nodes, qhat = np.empty((0, _GL_NODES.size)), np.empty((0, _GL_NODES.size), complex)
    for start in range(0, n_panels, _BLOCK_PANELS):
        mid = np.arange(start, min(start + _BLOCK_PANELS, n_panels)) + 0.5
        block = _PANEL_WIDTH * (mid[:, None] + 0.5 * _GL_NODES)
        sol = solve_riccati(rc, t, T, block.ravel(), abs_tol=ode_tol, phi_max=phi_max)
        nodes = np.vstack([nodes, block])
        qhat = np.vstack([qhat, char_fn(sol, x, nu).reshape(block.shape)])
        below = np.max(np.abs(qhat) / nodes, axis=1) < _ENVELOPE_TOL
        hits = np.flatnonzero(below[:-1] & below[1:])
        if hits.size:
            panels, converged = int(hits[0]) + 2, True
            break
    else:
        panels, converged = len(nodes), False
    envelope = (float(np.max(np.abs(qhat[panels - 1]) / nodes[panels - 1]))
                if panels else np.inf)
    return nodes[:panels].ravel(), qhat[:panels].ravel(), panels, envelope, converged


def _finalize_prob(raw: float, k: int, diagnostics: dict) -> float:
    if raw < -_PROB_SLACK or raw > 1.0 + _PROB_SLACK:
        raise PricingError(
            f"exercise probability for k={k} is {raw}, outside [0, 1] beyond "
            f"slack {_PROB_SLACK}")
    clipped = min(max(raw, 0.0), 1.0)
    if clipped != raw:
        diagnostics[f"clamped_q{k}"] = raw
    return clipped


def price_fourier(p: HestonParams, vol: VolStructure, w: WeightFunction,
                  dp: DeliveryPeriod, opt: OptionSpec, t: float = 0.0,
                  x: float | None = None, nu: float | None = None,
                  phi_max: float = PHI_MAX_DEFAULT,
                  ode_tol: float = 1e-10) -> PriceResult:
    """Semi-analytic call/put price at state (t, x, nu); defaults to (0, ln f0, nu0).

    The put is filled from put-call parity, so parity holds by construction.
    """
    return price_fourier_many(p, vol, w, dp, [opt.strike], opt.exercise, t=t, x=x,
                              nu=nu, phi_max=phi_max, ode_tol=ode_tol)[0]


def price_fourier_many(p: HestonParams, vol: VolStructure, w: WeightFunction,
                       dp: DeliveryPeriod, strikes, exercise: float,
                       t: float = 0.0, x: float | None = None,
                       nu: float | None = None, phi_max: float = PHI_MAX_DEFAULT,
                       ode_tol: float = 1e-10) -> list[PriceResult]:
    """Fourier prices for several strikes from one truncated transform per k."""
    nov = check_novikov(p, vol, dp)
    _warn_if_failed("Novikov", nov.ok, nov.lhs, nov.rhs)
    x = np.log(p.f0) if x is None else x
    nu = p.nu0 if nu is None else nu
    if not t < exercise:
        raise ValueError(f"valuation time {t} must precede exercise {exercise}")
    if not exercise < dp.tau1:
        raise ValueError(f"exercise {exercise} must precede the delivery start {dp.tau1}")
    if not phi_max < np.inf:
        raise ValueError(f"phi_max must be finite, got {phi_max}")
    # the state is checked here so that a bad one costs no Riccati solve
    for name, value in (("x", x), ("nu", nu)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if nu < 0:
        raise ValueError(f"nu must be non-negative, got {nu}")
    specs = [OptionSpec(strike=float(k), exercise=float(exercise)) for k in strikes]
    t, T, x, nu, phi_max = float(t), float(exercise), float(x), float(nu), float(phi_max)
    # k = 2 differs from k = 1 only in alpha and beta_k, so both share one
    # decomposition (and, for GeneralSeparable, one moment cache)
    rc1 = RiccatiCoefficients.for_model(p, vol, w, dp, 1)
    transforms = {rc.k: _truncated_transform(rc, t, T, x, nu, phi_max, ode_tol)
                  for rc in (rc1, replace(rc1, k=2))}
    df = np.exp(-p.r * (T - t))
    fwd = np.exp(x)
    out = []
    for spec in specs:
        strike = spec.strike
        diagnostics = {"novikov_ok": nov.ok}
        q = {}
        for k, (nodes, qhat, panels, envelope, converged) in transforms.items():
            integrand = np.real(np.exp(-1j * nodes * np.log(strike)) * qhat / (1j * nodes))
            total = 0.5 * _PANEL_WIDTH * float(np.dot(np.tile(_GL_WEIGHTS, panels), integrand))
            raw = 0.5 + total / np.pi
            if not converged:
                raise TruncationError(
                    f"integrand envelope still {envelope:.3e} at phi_max={phi_max}",
                    partial=raw, envelope=envelope)
            diagnostics[f"panels_k{k}"] = panels
            diagnostics[f"phi_used_k{k}"] = panels * _PANEL_WIDTH
            q[k] = _finalize_prob(raw, k, diagnostics)
        call = df * (fwd * q[1] - strike * q[2])
        if call < 0.0:
            if call < -1e-10 * max(1.0, strike):
                raise PricingError(f"negative call price {call}")
            diagnostics["clamped_call"] = call
            call = 0.0
        put = call - df * (fwd - strike)
        if put < 0.0:
            if put < -1e-10 * max(1.0, strike):
                raise PricingError(f"negative put price {put}")
            diagnostics["clamped_put"] = put
            put = 0.0
            call = df * (fwd - strike)
        out.append(PriceResult(call=float(call), put=float(put), q1=q[1], q2=q[2],
                               method="fourier", stderr=None, diagnostics=diagnostics))
    return out


def price_mc(p: HestonParams, vol: VolStructure, w: WeightFunction,
             dp: DeliveryPeriod, opt: OptionSpec, g: GridSpec,
             measure: Measure = Measure.Q_TILDE, workers: int = 1) -> PriceResult:
    """Monte-Carlo price from terminal swap values; put priced on the same paths."""
    return price_mc_many(p, vol, w, dp, [opt.strike], opt.exercise, g,
                         measure=measure, workers=workers)[0]


def price_mc_many(p: HestonParams, vol: VolStructure, w: WeightFunction,
                  dp: DeliveryPeriod, strikes, exercise: float, g: GridSpec,
                  measure: Measure = Measure.Q_TILDE,
                  workers: int = 1) -> list[PriceResult]:
    """Monte-Carlo prices for several strikes from one terminal sample."""
    specs = [OptionSpec(strike=float(k), exercise=float(exercise)) for k in strikes]
    if g.t_end != exercise:
        raise ValueError(
            f"grid must end at the exercise time {exercise}, got {g.t_end}")
    term = simulate_terminal(p, vol, w, dp, g, measure=measure, workers=workers)
    f = term.f
    df = np.exp(-p.r * (g.t_end - g.t0))
    f_total = f.sum()
    n = g.n_paths
    out = []
    for spec in specs:
        call_pay = np.maximum(f - spec.strike, 0.0)
        put_pay = np.maximum(spec.strike - f, 0.0)
        call = df * float(call_pay.mean())
        put = df * float(put_pay.mean())
        stderr = df * float(call_pay.std(ddof=1)) / np.sqrt(n) if n > 1 else 0.0
        put_stderr = df * float(put_pay.std(ddof=1)) / np.sqrt(n) if n > 1 else 0.0
        in_money = f >= spec.strike
        q2 = float(in_money.mean())
        q1 = float(f[in_money].sum() / f_total) if f_total > 0 else 0.0
        diagnostics = {"n_paths": n, "n_steps": g.n_steps, "seed": g.seed,
                       "measure": measure.value, "put_stderr": put_stderr}
        out.append(PriceResult(call=call, put=put, q1=q1, q2=q2, method="mc",
                               stderr=stderr, diagnostics=diagnostics))
    return out


def black76_oracle(f: float, k: float, total_var: float,
                   df: float = 1.0) -> tuple[float, float]:
    """Lognormal call/put on a forward with total variance total_var.

    Validation oracle for the degenerate deterministic-variance case.  At
    total_var = 0 the price is the discounted intrinsic value; f = k with zero
    variance returns call = put = 0 (measure-zero boundary tie-break).
    """
    if not (f > 0 and k > 0):
        raise ValueError(f"f and k must be > 0, got f={f}, k={k}")
    if total_var < 0:
        raise ValueError(f"total_var must be >= 0, got {total_var}")
    if not 0 < df <= 1:
        raise ValueError(f"df must lie in (0, 1], got {df}")
    if total_var == 0.0:
        call = df * max(f - k, 0.0)
        put = df * max(k - f, 0.0)
        return call, put
    sd = np.sqrt(total_var)
    d_plus = (np.log(f / k) + 0.5 * total_var) / sd
    d_minus = d_plus - sd
    call = df * (f * ndtr(d_plus) - k * ndtr(d_minus))
    put = call - df * (f - k)
    return float(call), float(put)
