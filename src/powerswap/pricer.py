"""Option prices on electricity swaps: Fourier inversion, Monte-Carlo, Black-76.

The call price is e^{-r(T-t)} (e^x (1 - Q1) - K (1 - Q2)) where 1 - Q_k are
exercise probabilities recovered from the characteristic functions by

    1 - Q_k = 1/2 + (1/pi) Integral_0^inf Re(e^{-i phi ln K} Q_hat_k / (i phi)) dphi.

``price_fourier_many`` does all Fourier pricing in one pass.  It lays
fixed-width panels with 32-point Gauss-Legendre nodes, 16 panels per block,
and solves one stacked k = 2 Riccati system per block on the nodes
(phi, phi - i): the share-measure identity Q_hat_1(phi) = Q_hat_2(phi - i) / e^x
(Carr & Madan 1999, Lewis 2001) gives both transforms from that one solve.
Each k is truncated where max |Q_hat_k| / phi stays below 1e-12 on two
panels in a row.  Neither that truncation nor the node values depend on the
strike, so each strike is then one weighted sum over the same nodes per k.
Puts follow from put-call parity.

``price_mc_many`` is conditional ("mixing") Monte-Carlo (Willard 1997,
Romano & Touzi 1997): it simulates variance paths only, one normal per
path-step, and averages over them the Black-76 price of the swap given each
path.  Every strike is priced on the same paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .simulate import GridSpec, Measure, simulate_variance_integrals
# Not called here any more.  perfbench/tracing.py wraps this name on this
# module; it stays importable until the tracer wraps
# simulate_variance_integrals instead.
from .simulate import simulate_terminal  # noqa: F401

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
    """One option price.  ``stderr`` is the MC standard error of the call: the
    sample standard deviation of the per-path conditional (Black-76) calls,
    discounted, over sqrt(n_paths).  It is None for Fourier prices and for a
    single MC path, where it is undefined."""
    call: float
    put: float
    q1: float
    q2: float
    method: str
    stderr: float | None = None
    diagnostics: dict = field(default_factory=dict)


def _truncated_transforms(rc: RiccatiCoefficients, t: float, T: float, x: float,
                          nu: float, phi_max: float, ode_tol: float) -> dict:
    """{k: (nodes, qhat, panels, envelope, converged)}, solving block by block.

    Each block is one k = 2 solve on the stacked nodes (phi, phi - i):
    Q_hat_1(phi) = Q_hat_2(phi - i) / e^x.  Blocks are added until each k
    has its own two panels in a row below the envelope tolerance.
    """
    n_panels = int(phi_max * (1.0 + 1e-12) // _PANEL_WIDTH)
    nodes = np.empty((0, _GL_NODES.size))
    qhat = {k: np.empty((0, _GL_NODES.size), complex) for k in (1, 2)}
    panels = {}
    for start in range(0, n_panels, _BLOCK_PANELS):
        mid = np.arange(start, min(start + _BLOCK_PANELS, n_panels)) + 0.5
        block = _PANEL_WIDTH * (mid[:, None] + 0.5 * _GL_NODES)
        stacked = np.concatenate([block.ravel(), block.ravel() - 1j])
        sol = solve_riccati(rc, t, T, stacked, abs_tol=ode_tol, phi_max=phi_max)
        q2, q1 = char_fn(sol, x, nu).reshape((2,) + block.shape)
        nodes = np.vstack([nodes, block])
        qhat = {1: np.vstack([qhat[1], q1 / np.exp(x)]), 2: np.vstack([qhat[2], q2])}
        for k in (1, 2):
            below = np.max(np.abs(qhat[k]) / nodes, axis=1) < _ENVELOPE_TOL
            hits = np.flatnonzero(below[:-1] & below[1:])
            if hits.size:
                panels.setdefault(k, int(hits[0]) + 2)
        if len(panels) == 2:
            break
    out = {}
    for k in (1, 2):
        n, converged = panels.get(k, len(nodes)), k in panels
        envelope = float(np.max(np.abs(qhat[k][n - 1]) / nodes[n - 1])) if n else np.inf
        out[k] = nodes[:n].ravel(), qhat[k][:n].ravel(), n, envelope, converged
    return out


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
    """Fourier prices for several strikes from one stacked truncated transform."""
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
    rc = RiccatiCoefficients.for_model(p, vol, w, dp, 2)
    transforms = _truncated_transforms(rc, t, T, x, nu, phi_max, ode_tol)
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
    """Conditional Monte-Carlo price; the put is priced on the same variance paths."""
    return price_mc_many(p, vol, w, dp, [opt.strike], opt.exercise, g,
                         measure=measure, workers=workers)[0]


def _sample_stderr(values: np.ndarray, scale: float = 1.0) -> float | None:
    # one path has no sample spread: its standard error is undefined, not 0
    n = values.size
    return scale * float(values.std(ddof=1)) / np.sqrt(n) if n > 1 else None


def price_mc_many(p: HestonParams, vol: VolStructure, w: WeightFunction,
                  dp: DeliveryPeriod, strikes, exercise: float, g: GridSpec,
                  measure: Measure = Measure.Q_TILDE,
                  workers: int = 1) -> list[PriceResult]:
    """Conditional Monte-Carlo prices for several strikes from one sample of variance paths.

    Given its variance path, log F_T of the joint Euler scheme is Gaussian
    with mean x0 - D + rho J and variance (1 - rho^2) I (see
    ``simulate.VarianceIntegrals``), so each path contributes a Black-76 price
    on its conditional forward F_c = exp(x0 - D + rho J + (1 - rho^2) I / 2).
    This has the expectation and the discretisation bias of the payoff
    average over the joint scheme, with no more variance (Rao-Blackwell).
    Under Q_tilde, F_c = f0 exp(rho J - rho^2 I / 2) is an exact discrete
    martingale.  q2 is the mean of N(d-), q1 is sum F_c N(d+) / sum F_c, and
    the diagnostics report the mean and standard error of F_c.
    """
    specs = [OptionSpec(strike=float(k), exercise=float(exercise)) for k in strikes]
    if g.t_end != exercise:
        raise ValueError(
            f"grid must end at the exercise time {exercise}, got {g.t_end}")
    paths = simulate_variance_integrals(p, vol, w, dp, g, measure=measure,
                                        workers=workers)
    rho_bar2 = 1.0 - p.rho * p.rho
    f_c = np.exp(np.log(p.f0) - paths.drift + p.rho * paths.vol_dw
                 + 0.5 * rho_bar2 * paths.var)
    sd = np.sqrt(rho_bar2 * paths.var)
    f_total = f_c.sum()
    df = np.exp(-p.r * (g.t_end - g.t0))
    forward_stderr = _sample_stderr(f_c)
    out = []
    for spec in specs:
        call_pay, put_pay, n_plus, n_minus = _black76(f_c, spec.strike, sd)
        call = df * float(call_pay.mean())
        put = df * float(put_pay.mean())
        q2 = float(n_minus.mean())
        q1 = float(f_c @ n_plus / f_total) if f_total > 0 else 0.0
        diagnostics = {"n_paths": g.n_paths, "n_steps": g.n_steps, "seed": g.seed,
                       "measure": measure.value, "estimator": "conditional",
                       "put_stderr": _sample_stderr(put_pay, df),
                       "forward_mean": float(f_c.mean()),
                       "forward_stderr": forward_stderr}
        out.append(PriceResult(call=call, put=put, q1=q1, q2=q2, method="mc",
                               stderr=_sample_stderr(call_pay, df),
                               diagnostics=diagnostics))
    return out


def _black76(f: np.ndarray, k: float, sd: np.ndarray):
    """Undiscounted Black-76 call, put, N(d+) and N(d-), elementwise over (f, sd).

    Where sd = 0 the option is intrinsic: d+- = +inf for f >= k and -inf
    below, so f = k pays nothing either way.
    """
    m = np.log(f / k)
    spread = sd > 0
    d_plus = np.where(spread, m / np.where(spread, sd, 1.0) + 0.5 * sd,
                      np.where(m >= 0, np.inf, -np.inf))
    d_minus = d_plus - sd
    n_plus, n_minus = ndtr(d_plus), ndtr(d_minus)
    call = f * n_plus - k * n_minus
    put = k * ndtr(-d_minus) - f * ndtr(-d_plus)
    return call, put, n_plus, n_minus


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
    call, put, _, _ = _black76(f, k, np.sqrt(total_var))
    return float(df * call), float(df * put)
