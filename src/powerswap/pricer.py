"""Option prices on electricity swaps: Fourier inversion, Monte-Carlo, Black-76.

The call price is e^{-r(T-t)} (e^x (1 - Q1) - K (1 - Q2)) where 1 - Q_k are
exercise probabilities recovered from the characteristic functions by

    1 - Q_k = 1/2 + (1/pi) Integral_0^inf Re(e^{-i phi ln K} Q_hat_k / (i phi)) dphi.

``price_fourier_many`` does all Fourier pricing in one pass.  It lays
width-2 panels of Gauss-Legendre nodes in blocks of 16, 32, 64, ... panels,
each of at most 512 nodes, and solves one stacked k = 2 Riccati system per
block on the nodes (phi, phi - i): the share-measure identity
Q_hat_1(phi) = Q_hat_2(phi - i) / e^x (Carr & Madan 1999, Lewis 2001) gives
both transforms from that one solve.
Both are truncated where max |Q_hat_k| / phi is below 1e-12 for k = 1 and 2
on the same two panels in a row, or raise TruncationError at the solver's
fixed ceiling phi = 1e4.  The integrand of a strike K turns about as
e^{i phi (m -/+ v / 2)}, m = x - ln K and v the variance of ln F(T), and
falls off as e^{-phi^2 v / 2}, so a panel takes 8 nodes where the largest |m|
priced and a bound on v leave it smooth, and 32 elsewhere (Lord & Kahl
2007); neither the nodes nor the truncation depend on the strike otherwise,
so each strike is then one weighted sum over the nodes.  Puts follow from
put-call parity.

``price_mc_many`` is conditional ("mixing") Monte-Carlo (Willard 1997,
Romano & Touzi 1997) with control variates (Glasserman 2004, section 4.1):
it simulates variance paths only, one normal per path-step, takes the
Black-76 price of the swap given each path, and averages it less its
least-squares fit on two per-path quantities of known mean, J = sum S
sqrt(nu) dW_sigma (mean 0) and I = sum S^2 nu dt (mean from the scheme).
Every strike is priced on the same paths.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .charfn import _PHI_HARD_CAP, RiccatiCoefficients, char_fn, solve_riccati
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

_PANEL_WIDTH = 2.0
# Gauss-Legendre nodes per width-2 panel: few where the integrand turns and
# bends slowly over a panel, many elsewhere (see _nodes_per_panel)
_FEW_NODES, _MANY_NODES = 8, 32
# Panels in the first block.  Each further block doubles until it holds
# _MAX_BLOCK_NODES nodes per transform, one 16-panel block of 32-node panels.
# A right-hand side costs about 20 us per solve plus 30 ns per stacked node:
# larger blocks save that fixed cost while it dominates, and past this size
# they mostly add nodes beyond the truncation point: 32-node panels price
# slower in blocks of 32 or 64 panels than in blocks of 16.
_FIRST_BLOCK_PANELS = 16
_MAX_BLOCK_NODES = 16 * 32
_ENVELOPE_TOL = 1e-12
_PROB_SLACK = 1e-6


class PricingError(RuntimeError):
    """A pricing invariant failed beyond numerical slack."""


class TruncationError(PricingError):
    """The Fourier integrand had not decayed below tolerance by the ceiling on phi."""

    def __init__(self, message: str, partial: float, envelope: float):
        super().__init__(f"{message} (partial value {partial:.10g})")
        self.partial = partial
        self.envelope = envelope


@dataclass(frozen=True)
class PriceResult:
    """One option price.  ``stderr`` is the MC standard error of the call:
    the residual standard deviation (ddof = 3) of the per-path conditional
    (Black-76) calls after their least-squares fit on the controls J and
    I - E[I], discounted, over sqrt(n_paths).  With 2 or 3 paths there are
    no controls and it is the plain sample standard error (ddof = 1);
    ``diagnostics["raw_stderr"]`` always holds that uncontrolled figure.  It
    is None for Fourier prices and for a single MC path, where it is
    undefined.  A Fourier price's diagnostics repeat its one truncation point
    as panels_k1 == panels_k2 and phi_used_k1 == phi_used_k2, because
    perfbench/worker.py sums each pair; the keys merge with its next change."""
    call: float
    put: float
    q1: float
    q2: float
    method: str
    stderr: float | None = None
    diagnostics: dict = field(default_factory=dict)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only, built
    on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _nodes_per_panel(rc: RiccatiCoefficients, t: float, T: float, nu: float,
                     moneyness: float) -> int:
    """Gauss-Legendre nodes per width-2 panel for the largest |m| = |x - ln K|
    priced from the state (t, nu).

    Under measure k the integrand turns about as e^{i phi (m -/+ v / 2)} and
    falls off as e^{-phi^2 v / 2}, v the variance of ln F(T) (Lord & Kahl
    2007: the grid follows the integrand's oscillation).  E_k[v] is at most
    v_bar = nu_bar Integral_t^T S^2, nu_bar = max(nu, max kappa theta /
    beta_k) over both k, and the square-root process spreads v about its
    mean by d = sigma^2 max S^2 min((T - t)^2 / 3, 1 / min beta_k^2), its
    variance over its mean.  A panel takes _FEW_NODES where
    |m| + 1.5 v_bar (1 + 4 d) <= 1, and _MANY_NODES elsewhere or where some
    beta_k is not positive.  The constants were fitted on a scan of 624
    states (Samuelson, delivery- and trading-seasonal models, nu up to 9,
    exercise up to 2.9, sigma up to 2, Feller ratios down to 0.1) and
    checked on 382 more: where the rule takes 8 nodes, q1 and q2 stay
    within 2.4e-11 of 32 nodes per panel.
    """
    u, w = _gauss_legendre(8)
    u = t + 0.5 * (T - t) * (u + 1.0)
    s = np.broadcast_to(rc.big_s(u), u.shape)
    beta_2 = rc.kappa + rc.sigma_vv * rc.rho * np.broadcast_to(rc.xi(u), u.shape)
    beta_1 = beta_2 - rc.sigma_vv * rc.rho * s
    beta_min = min(beta_1.min(), beta_2.min())
    if not beta_min > 0:
        return _MANY_NODES
    kappa_theta = rc.kappa * np.broadcast_to(rc.theta(u), u.shape)
    nu_bar = max(nu, np.max(kappa_theta / np.minimum(beta_1, beta_2)))
    v_bar = nu_bar * 0.5 * (T - t) * (w @ (s * s))
    d = rc.sigma_vv ** 2 * np.max(s * s) * min((T - t) ** 2 / 3.0, 1.0 / beta_min ** 2)
    return _FEW_NODES if moneyness + 1.5 * v_bar * (1.0 + 4.0 * d) <= 1.0 else _MANY_NODES


def _truncated_transforms(rc: RiccatiCoefficients, t: float, T: float, x: float,
                          nu: float, ode_tol: float, gl_nodes: np.ndarray) -> tuple:
    """(nodes, qhat, envelope, work): nodes (n,), Q_hat_k in row k - 1 of qhat (2, n).

    Each width-2 panel carries the Gauss-Legendre nodes ``gl_nodes`` of
    [-1, 1].  ``work`` holds riccati_solves, riccati_steps and riccati_rhs,
    summed over the solves.  Each block is one k = 2 solve on the stacked
    nodes (phi, phi - i): Q_hat_1(phi) = Q_hat_2(phi - i) / e^x.  The solve
    is told nu, so that it weights each node's error by the size of its
    transform.  Blocks of 16, 32, 64, ... panels, each of at most
    ``_MAX_BLOCK_NODES`` nodes per transform, are added until both k have
    max |Q_hat_k| / phi below the envelope tolerance on the same two panels
    in a row; the arrays end there and the envelope is None.  At the ceiling
    ``_PHI_HARD_CAP`` it is the last panel's, inf with no panel.
    """
    n_panels = int(_PHI_HARD_CAP // _PANEL_WIDTH)
    nodes = [np.empty((0, gl_nodes.size))]
    qhat = [np.empty((2,) + nodes[0].shape, complex)]
    envelope = np.inf
    work = {"riccati_solves": 0, "riccati_steps": 0, "riccati_rhs": 0}
    max_size = _MAX_BLOCK_NODES // gl_nodes.size
    start, size = 0, _FIRST_BLOCK_PANELS
    while start < n_panels:
        mid = np.arange(start, min(start + size, n_panels)) + 0.5
        start, size = start + size, min(2 * size, max_size)
        block = _PANEL_WIDTH * (mid[:, None] + 0.5 * gl_nodes)
        stacked = np.concatenate([block.ravel(), block.ravel() - 1j])
        sol = solve_riccati(rc, t, T, stacked, abs_tol=ode_tol, nu=nu)
        work["riccati_solves"] += 1
        work["riccati_steps"] += sol.n_steps
        work["riccati_rhs"] += sol.n_rhs
        q2, q1 = char_fn(sol, x, nu).reshape((2,) + block.shape)
        q = np.stack([q1 / np.exp(x), q2])
        # led by the previous block's last panel, for a pair across the seam
        panel_envelope = np.append(envelope, np.max(np.abs(q) / block, axis=(0, 2)))
        below = panel_envelope < _ENVELOPE_TOL
        hits = np.flatnonzero(below[:-1] & below[1:])
        n = int(hits[0]) + 1 if hits.size else len(block)
        nodes.append(block[:n])
        qhat.append(q[:, :n])
        envelope = None if hits.size else float(panel_envelope[-1])
        if envelope is None:
            break
    return (np.concatenate(nodes).ravel(), np.concatenate(qhat, axis=1).reshape(2, -1),
            envelope, work)


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
                  ode_tol: float = 1e-10) -> PriceResult:
    """Semi-analytic call/put price at state (t, x, nu); defaults to (0, ln f0, nu0).

    The put is filled from put-call parity, so parity holds by construction.
    """
    return price_fourier_many(p, vol, w, dp, [opt.strike], opt.exercise, t=t, x=x,
                              nu=nu, ode_tol=ode_tol)[0]


def price_fourier_many(p: HestonParams, vol: VolStructure, w: WeightFunction,
                       dp: DeliveryPeriod, strikes, exercise: float,
                       t: float = 0.0, x: float | None = None,
                       nu: float | None = None,
                       ode_tol: float = 1e-10) -> list[PriceResult]:
    """Fourier prices for several strikes from one stacked truncated transform.

    ``ode_tol`` is the Riccati abs_tol.  It bounds each step's local error
    in Psi = (Psi0, Psi1) at the nodes where |Q_hat_k| at the state's nu is
    at least 1e-2; where the transform is smaller the bound is up to 1e6
    ode_tol (``charfn.solve_riccati`` with nu), as a price feels an error in
    Psi there only in proportion to |Q_hat_k|.  The diagnostics add
    ``nodes_per_panel``, the Gauss-Legendre nodes per width-2 panel (8 or
    32) that the largest |x - ln K| over ``strikes`` and the variance to
    exercise select, ``riccati_solves``, one per block, and
    ``riccati_steps`` and ``riccati_rhs``, the accepted steps and
    right-hand-side evaluations summed over those solves.
    """
    nov = check_novikov(p, vol, dp)
    _warn_if_failed("Novikov", nov.ok, nov.lhs, nov.rhs)
    x = np.log(p.f0) if x is None else x
    nu = p.nu0 if nu is None else nu
    if not t < exercise:
        raise ValueError(f"valuation time {t} must precede exercise {exercise}")
    if not exercise < dp.tau1:
        raise ValueError(f"exercise {exercise} must precede the delivery start {dp.tau1}")
    # the state is checked here so that a bad one costs no Riccati solve
    for name, value in (("x", x), ("nu", nu)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if nu < 0:
        raise ValueError(f"nu must be non-negative, got {nu}")
    specs = [OptionSpec(strike=float(k), exercise=float(exercise)) for k in strikes]
    if not specs:
        return []
    t, T, x, nu = float(t), float(exercise), float(x), float(nu)
    rc = RiccatiCoefficients.for_model(p, vol, w, dp, 2)
    moneyness = max(abs(x - np.log(spec.strike)) for spec in specs)
    n_nodes = _nodes_per_panel(rc, t, T, nu, moneyness)
    gl_nodes, gl_weights = _gauss_legendre(n_nodes)
    nodes, qhat, envelope, work = _truncated_transforms(rc, t, T, x, nu, ode_tol, gl_nodes)
    panels = nodes.size // n_nodes
    # 1 - Q_k = 1/2 + Re(terms[k - 1] @ e^{-i phi ln K}), weights and 1 / (pi i phi) folded in
    terms = qhat * (0.5 * _PANEL_WIDTH / np.pi) * np.tile(gl_weights, panels) / (1j * nodes)

    def exercise_probs(strike: float) -> np.ndarray:
        return 0.5 + np.real(terms @ np.exp(-1j * nodes * np.log(strike)))

    if envelope is not None:
        raise TruncationError(
            f"integrand envelope still {envelope:.3e} at the ceiling phi = {_PHI_HARD_CAP:g}",
            partial=float(exercise_probs(specs[0].strike)[0]), envelope=envelope)
    truncation = {"panels_k1": panels, "phi_used_k1": panels * _PANEL_WIDTH,
                  "panels_k2": panels, "phi_used_k2": panels * _PANEL_WIDTH,
                  "nodes_per_panel": n_nodes, **work}
    df = np.exp(-p.r * (T - t))
    fwd = np.exp(x)
    out = []
    for spec in specs:
        strike = spec.strike
        diagnostics = {"novikov_ok": nov.ok, **truncation}
        raw1, raw2 = exercise_probs(strike)
        q1 = _finalize_prob(float(raw1), 1, diagnostics)
        q2 = _finalize_prob(float(raw2), 2, diagnostics)
        call = df * (fwd * q1 - strike * q2)
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
        out.append(PriceResult(call=float(call), put=float(put), q1=q1, q2=q2,
                               method="fourier", stderr=None, diagnostics=diagnostics))
    return out


def price_mc(p: HestonParams, vol: VolStructure, w: WeightFunction,
             dp: DeliveryPeriod, opt: OptionSpec, g: GridSpec,
             measure: Measure = Measure.Q_TILDE, workers: int = 1) -> PriceResult:
    """Conditional Monte-Carlo price; the put is priced on the same variance paths."""
    return price_mc_many(p, vol, w, dp, [opt.strike], opt.exercise, g,
                         measure=measure, workers=workers)[0]


def _sample_stderr(values: np.ndarray, scale: float = 1.0,
                   ddof: int = 1) -> float | None:
    # with no more samples than fitted means (one path, for the plain mean)
    # the standard error is undefined, not 0
    n = values.size
    return scale * float(values.std(ddof=ddof)) / np.sqrt(n) if n > ddof else None


def _less_control_fit(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y - c beta per path, for the least-squares fit of y on design = [1, c].

    Its mean is the control-variate estimate of E[y] when the controls c have
    mean 0, and its spread about that mean is the fit's residual.  lstsq
    copes with a rank-deficient design (I = E[I] when sigma_vv = 0), and the
    estimate does not depend on how it then splits the constant between the
    intercept and a control.
    """
    beta = np.linalg.lstsq(design, y, rcond=None)[0]
    return y - design[:, 1:] @ beta[1:]


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
    The call and the put are each averaged less their least-squares fit on
    the controls J and I - E[I], which have mean 0 under either measure;
    F_c - f0 would not serve, as F is a martingale under Q_tilde only.  With
    3 paths or fewer the plain averages are reported and
    diagnostics["controls"] is [].  Under Q_tilde, F_c = f0 exp(rho J -
    rho^2 I / 2) is an exact discrete martingale.  q2 is the mean of N(d-),
    q1 is sum F_c N(d+) / sum F_c, and the diagnostics report the plain mean
    and standard error of F_c, and the plain standard error of the call.
    """
    specs = [OptionSpec(strike=float(k), exercise=float(exercise)) for k in strikes]
    if not exercise < dp.tau1:
        raise ValueError(f"exercise {exercise} must precede the delivery start {dp.tau1}")
    if g.t_end != exercise:
        raise ValueError(
            f"grid must end at the exercise time {exercise}, got {g.t_end}")
    if not specs:
        return []
    paths = simulate_variance_integrals(p, vol, w, dp, g, measure=measure,
                                        workers=workers)
    rho_bar2 = 1.0 - p.rho * p.rho
    f_c = np.exp(np.log(p.f0) - paths.drift + p.rho * paths.vol_dw
                 + 0.5 * rho_bar2 * paths.var)
    sd = np.sqrt(rho_bar2 * paths.var)
    f_total = f_c.sum()
    df = np.exp(-p.r * (g.t_end - g.t0))
    forward_stderr = _sample_stderr(f_c)
    controls = ["J", "I"] if g.n_paths > 3 else []
    ddof = 1 + len(controls)
    if controls:
        design = np.column_stack([np.ones(g.n_paths), paths.vol_dw,
                                  paths.var - paths.var_mean])
    out = []
    for spec in specs:
        call_pay, put_pay, n_plus, n_minus = _black76(f_c, spec.strike, sd)
        raw_stderr = _sample_stderr(call_pay, df)
        if controls:
            call_pay = _less_control_fit(design, call_pay)
            put_pay = _less_control_fit(design, put_pay)
        call = df * float(call_pay.mean())
        put = df * float(put_pay.mean())
        q2 = float(n_minus.mean())
        q1 = float(f_c @ n_plus / f_total) if f_total > 0 else 0.0
        diagnostics = {"n_paths": g.n_paths, "n_steps": g.n_steps, "seed": g.seed,
                       "measure": measure.value, "estimator": "conditional",
                       "controls": list(controls), "raw_stderr": raw_stderr,
                       "put_stderr": _sample_stderr(put_pay, df, ddof),
                       "forward_mean": float(f_c.mean()),
                       "forward_stderr": forward_stderr}
        out.append(PriceResult(call=call, put=put, q1=q1, q2=q2, method="mc",
                               stderr=_sample_stderr(call_pay, df, ddof),
                               diagnostics=diagnostics))
    return out


def _black76(f: np.ndarray, k: float, sd: np.ndarray):
    """Undiscounted Black-76 call, put, N(d+) and N(d-), elementwise over (f, sd).

    Where sd = 0 the option is intrinsic: d+- = +inf for f >= k and -inf
    below, so f = k pays nothing either way.
    """
    # local import: scipy.special costs ~0.3 s to load, and Fourier prices never use it
    from scipy.special import ndtr

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
