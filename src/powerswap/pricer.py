"""Option prices on electricity swaps: Fourier inversion, Monte-Carlo, Black-76.

The call price is e^{-r(T-t)} (e^x (1 - Q1) - K (1 - Q2)) where 1 - Q_k are
exercise probabilities recovered from the characteristic functions by

    1 - Q_k = 1/2 + (1/pi) Integral_0^inf Re(e^{-i phi ln K} Q_hat_k / (i phi)) dphi.

``price_fourier_many`` does all Fourier pricing in one pass, on nodes
mapped from u in (0, 1] by phi = -ln(u) / C (Kahl & Jaeckel 2005; Lord &
Kahl 2007), with C read from the model before any solve.  All nodes of
Fejer's second rule in u go into one stacked k = 2 Riccati solve on (phi,
phi - i): the share-measure identity Q_hat_1(phi) = Q_hat_2(phi - i) / e^x
(Carr & Madan 1999, Lewis 2001) gives both transforms from it.  Models
with a closed form (``RiccatiCoefficients.closed_form``: S and xi with a
decay rate, ``SwapVolDecomposition.lam``, a constant theta and
sigma_vv > 0, and for lam > 0 kappa / lam away from the integers) take it
on the same rows instead, and ``ode_tol`` binds nothing there; the pricer
calls its unchecked core, ``charfn._closed_form``, since the nodes it
builds pass every check of ``solve_riccati_closed_form`` by construction
but Samuelson's bounds on the Kummer argument and on the cancellation in
Psi0, which the core tests itself.  A chunk of nodes past them, or whose closed form is not all
finite, is solved by DOP853.  The rule is nested, so its every second node
gives each price an error estimate, and the rule doubles, solving only its
new nodes, until that is below 1e-10.  Each strike is then one weighted
sum over the nodes, all strikes in one ``einsum`` that sums each strike in
an order the others do not change, so that on the same rule a strike
prices bit for bit alike alone and in any ladder.  Puts follow from
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
import math
from dataclasses import dataclass, field

import numpy as np

from .charfn import (
    _PHI_HARD_CAP,
    RiccatiCoefficients,
    _check_abs_tol,
    _closed_form,
    solve_riccati,
)
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

_MIN_NODES, _MAX_NODES = 128, 2 ** 16   # per Fejer rule
# a solve takes the step count of its highest nodes, so past this many
# nodes the lower ones are solved apart
_SOLVE_NODES = 2048
# ln of the fall of |Q_hat| at phi_est, about ln(1e12 phi); the map puts
# phi_est at u = e^{-_MAP_DEPTH}
_DECAY_LOG, _MAP_DEPTH = 33.0, 3.0
_QUADRATURE_TOL = 1e-10
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
    undefined.  A Fourier price's diagnostics repeat its largest node as
    phi_used_k1 == phi_used_k2, because perfbench/worker.py reads each."""
    call: float
    put: float
    q1: float
    q2: float
    method: str
    stderr: float | None = None
    diagnostics: dict = field(default_factory=dict)


@functools.cache
def _fejer2(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fejer's second rule on (0, 1), read-only, built on first use: nodes
    u_k = (1 + cos(k pi / n)) / 2, k = 1 .. n - 1, weights by one inverse
    FFT (Waldvogel 2006), and -ln u_k, the nodes in phi at a map scale of 1.
    For even n the rule of n / 2 is the odd indices."""
    odd = np.arange(1, n, 2)
    moments = np.concatenate([2.0 / (odd * (odd - 2.0)), [1.0 / odd[-1]], np.zeros(n // 2)])
    weights = 0.5 * np.fft.ifft(-moments[:-1] - moments[:0:-1]).real[1:]
    nodes = 0.5 * (1.0 + np.cos(np.arange(1, n) * np.pi / n))
    minus_log = -np.log(nodes)
    nodes.flags.writeable = weights.flags.writeable = minus_log.flags.writeable = False
    return nodes, weights, minus_log


def _decay_point(rc: RiccatiCoefficients, t: float, T: float, nu: float) -> float:
    """phi_est, about where |Q_hat_k| from the state (t, nu) has fallen by e^-L.

    log |Q_hat| falls as -phi^2 v / 2 for small phi, v = Integral_t^T S^2 m
    on the mean variance path m(u) = nu e^{-beta_2 (u - t)} + kappa theta (1
    - e^{-beta_2 (u - t)}) / beta_2 (beta_2 clipped above 0), and as -C_inf phi
    for large phi: Psi1 at t tends to -sqrt(1 - rho^2) S(t) phi / sigma
    (Kahl & Jaeckel 2005), so C_inf = sqrt(1 - rho^2) (nu S(t) + Integral_t^T
    kappa theta S) / sigma, infinite at sigma = 0.  phi_est = max(sqrt(2 L /
    v), L / C_inf), the integrals on the Fejer rule of 16.  The curves are read
    unchecked: the caller has refused an exercise past tau1.
    """
    u, w = _fejer2(16)[:2]
    u, w = t + (T - t) * u, (T - t) * w
    # S, xi and theta each return an array of u's shape
    s = rc.big_s(u, check=False)
    beta = np.maximum(rc.kappa + rc.sigma_vv * rc.rho * rc.xi(u, check=False), 1e-12)
    kappa_theta = rc.kappa * rc.theta(u)
    fall = -np.expm1(-beta * (u - t))   # 1 - e^{-beta_2 (u - t)}
    v = w @ (s * s * (nu * (1.0 - fall) + kappa_theta * fall / beta))
    decay = np.sqrt(1.0 - rc.rho ** 2) * (nu * rc.big_s(t, check=False)
                                          + w @ (kappa_theta * s))
    phi_linear = _DECAY_LOG * rc.sigma_vv / decay if decay > 0 else np.inf
    return max(np.sqrt(2.0 * _DECAY_LOG / v) if v > 0 else np.inf, phi_linear)


def _exercise_probs(rc: RiccatiCoefficients, t: float, T: float, x: float, nu: float,
                    ode_tol: float, log_strikes: np.ndarray) -> tuple:
    """(probs, errors, info): 1 - Q_k in row k - 1 of probs (2, strikes), each
    strike's quadrature error estimate, and the diagnostics they share.

    phi = -ln(u) / C, C = 3 / phi_est with phi_est at most the ceiling
    ``_PHI_HARD_CAP``, makes the integral one over u in (0, 1], on Fejer's
    second rule with weights w_k / (C u_k) in phi.  The first rule has 128
    nodes, or up to one per radian of the fastest turn e^{i phi (x - ln K)}
    over phi < phi_est.  Nodes past 1.5 phi_est, where |Q_hat_k| < e^{-1.5 L}
    if phi_est holds, are not solved; if max |Q_hat_k| / phi at the last one
    solved is still ``_ENVELOPE_TOL`` or more, the map starts again from 4
    phi_est.  Past the ceiling nodes are dropped, and the same test failing
    there raises TruncationError, whose partial value sums the nodes solved
    by then.  Nodes are solved ``_SOLVE_NODES`` at a time, the chunk that
    holds the last kept node first, so that the test costs one solve.  Each
    solve is told nu, to weight each node's error by the size of its
    transform.  A strike's estimate is
    max_k |F_n - F_{n/2}|, F_{n/2} the nested rule; while one passes
    ``_QUADRATURE_TOL`` the rule doubles, up to ``_MAX_NODES``, past which
    PricingError names it.
    """
    # Riccati solves, accepted steps, rhs evaluations, DOP853 solves
    work = np.zeros(4, int)
    phi_est = min(_decay_point(rc, t, T, nu), _PHI_HARD_CAP)
    n = 0   # no rule yet on the map of phi_est
    while True:
        if not n:
            n = _MIN_NODES
            turns = np.max(np.abs(x - log_strikes)) * phi_est
            while n < min(turns, _MAX_NODES):
                n *= 2
            limit = min(_PHI_HARD_CAP, 1.5 * phi_est)
            qhat, solved = np.zeros((2, n - 1), complex), np.zeros(n - 1, bool)
        phi = _fejer2(n)[2] * (phi_est / _MAP_DEPTH)
        kept = int(np.count_nonzero(phi <= limit))   # phi rises with k
        todo = np.flatnonzero(~solved[:kept])
        # the chunk that holds the largest kept node is solved first, so that
        # an envelope that fails there costs one solve
        parts = [todo[start:start + _SOLVE_NODES]
                 for start in range(0, todo.size, _SOLVE_NODES)][::-1]
        if parts:
            work += _solve_nodes(rc, t, T, x, nu, ode_tol, phi, parts[0], qhat, solved)
        # phi_est <= ceiling leaves the smallest node, under 1e-4 phi_est, below it
        envelope = 0.0 if kept == n - 1 else np.max(np.abs(qhat[:, kept - 1])) / phi[kept - 1]
        if envelope >= _ENVELOPE_TOL:
            if limit < _PHI_HARD_CAP:
                phi_est, n = min(4.0 * phi_est, _PHI_HARD_CAP), 0
                continue
            partial = _weighted_sums(n, phi_est, phi, qhat, kept, log_strikes)[0, 0, 0]
            raise TruncationError(
                f"integrand envelope still {envelope:.3e} at the ceiling phi = "
                f"{_PHI_HARD_CAP:g}", partial=float(partial), envelope=float(envelope))
        for part in parts[1:]:
            work += _solve_nodes(rc, t, T, x, nu, ode_tol, phi, part, qhat, solved)
        probs = _weighted_sums(n, phi_est, phi, qhat, kept, log_strikes)
        errors = np.max(np.abs(probs[0] - probs[1]), axis=0)
        if errors.max() <= _QUADRATURE_TOL:
            phi_used = float(phi[kept - 1])
            return probs[0], errors, {
                "nodes": kept, "map_scale": _MAP_DEPTH / phi_est, "phi_used_k1": phi_used,
                "phi_used_k2": phi_used, "transform": "dop853" if work[3] else "closed_form",
                **dict(zip(("riccati_solves", "riccati_steps", "riccati_rhs"), work.tolist()))}
        if n >= _MAX_NODES:
            raise PricingError(f"quadrature error estimate {errors.max():.3e} is above "
                               f"{_QUADRATURE_TOL:g} at the ceiling of {n - 1} nodes")
        # the rule of 2n nodes holds this one's nodes at its odd indices
        n *= 2
        qhat = np.insert(qhat, np.arange(n // 2), 0.0, axis=1)
        solved = np.insert(solved, np.arange(n // 2), False)


def _solve_nodes(rc: RiccatiCoefficients, t: float, T: float, x: float, nu: float,
                 ode_tol: float, phi: np.ndarray, part: np.ndarray, qhat: np.ndarray,
                 solved: np.ndarray) -> tuple:
    """One stacked solve on (phi, phi - i) at the indices ``part``: writes
    Q_hat_1 and Q_hat_2 there into the rows of qhat, marks them solved and
    returns (1, accepted steps, rhs evaluations, DOP853 solves).  It is the
    closed form where ``rc.closed_form`` holds, the core returns it (a
    Samuelson chunk outside its bounds gets None) and its values are all
    finite, else one DOP853 solve.  The closed form is taken unchecked, as
    every other check of ``solve_riccati_closed_form`` holds by
    construction: the nodes are finite with 0 < phi <= ``_PHI_HARD_CAP`` and
    Im phi in {0, -1}, 0 <= t < T, and T before the delivery start."""
    nodes = np.concatenate([phi[part], phi[part] - 1j])
    form = _closed_form(rc, t, T, nodes) if rc.closed_form else None
    dop853 = form is None or not (np.isfinite(form[0]).all() and np.isfinite(form[1]).all())
    steps = rhs = 0
    if dop853:
        sol = solve_riccati(rc, t, T, nodes, abs_tol=ode_tol, nu=nu)
        psi0, psi1, steps, rhs = sol.psi0, sol.psi1, sol.n_steps, sol.n_rhs
    else:
        psi0, psi1 = form
    # Q_hat_k = exp(Psi0 + nu Psi1 + i phi x), as charfn.char_fn forms it
    q2, q1 = np.exp(psi0 + nu * psi1 + 1j * nodes * x).reshape(2, -1)
    qhat[:, part] = q1 / np.exp(x), q2
    solved[part] = True
    return 1, steps, rhs, int(dop853)


def _weighted_sums(n: int, phi_est: float, phi: np.ndarray, qhat: np.ndarray, kept: int,
                   log_strikes: np.ndarray) -> np.ndarray:
    """probs[r, k - 1, j], 1 - Q_k at strike j by the rule of n nodes (r = 0)
    and its nested half (r = 1), over the first ``kept`` nodes."""
    u, w = _fejer2(n)[:2]
    half = np.zeros(n - 1)
    half[1::2] = _fejer2(n // 2)[1]
    # the rule and its nested half in phi, with 1 / (pi i phi) folded in
    terms = (np.stack([w, half])[:, None, :kept] * (phi_est / _MAP_DEPTH)
             * qhat[:, :kept] / (1j * np.pi * u[:kept] * phi[:kept]))
    # the phase e^{-i phi ln K} of every strike at once; einsum sums each
    # strike over the nodes in an order that does not depend on the other
    # strikes, so that on the same rule a strike prices alike in any ladder
    phase = np.exp(-1j * np.multiply.outer(log_strikes, phi[:kept]))
    return 0.5 + np.real(np.einsum("rkn,jn->rkj", terms, phase))


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
    Psi there only in proportion to |Q_hat_k|.  Models with a constant theta
    and sigma_vv > 0 take the closed-form transform, which ode_tol does not
    bind, when the contract's ``SwapVolDecomposition.lam`` is not None:
    lam = 0 gives constant coefficients, and lam > 0 with kappa / lam at
    least 0.05 from every integer Kummer's functions, on a chunk of nodes inside
    the bounds of ``charfn.solve_riccati_closed_form``.  A chunk of nodes
    outside them, or where the closed form is not finite, is solved by
    DOP853.  An ode_tol that is not finite or below 100 ulp raises
    RiccatiError before any work, for every model.  The diagnostics add the
    ``nodes`` summed over, ``map_scale`` (C of phi = -ln(u) / C), the price's
    nested ``quadrature_error`` (at most 1e-10), the largest node as
    ``phi_used_k1`` and ``phi_used_k2``, the ``transform`` (``"closed_form"``
    for both closed forms, or ``"dop853"`` once any chunk was solved by it),
    and ``riccati_solves`` (one unless the rule doubles or passes 2048
    nodes; a closed-form evaluation counts as one), ``riccati_steps`` and
    ``riccati_rhs`` (accepted steps and right-hand-side evaluations, 0 in
    closed form).
    """
    nov = check_novikov(p, vol, dp)
    _warn_if_failed("Novikov", nov.ok, nov.lhs, nov.rhs)
    x = np.log(p.f0) if x is None else x
    nu = p.nu0 if nu is None else nu
    if not t < exercise:
        raise ValueError(f"valuation time {t} must precede exercise {exercise}")
    if t < 0:
        raise ValueError(f"valuation time {t} must not be negative")
    if not exercise < dp.tau1:
        raise ValueError(f"exercise {exercise} must precede the delivery start {dp.tau1}")
    # the state is checked here so that a bad one costs no Riccati solve
    for name, value in (("x", x), ("nu", nu)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if nu < 0:
        raise ValueError(f"nu must be non-negative, got {nu}")
    _check_abs_tol(ode_tol, exercise)
    specs = [OptionSpec(strike=float(k), exercise=float(exercise)) for k in strikes]
    if not specs:
        return []
    t, T, x, nu = float(t), float(exercise), float(x), float(nu)
    rc = RiccatiCoefficients.for_model(p, vol, w, dp, 2)
    probs, errors, info = _exercise_probs(rc, t, T, x, nu, ode_tol,
                                          np.log([spec.strike for spec in specs]))
    # Python floats from here on: the same IEEE arithmetic as numpy scalars,
    # at a fraction of the cost per strike
    df, fwd = float(np.exp(-p.r * (T - t))), float(np.exp(x))
    out = []
    for spec, (raw1, raw2), error in zip(specs, probs.T.tolist(), errors.tolist()):
        strike = spec.strike
        diagnostics = {"novikov_ok": nov.ok, **info, "quadrature_error": error}
        q1 = _finalize_prob(raw1, 1, diagnostics)
        q2 = _finalize_prob(raw2, 2, diagnostics)
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
        out.append(PriceResult(call=call, put=put, q1=q1, q2=q2, method="fourier",
                               stderr=None, diagnostics=diagnostics))
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


def _ndtr_pair(d):
    """N(d) and N(-d), elementwise, from one erfc each: the tail N(-|d|) =
    erfc(|d| / sqrt 2) / 2 keeps full relative accuracy, and 1 - tail >= 1/2."""
    d = np.asarray(d, dtype=float)
    x = (np.abs(d) * math.sqrt(0.5)).ravel().tolist()
    tail = 0.5 * np.fromiter(map(math.erfc, x), float, d.size).reshape(d.shape)
    return np.where(d >= 0, 1.0 - tail, tail), np.where(d >= 0, tail, 1.0 - tail)


def _black76(f: np.ndarray, k: float, sd: np.ndarray):
    """Undiscounted Black-76 call, put, N(d+) and N(d-), elementwise over (f, sd).

    Where sd = 0 the option is intrinsic: d+- = +inf for f >= k and -inf
    below, so f = k pays nothing either way.
    """
    m = np.log(f / k)
    spread = sd > 0
    d_plus = np.where(spread, m / np.where(spread, sd, 1.0) + 0.5 * sd,
                      np.where(m >= 0, np.inf, -np.inf))
    (n_plus, not_plus), (n_minus, not_minus) = _ndtr_pair(d_plus), _ndtr_pair(d_plus - sd)
    call = f * n_plus - k * n_minus
    put = k * not_minus - f * not_plus
    return call, put, n_plus, n_minus


def black76_oracle(f: float, k: float, total_var: float,
                   df: float = 1.0) -> tuple[float, float]:
    """Lognormal call/put on a forward with total variance total_var.

    Validation oracle for the degenerate deterministic-variance case.  At
    total_var = 0 the price is the discounted intrinsic value; f = k with zero
    variance returns call = put = 0 (measure-zero boundary tie-break).
    """
    if not (0 < f < math.inf and 0 < k < math.inf):
        raise ValueError(f"f and k must be finite and > 0, got f={f}, k={k}")
    if not 0 <= total_var < math.inf:
        raise ValueError(f"total_var must be finite and >= 0, got {total_var}")
    if not 0 < df <= 1:
        raise ValueError(f"df must lie in (0, 1], got {df}")
    call, put, _, _ = _black76(f, k, np.sqrt(total_var))
    return float(df * call), float(df * put)
