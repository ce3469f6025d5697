"""Riccati ODE systems and characteristic functions for the swap option pricer.

For k = 1, 2 the exponential-affine transform Q_hat_k = exp(Psi0 + nu Psi1 + i phi x)
requires, backward in time with zero terminal data,

    dPsi1/dt = -sigma^2/2 Psi1^2 + (beta_k(t) - i rho sigma S(t) phi) Psi1
               + (phi^2/2 - i alpha_k phi) S(t)^2,
    dPsi0/dt = -kappa theta(t) Psi1,

with alpha_1 = 1/2, alpha_2 = -1/2, beta_1 = kappa + sigma rho (xi(t) - S(t)),
beta_2 = kappa + sigma rho xi(t).  Time dependence of S and xi rules out the
textbook log-linear solution, so the system is integrated numerically in
s = T - t with the explicit 12-stage, 8th-order Dormand-Prince pair DOP853
(Prince & Dormand 1981; Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.10), the whole node batch in one solve with one step size.  Its last
stage's slope is the next step's first (first same as last) and is taken
only once a step is accepted, so an accepted step costs 12 right-hand-side
evaluations and a rejected one 11; the adaptive solve skips it after its
last step.  A step evaluates S, xi and theta once, at its 11 stage times,
and tabulates the Psi1 equation's coefficients per stage time and node, so
that a stage is one matrix product and four in-place operations.  Psi0 is
integrated beside Psi1, which avoids any complex-logarithm branch tracking;
it reads only Psi1, so Psi0 and the error estimates of both follow from one
product after the stages.  One step routine serves every entry point:
``solve_riccati`` adapts the step size to a tolerance, and a step that
would leave at most a tenth of itself to go takes the rest of the span
instead, while ``solve_riccati_fixed`` and ``riccati_path`` take equal
steps on a fixed grid for convergence and residual studies.  phi may be complex: the k = 2
system at phi - i is the k = 1 system at phi, which lets the pricer solve
one system for both transforms.  |Re phi| may not pass one fixed ceiling,
1e4, which also bounds the pricer's integral.  A solve checks once that
T lies before the delivery start and then reads S and xi unchecked.

Every built-in shape but ``GeneralSeparable`` has S and xi equal to S(T),
xi(T) times e^{-lam (T - t)}, with lam = 0 but for Samuelson.  With a
constant theta and sigma_vv > 0 (``RiccatiCoefficients.closed_form``) the
system then has a closed form, ``solve_riccati_closed_form``: the classical
one for flat S and xi, and Kummer's confluent hypergeometric functions for
Samuelson, whose Psi1 equation linearises to Kummer's equation.  The Samuelson form is taken only
where it is validated: kappa / lam away from the integers, the Kummer
argument small, and little cancellation in the log form of Psi0
(``_KUMMER_POLE_MARGIN``, ``_KUMMER_Z_MAX``, ``_KUMMER_LOG_GAIN``).  The
pricer takes the unchecked core, ``_closed_form``, where no tolerance
applies.  The closed form holds only in the strip where Q_hat_k is a
characteristic function, so ``solve_riccati`` stays the ODE for every phi.

The adaptive tolerance abs_tol bounds each step's local error estimate, the
5th-order one corrected by the 3rd-order one as in Hairer's DOP853, in every
component of Psi, relative to 1 + |Psi|.  Given the variance nu at which
Q_hat will be read, ``solve_riccati`` instead weights each node's bound by
the size of its transform (a component-weighted norm, Hairer, Norsett &
Wanner sec. II.4): nodes with |Q_hat| >= 1e-2 keep abs_tol, smaller ones get
up to 1e6 times more room, as a price integrates Q_hat and feels an error
in Psi there only in proportion to |Q_hat| (Lord & Kahl 2007).  The
pricer's highest nodes, whose transform has all but decayed, then no
longer set the step count of its one stacked solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .averaging import decompose
from .models import (
    DeliveryPeriod,
    DeliverySeasonal,
    HestonParams,
    Samuelson,
    TradingSeasonal,
    VolStructure,
    WeightFunction,
    _require_positive_int,
)

__all__ = ["RiccatiCoefficients", "CharFnSolution", "RiccatiError",
           "solve_riccati", "solve_riccati_fixed", "riccati_path",
           "solve_riccati_closed_form", "char_fn"]

# the ceiling on |Re phi| of every solve, and so on the pricer's integral
_PHI_HARD_CAP = 1e4
# attempted steps (accepted or rejected) before an adaptive solve gives up
_MAX_STEPS = 10_000
# below about 100 ulp the error estimate is rounding noise, so a tighter
# abs_tol would be "met" without being achieved (solve_ivp and ode45 apply
# the same floor to their relative tolerance)
_MIN_ABS_TOL = 100 * np.finfo(float).eps
# an adaptive step h with _END_STRETCH h >= the span left takes the rest of
# the span instead, so that no sliver of a step is left over (MATLAB's
# ode45 stretches by 10% too, Shampine & Reichelt 1997)
_END_STRETCH = 1.1

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

# Where the Samuelson closed form is taken, each bound measured against
# ode_tol 1e-13 DOP853 solves on the pricer's own nodes (CHANGES.md).
# - kappa / lam at least _KUMMER_POLE_MARGIN from every integer >= 0: at
#   kappa / lam = 0 the two Kummer solutions coincide, and at a positive
#   integer M(a, 1 - kappa / lam, .) has poles (or, at 1, an indeterminate
#   first term).  Near 2 the error in Q_hat grows as 1 / distance, 8e-13
#   at 1e-3 and 2e-14 at 0.05, and near 0 reaches 1e-12 at 1e-4.
# - |zeta| at T at most _KUMMER_Z_MAX: there the error stayed below 3e-13;
#   terms that outgrow the sum by e^{|zeta| - Re zeta} put it at 1.1e-12 by
#   |zeta| = 9.4 and 1.8e-10 by 10.8.
# - (kappa theta / A) |mu (E - 1)| at most _KUMMER_LOG_GAIN: Psi0's log form
#   sums mu (E - 1) and log(v(E) / v(1)), which cancel to -A Psi0 / (kappa
#   theta), so Psi0 carries their rounding times that gain; the error in
#   Q_hat measured 2.6 eps |Q_hat| times the gain.
_KUMMER_POLE_MARGIN = 0.05
_KUMMER_Z_MAX = 8.0
_KUMMER_LOG_GAIN = 1e3
# Terms of the series: e |zeta| and _KUMMER_EXTRA_TERMS more, as for
# |zeta| <= _KUMMER_Z_MAX the first term left out of zeta^j / j! is then
# below 2e-16 of the largest.  (a)_j / (b)_j can hold the terms up longer, by
# 1e-13 of the sum at b = -6.8 and |zeta| = 7.6, so while the last term is
# above _KUMMER_TAIL of the sum the series takes _KUMMER_EXTRA_TERMS more, up
# to _KUMMER_TRIES lengths, past which the batch is left to DOP853.
_KUMMER_EXTRA_TERMS = 20
_KUMMER_TAIL = 1e-16
_KUMMER_TRIES = 4

# Dormand-Prince 8(5,3), DOP853 (Prince & Dormand 1981; Hairer, Norsett &
# Wanner, Solving ODEs I, sec. II.10): stage times, the stage matrix (row i
# holds the weights of stages 0 .. i-1), the 8th-order solution weights and
# the weights of the two embedded error estimates, 8th minus 5th and 8th
# minus 3rd order.  Stages 1-11 fall at 11 distinct times, the last at c = 1.
_DOP_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_DOP_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_DOP_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_DOP_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
_DOP_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082])
# rows 1-11 of the stage matrix and the solution weights, zero-padded to 12
# columns, so that one product per step scales them all by h
_DOP_AB = np.array([row + (0.0,) * (12 - len(row)) for row in _DOP_A[1:]] + [_DOP_B])


class RiccatiError(RuntimeError):
    """Error control failed or the solution blew up during integration."""

    def __init__(self, message: str, t_fail: float | None = None):
        super().__init__(message)
        self.t_fail = t_fail


@dataclass(frozen=True)
class RiccatiCoefficients:
    """Time-dependent coefficients of one Riccati system (k = 1 or 2).

    ``lam`` is the decay rate of S and xi, which are S(T) and xi(T) times
    e^{-lam (T - t)}: 0 for the flat shapes, Samuelson's lam for it.
    ``closed_form`` records that such S and xi come with a constant theta and
    sigma_vv > 0, and for lam > 0 with kappa / lam at least
    ``_KUMMER_POLE_MARGIN`` from every integer, so that
    ``solve_riccati_closed_form`` applies; ``for_model`` derives both from
    the model.
    """
    k: int
    kappa: float
    sigma_vv: float
    rho: float
    big_s: Callable
    xi: Callable
    theta: Callable
    closed_form: bool = False
    lam: float = 0.0

    @classmethod
    def for_model(cls, p: HestonParams, vol: VolStructure, w: WeightFunction,
                  dp: DeliveryPeriod, k: int) -> "RiccatiCoefficients":
        if k not in (1, 2):
            raise ValueError(f"k must be 1 or 2, got {k}")
        dec = decompose(vol, w, dp)
        lam = vol.lam if isinstance(vol, Samuelson) else 0.0
        if lam > 0:
            ratio = p.kappa / lam
            shape = abs(ratio - round(ratio)) >= _KUMMER_POLE_MARGIN
        else:
            shape = isinstance(vol, (TradingSeasonal, DeliverySeasonal))
        closed_form = shape and not callable(p.theta) and p.sigma_vv > 0
        return cls(k=k, kappa=p.kappa, sigma_vv=p.sigma_vv, rho=p.rho, big_s=dec.big_s,
                   xi=dec.xi, theta=p.theta_fn(), closed_form=closed_form, lam=lam)

    @property
    def alpha(self) -> float:
        """alpha_k of the S(t)^2 term: 1/2 for k = 1, -1/2 for k = 2."""
        return 0.5 if self.k == 1 else -0.5

    def beta(self, t):
        """Linear-term coefficient beta_k(t); real and bounded on [0, tau1]."""
        return self.beta_from(self.big_s(t), self.xi(t))

    def beta_from(self, big_s, xi):
        """beta_k from values of S and xi at the same times."""
        if self.k == 1:
            return self.kappa + self.sigma_vv * self.rho * (np.asarray(xi)
                                                            - np.asarray(big_s))
        return self.kappa + self.sigma_vv * self.rho * np.asarray(xi)


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


def _check_phi(phi_arr: np.ndarray) -> None:
    bad = phi_arr[~np.isfinite(phi_arr)]
    if bad.size:
        raise ValueError(f"phi must be finite, got {bad[0]}")
    if np.any(np.abs(phi_arr.real) > _PHI_HARD_CAP):
        raise ValueError(f"|Re phi| exceeds the ceiling {_PHI_HARD_CAP:g}")


def _check_abs_tol(abs_tol: float, T: float) -> None:
    """Refuse an abs_tol that is not finite or below ``_MIN_ABS_TOL``."""
    if not np.isfinite(abs_tol):
        raise RiccatiError(f"abs_tol must be finite, got {abs_tol}", t_fail=T)
    if not abs_tol >= _MIN_ABS_TOL:
        raise RiccatiError(f"abs_tol {abs_tol:.1e} is below {_MIN_ABS_TOL:.1e}, which "
                           f"double-precision error control cannot reach", t_fail=T)


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


def _dop853_system(rc: RiccatiCoefficients, T: float, phi: np.ndarray):
    """DOP853 steps in s = T - t' on the state y = (Psi1 nodes, Psi0 nodes).

    phi is flat.  Returns (y_new, est, step, accept); the state is zero at
    s = 0.  step(s, h) takes a trial step from the state at s to s + h:
    it writes the 8th-order solution into y_new and the 5th- and 3rd-order
    error estimates, each still to be scaled by h, into the rows of est.
    accept() takes the step just tried: y_new becomes the state, and its
    slope, the last stage of DOP853, becomes the next step's first (first
    same as last).  No error estimate reads that slope, so a rejected step
    never evaluates it.

    A step first evaluates S, xi and theta once at its 11 stage times and
    tabulates, per stage time and node, the linear term L = S rot - beta_k
    and the source B = S^2 (phi^2/2 - i alpha_k phi), each by one real
    product over float views, as numpy is slow to mix real and complex
    operands.  A stage is then its Psi1 argument a, one real matrix product
    over a float view of Psi1 and its slopes (Psi1 beside them, so no
    separate add), and four in-place operations,
    dPsi1/ds = (sigma^2/2 a + L) a - B.  dPsi0/ds = kappa theta a
    is read by no stage, and each a is a fixed combination of Psi1 and its
    slopes, so Psi0's step and error estimates are too: one product after
    the stages gives the solution and both estimates of both halves.
    """
    half_sig2 = 0.5 * rc.sigma_vv * rc.sigma_vv
    n = phi.size
    rot = 1j * rc.rho * rc.sigma_vv * phi
    const_phi = 0.5 * phi * phi - 1j * rc.alpha * phi   # multiplies S(t)^2
    # row 0 Psi1 of the state, rows 1-12 its stage slopes k_0 .. k_11
    rows = np.zeros((13, n), dtype=complex)
    flat = rows.view(float)
    psi0 = np.zeros(n, dtype=complex)   # Psi0 of the state
    arg = np.empty(n, dtype=complex)
    arg_flat = arg.view(float)
    # per stage time c_1 .. c_11 of a step: S and beta_k, then L and B as
    # real products over float views, L = (S, beta_k) against (rot, -1)
    lin_coef = np.empty((11, 2))
    lin_basis = np.zeros((2, 2 * n))
    lin_basis[0], lin_basis[1, 0::2] = rot.view(float), -1.0
    src_basis = const_phi.view(float)
    lin_flat, src_flat = np.empty((11, 2 * n)), np.empty((11, 2 * n))
    lin, src = lin_flat.view(complex), src_flat.view(complex)
    # kappa theta at the start of a step and its 11 stage times
    kappa_theta = np.empty(12)
    # weights against the rows, one row per output: rows 0-11 give the
    # arguments of stages 0-11 (row 0 the state's Psi1: 1 and zeros; row i:
    # 1 and h a_i), rows 12-17 Psi1 and Psi0 of the solution (row 12: 1 and
    # h b), of the 5th-order and of the 3rd-order estimate
    weights = np.zeros((18, 13))
    weights[:13, 0] = 1.0
    weights[14, 1:], weights[16, 1:] = _DOP_E5, _DOP_E3
    # rows 12, 14 and 16 (h b, E5 and E3 against the slopes) times kappa
    # theta per stage: Psi0's weights against the stage arguments
    psi0_weights = np.empty((3, 12))
    out = np.empty((6, n), dtype=complex)
    y_new, est = out[:2].reshape(2 * n), out[2:].reshape(2, 2 * n)

    def tables(s):
        """Fill the tables' first len(s) rows for t' = T - s."""
        t_here = T - s
        m = s.size
        big_s, beta = lin_coef[:m].T
        big_s[:] = rc.big_s(t_here, check=False)
        beta[:] = rc.beta_from(big_s, rc.xi(t_here, check=False))
        np.matmul(lin_coef[:m], lin_basis, out=lin_flat[:m])
        np.multiply(np.square(big_s)[:, None], src_basis, out=src_flat[:m])
        np.multiply(rc.theta(t_here), rc.kappa, out=kappa_theta[1:m + 1])

    def slope(a, j, into):
        """dPsi1/ds at Psi1 = a and table row j, written into ``into``."""
        np.multiply(a, half_sig2, out=into)
        into += lin[j]
        into *= a
        into -= src[j]

    def step(s, h):
        tables(s + h * _DOP_C[1:])
        np.multiply(_DOP_AB, h, out=weights[1:13, 1:])
        for i in range(1, 12):
            np.matmul(weights[i, :i + 1], flat[:i + 1], out=arg_flat)
            slope(arg, i - 1, rows[i + 1])
        np.multiply(weights[12::2, 1:], kappa_theta, out=psi0_weights)
        np.matmul(psi0_weights, weights[:12], out=weights[13::2])
        np.matmul(weights[12:], flat, out=out.view(float))
        out[1] += psi0

    def accept():
        # the last stage time, c = 1, is row 10 of the step's tables
        rows[0], psi0[:] = out[0], out[1]
        kappa_theta[0] = kappa_theta[11]
        slope(rows[0], 10, rows[1])

    tables(np.zeros(1))
    kappa_theta[0] = kappa_theta[1]
    slope(rows[0], 0, rows[1])
    return y_new, est, step, accept


def _log_qhat(y: np.ndarray, nu: float) -> np.ndarray:
    """log |Q_hat| = Re(Psi0 + nu Psi1) per node of the state y.

    The i phi x term has modulus 1 for real phi, and on a stacked row phi - i
    it only adds the factor e^x that Q_hat_1(phi) = Q_hat_2(phi - i) / e^x
    removes again.  Taken in logs, so that no |Q_hat| overflows.
    """
    n = y.size // 2
    return y[n:].real + nu * y[:n].real


def _transform_weight(log_q: np.ndarray, log_q_new: np.ndarray) -> np.ndarray:
    """clip(|Q_hat| / _QHAT_FULL_CONTROL, _WEIGHT_FLOOR, 1) per node, with
    |Q_hat| the larger of its values before and after the step."""
    return np.exp(np.clip(np.maximum(log_q, log_q_new) - np.log(_QHAT_FULL_CONTROL),
                          np.log(_WEIGHT_FLOOR), 0.0))


def _dop853(rc: RiccatiCoefficients, t: float, T: float, phi: np.ndarray,
            abs_tol: float, nu: float | None = None):
    """Adaptive DOP853 steps from s = 0 to s = T - t.

    Each component's scale is abs_tol (1 + max(|y|, |y_new|)); with nu given,
    both components of a node divide it by the node's ``_transform_weight``.
    e5 and e3 are the largest scaled 5th- and 3rd-order error estimates over
    the components, and a step is accepted when Hairer's DOP853 estimate
    h e5^2 / sqrt(e5^2 + 0.01 e3^2) is at most 1.  A non-finite trial step
    is rejected.  A step that would leave at most a tenth of itself to go
    takes the rest of the span, under the same test (``_END_STRETCH``).
    Returns (psi0, psi1, accepted steps, rhs evaluations).
    """
    span = T - t
    shape, phi = phi.shape, phi.ravel()
    n = phi.size
    y_new, est, step, accept = _dop853_system(rc, T, phi)
    abs_y, abs_new = np.zeros(2 * n), np.empty(2 * n)
    scale = np.empty(2 * n)
    scale_nodes = scale.reshape(2, n)   # a view: row 0 Psi1, row 1 Psi0
    mag = np.empty((2, 2 * n))
    log_q = None if nu is None else np.zeros(n)
    s, h, n_rhs, accepted = 0.0, span / 16.0, 1, 0
    for _ in range(_MAX_STEPS):
        if _END_STRETCH * h >= span - s:
            h = span - s
        step(s, h)
        n_rhs += 11
        np.abs(y_new, out=abs_new)
        np.maximum(abs_y, abs_new, out=scale)
        scale += 1.0
        scale *= abs_tol
        if nu is not None:
            log_q_new = _log_qhat(y_new, nu)
            scale_nodes /= _transform_weight(log_q, log_q_new)
        np.divide(np.abs(est, out=mag), scale, out=mag)
        e5, e3 = mag.max(axis=1).tolist()
        denom = e5 * e5 + 0.01 * e3 * e3
        err = h * e5 * e5 / np.sqrt(denom) if denom != 0.0 else 0.0
        if not (np.isfinite(err) and np.isfinite(y_new).all()):
            err = np.inf
        if err <= 1.0:
            s = span if h == span - s else s + h
            accepted += 1
            if s == span:
                return y_new[n:].reshape(shape), y_new[:n].reshape(shape), accepted, n_rhs
            accept()
            n_rhs += 1
            abs_y, abs_new = abs_new, abs_y
            if nu is not None:
                log_q = log_q_new
        h *= min(max(0.9 * err ** -0.125, 0.2), 5.0) if err > 0 else 5.0
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
    _check_phi(phi_arr)
    if not 0 <= t < T:
        raise ValueError(f"need 0 <= t < T, got t={t}, T={T}")
    _require_positive_int("n_steps", n_steps)
    rc.big_s(T)   # ValueError past the delivery start; the steps read S, xi unchecked
    h = (T - t) / n_steps
    n = phi_arr.size
    with np.errstate(over="ignore", invalid="ignore"):
        y_new, _, step, accept = _dop853_system(rc, T, phi_arr.ravel())
        path = np.zeros((n_steps + 1, 2 * n), dtype=complex)
        for j in range(n_steps):
            step(j * h, h)
            path[j + 1] = y_new
            if not np.isfinite(path[j + 1]).all():
                t_fail = T - (j + 1) * h
                raise RiccatiError(
                    f"Riccati solution blew up near t = {t_fail:.6g}", t_fail=t_fail)
            accept()
    shape = (n_steps + 1,) + phi_arr.shape
    return phi_arr, scalar, path[:, n:].reshape(shape), path[:, :n].reshape(shape)


def solve_riccati(rc: RiccatiCoefficients, t: float, T: float, phi,
                  abs_tol: float = 1e-10,
                  nu: float | None = None) -> CharFnSolution:
    """Solve for Psi0, Psi1 at time t with adaptive DOP853 steps.

    phi may be a real or complex scalar or array, solved as one vectorized
    batch with one step size.  Without ``nu``, abs_tol bounds every step's
    local error estimate in each component of Psi0 and Psi1, relative to
    1 + |Psi|: with e5 and e3 the largest scaled 5th- and 3rd-order
    estimates, a step is accepted when h e5^2 / sqrt(e5^2 + 0.01 e3^2) <= 1.
    With ``nu``, the variance at which the caller will read Q_hat = exp(Psi0 + nu Psi1 + i phi x), a node's bound is divided by
    clip(|Q_hat| / 1e-2, 1e-6, 1): nodes whose transform is at least 1e-2
    are held to abs_tol as without ``nu``, and smaller ones, which a price
    feels proportionally less, to at most 1e6 abs_tol.  Step-size underflow,
    a blow-up that no step size avoids, or more than ``_MAX_STEPS``
    attempted steps raise RiccatiError with the time reached as ``t_fail``;
    so does an abs_tol that is not finite or below ``_MIN_ABS_TOL``, before
    any step, and a phi that is not finite or whose |Re phi| exceeds
    ``_PHI_HARD_CAP`` raises ValueError.  ``n_rhs`` is 11 per attempted
    step, accepted or rejected, + 1 per accepted step: the slope at s = 0
    and after each accepted step but the last.
    """
    phi_arr, scalar = _as_phi_array(phi)
    _check_phi(phi_arr)
    if not 0 <= t <= T:
        raise ValueError(f"need 0 <= t <= T, got t={t}, T={T}")
    if nu is not None and not 0 <= nu < np.inf:
        raise ValueError(f"nu must be finite and non-negative, got {nu}")
    _check_abs_tol(abs_tol, T)
    rc.big_s(T)   # ValueError past the delivery start; the steps read S, xi unchecked
    if t == T:
        z = np.zeros(phi_arr.shape, dtype=complex)
        return _solution(rc, t, T, phi_arr, scalar, z, z.copy(), 0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        psi0, psi1, n_steps, n_rhs = _dop853(rc, t, T, phi_arr, abs_tol, nu)
    return _solution(rc, t, T, phi_arr, scalar, psi0, psi1, n_steps, n_rhs)


def solve_riccati_fixed(rc: RiccatiCoefficients, t: float, T: float, phi,
                        n_steps: int) -> CharFnSolution:
    """Psi0, Psi1 at time t after n_steps equal DOP853 steps.

    The endpoint of ``riccati_path`` on the same grid, bit for bit;
    ``n_rhs`` is 12 n_steps + 1.
    """
    phi_arr, scalar, path0, path1 = _fixed_grid(rc, t, T, phi, n_steps)
    return _solution(rc, t, T, phi_arr, scalar, path0[-1], path1[-1], n_steps,
                     12 * n_steps + 1)


def riccati_path(rc: RiccatiCoefficients, t: float, T: float, phi, n_steps: int):
    """Psi0, Psi1 on the whole grid, ordered by ascending time t.

    Returns (times, psi0, psi1) with times of length n_steps + 1 from t to T;
    row i of each psi array belongs to times[i].
    """
    phi_arr, scalar, path0, path1 = _fixed_grid(rc, t, T, phi, n_steps)
    times = np.linspace(t, T, n_steps + 1)
    path = _solution(rc, t, T, phi_arr, scalar, path0[::-1], path1[::-1], n_steps,
                     12 * n_steps + 1)
    return times, path.psi0, path.psi1


def solve_riccati_closed_form(rc: RiccatiCoefficients, t: float, T: float,
                              phi) -> CharFnSolution:
    """Psi0, Psi1 at time t in closed form, for a system with ``rc.closed_form``.

    With S, xi and theta constant (``rc.lam`` = 0) the system is the
    classical square-root one (Heston 1993), solved here in the form of
    Albrecher, Mayer, Schoutens & Tistaert (2007), whose logarithm has no
    branch-cut jumps.  With a = beta_k - i rho sigma S phi, p = (phi^2/2 -
    i alpha_k phi) S^2, d = sqrt(a^2 + 2 sigma^2 p), r = (a - d) / sigma^2 =
    -2 p / (a + d), E = 1 - e^{-d tau} and x = sigma^2 r E / (2 d), at
    tau = T - t:

        Psi1 = -p E / (d (1 + x)),
        Psi0 = kappa theta (r tau - (2 / sigma^2) log(1 + x)).

    Of a + d and a - d, whose product is -2 sigma^2 p, the larger is formed
    as it stands and the other from the product, E by expm1 and log(1 + x)
    from log1p of |1 + x|^2 - 1, so that nothing cancels as sigma_vv or tau
    becomes small.

    For Samuelson (``rc.lam`` = lam > 0) S and xi are S(T) E and xi(T) E
    with E = e^{-lam (T - t)}, and Psi1 = w' / (A w), A = sigma^2 / 2, turns
    the Psi1 equation into E w_EE + (b - beta E) w_E + delta E w = 0 with
    b = 1 - kappa / lam, beta = c1 / lam and delta = -A c2 / lam^2, where
    c1 = beta_k(T) - kappa - i rho sigma S(T) phi and c2 = p above.  With mu
    the root of mu^2 - beta mu + delta = 0 for which d = beta - 2 mu has
    Re d >= 0, w = e^{mu E} v and zeta = d E give Kummer's equation (DLMF
    13.2.1) with a = -b mu / d, solved by M(a, b, zeta) and E^{1 - b}
    M(a - b + 1, 2 - b, zeta).  Their combination v with w'(T) = 0 gives

        Psi1 = (lam E / A) (mu + v_E / v),
        Psi0 = -(kappa theta / A) (mu (E - 1) + log(v(E) / v(1))),

    at E = e^{-lam tau}.  v and E v_E of both solutions, at T and their
    changes to t, are weighted sums of one stacked power series in zeta at
    T; Psi0 and Psi1 are formed from the changes, so that log1p keeps its
    digits as sigma_vv becomes small and Psi1 keeps its own as tau does.
    The form is validated, to 1e-12 in Q_hat, only with kappa / lam at
    least ``_KUMMER_POLE_MARGIN`` from every integer (M has poles at the
    positive ones, and the two solutions coincide at 0), |zeta| at T up to
    ``_KUMMER_Z_MAX`` (larger |zeta| asks for ratios of Gamma functions,
    which numpy lacks) and (kappa theta / A) |mu (E - 1)| up to
    ``_KUMMER_LOG_GAIN``, as mu (E - 1) and log(v(E) / v(1)) cancel in
    Psi0.

    This entry checks its inputs and ``_closed_form`` does the arithmetic.
    phi must be finite with |Re phi| at most ``_PHI_HARD_CAP``, and lie in
    the strip where Q_hat_k is a characteristic function, -1 <= Im phi <= 0
    for k = 2 (the pricer's rows phi and phi - i) and 0 <= Im phi <= 1 for
    k = 1, else ValueError: past it the closed form runs through a
    moment-explosion pole that ``solve_riccati`` reports.  So does a system
    without ``rc.closed_form``, a t outside [0, T], a T past the delivery
    start and Samuelson nodes outside the bounds on |zeta| and the gain.
    The pricer builds nodes that pass the other checks, and calls
    ``_closed_form`` itself, which returns None outside those bounds.  The
    values are not checked; the pricer solves a node batch whose values are
    not all finite by ``solve_riccati`` instead.  ``n_steps`` and ``n_rhs``
    are 0.
    """
    phi_arr, scalar = _as_phi_array(phi)
    _check_phi(phi_arr)
    if not rc.closed_form:
        raise ValueError("the closed form needs S and xi flat or of the Samuelson shape "
                         "with kappa / lam off the integers, a constant theta "
                         "and sigma_vv > 0")
    if not 0 <= t <= T:
        raise ValueError(f"need 0 <= t <= T, got t={t}, T={T}")
    low = -1.0 if rc.k == 2 else 0.0
    if np.any((phi_arr.imag < low) | (phi_arr.imag > low + 1.0)):
        raise ValueError(f"Im phi must lie in [{low:g}, {low + 1.0:g}] for k = {rc.k}")
    rc.big_s(T)   # ValueError past the delivery start
    form = _closed_form(rc, t, T, phi_arr)
    if form is None:
        raise ValueError(f"phi lies outside the region where the Samuelson closed form "
                         f"is validated: |zeta| <= {_KUMMER_Z_MAX:g} and a gain of at most "
                         f"{_KUMMER_LOG_GAIN:g} in the log form of Psi0")
    return _solution(rc, t, T, phi_arr, scalar, *form, 0, 0)


def _closed_form(rc: RiccatiCoefficients, t: float, T: float,
                 phi: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(Psi0, Psi1) of ``solve_riccati_closed_form`` on an array phi,
    unchecked: the caller has made sure that every check there passes but
    Samuelson's bounds on |zeta| and the gain, for which this returns None."""
    if rc.lam:
        return _kummer_form(rc, t, T, phi)
    big_s = rc.big_s(T, check=False)
    beta = rc.beta_from(big_s, rc.xi(T, check=False))
    sig2 = rc.sigma_vv * rc.sigma_vv
    with np.errstate(all="ignore"):
        a = beta - 1j * rc.rho * rc.sigma_vv * big_s * phi
        p = (0.5 * phi * phi - 1j * rc.alpha * phi) * (big_s * big_s)
        d = np.sqrt(a * a + 2.0 * sig2 * p)
        plus, minus = a + d, a - d
        plus = np.where(np.abs(plus) < np.abs(minus), -2.0 * sig2 * p / minus, plus)
        r = -2.0 * p / plus
        e = -np.expm1(-d * (T - t))
        x = 0.5 * sig2 * r * e / d
        psi1 = -p * e / (d * (1.0 + x))
        psi0 = rc.kappa * rc.theta(T) * (r * (T - t) - 2.0 / sig2 * _log1p(x))
    return psi0, psi1


def _kummer_form(rc: RiccatiCoefficients, t: float, T: float,
                 phi: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The Samuelson half of ``_closed_form``, or None where some |zeta| at T
    passes ``_KUMMER_Z_MAX`` or the gain passes ``_KUMMER_LOG_GAIN``.

    Each solution s of Kummer's equation is scaled to E^{p_s} times a series
    sum_j c_j zeta^j, p_1 = 0 and p_2 = 1 - b, so that at T (E = 1) its
    terms t_j = c_j d^j give v = sum t_j and E v_E = sum (j + p_s) t_j, and
    at t, where E^{j + p_s} = e^{-(j + p_s) lam tau}, their changes from T
    take the weights expm1(-(j + p_s) lam tau) and (j + p_s) expm1(-(j +
    p_s) lam tau).  Psi0 and Psi1 are formed from those changes, so that
    both vanish at t = T and keep their digits as tau becomes small.  The
    terms of both solutions on every row are formed in one (2, terms, rows)
    array by ``_kummer_terms``, and one real product over a float view
    weights them.  A series that does not settle within its allowance of
    terms leaves the batch to DOP853 (None).
    """
    shape, phi = phi.shape, phi.ravel()
    big_s = rc.big_s(T, check=False)
    lin = rc.beta_from(big_s, rc.xi(T, check=False)) - rc.kappa
    half_sig2 = 0.5 * rc.sigma_vv * rc.sigma_vv
    lam, lam_tau, power = rc.lam, rc.lam * (T - t), rc.kappa / rc.lam
    gain = rc.kappa * rc.theta(T) / half_sig2
    b = 1.0 - power
    with np.errstate(all="ignore"):
        beta = (lin - 1j * rc.rho * rc.sigma_vv * big_s * phi) / lam
        delta = (0.5 * phi * phi - 1j * rc.alpha * phi) * (-half_sig2 * big_s * big_s
                                                         / (lam * lam))
        d = np.sqrt(beta * beta - 4.0 * delta)
        z_max = np.max(np.abs(d))
        if not z_max <= _KUMMER_Z_MAX:
            return None
        # mu = (beta - d) / 2, from the product of the roots where it would cancel
        plus, minus = beta + d, beta - d
        mu = np.where(np.abs(plus) < np.abs(minus), 0.5 * minus, 2.0 * delta / plus)
        mu_drop = mu * np.expm1(-lam_tau)   # mu (E - 1)
        if not gain * np.max(np.abs(mu_drop)) <= _KUMMER_LOG_GAIN:
            return None
        # a_1 d = -b mu, and a_2 = a_1 + 1 - b
        a_d = np.stack([-b * mu, power * d - b * mu])
        b_s = np.array([b, 2.0 - b])
        terms = _kummer_terms(a_d, b_s, d, z_max)
        if terms is None:
            return None
        exponent = np.arange(terms.shape[1]) + np.array([[0.0], [power]])   # j + p_s
        drops = np.expm1(-lam_tau * exponent)   # E^{j + p_s} - 1 at t
        weights = np.stack([np.ones_like(exponent), exponent, drops, exponent * drops],
                           axis=1)
        sums = np.matmul(weights, terms.view(float)).view(complex)
        (v1, d1, dv1, dd1), (v2, d2, dv2, dd2) = sums
        # w'(T) = 0: mu v(1) + v_E(1) = 0, so that mu E v + E v_E at t is
        # mu (E - 1) v + mu (v - v(1)) + (E v_E - v_E(1)), free of cancellation
        c1, c2 = mu * v2 + d2, -(mu * v1 + d1)
        v_end, dv, dd = c1 * v1 + c2 * v2, c1 * dv1 + c2 * dv2, c1 * dd1 + c2 * dd2
        psi1 = (lam / half_sig2) * (mu_drop + (mu * dv + dd) / (v_end + dv))
        psi0 = -gain * (mu_drop + _log1p(dv / v_end))
    return psi0.reshape(shape), psi1.reshape(shape)


def _kummer_terms(a_d: np.ndarray, b: np.ndarray, d: np.ndarray,
                  z_max: float) -> np.ndarray | None:
    """Terms t_j = (a_s)_j / (b_s)_j d^j / j! of Kummer's series M(a_s, b_s,
    d) = sum_j t_j, whose j t_j sum to d M'(a_s, b_s, d), or None.

    Row s of ``a_d`` holds a_s d per element of the flat complex array d,
    b_s is real and ``z_max`` is the largest |d|.  Returns a (series, terms,
    elements) array of e z_max + ``_KUMMER_EXTRA_TERMS`` terms, or as many
    more as it takes to bring the last term to ``_KUMMER_TAIL`` of the sum,
    up to ``_KUMMER_TRIES`` lengths, past which it returns None.  Each term
    is the one before times t_{j+1} / t_j = (a_s d + j d) / ((b_s + j)(j +
    1)), and those ratios are formed by real operations over float views.
    """
    n_terms = int(np.ceil(np.e * z_max)) + _KUMMER_EXTRA_TERMS
    for _ in range(_KUMMER_TRIES):
        j = np.arange(n_terms - 1.0)
        ratio = np.multiply.outer(j, d.view(float)) + a_d.view(float)[:, None]
        ratio *= (1.0 / ((b[:, None] + j) * (j + 1.0)))[:, :, None]
        ratio = ratio.view(complex)
        terms = np.empty((b.size, n_terms, d.size), dtype=complex)
        terms[:, 0] = 1.0
        for i in range(n_terms - 1):
            np.multiply(terms[:, i], ratio[:, i], out=terms[:, i + 1])
        if np.all(np.abs(terms[:, -1]) <= _KUMMER_TAIL * np.abs(terms.sum(axis=1))):
            return terms
        n_terms += _KUMMER_EXTRA_TERMS
    return None


def _log1p(x: np.ndarray) -> np.ndarray:
    """log(1 + x) for complex x, accurate as |x| becomes small: numpy's
    complex log1p takes the real part as log|1 + x|, which loses it."""
    return (0.5 * np.log1p(x.real * (2.0 + x.real) + x.imag * x.imag)
            + 1j * np.arctan2(x.imag, 1.0 + x.real))


def char_fn(sol: CharFnSolution, x: float, nu: float):
    """Q_hat_k = exp(Psi0 + nu Psi1 + i phi x); |char_fn| = e^{Re Psi0 + nu Re Psi1}."""
    if nu < 0:
        raise ValueError(f"nu must be non-negative, got {nu}")
    return np.exp(sol.psi0 + nu * sol.psi1 + 1j * np.asarray(sol.phi) * x)
