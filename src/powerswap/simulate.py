"""Monte-Carlo engine for the joint (log swap price, variance) dynamics.

The log swap price follows dX = -(S^2/2 + S xi_q) nu dt + S sqrt(nu) dW_F and
the variance dnu = kappa (theta(t) - nu) dt + sigma_vv sqrt(nu) dW_sigma with
corr(dW_F, dW_sigma) = rho.  Under the swap measure Q_tilde the X drift keeps
only -S^2 nu / 2 while the variance mean-reversion speed becomes
kappa + rho sigma_vv xi(t); under the futures measure Q the extra -S xi nu
drift sits on X and the variance keeps speed kappa.  X is stepped by
Euler-Maruyama on the log (so F = e^X stays positive and is a discrete
martingale under Q_tilde); nu by a drift-implicit Milstein step that preserves
non-negativity.

Each path draws its own counter-based substream keyed by (seed, path index),
so results do not depend on chunking order or worker count.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .averaging import decompose
from .conditions import ConditionWarning, full_report
from .models import (
    DeliveryPeriod,
    HestonParams,
    VolStructure,
    WeightFunction,
    as_time_function,
)

__all__ = ["GridSpec", "Measure", "PathSet", "TerminalSample", "SummaryStats",
           "SimulationError", "simulate_paths", "simulate_terminal",
           "simulate_summary"]

_CHUNK = 4096


class SimulationError(RuntimeError):
    """Numerical failure inside the stepping loop (overflow or lost positivity)."""


class Measure(Enum):
    Q = "Q"
    Q_TILDE = "Q_tilde"


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid and path budget for one simulation run."""
    t0: float
    t_end: float
    n_steps: int
    n_paths: int
    seed: int

    def __post_init__(self):
        if not self.t0 >= 0:
            raise ValueError(f"t0 must be >= 0, got {self.t0}")
        if not self.t0 < self.t_end < np.inf:
            raise ValueError(f"t_end must be finite and exceed t0, got ({self.t0}, {self.t_end})")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")
        if not (isinstance(self.n_paths, (int, np.integer)) and self.n_paths >= 1):
            raise ValueError(f"n_paths must be a positive integer, got {self.n_paths}")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t_end, self.n_steps + 1)


@dataclass
class PathSet:
    times: np.ndarray
    x_paths: np.ndarray
    nu_paths: np.ndarray
    seed: int

    @property
    def f_paths(self) -> np.ndarray:
        return np.exp(self.x_paths)


@dataclass
class TerminalSample:
    """Terminal (X, nu) values only; memory-light variant of PathSet."""
    t_end: float
    x: np.ndarray
    nu: np.ndarray
    seed: int

    @property
    def f(self) -> np.ndarray:
        return np.exp(self.x)


@dataclass
class SummaryStats:
    """Per-time-point statistics of F = e^X and nu across all paths."""
    times: np.ndarray
    mean_f: np.ndarray
    stderr_f: np.ndarray
    mean_nu: np.ndarray


@dataclass(frozen=True)
class _StepCoeffs:
    """Precomputed per-step coefficient arrays shared by every chunk."""
    dt: float
    sqdt: float
    s_left: np.ndarray        # S(t_n), n = 0..n_steps-1
    coef_x_left: np.ndarray   # (S^2/2 + S xi_drift)(t_n)
    kap_theta_left: np.ndarray  # kappa * theta(t_n)
    denom_right: np.ndarray   # 1 + kappa_eff(t_{n+1}) dt
    sigma: float
    rho: float
    rho_bar: float


def _build_coeffs(p: HestonParams, vol: VolStructure, w: WeightFunction,
                  dp: DeliveryPeriod, g: GridSpec, measure: Measure) -> _StepCoeffs:
    times = g.times()
    dec = decompose(vol, w, dp)
    s_all = np.asarray(dec.big_s(times), dtype=float)
    xi_all = np.asarray(dec.xi(times), dtype=float)
    theta_all = np.asarray(as_time_function(p.theta)(times), dtype=float)
    if np.any(theta_all <= 0):
        raise ValueError("theta(t) must be positive on the simulation grid")

    # xi enters the X drift under Q and the variance mean-reversion under
    # Q_tilde; both measures evaluate the same expressions so that a model
    # with xi = 0 produces bit-identical paths under either measure.
    zeros = np.zeros_like(xi_all)
    xi_drift = xi_all if measure is Measure.Q else zeros
    xi_kappa = xi_all if measure is Measure.Q_TILDE else zeros
    coef_x = 0.5 * s_all * s_all + s_all * xi_drift
    kappa_eff = p.kappa + p.rho * p.sigma_vv * xi_kappa

    dt = g.dt
    denom = 1.0 + kappa_eff * dt
    if np.any(denom[1:] <= 0):
        raise SimulationError(
            "implicit variance step requires 1 + kappa_eff dt > 0; "
            "reduce the step size")
    return _StepCoeffs(
        dt=dt, sqdt=np.sqrt(dt),
        s_left=s_all[:-1], coef_x_left=coef_x[:-1],
        kap_theta_left=p.kappa * theta_all[:-1],
        denom_right=denom[1:],
        sigma=p.sigma_vv, rho=p.rho, rho_bar=np.sqrt(1.0 - p.rho * p.rho),
    )


def _draw_increments(seed: int, lo: int, hi: int, n_steps: int) -> np.ndarray:
    """Standard normal increments, one Philox substream per path.

    Row layout per path: [0] drives W_F, [1] the independent component of
    W_sigma.  The draw depends only on (seed, path index), which gives common
    random numbers across models and measures.
    """
    z = np.empty((hi - lo, 2, n_steps))
    for i in range(lo, hi):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        z[i - lo] = gen.standard_normal((2, n_steps))
    return z


def _step_chunk(c: _StepCoeffs, x0: float, nu0: float, z: np.ndarray,
                record: bool) -> tuple[np.ndarray, np.ndarray]:
    """Advance one chunk of paths; returns full paths or terminal vectors."""
    m, _, n_steps = z.shape
    x = np.full(m, x0)
    nu = np.full(m, nu0)
    if record:
        x_rec = np.empty((m, n_steps + 1))
        nu_rec = np.empty((m, n_steps + 1))
        x_rec[:, 0] = x
        nu_rec[:, 0] = nu
    dt, sqdt, sigma = c.dt, c.sqdt, c.sigma
    for n in range(n_steps):
        sq = np.sqrt(nu)
        dw_f = sqdt * z[:, 0, n]
        dw_s = c.rho * dw_f + c.rho_bar * sqdt * z[:, 1, n]
        x = x + (-c.coef_x_left[n] * dt) * nu + c.s_left[n] * sq * dw_f
        nu = (nu + c.kap_theta_left[n] * dt + sigma * sq * dw_s
              + 0.25 * sigma * sigma * (dw_s * dw_s - dt)) / c.denom_right[n]
        if np.signbit(nu).any():
            raise SimulationError(
                f"variance went negative at step {n + 1}; the drift-implicit "
                "Milstein step requires 4 kappa theta >= sigma_vv^2")
        if record:
            x_rec[:, n + 1] = x
            nu_rec[:, n + 1] = nu
    if not (np.isfinite(x).all() and np.isfinite(nu).all()):
        raise SimulationError("non-finite state encountered (overflow); "
                              "check parameters and step size")
    if record:
        return x_rec, nu_rec
    return x, nu


def _chunk_ranges(n_paths: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK, n_paths)) for lo in range(0, n_paths, _CHUNK)]


def _warn_conditions(p, vol, dp, g):
    rep = full_report(p, vol, dp, horizon=g.t_end)
    if not rep.feller_ok:
        warnings.warn(
            f"Feller condition fails ({rep.feller_lhs:.6g} <= {rep.feller_rhs:.6g}); "
            "the variance process may hit zero", ConditionWarning, stacklevel=3)
    if not rep.novikov_ok:
        warnings.warn(
            f"Novikov condition fails ({rep.novikov_lhs:.6g} <= {rep.novikov_rhs:.6g}); "
            "the measure change is not guaranteed", ConditionWarning, stacklevel=3)


def _validate_run(p, vol, w, dp, g, measure):
    if g.t_end > dp.tau1:
        raise ValueError(
            f"t_end must not exceed the delivery start {dp.tau1}, got {g.t_end}")
    if not isinstance(measure, Measure):
        raise TypeError("measure must be a Measure enum member")


def _run_chunks(n_paths: int, workers: int, worker_fn) -> None:
    """Execute worker_fn(chunk_index, lo, hi) with results in pre-assigned slots."""
    ranges = _chunk_ranges(n_paths)
    if workers <= 1:
        for idx, (lo, hi) in enumerate(ranges):
            worker_fn(idx, lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(worker_fn, idx, lo, hi)
                       for idx, (lo, hi) in enumerate(ranges)]
            for fut in futures:
                fut.result()


def simulate_paths(p: HestonParams, vol: VolStructure, w: WeightFunction,
                   dp: DeliveryPeriod, g: GridSpec,
                   measure: Measure = Measure.Q_TILDE, workers: int = 1) -> PathSet:
    """Full trajectories of (X, nu) on the grid.

    Memory scales as 2 * n_paths * (n_steps + 1) doubles; prefer
    simulate_terminal or simulate_summary for large runs.
    """
    _validate_run(p, vol, w, dp, g, measure)
    _warn_conditions(p, vol, dp, g)
    coeffs = _build_coeffs(p, vol, w, dp, g, measure)
    x0, nu0 = np.log(p.f0), p.nu0
    x_paths = np.empty((g.n_paths, g.n_steps + 1))
    nu_paths = np.empty((g.n_paths, g.n_steps + 1))

    def worker(idx, lo, hi):
        z = _draw_increments(g.seed, lo, hi, g.n_steps)
        x_rec, nu_rec = _step_chunk(coeffs, x0, nu0, z, record=True)
        x_paths[lo:hi] = x_rec
        nu_paths[lo:hi] = nu_rec

    _run_chunks(g.n_paths, workers, worker)
    return PathSet(times=g.times(), x_paths=x_paths, nu_paths=nu_paths, seed=g.seed)


def simulate_terminal(p: HestonParams, vol: VolStructure, w: WeightFunction,
                      dp: DeliveryPeriod, g: GridSpec,
                      measure: Measure = Measure.Q_TILDE,
                      workers: int = 1) -> TerminalSample:
    """Terminal (X, nu) only; same paths as simulate_paths for the same seed."""
    _validate_run(p, vol, w, dp, g, measure)
    _warn_conditions(p, vol, dp, g)
    coeffs = _build_coeffs(p, vol, w, dp, g, measure)
    x0, nu0 = np.log(p.f0), p.nu0
    x_t = np.empty(g.n_paths)
    nu_t = np.empty(g.n_paths)

    def worker(idx, lo, hi):
        z = _draw_increments(g.seed, lo, hi, g.n_steps)
        x, nu = _step_chunk(coeffs, x0, nu0, z, record=False)
        x_t[lo:hi] = x
        nu_t[lo:hi] = nu

    _run_chunks(g.n_paths, workers, worker)
    return TerminalSample(t_end=g.t_end, x=x_t, nu=nu_t, seed=g.seed)


def simulate_summary(p: HestonParams, vol: VolStructure, w: WeightFunction,
                     dp: DeliveryPeriod, g: GridSpec,
                     measure: Measure = Measure.Q_TILDE,
                     workers: int = 1) -> SummaryStats:
    """Streaming per-time statistics of F and nu without storing all paths.

    Chunk partial sums are combined in a fixed order, so the output is
    identical across runs and worker counts.
    """
    _validate_run(p, vol, w, dp, g, measure)
    _warn_conditions(p, vol, dp, g)
    coeffs = _build_coeffs(p, vol, w, dp, g, measure)
    x0, nu0 = np.log(p.f0), p.nu0
    ranges = _chunk_ranges(g.n_paths)
    partial = [None] * len(ranges)

    def worker(idx, lo, hi):
        z = _draw_increments(g.seed, lo, hi, g.n_steps)
        x_rec, nu_rec = _step_chunk(coeffs, x0, nu0, z, record=True)
        f_rec = np.exp(x_rec)
        partial[idx] = (f_rec.sum(axis=0), (f_rec * f_rec).sum(axis=0),
                        nu_rec.sum(axis=0))

    _run_chunks(g.n_paths, workers, worker)
    sum_f = np.zeros(g.n_steps + 1)
    sum_f2 = np.zeros(g.n_steps + 1)
    sum_nu = np.zeros(g.n_steps + 1)
    for sf, sf2, snu in partial:
        sum_f += sf
        sum_f2 += sf2
        sum_nu += snu
    n = g.n_paths
    mean_f = sum_f / n
    if n > 1:
        var_f = np.maximum(sum_f2 - n * mean_f * mean_f, 0.0) / (n - 1)
        stderr_f = np.sqrt(var_f / n)
    else:
        stderr_f = np.zeros_like(mean_f)
    return SummaryStats(times=g.times(), mean_f=mean_f, stderr_f=stderr_f,
                        mean_nu=sum_nu / n)
