"""Monte-Carlo engine for the joint (log swap price, variance) dynamics.

The log swap price follows dX = -(S^2/2 + S xi_q) nu dt + S sqrt(nu) dW_F and
the variance dnu = kappa (theta(t) - nu) dt + sigma_vv sqrt(nu) dW_sigma with
corr(dW_F, dW_sigma) = rho.  Under the swap measure Q_tilde the X drift keeps
only -S^2 nu / 2 while the variance mean-reversion speed becomes
kappa + rho sigma_vv xi(t); under the futures measure Q the extra -S xi nu
drift sits on X and the variance keeps speed kappa.  X is stepped by
Euler-Maruyama on the log (so F = e^X stays positive and is a discrete
martingale under Q_tilde); nu by a drift-implicit Milstein step that preserves
non-negativity.  The X step uses the root mean square of S(t) over the step
(3-point Gauss-Legendre), so the integrated variance of S^2 nu carries no
left-point bias where S varies in time; the Q-measure S xi drift stays at the
left point.

Random numbers: paths run in chunks of _CHUNK rows, and each chunk steps
through the grid in blocks of _STEP_BLOCK time steps.  Block b of chunk c
draws from one counter-based Philox generator with key (seed, c) and counter
(0, b, 0, 0), so every block owns a range of 2^64 counter values.  The draw
is path-major, so row r of a chunk sits at the same offset of every block's
stream whatever the number of rows.  Path i's increments therefore depend
only on (seed, i, n_steps), not on n_paths or the worker count.  Changing
_CHUNK or _STEP_BLOCK changes the stream.  There are two layouts:

- the joint (X, nu) kernel draws (rows, 2, L): dW_F and an independent
  normal that is mixed with it into dW_sigma;
- the variance-only kernel draws (rows, L): dW_sigma alone, one normal per
  path-step.

One driver, _simulate, serves every front-end: it validates the run, reports
failed Feller and Novikov checks, builds the per-step coefficients once and
runs a chunk kernel on every chunk, in order or on a thread pool, returning
the kernels' results in chunk order.  Both kernels step nu with the one
drift-implicit Milstein step of _milstein_steps.  simulate_paths,
simulate_terminal and simulate_summary run the joint kernel, _step_chunk,
and differ only in what they keep of each chunk's state.
simulate_variance_integrals runs the variance-only kernel, _integrate_chunk,
which keeps per path the integrals that conditional Monte-Carlo needs
(D = sum coef_x_dt nu_n, I = sum S^2 nu_n dt and J = sum S sqrt(nu_n)
dW_sigma): given the variance path, X_T of the joint scheme is Gaussian
with mean x0 - D + rho J and variance (1 - rho^2) I.  Results are the same
for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .averaging import decompose
from .conditions import _warn_if_failed, full_report
from .models import (
    DeliveryPeriod,
    HestonParams,
    VolStructure,
    WeightFunction,
    _require_positive_int,
)

__all__ = ["GridSpec", "Measure", "PathSet", "TerminalSample", "SummaryStats",
           "VarianceIntegrals", "SimulationError", "simulate_paths",
           "simulate_terminal", "simulate_summary", "simulate_variance_integrals"]

_CHUNK = 4096        # paths per chunk; part of the random-stream layout
_STEP_BLOCK = 32     # time steps drawn per generator; part of the layout too
_GL3_NODES, _GL3_WEIGHTS = np.polynomial.legendre.leggauss(3)


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
        _require_positive_int("n_steps", self.n_steps)
        _require_positive_int("n_paths", self.n_paths)
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
    """Per-time-point statistics of F = e^X and nu across all paths.

    ``stderr_f`` is None for a single path, where it is undefined."""
    times: np.ndarray
    mean_f: np.ndarray
    stderr_f: np.ndarray | None
    mean_nu: np.ndarray


@dataclass
class VarianceIntegrals:
    """Per-path sums over one variance path each, n = 0..n_steps-1.

    ``drift`` is D = sum coef_x_dt nu_n, the X drift of the joint scheme;
    ``var`` is I = sum S^2 nu_n dt; ``vol_dw`` is J = sum S sqrt(nu_n) dW_sigma,n,
    with S the step's root mean square delivery factor."""
    drift: np.ndarray
    var: np.ndarray
    vol_dw: np.ndarray


@dataclass(frozen=True)
class _StepCoeffs:
    """Per-step coefficient arrays shared by every chunk, index n = 0..n_steps-1,
    and the start state and seed of every path."""
    n_steps: int
    dt: float
    sqdt: float
    s_step: np.ndarray        # root mean square of S over [t_n, t_{n+1}]
    s2_dt: np.ndarray         # s_step^2 dt
    coef_x_dt: np.ndarray     # (s_step^2/2 + S xi_drift(t_n)) dt
    kap_theta_dt: np.ndarray  # kappa theta(t_n) dt
    denom_right: np.ndarray   # 1 + kappa_eff(t_{n+1}) dt
    sigma: float
    rho: float
    rho_bar: float
    x0: float
    nu0: float
    seed: int


def _build_coeffs(p: HestonParams, vol: VolStructure, w: WeightFunction,
                  dp: DeliveryPeriod, g: GridSpec, measure: Measure) -> _StepCoeffs:
    times = g.times()
    dec = decompose(vol, w, dp)
    s_all = np.asarray(dec.big_s(times), dtype=float)
    xi_all = np.asarray(dec.xi(times), dtype=float)
    theta_all = np.asarray(p.theta_fn()(times), dtype=float)

    # S(t) grows like e^{lam t} under Samuelson, so S(t_n)^2 dt undershoots
    # the step's integrated S^2 by about lam dt; average S^2 over the step.
    dt = g.dt
    gl_times = times[:-1, None] + 0.5 * dt * (1.0 + _GL3_NODES)
    s_gl = np.asarray(dec.big_s(gl_times.ravel()), dtype=float).reshape(gl_times.shape)
    s2_step = (s_gl * s_gl) @ (0.5 * _GL3_WEIGHTS)

    # xi enters the X drift under Q and the variance mean-reversion under
    # Q_tilde; both measures evaluate the same expressions so that a model
    # with xi = 0 produces bit-identical paths under either measure.
    zeros = np.zeros_like(xi_all)
    xi_drift = xi_all if measure is Measure.Q else zeros
    xi_kappa = xi_all if measure is Measure.Q_TILDE else zeros
    coef_x = 0.5 * s2_step + s_all[:-1] * xi_drift[:-1]
    kappa_eff = p.kappa + p.rho * p.sigma_vv * xi_kappa

    denom = 1.0 + kappa_eff * dt
    if np.any(denom[1:] <= 0):
        raise SimulationError(
            "implicit variance step requires 1 + kappa_eff dt > 0; "
            "reduce the step size")
    return _StepCoeffs(
        n_steps=g.n_steps, dt=dt, sqdt=np.sqrt(dt),
        s_step=np.sqrt(s2_step), s2_dt=s2_step * dt, coef_x_dt=coef_x * dt,
        kap_theta_dt=p.kappa * theta_all[:-1] * dt,
        denom_right=denom[1:],
        sigma=p.sigma_vv, rho=p.rho, rho_bar=np.sqrt(1.0 - p.rho * p.rho),
        x0=float(np.log(p.f0)), nu0=p.nu0, seed=g.seed,
    )


def _block_normals(c: _StepCoeffs, seed: int, chunk: int, block: int, rows: int,
                   width: int) -> np.ndarray:
    """sqrt(dt) times standard normals of one step block of one chunk, step-major.

    Returns shape (L, width, rows) for steps block * _STEP_BLOCK onwards, L =
    _STEP_BLOCK except in the last block.  The normals come from
    Philox(key=(seed, chunk), counter=(0, block, 0, 0)), drawn path-major as
    (rows, width, L) so that row r's draws do not depend on how many rows the
    chunk has, and copied once into step-major order.  They do not depend on
    the model or the measure either, which gives common random numbers across
    both.
    """
    length = min(_STEP_BLOCK, c.n_steps - block * _STEP_BLOCK)
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed, chunk], dtype=np.uint64),
        counter=np.array([0, block, 0, 0], dtype=np.uint64)))
    return np.multiply(gen.standard_normal((rows, width, length)).transpose(2, 1, 0),
                       c.sqdt, order="C")


def _block_increments(c: _StepCoeffs, seed: int, chunk: int, block: int,
                      rows: int) -> np.ndarray:
    """Brownian increments of the joint scheme for one step block of one chunk.

    Shape (L, 2, rows): [:, 0] is dW_F and [:, 1] is dW_sigma, with
    corr(dW_F, dW_sigma) = rho.
    """
    dw = _block_normals(c, seed, chunk, block, rows, 2)
    dw[:, 1] *= c.rho_bar
    dw[:, 1] += c.rho * dw[:, 0]
    return dw


def _milstein_steps(c: _StepCoeffs, nu: np.ndarray, dws: np.ndarray, n0: int,
                    sq: np.ndarray):
    """Drift-implicit Milstein steps of nu over one step block, in place.

    dws[k] is sigma_vv dW_sigma over step n = n0 + k, and sq[k] receives
    sqrt(nu_n).  Yields (k, n) while nu still holds nu_n, so the caller can
    use the left-point state; the step to nu_{n+1} is taken when the caller
    asks for the next one.
    """
    # Milstein correction plus the mean-reversion inflow, ahead of the loop
    inflow = (0.25 * (dws * dws - c.sigma * c.sigma * c.dt)
              + c.kap_theta_dt[n0:n0 + len(dws), None])
    for k in range(len(dws)):
        n = n0 + k
        np.sqrt(nu, out=sq[k])
        yield k, n
        nu += sq[k] * dws[k]
        nu += inflow[k]
        nu /= c.denom_right[n]
        if np.signbit(nu).any():
            raise SimulationError(
                f"variance went negative at step {n + 1}; the drift-implicit "
                "Milstein step requires 4 kappa theta >= sigma_vv^2")


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise SimulationError("non-finite state encountered (overflow); "
                              "check parameters and step size")


def _step_chunk(c: _StepCoeffs, chunk: int, rows: int,
                observe=None) -> tuple[np.ndarray, np.ndarray]:
    """Joint kernel: advance (x, nu) of one chunk over the whole grid; returns terminal (x, nu).

    Increments are drawn and consumed one step block at a time, so a chunk
    never holds more than one block of them.  observe(n, x, nu), when given,
    sees the state at every grid time n = 0..n_steps; x and nu are updated in
    place afterwards, so it must copy what it keeps.
    """
    x = np.full(rows, c.x0)
    nu = np.full(rows, c.nu0)
    sq = np.empty((_STEP_BLOCK, rows))
    for block, n0 in enumerate(range(0, c.n_steps, _STEP_BLOCK)):
        dw = _block_increments(c, c.seed, chunk, block, rows)
        dw[:, 0] *= c.s_step[n0:n0 + len(dw), None]
        dw[:, 1] *= c.sigma
        for k, n in _milstein_steps(c, nu, dw[:, 1], n0, sq):
            if observe is not None:
                observe(n, x, nu)
            x += sq[k] * dw[k, 0]
            x -= c.coef_x_dt[n] * nu
    if observe is not None:
        observe(c.n_steps, x, nu)
    _require_finite(x, nu)
    return x, nu


def _step_sum(weights: np.ndarray, blk: np.ndarray) -> np.ndarray:
    """sum_k weights[k] blk[k] over the steps of a block, added in step order.

    A BLAS product (weights @ blk) rounds the last few columns differently
    depending on how many columns there are, so a path's sums would depend
    on n_paths.
    """
    out = weights[0] * blk[0]
    for w, row in zip(weights[1:], blk[1:]):
        out += w * row
    return out


def _integrate_chunk(c: _StepCoeffs, chunk: int, lo: int,
                     hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variance-only kernel: per-path (D, I, J) of paths lo..hi-1, see VarianceIntegrals.

    One normal per path-step, dW_sigma.  Each step block keeps sqrt(nu_n)
    of its steps and adds to every sum one weighted sum over the block.
    """
    rows = hi - lo
    nu = np.full(rows, c.nu0)
    drift, var, vol_dw = np.zeros(rows), np.zeros(rows), np.zeros(rows)
    for block, n0 in enumerate(range(0, c.n_steps, _STEP_BLOCK)):
        dw = _block_normals(c, c.seed, chunk, block, rows, 1)[:, 0]
        n1 = n0 + len(dw)
        sq = np.empty_like(dw)
        for _ in _milstein_steps(c, nu, c.sigma * dw, n0, sq):
            pass  # nothing to do between steps; the block's sums come after
        nu_blk = sq * sq
        drift += _step_sum(c.coef_x_dt[n0:n1], nu_blk)
        var += _step_sum(c.s2_dt[n0:n1], nu_blk)
        sq *= dw
        vol_dw += _step_sum(c.s_step[n0:n1], sq)
    _require_finite(nu, drift, var, vol_dw)
    return drift, var, vol_dw


def _n_chunks(g: GridSpec) -> int:
    return -(-g.n_paths // _CHUNK)


def _simulate(p: HestonParams, vol: VolStructure, w: WeightFunction,
              dp: DeliveryPeriod, g: GridSpec, measure: Measure, workers: int,
              kernel) -> list:
    """Validate, warn and run kernel(coeffs, chunk, lo, hi) on every chunk.

    The kernel handles paths lo..hi-1 of chunk number `chunk`; its results
    are returned in chunk order whatever the worker count.
    """
    if g.t_end > dp.tau1:
        raise ValueError(
            f"t_end must not exceed the delivery start {dp.tau1}, got {g.t_end}")
    if not isinstance(measure, Measure):
        raise TypeError("measure must be a Measure enum member")
    rep = full_report(p, vol, dp, horizon=g.t_end)
    _warn_if_failed("Feller", rep.feller_ok, rep.feller_lhs, rep.feller_rhs)
    _warn_if_failed("Novikov", rep.novikov_ok, rep.novikov_lhs, rep.novikov_rhs)
    coeffs = _build_coeffs(p, vol, w, dp, g, measure)

    def run_chunk(idx):
        return kernel(coeffs, idx, idx * _CHUNK, min((idx + 1) * _CHUNK, g.n_paths))

    chunks = range(_n_chunks(g))
    if workers <= 1:
        return list(map(run_chunk, chunks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_chunk, chunks))


def simulate_paths(p: HestonParams, vol: VolStructure, w: WeightFunction,
                   dp: DeliveryPeriod, g: GridSpec,
                   measure: Measure = Measure.Q_TILDE, workers: int = 1) -> PathSet:
    """Full trajectories of (X, nu) on the grid.

    Memory scales as 2 * n_paths * (n_steps + 1) doubles; prefer
    simulate_terminal or simulate_summary for large runs.
    """
    x_paths = np.empty((g.n_paths, g.n_steps + 1))
    nu_paths = np.empty((g.n_paths, g.n_steps + 1))

    def kernel(c, chunk, lo, hi):
        def record(n, x, nu):
            x_paths[lo:hi, n] = x
            nu_paths[lo:hi, n] = nu
        _step_chunk(c, chunk, hi - lo, record)

    _simulate(p, vol, w, dp, g, measure, workers, kernel)
    return PathSet(times=g.times(), x_paths=x_paths, nu_paths=nu_paths, seed=g.seed)


def simulate_terminal(p: HestonParams, vol: VolStructure, w: WeightFunction,
                      dp: DeliveryPeriod, g: GridSpec,
                      measure: Measure = Measure.Q_TILDE,
                      workers: int = 1) -> TerminalSample:
    """Terminal (X, nu) only; same paths as simulate_paths for the same seed."""
    parts = _simulate(p, vol, w, dp, g, measure, workers,
                      lambda c, chunk, lo, hi: _step_chunk(c, chunk, hi - lo))
    x_t, nu_t = map(np.concatenate, zip(*parts))
    return TerminalSample(t_end=g.t_end, x=x_t, nu=nu_t, seed=g.seed)


def simulate_summary(p: HestonParams, vol: VolStructure, w: WeightFunction,
                     dp: DeliveryPeriod, g: GridSpec,
                     measure: Measure = Measure.Q_TILDE,
                     workers: int = 1) -> SummaryStats:
    """Streaming per-time statistics of F and nu without storing all paths.

    Chunk partial sums are combined in a fixed order, so the output is
    identical across runs and worker counts.
    """
    def kernel(c, chunk, lo, hi):
        sums = np.empty((3, g.n_steps + 1))

        def accumulate(n, x, nu):
            f = np.exp(x)
            sums[:, n] = f.sum(), (f * f).sum(), nu.sum()
        _step_chunk(c, chunk, hi - lo, accumulate)
        return sums

    sum_f, sum_f2, sum_nu = sum(_simulate(p, vol, w, dp, g, measure, workers, kernel))
    n = g.n_paths
    mean_f = sum_f / n
    stderr_f = None
    if n > 1:
        var_f = np.maximum(sum_f2 - n * mean_f * mean_f, 0.0) / (n - 1)
        stderr_f = np.sqrt(var_f / n)
    return SummaryStats(times=g.times(), mean_f=mean_f, stderr_f=stderr_f,
                        mean_nu=sum_nu / n)


def simulate_variance_integrals(p: HestonParams, vol: VolStructure, w: WeightFunction,
                                dp: DeliveryPeriod, g: GridSpec,
                                measure: Measure = Measure.Q_TILDE,
                                workers: int = 1) -> VarianceIntegrals:
    """Per-path (D, I, J) from the variance-only stream, one draw per path-step.

    This is a different stream from simulate_terminal's: the same seed gives
    other variance paths.
    """
    parts = _simulate(p, vol, w, dp, g, measure, workers, _integrate_chunk)
    return VarianceIntegrals(*map(np.concatenate, zip(*parts)))
