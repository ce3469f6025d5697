"""Monte-Carlo engine for the joint (log swap price, variance) dynamics.

The log swap price follows dX = -(S^2/2 + S xi_q) nu dt + S sqrt(nu) dW_F and
the variance dnu = kappa (theta(t) - nu) dt + sigma_vv sqrt(nu) dW_sigma with
corr(dW_F, dW_sigma) = rho.  Under the swap measure Q_tilde the X drift keeps
only -S^2 nu / 2 while the variance mean-reversion speed becomes
kappa + rho sigma_vv xi(t); under the futures measure Q the extra -S xi nu
drift sits on X and the variance keeps speed kappa.  X is stepped by
Euler-Maruyama on the log (so F = e^X stays positive and is a discrete
martingale under Q_tilde); nu by a drift-implicit Milstein step, written as
a perfect square so that nu stays non-negative wherever 4 kappa theta(t) >=
sigma_vv^2 (see _nu_steps).  The X step uses the root mean square of S(t)
over the step (3-point Gauss-Legendre), so the integrated variance of S^2 nu
carries no left-point bias where S varies in time; the Q-measure S xi drift
stays at the left point.

Random numbers: paths run in chunks of _CHUNK rows, and each chunk steps
through the grid in blocks of _STEP_BLOCK time steps.  Block b of chunk c
draws from counter-based Philox generators with key (seed, c): dW_sigma from
counter (0, b, 0, 0) and, for the joint kernel only, an independent normal Z
from counter (0, b, 1, 0), so every (block, stream) owns a range of 2^64
counter values.  Each draw is path-major (rows, L), so row r of a chunk sits
at the same offset of every block's stream whatever the number of rows.
Path i's increments therefore depend only on (seed, i, n_steps), not on
n_paths or the worker count.  Changing _CHUNK or _STEP_BLOCK changes the
stream.

One driver, _simulate, serves every front-end: it validates the run, reports
failed Feller and Novikov checks, builds the per-step coefficients once and
runs a chunk kernel on every chunk, in order or on a thread pool, returning
the kernels' results in chunk order.  One stepper, _nu_steps, draws the
normals and takes the drift-implicit Milstein steps of nu for both kernels,
one step at a time on vectors of one chunk's rows, so one seed gives the same
variance paths everywhere; each kernel adds its per-step sums in the same
loop.  simulate_paths, simulate_terminal and simulate_summary run the joint
kernel, _step_chunk, which sets dW_F = rho dW_sigma + sqrt(1 - rho^2) Z and
differs between front-ends only in what it keeps of each chunk's state.
simulate_variance_integrals runs the variance-only kernel, _integrate_chunk,
which keeps per path the integrals that conditional Monte-Carlo needs
(D = sum coef_x_dt nu_n, I = sum S^2 nu_n dt and J = sum S sqrt(nu_n)
dW_sigma): given the variance path, X_T of the joint kernel is Gaussian
with mean x0 - D + rho J and variance (1 - rho^2) I.  It also returns
E[I], from one deterministic recursion of the scheme's mean variance, so
that J (mean 0) and I - E[I] can serve as control variates.  Results are
the same for any worker count.
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
_SUB_BLOCK = 8       # steps scaled at a time into scratch; not part of the layout
_GL3_NODES, _GL3_WEIGHTS = np.polynomial.legendre.leggauss(3)
# the largest array numpy can index: one entry per path, or per grid time
_MAX_ARRAY_SIZE = int(np.iinfo(np.intp).max)


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
        # the values are not printed, as str() of a huge int can itself fail
        if self.n_paths > _MAX_ARRAY_SIZE:
            raise ValueError(f"n_paths must be at most {_MAX_ARRAY_SIZE}, the largest "
                             f"array size")
        if self.n_steps >= _MAX_ARRAY_SIZE:
            raise ValueError(f"n_steps must be below {_MAX_ARRAY_SIZE}, the largest array "
                             f"size, as the grid has n_steps + 1 times")
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
    with S the step's root mean square delivery factor.  ``var_mean`` is the
    exact expectation of I under the scheme (see _variance_mean); J has
    expectation 0."""
    drift: np.ndarray
    var: np.ndarray
    vol_dw: np.ndarray
    var_mean: float


@dataclass(frozen=True)
class _StepCoeffs:
    """Per-step coefficient arrays shared by every chunk, index n = 0..n_steps-1,
    and the start state and seed of every path."""
    n_steps: int
    dt: float
    sqdt: float
    s_sqdt: np.ndarray        # root mean square of S over [t_n, t_{n+1}], times sqrt(dt)
    s2_dt: np.ndarray         # that root mean square squared, times dt
    coef_x_dt: np.ndarray     # (s2_dt/2 + xi_x_dt), the X drift per unit nu
    xi_x_dt: np.ndarray       # S xi_drift(t_n) dt, 0 under Q_tilde
    kap_theta_dt: np.ndarray  # kappa theta(t_n) dt
    denom_right: np.ndarray   # 1 + kappa_eff(t_{n+1}) dt
    inflow: np.ndarray        # c_n = kappa theta(t_n) dt - sigma_vv^2 dt / 4
    inv_denom: np.ndarray     # 1 / denom_right
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
    xi_x_dt = s_all[:-1] * xi_drift[:-1] * dt
    kappa_eff = p.kappa + p.rho * p.sigma_vv * xi_kappa

    denom = 1.0 + kappa_eff * dt
    if np.any(denom[1:] <= 0):
        raise SimulationError(
            "implicit variance step requires 1 + kappa_eff dt > 0; "
            "reduce the step size")
    kap_theta_dt = p.kappa * theta_all[:-1] * dt
    return _StepCoeffs(
        n_steps=g.n_steps, dt=dt, sqdt=np.sqrt(dt),
        s_sqdt=np.sqrt(s2_step * dt), s2_dt=s2_step * dt,
        coef_x_dt=0.5 * s2_step * dt + xi_x_dt, xi_x_dt=xi_x_dt,
        kap_theta_dt=kap_theta_dt, denom_right=denom[1:],
        inflow=kap_theta_dt - 0.25 * p.sigma_vv * p.sigma_vv * dt,
        inv_denom=1.0 / denom[1:],
        sigma=p.sigma_vv, rho=p.rho, rho_bar=np.sqrt(1.0 - p.rho * p.rho),
        x0=float(np.log(p.f0)), nu0=p.nu0, seed=g.seed,
    )


def _variance_mean(c: _StepCoeffs) -> float:
    """E[I] = sum s2_dt[n] m_n, with m_n = E[nu_n] of the drift-implicit Milstein step.

    The step's noise terms sqrt(nu_n) dW and (dW^2 - dt) / 4 have mean 0, so
    m_0 = nu0 and m_{n+1} = (m_n + kap_theta_dt[n]) / denom_right[n] exactly.
    """
    m, total = c.nu0, 0.0
    for s2_dt, kap_theta_dt, denom in zip(c.s2_dt, c.kap_theta_dt, c.denom_right):
        total += s2_dt * m
        m = (m + kap_theta_dt) / denom
    return float(total)


def _block_normals(c: _StepCoeffs, chunk: int, block: int, rows: int,
                   stream: int, draw: np.ndarray | None = None) -> np.ndarray:
    """Standard normals of one step block of one chunk, as a step-major (L, rows) view.

    The block covers steps block * _STEP_BLOCK onwards, L = _STEP_BLOCK
    except in the last block.  The normals come from Philox(key=(seed,
    chunk), counter=(0, block, stream, 0)), drawn path-major as (rows, L)
    into draw (at least rows * L, when given) so that row r's draws do not
    depend on how many rows the chunk has.  They do not depend on the model
    or the measure either, which gives common random numbers across both.
    """
    length = min(_STEP_BLOCK, c.n_steps - block * _STEP_BLOCK)
    draw = np.empty(rows * length) if draw is None else draw[:rows * length]
    gen = np.random.Generator(np.random.Philox(
        key=np.array([c.seed, chunk], dtype=np.uint64),
        counter=np.array([0, block, stream, 0], dtype=np.uint64)))
    gen.standard_normal(out=draw)
    return draw.reshape(rows, length).T


def _nu_steps(c: _StepCoeffs, chunk: int, nu: np.ndarray, joint: bool):
    """Drift-implicit Milstein steps of nu over the whole grid, nu updated in place.

    Yields (n, nu, sq, sdw) for n = 0..n_steps-1: nu holds nu_n, sq is
    sqrt(nu_n) and sdw is S dW_n with S the step's root mean square delivery
    factor.  dW is dW_sigma (stream 0) or, if joint, dW_F = rho dW_sigma +
    rho_bar Z with Z from stream 1.  All three are overwritten once the
    consumer resumes; after the last step nu holds nu_{n_steps}.

    The step nu_{n+1} (1 + kappa_eff dt) = nu_n + kappa theta dt + sigma
    sqrt(nu_n) dW + sigma^2 (dW^2 - dt) / 4 is taken as the perfect square
    nu_{n+1} = ((sqrt(nu_n) + sigma dW / 2)^2 + c_n) inv_n, with c_n =
    (kappa theta(t_n) - sigma^2 / 4) dt and inv_n = 1 / (1 + kappa_eff dt) > 0.
    Where 4 kappa theta(t_n) >= sigma^2, c_n >= 0 and nu_{n+1} >= 0 by
    construction, so only steps with c_n < 0 are checked for lost positivity.
    Each step block's draws are scaled into step-major scratch _SUB_BLOCK
    steps at a time, and all per-step work is on rows-long vectors, so the
    working set stays in cache.
    """
    rows = nu.size
    draws = np.empty((1 + joint, rows * _STEP_BLOCK))
    half_dw, sdw, tmp = (np.empty((_SUB_BLOCK, rows)) for _ in range(3))
    sq = np.empty(rows)
    half_sigma = 0.5 * c.sigma * c.sqdt
    inflow, inv_denom = c.inflow.tolist(), c.inv_denom.tolist()
    check = (c.inflow < 0).tolist()
    for block, n0 in enumerate(range(0, c.n_steps, _STEP_BLOCK)):
        dw = _block_normals(c, chunk, block, rows, 0, draws[0])
        z = _block_normals(c, chunk, block, rows, 1, draws[1]) if joint else None
        for k0 in range(0, len(dw), _SUB_BLOCK):
            n1 = n0 + k0
            m = min(_SUB_BLOCK, len(dw) - k0)
            s = c.s_sqdt[n1:n1 + m, None]
            h = np.multiply(dw[k0:k0 + m], half_sigma, out=half_dw[:m])
            w = np.multiply(dw[k0:k0 + m], s * c.rho if joint else s, out=sdw[:m])
            if joint:
                w += np.multiply(z[k0:k0 + m], s * c.rho_bar, out=tmp[:m])
            for k, n in enumerate(range(n1, n1 + m)):
                np.sqrt(nu, out=sq)
                yield n, nu, sq, w[k]
                np.add(sq, h[k], out=nu)
                np.square(nu, out=nu)
                nu += inflow[n]
                nu *= inv_denom[n]
                if check[n] and np.signbit(nu).any():
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

    Takes nu_n and S dW_F from _nu_steps.  observe(n, x, nu), when given,
    sees the state at every grid time n = 0..n_steps; both arrays are
    overwritten afterwards, so it must copy what it keeps.
    """
    x = np.full(rows, c.x0)
    nu = np.full(rows, c.nu0)
    tmp = np.empty(rows)
    coef_x_dt = c.coef_x_dt.tolist()
    for n, nu_n, sq, sdw in _nu_steps(c, chunk, nu, joint=True):
        if observe is not None:
            observe(n, x, nu_n)
        x += np.multiply(sq, sdw, out=tmp)
        x -= np.multiply(nu_n, coef_x_dt[n], out=tmp)
    if observe is not None:
        observe(c.n_steps, x, nu)
    _require_finite(x, nu)
    return x, nu


def _integrate_chunk(c: _StepCoeffs, chunk: int, lo: int,
                     hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variance-only kernel: per-path (D, I, J) of paths lo..hi-1, see VarianceIntegrals.

    The sums are added in step order, one step at a time: a BLAS product
    over steps would round differently depending on the number of paths.
    D = I / 2 plus, under Q, sum xi_x_dt nu_n.
    """
    rows = hi - lo
    nu = np.full(rows, c.nu0)
    var, vol_dw, tmp = np.zeros(rows), np.zeros(rows), np.empty(rows)
    s2_dt, xi_x_dt = c.s2_dt.tolist(), c.xi_x_dt.tolist()
    xi_drift = np.zeros(rows) if any(xi_x_dt) else None
    for n, nu_n, sq, sdw in _nu_steps(c, chunk, nu, joint=False):
        var += np.multiply(nu_n, s2_dt[n], out=tmp)
        vol_dw += np.multiply(sq, sdw, out=tmp)
        if xi_drift is not None:
            xi_drift += np.multiply(nu_n, xi_x_dt[n], out=tmp)
    drift = 0.5 * var if xi_drift is None else 0.5 * var + xi_drift
    _require_finite(nu, drift, var, vol_dw)
    return drift, var, vol_dw


def _n_chunks(g: GridSpec) -> int:
    return -(-g.n_paths // _CHUNK)


def _simulate(p: HestonParams, vol: VolStructure, w: WeightFunction,
              dp: DeliveryPeriod, g: GridSpec, measure: Measure, workers: int,
              kernel) -> tuple[_StepCoeffs, list]:
    """Validate, warn and run kernel(coeffs, chunk, lo, hi) on every chunk.

    The kernel handles paths lo..hi-1 of chunk number `chunk`.  Returns the
    coefficients and the kernel's results in chunk order, whatever the
    worker count.
    """
    _require_positive_int("workers", workers)
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
        return coeffs, list(map(run_chunk, chunks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return coeffs, list(pool.map(run_chunk, chunks))


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
    _, parts = _simulate(p, vol, w, dp, g, measure, workers,
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

    sum_f, sum_f2, sum_nu = sum(_simulate(p, vol, w, dp, g, measure, workers, kernel)[1])
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
    """Per-path (D, I, J) and E[I], one draw per path-step.

    The variance paths are those of simulate_terminal for the same seed.
    """
    coeffs, parts = _simulate(p, vol, w, dp, g, measure, workers, _integrate_chunk)
    return VarianceIntegrals(*map(np.concatenate, zip(*parts)),
                             var_mean=_variance_mean(coeffs))
