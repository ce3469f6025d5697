"""Parameter containers, volatility structures, delivery periods and weights.

The instantaneous futures volatility is separable, sigma(t, u) = s(t, u) * sqrt(nu(t)),
where u is the delivery time, s is a deterministic factor selected by a
``VolStructure`` variant, and nu follows the square-root process
d nu = kappa (theta(t) - nu) dt + sigma_vv sqrt(nu) dW.  Swaps deliver over a
period (tau1, tau2] and average the underlying futures with a normalized
weight density.

Every construction-time ValueError message starts with the name of the
offending field ("rho must lie in (-1, 1), got 1.0"); the CLI relies on that
first word to report the error under the dotted config path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .quadrature import adaptive_gauss_legendre

__all__ = [
    "HestonParams",
    "DeliveryPeriod",
    "OptionSpec",
    "UniformWeight",
    "ExponentialWeight",
    "CustomWeight",
    "WeightFunction",
    "TradingSeasonal",
    "Samuelson",
    "DeliverySeasonal",
    "GeneralSeparable",
    "VolStructure",
    "eval_s",
    "weight_hat",
    "weight_density",
    "as_time_function",
    "variant_tag",
    "theta_min_on_grid",
]

TWO_PI = 2.0 * np.pi


def _on_array(f: Callable, x: np.ndarray) -> np.ndarray:
    """f(x) for an array x; a callable that only takes scalars is looped over."""
    try:
        out = np.asarray(f(x), dtype=float)
        if out.shape == x.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(f(float(v))) for v in x.ravel()]).reshape(x.shape)


def as_time_function(value: float | Callable) -> Callable:
    """Wrap a constant or a scalar callable into a vectorized function of time.

    The returned function accepts a float or an ndarray and returns the same
    shape.  Scalar-only callables are looped over transparently.
    """
    if callable(value):
        def fn(t):
            t_arr = np.asarray(t, dtype=float)
            if t_arr.ndim == 0:
                return float(value(float(t_arr)))
            return _on_array(value, t_arr)
        return fn
    v = float(value)

    def const(t):
        t_arr = np.asarray(t, dtype=float)
        if t_arr.ndim == 0:
            return v
        return np.full(t_arr.shape, v)
    return const


@dataclass(frozen=True)
class HestonParams:
    """CIR variance and market parameters.

    theta may be a finite positive constant or a callable of trading time.
    A constant is checked here; a callable is checked wherever the pricing
    engines evaluate it, through ``theta_fn``.  Every other field must be
    finite.
    """
    kappa: float
    theta: float | Callable[[float], float]
    sigma_vv: float
    rho: float
    nu0: float
    f0: float
    r: float = 0.0

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if not callable(self.theta) and not 0 < float(self.theta) < math.inf:
            raise ValueError(f"theta must be finite and > 0, got {self.theta}")
        if not 0 <= self.sigma_vv < math.inf:
            raise ValueError(f"sigma_vv must be finite and >= 0, got {self.sigma_vv}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho}")
        if not 0 < self.nu0 < math.inf:
            raise ValueError(f"nu0 must be finite and > 0, got {self.nu0}")
        if not 0 < self.f0 < math.inf:
            raise ValueError(f"f0 must be finite and > 0, got {self.f0}")
        if not 0 <= self.r < math.inf:
            raise ValueError(f"r must be finite and >= 0, got {self.r}")

    def theta_fn(self) -> Callable:
        """theta as a vectorized function of time that raises unless 0 < theta(t) < inf."""
        theta = as_time_function(self.theta)
        if not callable(self.theta):
            return theta

        def checked(t):
            vals = theta(t)
            if not np.all((vals > 0) & (vals < math.inf)):
                raise ValueError("theta(t) must be finite and positive at every time "
                                 "the pricing engines evaluate it")
            return vals
        return checked


@dataclass(frozen=True)
class DeliveryPeriod:
    """Delivery period (tau1, tau2], in year fractions."""
    tau1: float
    tau2: float

    def __post_init__(self):
        if not 0 < self.tau1 < math.inf:
            raise ValueError(f"tau1 must be positive and finite, got {self.tau1}")
        if not self.tau1 < self.tau2 < math.inf:
            raise ValueError(f"tau2 must be finite and exceed tau1 = {self.tau1}, "
                             f"got {self.tau2}")

    @property
    def delta(self) -> float:
        return self.tau2 - self.tau1


@dataclass(frozen=True)
class OptionSpec:
    """European option on the swap: strike K and exercise time T (T < tau1)."""
    strike: float
    exercise: float

    def __post_init__(self):
        if not 0 < self.strike < math.inf:
            raise ValueError(f"strike must be finite and > 0, got {self.strike}")
        if not 0 < self.exercise < math.inf:
            raise ValueError(f"exercise must be finite and > 0, got {self.exercise}")


def _require_positive_int(name: str, value) -> None:
    """Reject a count that is not an integer >= 1; a bool is not a count."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= 1):
        try:
            got = f", got {value}"
        except ValueError:  # str() of an int beyond Python's digit limit fails
            got = ""
        raise ValueError(f"{name} must be a positive integer{got}")


def _frozen_copies(*tables) -> list[np.ndarray]:
    """Read-only float copies of the tables a from_table builder keeps."""
    out = [np.array(table, dtype=float) for table in tables]
    for arr in out:
        arr.flags.writeable = False
    return out


def _require_finite(**tables: np.ndarray) -> None:
    """Reject a table with a NaN or infinite entry, naming the table first."""
    for name, arr in tables.items():
        bad = arr[~np.isfinite(arr)]
        if bad.size:
            raise ValueError(f"{name} must be finite, got {bad[0]}")


# ---------------------------------------------------------------------------
# weight functions on the delivery period


@dataclass(frozen=True)
class UniformWeight:
    """Constant weight: density 1/(tau2 - tau1)."""


@dataclass(frozen=True)
class ExponentialWeight:
    """Unnormalized weight w_hat(u) = exp(-rate * u); rate 0 reduces to uniform."""
    rate: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rate):
            raise ValueError(f"rate must be finite, got {self.rate}")


@dataclass(frozen=True)
class CustomWeight:
    """Positive user weight w_hat(u), normalized over the delivery period.

    ``knots`` lists points where w_hat is not smooth (table breakpoints);
    integration routines split panels there so piecewise-polynomial weights
    integrate exactly.  The weight keys a cache of delivery moments, with
    ``w_hat`` by identity, so ``w_hat`` must not change once the weight is
    built.  A ``w_hat`` that cannot be hashed (numpy's ``Polynomial``) works
    too; its moments are then integrated again on every price.
    """
    w_hat: Callable[[np.ndarray], np.ndarray]
    knots: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.knots is not None:  # a list would make the weight unhashable
            object.__setattr__(self, "knots", tuple(float(k) for k in self.knots))

    @classmethod
    def from_table(cls, u_grid, values) -> "CustomWeight":
        """Build a weight by linear interpolation of tabulated values.

        The weight keeps read-only copies of the tables, so a later change to
        the caller's arrays cannot reach it.
        """
        u_grid, values = _frozen_copies(u_grid, values)
        if u_grid.ndim != 1 or u_grid.shape != values.shape or u_grid.size < 2:
            raise ValueError("weight table needs matching 1-d u_grid and values with >= 2 points")
        _require_finite(u_grid=u_grid, values=values)
        if np.any(np.diff(u_grid) <= 0):
            raise ValueError("weight table u_grid must be strictly increasing")
        if np.any(values <= 0):
            raise ValueError("weight table values must be positive")

        def interp(u):
            u = np.asarray(u, dtype=float)
            if np.any(u < u_grid[0]) or np.any(u > u_grid[-1]):
                raise ValueError("weight table does not cover the requested u")
            return np.interp(u, u_grid, values)

        return cls(interp, knots=tuple(float(v) for v in u_grid))


WeightFunction = Union[UniformWeight, ExponentialWeight, CustomWeight]


def weight_hat(w: WeightFunction, u) -> np.ndarray | float:
    """Unnormalized weight w_hat evaluated at u (scalar or array)."""
    u_arr = np.asarray(u, dtype=float)
    if isinstance(w, UniformWeight):
        vals = np.ones(u_arr.shape)
    elif isinstance(w, ExponentialWeight):
        vals = np.exp(-w.rate * u_arr)
    elif isinstance(w, CustomWeight):
        vals = _on_array(w.w_hat, u_arr)
        if not np.all((vals > 0) & (vals < np.inf)):
            raise ValueError("custom weight must be positive and finite on the delivery period")
    else:
        raise TypeError(f"unsupported weight function {type(w).__name__}")
    if u_arr.ndim == 0:
        return float(vals)
    return vals


def integrate_over_delivery(fn, w: WeightFunction, dp: DeliveryPeriod) -> float:
    """Integrate ``fn`` over the delivery period, splitting at weight knots.

    A tabulated weight has kinks at its breakpoints; placing panel edges on
    them keeps each panel smooth (for linear tables, exactly polynomial).
    The absolute tolerance of 1e-10 is shared evenly between the pieces.
    """
    inner: list[float] = []
    if isinstance(w, CustomWeight) and w.knots is not None:
        inner = [k for k in w.knots if dp.tau1 < k < dp.tau2]
    pts = [dp.tau1, *inner, dp.tau2]
    budget = 1e-10 / (len(pts) - 1)
    return float(sum(
        adaptive_gauss_legendre(fn, lo, hi, abs_tol=budget)
        for lo, hi in zip(pts[:-1], pts[1:])
    ))


def _period_weight(w: WeightFunction, dp: DeliveryPeriod, u) -> np.ndarray | float:
    """w_hat(u) on the delivery period up to a constant factor, at most 1 there.

    e^{-rate u} itself under- or overflows once |rate| u passes about 709, and
    its integrals sink below the quadrature's absolute tolerance well before.
    """
    if isinstance(w, ExponentialWeight):
        anchor = dp.tau1 if w.rate >= 0 else dp.tau2
        return np.exp(-w.rate * (np.asarray(u, dtype=float) - anchor))
    return weight_hat(w, u)


def weight_normalizer(w: WeightFunction, dp: DeliveryPeriod) -> float:
    """Integral of ``_period_weight`` over the delivery period (delta for the uniform weight)."""
    if isinstance(w, UniformWeight):
        return dp.delta
    return integrate_over_delivery(lambda v: _period_weight(w, dp, v), w, dp)


def weight_density(w: WeightFunction, dp: DeliveryPeriod, u) -> np.ndarray | float:
    """Normalized weight density w(u) = w_hat(u) / integral of w_hat.

    u must lie in the delivery period; the left endpoint tau1 is accepted as
    the continuous extension of the density.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < dp.tau1) or np.any(u_arr > dp.tau2):
        raise ValueError(
            f"u must lie in the delivery period [{dp.tau1}, {dp.tau2}]")
    vals = np.asarray(_period_weight(w, dp, u_arr), dtype=float) / weight_normalizer(w, dp)
    if u_arr.ndim == 0:
        return float(vals)
    return vals


# ---------------------------------------------------------------------------
# volatility structures


@dataclass(frozen=True)
class TradingSeasonal:
    """Seasonality in trading time only: s(t, u) = 1, theta(t) sinusoidal.

    theta(t) = alpha * exp(beta * sin(2 pi (t + gamma))); the minimum level
    alpha * exp(-beta) is available analytically for the Feller check.
    """
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")

    def theta(self, t):
        t = np.asarray(t, dtype=float)
        out = self.alpha * np.exp(self.beta * np.sin(TWO_PI * (t + self.gamma)))
        return float(out) if out.ndim == 0 else out

    @property
    def theta_min(self) -> float:
        return float(self.alpha * np.exp(-self.beta))


@dataclass(frozen=True)
class Samuelson:
    """Term-structure decay: s(t, u) = exp(-lam * (u - t))."""
    lam: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")


@dataclass(frozen=True)
class DeliverySeasonal:
    """Seasonality in delivery time: s(u) = a + b * cos(2 pi (u + c))."""
    a: float
    b: float
    c: float

    def __post_init__(self):
        if not 0 < self.b < math.inf:
            raise ValueError(f"b must be finite and > 0, got {self.b}")
        if not self.b < self.a < math.inf:
            raise ValueError(f"a must be finite and exceed b = {self.b}, got {self.a}")
        if not 0.0 <= self.c < 1.0:
            raise ValueError(f"c must lie in [0, 1), got {self.c}")


@dataclass(frozen=True)
class GeneralSeparable:
    """User-supplied bounded factor s(t, u) with declared bound 0 < s <= bound_r."""
    s: Callable[[float, np.ndarray], np.ndarray]
    bound_r: float

    def __post_init__(self):
        if not callable(self.s):
            raise ValueError("s must be callable as s(t, u)")
        if not 0 < self.bound_r < math.inf:
            raise ValueError(f"bound_r must be finite and > 0, got {self.bound_r}")

    @classmethod
    def from_table(cls, t_grid, u_grid, values, bound_r: float) -> "GeneralSeparable":
        """Bilinear interpolation of tabulated s values on a (t, u) grid.

        Each grid is strictly monotonic with >= 2 points, and s(t, u) off the
        table raises ValueError.  Read-only copies of the tables are kept, as
        in ``CustomWeight.from_table``.
        """
        t_grid, u_grid, values = _frozen_copies(t_grid, u_grid, values)
        _require_finite(t_grid=t_grid, u_grid=u_grid, values=values)
        for name, grid in (("t_grid", t_grid), ("u_grid", u_grid)):
            if grid.ndim != 1 or grid.size < 2 or not (np.all(np.diff(grid) > 0)
                                                       or np.all(np.diff(grid) < 0)):
                raise ValueError(f"{name} must be a strictly monotonic 1-d grid of >= 2 points")
        if values.shape != (t_grid.size, u_grid.size):
            raise ValueError("values must have shape (len(t_grid), len(u_grid))")
        if t_grid[0] > t_grid[-1]:  # a decreasing grid is reversed with its values
            t_grid, values = t_grid[::-1], values[::-1]
        if u_grid[0] > u_grid[-1]:
            u_grid, values = u_grid[::-1], values[:, ::-1]

        def s_fn(t, u):
            u = np.asarray(u, dtype=float)
            if (not t_grid[0] <= t <= t_grid[-1] or np.any(u < u_grid[0])
                    or np.any(u > u_grid[-1])):
                raise ValueError("s table does not cover the requested (t, u)")
            # blend the rows at t_grid[i - 1] <= t <= t_grid[i], then interpolate in u
            i = int(np.searchsorted(t_grid[1:-1], t, side="right")) + 1
            frac = (t - t_grid[i - 1]) / (t_grid[i] - t_grid[i - 1])
            return np.interp(u, u_grid, (1.0 - frac) * values[i - 1] + frac * values[i])

        return cls(s_fn, bound_r)


VolStructure = Union[TradingSeasonal, Samuelson, DeliverySeasonal, GeneralSeparable]

_TAGS = {
    TradingSeasonal: "trading_seasonal",
    Samuelson: "samuelson",
    DeliverySeasonal: "delivery_seasonal",
    GeneralSeparable: "general_separable",
}


def variant_tag(vol: VolStructure) -> str:
    try:
        return _TAGS[type(vol)]
    except KeyError:
        raise TypeError(f"unsupported volatility structure {type(vol).__name__}") from None


def _general_values(vol: GeneralSeparable, t: float, u_arr: np.ndarray) -> np.ndarray:
    vals = _on_array(lambda u: vol.s(t, u), u_arr)
    if not np.isfinite(vals).all():
        raise ValueError("general separable factor s(t, u) must be finite")
    if np.any(vals <= 0):
        raise ValueError("general separable factor must satisfy s(t, u) > 0")
    if np.any(vals > vol.bound_r * (1.0 + 1e-12)):
        raise ValueError(
            f"general separable factor exceeds its declared bound {vol.bound_r}")
    return vals


def eval_s(vol: VolStructure, t: float, u) -> np.ndarray | float:
    """Deterministic volatility factor s(t, u); requires t <= u.

    u may be a scalar or an array of delivery times.
    """
    t = float(t)
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < t):
        raise ValueError("eval_s requires t <= u")
    if isinstance(vol, TradingSeasonal):
        vals = np.ones(u_arr.shape)
    elif isinstance(vol, Samuelson):
        vals = np.exp(-vol.lam * (u_arr - t))
    elif isinstance(vol, DeliverySeasonal):
        vals = vol.a + vol.b * np.cos(TWO_PI * (u_arr + vol.c))
    elif isinstance(vol, GeneralSeparable):
        vals = _general_values(vol, t, u_arr)
    else:
        raise TypeError(f"unsupported volatility structure {type(vol).__name__}")
    if u_arr.ndim == 0:
        return float(vals)
    return vals


def theta_min_on_grid(theta: float | Callable, horizon: float,
                      resolution: float = 1e-4) -> float:
    """Minimum of theta over [0, horizon] on a uniform grid."""
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    n = max(2, int(np.ceil(horizon / resolution)) + 1)
    ts = np.linspace(0.0, horizon, n)
    vals = np.asarray(as_time_function(theta)(ts), dtype=float)
    return float(vals.min())
