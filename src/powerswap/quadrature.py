"""Adaptive Gauss-Legendre quadrature for weight and averaging integrals."""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["QuadratureError", "adaptive_gauss_legendre"]

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(10)
_MAX_LEVELS = 20


class QuadratureError(RuntimeError):
    """Raised when panel bisection does not reach the requested tolerance."""

    def __init__(self, message: str, achieved_tol: float):
        super().__init__(f"{message} (achieved tolerance {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol


def _panel(f, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _NODES), dtype=float)
    return half * float(np.dot(_WEIGHTS, vals))


def _refine(f, lo: float, hi: float) -> tuple[float, float]:
    """Panel value from two half-panels plus an error estimate against the
    single-panel rule."""
    mid = 0.5 * (lo + hi)
    coarse = _panel(f, lo, hi)
    refined = _panel(f, lo, mid) + _panel(f, mid, hi)
    return refined, abs(refined - coarse)


def adaptive_gauss_legendre(f, a: float, b: float, abs_tol: float = 1e-10) -> float:
    """Integrate ``f`` over ``[a, b]`` with bisected 10-point Gauss-Legendre panels.

    ``f`` must accept a numpy array of nodes and return the integrand values.
    The error budget is global: the panel with the worst refinement estimate
    is bisected first, so integrands with kinks concentrate work where it is
    needed instead of exhausting a uniform per-panel allowance.  Bisection
    stops at ``_MAX_LEVELS`` halvings of the original interval.
    """
    if not -np.inf < a < b < np.inf:
        raise ValueError("integration interval must satisfy a < b, both finite, "
                         f"got [{a}, {b}]")

    value, err = _refine(f, a, b)
    # heap entries: (-err, insertion counter, lo, hi, value, level)
    heap = [(-err, 0, a, b, value, 0)]
    counter = 1
    total_err = err
    scale = abs(value)
    eps = np.finfo(float).eps

    while total_err > abs_tol + 64.0 * eps * scale:
        neg_err, _, lo, hi, val, level = heapq.heappop(heap)
        if level >= _MAX_LEVELS:
            raise QuadratureError("quadrature did not converge", total_err)
        total_err += neg_err  # remove this panel's contribution
        scale -= abs(val)
        mid = 0.5 * (lo + hi)
        for seg_lo, seg_hi in ((lo, mid), (mid, hi)):
            seg_val, seg_err = _refine(f, seg_lo, seg_hi)
            heapq.heappush(heap, (-seg_err, counter, seg_lo, seg_hi, seg_val, level + 1))
            counter += 1
            total_err += seg_err
            scale += abs(seg_val)

    # sum in interval order so the result does not depend on pop order
    return float(sum(v for _, _, lo, _, v, _ in sorted(heap, key=lambda e: e[2])))
