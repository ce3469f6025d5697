"""Feller and Novikov sufficient conditions for the variance process and measure change.

Conditions are reported, never enforced: the inequalities are sufficient, not
necessary, so consumers emit a warning and proceed when a check fails.  Both
engines warn through one helper, which attributes the ConditionWarning to the
first caller outside the powerswap package: the user's line for a library
call, and the caller of ``cli.main`` for a command-line run, whose standard
output is unaffected.  Under ``python -m powerswap.cli`` the module runs as
``__main__``, so the warning names the CLI line that priced or simulated.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .models import (
    DeliveryPeriod,
    DeliverySeasonal,
    GeneralSeparable,
    HestonParams,
    Samuelson,
    TradingSeasonal,
    VolStructure,
    theta_min_on_grid,
    variant_tag,
)

__all__ = ["ConditionCheck", "ConditionReport", "ConditionWarning",
           "check_feller", "check_novikov", "full_report"]


class ConditionWarning(UserWarning):
    """A sufficient condition failed; results may leave the guaranteed regime."""


_CONSEQUENCES = {"Feller": "the variance process may hit zero",
                 "Novikov": "the measure change is not guaranteed"}


def _warn_if_failed(name: str, ok: bool, lhs: float, rhs: float) -> None:
    """ConditionWarning for a failed Feller or Novikov check, at the first outside caller."""
    if ok:
        return
    frame, level = sys._getframe(), 1
    while (frame.f_back is not None
           and frame.f_globals.get("__name__", "").partition(".")[0] == "powerswap"):
        frame, level = frame.f_back, level + 1
    warnings.warn(f"{name} condition fails ({lhs:.6g} <= {rhs:.6g}); {_CONSEQUENCES[name]}",
                  ConditionWarning, stacklevel=level)


@dataclass(frozen=True)
class ConditionCheck:
    """One inequality: ok if and only if lhs > rhs."""
    ok: bool
    lhs: float
    rhs: float
    note: str = ""


@dataclass(frozen=True)
class ConditionReport:
    model_tag: str
    feller_ok: bool
    feller_lhs: float
    feller_rhs: float
    novikov_ok: bool
    novikov_lhs: float
    novikov_rhs: float
    notes: tuple[str, ...] = ()


def check_feller(p: HestonParams, vol: VolStructure, horizon: float) -> ConditionCheck:
    """Feller positivity 2 kappa theta_min > sigma_vv^2 over [0, horizon].

    theta_min is exact (alpha e^{-beta}) when p.theta is the theta of a
    trading-seasonal variant equal to vol, and a 1e-4-resolution grid minimum of
    p.theta otherwise: the engines use p.theta, whatever the variant.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    # bound methods compare equal only when bound to the same instance, so an
    # equal but distinct TradingSeasonal is matched through its owner
    owner = getattr(p.theta, "__self__", None)
    if isinstance(owner, TradingSeasonal) and owner == vol and p.theta == owner.theta:
        theta_min = vol.theta_min
        note = "theta_min = alpha * exp(-beta), exact"
    else:
        theta_min = theta_min_on_grid(p.theta, horizon)
        note = "theta_min from grid minimum at 1e-4 resolution"
    lhs = float(2.0 * p.kappa * theta_min)
    rhs = float(p.sigma_vv * p.sigma_vv)
    return ConditionCheck(ok=bool(lhs > rhs), lhs=lhs, rhs=rhs, note=note)


def check_novikov(p: HestonParams, vol: VolStructure, dp: DeliveryPeriod) -> ConditionCheck:
    """Sufficient condition for the delivery-risk measure change, per variant."""
    sig2 = p.sigma_vv * p.sigma_vv
    if isinstance(vol, TradingSeasonal):
        # zero delivery-risk premium: the measures coincide
        return ConditionCheck(ok=True, lhs=math.inf, rhs=0.0, note="unconditional")
    if isinstance(vol, Samuelson):
        lam_delta = vol.lam * dp.delta
        rhs = sig2 * max(1.0, 1.0 / (lam_delta * lam_delta))
        return ConditionCheck(ok=8.0 * p.kappa ** 2 > rhs, lhs=8.0 * p.kappa ** 2,
                              rhs=rhs, note="8 kappa^2 > sigma_vv^2 max(1, 1/(lam delta)^2)")
    if isinstance(vol, DeliverySeasonal):
        # amplitude bound s(u) <= 2a drives the criterion, written with the
        # level parameter a (not the amplitude b)
        rhs = vol.a * vol.a * sig2
        return ConditionCheck(ok=p.kappa ** 2 > rhs, lhs=p.kappa ** 2, rhs=rhs,
                              note="kappa^2 > a^2 sigma_vv^2 via s(u) <= 2a")
    if isinstance(vol, GeneralSeparable):
        rhs = sig2 * vol.bound_r ** 2
        return ConditionCheck(ok=2.0 * p.kappa ** 2 > rhs, lhs=2.0 * p.kappa ** 2,
                              rhs=rhs, note="2 kappa^2 > sigma_vv^2 R^2")
    raise TypeError(f"unsupported volatility structure {type(vol).__name__}")


def full_report(p: HestonParams, vol: VolStructure, dp: DeliveryPeriod,
                horizon: float | None = None) -> ConditionReport:
    """Assemble the Feller and Novikov checks into one report.

    horizon defaults to the delivery start tau1.
    """
    horizon = dp.tau1 if horizon is None else horizon
    feller = check_feller(p, vol, horizon)
    novikov = check_novikov(p, vol, dp)
    notes = tuple(f"{name}: {c.note}" for name, c in
                  (("feller", feller), ("novikov", novikov)) if c.note)
    return ConditionReport(
        model_tag=variant_tag(vol),
        feller_ok=feller.ok, feller_lhs=feller.lhs, feller_rhs=feller.rhs,
        novikov_ok=novikov.ok, novikov_lhs=novikov.lhs, novikov_rhs=novikov.rhs,
        notes=notes,
    )
