import math
import re

import numpy as np
import pytest

from powerswap.conditions import ConditionWarning, check_feller, check_novikov, full_report
from powerswap.models import (
    DeliveryPeriod,
    DeliverySeasonal,
    GeneralSeparable,
    HestonParams,
    Samuelson,
    TradingSeasonal,
)

DP = DeliveryPeriod(0.75, 5.0 / 6.0)


def _params(**over):
    base = dict(kappa=3.0, theta=0.6, sigma_vv=0.4, rho=-0.3, nu0=0.6, f0=30.0, r=0.01)
    base.update(over)
    return HestonParams(**base)


def test_feller_constant_theta():
    chk = check_feller(_params(), Samuelson(3.5), horizon=0.75)
    assert chk.ok
    assert chk.lhs == pytest.approx(2 * 3.0 * 0.6)
    assert chk.rhs == pytest.approx(0.4**2)
    assert isinstance(chk.ok, bool)
    assert isinstance(chk.lhs, float)


def test_feller_trading_seasonal_worst_case_is_exact():
    ts = TradingSeasonal(0.6, 0.7, 0.2)
    p = _params(theta=ts.theta)
    chk = check_feller(p, ts, horizon=0.75)
    # worst case over the season: 2 kappa alpha e^{-beta}
    assert chk.lhs == pytest.approx(2 * 3.0 * 0.6 * math.exp(-0.7), rel=1e-15)
    assert chk.lhs == pytest.approx(1.787707093649074, rel=1e-12)
    assert chk.ok  # 1.7877 > 0.16
    # the same setup fails once sigma_vv is large enough
    bad = check_feller(_params(theta=ts.theta, sigma_vv=1.4), ts, horizon=0.75)
    assert not bad.ok
    # an equal but distinct instance still gets the exact minimum
    twin = check_feller(_params(theta=TradingSeasonal(0.6, 0.7, 0.2).theta), ts, horizon=0.75)
    assert twin == chk


def test_feller_trading_seasonal_uses_the_params_theta():
    # the engines run on p.theta, so the check must too, whatever the variant
    ts = TradingSeasonal(0.6, 0.7, 0.2)
    low = check_feller(_params(theta=0.01), ts, horizon=0.75)
    assert not low.ok
    assert low.lhs == pytest.approx(2 * 3.0 * 0.01, rel=1e-15)
    assert "grid minimum" in low.note
    other = TradingSeasonal(0.01, 0.7, 0.2)
    high = check_feller(_params(theta=0.6), other, horizon=0.75)
    assert high.ok
    assert high.lhs == pytest.approx(2 * 3.0 * 0.6, rel=1e-15)
    # theta bound to a different trading-seasonal instance: its grid minimum
    mixed = check_feller(_params(theta=ts.theta), other, horizon=0.75)
    assert mixed.ok
    assert mixed.lhs == pytest.approx(2 * 3.0 * 0.6 * math.exp(-0.7), rel=1e-6)


def test_novikov_samuelson():
    chk = check_novikov(_params(), Samuelson(3.5), DP)
    assert chk.ok
    assert chk.lhs == pytest.approx(8 * 9.0)
    # the window is short enough that 1/(lam delta)^2 dominates
    assert chk.rhs == pytest.approx(0.16 * max(1.0, 1.0 / (3.5 / 12.0) ** 2), rel=1e-12)
    # a very slow decay keeps the max at 1
    slow = check_novikov(_params(), Samuelson(40.0), DP)
    assert slow.rhs == pytest.approx(0.16, rel=1e-12)


def test_novikov_trading_seasonal_unconditional():
    ts = TradingSeasonal(0.6, 0.7, 0.2)
    chk = check_novikov(_params(theta=ts.theta), ts, DP)
    assert chk.ok
    assert math.isinf(chk.lhs)
    assert "unconditional" in chk.note


def test_novikov_delivery_seasonal():
    ds = DeliverySeasonal(1.0, 0.4, 0.0)
    chk = check_novikov(_params(), ds, DP)
    assert chk.ok
    assert chk.lhs == pytest.approx(9.0)
    assert chk.rhs == pytest.approx(1.0 * 0.16)
    bad = check_novikov(_params(kappa=0.3, sigma_vv=1.2), ds, DP)
    assert not bad.ok


def test_novikov_general_separable_uses_bound():
    g = GeneralSeparable(s=lambda t, u: np.ones_like(np.asarray(u, float)), bound_r=4.0)
    chk = check_novikov(_params(), g, DP)
    assert chk.lhs == pytest.approx(2 * 9.0)
    assert chk.rhs == pytest.approx(0.16 * 16.0)
    assert chk.ok


def test_full_report_samuelson():
    rep = full_report(_params(), Samuelson(3.5), DP)
    assert rep.model_tag == "samuelson"
    assert rep.feller_ok and rep.novikov_ok
    assert rep.feller_lhs == pytest.approx(3.6)
    assert rep.novikov_lhs == pytest.approx(72.0)
    assert len(rep.notes) == 2


def test_full_report_notes_mention_formulas():
    ds = DeliverySeasonal(1.0, 0.4, 0.0)
    rep = full_report(_params(), ds, DP)
    joined = " ".join(rep.notes)
    assert "2a" in joined or "amplitude" in joined


def test_condition_warning_is_user_warning():
    assert issubclass(ConditionWarning, UserWarning)


@pytest.mark.parametrize("call, error, message", [
    (lambda: check_feller(_params(), Samuelson(3.5), 0.0), ValueError,
     "horizon must be finite and > 0, got 0.0"),
    (lambda: check_feller(_params(), Samuelson(3.5), -0.5), ValueError,
     "horizon must be finite and > 0, got -0.5"),
    (lambda: check_novikov(_params(), object(), DP), TypeError,
     "unsupported volatility structure object"),
    (lambda: check_feller(_params(), Samuelson(3.5), np.inf), ValueError,
     "horizon must be finite and > 0, got inf"),
    (lambda: check_feller(_params(), Samuelson(3.5), np.nan), ValueError,
     "horizon must be finite and > 0, got nan"),
], ids=["feller-horizon-zero", "feller-horizon-negative", "novikov-type", "feller-horizon-inf",
        "feller-horizon-nan"])
def test_conditions_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
