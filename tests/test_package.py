"""The package's public names: each module declares its own in ``__all__``,
and ``powerswap`` re-exports exactly those."""

import re
from pathlib import Path

import pytest

import powerswap
from powerswap import averaging, charfn, conditions, models, pricer, quadrature, simulate

MODULES = (models, averaging, conditions, simulate, charfn, pricer, quadrature)

# the names the package exported when it listed them by hand; none may drop out
LISTED_BY_HAND = [
    "HestonParams", "DeliveryPeriod", "OptionSpec", "UniformWeight",
    "ExponentialWeight", "CustomWeight", "WeightFunction", "TradingSeasonal",
    "Samuelson", "DeliverySeasonal", "GeneralSeparable", "VolStructure",
    "eval_s", "weight_density", "integrate_over_delivery",
    "SwapVolDecomposition", "d1_d2", "samuelson_variance", "swap_vol_factor",
    "market_price_factor", "variance_factor", "swap_spread", "decompose",
    "ConditionCheck", "ConditionReport", "ConditionWarning", "check_feller",
    "check_novikov", "full_report",
    "GridSpec", "Measure", "PathSet", "TerminalSample", "SummaryStats",
    "VarianceIntegrals", "SimulationError", "simulate_paths", "simulate_terminal",
    "simulate_summary", "simulate_variance_integrals",
    "RiccatiCoefficients", "CharFnSolution", "RiccatiError", "solve_riccati",
    "solve_riccati_fixed", "riccati_path", "char_fn",
    "PriceResult", "PricingError", "TruncationError", "price_fourier",
    "price_fourier_many", "price_mc", "price_mc_many", "black76_oracle",
    "QuadratureError", "adaptive_gauss_legendre",
]


def test_package_all_is_each_modules_all_once():
    assert powerswap.__all__ == ["__version__",
                                 *(name for module in MODULES for name in module.__all__)]
    assert len(set(powerswap.__all__)) == len(powerswap.__all__)


def test_every_public_name_resolves_on_the_package():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(powerswap, name) is getattr(module, name), name
    assert powerswap.__version__ == "0.1.0"


def test_no_name_listed_by_hand_dropped_out():
    assert len(LISTED_BY_HAND) == 57
    assert set(LISTED_BY_HAND) <= set(powerswap.__all__)


@pytest.mark.slow
def test_readme_quick_start_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n.*?```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 8
