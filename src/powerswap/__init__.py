"""Pricing of electricity swaps and European swap options under stochastic volatility.

Swaps deliver over a period (tau1, tau2] and are modeled as geometric averages
of instantaneous-delivery futures, which keeps the swap price a geometric
process at the cost of a delivery-risk drift adjustment.  The package computes
the averaged volatility and the market price of delivery risk for several
futures-volatility structures, simulates the joint (log-price, CIR variance)
system, and prices European options both by Monte-Carlo and by Fourier
inversion of exponential-affine characteristic functions with time-dependent
Riccati coefficients.
"""

from .averaging import (
    SwapVolDecomposition,
    d1_d2,
    decompose,
    market_price_factor,
    samuelson_variance,
    swap_spread,
    swap_vol_factor,
    variance_factor,
)
from .charfn import (
    CharFnSolution,
    RiccatiCoefficients,
    RiccatiError,
    char_fn,
    riccati_path,
    solve_riccati,
    solve_riccati_fixed,
)
from .conditions import (
    ConditionCheck,
    ConditionReport,
    ConditionWarning,
    check_feller,
    check_novikov,
    full_report,
)
from .models import (
    CustomWeight,
    DeliveryPeriod,
    DeliverySeasonal,
    ExponentialWeight,
    GeneralSeparable,
    HestonParams,
    OptionSpec,
    Samuelson,
    TradingSeasonal,
    UniformWeight,
    VolStructure,
    WeightFunction,
    eval_s,
    integrate_over_delivery,
    weight_density,
)
from .pricer import (
    PriceResult,
    PricingError,
    TruncationError,
    black76_oracle,
    price_fourier,
    price_fourier_many,
    price_mc,
    price_mc_many,
)
from .quadrature import QuadratureError, adaptive_gauss_legendre
from .simulate import (
    GridSpec,
    Measure,
    PathSet,
    SimulationError,
    SummaryStats,
    TerminalSample,
    simulate_paths,
    simulate_summary,
    simulate_terminal,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # models
    "HestonParams", "DeliveryPeriod", "OptionSpec", "UniformWeight",
    "ExponentialWeight", "CustomWeight", "WeightFunction", "TradingSeasonal",
    "Samuelson", "DeliverySeasonal", "GeneralSeparable", "VolStructure",
    "eval_s", "weight_density", "integrate_over_delivery",
    # averaging
    "SwapVolDecomposition", "d1_d2", "samuelson_variance", "swap_vol_factor",
    "market_price_factor", "variance_factor", "swap_spread", "decompose",
    # conditions
    "ConditionCheck", "ConditionReport", "ConditionWarning", "check_feller",
    "check_novikov", "full_report",
    # simulate
    "GridSpec", "Measure", "PathSet", "TerminalSample", "SummaryStats",
    "SimulationError", "simulate_paths", "simulate_terminal", "simulate_summary",
    # charfn
    "RiccatiCoefficients", "CharFnSolution", "RiccatiError", "solve_riccati",
    "solve_riccati_fixed", "riccati_path", "char_fn",
    # pricer
    "PriceResult", "PricingError", "TruncationError", "price_fourier",
    "price_fourier_many", "price_mc", "price_mc_many", "black76_oracle",
    # quadrature
    "QuadratureError", "adaptive_gauss_legendre",
]
