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

from . import averaging, charfn, conditions, models, pricer, quadrature, simulate
from .averaging import *  # noqa: F401,F403
from .charfn import *  # noqa: F401,F403
from .conditions import *  # noqa: F401,F403
from .models import *  # noqa: F401,F403
from .pricer import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module declares its public names once, in its own __all__
__all__ = ["__version__", *(name for module in (models, averaging, conditions, simulate, charfn,
                                                pricer, quadrature) for name in module.__all__)]
