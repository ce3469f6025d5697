import re

import numpy as np
import pytest

from powerswap.quadrature import QuadratureError, adaptive_gauss_legendre


@pytest.mark.parametrize("call, error, message", [
    (lambda: adaptive_gauss_legendre(np.exp, 1.0, 1.0), ValueError,
     "integration interval must satisfy a < b"),
    (lambda: adaptive_gauss_legendre(np.exp, 1.0, 0.0), ValueError,
     "integration interval must satisfy a < b"),
    # a jump off every dyadic point stays in a panel at each of the 20 levels
    (lambda: adaptive_gauss_legendre(lambda u: np.where(u < 1.0 / 3.0, 0.0, 1.0), 0.0, 1.0),
     QuadratureError, "quadrature did not converge (achieved tolerance "),
    (lambda: adaptive_gauss_legendre(np.sin, 0.0, np.inf), ValueError,
     "integration interval must satisfy a < b, both finite, got [0.0, inf]"),
    (lambda: adaptive_gauss_legendre(np.sin, np.nan, 1.0), ValueError,
     "integration interval must satisfy a < b, both finite, got [nan, 1.0]"),
], ids=["empty-interval", "reversed-interval", "max-levels", "infinite-interval",
        "nan-bound"])
def test_quadrature_refusals(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}") as info:
        call()
    if error is QuadratureError:
        assert info.value.achieved_tol > 1e-10
