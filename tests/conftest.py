import pytest

from powerswap import averaging


@pytest.fixture
def cold_moments():
    """Start from an empty cache of delivery moments, so that a test counting
    quadrature work sees a first decomposition; returns the function that
    empties it again."""
    averaging._delivery_factors.cache_clear()
    return averaging._delivery_factors.cache_clear
