import pytest

from powerswap import averaging


@pytest.fixture
def cold_moments():
    """Start from an empty cache of contract decompositions, so that a test
    counting quadrature work sees a first decomposition; returns the function
    that empties it again."""
    averaging._contract_decomposition.cache_clear()
    return averaging._contract_decomposition.cache_clear
