import pytest

import ramcube as rc


@pytest.fixture(scope="session")
def lps513():
    """The 6-regular graph on 2184 vertices from primes={5}, N1=13."""
    return rc.build_complex([5], 13)


@pytest.fixture(scope="session")
def cover513():
    """The (6,14)-regular square complex from primes={5,13}, N1=3."""
    return rc.build_complex([5, 13], 3)


@pytest.fixture(scope="session")
def x511():
    """primes={5}, N1=11: parity double cover, section kernel of order 2."""
    return rc.build_complex([5], 11)


@pytest.fixture(scope="session")
def cover13373():
    """primes={13,37}, N1=3: the (14,38)-regular square complex."""
    return rc.build_complex([13, 37], 3)


@pytest.fixture(scope="session")
def x5137():
    """primes={5,13}, N1=7: four real stars, two on edges."""
    return rc.build_complex([5, 13], 7)
