import numpy as np
import pytest

from szegodet import make_map
from szegodet.symbol import symbol_from_coefficients, zero_symbol


@pytest.fixture(scope="session")
def circle():
    return make_map(1.0, 0.0, [0.0])


@pytest.fixture(scope="session")
def qcurve():
    """Ellipse-type quasicircle z + 0.5/z."""
    return make_map(1.0, 0.0, [0.5])


@pytest.fixture(scope="session")
def wobbly():
    """A nonsymmetric test curve with several tail terms."""
    return make_map(1.3, 0.2 + 0.1j, [0.3, 0.1j, -0.05, 0.02 + 0.02j])


@pytest.fixture(scope="session")
def slow():
    """A curve whose Grunsky coefficients decay slowly: critical radius ~0.94."""
    return make_map(1.1, 0.05 - 0.02j,
                    [0.01 + 0.005j, -0.008j, 0.94**4 / 3 * np.exp(0.7j)])


# (cap, phi0, tail) of a valid curve whose K eigenvalues at m = 32 put one
# member of a +/- pair on each side of a 1e-13 zero threshold, so a Takagi
# route that pairs the eigenvalues of K miscounts them ("21 positive,
# 20 negative, 23 near zero")
PAIRING_CURVE = (
    1.122395134169683,
    0.12927163977988496 - 0.0626620189631375j,
    [0.000415769300650514 - 0.0014260872854523709j,
     -0.0007243788516635403 + 0.0010639525807065267j,
     0.009987687957441876 + 0.025154596756418783j],
)


@pytest.fixture(scope="session")
def pairing():
    return make_map(*PAIRING_CURVE)


@pytest.fixture
def zero_sym():
    return zero_symbol()


@pytest.fixture
def a1_sym():
    """Symbol with a_1 = 1, everything else zero (g o phi = cos theta)."""
    return symbol_from_coefficients(0.0, [1.0])


def q_energy_limit(q: float) -> float:
    """-0.5 sum_k log(1 - q**(2k)), truncated once q**(2k) < 1e-16."""
    total = 0.0
    k = 1
    while q ** (2 * k) >= 1e-16:
        total += -0.5 * np.log1p(-(q ** (2 * k)))
        k += 1
    return total
