"""log D_n on the circle against exact Toeplitz determinants (``circle_oracle``).

Two real symbols and one complex symbol with max |Im g| < pi/2, where the
direct determinant's branch is the continuous one; at these n its
imaginary part stays inside (-pi, pi), so it is also the principal log
of the mpmath determinant.  Both parts must agree to
1e-12 max(1, |log D_n|).
"""

import numpy as np
import pytest

from szegodet import log_det_Dn, make_map, symbol_from_coefficients, theta_values

from circle_oracle import coefficients, log_Dn

NS = (1, 2, 4, 8, 16, 24)
SYMBOLS = {
    "cos": (0.0, [1.0], []),
    "real_degree_3": (0.6, [0.8, 0.0, 0.25], [0.0, -0.4]),
    "complex": (0.0, [0.5 + 0.3j], [0.0, 0.2 - 0.25j]),
}


@pytest.mark.parametrize("name", list(SYMBOLS))
def test_direct_matches_the_toeplitz_determinant(name):
    a0, a, b = SYMBOLS[name]
    circle = make_map(1.0, 0.0, [0.0])
    sym = symbol_from_coefficients(a0, a, b)
    theta = 2.0 * np.pi * np.arange(512) / 512
    assert np.max(np.abs(theta_values(sym, theta).imag)) < np.pi / 2
    coeffs = coefficients(a0, a, b, max(NS) - 1)
    for n in NS:
        ref = log_Dn(coeffs, n)
        got = log_det_Dn(circle, sym, n).log_Dn
        tol = 1e-12 * max(1.0, abs(ref))
        assert abs(got.real - ref.real) <= tol, (n, got, ref)
        assert abs(got.imag - ref.imag) <= tol, (n, got, ref)


def test_oracle_on_a_closed_form():
    # g = cos(theta): c_j = I_j(1) (modified Bessel), so D_1 = 2 pi I_0(1)
    # and D_2 = (2 pi)^2 (I_0(1)^2 - I_1(1)^2)
    coeffs = coefficients(0.0, [1.0], [], 1)
    i0, i1 = 1.2660658777520083356, 0.56515910399248502721
    assert log_Dn(coeffs, 1) == pytest.approx(np.log(2 * np.pi * i0), abs=1e-15)
    assert log_Dn(coeffs, 2) == pytest.approx(np.log((2 * np.pi) ** 2 * (i0**2 - i1**2)),
                                              abs=1e-15)
