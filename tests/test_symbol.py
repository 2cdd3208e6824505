import numpy as np
import pytest

from szegodet import (
    g_vector,
    symbol_from_coefficients,
    symbol_from_theta_samples,
    theta_values,
)
from szegodet.errors import BadLength


def uniform_theta(N):
    return 2 * np.pi * np.arange(N) / N


class TestAnalysis:
    def test_cos_theta(self):
        sym = symbol_from_theta_samples(np.cos(uniform_theta(16)))
        assert abs(sym.a0) <= 1e-12
        assert sym.a[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(sym.a[1:])) <= 1e-12
        assert np.max(np.abs(sym.b)) <= 1e-12

    def test_constant(self):
        sym = symbol_from_theta_samples(np.full(16, 3.0))
        assert sym.a0 == pytest.approx(6.0)
        assert np.max(np.abs(sym.a)) <= 1e-12
        assert np.max(np.abs(sym.b)) <= 1e-12

    def test_sin_two_theta(self):
        sym = symbol_from_theta_samples(np.sin(2 * uniform_theta(16)))
        assert sym.b[1] == pytest.approx(1.0, abs=1e-12)
        assert abs(sym.b[0]) <= 1e-12 and np.max(np.abs(sym.a)) <= 1e-12

    def test_bad_length(self):
        with pytest.raises(BadLength):
            symbol_from_theta_samples(np.zeros(12))
        with pytest.raises(BadLength):
            symbol_from_theta_samples(np.zeros(4))

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        K = 6
        sym = symbol_from_coefficients(
            rng.standard_normal() + 1j * rng.standard_normal(),
            rng.standard_normal(K) + 1j * rng.standard_normal(K),
            rng.standard_normal(K) + 1j * rng.standard_normal(K),
        )
        N = 32  # >= 4 K_max keeps the analysis exact
        back = symbol_from_theta_samples(theta_values(sym, uniform_theta(N)))
        assert abs(back.a0 - sym.a0) <= 1e-12
        assert np.max(np.abs(back.a[:K] - sym.a)) <= 1e-12
        assert np.max(np.abs(back.b[:K] - sym.b)) <= 1e-12
        assert np.max(np.abs(back.a[K:])) <= 1e-12


class TestGVector:
    def test_a1_block(self):
        sym = symbol_from_coefficients(0.0, [1.0])  # a_1 = 2t, t = 0.5
        v = g_vector(sym, 4)
        assert np.allclose(v, [0.5, 0, 0, 0, 0, 0, 0, 0])

    def test_b2_block(self):
        sym = symbol_from_coefficients(0.0, [], [0.0, 1.0])
        v = g_vector(sym, 4)
        expect = np.zeros(8)
        expect[5] = 0.5 * np.sqrt(2)
        assert np.allclose(v, expect)

    def test_zero_symbol(self):
        sym = symbol_from_coefficients(0.0)
        assert np.max(np.abs(g_vector(sym, 3))) == 0.0

    def test_truncation_error(self):
        # past the stored truncation the coefficients count as zero
        v = g_vector(symbol_from_coefficients(0.0, [1.0]), 2)
        padded = g_vector(symbol_from_coefficients(0.0, [1.0, 0.0]), 2)
        assert np.array_equal(v, padded)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        K = 5
        mk = lambda: symbol_from_coefficients(
            0.0,
            rng.standard_normal(K) + 1j * rng.standard_normal(K),
            rng.standard_normal(K) + 1j * rng.standard_normal(K),
        )
        s1, s2 = mk(), mk()
        alpha = 0.7 - 0.2j
        comb = symbol_from_coefficients(0.0, alpha * s1.a + s2.a, alpha * s1.b + s2.b)
        lhs = g_vector(comb, K)
        rhs = alpha * g_vector(s1, K) + g_vector(s2, K)
        # linear as a map; the two evaluation orders differ by rounding only
        assert np.max(np.abs(lhs - rhs)) <= 1e-14
