import numpy as np
import pytest

from szegodet import (
    d_vector,
    dilated_table,
    g_vector,
    grunsky_coefficients,
    sobolev_half_norm,
    symbol_from_coefficients,
    symbol_from_theta_samples,
    theta_values,
    zero_symbol,
)
from szegodet.errors import BadLength, TruncationExceedsTable


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
        assert np.allclose(v.entries, [0.5, 0, 0, 0, 0, 0, 0, 0])

    def test_b2_block(self):
        sym = symbol_from_coefficients(0.0, [], [0.0, 1.0])
        v = g_vector(sym, 4)
        expect = np.zeros(8)
        expect[5] = 0.5 * np.sqrt(2)
        assert np.allclose(v.entries, expect)

    def test_zero_symbol(self):
        sym = symbol_from_coefficients(0.0)
        assert np.max(np.abs(g_vector(sym, 3).entries)) == 0.0

    def test_truncation_error(self):
        # past the stored truncation the coefficients count as zero
        v = g_vector(symbol_from_coefficients(0.0, [1.0]), 2)
        padded = g_vector(symbol_from_coefficients(0.0, [1.0, 0.0]), 2)
        assert np.array_equal(v.entries, padded.entries)

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
        lhs = g_vector(comb, K).entries
        rhs = alpha * g_vector(s1, K).entries + g_vector(s2, K).entries
        # linear as a map; the two evaluation orders differ by rounding only
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


class TestDVector:
    def test_circle_zero(self, circle):
        v = d_vector(grunsky_coefficients(circle, 6), 6)
        assert np.max(np.abs(v.entries)) == 0.0

    def test_q_even_entries(self, qcurve):
        # log phi' = log(1 - q z**-2) = -sum_j (q**j / j) z**-2j, so only
        # even k contribute: entry k = sqrt(k)/2 * q**(k/2) / (k/2)
        m = 8
        v = d_vector(grunsky_coefficients(qcurve, m), m)
        a_block = v.entries[:m].real
        assert a_block[1] == pytest.approx(0.5 * np.sqrt(2) * 0.5)  # k = 2
        assert a_block[2] == 0.0  # k = 3 has no split j = 3 - j
        for k in range(2, m + 1, 2):
            j = k // 2
            assert a_block[k - 1] == pytest.approx(0.5 * np.sqrt(k) * 0.5**j / j)
        assert np.max(np.abs(v.entries[m:])) == 0.0
        assert a_block[0] == 0.0  # k = 1 vanishes

    def test_dilated_to_zero(self, wobbly):
        t = dilated_table(grunsky_coefficients(wobbly, 8), 1e3)
        v = d_vector(t, 8)
        assert np.max(np.abs(v.entries)) <= 1e-6

    def test_truncation_error(self, qcurve):
        with pytest.raises(TruncationExceedsTable):
            d_vector(grunsky_coefficients(qcurve, 4), 5)


class TestSobolev:
    def test_cos_symbol(self):
        assert sobolev_half_norm(symbol_from_coefficients(0.0, [1.0])) == 1.0

    def test_zero(self):
        assert sobolev_half_norm(zero_symbol()) == 0.0

    def test_harmonic_sum(self):
        k = np.arange(1, 65)
        sym = symbol_from_coefficients(0.0, 1.0 / k)
        assert sobolev_half_norm(sym) == pytest.approx(np.sum(1.0 / k))
