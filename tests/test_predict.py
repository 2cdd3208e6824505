import json
import logging

import numpy as np
import pytest

from szegodet import (
    grunsky_coefficients,
    g_vector,
    log_det_Dn,
    make_map,
    operators,
    predict_beta_log,
    predict_log_Dn,
    predict_log_Zn,
    predict_quotient,
    quadratic_form,
    spectral_report,
    suggest_truncation,
    symbol_from_coefficients,
    zero_symbol,
    zn_beta_circle,
)
from szegodet.errors import NonzeroMean, NotPositiveDefinite, SingularValueAtOne
from szegodet.predict import LOG_2PI
from szegodet.series import _unchecked_map

from conftest import q_energy_limit
from test_grunsky import rotated, rotated_symbol


class TestQuadraticForm:
    def test_identity_solve(self, circle):
        pair = operators(grunsky_coefficients(circle, 4))
        rng = np.random.default_rng(1)
        v = g_vector(symbol_from_coefficients(0.0, rng.standard_normal(4), rng.standard_normal(4)), 4)
        assert quadratic_form(pair, v) == pytest.approx(np.sum(v.entries**2))

    def test_q_diagonal_a_block(self, qcurve):
        # K is diagonal for the q-curve: the a-block solves against 1 + q**k,
        # so a_1 = 1 gives (1/2)**2 / (1 + q) = 1/6
        pair = operators(grunsky_coefficients(qcurve, 8))
        v = g_vector(symbol_from_coefficients(0.0, [1.0], pad_to=8), 8)
        assert quadratic_form(pair, v) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_q_diagonal_b_block(self, qcurve):
        # b-block diagonal entry is 1 - q: (1/2)**2 / (1 - 0.5) = 1/2.
        # (The oracle value is forced by the diagonal solve.)
        pair = operators(grunsky_coefficients(qcurve, 8))
        v = g_vector(symbol_from_coefficients(0.0, [], [1.0], pad_to=8), 8)
        assert quadratic_form(pair, v) == pytest.approx(0.5, abs=1e-14)

    def test_not_positive_definite(self):
        from szegodet.grunsky import GrunskyTable

        pair = operators(GrunskyTable(2, np.diag([1.2, 0.1]).astype(complex)))
        v = g_vector(symbol_from_coefficients(0.0, [1.0], pad_to=2), 2)
        with pytest.raises(NotPositiveDefinite):
            quadratic_form(pair, v)

    def test_length_check(self, qcurve):
        pair = operators(grunsky_coefficients(qcurve, 8))
        v = g_vector(symbol_from_coefficients(0.0, [1.0], pad_to=4), 4)
        with pytest.raises(ValueError):
            quadratic_form(pair, v)


class TestPredictLogDn:
    def test_circle_zero_symbol(self, circle, zero_sym):
        b = predict_log_Dn(circle, zero_sym, 5)
        assert b.total_log == pytest.approx(5 * LOG_2PI)
        assert b.term_quadform == 0 and b.term_halflogdet == 0

    def test_circle_gaussian_term(self, circle):
        b = predict_log_Dn(circle, symbol_from_coefficients(0.0, [1.0]), 10)
        assert b.total_log == pytest.approx(10 * LOG_2PI + 0.25)

    def test_q_with_symbol(self, qcurve):
        b = predict_log_Dn(qcurve, symbol_from_coefficients(0.0, [1.0]), 20)
        expect = 20 * LOG_2PI + 1.0 / 6.0 + q_energy_limit(0.5)
        assert b.total_log.real == pytest.approx(expect, abs=1e-9)
        assert abs(b.total_log.imag) == 0.0

    def test_term_sum_exact(self, wobbly):
        sym = symbol_from_coefficients(0.3 + 0.1j, [0.2], [0.1])
        b = predict_log_Dn(wobbly, sym, 7)
        total = b.term_cap + b.term_2pi + b.term_a0 + b.term_quadform + b.term_halflogdet
        assert b.total_log == total

    def test_halflogdet_nonnegative(self, qcurve, wobbly):
        for mp in (qcurve, wobbly):
            b = predict_log_Zn(mp, 3)
            assert b.term_halflogdet >= 0.0

    def test_m_convergence_geometric(self, qcurve):
        sym = symbol_from_coefficients(0.0, [1.0])
        totals = [predict_log_Dn(qcurve, sym, 10, m).total_log.real for m in (4, 8, 16, 32)]
        deltas = [abs(b - a) for a, b in zip(totals, totals[1:])]
        for (a, b) in zip(deltas, deltas[1:]):
            assert b <= 0.25 * a + 1e-15  # ratio well under q**2

    def test_auto_ladder_log_line(self, qcurve, caplog):
        # kappa_hat comes from the eigenvalues of K, not a Takagi factor
        with caplog.at_level(logging.INFO, logger="szegodet.predict"):
            predict_log_Zn(qcurve, 4)
        assert "kappa_hat=0.500000" in caplog.text
        assert [rec.levelno for rec in caplog.records] == [logging.INFO]
        assert "gaps quadform=" in caplog.text and "delta_m_tail=" in caplog.text

    def test_auto_ladder_needs_no_takagi(self, zero_sym):
        # a valid curve on which takagi splits a +/- pair across its zero
        # threshold at m = 32 and raises PairingFailed; the prediction
        # needs only the symmetric eigenproblem of K
        mp = make_map(
            1.122395134169683,
            0.12927163977988496 - 0.0626620189631375j,
            [0.000415769300650514 - 0.0014260872854523709j,
             -0.0007243788516635403 + 0.0010639525807065267j,
             0.009987687957441876 + 0.025154596756418783j],
        )
        b = predict_log_Dn(mp, zero_sym, 14)
        assert b.m_used == 32
        assert abs(log_det_Dn(mp, zero_sym, 14).log_Dn - b.total_log) <= 1e-9

    def test_json_fields(self, qcurve):
        b = predict_log_Zn(qcurve, 4)
        doc = json.loads(json.dumps(b.to_json_dict()))
        for key in ("term_cap", "term_2pi", "term_a0", "term_quadform",
                    "term_halflogdet", "total_log"):
            assert key in doc


class TestLadder:
    @pytest.mark.parametrize("curve, m", [
        ("circle", 16), ("qcurve", 32), ("wobbly", 64), ("slow", 256), ("pairing", 32),
    ])
    def test_suggest_truncation_is_the_zero_symbol_ladder(self, request, curve, m):
        mp = request.getfixturevalue(curve)
        assert suggest_truncation(mp) == predict_log_Zn(mp, 1).m_used == m

    @pytest.mark.parametrize("curve, m", [("wobbly", 64), ("slow", 256)])
    def test_halflogdet_matches_spectral_report(self, request, curve, m):
        # the Cholesky diagonal against the eigenvalues of K
        mp = request.getfixturevalue(curve)
        b = predict_log_Zn(mp, 1)
        assert b.m_used == m
        rep = spectral_report(operators(grunsky_coefficients(mp, m)))
        assert abs(b.term_halflogdet + 0.5 * rep.log_det_IplusK) <= 1e-12

    @pytest.mark.parametrize("m", [8, None])
    @pytest.mark.parametrize("q, error", [
        (1 - 1e-11, SingularValueAtOne),  # I + K factors, K has eigenvalue -q
        (1.2, NotPositiveDefinite),  # I + K has a negative eigenvalue
    ])
    def test_guard(self, m, q, error):
        mp = _unchecked_map(1.0, 0.0, [q])
        with pytest.raises(error):
            predict_log_Zn(mp, 4, m)
        if m is None:
            with pytest.raises(error):
                suggest_truncation(mp)

    def test_warns_at_cap_unsettled(self, caplog):
        with caplog.at_level(logging.INFO, logger="szegodet.predict"):
            b = predict_log_Zn(make_map(1.0, 0.0, [0.99]), 4)
        assert b.m_used == 512
        (rec,) = caplog.records
        assert rec.levelno == logging.WARNING
        assert "m=512" in rec.message and "kappa_hat=" in rec.message


class TestPredictLogZn:
    def test_circle(self, circle):
        assert predict_log_Zn(circle, 7).total_log == pytest.approx(7 * LOG_2PI)

    def test_q_partition(self, qcurve):
        b = predict_log_Zn(qcurve, 10)
        assert b.total_log.real == pytest.approx(10 * LOG_2PI + q_energy_limit(0.5), abs=1e-9)

    def test_dilated_q(self, qcurve):
        from szegodet import dilate_map

        b = predict_log_Zn(dilate_map(qcurve, 2.0), 10)
        assert b.total_log.real == pytest.approx(10 * LOG_2PI + q_energy_limit(0.125), abs=1e-9)


class TestInvariances:
    def test_rigid_motion(self, wobbly):
        sym = symbol_from_coefficients(0.0, [0.4, 0.1], [0.0, 0.2])
        base = predict_log_Dn(wobbly, sym, 6, 16).total_log
        # translation leaves the composed symbol untouched
        shifted = make_map(wobbly.cap, wobbly.phi0 + (2.0 - 1.0j), wobbly.tail)
        assert abs(predict_log_Dn(shifted, sym, 6, 16).total_log - base) <= 1e-10
        # rotation shifts the parametrization, so transport the symbol too
        rot = rotated(wobbly, 1.1)
        rsym = rotated_symbol(sym, 1.1)
        assert abs(predict_log_Dn(rot, rsym, 6, 16).total_log - base) <= 1e-10

    def test_scaling_covariance(self, wobbly):
        sym = symbol_from_coefficients(0.0, [0.4], [0.2])
        base = predict_log_Dn(wobbly, sym, 6, 16)
        scaled = make_map(2.5 * wobbly.cap, wobbly.phi0, wobbly.tail)
        b = predict_log_Dn(scaled, sym, 6, 16)
        assert b.total_log - base.total_log == pytest.approx(36 * np.log(2.5), abs=1e-12)
        assert b.term_quadform == base.term_quadform
        assert b.term_halflogdet == base.term_halflogdet


class TestQuotient:
    def test_circle(self, circle, zero_sym):
        assert predict_quotient(circle, zero_sym) == pytest.approx(2 * np.pi)

    def test_constant_symbol(self, qcurve):
        sym = symbol_from_coefficients(2.0)  # g = c = 1, a0 = 2c
        assert predict_quotient(qcurve, sym) == pytest.approx(2 * np.pi * np.e)

    def test_mean_zero(self, qcurve):
        sym = symbol_from_coefficients(0.0, [1.0])
        assert predict_quotient(qcurve, sym) == pytest.approx(2 * np.pi)


class TestBeta:
    def test_beta_two_reduces(self, qcurve):
        sym = symbol_from_coefficients(0.0, [1.0])
        v = predict_beta_log(qcurve, sym, 10, 2.0)
        b = predict_log_Dn(qcurve, sym, 10)
        assert abs(v - (b.term_quadform + b.term_halflogdet)) <= 1e-12

    def test_circle_beta_four(self, circle):
        # K = 0 and d = 0: value is (2/beta) t**2 with t = a_1/2 = 0.5
        v = predict_beta_log(circle, symbol_from_coefficients(0.0, [1.0]), 5, 4.0)
        assert v == pytest.approx(0.125)

    def test_q_beta_four_diagonal_oracle(self, qcurve):
        m = 32
        table = grunsky_coefficients(qcurve, m)
        from szegodet import d_vector

        d = d_vector(table, m).entries.real
        k = np.arange(1, m + 1, dtype=float)
        quad = np.sum(d[:m] ** 2 / (1 + 0.5**k)) + np.sum(d[m:] ** 2 / (1 - 0.5**k))
        expect = q_energy_limit(0.5) + 0.5 * quad
        v = predict_beta_log(qcurve, zero_symbol(), 4, 4.0, m)
        assert v.real == pytest.approx(expect, abs=1e-9)

    def test_nonzero_mean_rejected(self, qcurve):
        with pytest.raises(NonzeroMean):
            predict_beta_log(qcurve, symbol_from_coefficients(1.0), 4, 4.0)


class TestZnBetaCircle:
    def test_beta_two_collapses(self):
        assert zn_beta_circle(3, 2.0) == pytest.approx(3 * LOG_2PI)

    def test_gamma_values(self):
        # Gamma(5) = 24, Gamma(3) = 2: log((2 pi)**2 * 24 / (2 * 4))
        assert zn_beta_circle(2, 4.0) == pytest.approx(np.log((2 * np.pi) ** 2 * 3.0))

    def test_single_point(self):
        assert zn_beta_circle(1, 7.25) == pytest.approx(LOG_2PI)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_beta_rejected(self, qcurve, beta):
        with pytest.raises(ValueError):
            zn_beta_circle(3, beta)
        with pytest.raises(ValueError):
            predict_beta_log(qcurve, zero_symbol(), 3, beta)
