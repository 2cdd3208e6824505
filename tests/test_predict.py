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
    predict_log_Dn,
    predict_log_Zn,
    spectral_report,
    suggest_truncation,
    symbol_from_coefficients,
    zn_beta_circle,
)
from szegodet import predict as predict_module
from szegodet.errors import NotPositiveDefinite, SingularValueAtOne
from szegodet.grunsky import _cholesky
from szegodet.predict import LOG_2PI, _clearance, _solve_form
from szegodet.series import _unchecked_map

from conftest import q_energy_limit
from test_direct import _near_unit_curve
from test_grunsky import rotated, rotated_symbol


LADDER_CURVES = ["circle", "qcurve", "wobbly", "slow", "pairing", "q093"]


def _ladder_curve(request, curve):
    return make_map(1.0, 0.0, [0.93]) if curve == "q093" else request.getfixturevalue(curve)


def _bits(b):
    """The fields of a breakdown with their floats as hex, so that equal
    means equal bit for bit (signed zeros included)."""
    def hexed(z):
        z = complex(z)
        return z.real.hex(), z.imag.hex()

    return (b.n, b.m_used, hexed(b.term_cap), hexed(b.term_2pi), hexed(b.term_a0),
            hexed(b.term_quadform), hexed(b.term_halflogdet), hexed(b.total_log))


class TestQuadraticForm:
    # v^t (I+K)^{-1} v from the shared Cholesky factor of I + K
    def test_identity_solve(self, circle):
        pair = operators(grunsky_coefficients(circle, 4))
        rng = np.random.default_rng(1)
        v = g_vector(symbol_from_coefficients(0.0, rng.standard_normal(4), rng.standard_normal(4)), 4)
        assert _solve_form(_cholesky(pair.B), v) == pytest.approx(np.sum(v**2))

    def test_q_diagonal_a_block(self, qcurve):
        # K is diagonal for the q-curve: the a-block solves against 1 + q**k,
        # so a_1 = 1 gives (1/2)**2 / (1 + q) = 1/6
        pair = operators(grunsky_coefficients(qcurve, 8))
        v = g_vector(symbol_from_coefficients(0.0, [1.0]), 8)
        assert _solve_form(_cholesky(pair.B), v) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_q_diagonal_b_block(self, qcurve):
        # b-block diagonal entry is 1 - q: (1/2)**2 / (1 - 0.5) = 1/2.
        # (The oracle value is forced by the diagonal solve.)
        pair = operators(grunsky_coefficients(qcurve, 8))
        v = g_vector(symbol_from_coefficients(0.0, [], [1.0]), 8)
        assert _solve_form(_cholesky(pair.B), v) == pytest.approx(0.5, abs=1e-14)

    def test_not_positive_definite(self):
        from szegodet.grunsky import GrunskyTable

        pair = operators(GrunskyTable(2, np.diag([1.2, 0.1]).astype(complex)))
        with pytest.raises(NotPositiveDefinite):
            _cholesky(pair.B)

    def test_length_check(self, qcurve):
        pair = operators(grunsky_coefficients(qcurve, 8))
        v = g_vector(symbol_from_coefficients(0.0, [1.0]), 4)
        with pytest.raises(ValueError):
            _solve_form(_cholesky(pair.B), v)


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
        # kappa_hat comes from the kappa routine of the report, not a Takagi factor
        with caplog.at_level(logging.INFO, logger="szegodet.predict"):
            predict_log_Zn(qcurve, 4)
        assert "kappa_hat=0.500000" in caplog.text
        assert [rec.levelno for rec in caplog.records] == [logging.INFO]
        assert "gaps quadform=" in caplog.text and "delta_m_tail=" in caplog.text

    def test_auto_ladder_needs_no_takagi(self, zero_sym):
        # the conftest PAIRING_CURVE: at m = 32 a +/- pair of K eigenvalues
        # straddles a 1e-13 zero threshold; the prediction needs only the
        # Cholesky factor of I + K
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

    @pytest.mark.parametrize("curve", LADDER_CURVES)
    def test_fixed_m_gives_the_ladder_bits(self, request, curve):
        # the factor is a function of the table sizes: --m M and an auto
        # ladder that ends at M give the same breakdown, bit for bit
        mp = _ladder_curve(request, curve)
        sym = symbol_from_coefficients(0.0, [1.0, 0.3j, -0.2], [0.2, 0.1])
        b = predict_log_Dn(mp, sym, 12)
        assert _bits(predict_log_Dn(mp, sym, 12, b.m_used)) == _bits(b)
        # and the factors themselves, whose last bits the sums can hide
        ladder = predict_module._ladder(mp, sym, None)[1][0]
        fixed = predict_module._ladder(mp, sym, b.m_used)[1][0]
        assert np.triu(ladder).tobytes() == np.triu(fixed).tobytes()

    @pytest.mark.parametrize("curve", LADDER_CURVES)
    def test_report_log_det_is_minus_twice_the_ladder_half(self, request, curve):
        mp = _ladder_curve(request, curve)
        b = predict_log_Zn(mp, 1)
        rep = spectral_report(operators(grunsky_coefficients(mp, b.m_used)))
        assert rep.log_det_IplusK == -2.0 * b.term_halflogdet

    @pytest.mark.parametrize("curve, potrf_rows, extended", [
        # each rung past table size 64 factors its new rows once: one trsm,
        # one syrk and one potrf of the new block on a curve of degree 3 ...
        ("slow", [16, 32, 64, 128, 128, 256], 2),
        # ... and 128 x 128 blocks with no trsm or syrk on the ellipse
        ("q093", [16, 32, 64, 128] + [128] * 7, 0),
    ])
    def test_each_row_factored_once_along_the_ladder(self, request, monkeypatch, a1_sym,
                                                     curve, potrf_rows, extended):
        from szegodet import grunsky

        calls = {"potrf": [], "trsm": 0, "syrk": 0}
        potrf, trsm, syrk = grunsky._potrf, grunsky._trsm, grunsky._syrk

        def spy_potrf(a, **kw):
            calls["potrf"].append(len(a))
            return potrf(a, **kw)

        def spy_trsm(*args, **kw):
            calls["trsm"] += 1
            return trsm(*args, **kw)

        def spy_syrk(*args, **kw):
            calls["syrk"] += 1
            return syrk(*args, **kw)

        monkeypatch.setattr(grunsky, "_potrf", spy_potrf)
        monkeypatch.setattr(grunsky, "_trsm", spy_trsm)
        monkeypatch.setattr(grunsky, "_syrk", spy_syrk)
        mp = _ladder_curve(request, curve)
        m = predict_log_Dn(mp, a1_sym, 10).m_used
        assert calls["potrf"] == potrf_rows
        # the dense rungs end at 64 (128 rows); from there on, once each row
        assert sum(potrf_rows[4:]) == 2 * m - 128
        assert calls["trsm"] == calls["syrk"] == extended

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.93, 0.97])
    def test_ellipse_family_m512(self, a1_sym, q):
        # B is diagonal, B_kk = q**k: the d = 1 path, at the size of the
        # benchmark's ellipse jobs; g o phi = cos theta puts 1/2 on x_1
        b = predict_log_Dn(make_map(1.0, 0.0, [q]), a1_sym, 30, 512)
        quad = 1.0 / (4.0 * (1.0 + q))
        half = -0.5 * float(np.sum(np.log1p(-(q ** (2.0 * np.arange(1, 513))))))
        assert abs(b.term_quadform - quad) <= 1e-12 * quad
        assert abs(b.term_halflogdet - half) <= 1e-12 * half

    @pytest.mark.parametrize("curve, m", [("wobbly", 64), ("slow", 256)])
    def test_halflogdet_matches_spectral_report(self, request, curve, m):
        # the ladder's accepted table against a report on a table built alone
        mp = request.getfixturevalue(curve)
        b = predict_log_Zn(mp, 1)
        assert b.m_used == m
        rep = spectral_report(operators(grunsky_coefficients(mp, m)))
        assert abs(b.term_halflogdet + 0.5 * rep.log_det_IplusK) <= 1e-12

    @pytest.mark.parametrize("m", [8, 256, None])  # 256: the Lanczos route's table size
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

    @pytest.mark.parametrize("level", [logging.INFO, logging.WARNING])
    @pytest.mark.parametrize("m", [8, None])
    @pytest.mark.parametrize("q, error", [
        (1 - 1e-11, SingularValueAtOne),
        (1.2, NotPositiveDefinite),
    ])
    def test_guard_at_any_log_level(self, caplog, level, m, q, error):
        # the log line's singular values of B must not change the verdict
        with caplog.at_level(level, logger="szegodet.predict"):
            self.test_guard(m, q, error)

    @pytest.mark.parametrize("curve", ["circle", "qcurve", "wobbly", "slow", "pairing", "q093"])
    def test_no_eigensolve_when_the_log_is_off(self, request, caplog, monkeypatch, curve):
        # with INFO dropped, the Cholesky factor alone clears kappa < 1 - 1e-10:
        # the largest singular value of B is not computed
        mp = make_map(1.0, 0.0, [0.93]) if curve == "q093" else request.getfixturevalue(curve)
        ref = predict_log_Dn(mp, symbol_from_coefficients(0.0, [1.0]), 30)

        def fail(*args, **kwargs):
            raise AssertionError("_kappa ran")

        monkeypatch.setattr(predict_module, "_kappa", fail)
        with caplog.at_level(logging.WARNING, logger="szegodet.predict"):
            b = predict_log_Dn(mp, symbol_from_coefficients(0.0, [1.0]), 30)
        assert b == ref
        assert b.m_used == (512 if curve == "q093" else suggest_truncation(mp))
        assert not caplog.records

    def test_exact_check_above_the_clearance(self, monkeypatch):
        # q = 0.99 at m = 512: half is far above the clearance, so the
        # kappa routine runs once, finds kappa = 0.99 and lets the value through
        calls = []
        kappa = predict_module._kappa
        monkeypatch.setattr(predict_module, "_kappa",
                            lambda *a, **kw: calls.append(1) or kappa(*a, **kw))
        b = predict_log_Zn(make_map(1.0, 0.0, [0.99]), 4, 512)
        assert b.term_halflogdet > _clearance(1024) + 20.0
        assert calls == [1]
        k = np.arange(1, 513)
        assert b.term_halflogdet == pytest.approx(-0.5 * np.sum(np.log1p(-(0.99 ** (2 * k)))),
                                                  abs=1e-10)

    def test_clearance_bound(self):
        # the exact bound -0.5 log(2e-10), less the Cholesky rounding allowance
        assert _clearance(16) == pytest.approx(-0.5 * np.log(2e-10), abs=1e-3)
        assert 10.7 < _clearance(1024) < _clearance(512) < _clearance(16) < 11.17

    def test_half_bounds_the_largest_singular_value(self, request):
        # every pair 1 +/- sigma adds -0.5 log(1 - sigma**2) >= 0 to half,
        # so half >= -0.5 log(1 - kappa**2): the bound the clearance rests on
        rng = np.random.default_rng(13)
        curves = [request.getfixturevalue(c)
                  for c in ("circle", "qcurve", "wobbly", "slow", "pairing")]
        curves += [_near_unit_curve(rng, r, int(rng.integers(1, 6)))
                   for r in np.linspace(0.5, 0.96, 30)]
        for mp in curves:
            b = predict_log_Zn(mp, 1)
            kappa = spectral_report(operators(grunsky_coefficients(mp, b.m_used))).kappa_hat
            assert -0.5 * np.log1p(-kappa**2) <= b.term_halflogdet + 1e-12

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


class TestZnBetaCircle:
    def test_beta_two_collapses(self):
        assert zn_beta_circle(3, 2.0) == pytest.approx(3 * LOG_2PI)

    def test_gamma_values(self):
        # Gamma(5) = 24, Gamma(3) = 2: log((2 pi)**2 * 24 / (2 * 4))
        assert zn_beta_circle(2, 4.0) == pytest.approx(np.log((2 * np.pi) ** 2 * 3.0))

    def test_single_point(self):
        assert zn_beta_circle(1, 7.25) == pytest.approx(LOG_2PI)

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            zn_beta_circle(3, beta)
