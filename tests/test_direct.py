import numpy as np
import pytest
from scipy.special import iv

from szegodet import (
    bruteforce_Dn,
    convexity_check,
    curve_samples,
    finite_energy,
    log_det_Dn,
    log_det_range,
    make_map,
    predict_log_Dn,
    quotient_ratio,
    symbol_from_coefficients,
    zero_symbol,
)
from szegodet.direct import EnergyCurve, LOG_2PI, _qr_prefix
from szegodet.errors import DilationNotGreaterThanOne, GridTooCoarse

from test_grunsky import rotated, rotated_symbol


class TestLogDetDn:
    def test_circle_partition_exact(self, circle, zero_sym):
        # Gram matrix is 2 pi I on the circle
        res = log_det_Dn(circle, zero_sym, 4)
        assert res.log_Dn.real == pytest.approx(4 * LOG_2PI, abs=1e-12)
        assert res.log_Dn.imag == 0.0
        assert res.method == "qr_positive"
        assert res.converged

    def test_circle_bessel_oracle(self, circle):
        # g = 2t cos(theta) with t = 1/2: moments are 2 pi I_{j-k}(2t)
        sym = symbol_from_coefficients(0.0, [1.0])
        res = log_det_Dn(circle, sym, 2)
        expect = np.log((2 * np.pi) ** 2 * (iv(0, 1.0) ** 2 - iv(1, 1.0) ** 2))
        assert res.log_Dn.real == pytest.approx(expect, abs=1e-12)

    def test_q_curve_length_moment(self, qcurve, zero_sym):
        _, w = curve_samples(qcurve, 4096)
        res = log_det_Dn(qcurve, zero_sym, 1)
        assert res.log_Dn.real == pytest.approx(np.log(np.sum(w)), abs=1e-10)

    def test_explicit_N_honored(self, qcurve, zero_sym):
        res = log_det_Dn(qcurve, zero_sym, 3, N=64)
        assert res.N_nodes == 64
        assert res.converged  # analytic integrand, 64 nodes is plenty at n = 3

    def test_N_validation(self, qcurve, zero_sym):
        with pytest.raises(ValueError):
            log_det_Dn(qcurve, zero_sym, 20, N=64)

    def test_complex_symbol_path(self, qcurve):
        sym = symbol_from_coefficients(0.0, [0.5j])
        res = log_det_Dn(qcurve, sym, 3)
        assert res.method == "qr_phase"
        assert res.converged
        # conjugating the symbol conjugates the determinant
        res_c = log_det_Dn(qcurve, symbol_from_coefficients(0.0, [-0.5j]), 3)
        assert res_c.log_Dn.real == pytest.approx(res.log_Dn.real, abs=1e-9)
        assert res_c.log_Dn.imag == pytest.approx(-res.log_Dn.imag, abs=1e-9)

    def test_real_complex_paths_agree(self, qcurve, monkeypatch):
        import szegodet.direct as direct_mod
        from szegodet.direct import _nodes_and_gvals, _phase_prefix, _qr_prefix
        from szegodet.series import _unchecked_map

        # a unit phase compresses to the identity: log det C_j = 0 for all j
        sym = symbol_from_coefficients(0.0, [0.3], [0.1])
        capless = _unchecked_map(1.0, qcurve.phi0, qcurve.tail)
        pts, w, g = _nodes_and_gvals(capless, sym, 512)
        _, Q = _qr_prefix(pts, np.sqrt(w * np.exp(g.real)), 24)
        assert np.max(np.abs(_phase_prefix(Q, np.ones(512)))) <= 1e-14
        # Im g = 1e-20 forced down the phase path matches the real result;
        # a constant phase e^{i eps} multiplies D_n by e^{i n eps}
        tiny = symbol_from_coefficients(2e-20j, [0.3], [0.1])
        real = log_det_Dn(qcurve, sym, 12)
        monkeypatch.setattr(direct_mod, "_REAL_TOL", 0.0)
        res = log_det_Dn(qcurve, tiny, 12)
        assert res.method == "qr_phase" and real.method == "qr_positive"
        assert res.N_nodes == real.N_nodes
        assert abs(res.log_Dn.real - real.log_Dn.real) <= 1e-12 * abs(real.log_Dn.real)
        assert abs(res.log_Dn.imag) <= 1e-14

    def test_not_converged_at_node_cap(self, qcurve, monkeypatch):
        import szegodet.direct as direct_mod
        from szegodet.errors import NotConverged

        # a slowly decaying Fourier tail cannot meet the refinement
        # tolerance before a (reduced) node cap
        rough = symbol_from_coefficients(0.0, 0.3 / np.arange(1, 4000) ** 1.01)
        monkeypatch.setattr(direct_mod, "N_CAP", 1024)
        with pytest.raises(NotConverged):
            direct_mod.log_det_Dn(qcurve, rough, 4)

    def test_zero_determinant_guard(self):
        from szegodet.direct import _phase_prefix, _qr_prefix
        from szegodet.errors import ZeroDeterminant

        z = np.array([1.0 + 0j, 1.0 + 0j, 2.0 + 0j])
        with pytest.raises(ZeroDeterminant):
            _qr_prefix(z, np.zeros(3), 2)
        # the phase sums to zero against the first row, so C_11 = 0 exactly
        # although C itself is the (nonsingular) exchange matrix
        Q = np.array([[1, 1, 1, 1], [1, -1, 1, -1]], dtype=complex) / 2
        with pytest.raises(ZeroDeterminant):
            _phase_prefix(Q, np.array([1, -1, 1, -1], dtype=complex))

    def test_triangular_diagonal_positive(self, wobbly, zero_sym):
        # positive weights force a positive triangular diagonal; the value
        # being finite and real certifies every log argument was positive
        res = log_det_Dn(wobbly, zero_sym, 8)
        assert np.isfinite(res.log_Dn.real)
        assert res.log_Dn.imag == 0.0


def _mp_logdet(mpm, q, N, n, g):
    """log det of the explicit moment matrix on the z + q/z curve in mpmath."""
    pts, wts = [], []
    for j in range(N):
        th = 2 * mpm.pi * j / N
        z = mpm.e ** (1j * th)
        pts.append(z + q / z)
        wts.append(abs(1 - q / z**2) * 2 * mpm.pi / N * mpm.e ** g(th))
    M = mpm.zeros(n, n)
    for j in range(n):
        for k in range(n):
            M[j, k] = mpm.fsum(
                (p**j) * (mpm.conj(p) ** k) * w for p, w in zip(pts, wts)
            )
    return mpm.log(mpm.det(M))


class TestHighPrecisionOracle:
    def test_mpmath_determinant_midrange_n(self, qcurve):
        # independent 35-digit LU determinant of the explicit moment matrix
        # at an n between the brute-force range and the asymptotic regime
        mpm = pytest.importorskip("mpmath")
        mpm.mp.dps = 35
        N, n = 128, 5
        ref = float(mpm.re(_mp_logdet(mpm, mpm.mpf(1) / 2, N, n, mpm.cos)))
        sym = symbol_from_coefficients(0.0, [1.0])
        got = log_det_Dn(qcurve, sym, n, N=N).log_Dn.real
        assert got == pytest.approx(ref, abs=1e-12)

    def test_mpmath_determinant_complex_symbol(self, qcurve):
        # g = cos t + 0.3 cos 2t + 0.1i cos 3t: the phase-compressed path
        # against the same 35-digit moment-matrix determinant
        mpm = pytest.importorskip("mpmath")
        mpm.mp.dps = 35
        N, n = 128, 5

        def g(th):
            return mpm.cos(th) + mpm.mpf("0.3") * mpm.cos(2 * th) + 0.1j * mpm.cos(3 * th)

        ref = complex(_mp_logdet(mpm, mpm.mpf(1) / 2, N, n, g))
        sym = symbol_from_coefficients(0.0, [1.0, 0.3, 0.1j])
        res = log_det_Dn(qcurve, sym, n, N=N)
        assert res.method == "qr_phase"
        assert abs(res.log_Dn - ref) <= 1e-12

    @pytest.mark.parametrize("a0", [0.0, 1.0j])
    @pytest.mark.parametrize("n", [8, 12])
    def test_branch_follows_prediction(self, qcurve, n, a0):
        # Im log D_n must match the prediction itself, not only mod 2 pi:
        # the pivot logs give the branch continuous along t -> t Im g.
        # With a0 = i, Im log D_n is about n/2, past pi for both n.
        sym = symbol_from_coefficients(a0, [0.3 + 0.2j], [0.1j])
        d = log_det_Dn(qcurve, sym, n).log_Dn
        p = predict_log_Dn(qcurve, sym, n).total_log
        assert abs(d.imag - p.imag) < 1e-3


class TestInvariance:
    def test_basis_change(self, qcurve):
        # the Gram determinant is unchanged by any unit-upper-triangular
        # recombination of the monomial basis
        rng = np.random.default_rng(4)
        n, N = 8, 512
        theta = 2 * np.pi * np.arange(N) / N
        z = np.exp(1j * theta)
        pts = z + 0.5 / z
        w = np.abs(1 - 0.5 / z**2) * (2 * np.pi / N)
        base = _qr_prefix(pts, np.sqrt(w), n)[0][-1]
        V = np.vander(pts, n, increasing=True)
        for _ in range(3):
            U = np.eye(n) + np.triu(0.5 * rng.standard_normal((n, n)), 1)
            A = np.sqrt(w)[:, None] * (V @ U)
            R = np.linalg.qr(A, mode="r")
            mixed = 2.0 * float(np.sum(np.log(np.abs(np.diag(R)))))
            assert abs(mixed - base) <= 1e-10

    def test_scaling_covariance(self, wobbly, zero_sym):
        scaled = make_map(3.0 * wobbly.cap, wobbly.phi0, wobbly.tail)
        a = log_det_Dn(wobbly, zero_sym, 6).log_Dn.real
        b = log_det_Dn(scaled, zero_sym, 6).log_Dn.real
        assert b - a == pytest.approx(36 * np.log(3.0), abs=1e-10)

    def test_translation_rotation(self, wobbly):
        sym = symbol_from_coefficients(0.0, [0.4], [0.2])
        base = log_det_Dn(wobbly, sym, 8).log_Dn.real
        shifted = make_map(wobbly.cap, wobbly.phi0 + (1.0 + 2.0j), wobbly.tail)
        assert log_det_Dn(shifted, sym, 8).log_Dn.real == pytest.approx(base, abs=1e-10)
        rot = rotated(wobbly, 0.9)
        rsym = rotated_symbol(sym, 0.9)
        assert log_det_Dn(rot, rsym, 8).log_Dn.real == pytest.approx(base, abs=1e-10)


class TestConvergenceToPrediction:
    def test_residual_trend(self, qcurve):
        # decreasing residual while it stays above the arithmetic floor
        sym = symbol_from_coefficients(0.0, [1.0])
        ns = range(8, 41)
        residuals = []
        for n in ns:
            d = log_det_Dn(qcurve, sym, n).log_Dn
            p = predict_log_Dn(qcurve, sym, n).total_log
            residuals.append(abs(d - p))
        floor = 1e-7
        above = [r for r in residuals if r > floor]
        assert all(b < a for a, b in zip(above, above[1:]))
        assert residuals[-1] <= 1e-10


class TestQuotient:
    def test_circle(self, circle, zero_sym):
        for n in (1, 3, 7):
            assert quotient_ratio(circle, zero_sym, n) == pytest.approx(2 * np.pi, abs=1e-10)

    def test_q_curve_approach(self, qcurve, zero_sym):
        vals = [quotient_ratio(qcurve, zero_sym, n) for n in range(1, 13)]
        gaps = [abs(v - 2 * np.pi) for v in vals]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-5

    def test_constant_symbol(self, qcurve):
        sym = symbol_from_coefficients(3.0)  # g = 1.5 everywhere
        assert quotient_ratio(qcurve, sym, 20) == pytest.approx(
            2 * np.pi * np.exp(1.5), rel=1e-8
        )


class TestBruteforce:
    def test_circle_n1(self, circle, zero_sym):
        assert bruteforce_Dn(circle, zero_sym, 1, 64) == pytest.approx(np.log(2 * np.pi))

    def test_circle_n2_closed_form(self, circle, zero_sym):
        # (1/2) int int |e^{i a} - e^{i b}|^2 = (1/2) * 8 pi^2 = 4 pi^2
        assert bruteforce_Dn(circle, zero_sym, 2, 1024) == pytest.approx(
            np.log(4 * np.pi**2), abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_vs_direct(self, qcurve, circle, zero_sym, n):
        for mp in (circle, qcurve):
            bf = bruteforce_Dn(mp, zero_sym, n, 1024 if n == 2 else 384)
            direct = log_det_Dn(mp, zero_sym, n).log_Dn.real
            assert bf == pytest.approx(direct, abs=1e-6)

    def test_with_symbol(self, qcurve):
        sym = symbol_from_coefficients(0.0, [1.0])
        bf = bruteforce_Dn(qcurve, sym, 2, 1024)
        direct = log_det_Dn(qcurve, sym, 2).log_Dn.real
        assert bf == pytest.approx(direct, abs=1e-8)

    def test_argument_validation(self, circle, zero_sym):
        with pytest.raises(ValueError):
            bruteforce_Dn(circle, zero_sym, 4, 256)
        with pytest.raises(ValueError):
            bruteforce_Dn(circle, zero_sym, 2, 32)


class TestEnergy:
    def test_circle_zero(self, circle):
        c = finite_energy(circle, 3, [1.5, 2.0, 4.0])
        assert np.max(np.abs(c.values)) <= 1e-10

    def test_monotone_decreasing_in_r(self, qcurve):
        c = finite_energy(qcurve, 4, [1.05, 1.2, 1.5, 2.0, 4.0])
        assert np.all(np.diff(c.values) <= 1e-8)

    def test_monotone_increasing_in_n(self, qcurve):
        vals = [finite_energy(qcurve, n, [1.2]).values[0] for n in (2, 3, 4, 5)]
        assert all(b >= a - 1e-8 for a, b in zip(vals, vals[1:]))

    def test_requires_r_gt_one(self, qcurve):
        with pytest.raises(DilationNotGreaterThanOne):
            finite_energy(qcurve, 2, [0.9, 1.5])


class TestConvexity:
    def test_circle_flat(self, circle):
        r = np.exp(np.linspace(np.log(1.1), np.log(4.0), 6))
        rep = convexity_check(finite_energy(circle, 3, r))
        assert not rep.flagged
        assert abs(rep.min_estimate) <= 1e-6

    def test_q_curve(self, qcurve):
        r = np.exp(np.linspace(np.log(1.1), np.log(8.0), 9))
        rep = convexity_check(finite_energy(qcurve, 3, r))
        assert not rep.flagged
        assert rep.min_estimate >= -1e-4

    def test_decay_at_large_r(self, qcurve):
        c = finite_energy(qcurve, 3, [50.0])
        assert abs(c.values[0]) <= 1e-3

    def test_grid_validation(self, qcurve):
        c = finite_energy(qcurve, 2, [1.1, 1.3, 1.9, 3.0])
        with pytest.raises(GridTooCoarse):
            convexity_check(c)
        bad = EnergyCurve(2, np.array([1.1, 1.2, 1.5, 3.0, 8.0]), np.zeros(5))
        with pytest.raises(GridTooCoarse):
            convexity_check(bad)


def _logdet_columns(z, u, n):
    """log D_1..log D_n by the column-major Gram-Schmidt loop, as a reference."""
    N = len(z)
    v = np.sqrt(u).astype(complex)
    nrm = float(np.linalg.norm(v))
    Q = np.empty((N, n), dtype=complex)
    Q[:, 0] = v / nrm
    log_cum = np.log(nrm)
    totals = [2.0 * log_cum]
    for j in range(1, n):
        v = z * Q[:, j - 1]
        v = v - Q[:, :j] @ (Q[:, :j].conj().T @ v)
        v = v - Q[:, :j] @ (Q[:, :j].conj().T @ v)
        h = float(np.linalg.norm(v))
        Q[:, j] = v / h
        log_cum += np.log(h)
        totals.append(totals[-1] + 2.0 * log_cum)
    return np.array(totals)


class TestRange:
    """One Gram-Schmidt pass per grid for a whole n range, at sweep sizes."""

    SYM = symbol_from_coefficients(0.3, [0.4, 0.1], [0.2])

    def test_prefix_matches_per_n(self, wobbly):
        from szegodet.direct import _nodes_and_gvals
        from szegodet.series import _unchecked_map

        rows = log_det_range(wobbly, self.SYM, 8, 100)
        assert [r.n for r in rows] == list(range(8, 101))
        N = rows[0].N_nodes
        assert all(r.N_nodes == N and r.converged for r in rows)
        capless = _unchecked_map(1.0, wobbly.phi0, wobbly.tail)
        pts, w, g = _nodes_and_gvals(capless, self.SYM, N)
        u = w * np.exp(g.real)
        ref = _logdet_columns(pts, u, 100)
        log_cap = np.log(wobbly.cap)
        for r in rows:
            val = r.log_Dn.real - r.n**2 * log_cap
            tol = 1e-12 * max(1.0, abs(r.log_Dn.real))
            assert r.log_Dn.imag == 0.0
            assert abs(val - ref[r.n - 1]) <= tol
            one = _qr_prefix(pts, np.sqrt(u), r.n)[0][-1]
            assert abs(val - one) <= tol

    def test_range_to_200_matches_reference(self, wobbly):
        # the top of the n range the auto policies reach
        from szegodet.direct import _nodes_and_gvals
        from szegodet.series import _unchecked_map

        rows = log_det_range(wobbly, self.SYM, 8, 200)
        assert [r.n for r in rows] == list(range(8, 201))
        N = rows[0].N_nodes
        assert all(r.N_nodes == N and r.converged for r in rows)
        capless = _unchecked_map(1.0, wobbly.phi0, wobbly.tail)
        pts, w, g = _nodes_and_gvals(capless, self.SYM, N)
        ref = _logdet_columns(pts, w * np.exp(g.real), 200)
        log_cap = np.log(wobbly.cap)
        for r in rows:
            val = r.log_Dn.real - r.n**2 * log_cap
            assert abs(val - ref[r.n - 1]) <= 1e-12 * max(1.0, abs(r.log_Dn.real))

    def test_refines_until_every_row_agrees(self, wobbly, monkeypatch):
        import szegodet.direct as direct_mod

        assert log_det_range(wobbly, self.SYM, 4, 12)[0].N_nodes == 1024
        real = direct_mod._range_at

        def lowest_row_settles_late(mp, sym, n_lo, n_hi, N):
            vals, method = real(mp, sym, n_lo, n_hi, N)
            if N < 2048:
                vals = vals.copy()
                vals[0] += 1.0 / N
            return vals, method

        monkeypatch.setattr(direct_mod, "_range_at", lowest_row_settles_late)
        rows = log_det_range(wobbly, self.SYM, 4, 12)
        assert all(r.N_nodes == 4096 for r in rows)

    def test_not_converged_at_node_cap(self, wobbly, monkeypatch):
        import szegodet.direct as direct_mod
        from szegodet.errors import NotConverged

        rough = symbol_from_coefficients(0.0, 0.3 / np.arange(1, 4000) ** 1.01)
        monkeypatch.setattr(direct_mod, "N_CAP", 1024)
        with pytest.raises(NotConverged):
            direct_mod.log_det_range(wobbly, rough, 4, 12)

    def test_explicit_N_flags_each_row(self, wobbly):
        # N = 80 resolves the low rows and not the high ones; each row's
        # flag is its own N vs 2N check, as for a one-row call
        rows = log_det_range(wobbly, self.SYM, 4, 20, N=80)
        flags = [r.converged for r in rows]
        assert flags[0] and not flags[-1]
        for r in rows:
            one = log_det_Dn(wobbly, self.SYM, r.n, N=80)
            assert r.N_nodes == one.N_nodes == 80
            assert r.converged == one.converged
            assert abs(r.log_Dn - one.log_Dn) <= 1e-12 * max(1.0, abs(one.log_Dn))
        with pytest.raises(ValueError):
            log_det_range(wobbly, self.SYM, 8, 21, N=80)
