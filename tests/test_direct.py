import numpy as np
import pytest
from scipy.special import iv

from szegodet import (
    convexity_check,
    curve_samples,
    finite_energy,
    log_det_Dn,
    log_det_range,
    make_map,
    predict_log_Dn,
    predict_range,
    symbol_from_coefficients,
    zero_symbol,
)
from szegodet.direct import EnergyCurve, LOG_2PI, _grid_prefix
from szegodet.errors import DilationNotGreaterThanOne, GridTooCoarse, SzegoError
from szegodet.series import _phi_norm
from szegodet.symbol import theta_values

from oracles import bruteforce_Dn
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

        sym = symbol_from_coefficients(0.0, [0.3], [0.1])
        tiny = symbol_from_coefficients(2e-20j, [0.3], [0.1])
        real = log_det_Dn(qcurve, sym, 12)
        # Im g = 1e-20 forced down the phase path: its Q comes from the
        # weights of sym, and a unit phase compresses to the identity,
        # log det C_j = 0 for all j
        phase_prefix = direct_mod._phase_prefix
        factors = []
        monkeypatch.setattr(direct_mod, "_REAL_TOL", 0.0)
        monkeypatch.setattr(direct_mod, "_phase_prefix",
                            lambda C: factors.append(C) or phase_prefix(C))
        _one_map_prefix(qcurve, tiny, 24, 512)
        # e^{i 1e-20} is 1 to double precision, so C = Q^t conj(Q) = I
        (C,) = factors
        assert np.max(np.abs(C - np.eye(24))) <= 1e-14
        assert np.max(np.abs(phase_prefix(C))) <= 1e-14
        # and matches the real result; a constant phase e^{i eps}
        # multiplies D_n by e^{i n eps}
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

    def test_zero_determinant_guard(self, qcurve, zero_sym, monkeypatch):
        import szegodet.direct as direct_mod
        from szegodet.direct import _phase_prefix
        from szegodet.errors import ZeroDeterminant

        # e^{Re g} = e^{-1000} underflows: every weight is zero, so every
        # |R_jj| is zero, the row is NaN and each caller raises
        dead = symbol_from_coefficients(-2000.0)
        assert np.all(np.isnan(_one_map_prefix(qcurve, dead, 2, 64)))
        for N in (None, 64):
            with pytest.raises(ZeroDeterminant):
                log_det_Dn(qcurve, dead, 2, N)
        # an explicit N raises when either of its two grids fails
        grid_prefix = direct_mod._grid_prefix

        def check_grid_fails(phi0, tail, gs, n, prev=None):
            logdets, method, factors = grid_prefix(phi0, tail, gs, n, prev)
            for g, x in zip(gs, logdets):
                if len(g) == 128:
                    x[:] = np.nan
            return logdets, method, factors

        monkeypatch.setattr(direct_mod, "_grid_prefix", check_grid_fails)
        with pytest.raises(ZeroDeterminant):
            log_det_Dn(qcurve, zero_sym, 2, 64)
        # the phase sums to zero against the first row, so C_11 = 0 exactly
        # although C itself is the (nonsingular) exchange matrix
        Q = np.array([[1, 1, 1, 1], [1, -1, 1, -1]], dtype=complex) / 2
        C = (Q * np.array([1, -1, 1, -1])) @ Q.conj().T
        assert np.array_equal(C, [[0, 1], [1, 0]])
        with pytest.raises(ZeroDeterminant):
            _phase_prefix(C)

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

    @pytest.mark.parametrize("A", [2.0, 3.0, 4.0])
    def test_no_branch_jump_past_half_pi(self, qcurve, A):
        # max |Im g| = A is past pi/2, where the pivot logs carry no branch
        # guarantee; Im log D_n still tracks the prediction to well within
        # pi, so no 2 pi jump occurs on the automatic grid
        sym = symbol_from_coefficients(0.0, [0.3, A * 1j])
        rows = log_det_range(qcurve, sym, 8, 24)
        preds = predict_range(qcurve, sym, 8, 24)
        for d, p in zip(rows, preds):
            assert d.method == "qr_phase"
            assert abs(d.log_Dn.imag - p.total_log.imag) < 0.5, (d.n, d.N_nodes)


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
        base = _one_map_prefix(qcurve, zero_symbol(), n, N)[-1].real
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


def quotient_ratio(mp, sym, n):
    """cap**(-2n-1) D_{n+1}/D_n from two rows of one range; tends to 2 pi e^{a0/2}."""
    b, a = log_det_range(mp, sym, n, n + 1)
    return complex(np.exp(a.log_Dn - b.log_Dn - (2 * n + 1) * np.log(mp.cap)))


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

    def test_grid_checked_before_quadrature(self, qcurve, monkeypatch):
        import szegodet.direct as direct_mod

        built = []
        real = direct_mod._faber_basis
        monkeypatch.setattr(direct_mod, "_faber_basis",
                            lambda *args: built.append(args) or real(*args))
        for grid, error in (([3.0, 2.0], ValueError),
                            ([1.5, 1.5], ValueError),
                            ([2.0, 0.9], DilationNotGreaterThanOne),
                            ([np.nan, 2.0], DilationNotGreaterThanOne)):
            with pytest.raises(error):
                finite_energy(qcurve, 2, grid)
        assert built == []
        finite_energy(qcurve, 2, [2.0, 3.0])
        assert built


R_FAMILY = np.exp(np.linspace(np.log(1.01), np.log(50.0), 9))


class TestEnergyFamily:
    """finite_energy against one log_det_Dn per level curve phi(r z)/r."""

    @staticmethod
    def _curves():
        rng = np.random.default_rng(15)
        return [_near_unit_curve(rng, rho, degree)
                for rho, degree in ((0.5, 2), (0.7, 3), (0.85, 4), (0.95, 5))]

    @staticmethod
    def _on_each_grid(monkeypatch, edit):
        """Call edit(r, N, logdets) on each grid finite_energy evaluates,
        as its ladder reads the grid: r the radii of its stack of level
        curves, logdets the rows the evaluator returns for them, which
        edit may change in place."""
        import szegodet.direct as direct_mod

        radii = []
        dilated_coeffs, grid_prefix = direct_mod._dilated_coeffs, direct_mod._grid_prefix

        def coeffs(mp, r):
            radii.append(np.asarray(r))
            return dilated_coeffs(mp, r)

        def grid(phi0, tail, gs, n, prev=None):
            logdets, method, factors = grid_prefix(phi0, tail, gs, n, prev)
            if radii:  # a stack of level curves, not a log_det_Dn call
                r = radii.pop()
                logdets = (edit(r, len(g), x) or x for g, x in zip(gs, logdets))
            return logdets, method, factors

        monkeypatch.setattr(direct_mod, "_dilated_coeffs", coeffs)
        monkeypatch.setattr(direct_mod, "_grid_prefix", grid)

    @classmethod
    def _spy(cls, monkeypatch):
        """Record, per r, the grid sizes the family was evaluated on."""
        grids = {}

        def record(r, N, _):
            for ri in r:
                grids.setdefault(float(ri), []).append(N)

        cls._on_each_grid(monkeypatch, record)
        return grids

    @pytest.mark.parametrize("n", [2, 5, 30, 60])
    def test_matches_per_r_reference(self, n, circle, qcurve, wobbly, slow, monkeypatch):
        from szegodet import dilate_map
        from szegodet.direct import _start_N

        grids = self._spy(monkeypatch)
        zero = zero_symbol()
        for mp in [circle, qcurve, wobbly, slow] + self._curves():
            grids.clear()
            values = finite_energy(mp, n, R_FAMILY).values
            for ri, e in zip(R_FAMILY, values):
                ref = log_det_Dn(dilate_map(mp, ri), zero, n)
                want = ref.log_Dn.real - n * LOG_2PI - n * n * np.log(mp.cap)
                assert abs(e - want) <= 1e-12 * max(1.0, abs(want))
                seen = grids[float(ri)]
                assert seen == [_start_N(n) * 2**k for k in range(len(seen))]
                assert seen[-1] == ref.N_nodes

    def test_errors_follow_the_smallest_r(self, qcurve, monkeypatch):
        # a curve whose nodes fail (NaN) or whose grids never agree ends
        # its own ladder; the error raised is that of the smallest such r,
        # as a loop of log_det_Dn over the grid would raise it
        import szegodet.direct as direct_mod
        from szegodet.direct import _start_N
        from szegodet.errors import NotConverged, ZeroDeterminant

        calls = []
        nan_at = drift_at = np.nan  # the radii to fault, set per case

        def faulty(r, N, logdets):
            calls.append(N)
            logdets[r == nan_at] = np.nan
            logdets[r == drift_at] += 1.0 / N

        monkeypatch.setattr(direct_mod, "N_CAP", 4 * _start_N(2))
        self._on_each_grid(monkeypatch, faulty)
        nan_at = 2.0
        with pytest.raises(ZeroDeterminant):
            finite_energy(qcurve, 2, [1.5, 2.0, 3.0])
        drift_at = 1.5
        with pytest.raises(NotConverged):
            finite_energy(qcurve, 2, [1.5, 2.0, 3.0])
        calls.clear()
        nan_at, drift_at = 1.5, 2.0
        with pytest.raises(ZeroDeterminant):
            finite_energy(qcurve, 2, [1.5, 2.0, 3.0])
        assert calls == [_start_N(2)]  # settled once the smallest r failed

    def test_each_r_extends_its_own_factors(self, qcurve, monkeypatch):
        # the middle r is held on the ladder (its value is off by 1/N below
        # 1000 nodes) after the r on either side of it have settled: it
        # must go on extending its own factors, not those of another r
        from szegodet import dilate_map
        from szegodet.direct import _start_N

        def hold_middle(r, N, logdets):
            if N < 1000:
                logdets[r == 2.0] += 1.0 / N

        self._on_each_grid(monkeypatch, hold_middle)
        held = _start_N(5)  # the first grid past 1000 nodes, then one to confirm it
        while held < 1000:
            held *= 2
        r = np.array([1.5, 2.0, 3.0])
        values = finite_energy(qcurve, 5, r).values
        for ri, e, N in zip(r, values, (None, 2 * held, None)):
            if N is None:
                N = log_det_Dn(dilate_map(qcurve, ri), zero_symbol(), 5).N_nodes
            want = _one_map_prefix(dilate_map(qcurve, ri), zero_symbol(), 5, N)[-1].real
            assert abs(e - (want - 5 * LOG_2PI)) <= 1e-12 * abs(want)

    def test_errors_follow_the_smallest_r_one_ladder_per_r(self, qcurve, monkeypatch):
        # with 4 stack entries every r runs a ladder of its own, one after
        # the other; the same errors come out
        import szegodet.direct as direct_mod

        monkeypatch.setattr(direct_mod, "_STACK_ENTRIES", 4)
        self.test_errors_follow_the_smallest_r(qcurve, monkeypatch)

    def test_memory_bounded_at_n200(self, wobbly):
        # the stack is built in blocks of at most 2**14 entries, one curve a
        # block at this size; the 49 bases of one 928-node grid at once
        # would take about 150 MB
        import tracemalloc

        r = np.exp(np.linspace(np.log(1.1), np.log(8.0), 49))
        tracemalloc.start()
        try:
            curve = finite_energy(wobbly, 200, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(curve.values))
        assert peak <= 8 * 2**20


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


def _near_unit_curve(rng, r, degree, extra=0.05):
    """A valid curve whose critical radius is within 1.5 % of r.

    One dominant term with d|t_d| = r**(d + 1) puts the zero of phi' at
    radius r; lower terms carry ``extra`` of that weight in sum k|t_k|,
    with random split and phases.  Draws that move the critical radius
    by more than 1.5 % or that ``make_map`` rejects are redrawn.
    """
    k = np.arange(1, degree + 1)
    dominant = r ** (degree + 1)
    while True:
        tail = np.zeros(degree, dtype=complex)
        tail[-1] = dominant / degree * np.exp(2j * np.pi * rng.random())
        if degree > 1:
            w = rng.dirichlet(np.ones(degree - 1)) * extra * dominant
            tail[:-1] = w / k[:-1] * np.exp(2j * np.pi * rng.random(degree - 1))
        # phi'(z) = 1 - sum k t_k z^(-k-1) vanishes at the roots of this
        crit = np.max(np.abs(np.roots(np.concatenate(([1.0, 0.0], -k * tail)))))
        cap = float(rng.uniform(0.8, 1.25))
        phi0 = complex(*rng.normal(scale=0.1, size=2))
        if abs(crit - r) > 0.015 * r:
            continue
        try:
            return make_map(cap, phi0, tail)
        except SzegoError:
            continue


def _one_map_prefix(mp, sym, n, N):
    """log D_1..log D_n of e^g on the N-node grid of mp, cap left out:
    the evaluator run on a stack of one map."""
    g = theta_values(sym, 2 * np.pi * np.arange(N) / N)
    return _grid_prefix(np.array([mp.phi0]), mp.tail[None], [g], n)[0][0][0]


def _grid(mp, sym, N):
    """Nodes, trapezoidal |dzeta| weights and g on the N-node grid of mp,
    cap left out: the inputs of the reference determinants."""
    theta = 2 * np.pi * np.arange(N) / N
    z = np.exp(1j * theta)
    w = np.abs(_phi_norm(mp, z, 1)) * (2 * np.pi / N)
    return _phi_norm(mp, z, 0), w, theta_values(sym, theta)


def _fixed_grid_values(mp, sym, n_lo, n_hi, N):
    """log D_n, n = n_lo..n_hi, on one N-node grid: what an explicit N
    returns, without the cost of its 2N check grid."""
    vals = _one_map_prefix(mp, sym, n_hi, N)[n_lo - 1 :]
    return vals + np.arange(n_lo, n_hi + 1) ** 2 * np.log(mp.cap)


def _logdet_columns(z, u, n):
    """log D_1..log D_n by the column-major Gram-Schmidt loop, as a reference."""
    return _arnoldi_columns(z, u, n)[0]


def _arnoldi_columns(z, u, n):
    """``_logdet_columns`` and its orthonormal N-by-n basis Q."""
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
    return np.array(totals), Q


def _tail_curve(rng, nonzero, total):
    """A valid curve whose tail has ``nonzero`` terms, all nonzero, with
    random phases and sum k|t_k| = total < 1 (which makes phi univalent)."""
    k = np.arange(1, nonzero + 1)
    w = rng.dirichlet(np.ones(nonzero)) * total
    tail = w / k * np.exp(2j * np.pi * rng.random(nonzero))
    return make_map(float(rng.uniform(0.8, 1.25)), complex(*rng.normal(scale=0.1, size=2)), tail)


class TestFaberBasis:
    """The Faber recurrence, and its Householder QR against the Arnoldi reference."""

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.93])
    def test_ellipse_closed_form(self, q):
        # phi = z + phi0 + q/z has F_0 = 1 and F_j(phi(z)) = z^j + (q/z)^j
        from szegodet.direct import _faber_basis

        phi0 = 0.4 - 0.7j
        z = np.exp(2j * np.pi * np.arange(256) / 256)
        F = _faber_basis(phi0, np.array([q]), z + phi0 + q / z, 200)
        j = np.arange(1, 200)
        exact = z[:, None] ** j + (q / z)[:, None] ** j
        assert F.flags.f_contiguous
        assert np.all(F[:, 0] == 1.0)
        assert np.max(np.abs(F[:, 1:] - exact)) <= 1e-12

    def test_circle_powers(self):
        # an all-zero tail leaves F_j = (zeta - phi0)^j
        from szegodet.direct import _faber_basis

        phi0 = -0.3 + 0.2j
        zeta = phi0 + np.exp(2j * np.pi * np.arange(256) / 256)
        F = _faber_basis(phi0, np.zeros(2), zeta, 200)
        exact = (zeta - phi0)[:, None] ** np.arange(200)
        assert np.max(np.abs(F - exact)) <= 1e-12

    @staticmethod
    def _curves():
        rng = np.random.default_rng(14)
        curves = [_tail_curve(rng, d, s) for d, s in ((8, 0.6), (24, 0.8), (48, 0.95))]
        curves += [_near_unit_curve(rng, r, 4) for r in (0.95, 0.99)]
        # a tail with interior zeros
        curves.append(make_map(1.1, 0.1j, [0.0, 0.3, 0.0, 0.0, 0.1j]))
        return curves

    @pytest.mark.parametrize("n", [40, 120])
    def test_matches_arnoldi(self, n, monkeypatch):
        # same nodes, same weights: every log D_j and every leading
        # log det of the phase factor agree with the Arnoldi reference
        import szegodet.direct as direct_mod
        from szegodet.direct import _phase_prefix, _start_N

        sym = symbol_from_coefficients(0.2, [0.3, 0.1j, -0.05], [0.2j, 0.1])
        N = 2 * _start_N(n)
        factors = []  # the phase factor C the evaluator builds, one per call
        monkeypatch.setattr(direct_mod, "_phase_prefix",
                            lambda C: factors.append(C) or _phase_prefix(C))
        for mp in self._curves():
            pts, w, g = _grid(mp, sym, N)
            u = w * np.exp(g.real)
            ref, Q_ref = _arnoldi_columns(pts, u, n)
            factors.clear()
            total = _one_map_prefix(mp, sym, n, N)
            (C,) = factors
            phase = np.exp(1j * g.imag)
            assert np.max(np.abs(g.imag)) > 0.1
            c_ref = _phase_prefix((Q_ref.T * phase) @ Q_ref.conj())
            c = _phase_prefix(C)
            got = total - c  # the QR part, 2 sum log |R_ii|
            assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
            assert np.all(np.abs(c - c_ref) <= 1e-12 * np.maximum(1.0, np.abs(c_ref)))


class TestRange:
    """One Householder QR per grid for a whole n range, at sweep sizes."""

    SYM = symbol_from_coefficients(0.3, [0.4, 0.1], [0.2])

    def test_prefix_matches_per_n(self, wobbly):
        rows = log_det_range(wobbly, self.SYM, 8, 100)
        assert [r.n for r in rows] == list(range(8, 101))
        N = rows[0].N_nodes
        assert all(r.N_nodes == N and r.converged for r in rows)
        pts, w, g = _grid(wobbly, self.SYM, N)
        u = w * np.exp(g.real)
        ref = _logdet_columns(pts, u, 100)
        log_cap = np.log(wobbly.cap)
        for r in rows:
            val = r.log_Dn.real - r.n**2 * log_cap
            tol = 1e-12 * max(1.0, abs(r.log_Dn.real))
            assert r.log_Dn.imag == 0.0
            assert abs(val - ref[r.n - 1]) <= tol
            one = _one_map_prefix(wobbly, self.SYM, r.n, N)[-1]
            assert abs(val - one) <= tol

    def test_range_to_200_matches_reference(self, wobbly):
        # the top of the n range the auto policies reach
        rows = log_det_range(wobbly, self.SYM, 8, 200)
        assert [r.n for r in rows] == list(range(8, 201))
        N = rows[0].N_nodes
        assert all(r.N_nodes == N and r.converged for r in rows)
        pts, w, g = _grid(wobbly, self.SYM, N)
        ref = _logdet_columns(pts, w * np.exp(g.real), 200)
        log_cap = np.log(wobbly.cap)
        for r in rows:
            val = r.log_Dn.real - r.n**2 * log_cap
            assert abs(val - ref[r.n - 1]) <= 1e-12 * max(1.0, abs(r.log_Dn.real))

    def test_refines_until_every_row_agrees(self, wobbly, monkeypatch):
        import szegodet.direct as direct_mod
        from szegodet.direct import _start_N

        assert log_det_range(wobbly, self.SYM, 4, 12)[0].N_nodes == 2 * _start_N(12)
        real = direct_mod._grid_prefix
        # the lowest row is off on every grid below 1000 nodes, so the
        # ladder must pass the first grid beyond that and confirm it once
        settled = _start_N(12)
        while settled < 1000:
            settled *= 2

        def lowest_row_settles_late(phi0, tail, gs, n, prev=None):
            logdets, method, factors = real(phi0, tail, gs, n, prev)
            for g, x in zip(gs, logdets):
                if len(g) < 1000:
                    x[:, 3] += 1.0 / len(g)  # log D_4, the lowest row
            return logdets, method, factors

        monkeypatch.setattr(direct_mod, "_grid_prefix", lowest_row_settles_late)
        rows = log_det_range(wobbly, self.SYM, 4, 12)
        assert all(r.N_nodes == 2 * settled for r in rows)

    @pytest.mark.parametrize("name, n_hi", [
        ("circle", 200), ("qcurve", 200), ("wobbly", 200), ("slow", 40),
    ])
    def test_auto_grid_matches_fine_grid(self, request, name, n_hi):
        # the start grid 2 n_hi + 64 is sized to the degree: the grid the
        # ladder accepts matches 8192 nodes to rounding on every row
        mp = request.getfixturevalue(name)
        rows = log_det_range(mp, self.SYM, 8, n_hi)
        ref = _fixed_grid_values(mp, self.SYM, 8, n_hi, 8192)
        for a, b in zip(rows, ref):
            assert abs(a.log_Dn - b) <= 1e-12 * max(1.0, abs(b))

    def test_no_false_agreement_near_unit_radius(self):
        # critical radius r near 1: the integrand's tail decays like r^k and
        # the error is not monotone in N, so two grids of a slowly growing
        # ladder can agree while both are off (a 1.5x ladder fails here);
        # doubling squares the error at each step instead
        rng = np.random.default_rng(24)
        for r in (0.95, 0.97, 0.99):
            for degree in (1, 3, 5):
                mp = _near_unit_curve(rng, r, degree)
                for n_lo, n_hi in ((8, 12), (20, 40), (90, 100)):
                    rows = log_det_range(mp, self.SYM, n_lo, n_hi)
                    N = rows[0].N_nodes
                    ref = _fixed_grid_values(mp, self.SYM, n_lo, n_hi, 4 * N)
                    for a, b in zip(rows, ref):
                        tol = 1e-10 * max(1.0, abs(b))
                        assert abs(a.log_Dn - b) <= tol, (r, degree, a.n, N)

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


class TestOneEvaluator:
    """Every direct determinant runs through ``_grid_prefix`` and ``_refine``."""

    def test_grids_only_through_the_evaluator(self, qcurve, monkeypatch):
        # no basis, QR or phase factor is built outside _grid_prefix, and
        # every automatic ladder doubles from _start_N of its top degree
        import szegodet.direct as direct_mod
        from szegodet.direct import _start_N

        grids, stray = [], []
        firsts = []  # per grid: whether it was a first grid, not an extension
        depth = [0]  # _grid_prefix calls in progress

        def guard(module, name):
            real = getattr(module, name)

            def run(*args, **kwargs):
                if not depth[0]:
                    stray.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, run)

        for name in ("_faber_basis", "_diag_prefix", "_phase_prefix"):
            guard(direct_mod, name)
        guard(direct_mod.flapack, "ztpqrt")
        grid_prefix = direct_mod._grid_prefix

        def grid(phi0, tail, gs, n, prev=None):
            grids.extend(len(g) for g in gs)
            firsts.extend(prev is None and not i for i in range(len(gs)))
            depth[0] += 1
            try:
                return grid_prefix(phi0, tail, gs, n, prev)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(direct_mod, "_grid_prefix", grid)
        sym = symbol_from_coefficients(0.0, [0.5], [0.2j])

        def ladder(n_hi):
            return [_start_N(n_hi) * 2**k for k in range(len(grids))]

        for call, n_hi in (
            (lambda: log_det_Dn(qcurve, sym, 6), 6),
            (lambda: log_det_range(qcurve, sym, 4, 30), 30),
            (lambda: log_det_range(qcurve, sym, 7, 8), 8),
            (lambda: finite_energy(qcurve, 5, [1.5, 3.0]), 5),
        ):
            grids.clear()
            firsts.clear()
            call()
            assert len(grids) >= 2 and grids == ladder(n_hi)
            # every later grid extends the one before it
            assert firsts == [True] + [False] * (len(grids) - 1)
        grids.clear()
        firsts.clear()
        rows = log_det_range(qcurve, sym, 4, 30, N=128)
        assert grids == [128, 256] and rows[0].method == "qr_phase"
        assert firsts == [True, False]
        assert stray == []

    def test_refine_hands_each_run_the_factors_of_its_items(self):
        # item i is off by 1/N below settle[i] nodes: items 0, 1, 2 settle
        # on the grids of 128, 512 and 2048 nodes
        from szegodet.direct import _refine

        settle = np.array([64, 256, 1024])
        runs = []  # per run: the items, its grids, prev and the factors returned

        def evaluate(idx, sizes, prev):
            factors = (100.0 * len(runs) + idx, None)  # one factor per item
            runs.append((idx.tolist(), sizes, prev, factors))
            return ([np.where(N < settle[idx], 1.0 / N, 0.0)[:, None] for N in sizes],
                    "qr_positive", factors)

        rows, N, method = _refine(evaluate, 3, 64)
        assert N == 2048 and method == "qr_positive" and not rows.any()
        assert [(idx, sizes) for idx, sizes, _, _ in runs] == [
            ([0, 1, 2], (64, 128)), ([1, 2], (256,)), ([1, 2], (512,)), ([2], (1024,)),
            ([2], (2048,))]
        assert runs[0][2] is None
        for (held, _, _, returned), (idx, _, prev, _) in zip(runs, runs[1:]):
            if idx == held:  # no item has left: the very factors of the last run
                assert prev is returned
            else:
                at = np.searchsorted(held, idx)
                assert np.array_equal(prev[0], returned[0][at]) and prev[1] is None


def _phase_prefix_reference(C):
    """log det C_j, j = 1..n, by the unblocked rank-1 elimination loop."""
    from szegodet.errors import ZeroDeterminant

    C = np.array(C)
    n = len(C)
    piv = np.empty(n, dtype=complex)
    for k in range(n):
        p = C[k, k]
        if not abs(p) > 0:
            raise ZeroDeterminant("a leading minor of the phase factor vanished")
        piv[k] = p
        C[k + 1 :, k + 1 :] -= np.outer(C[k + 1 :, k] / p, C[k, k + 1 :])
    return np.cumsum(np.log(piv))


class TestPhasePrefix:
    """The blocked elimination of the phase factor against the rank-1 loop."""

    @pytest.mark.parametrize("n", [40, 120, 200])
    def test_matches_rank_one_loop(self, n):
        from szegodet.direct import _phase_prefix

        # C = Q^t diag(e^{i Im g}) conj(Q) with max |Im g| = 1.4 < pi/2
        rng = np.random.default_rng(n)
        N = 3 * n
        A = rng.standard_normal((N, n)) + 1j * rng.standard_normal((N, n))
        Q = np.linalg.qr(A)[0]
        theta = 2 * np.pi * np.arange(N) / N
        unit = np.exp(1.4j * np.sin(3 * theta + 0.5))
        C = (Q.T * unit) @ Q.conj()
        before = C.copy()
        got, ref = _phase_prefix(C), _phase_prefix_reference(C)
        assert np.array_equal(C, before)  # the factor is left as it was
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("k", [0, 5, 31, 32, 40, 70])
    def test_zero_pivot_in_any_block(self, k):
        # C = L U with integer entries and unit pivots except U_kk = 0:
        # elimination is exact, so leading minor k + 1 vanishes exactly,
        # inside the first block of 32 columns or a later one
        from szegodet.direct import _phase_prefix
        from szegodet.errors import ZeroDeterminant

        rng = np.random.default_rng(k)
        n = 80
        L = np.tril(rng.integers(-2, 3, (n, n)), -1) + np.eye(n)
        U = np.triu(rng.integers(-2, 3, (n, n)), 1) + np.eye(n)
        U[k, k] = 0
        C = (L @ U).astype(complex)
        for prefix in (_phase_prefix, _phase_prefix_reference):
            with pytest.raises(ZeroDeterminant):
                prefix(C)
        U[k, k] = 1  # the same matrix with every pivot 1: log det C_j = 0
        C = (L @ U).astype(complex)
        assert np.all(_phase_prefix(C) == 0)


class TestNestedLadder:
    """Every grid after the first extends the previous grid's factors."""

    SYMS = {
        "real": symbol_from_coefficients(0.3, [0.4, 0.1], [0.2]),
        "complex": symbol_from_coefficients(0.2, [0.3, 0.1j, -0.05], [0.2j, 0.1]),
    }

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("name", ["circle", "qcurve", "wobbly", "slow"])
    def test_extension_matches_fresh_qr(self, request, name, kind):
        # N0 -> 2 N0 -> 4 N0 by extension against a first-grid QR on all
        # the nodes of each grid: every log D_j, and on the phase path
        # every leading log det of the phase factor
        from szegodet.direct import _phase_prefix, _start_N

        mp = request.getfixturevalue(name)
        sym = self.SYMS[kind]
        stack = np.array([mp.phi0]), mp.tail[None]
        n = 200
        factors = None
        for N in (_start_N(n), 2 * _start_N(n), 4 * _start_N(n)):
            g = theta_values(sym, 2 * np.pi * np.arange(N) / N)
            (nested,), method, factors = _grid_prefix(*stack, [g], n, factors)
            (fresh,), fresh_method, (_, C) = _grid_prefix(*stack, [g], n)
            assert method == fresh_method == ("qr_phase" if kind == "complex" else "qr_positive")
            assert np.all(np.abs(nested - fresh) <= 1e-12 * np.maximum(1.0, np.abs(fresh)))
            if kind == "complex":
                got, want = _phase_prefix(factors[1][0]), _phase_prefix(C[0])
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
                assert np.max(np.abs(want)) > 1e-3  # the phase is not trivial
            else:
                assert factors[1] is None and C is None

    @pytest.mark.parametrize("N", [64, 88, 264, 121, 250])
    def test_one_pass_rows_match_separate_passes(self, wobbly, slow, N):
        # the first grid's Faber run over the N nodes and the N odd nodes of
        # the 2N grid: its rows of either grid equal a run over that grid's
        # nodes alone, bit for bit once N is a multiple of 4 (the rows of a
        # BLAS matrix-vector kernel block, as every automatic grid is);
        # otherwise the last rows of a block may round by the last bits
        from szegodet.direct import _faber_basis, _odd_points
        from szegodet.series import _phi_at, _unit_points

        for mp in (wobbly, slow):
            stack = np.array([mp.phi0]), mp.tail[None]
            even, odd = _unit_points(N), _odd_points(2 * N)
            both = _faber_basis(*stack, _phi_at(*stack, np.concatenate([even, odd]), 0), 60)
            for rows, z in ((both[:, :N], even), (both[:, N:], odd)):
                alone = _faber_basis(*stack, _phi_at(*stack, z, 0), 60)
                if N % 4 == 0:
                    assert np.array_equal(rows, alone)
                else:
                    assert np.max(np.abs(rows - alone)) <= 1e-14 * np.max(np.abs(alone))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("name", ["circle", "qcurve", "wobbly", "slow"])
    def test_first_grid_matches_numpy_qr(self, request, name, kind):
        # a first grid is one tpqrt onto R = 0: against numpy's Householder
        # QR of the same scaled basis, every |R_jj| to 1e-13 relative, and
        # on the phase path every leading log det of the phase factor
        # Q^t diag(e^{i Im g}) conj(Q) built from numpy's Q
        from szegodet.direct import _faber_basis, _phase_prefix, _start_N
        from szegodet.series import _phi_at, _unit_points

        mp = request.getfixturevalue(name)
        stack = np.array([mp.phi0]), mp.tail[None]
        n = 200
        N = _start_N(n)
        z = _unit_points(N)
        g = theta_values(self.SYMS[kind], 2 * np.pi * np.arange(N) / N)
        (logdets,), method, (R, C) = _grid_prefix(*stack, [g], n)
        scale = np.sqrt(np.abs(_phi_at(*stack, z, 1)[0]) * np.exp(g.real))
        Q, R_ref = np.linalg.qr(_faber_basis(*stack, _phi_at(*stack, z, 0), n)[0] * scale[:, None])
        got, want = np.abs(np.diagonal(R[0])), np.abs(np.diagonal(R_ref))
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        ref = 2 * np.cumsum(np.log(want * np.sqrt(2 * np.pi / N))).astype(complex)
        if kind == "complex":
            phase = _phase_prefix_reference((Q.T * np.exp(1j * g.imag)) @ Q.conj())
            got = _phase_prefix(C[0])
            assert np.all(np.abs(got - phase) <= 1e-12 * np.maximum(1.0, np.abs(phase)))
            assert np.max(np.abs(phase)) > 1e-3  # the phase is not trivial
            ref += phase
        else:
            assert method == "qr_positive" and C is None
        assert np.all(np.abs(logdets[0] - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("name", ["circle", "qcurve", "wobbly", "slow"])
    def test_two_grid_run_matches_a_grid_and_its_extension(self, request, name, kind):
        # one run over the N and 2N grids, one Faber pass for both, against
        # a run of the N grid and a run of the 2N grid that extends it: the
        # same bits in every log D_j, R and C (N a multiple of 4), and on
        # the 4N grid that extends either
        from szegodet.direct import _start_N

        mp = request.getfixturevalue(name)
        stack = np.array([mp.phi0]), mp.tail[None]
        n = 200
        N = _start_N(n)
        g = [theta_values(self.SYMS[kind], 2 * np.pi * np.arange(M) / M) for M in (N, 2 * N, 4 * N)]
        both, method, factors = _grid_prefix(*stack, g[:2], n)
        one, one_method, one_factors = _grid_prefix(*stack, g[:1], n)
        ext, ext_method, ext_factors = _grid_prefix(*stack, g[1:2], n, one_factors)
        assert method == one_method == ext_method
        assert len(both) == 2 and len(one) == len(ext) == 1
        assert np.array_equal(both[0], one[0]) and np.array_equal(both[1], ext[0])
        for x, y in zip(factors, ext_factors):
            assert (x is None and y is None) or np.array_equal(x, y)
        assert (factors[1] is None) == (kind == "real")
        third = _grid_prefix(*stack, g[2:], n, factors)[0]
        assert np.array_equal(third, _grid_prefix(*stack, g[2:], n, ext_factors)[0])

    def test_ladder_runs_one_faber_pass_for_two_grids(self, wobbly, monkeypatch):
        # a ladder of G grids runs G - 1 Faber passes, the first over 2 N0
        # nodes; an energy ladder whose stack does not fit one block runs
        # one such pass per block of its stack
        import szegodet.direct as direct_mod
        from szegodet.direct import _start_N

        passes = []
        faber = direct_mod._faber_basis

        def spy(phi0, tail, zeta, n):
            passes.append(zeta.shape)
            return faber(phi0, tail, zeta, n)

        monkeypatch.setattr(direct_mod, "_faber_basis", spy)
        seen = self._spy(monkeypatch, push=True)  # three grids or more
        log_det_range(wobbly, self.SYMS["complex"], 4, 12)
        N0 = _start_N(12)
        assert len(seen) >= 3 and len(passes) == len(seen) - 1
        assert passes == [(1, 2 * N0)] + [(1, 2**k * N0 // 2) for k in range(2, len(seen))]
        for count in (3, 60):
            passes.clear()
            seen.clear()
            finite_energy(wobbly, 5, np.linspace(1.5, 3.0, count))
            N0 = _start_N(5)
            block = min(count, direct_mod._STACK_ENTRIES // (2 * N0 * 5))
            blocks = [min(block, count - lo) for lo in range(0, count, block)]
            assert passes[: len(blocks)] == [(b, 2 * N0) for b in blocks]

    @staticmethod
    def _spy(monkeypatch, push=False):
        """Record (N, method, whether it extends a grid) per evaluated grid;
        with push, the top row is off by 1/N on every grid below 1000 nodes."""
        import szegodet.direct as direct_mod

        seen = []
        grid_prefix = direct_mod._grid_prefix

        def grid(phi0, tail, gs, n, prev=None):
            logdets, method, factors = grid_prefix(phi0, tail, gs, n, prev)
            for i, (g, x) in enumerate(zip(gs, logdets)):
                seen.append((len(g), method, prev is not None or i > 0))
                if push and len(g) < 1000:
                    x[:, -1] += 1.0 / len(g)
            return logdets, method, factors

        monkeypatch.setattr(direct_mod, "_grid_prefix", grid)
        return seen

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_one_decision_per_ladder(self, wobbly, kind, monkeypatch):
        from szegodet.direct import _start_N

        seen = self._spy(monkeypatch, push=True)  # a ladder of three grids or more
        rows = log_det_range(wobbly, self.SYMS[kind], 4, 12)
        method = "qr_phase" if kind == "complex" else "qr_positive"
        assert len(seen) >= 3 and rows[0].method == method
        assert seen == [(_start_N(12) * 2**k, method, k > 0) for k in range(len(seen))]

    @pytest.mark.parametrize("N", [160, 161])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_explicit_N_at_the_cap(self, wobbly, kind, N, monkeypatch):
        # 2N past the cap: the N // 2 grid is evaluated first and extended
        # to N (a fresh grid when N is odd); each row keeps the value of
        # the N grid and the flag of its N vs N // 2 agreement
        import szegodet.direct as direct_mod

        sym = self.SYMS[kind]
        fine = _fixed_grid_values(wobbly, sym, 4, 20, N)
        coarse = _fixed_grid_values(wobbly, sym, 4, 20, N // 2)
        monkeypatch.setattr(direct_mod, "N_CAP", 256)
        seen = self._spy(monkeypatch)
        rows = direct_mod.log_det_range(wobbly, sym, 4, 20, N=N)
        method = rows[0].method
        assert method == ("qr_phase" if kind == "complex" else "qr_positive")
        assert seen == [(N // 2, method, False), (N, method, N % 2 == 0)]
        flags = [r.converged for r in rows]
        assert flags == list(np.abs(fine - coarse) <= 1e-8)
        assert flags[0] and not flags[-1]
        for r, v in zip(rows, fine):
            assert r.N_nodes == N
            assert abs(r.log_Dn - v) <= 1e-12 * max(1.0, abs(v))

    @pytest.mark.parametrize("N, nodes", [
        pytest.param(160, [160], id="even"),
        pytest.param(161, [80, 161], id="odd"),
    ])
    def test_explicit_N_at_the_cap_passes(self, wobbly, N, nodes, monkeypatch):
        # an even N runs the N // 2 and N grids as one run, one Faber pass
        # over the N // 2 nodes and the N // 2 odd ones; an odd N runs each
        # grid as a ladder of its own
        import szegodet.direct as direct_mod

        passes = []
        faber = direct_mod._faber_basis

        def spy(phi0, tail, zeta, n):
            passes.append(zeta.shape[-1])
            return faber(phi0, tail, zeta, n)

        monkeypatch.setattr(direct_mod, "N_CAP", 256)
        monkeypatch.setattr(direct_mod, "_faber_basis", spy)
        direct_mod.log_det_range(wobbly, self.SYMS["complex"], 4, 20, N=N)
        assert passes == nodes
