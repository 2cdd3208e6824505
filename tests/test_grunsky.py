import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from szegodet import (
    dilate_map,
    grunsky_coefficients,
    make_map,
    operators,
    spectral_report,
    suggest_truncation,
    takagi,
)
from szegodet.errors import (
    DilationNotGreaterThanOne,
    NotSymmetric,
    SingularValueAtOne,
)
from szegodet import grunsky
from szegodet.grunsky import GrunskyTable, OperatorPair, _kappa, _lanczos_top, table_to_csv

from conftest import q_energy_limit
from laurent import LaurentSeries, laurent_mul
from oracles import AliasingDetected, BranchJumpDetected, grunsky_coefficients_sampled


def rotated(mp, omega):
    """Exterior-map data of e^{i omega} times the curve."""
    k = np.arange(1, len(mp.tail) + 1)
    return make_map(mp.cap, np.exp(1j * omega) * mp.phi0,
                    np.exp(1j * (k + 1) * omega) * mp.tail)


def rotated_symbol(sym, omega):
    """Symbol transported with the rotated curve: a shift theta -> theta - omega.

    The rotated parametrization passes the same curve point at theta + omega,
    so the composed samples shift and the Fourier pairs rotate blockwise.
    """
    from szegodet.symbol import symbol_from_coefficients

    k = np.arange(1, sym.K_max + 1)
    c, s = np.cos(k * omega), np.sin(k * omega)
    return symbol_from_coefficients(
        sym.a0, c * sym.a - s * sym.b, s * sym.a + c * sym.b
    )


def faber_reference(mp, size):
    """The Faber recurrence on truncated Laurent products, O(size**3).

    Each step convolves u_n with phi - phi0 in full, subtracts
    t_j u_{n-j} for every j < n and reimposes the monic top and the zero
    powers; an independent layout of the recurrence in the library.
    """
    W = max(3 * size, len(mp.tail))
    tail = np.zeros(W, dtype=complex)
    tail[: len(mp.tail)] = mp.tail
    phi_m0 = LaurentSeries(1, np.r_[1.0, 0.0, tail].astype(complex), W)
    a = np.zeros((size, size), dtype=complex)
    u_list = [phi_m0]
    for n in range(1, size + 1):
        u_n = u_list[-1]
        a[n - 1] = u_n.coeffs[n + 1:n + 1 + size] / n  # z**-1 .. z**-size
        if n == size:
            break
        nxt = np.array(laurent_mul(phi_m0, u_n).coeffs)
        for j in range(1, n):
            p = u_list[n - j - 1].coeffs
            nxt[j + 1:j + 1 + len(p)] -= tail[j - 1] * p
        nxt[: n + 2] = 0.0
        nxt[0] = 1.0
        u_list.append(LaurentSeries(n + 1, nxt, W))
    return 0.5 * (a + a.T)


def mpmath_recurrence(mp, size, dps=60):
    """a_{kl} for k, l <= size at dps digits, straight from the identity

        k a_kl = k t_{k+l-1} + sum_{p<k, q<l} t_{p+q-1} (k-p) a_{k-p,l-q},

    summing every (p, q) and every entry, zero or not."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        t = [mpmath.mpc(0)] + [mpmath.mpc(complex(v)) for v in mp.tail]
        tj = lambda j: t[j] if j < len(t) else 0  # noqa: E731
        a = [[mpmath.mpc(0)] * (size + 1) for _ in range(size + 1)]
        for k in range(1, size + 1):
            for el in range(1, size + 1):
                s = k * tj(k + el - 1)
                for p in range(1, k):
                    for q in range(1, min(el, len(t) + 1 - p)):
                        s += tj(p + q - 1) * (k - p) * a[k - p][el - q]
                a[k][el] = s / k
        return np.array([[complex(v) for v in row[1:]] for row in a[1:]])


def table_to_csv_reference(table):
    lines = ["k,l,re_a,im_a"]
    for k in range(table.m):
        for el in range(table.m):
            v = table.a[k, el]
            lines.append(f"{k + 1},{el + 1},{v.real:.17g},{v.imag:.17g}")
    return "\n".join(lines) + "\n"


def random_symmetric_contraction(rng, m, norm=0.9):
    A = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    A = 0.5 * (A + A.T)
    return A * (norm / np.linalg.svd(A, compute_uv=False)[0])


class TestGrunskyCoefficients:
    def test_circle_zero(self, circle):
        t = grunsky_coefficients(circle, 6)
        assert np.max(np.abs(t.a)) == 0.0

    def test_q_closed_form(self, qcurve):
        t = grunsky_coefficients(qcurve, 8)
        k = np.arange(1, 9)
        assert np.max(np.abs(t.a - np.diag(0.5**k / k))) <= 1e-14

    def test_translation_invariance(self, qcurve):
        t0 = grunsky_coefficients(qcurve, 8)
        t1 = grunsky_coefficients(make_map(1.0, 1.0 + 2.0j, [0.5]), 8)
        assert np.max(np.abs(t0.a - t1.a)) <= 1e-12

    def test_symmetry_defect_recorded(self, wobbly):
        t = grunsky_coefficients(wobbly, 12)
        assert np.max(np.abs(t.a - t.a.T)) == 0.0
        assert t.asym_defect <= 1e-10

    @pytest.mark.parametrize("curve", ["wobbly", "slow"])
    @pytest.mark.parametrize("m", [12, 256, 512])
    def test_matches_reference_recurrence(self, request, curve, m):
        mp = request.getfixturevalue(curve)
        t = grunsky_coefficients(mp, m)
        ref = faber_reference(mp, m)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(t.a - ref)) <= 1e-14 * scale
        assert t.asym_defect <= 1e-14

    def test_long_tail(self):
        # a tail longer than 3 * size sets the reference's working truncation
        mp = make_map(1.0, 0.1j, [0.2, 0.0, 0.05j] + [0.0] * 40 + [1e-4])
        ref = faber_reference(mp, 8)
        assert np.max(np.abs(grunsky_coefficients(mp, 8).a - ref)) <= 1e-15

    @pytest.mark.parametrize("curve", ["wobbly", "slow"])
    def test_matches_mpmath_recurrence(self, request, curve):
        mp = request.getfixturevalue(curve)
        ref = mpmath_recurrence(mp, 64)
        for m in range(48, 65):
            a, r = grunsky_coefficients(mp, m).a, ref[:m, :m]
            nz = r != 0
            assert np.max(np.abs(a[nz] - r[nz]) / np.abs(r[nz])) <= 1e-14, m

    # one tail per degree: one-entry rows (degree 1), BLAS axpy rows from
    # k = 5 on (degree 2), and 64 rows of the short-row branch k <= d**2
    # before the axpy rows (degree 8)
    MPMATH_TAILS = {
        1: ([0.6 * np.exp(0.3j)], 64),
        2: ([0.2 + 0.1j, 0.15j], 64),
        8: ([0.05, 0.02j, -0.03, 0.01 + 0.01j, 0.0, 0.02j, -0.01, 0.04 * np.exp(1.1j)], 80),
    }

    @pytest.mark.parametrize("degree", [1, 2, 8])
    def test_matches_mpmath_recurrence_by_degree(self, degree):
        tail, size = self.MPMATH_TAILS[degree]
        mp = make_map(1.0, 0.1 - 0.2j, tail)
        ref = mpmath_recurrence(mp, size)
        a = grunsky_coefficients(mp, size).a
        nz = ref != 0
        assert np.count_nonzero(a[nz]) == np.count_nonzero(nz) >= size
        assert np.max(np.abs(a[nz] - ref[nz]) / np.abs(ref[nz])) <= 1e-14

    @pytest.mark.parametrize("curve", ["circle", "qcurve", "wobbly", "slow", "long"])
    def test_zero_wedge(self, request, curve):
        if curve == "long":
            mp = make_map(1.0, 0.1j, [0.2, 0.0, 0.05j] + [0.0] * 40 + [1e-4])
        else:
            mp = request.getfixturevalue(curve)
        nz = np.flatnonzero(mp.tail)
        d = nz[-1] + 1 if nz.size else 0
        a = grunsky_coefficients(mp, 512).a
        k = np.arange(1, 513)
        wedge = np.maximum.outer(k, k) > d * np.minimum.outer(k, k)
        assert np.all(a[wedge] == 0.0)
        assert not np.any(np.signbit(a[wedge].view(float)))

    def test_q_closed_form_m512(self):
        q = 0.93
        t = grunsky_coefficients(make_map(1.0, 0.0, [q]), 512)
        k = np.arange(1, 513)
        assert np.max(np.abs(t.a - np.diag(q**k / k))) <= 1e-14


class TestSampledRoute:
    def test_circle_zero(self, circle):
        t = grunsky_coefficients_sampled(circle, 6, radius=2.0)
        assert np.max(np.abs(t.a)) <= 1e-12

    def test_matches_faber(self, qcurve):
        t_faber = grunsky_coefficients(qcurve, 8)
        t_samp = grunsky_coefficients_sampled(qcurve, 8, radius=2.0)
        assert np.max(np.abs(t_faber.a - t_samp.a)) <= 1e-8

    def test_matches_faber_wobbly(self, wobbly):
        t_faber = grunsky_coefficients(wobbly, 10)
        t_samp = grunsky_coefficients_sampled(wobbly, 10, radius=1.6)
        assert np.max(np.abs(t_faber.a - t_samp.a)) <= 1e-8

    def test_aliasing_detected_on_coarse_grid(self, qcurve):
        with pytest.raises(AliasingDetected):
            grunsky_coefficients_sampled(qcurve, 8, radius=1.001, grid=32)

    def test_branch_jump_detected(self):
        from szegodet.series import _unchecked_map

        # z + 1.5/z is not univalent; on a tight torus the log ratio winds
        # around the origin and the principal branch jumps
        bad = _unchecked_map(1.0, 0.0, [1.5])
        with pytest.raises(BranchJumpDetected):
            grunsky_coefficients_sampled(bad, 4, radius=1.1)


class TestOperators:
    def test_q_diagonal(self, qcurve):
        pair = operators(grunsky_coefficients(qcurve, 8))
        k = np.arange(1, 9)
        assert np.allclose(np.diag(pair.B), 0.5**k)
        assert np.max(np.abs(pair.B - np.diag(np.diag(pair.B)))) == 0.0

    def test_circle_zero(self, circle):
        pair = operators(grunsky_coefficients(circle, 4))
        assert np.max(np.abs(pair.B)) == 0.0
        assert np.max(np.abs(pair.K)) == 0.0

    def test_imaginary_diagonal_blocks(self):
        # table i*q^k on the diagonal: B1 = 0, B2 diagonal, K has zero
        # diagonal blocks
        from szegodet.grunsky import GrunskyTable

        q = 0.4
        k = np.arange(1, 6)
        tab = GrunskyTable(5, np.diag(1j * q**k / k))
        pair = operators(tab)
        assert np.max(np.abs(pair.B.real)) == 0.0
        assert np.allclose(np.diag(pair.B.imag), q**k)
        m = 5
        assert np.max(np.abs(pair.K[:m, :m])) == 0.0
        assert np.max(np.abs(pair.K[m:, m:])) == 0.0

    def test_grunsky_inequality_random_vectors(self, qcurve, wobbly):
        rng = np.random.default_rng(3)
        for mp in (qcurve, wobbly):
            pair = operators(grunsky_coefficients(mp, 16))
            rep = spectral_report(pair)
            assert rep.kappa_hat < 1.0
            for _ in range(20):
                w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
                w /= np.linalg.norm(w)
                assert np.linalg.norm(pair.B @ w) <= rep.kappa_hat + 1e-10


class TestTakagi:
    def test_diagonal(self):
        f = takagi(np.diag([0.5, 0.25]).astype(complex))
        assert np.allclose(f.lam, [0.5, 0.25])
        assert np.allclose(f.U, np.eye(2))

    def test_offdiagonal_pair(self):
        B = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
        f = takagi(B)
        assert np.allclose(f.lam, [0.3, 0.3])
        assert f.residual <= 1e-10
        assert np.max(np.abs(f.U @ f.U.conj().T - np.eye(2))) <= 1e-10

    def test_random_against_svd(self):
        rng = np.random.default_rng(11)
        B = random_symmetric_contraction(rng, 12)
        f = takagi(B)
        sv = np.linalg.svd(B, compute_uv=False)
        assert f.residual <= 1e-9
        assert np.max(np.abs(f.lam - sv)) <= 1e-9
        assert np.max(np.abs(f.U @ f.U.conj().T - np.eye(12))) <= 1e-10
        assert np.all(np.diff(f.lam) <= 0) and np.all(f.lam >= 0)

    def test_k_eigenvalues_match(self):
        from szegodet.grunsky import _k_matrix

        rng = np.random.default_rng(5)
        B = random_symmetric_contraction(rng, 9)
        f = takagi(B)
        w = np.sort(np.linalg.eigvalsh(_k_matrix(B)))
        expect = np.sort(np.concatenate([f.lam, -f.lam]))
        assert np.max(np.abs(w - expect)) <= 1e-9

    def test_rank_deficient(self):
        # rank-1 complex symmetric: u u^t has a large kernel
        rng = np.random.default_rng(9)
        u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        B = 0.3 * np.outer(u, u) / np.linalg.norm(u) ** 2
        f = takagi(B)
        assert f.residual <= 1e-10
        assert np.max(np.abs(f.U @ f.U.conj().T - np.eye(6))) <= 1e-10

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            takagi(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_empty(self):
        f = takagi(np.zeros((0, 0), dtype=complex))
        assert f.U.shape == (0, 0) and f.lam.shape == (0,) and f.residual == 0.0

    def test_pairing_curve(self, pairing):
        # the +/- pairs of K eigenvalues straddle 1e-13 here; the SVD route
        # never forms K
        f = takagi(operators(grunsky_coefficients(pairing, 32)).B)
        assert f.residual <= 1e-12
        assert np.max(np.abs(f.U @ f.U.conj().T - np.eye(32))) <= 1e-13

    @pytest.mark.parametrize("m", [128, 512])
    @pytest.mark.parametrize("curve", ["wobbly", "slow"])
    def test_fixture_at_scale(self, request, curve, m):
        B = operators(grunsky_coefficients(request.getfixturevalue(curve), m)).B
        f = takagi(B)
        sv = np.linalg.svd(B, compute_uv=False)
        sv[sv <= 1e-13 * max(1.0, sv[0])] = 0.0
        assert f.residual <= 1e-12
        assert np.max(np.abs(f.U @ f.U.conj().T - np.eye(m))) <= 1e-13
        assert np.max(np.abs(f.lam - sv)) <= 1e-14

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_degenerate_cluster(self, size):
        rng = np.random.default_rng(size)
        m = 10
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        s = np.concatenate([[0.8], np.full(size, 0.5), np.linspace(0.3, 0.1, m - 1 - size)])
        f = takagi((Q * s) @ Q.T)
        assert f.residual <= 1e-13
        assert np.max(np.abs(f.U @ f.U.conj().T - np.eye(m))) <= 1e-13
        assert np.max(np.abs(f.lam - s)) <= 1e-14

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_negative_eigenvalue(self, seed):
        # real symmetric B = O diag(s) O^t: on the -0.4 cluster Z is close to
        # -I, and rounding may put its eigenvalues on both sides of -1
        rng = np.random.default_rng(seed)
        O, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s = np.array([-0.6, -0.4, -0.4, -0.4, 0.2, 0.1])
        f = takagi(((O * s) @ O.T).astype(complex))
        assert f.residual <= 1e-13
        assert np.max(np.abs(f.U @ f.U.conj().T - np.eye(6))) <= 1e-13
        assert np.max(np.abs(f.lam - np.abs(s))) <= 1e-14


class TestSpectralReport:
    def test_circle_all_zero(self, circle):
        rep = spectral_report(operators(grunsky_coefficients(circle, 8)))
        assert rep.log_det_IplusK == 0.0
        assert rep.szego_energy == 0.0
        assert rep.hs_norm_sq == 0.0
        assert rep.kappa_hat == 0.0

    def test_q_energy_product_oracle(self, qcurve):
        rep = spectral_report(operators(grunsky_coefficients(qcurve, 32)))
        assert rep.log_det_IminusBstarB == pytest.approx(-2 * q_energy_limit(0.5), abs=1e-9)
        assert rep.szego_energy == pytest.approx(q_energy_limit(0.5), abs=1e-9)
        assert rep.kappa_hat == pytest.approx(0.5, abs=1e-12)

    def test_det_identity(self, wobbly):
        rep = spectral_report(operators(grunsky_coefficients(wobbly, 20)))
        assert abs(rep.log_det_IplusK - rep.log_det_IminusBstarB) <= 1e-9

    def test_singular_value_at_one(self):
        from szegodet.grunsky import GrunskyTable

        tab = GrunskyTable(2, np.diag([1.0, 0.25]).astype(complex))
        with pytest.raises(SingularValueAtOne):
            spectral_report(operators(tab))

    def test_rotation_leaves_singular_values(self, wobbly):
        rep0 = spectral_report(operators(grunsky_coefficients(wobbly, 12)))
        rep1 = spectral_report(operators(grunsky_coefficients(rotated(wobbly, 0.7), 12)))
        assert rep0.kappa_hat == pytest.approx(rep1.kappa_hat, abs=1e-10)
        assert rep0.szego_energy == pytest.approx(rep1.szego_energy, abs=1e-10)

    @pytest.mark.parametrize("curve", ["wobbly", "slow"])
    def test_against_k_eigenvalues_m256(self, request, curve):
        # the singular values of B are the upper half of the spectrum of K
        pair = operators(grunsky_coefficients(request.getfixturevalue(curve), 256))
        rep = spectral_report(pair)
        lam = np.linalg.eigvalsh(pair.K)[256:]
        assert rep.kappa_hat == pytest.approx(lam[-1], abs=1e-12)
        assert rep.log_det_IminusBstarB == pytest.approx(np.sum(np.log1p(-lam**2)), abs=1e-12)
        assert abs(rep.log_det_IplusK - rep.log_det_IminusBstarB) <= 1e-10
        assert rep.szego_energy == -0.5 * rep.log_det_IminusBstarB

    @pytest.mark.parametrize("curve", ["slow", "q093"])
    def test_log_det_from_cholesky_m512(self, request, curve):
        # the diagonal of the Cholesky factor of I + K against the eigenvalues of K
        mp = make_map(1.0, 0.0, [0.93]) if curve == "q093" else request.getfixturevalue(curve)
        pair = operators(grunsky_coefficients(mp, 512))
        x = float(np.sum(np.log1p(np.linalg.eigvalsh(pair.K))))
        assert abs(spectral_report(pair).log_det_IplusK - x) <= 1e-12 * max(1.0, abs(x))

    def test_empty_table(self):
        rep = spectral_report(operators(GrunskyTable(0, np.zeros((0, 0), dtype=complex))))
        assert rep.log_det_IplusK == 0.0 and rep.kappa_hat == 0.0
        assert rep.log_det_IminusBstarB == 0.0 and rep.szego_energy == 0.0

    def test_curve_where_takagi_pairing_fails(self, pairing):
        pair = operators(grunsky_coefficients(pairing, 32))
        rep = spectral_report(pair)
        assert rep.kappa_hat == pytest.approx(np.linalg.eigvalsh(pair.K)[-1], abs=1e-12)
        assert abs(rep.log_det_IplusK - rep.log_det_IminusBstarB) <= 1e-12

    @pytest.mark.parametrize("curve", ["wobbly", "slow"])
    def test_delta_m_tail_matches_edge_mask(self, request, curve):
        from szegodet.grunsky import _DELTA_EPS, delta_m_tail

        B = operators(grunsky_coefficients(request.getfixturevalue(curve), 256)).B
        # the masked m x m formula the edge gather replaces
        k = np.arange(1, 257, dtype=float)
        kl = np.outer(k, k) ** (2.0 + _DELTA_EPS)
        edge = np.zeros((256, 256), dtype=bool)
        edge[-1, :] = True
        edge[:, -1] = True
        assert delta_m_tail(B) == float(np.sqrt(np.sum(kl[edge] * np.abs(B[edge]) ** 2)))
        assert delta_m_tail(B[:1, :1]) == float(np.abs(B[0, 0]))
        assert delta_m_tail(B[:0, :0]) == 0.0

    def test_energy_monotone_in_m(self, qcurve):
        energies = [
            spectral_report(operators(grunsky_coefficients(qcurve, m))).szego_energy
            for m in (4, 8, 16, 32)
        ]
        assert all(b >= a for a, b in zip(energies, energies[1:]))
        for m, (a, b) in zip((4, 8, 16), zip(energies, energies[1:])):
            assert b - a <= 0.5 ** (2 * m)


def _spectral_curve(request, name):
    """A conftest fixture, or the ellipse z + q/z for name "q093" / "q099"."""
    if name.startswith("q0"):
        return make_map(1.0, 0.0, [int(name[1:]) / 100])
    return request.getfixturevalue(name)


def _seeded_curve(seed):
    """One of 24 seeded curves near the unit circle, degree 1-5."""
    from test_direct import _near_unit_curve  # test_direct imports this module

    rng = np.random.default_rng([22, seed])
    return _near_unit_curve(rng, float(rng.uniform(0.5, 0.96)), int(rng.integers(1, 6)))


def _rel_err(got, want):
    return abs(got - want) / max(1.0, abs(want))


class TestKappaWithoutSvd:
    """kappa_hat from ``_kappa`` (Lanczos on K from m = 100 on, the dense
    eigenvalues of B^H B below) and log det(I - B*B) from one complex
    Cholesky factor, against the singular values of B."""

    @pytest.mark.parametrize("m", [8, 16, 32, 64, 96, 128, 256, 512])
    @pytest.mark.parametrize("curve", ["qcurve", "wobbly", "slow", "pairing", "q093", "q099"])
    def test_fixtures_against_svdvals(self, request, curve, m):
        # q099 has its top singular values 1 % apart: at m = 128 Lanczos
        # stops at m/2 steps unconverged and the dense route takes over
        B = operators(grunsky_coefficients(_spectral_curve(request, curve), m)).B
        sv = scipy.linalg.svdvals(B)
        rep = spectral_report(OperatorPair(B))
        assert abs(rep.kappa_hat - sv[0]) <= 1e-12 * sv[0]
        assert _rel_err(rep.log_det_IminusBstarB, float(np.sum(np.log1p(-sv**2)))) <= 1e-12

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_curves_against_svdvals(self, seed):
        mp = _seeded_curve(seed)
        for m in (24, 99, 100, 200):  # the dense route up to 99, then Lanczos
            B = operators(grunsky_coefficients(mp, m)).B
            sv = scipy.linalg.svdvals(B)
            assert abs(_kappa(B) - sv[0]) <= 1e-12 * sv[0]

    @pytest.mark.parametrize("m", [1, 2, 9, 40])
    def test_lanczos_to_full_dimension(self, wobbly, m):
        # at step 2m the tridiagonal is K in an orthonormal basis
        B = operators(grunsky_coefficients(wobbly, m)).B
        sv = scipy.linalg.svdvals(B)
        assert abs(_lanczos_top(B, 2 * m) - sv[0]) <= 1e-12 * sv[0]

    @pytest.mark.parametrize("m", [16, 128, 512])
    @pytest.mark.parametrize("curve", ["wobbly", "q093"])
    def test_both_determinants_against_k_eigenvalues(self, request, curve, m):
        pair = operators(grunsky_coefficients(_spectral_curve(request, curve), m))
        rep = spectral_report(pair)
        x = float(np.sum(np.log1p(np.linalg.eigvalsh(pair.K))))
        assert _rel_err(rep.log_det_IplusK, x) <= 1e-12
        assert _rel_err(rep.log_det_IminusBstarB, x) <= 1e-12

    @pytest.mark.parametrize("m", [8, 128, 256])
    def test_zero_operator(self, circle, m):
        # the circle's B = 0: a zero Lanczos step ends the loop at once
        rep = spectral_report(operators(grunsky_coefficients(circle, m)))
        assert rep.kappa_hat == 0.0
        assert rep.log_det_IminusBstarB == 0.0 and rep.log_det_IplusK == 0.0
        assert _lanczos_top(np.zeros((m, m), dtype=complex), m // 2) == 0.0

    @pytest.mark.parametrize("m", [2, 128])
    def test_singular_value_at_one_before_any_cholesky(self, m):
        # I + K and I - B*B are singular too; the guard must speak first
        B = np.diag(np.linspace(1.0, 0.25, m)).astype(complex)
        with pytest.raises(SingularValueAtOne):
            spectral_report(OperatorPair(B))

    @pytest.mark.parametrize("m", [2, 128])
    @pytest.mark.parametrize("top, raises, certified", [
        (1 - 0.95e-10, True, True),
        (1 - 1.05e-10, False, True),  # within 1e-11 below the threshold
        (1 - 2e-10, False, False),  # clears it alone
    ])
    def test_certificate_decides_near_the_threshold(self, monkeypatch, m, top, raises, certified):
        calls = []
        potrf = grunsky._zpotrf
        monkeypatch.setattr(grunsky, "_zpotrf", lambda *a, **kw: calls.append(1) or potrf(*a, **kw))
        B = np.diag(np.linspace(top, 0.25, m)).astype(complex)
        if raises:
            with pytest.raises(SingularValueAtOne):
                _kappa(B)
        else:
            assert _kappa(B) == pytest.approx(top, rel=1e-14)
        assert len(calls) == int(certified)


class TestSzegoEnergy:
    """``szego_energy``: the energy of ``spectral_report`` without its other lines."""

    @pytest.mark.parametrize("curve", ["qcurve", "wobbly", "slow"])
    @pytest.mark.parametrize("m", [8, 128])
    def test_matches_spectral_report(self, request, curve, m):
        pair = operators(grunsky_coefficients(request.getfixturevalue(curve), m))
        assert grunsky.szego_energy(pair) == spectral_report(pair).szego_energy

    @pytest.mark.parametrize("m", [2, 128])
    def test_singular_value_at_one_first(self, m):
        B = np.diag(np.linspace(1.0, 0.25, m)).astype(complex)
        with pytest.raises(SingularValueAtOne):
            grunsky.szego_energy(OperatorPair(B))

    def test_empty_table(self):
        assert grunsky.szego_energy(OperatorPair(np.zeros((0, 0), dtype=complex))) == 0.0


class TestDilatedTable:
    def test_matches_dilated_map(self, qcurve):
        t = grunsky._dilated(grunsky_coefficients(qcurve, 8).a, 2.0)
        t2 = grunsky_coefficients(dilate_map(qcurve, 2.0), 8)
        assert np.max(np.abs(t - t2.a)) <= 1e-14
        k = np.arange(1, 9)
        assert np.allclose(np.diag(t), 0.125**k / k)

    def test_large_r_kills_table(self, wobbly):
        t0 = grunsky_coefficients(wobbly, 6)
        t = grunsky._dilated(t0.a, 1e6)
        assert np.max(np.abs(t)) <= 1e-12 * np.max(np.abs(t0.a))

    def test_circle_stays_zero(self, circle):
        t = grunsky._dilated(grunsky_coefficients(circle, 4).a, 3.0)
        assert np.max(np.abs(t)) == 0.0

    def test_r_validation(self, qcurve):
        with pytest.raises(DilationNotGreaterThanOne):
            grunsky._dilated(grunsky_coefficients(qcurve, 4).a, 0.5)


@pytest.mark.parametrize("curve", ["wobbly", "slow"])
def test_ladder_grows_one_table(monkeypatch, request, a1_sym, curve):
    from szegodet import grunsky, predict

    mp = request.getfixturevalue(curve)
    calls = []
    grow = grunsky._grow

    def spy(tail, a, size):
        calls.append((len(a), size))
        return grow(tail, a, size)

    monkeypatch.setattr(grunsky, "_grow", spy)
    a = predict._ladder(mp, a1_sym, None)[0]
    m = len(a)
    # each rung computes only the entries outside the rung before it
    sizes = [size for _, size in calls]
    assert len(calls) > 2 and sizes[-1] == m
    assert [lead for lead, _ in calls] == [0] + sizes[:-1]
    ref = grunsky_coefficients(mp, m)
    assert a.tobytes() == ref.a.tobytes()
    # wp-check reads the m-table off the 2m-table
    top = grunsky_coefficients(mp, 2 * m).a
    assert top[:m, :m].tobytes() == ref.a.tobytes()


@pytest.mark.parametrize("curve", ["wobbly", "slow"])
def test_table_bitwise_symmetric_m512(request, curve):
    a = grunsky_coefficients(request.getfixturevalue(curve), 512).a
    assert a.tobytes() == a.T.copy().tobytes()


@pytest.mark.parametrize("curve", ["wobbly", "slow"])
def test_ladder_growth_to_512_equals_one_build(request, curve):
    from szegodet.grunsky import _doubling_tables

    mp = request.getfixturevalue(curve)
    tables = _doubling_tables(mp.tail, 8)
    a = next(tables)
    while len(a) < 512:
        assert a.tobytes() == a.T.copy().tobytes()
        a = next(tables)
    assert a.tobytes() == grunsky_coefficients(mp, 512).a.tobytes()


# tails of degree 1..6 whose rows k <= d**2 take shortened zaxpy runs of
# _grow, with leading zeros (t3 only) and a lone high term (t5 only)
EARLY_TAILS = {
    "d1": [0.6 * np.exp(0.3j)],
    "d2": [0.2 + 0.1j, 0.15j],
    "t3_only": [0.0, 0.0, 0.1j],
    "d3": [0.1, -0.05j, 0.08],
    "d4": [0.3, 0.1j, -0.05, 0.02 + 0.02j],
    "t5_only": [0.0, 0.0, 0.0, 0.0, 0.05],
    "d5": [0.15 - 0.05j, 0.0, 0.04j, -0.03, 0.02 + 0.01j],
    "d6": [0.1, 0.05j, -0.03, 0.02 + 0.01j, 0.01j, 0.008 - 0.003j],
}


@pytest.mark.parametrize("name", list(EARLY_TAILS))
def test_grow_matches_mpmath_in_the_early_rows(name):
    tail = np.array(EARLY_TAILS[name], dtype=complex)
    mp = make_map(1.0, 0.1 - 0.2j, tail)
    ref = mpmath_recurrence(mp, 40)
    for m in range(1, 41):
        a = grunsky._grow(mp.tail, np.zeros((0, 0), complex), m)
        r = ref[:m, :m]
        assert np.max(np.abs(a - r)) <= 1e-14 * np.max(np.abs(r)), m
        assert a.tobytes() == a.T.copy().tobytes(), m
        assert not a.flags.writeable
    assert np.count_nonzero(a) == np.count_nonzero(ref) >= 40


@pytest.mark.parametrize("name", ["d4", "t5_only", "d5", "d6"])
def test_ladder_from_every_lead_equals_one_build(name):
    # every lead L inside the early band k <= d**2 (and past it), so a rung
    # starts mid-band as well as at its edge
    tail = np.array(EARLY_TAILS[name], dtype=complex)
    m = 40
    one = grunsky._grow(tail, np.zeros((0, 0), complex), m)
    for lead in range(1, m):
        a = grunsky._grow(tail, grunsky._grow(tail, np.zeros((0, 0), complex), lead), m)
        assert a.tobytes() == one.tobytes(), lead


def test_table_bits_independent_of_blas_threads():
    # library calls keep the caller's BLAS thread count (only the CLI pins
    # one thread), so the BLAS rows of the table must not depend on it: the
    # long runs of degree 4 at m = 512, and at m = 64 a degree-6 tail whose
    # first 36 rows take shortened runs
    src = str(Path(__file__).resolve().parents[1] / "src")
    curves = [((1.3, 0.2 + 0.1j, [0.3, 0.1j, -0.05, 0.02 + 0.02j]), 512),
              ((1.0, 0.1 - 0.2j, [0.1, 0.05j, -0.03, 0.02 + 0.01j, 0.01j, 0.008 - 0.003j]), 64)]
    code = ("import hashlib; from szegodet import make_map, grunsky_coefficients; "
            f"curves = {curves!r}; "
            "print(*(hashlib.sha256(grunsky_coefficients(make_map(*c), m).a.tobytes()).hexdigest() "
            "for c, m in curves))")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout.split())
    here = [hashlib.sha256(grunsky_coefficients(make_map(*c), m).a.tobytes()).hexdigest()
            for c, m in curves]
    assert outs == [here, here]


@pytest.mark.parametrize("curve", ["wobbly", "slow"])
def test_asym_defect_flags_perturbed_last_row(request, curve):
    from szegodet.grunsky import _asym_defect

    mp = request.getfixturevalue(curve)
    table = grunsky_coefficients(mp, 64)
    assert table.asym_defect <= 1e-14
    row = table.a[-1]
    for el in np.flatnonzero(row)[[0, -1]]:
        a = table.a.copy()
        a[-1, el] *= 1.0 + 1e-9
        assert _asym_defect(mp.tail, a) > 1e-10


def test_k_is_the_documented_doubling(wobbly):
    pair = operators(grunsky_coefficients(wobbly, 24))
    B = pair.B
    assert "K" not in pair.__dict__
    assert np.array_equal(pair.K, np.block([[B.real, B.imag], [B.imag, -B.real]]))
    assert not pair.K.flags.writeable
    assert pair.K is pair.K


@pytest.mark.parametrize("curve", ["wobbly", "slow"])
def test_prediction_path_never_builds_k(monkeypatch, request, a1_sym, curve):
    from szegodet import predict

    def fail(B):
        raise AssertionError("K was built")

    monkeypatch.setattr(grunsky, "_k_matrix", fail)
    a = predict._ladder(request.getfixturevalue(curve), a1_sym, None)[0]
    assert len(a) >= 64


@pytest.mark.parametrize("curve, m", [("wobbly", 64), ("slow", 256)])
def test_auto_prediction_runs_no_symmetry_check(monkeypatch, request, a1_sym, curve, m):
    # the m ladder works on the arrays of _grow and the B built from them:
    # no GrunskyTable or OperatorPair check, and no asym_defect
    from szegodet import predict

    def fail(*args):
        raise AssertionError("not on the prediction path")

    monkeypatch.setattr(grunsky, "_symmetric", fail)
    monkeypatch.setattr(grunsky, "_asym_defect", fail)
    out = predict.predict_range(request.getfixturevalue(curve), a1_sym, 10, 12)
    assert [b.m_used for b in out] == [m] * 3


NUDGES = [
    pytest.param(1, 6, lambda v: complex(np.nextafter(v.real, np.inf), v.imag), id="one-ulp"),
    # equal to its mirror as a value, not bit for bit
    pytest.param(0, 5, lambda v: complex(v.real, -0.0), id="signed-zero"),
]


@pytest.mark.parametrize("i, j, nudge", NUDGES)
def test_operator_pair_rejects_nudged_entries(i, j, nudge):
    # GrunskyTable: test_table_csv_not_bitwise_symmetric
    a = _mirrored_specials().a.copy()
    a[i, j] = nudge(a[i, j])
    with pytest.raises(NotSymmetric):
        OperatorPair(a)


def test_symmetric_types_accept_entries_mirrored_by_bits():
    # NaN, infinities and signed zeros, each mirrored by copying its bits
    a = _mirrored_specials().a
    assert np.isnan(a).any() and np.signbit(a.view(float)[a.view(float) == 0]).any()
    assert GrunskyTable(8, a).a.tobytes() == a.tobytes()
    assert OperatorPair(a).B.tobytes() == a.tobytes()
    # a NaN whose mirror has another payload is not its mirror bit for bit
    b = np.array([[0j, complex(np.nan, 0.0)], [complex(np.nan, 0.0), 0j]])
    b.view(np.uint64)[1, 0] ^= np.uint64(1)
    assert np.isnan(b[1, 0]) and b.tobytes() != b.T.copy().tobytes()
    with pytest.raises(NotSymmetric):
        GrunskyTable(2, b)


def test_operator_pair_rejects_asymmetric_b():
    # potrf reads one triangle of I + K: on this B, spectral_report gave
    # log det(I+K) = -0.1748 against slogdet(I+K) = -0.0034, and no error
    rng = np.random.default_rng(1)
    B = 0.05 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    K = np.block([[B.real, B.imag], [B.imag, -B.real]])
    assert np.linalg.slogdet(np.eye(12) + K)[0] == 1.0
    with pytest.raises(NotSymmetric):
        spectral_report(OperatorPair(B))


@pytest.mark.parametrize("source", ["circle", "qcurve", "wobbly", "slow", "pairing"]
                         + [f"seed{s}" for s in range(24)])
def test_library_tables_pass_the_symmetry_check(monkeypatch, request, source):
    mp = (_seeded_curve(int(source[4:])) if source.startswith("seed")
          else request.getfixturevalue(source))
    checked = []
    check = grunsky._symmetric
    monkeypatch.setattr(grunsky, "_symmetric", lambda a: checked.append(len(a)) or check(a))
    sizes = (8, 100, 512)
    for m in sizes:
        operators(grunsky_coefficients(mp, m))  # the table, then B
    assert checked == [m for m in sizes for _ in range(2)]


@pytest.mark.parametrize("curve", ["wobbly", "slow"])
def test_two_column_form_matches_two_solves(request, curve):
    import scipy.linalg

    from szegodet.grunsky import _cholesky
    from szegodet.predict import _solve_form

    mp = request.getfixturevalue(curve)
    rng = np.random.default_rng(4)
    for m in (8, 16, 32, 64, 128, 256, 512):
        cho = _cholesky(operators(grunsky_coefficients(mp, m)).B)
        v = rng.standard_normal(2 * m) + 1j * rng.standard_normal(2 * m)
        # the factor's order interleaves the two blocks of v
        vr, vi = v.real.reshape(2, m).T.ravel(), v.imag.reshape(2, m).T.ravel()
        xr = scipy.linalg.cho_solve(cho, vr, check_finite=False)
        xi = scipy.linalg.cho_solve(cho, vi, check_finite=False)
        ref = complex(vr @ xr - vi @ xi, vr @ xi + vi @ xr)
        assert abs(_solve_form(cho, v) - ref) <= 1e-15 * abs(ref)


@pytest.mark.parametrize("m", [40, 130, 300])
def test_cholesky_of_a_dense_operator(m):
    # a symmetric B with no zeros: every new block is coupled to row 0, so
    # the factor past table size 64 extends its lead by full panels
    from szegodet.grunsky import _cholesky, _k_matrix

    rng = np.random.default_rng(m)
    B = random_symmetric_contraction(rng, m)
    assert np.all(B != 0)
    c, lower = _cholesky(B)
    assert not lower
    lam = np.linalg.eigvalsh(np.eye(2 * m) + _k_matrix(B))
    x = float(np.sum(np.log(lam)))
    assert abs(2.0 * np.sum(np.log(np.diag(c))) - x) <= 1e-12 * abs(x)
    # U^t U is I + K in the interleaved order (x_1, y_1, x_2, y_2, ...)
    U = np.triu(c)
    order = np.arange(2 * m).reshape(2, m).T.ravel()
    IK = (np.eye(2 * m) + _k_matrix(B))[np.ix_(order, order)]
    assert np.max(np.abs(U.T @ U - IK)) <= 1e-14 * m


def test_cholesky_lead_must_be_half_the_size(wobbly):
    from szegodet.grunsky import _cholesky

    B = operators(grunsky_coefficients(wobbly, 256)).B
    with pytest.raises(ValueError):
        _cholesky(B[100:], _cholesky(B[:100, :100]))


def test_suggest_truncation(qcurve, circle):
    assert suggest_truncation(circle) == 16
    m = suggest_truncation(qcurve)
    assert 16 <= m <= 64


def test_suggest_truncation_where_takagi_pairing_fails(pairing):
    m = suggest_truncation(pairing)
    assert 16 <= m <= 64


def test_table_csv_format(qcurve):
    text = table_to_csv(grunsky_coefficients(qcurve, 2))
    lines = text.strip().split("\n")
    assert lines[0] == "k,l,re_a,im_a"
    assert len(lines) == 5
    assert lines[1].startswith("1,1,0.5,")


@pytest.mark.parametrize("curve, m", [
    pytest.param("qcurve", 64, id="qcurve"),
    pytest.param("wobbly", 64, id="wobbly"),
    pytest.param("slow", 64, id="slow"),
    pytest.param("slow", 256, id="slow-256"),
    pytest.param("wobbly", 512, id="wobbly-512"),
])
def test_table_csv_matches_reference(request, curve, m):
    table = grunsky_coefficients(request.getfixturevalue(curve), m)
    assert table_to_csv(table) == table_to_csv_reference(table)


def test_table_csv_special_values():
    from szegodet.grunsky import GrunskyTable

    a = np.array([[-0.0, 1e-300 - 2.5j], [1e-300 - 2.5j, 0.1 + 1j / 3]])
    table = GrunskyTable(2, a)
    assert table_to_csv(table) == table_to_csv_reference(table)
    assert table_to_csv(table).split("\n")[1] == "1,1,-0,0"


def test_table_csv_empty_table():
    from szegodet.grunsky import GrunskyTable

    assert table_to_csv(GrunskyTable(0, np.zeros((0, 0), dtype=complex))) == "k,l,re_a,im_a\n"


def _formatted(monkeypatch):
    """Spy on the formatter: the complex values each dump formats, in order."""
    from szegodet import grunsky

    seen = []
    write = grunsky._write_g17

    def spy(x, out):
        seen.extend(np.ascontiguousarray(x).view(complex).ravel().tolist())
        write(x, out)

    monkeypatch.setattr(grunsky, "_write_g17", spy)
    return seen


def _mirrored_specials():
    """A bitwise-symmetric 8 x 8 table holding +0+0j, -0+0j, +0-0j, NaN,
    infinities, subnormals and near-ties, mirrored by copying bits."""
    from szegodet.grunsky import GrunskyTable

    values = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(np.nan, 1.0),
              complex(np.inf, -np.inf), complex(-np.inf, np.nan), complex(5e-324, -5e-324),
              complex(2.2250738585072014e-308, 1e-310), complex(1e-300, -2.5)]
    values += [complex(v, -v) for v in _near_ties()[:12]]
    m = 8
    iu = np.triu_indices(m)
    upper = np.resize(np.array(values), len(iu[0]))
    upper[::5] = 0j  # more entries that share the zero
    a = np.empty((m, m), dtype=complex)
    a[iu] = upper
    a[iu[1], iu[0]] = upper
    return GrunskyTable(m, a)


def _bits(z):
    return np.array([z]).view(np.uint64).tolist()


def test_table_csv_symmetric_specials(monkeypatch):
    table = _mirrored_specials()
    assert table.a.tobytes() == table.a.T.copy().tobytes()
    seen = _formatted(monkeypatch)
    assert table_to_csv(table) == table_to_csv_reference(table)
    # one +0+0j stands for all of them; the signed zeros keep slots of their own
    formatted = [_bits(z) for z in seen]
    assert formatted.count([0, 0]) == 1
    for z in (complex(-0.0, 0.0), complex(0.0, -0.0)):
        assert _bits(z) in formatted
    assert len(seen) == 1 + sum(_bits(z) != [0, 0] for z in table.a[np.triu_indices(8)])


@pytest.mark.parametrize("i, j, nudge", NUDGES)
def test_table_csv_not_bitwise_symmetric(i, j, nudge):
    # a table that is not its own transpose bit for bit never reaches the dump
    a = _mirrored_specials().a.copy()
    assert np.isfinite(a[i, j])
    a[i, j] = nudge(a[i, j])
    assert a.tobytes() != a.T.copy().tobytes()
    with pytest.raises(NotSymmetric):
        GrunskyTable(8, a)


@pytest.mark.parametrize("i, j, nudge", [
    pytest.param(0, 1, lambda v: complex(v.real, np.nextafter(v.imag, np.inf)), id="one-ulp"),
    # an entry of the zero wedge, equal to its mirror as a value only
    pytest.param(0, 63, lambda v: complex(-0.0, v.imag), id="signed-zero"),
])
def test_table_csv_formats_each_distinct_entry_once(monkeypatch, slow, i, j, nudge):
    m = 64
    table = grunsky_coefficients(slow, m)
    seen = _formatted(monkeypatch)
    assert table_to_csv(table) == table_to_csv_reference(table)
    assert len(seen) <= m * (m + 1) // 2 + 1
    # the zero wedge of a degree-3 curve shares one formatted value
    assert len(seen) < m * (m + 1) // 2
    a = table.a.copy()
    a[i, j] = nudge(a[i, j])
    with pytest.raises(NotSymmetric):
        GrunskyTable(m, a)


def _near_ties():
    """Doubles whose 17-digit scaled value is 1-3 units of 2**-L from a tie.

    x = mant 2**-(k + L) has x 10**k = mant 5**k / 2**L; choosing mant 5**k
    = 2**(L-1) + s (mod 2**L) puts its fraction at 1/2 + s 2**-L.  The
    double-double scaling is accurate to about 1e-15 there, which is why
    near-ties go to '%.17g'.
    """
    out = []
    for k in range(17, 46):
        for L in range(46, 57):
            inv = pow(5**k, -1, 2**L)
            for s in (-3, -2, -1, 1, 2, 3):
                m0 = (2 ** (L - 1) + s) * inv % 2**L
                for t in range(-(-(2**52 - m0) // 2**L), (2**53 - 1 - m0) // 2**L + 1):
                    mant = m0 + t * 2**L
                    if 10**16 <= (mant * 5**k) >> L < 10**17:
                        out.append(mant / 2 ** (k + L))
    return out


def _notation_switch(rng):
    """Values at and next to 1e-5, 1e-4, 1e16 and 1e17, where %g changes notation."""
    out = []
    for e in (-5, -4, 16, 17):
        v = float(f"1e{e}")
        below, above = v, v
        for _ in range(8):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
            out += [below, above]
        out += [v, 9.5 * v / 10, 1.5 * v]
        out += list(10.0 ** rng.uniform(e - 1, e + 1, 2000))
    return out


FLOAT_FAMILIES = {
    "bits": lambda rng: rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
    "magnitudes": lambda rng: (rng.choice([-1.0, 1.0], 100_000)
                               * 10.0 ** rng.uniform(-320, 308, 100_000)),
    "powers_of_ten": lambda rng: [
        w for p in range(-300, 301)
        for v in [float(f"1e{p}")]
        for w in (np.nextafter(v, 0.0), v, np.nextafter(v, np.inf))
    ],
    "quarter_integers": lambda rng: np.ldexp(
        rng.integers(2**52, 2**53, 100_000).astype(float), rng.integers(-2, 1, 100_000)),
    "near_ties": lambda rng: _near_ties(),
    "notation_switch": _notation_switch,
    "special": lambda rng: [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                            2.2250738585072014e-308, 1.7976931348623157e308,
                            -1.7976931348623157e308, 1e-280, 1e280, 0.1, 1.0, 0.5],
}


def _family_table(family):
    """The seeded family in the upper triangle of a table, row by row,
    mirrored by copying bits; zeros past its end."""
    values = np.asarray(FLOAT_FAMILIES[family](np.random.default_rng(7)), dtype=float)
    pairs = -(-len(values) // 2)
    m = int(np.ceil((np.sqrt(8 * pairs + 1) - 1) / 2))  # m (m + 1) / 2 >= pairs
    iu = np.triu_indices(m)
    upper = np.zeros(2 * len(iu[0]))
    upper[:len(values)] = values
    bits = np.zeros((m, m, 2), dtype=np.uint64)
    bits[iu] = upper.view(np.uint64).reshape(-1, 2)
    bits[iu[1], iu[0]] = bits[iu]
    return GrunskyTable(m, bits.view(complex).reshape(m, m))


@pytest.mark.parametrize("family", list(FLOAT_FAMILIES))
def test_table_csv_prints_like_percent_g(family):
    """The words the dump writes for a value, with no table around them:
    each re/im field is '%.17g' % v, on seeded inputs in their own order."""
    values = np.asarray(FLOAT_FAMILIES[family](np.random.default_rng(7)), dtype=float)
    padded = np.zeros(2 * -(-len(values) // 2))
    padded[:len(values)] = values
    words = np.zeros((len(padded) // 2, 8), dtype=np.uint64)
    for start in range(0, len(words), grunsky._CSV_BLOCK):
        end = start + grunsky._CSV_BLOCK
        grunsky._encode(padded.view(complex)[start:end], words[start:end], 0)
    rows = bytes(words).translate(None, b"\0").decode("ascii").split("\n")[:-1]
    got = [field for row in rows for field in row.split(",")]
    want = ["%.17g" % v for v in padded.tolist()]
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(padded.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} fields differ, first: {bad[:3]}"


@pytest.mark.parametrize("family", list(FLOAT_FAMILIES))
def test_table_csv_symmetric_prints_like_percent_g(monkeypatch, family):
    """The family in the upper triangle of a table mirrored bit for bit:
    each distinct value is formatted once, and every field is '%.17g' % v."""
    table = _family_table(family)
    m = table.m
    seen = _formatted(monkeypatch)
    rows = table_to_csv(table).split("\n")[1:-1]
    assert len(seen) <= m * (m + 1) // 2 + 1
    got = [field for row in rows for field in row.split(",")[2:]]
    want = ["%.17g" % v for v in table.a.view(float).ravel().tolist()]
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} fields differ, first: {bad[:3]}"


def _left_to_percent_g(v):
    """Whether the dump may leave v to '%.17g': not finite, |v| outside
    [1e-280, 1e280], or |v| 10**(16 - X) within 2e-6 of a half-integer,
    X the decimal exponent of |v| (exact rational arithmetic)."""
    from fractions import Fraction

    if not np.isfinite(v) or not 1e-280 <= abs(v) <= 1e280:
        return True
    f = Fraction(abs(v))
    X = len(str(f.numerator)) - len(str(f.denominator))
    if Fraction(10) ** X > f:
        X -= 1
    scaled = f * Fraction(10) ** (16 - X)
    return abs(scaled - int(scaled) - Fraction(1, 2)) < 2e-6


@pytest.mark.parametrize("source", ["slow", "wobbly", "quarter_integers", "notation_switch"])
def test_table_csv_percent_g_only_for_what_it_must(request, monkeypatch, source):
    # the tables of the library at m = 256, and values printed with a
    # point inside their digits (quarter-integers from 2**50 to 2**53, with
    # exact ties among them): no other finite value in range takes the
    # slow route
    if source in FLOAT_FAMILIES:
        table = _family_table(source)
    else:
        table = grunsky_coefficients(request.getfixturevalue(source), 256)
    sent = []
    percent_g = grunsky._percent_g

    def spy(v):
        sent.append(float(v))
        return percent_g(v)

    monkeypatch.setattr(grunsky, "_percent_g", spy)
    assert table_to_csv(table) == table_to_csv_reference(table)
    wrong = [v for v in sent if not _left_to_percent_g(v)]
    assert not wrong, f"{len(wrong)} of {len(sent)} values sent to '%.17g', first: {wrong[:3]}"
