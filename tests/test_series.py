import numpy as np
import pytest
import scipy.integrate

from szegodet import (
    curve_samples,
    dilate_map,
    eval_map,
    make_map,
)
from szegodet import series as series_mod
from szegodet.series import (
    SELF_INTERSECT_TOL,
    UNIVALENCE_GRID,
    _phi_at,
    _polyline_self_intersects,
    _rounding_allowance,
    _sampled_checks,
    _segments_cross,
    _tail_certifies,
    _unit_points,
)
from szegodet.errors import (
    CurveSelfIntersects,
    DerivativeVanishes,
    DilationNotGreaterThanOne,
    NonPositiveCapacity,
    OutsideDomain,
)

from laurent import LaurentSeries, MismatchedTruncation, laurent_mul


def series(lead, coeffs, M):
    return LaurentSeries(lead, np.asarray(coeffs, dtype=complex), M)


class TestMakeMap:
    def test_circle_identity(self, circle):
        assert eval_map(circle, 2.0) == pytest.approx(2.0)

    def test_q_curve_is_simple(self, qcurve):
        assert qcurve.cap == 1.0

    def test_cusp_rejected(self):
        with pytest.raises((CurveSelfIntersects, DerivativeVanishes)):
            make_map(1.0, 0.0, [1.0])

    def test_orientation_flip_rejected(self):
        # z + q/z with q > 1: the image is still an ellipse but traversed
        # backwards, so the data cannot come from a univalent map
        with pytest.raises(CurveSelfIntersects):
            make_map(1.0, 0.0, [1.4])

    def test_genuine_self_intersection_rejected(self):
        with pytest.raises((CurveSelfIntersects, DerivativeVanishes)):
            make_map(1.0, 0.0, [0.0, 0.0, 0.9])

    @pytest.mark.parametrize("tail", [[0.0, 0.6], [0.0, 0.0, 0.0, 0.3]])
    def test_self_intersection_rejected(self, tail):
        # positively oriented, phi' nonzero on the grid, but the inner loops
        # of z + t/z**k cross the outer arcs
        with pytest.raises(CurveSelfIntersects, match="intersects itself"):
            make_map(1.0, 0.0, tail)

    @pytest.mark.parametrize("cap, phi0, tail", [
        (float("inf"), 0.0, [0.1]),
        (float("-inf"), 0.0, [0.1]),
        (float("nan"), 0.0, [0.1]),
        (1.0, complex(float("nan"), 0.0), [0.1]),
        (1.0, complex(0.0, float("inf")), [0.1]),
        (1.0, 0.0, [0.1, float("-inf")]),
        (1.0, 0.0, [complex(0.0, float("nan"))]),
    ])
    def test_non_finite_rejected(self, cap, phi0, tail):
        with pytest.raises(ValueError, match="finite"):
            make_map(cap, phi0, tail)

    def test_nonpositive_cap(self):
        with pytest.raises(NonPositiveCapacity):
            make_map(0.0, 0.0, [0.0])
        with pytest.raises(NonPositiveCapacity):
            make_map(-1.0, 0.0, [0.0])

    def test_empty_tail(self):
        with pytest.raises(ValueError):
            make_map(1.0, 0.0, [])


def _verdict(cap, phi0, tail):
    """make_map's outcome: "ok" or the error type and message."""
    try:
        make_map(cap, phi0, tail)
    except (CurveSelfIntersects, DerivativeVanishes) as exc:
        return type(exc).__name__, str(exc)
    return "ok"


# tails that make_map rejects above, each with s = sum k|t_k| >= 1
REJECTED_TAILS = [[1.0], [1.4], [0.0, 0.0, 0.9], [0.0, 0.6], [0.0, 0.0, 0.0, 0.3]]


class TestCertifiedTail:
    @pytest.mark.parametrize("tail", [
        [0.1], [0.5], [0.6, 0.25j], [1.4], [1.0], [0.0, 0.6], [1e150],
        [0.3, 0.1j, -0.05, 0.02 + 0.02j],
    ])
    def test_verdict_ignores_cap_and_phi0(self, tail):
        # univalence depends on the tail alone: checks on cap * phi with an
        # absolute tolerance reject [0.1] at (1, 1e15) and (1e-7, 0), and
        # at (1e155, 0) their area overflows to NaN
        want = _verdict(1.0, 0.0, tail)
        for cap in [1e-12, 1e-7, 1.0, 1e155, 1e300]:
            for phi0 in [0.0, 1e15, 1e300]:
                assert _verdict(cap, phi0, tail) == want, (cap, phi0)

    def test_overflowing_area_rejected(self):
        # z + q/z with q > 1 runs backwards; at q = 1e200 the shoelace sum
        # overflows to NaN, which must not pass as a positive area
        with pytest.raises(CurveSelfIntersects, match="negatively oriented"):
            make_map(1.0, 0.0, [1e200])

    @pytest.mark.parametrize("tail", REJECTED_TAILS)
    def test_rejected_tails_are_not_certified(self, tail):
        tail = np.asarray(tail, dtype=complex)
        assert np.sum(np.arange(1, len(tail) + 1) * np.abs(tail)) >= 1.0
        assert not _tail_certifies(tail)

    def test_fixtures_skip_the_sampled_checks(self, monkeypatch, circle, qcurve,
                                              wobbly, slow):
        calls = []

        def spy(pts, tol):
            calls.append(len(pts))
            return _polyline_self_intersects(pts, tol)

        monkeypatch.setattr(series_mod, "_polyline_self_intersects", spy)
        for mp in [circle, qcurve, wobbly, slow]:
            again = make_map(mp.cap, mp.phi0, mp.tail)
            assert (again.cap, again.phi0) == (mp.cap, mp.phi0)
            assert again.tail.tobytes() == mp.tail.tobytes()
        assert calls == []
        # s = 0.6 + 2 * 0.25 = 1.1: valid, but only the sampled checks say so
        mp = make_map(1.0, 0.0, [0.6, 0.25j])
        assert calls == [UNIVALENCE_GRID]
        assert mp.tail.tolist() == [0.6, 0.25j]

    def test_bound_never_accepts_a_rejected_tail(self):
        # seeded tails of degree 1-8 with s in [0, 1.05]; a third of them
        # put the certificate's gap within 1e-3 (relative) of its threshold
        rng = np.random.default_rng(19)
        h = 2.0 * np.pi / UNIVALENCE_GRID
        c1, c2 = 2.0 * np.sin(h / 2.0), h * h / 4.0
        certified = 0
        for draw in range(1200):
            degree = int(rng.integers(1, 9))
            k = np.arange(1, degree + 1)
            w = rng.dirichlet(np.full(degree, 0.5)) * np.exp(2j * np.pi * rng.random(degree))
            unit = w / k  # sum k|unit_k| = 1
            if draw % 3 == 0:
                # gap(s) = (1 - s) c1 - (1 + s (1 + m)) c2 closes at this s
                m = float(np.sum(k * (k + 1) * np.abs(unit)))
                thr = SELF_INTERSECT_TOL + _rounding_allowance(degree)
                s = (c1 - c2 - thr) / (c1 + (1.0 + m) * c2)
                u = rng.uniform(-1.0, 1.0)
                s *= 1.0 + 1e-3 * u
            else:
                u, s = None, rng.uniform(0.0, 1.05)
            tail = s * unit
            if u is not None:
                # the gap closes at the threshold: below it certified, above not
                assert _tail_certifies(tail) == (u < 0), (degree, s)
            if _tail_certifies(tail):
                certified += 1
                _sampled_checks(tail)  # raises if the sampled checks reject
        assert 600 <= certified <= 1000


def _numpy_certifies(tail):
    """The certificate of ``_tail_certifies`` by NumPy sums, the reference
    for its sums over Python floats."""
    k = np.arange(1, len(tail) + 1, dtype=float)
    a = np.abs(tail)
    with np.errstate(over="ignore"):  # a huge tail gives s = inf: not certified
        s = float(np.sum(k * a))
        m2 = 1.0 + s + float(np.sum(k * (k + 1.0) * a))
    h = 2.0 * np.pi / UNIVALENCE_GRID
    gap = (1.0 - s) * 2.0 * np.sin(h / 2.0) - m2 * h * h / 4.0
    return gap > SELF_INTERSECT_TOL + _rounding_allowance(len(tail))


class TestScalarCertificate:
    def test_matches_the_numpy_sums(self):
        # seeded tails of degree 1-64: s drawn in [0, 1.05], s a relative
        # 1e-9 below and above the bound where the gap meets its threshold,
        # and coefficients near 1e308, where s overflows
        rng = np.random.default_rng(34)
        h = 2.0 * np.pi / UNIVALENCE_GRID
        c1, c2 = 2.0 * np.sin(h / 2.0), h * h / 4.0
        verdicts = []
        for degree in range(1, 65):
            k = np.arange(1, degree + 1)
            for draw in range(12):
                w = rng.dirichlet(np.full(degree, 0.5)) * np.exp(2j * np.pi * rng.random(degree))
                unit = w / k  # sum k|unit_k| = 1
                m = float(np.sum(k * (k + 1) * np.abs(unit)))
                bound = (c1 - c2 - SELF_INTERSECT_TOL - _rounding_allowance(degree)) / (
                    c1 + (1.0 + m) * c2)
                if draw < 4:
                    tail = rng.uniform(0.0, 1.05) * unit
                elif draw < 8:
                    tail = bound * (1.0 + (-1e-9 if draw % 2 else 1e-9)) * unit
                    assert _tail_certifies(tail) == bool(draw % 2), (degree, draw)
                else:
                    tail = 10.0 ** rng.uniform(306.0, 308.0, degree) * w / np.abs(w)
                    assert not _tail_certifies(tail)
                assert _tail_certifies(tail) == _numpy_certifies(tail), (degree, draw)
                verdicts.append(_tail_certifies(tail))
        assert 64 * 2 <= sum(verdicts) <= 64 * 6

    @pytest.mark.parametrize("fixture", ["circle", "qcurve", "wobbly", "slow", "pairing"])
    def test_fixtures_keep_their_verdict(self, request, fixture):
        mp = request.getfixturevalue(fixture)
        assert _tail_certifies(mp.tail) and _numpy_certifies(mp.tail)
        assert _verdict(mp.cap, mp.phi0, mp.tail) == "ok"

    @pytest.mark.parametrize("q, verdict", [
        (0.5, "ok"), (0.99, "ok"),
        (1.05, ("CurveSelfIntersects", "sampled curve is negatively oriented")),
        (1.5, ("CurveSelfIntersects", "sampled curve is negatively oriented")),
    ])
    def test_ellipses_keep_their_verdict(self, q, verdict):
        tail = np.array([q], dtype=complex)
        assert _tail_certifies(tail) == _numpy_certifies(tail) == (q < 1)
        assert _verdict(1.0, 0.0, tail) == verdict


def _all_pairs_intersect(pts, tol):
    """Every pair of non-adjacent segments through the same segment test."""
    N = len(pts)
    a, b = pts, np.roll(pts, -1)
    for i in range(N):
        for j in range(i + 2, N - (i == 0)):
            if _segments_cross(a[i], b[i], a[j], b[j], tol):
                return True
    return False


def _random_polyline(rng, kind, N):
    theta = np.sort(rng.random(N)) * 2 * np.pi
    if kind == "star":
        # star-shaped about 0, so simple up to the tolerance
        return (1.0 + 0.5 * rng.random(N)) * np.exp(1j * theta)
    if kind == "waist":
        # peanut whose two lobes come within about 2 * eps of each other
        eps = rng.choice([2e-4, 4e-3, 3e-2])
        theta = 2 * np.pi * np.arange(N) / N
        return np.cos(theta) + 1j * np.sin(theta) * (eps + np.abs(np.cos(theta)))
    if kind == "fold":
        # one vertex thrown across the circle: its two edges cross the rest
        pts = np.exp(1j * theta)
        pts[rng.integers(N)] *= -rng.uniform(1.2, 2.0)
        return pts
    return rng.normal(size=N) + 1j * rng.normal(size=N)


def test_sweep_matches_all_pairs():
    rng = np.random.default_rng(8)
    verdicts = []
    for k in range(200):
        kind = ["star", "waist", "fold", "cloud"][k % 4]
        # the reference checks all N**2 / 2 pairs of a simple polyline
        N = int(rng.integers(4, 81 if kind in ("star", "waist") else 201))
        tol = float(rng.choice([1e-9, 1e-3, 2e-2]))
        pts = _random_polyline(rng, kind, N)
        got = _polyline_self_intersects(pts, tol)
        assert got == _all_pairs_intersect(pts, tol), (k, kind, N, tol)
        verdicts.append(got)
    assert 40 <= sum(verdicts) <= 160


class TestEvalMap:
    def test_q_value_at_theta0(self, qcurve):
        assert eval_map(qcurve, 1.0) == pytest.approx(1.5)

    def test_q_derivative_symbolic(self, qcurve):
        # phi'(z) = 1 - q/z**2 at z = i gives 1.5
        assert eval_map(qcurve, 1j, 1) == pytest.approx(1.5)

    def test_outside_domain(self, qcurve):
        with pytest.raises(OutsideDomain):
            eval_map(qcurve, 0.5)

    def test_bad_order(self, qcurve):
        with pytest.raises(ValueError):
            eval_map(qcurve, 2.0, 4)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_finite_difference(self, wobbly, order):
        # centered difference of the next-lower order at step 1e-5
        h = 1e-5
        for z in [1.7, 1.2 + 0.8j, 2.0j]:
            fd = (eval_map(wobbly, z + h, order - 1) - eval_map(wobbly, z - h, order - 1)) / (2 * h)
            val = eval_map(wobbly, z, order)
            assert abs(fd - val) <= 1e-6 * max(1.0, abs(val))

    @pytest.mark.parametrize("N", [4096, 8192, 16384, 32768, 65536])
    def test_one_map_rounds_as_a_stack(self, slow, N):
        # from 2**14 nodes on, numpy's temporary elision may swap the
        # operands of a product, and the complex product rounds by order
        z = _unit_points(N)
        for order in range(4):
            one = _phi_at(slow.phi0, slow.tail, z, order)
            stacked = _phi_at(np.array([slow.phi0]), slow.tail[None], z, order)
            assert one.tobytes() == stacked[0].tobytes(), order


class TestCurveSamples:
    def test_circle_points_and_weights(self, circle):
        pts, w = curve_samples(circle, 16)
        assert np.allclose(pts, np.exp(2j * np.pi * np.arange(16) / 16))
        assert np.allclose(w, 2 * np.pi / 16)

    def test_weights_positive_and_converged(self, wobbly):
        _, w1 = curve_samples(wobbly, 512)
        _, w2 = curve_samples(wobbly, 1024)
        assert np.all(w1 > 0)
        assert abs(np.sum(w1) - np.sum(w2)) <= 1e-10 * np.sum(w2)

    def test_arc_length_oracle(self, qcurve):
        # adaptive quadrature of |cap phi'(e^{i t})| over one period
        length, _ = scipy.integrate.quad(
            lambda t: abs(eval_map(qcurve, np.exp(1j * t), 1)), 0.0, 2 * np.pi,
            limit=200,
        )
        _, w = curve_samples(qcurve, 1024)
        assert np.sum(w) == pytest.approx(length, abs=1e-9)

    def test_grid_validation(self, circle):
        with pytest.raises(ValueError):
            curve_samples(circle, 15)
        with pytest.raises(ValueError):
            curve_samples(circle, 8)


class TestDilateMap:
    def test_circle_fixed(self, circle):
        d = dilate_map(circle, 2.0)
        assert d.cap == 1.0
        assert np.allclose(d.tail, 0.0)

    def test_q_rule(self, qcurve):
        d = dilate_map(qcurve, 2.0)
        assert d.tail[0] == pytest.approx(0.125)

    def test_tail_to_zero(self, qcurve):
        d = dilate_map(qcurve, 1e6)
        assert np.max(np.abs(d.tail)) <= 1e-12 * np.max(np.abs(qcurve.tail))

    def test_composition(self, wobbly):
        a = dilate_map(dilate_map(wobbly, 1.5), 2.0)
        b = dilate_map(wobbly, 3.0)
        assert abs(a.phi0 - b.phi0) <= 1e-14
        assert np.max(np.abs(a.tail - b.tail)) <= 1e-14

    def test_requires_r_gt_one(self, qcurve):
        with pytest.raises(DilationNotGreaterThanOne):
            dilate_map(qcurve, 1.0)


class TestLaurentMul:
    def test_z_times_z(self):
        z = series(1, [1, 0, 0, 0], 2)
        out = laurent_mul(z, z)
        assert out.lead_degree == 2
        assert out.coeff(2) == 1 and out.coeff(0) == 0

    def test_binomial(self):
        # (z + q/z)**2 = z**2 + 2q + q**2 z**-2
        q = 0.5
        s = series(1, [1, 0, q, 0, 0], 3)
        out = laurent_mul(s, s)
        assert out.coeff(2) == pytest.approx(1)
        assert out.coeff(0) == pytest.approx(2 * q)
        assert out.coeff(-2) == pytest.approx(q * q)
        assert out.coeff(1) == 0 and out.coeff(-1) == 0

    def test_against_double_loop(self):
        rng = np.random.default_rng(42)
        M = 32
        a = series(3, rng.standard_normal(3 + M + 1) + 1j * rng.standard_normal(3 + M + 1), M)
        b = series(2, rng.standard_normal(2 + M + 1) + 1j * rng.standard_normal(2 + M + 1), M)
        out = laurent_mul(a, b)
        for p in range(5, -M - 1, -1):
            acc = 0.0 + 0.0j
            for i in range(3, -M - 1, -1):
                j = p - i
                if -M <= j <= 2:
                    acc += a.coeff(i) * b.coeff(j)
            assert out.coeff(p) == pytest.approx(acc, abs=1e-12)

    def test_commutative_associative(self):
        rng = np.random.default_rng(7)
        M = 8
        mk = lambda lead: series(lead, rng.standard_normal(lead + M + 1), M)
        a, b, c = mk(0), mk(0), mk(0)
        ab = laurent_mul(a, b)
        ba = laurent_mul(b, a)
        assert np.allclose(ab.coeffs, ba.coeffs)
        # lead degrees 0: no truncation interplay, associativity exact
        lhs = laurent_mul(ab, c)
        rhs = laurent_mul(a, laurent_mul(b, c))
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-13)

    def test_mismatched_truncation(self):
        a = series(1, [1, 0, 0], 1)
        b = series(1, [1, 0, 0, 0], 2)
        with pytest.raises(MismatchedTruncation):
            laurent_mul(a, b)

    def test_invariant_length(self):
        with pytest.raises(ValueError):
            series(1, [1, 0], 2)
