"""Truncated Laurent-series arithmetic and the exterior-map curve model.

A curve is represented solely by the Laurent data of its exterior mapping
function: the full map is ``cap * phi`` with

    phi(z) = z + phi0 + t_1 / z + t_2 / z**2 + ...

where ``t_k`` are the stored tail coefficients.  Stored tails are exact:
the map *is* the finite Laurent polynomial, so coefficients beyond the
stored length are exactly zero.  All evaluation on the unit circle uses
exact unit-modulus points ``exp(i*theta_j)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CurveSelfIntersects,
    DerivativeVanishes,
    DilationNotGreaterThanOne,
    MismatchedTruncation,
    NonPositiveCapacity,
    OutsideDomain,
)

UNIVALENCE_GRID = 4096
SELF_INTERSECT_TOL = 1e-9
_DOMAIN_SLACK = 1e-12


def _readonly(arr, dtype=complex) -> np.ndarray:
    """A write-protected copy of arr as dtype, for frozen dataclass fields."""
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LaurentSeries:
    """Finite Laurent polynomial sum_{k=-M}^{L} c_k z^k.

    ``coeffs[0]`` is the coefficient of ``z**lead_degree`` and the entries
    run downward to ``z**(-trunc_order)``.  Arithmetic stays closed under
    the fixed truncation order M: products drop everything below z**(-M).
    """

    lead_degree: int
    coeffs: np.ndarray
    trunc_order: int

    def __post_init__(self):
        coeffs = _readonly(self.coeffs)
        if len(coeffs) != self.lead_degree + self.trunc_order + 1:
            raise ValueError(
                "coeffs must have lead_degree + trunc_order + 1 entries, "
                f"got {len(coeffs)} for lead {self.lead_degree}, M {self.trunc_order}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, power: int) -> complex:
        """Coefficient of z**power (zero outside the stored window)."""
        idx = self.lead_degree - power
        if idx < 0 or idx >= len(self.coeffs):
            return 0.0 + 0.0j
        return complex(self.coeffs[idx])


def laurent_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Cauchy product truncated below z**(-M).

    Both operands must share the truncation order M; positive powers are
    kept in full.
    """
    if a.trunc_order != b.trunc_order:
        raise MismatchedTruncation(
            f"truncation orders differ: {a.trunc_order} != {b.trunc_order}"
        )
    lead = a.lead_degree + b.lead_degree
    full = np.convolve(a.coeffs, b.coeffs)
    keep = lead + a.trunc_order + 1
    return LaurentSeries(lead, full[:keep], a.trunc_order)


@dataclass(frozen=True)
class ExteriorMap:
    """Validated Laurent data (cap, phi0, tail) of an exterior map."""

    cap: float
    phi0: complex
    tail: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tail", _readonly(self.tail))

    @property
    def trunc_order(self) -> int:
        return len(self.tail)


def _phi_norm(mp: ExteriorMap, z, deriv_order: int = 0):
    """phi or a derivative at z, without the cap factor.  Vectorized in z."""
    z = np.asarray(z, dtype=complex)
    w = 1.0 / z
    t = np.asarray(mp.tail)
    k = np.arange(1, len(t) + 1, dtype=float)
    if deriv_order == 0:
        c = t
        base = z + mp.phi0
        shift = 1
    elif deriv_order == 1:
        c = -k * t
        base = 1.0
        shift = 2
    elif deriv_order == 2:
        c = k * (k + 1) * t
        base = 0.0
        shift = 3
    elif deriv_order == 3:
        c = -k * (k + 1) * (k + 2) * t
        base = 0.0
        shift = 4
    else:
        raise ValueError("deriv_order must be in 0..3")
    # Horner in w for sum_k c_k w**(k + shift - 1)
    acc = np.zeros_like(z)
    for ck in c[::-1]:
        acc = (acc + ck) * w
    return base + acc * w ** (shift - 1)


def eval_map(mp: ExteriorMap, z, deriv_order: int = 0):
    """cap*phi, cap*phi', cap*phi'' or cap*phi''' at z (|z| >= 1).

    Accepts scalars or arrays; scalar input returns a Python complex.
    """
    zz = np.asarray(z, dtype=complex)
    if np.any(np.abs(zz) < 1.0 - _DOMAIN_SLACK):
        raise OutsideDomain("evaluation requires |z| >= 1")
    out = mp.cap * _phi_norm(mp, zz, deriv_order)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


def _unit_points(N: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(N) / N
    return np.exp(1j * theta)


def _segments_cross(p1, p2, q1, q2, tol: float) -> bool:
    """True if segments [p1,p2] and [q1,q2] come within tol of each other."""
    # proper crossing via orientation signs
    def orient(a, b, c):
        return (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    # otherwise check minimum point-segment distances
    def pt_seg(p, a, b):
        ab = b - a
        denom = abs(ab) ** 2
        if denom == 0.0:
            return abs(p - a)
        t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
        t = min(1.0, max(0.0, t))
        return abs(p - (a + t * ab))

    d = min(pt_seg(p1, q1, q2), pt_seg(p2, q1, q2),
            pt_seg(q1, p1, p2), pt_seg(q2, p1, p2))
    return d < tol


def _polyline_self_intersects(pts: np.ndarray, tol: float) -> bool:
    """Heuristic simplicity check on the closed sampled polyline.

    Segments are swept along x: only pairs with overlapping (inflated)
    x-intervals are considered, then filtered by y-overlap, and the few
    survivors get an exact segment test.  Adjacent segments (sharing an
    endpoint, including the wraparound pair) are skipped.  For curve-
    ordered samples the sweep visits O(N) candidate pairs.
    """
    N = len(pts)
    a = pts
    b = np.roll(pts, -1)
    lo_x = np.minimum(a.real, b.real) - tol
    hi_x = np.maximum(a.real, b.real) + tol
    lo_y = np.minimum(a.imag, b.imag) - tol
    hi_y = np.maximum(a.imag, b.imag) + tol
    order = np.argsort(lo_x, kind="stable")
    slo, shi = lo_x[order], hi_x[order]
    # candidate windows in sorted order: j in (i, end_i) has slo[j] <= shi[i]
    ends = np.searchsorted(slo, shi, side="right")
    counts = np.maximum(ends - np.arange(1, N + 1), 0)
    # pair p of row i is (i, i + 1 + its offset within the row): one
    # O(pairs) index build, in the same order as the row-by-row ranges
    ii = np.repeat(np.arange(N), counts)
    jj = ii + 1 + (np.arange(len(ii)) - np.repeat(np.cumsum(counts) - counts, counts))
    oi, oj = order[ii], order[jj]
    keep = (lo_y[oi] <= hi_y[oj]) & (lo_y[oj] <= hi_y[oi])
    # drop index-adjacent segments, including the 0 / N-1 wraparound
    gap = np.abs(oi - oj)
    keep &= (gap != 1) & (gap != N - 1)
    for i, j in zip(oi[keep], oj[keep]):
        if _segments_cross(a[i], b[i], a[j], b[j], tol):
            return True
    return False


def make_map(cap: float, phi0: complex, tail) -> ExteriorMap:
    """Validate Laurent data and return the curve model.

    ``cap``, ``phi0`` and every tail entry must be finite (``ValueError``
    otherwise, before any grid work).  Univalence is checked
    heuristically: phi' must not vanish on a 4096-point boundary grid,
    the sampled curve must be positively oriented (an orientation flip
    means the data cannot come from a univalent map even when the image
    curve is simple, e.g. z + q/z with q > 1), and it must be simple
    within tolerance 1e-9.  The simplicity sweep builds its candidate
    segment pairs in time linear in their number, O(N) for a curve-ordered
    sample, and tests only those whose boxes overlap.
    """
    tail = np.atleast_1d(np.asarray(tail, dtype=complex))
    if not (np.isfinite(cap) and np.isfinite(phi0) and np.isfinite(tail).all()):
        raise ValueError("cap, phi0 and tail must be finite")
    if not (cap > 0):
        raise NonPositiveCapacity(f"cap must be > 0, got {cap}")
    if tail.ndim != 1 or len(tail) < 1:
        raise ValueError("tail must be a list of at least one coefficient")
    mp = ExteriorMap(float(cap), complex(phi0), tail)
    z = _unit_points(UNIVALENCE_GRID)
    dphi = _phi_norm(mp, z, 1)
    if np.min(np.abs(dphi)) <= 1e-12:
        raise DerivativeVanishes("phi' vanishes on the unit circle grid")
    pts = float(cap) * _phi_norm(mp, z, 0)
    area2 = float(np.sum(pts.real * np.roll(pts.imag, -1) - pts.imag * np.roll(pts.real, -1)))
    if area2 <= 0:
        raise CurveSelfIntersects("sampled curve is negatively oriented")
    if _polyline_self_intersects(pts, SELF_INTERSECT_TOL):
        raise CurveSelfIntersects("sampled curve intersects itself")
    return mp


def _unchecked_map(cap: float, phi0: complex, tail) -> ExteriorMap:
    """Construct without the grid checks (for maps valid by construction)."""
    return ExteriorMap(float(cap), complex(phi0), np.asarray(tail, dtype=complex))


def curve_samples(mp: ExteriorMap, N: int):
    """Boundary points and arc-length weights on the uniform theta grid.

    points[j] = cap*phi(exp(i*theta_j)), weights[j] = cap*|phi'|*2*pi/N.
    The weight sum converges spectrally to the curve length.
    """
    if N < 16 or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a power of two >= 16, got {N}")
    z = _unit_points(N)
    points = mp.cap * _phi_norm(mp, z, 0)
    weights = mp.cap * np.abs(_phi_norm(mp, z, 1)) * (2.0 * np.pi / N)
    return points, weights


def dilate_map(mp: ExteriorMap, r: float) -> ExteriorMap:
    """Curve model for phi_r(z) = phi(r z)/r; the cap is unchanged.

    Coefficientwise: phi0 -> phi0/r and t_k -> t_k / r**(k+1), so the
    dilated map tends to the identity as r grows.
    """
    if not (r > 1):
        raise DilationNotGreaterThanOne(f"r must be > 1, got {r}")
    k = np.arange(1, len(mp.tail) + 1)
    return _unchecked_map(mp.cap, mp.phi0 / r, np.asarray(mp.tail) / r ** (k + 1.0))
