"""The exterior-map curve model.

A curve is represented solely by the Laurent data of its exterior mapping
function: the full map is ``cap * phi`` with

    phi(z) = z + phi0 + t_1 / z + t_2 / z**2 + ...

where ``t_k`` are the stored tail coefficients.  Stored tails are exact:
the map *is* the finite Laurent polynomial, so coefficients beyond the
stored length are exactly zero.  All evaluation on the unit circle uses
exact unit-modulus points ``exp(i*theta_j)``.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    CurveSelfIntersects,
    DerivativeVanishes,
    DilationNotGreaterThanOne,
    NonPositiveCapacity,
    OutsideDomain,
)

UNIVALENCE_GRID = 4096
SELF_INTERSECT_TOL = 1e-9
_DOMAIN_SLACK = 1e-12
_STEP = 2.0 * math.pi / UNIVALENCE_GRID  # angle between neighbouring grid points
_SIN_HALF_STEP = float(np.sin(_STEP / 2.0))


def _readonly(arr, dtype=complex) -> np.ndarray:
    """A write-protected copy of arr as dtype, for frozen dataclass fields.

    An array of that dtype that owns its data in C order and is already
    write-protected is returned as is.
    """
    if (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.base is None
        and arr.flags.c_contiguous
        and not arr.flags.writeable
    ):
        return arr
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ExteriorMap:
    """Validated Laurent data (cap, phi0, tail) of an exterior map."""

    cap: float
    phi0: complex
    tail: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tail", _readonly(self.tail))


def _phi_norm(mp: ExteriorMap, z, deriv_order: int = 0):
    """phi or a derivative at z, without the cap factor.  Vectorized in z."""
    return _phi_at(mp.phi0, mp.tail, z, deriv_order)


def _phi_at(phi0, tail, z, deriv_order: int = 0):
    """phi or a derivative at z from the Laurent data (phi0, tail), no cap.

    The coefficients run along the last axis of tail.  Leading axes of
    tail, shared by phi0, index a stack of maps and come first in the
    result, ahead of the axes of z.
    """
    z = np.asarray(z, dtype=complex)
    w = 1.0 / z
    spread = (Ellipsis,) + (None,) * z.ndim  # a map's scalars against all of z
    t = np.asarray(tail)
    k = np.arange(1, t.shape[-1] + 1, dtype=float)
    if deriv_order == 0:
        c = t
        base = z + np.asarray(phi0)[spread]
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
    c = c[spread + (slice(None),)]
    acc = np.zeros(t.shape[:-1] + z.shape, dtype=complex)
    for j in range(t.shape[-1] - 1, -1, -1):
        acc += c[..., j]
        acc *= w
    # in place, so acc stays the first operand at every size: numpy's
    # temporary elision would swap the operands of ``acc * w**(shift-1)``
    # on large unstacked arrays, and its complex multiply rounds the
    # imaginary part by operand order
    np.multiply(acc, w ** (shift - 1), out=acc)
    return base + acc


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


def _tail_certifies(tail: np.ndarray) -> bool:
    """True when s = sum k|t_k| proves that the sampled checks pass.

    The sampled polyline of phi - phi0 has any two non-adjacent segments
    at least (1 - s) 2 sin(h/2) - M2 h**2 / 4 apart, h = 2 pi / 4096 and
    M2 = 1 + s + sum k(k+1)|t_k| (proof in ``make_map``); this returns
    whether that gap exceeds ``SELF_INTERSECT_TOL`` plus the rounding
    allowance ``_rounding_allowance``.  The sums run over Python floats,
    term by term; a |t_k| or a sum past the float range is not certified.
    """
    s = m2 = 0.0
    try:
        for k, t in enumerate(tail.tolist(), 1):
            a = abs(t)
            s += k * a
            m2 += k * (k + 1.0) * a
    except OverflowError:  # abs of a complex past the float range
        return False
    gap = (1.0 - s) * 2.0 * _SIN_HALF_STEP - (1.0 + s + m2) * _STEP * _STEP / 4.0
    return gap > SELF_INTERSECT_TOL + _rounding_allowance(len(tail))


def _rounding_allowance(degree: int) -> float:
    """Bound on how far rounding moves the sampled segment distances.

    With s < 1 every vertex and every |phi'| on the circle is below 2, a
    computed vertex (``exp`` of a rounded angle, then Horner over
    ``degree`` terms) is within (2 degree + 8) eps of the exact phi at
    the exact root of unity, and the point-segment distances of
    ``_segments_cross`` add about 16 eps; 64 (degree + 4) eps covers both
    with room to spare.
    """
    return 64.0 * (degree + 4) * sys.float_info.epsilon


def _sampled_checks(tail: np.ndarray) -> None:
    """The grid checks of ``make_map`` on phi - phi0 = z + sum t_k z**-k.

    Raises ``DerivativeVanishes`` when |phi'| <= 1e-12 at a grid point,
    ``CurveSelfIntersects`` when the sampled curve is not positively
    oriented (a NaN or overflowing area counts as not positive) or when
    two non-adjacent segments come within ``SELF_INTERSECT_TOL``.
    """
    z = _unit_points(UNIVALENCE_GRID)
    if np.min(np.abs(_phi_at(0.0, tail, z, 1))) <= 1e-12:
        raise DerivativeVanishes("phi' vanishes on the unit circle grid")
    pts = _phi_at(0.0, tail, z, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow gives NaN: rejected
        area2 = float(np.sum(pts.real * np.roll(pts.imag, -1) - pts.imag * np.roll(pts.real, -1)))
    if not area2 > 0:
        raise CurveSelfIntersects("sampled curve is negatively oriented")
    if _polyline_self_intersects(pts, SELF_INTERSECT_TOL):
        raise CurveSelfIntersects("sampled curve intersects itself")


def make_map(cap: float, phi0: complex, tail) -> ExteriorMap:
    """Validate Laurent data and return the curve model.

    ``cap``, ``phi0`` and every tail entry must be finite (``ValueError``
    otherwise, before any grid work), ``cap`` must be positive
    (``NonPositiveCapacity``) and the tail must hold at least one
    coefficient (``ValueError``).  Univalence depends on the tail alone,
    so it is judged on the normalized map f(z) = phi(z) - phi0 =
    z + sum t_k z**-k, whose capacity is 1: the verdict does not change
    with ``cap`` or ``phi0``, and the tolerance is relative to the
    capacity.

    Certified tails.  Let s = sum k|t_k|.  On |z| = |w| = 1,
    |z**-k - w**-k| = |z**k - w**k| <= k|z - w|, so

        |f(z) - f(w)| >= (1 - s) |z - w|   and   |f'(z)| >= 1 - s.

    Take the 4096-point grid z_j = exp(i j h), h = 2 pi / 4096, and
    g(theta) = f(exp(i theta)).  Then |g''| = |z f' + z**2 f''| <= M2 =
    1 + s + sum k(k+1)|t_k|, so the chord of each grid arc stays within
    M2 h**2 / 8 of the arc (linear interpolation error).  Two non-adjacent
    arcs are at least h apart in angle, hence their images at least
    (1 - s) 2 sin(h/2) apart, and two non-adjacent chords at least

        gap = (1 - s) 2 sin(h/2) - M2 h**2 / 4.

    When gap > ``SELF_INTERSECT_TOL`` plus ``_rounding_allowance`` (which
    covers the rounding of the computed vertices and distances), the
    three sampled checks below pass: no two non-adjacent segments come
    within the tolerance; a gap above 1e-9 forces s < 1 - 6e-7, so
    |f'| >= 1 - s is far above 1e-12; and twice the polygon's area is
    positive, since the curve encloses area pi (1 - sum k|t_k|**2) >=
    pi (1 - s**2) (Parseval), the polygon differs from it by at most its
    length 2 pi (1 + s) times M2 h**2 / 8 < (1 - s) h / 2, and the
    shoelace sum over 4096 vertices of modulus below 2 rounds by less
    than 1e-9.  The one step taken on trust is that the orientation signs
    of ``_segments_cross`` do not both flip for segments that far apart,
    which needs four sample points collinear to rounding.  A certified
    tail returns without the sampled checks; s < 1 is also a classical
    sufficient condition for f to be univalent on |z| > 1, so no
    non-univalent map is accepted.  Every tail of degree up to 20 with
    s <= 0.99 is certified.

    Other tails (s near or above 1, e.g. z + q/z with q >= 1 or a valid
    [0.6, 0.25j] with s = 1.1) take the sampled checks, a grid heuristic:
    phi' must not vanish on the 4096-point grid, the sampled curve must be
    positively oriented (an orientation flip means the data cannot come
    from a univalent map even when the image curve is simple, e.g.
    z + q/z with q > 1), and it must be simple within 1e-9 (times the
    capacity, on the normalized map).
    The simplicity sweep builds its candidate segment pairs in time
    linear in their number, O(N) for a curve-ordered sample, and tests
    only those whose boxes overlap.
    """
    tail = np.atleast_1d(np.asarray(tail, dtype=complex))
    if not (math.isfinite(cap) and cmath.isfinite(phi0)
            and all(map(cmath.isfinite, tail.reshape(-1).tolist()))):
        raise ValueError("cap, phi0 and tail must be finite")
    if not (cap > 0):
        raise NonPositiveCapacity(f"cap must be > 0, got {cap}")
    if tail.ndim != 1 or len(tail) < 1:
        raise ValueError("tail must be a list of at least one coefficient")
    if not _tail_certifies(tail):
        _sampled_checks(tail)
    return ExteriorMap(float(cap), complex(phi0), tail)


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
    return _unchecked_map(mp.cap, *_dilated_coeffs(mp, r))


def _dilated_coeffs(mp: ExteriorMap, r):
    """(phi0/r, t_k / r**(k+1)) of phi(r z)/r, one map per entry of r.

    The leading axes of the result are those of r, as ``_phi_at`` takes
    them; r is not checked.
    """
    r = np.asarray(r, dtype=float)
    k = np.arange(1, len(mp.tail) + 1)
    return mp.phi0 / r, np.asarray(mp.tail) / r[..., None] ** (k + 1.0)
