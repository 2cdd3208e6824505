"""Grunsky coefficients and the spectral structure of the operators B and K.

The table a_{kl} collects the double expansion

    log((phi(zeta) - phi(z)) / (zeta - z)) = - sum a_{kl} zeta**(-k) z**(-l)

for |z|, |zeta| > 1.  With w = 1/zeta, u = 1/z and the tail t_1..t_d of
phi, the quotient is G(w, u) = 1 - sum_{p,q>=1} t_{p+q-1} w**p u**q, and
comparing coefficients in G * w d_w(log G) = w d_w G gives the exact
recurrence

    k a_{kl} = k t_{k+l-1} + sum_{p,q>=1} t_{p+q-1} (k-p) a_{k-p,l-q},

with t_j = 0 for j > d (cap and phi0 drop out).  Entry (k, l) reads only
entries whose two indices are both smaller, so the m-table is exactly the
leading block of any larger table, and a_{kl} = 0 whenever
max(k, l) > d min(k, l).  The table is symmetric, a_{kl} = a_{lk}, and is
built so: row k is computed on l <= k only and mirrored into column k, and
each entry above the diagonal that a later row reads is such a mirror.
``GrunskyTable`` and ``OperatorPair`` hold only arrays equal to their
transpose bit for bit (``_symmetric``), so routines on them read one
triangle.  ``asym_defect`` checks the rounding by recomputing the last row
from the transposed recurrence, l a_{kl} = l t_{k+l-1} + sum t_{p+q-1}
(l-q) a_{k-p,l-q}.  The independent check of the recurrence, a 2-D FFT
of samples of the logarithm on a torus |zeta| = |z| = radius, lives with
the tests (``tests/oracles.py``).

B is the matrix sqrt(k*l) a_{kl}; K is the real symmetric doubling

    K = [[B1, B2], [B2, -B1]],   B = B1 + i B2,

whose eigenvalues are +/- the singular values of B.  K is formed only on
request.  ``_cholesky`` factors I + K in the interleaved order (x_1, y_1,
x_2, y_2, ...), in which I + K_m is the leading block of I + K_2m, and
writes its blocks from B only inside the envelope that the zeros of the
Grunsky wedge leave: past table size 64 the factor extends the factor
of half its size by its new columns, so an m ladder carries one factor
from rung to rung.  No report, guard or log path runs a dense SVD.  The
spectral report takes log det(I - B*B) from H = B^H B (one ``zherk``)
and one complex Cholesky factor of I - H, and checks it against the
real Cholesky factor of I + K through the determinant identity.  Its
kappa_hat, the largest singular value of B, is the largest eigenvalue of
K, from Lanczos on the real-linear map v -> B conj(v) from m = 100 on (K
acting on (Re v, Im v): one complex matrix-vector product a step, a few
dozen steps, converged to rounding), and from the dense eigenvalues of H
(LAPACK ``heevr``) below that, where they are cheaper, and wherever m/2
Lanczos steps do not converge because the top singular values cluster
too tightly; ``_kappa`` is the one routine that computes it, for the
report and for the guard of the m ladder.  The
Takagi factorization B = U Lambda U^t comes from one complex SVD of B; it
is a standalone routine that no report path calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import fblas, flapack
from .errors import (
    DilationNotGreaterThanOne,
    NotPositiveDefinite,
    NotSymmetric,
    SingularValueAtOne,
)
from .series import ExteriorMap, _readonly

_dgemv, _dnrm2, _syrk, _trsm, _zaxpy, _zcopy, _zgemv, _zherk = (
    fblas.dgemv, fblas.dnrm2, fblas.dsyrk, fblas.dtrsm, fblas.zaxpy, fblas.zcopy, fblas.zgemv,
    fblas.zherk)
_potrf, _stemr, _heevr, _zpotrf = flapack.dpotrf, flapack.dstemr, flapack.zheevr, flapack.zpotrf

_DELTA_EPS = 0.1  # fixed exponent offset in the tail diagnostic
_KAPPA_MAX = 1.0 - 1e-10  # a singular value of B at or above this is at 1
# estimates of kappa this close below _KAPPA_MAX do not decide the guard
# alone: over 40 times the rounding error of either estimate (about
# m eps) at m <= 1024
_KAPPA_MARGIN = 1e-11
# table size from which kappa comes from Lanczos, measured on one thread
# on six curves like the benchmark's (critical radius 0.89 and 0.94,
# degree 3): Lanczos takes 0.40-0.48 ms against 0.35 ms for the dense
# eigenvalue at m = 80, 0.43-0.53 against 0.51-0.56 ms at m = 96, and
# 0.48-0.59 against 0.72-0.82 ms at m = 112
_LANCZOS_MIN = 100


@dataclass(frozen=True)
class GrunskyTable:
    """Symmetric m-by-m table of Grunsky coefficients; ``NotSymmetric``
    unless the table equals its transpose bit for bit.

    ``asym_defect`` is a rounding check: for ``grunsky_coefficients``, the
    largest relative gap between the last row and that row recomputed by
    the transposed recurrence; 0 unless the builder of the table sets it.
    """

    m: int
    a: np.ndarray
    asym_defect: float = 0.0

    def __post_init__(self):
        a = _readonly(self.a)
        if a.shape != (self.m, self.m):
            raise ValueError("table must be m x m")
        object.__setattr__(self, "a", _symmetric(a))


@dataclass(frozen=True)
class OperatorPair:
    """B = sqrt(k l) a_{kl} and its real symmetric doubling K (2m x 2m);
    ``NotSymmetric`` unless B equals its transpose bit for bit.

    K = [[B1, B2], [B2, -B1]] with B = B1 + i B2 is built from B on first
    access and kept, read-only.  Nothing on the prediction path reads it:
    ``_cholesky`` writes I + K from B itself.
    """

    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", _symmetric(_readonly(self.B)))

    @functools.cached_property
    def K(self) -> np.ndarray:
        K = _k_matrix(self.B)
        K.setflags(write=False)
        return K


def _symmetric(a: np.ndarray) -> np.ndarray:
    """C-ordered a if it equals its transpose bit for bit (as uint64, so NaN
    payloads and signed zeros count), else ``NotSymmetric``."""
    if not np.array_equal(a.view(np.uint64), a.T.copy().view(np.uint64)):
        raise NotSymmetric("matrix does not equal its transpose bit for bit")
    return a


# table sizes factored by one dense potrf; above, the factor of size m
# extends the factor of size m // 2 by its new columns
_DENSE_MAX = 64


def _cholesky(B: np.ndarray, lead: tuple | None = None,
              weights: np.ndarray | None = None) -> tuple:
    """Cholesky factor of I + K as ``(c, lower)``, the form ``potrs`` takes:
    the one factorization that gives both (I+K)^{-1} and log det(I+K),
    twice the sum of the logs of its diagonal.

    I + K is ordered (x_1, y_1, x_2, y_2, ...): row pair k is
    ``B[k].view(float)`` and ``(-1j * B[k]).view(float)``, plus I.  So
    I + K_m is the leading block of I + K_2m, and the factor of table
    size m is the leading block of that of 2m.  c is Fortran-ordered,
    the factor in its upper triangle.  B is the whole symmetric m x m
    operator; with weights (``_weights``) it is the table array instead,
    and the entries of the operator are formed where they are used, with
    the bits of ``_operator``.

    The factor is a function of the table sizes alone.  At or below
    ``_DENSE_MAX`` it is one dense ``potrf``.  Above, it is the factor of
    table size m // 2, the given lead (``ValueError`` unless it has that
    size) or one computed here in the same buffer (``_factor``), extended
    by its new columns (``_extend``): an m ladder that passes each rung's
    factor to the next (``_rungs``) ends with the bits of one call at its
    last size.  A block of new columns is solved from its envelope on,
    the first earlier row that B couples to it, read off the exact zeros
    of B (the Grunsky wedge of a polynomial tail); one that B couples to
    no earlier row splits in halves (``_factor``), so the ellipse's
    diagonal B is factored in 128 x 128 blocks.  Above the envelope c is
    0; below the diagonal it is not read and, outside the dense blocks,
    not set.  Raises ``NotPositiveDefinite`` when ``potrf`` meets a
    nonpositive pivot.
    """
    m = len(B)
    m0 = m // 2 if m > _DENSE_MAX else 0
    if lead is not None and (not m0 or len(lead[0]) != 2 * m0):
        raise ValueError(f"the factor of table size {m} extends the one of size {m0}")
    if not m0:
        return _potrf_checked(_block(B, weights, 0, m)), False
    c = np.empty((2 * m, 2 * m), order="F")
    if lead is None:
        _factor(c, B, weights, 0, m)
    else:
        c[:2 * m0, :2 * m0] = lead[0]
        _extend(c, B, weights, 0, m0, m)
    return c, False


def _operator_rows(B: np.ndarray, weights: np.ndarray | None, lo: int, hi: int, s: int,
                   e: int) -> np.ndarray:
    """Rows lo..hi-1, columns s..e-1 of the operator: B, or B times the weights."""
    b = B[lo:hi, s:e]
    return b if weights is None else b * (weights[lo:hi, None] * weights[s:e])


def _block(B: np.ndarray, weights: np.ndarray | None, lo: int, hi: int) -> np.ndarray:
    """The diagonal block of I + K of row pairs lo..hi-1, Fortran-ordered."""
    b = _operator_rows(B, weights, lo, hi, lo, hi)
    n = 2 * (hi - lo)
    rows = np.empty((n, n))
    rows[0::2] = b.view(float)
    rows[1::2] = (-1j * b).view(float)
    rows.reshape(-1)[::n + 1] += 1.0
    return rows.T  # the block is symmetric: its rows are its columns


def _factor(c: np.ndarray, B: np.ndarray, weights: np.ndarray | None, lo: int, hi: int) -> None:
    """Factor into c the diagonal block of row pairs lo..hi-1, which no
    earlier row is coupled to: one ``potrf`` at or below ``_DENSE_MAX``
    pairs, else its first half, then the second extended over it.  At
    lo = 0 these are the steps of ``_cholesky`` at table size hi."""
    if hi - lo > _DENSE_MAX:
        mid = lo + (hi - lo) // 2
        _factor(c, B, weights, lo, mid)
        _extend(c, B, weights, lo, mid, hi)
        return
    c[2 * lo:2 * hi, 2 * lo:2 * hi] = _potrf_checked(_block(B, weights, lo, hi))


def _extend(c: np.ndarray, B: np.ndarray, weights: np.ndarray | None, lo: int, mid: int,
            hi: int) -> None:
    """Factor into c the columns of row pairs mid..hi-1, given the factor
    of pairs lo..mid-1 in c, no coupling to rows before lo, and zeros in
    those rows of the new columns.

    The envelope s is the first pair before mid that B couples to the
    new ones: the first nonzero column of each new row of B, the least
    over the rows.  The panel of rows s..mid-1 is solved against the
    factor by one ``trsm`` (from the right, on its transpose), the new
    diagonal block takes its Schur complement by one ``syrk`` and is
    factored by one ``potrf``.  With no coupling, the new block is
    factored on its own (``_factor``).
    """
    hit = np.flatnonzero((B[mid:hi, lo:mid].view(float) != 0).any(axis=0))
    if not hit.size:
        c[2 * lo:2 * mid, 2 * mid:2 * hi] = 0.0
        _factor(c, B, weights, mid, hi)
        return
    s = lo + int(hit[0]) // 2
    c[2 * lo:2 * s, 2 * mid:2 * hi] = 0.0
    # zt.T, Fortran-ordered, is the panel's transpose: new rows by old columns
    bt = _operator_rows(B, weights, mid, hi, s, mid).T
    zt = np.empty((2 * (mid - s), 2 * (hi - mid)))
    z4 = zt.reshape(mid - s, 2, hi - mid, 2)
    z4[:, 0, :, 0] = bt.real
    z4[:, 0, :, 1] = bt.imag
    z4[:, 1, :, 0] = bt.imag
    np.negative(bt.real, out=z4[:, 1, :, 1])
    q, r, e = 2 * s, 2 * mid, 2 * hi  # in rows
    z = _trsm(1.0, c[q:r, q:r], zt.T, side=1, overwrite_b=1)
    d = _syrk(-1.0, z, beta=1.0, c=_block(B, weights, mid, hi), overwrite_c=1)
    c[q:r, r:e] = z.T
    c[r:e, r:e] = _potrf_checked(d)


def _potrf_checked(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of a by ``potrf``, in place where a is
    Fortran-contiguous; ``NotPositiveDefinite`` on a nonpositive pivot."""
    u, info = _potrf(a, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefinite(
            "I + K is not positive definite; the Grunsky norm reaches 1"
        )
    if info < 0:
        raise ValueError(f"potrf: illegal value in argument {-info}")
    return u


@dataclass(frozen=True)
class TakagiFactor:
    """Unitary U and nonincreasing singular values with B = U diag(lam) U^t."""

    U: np.ndarray
    lam: np.ndarray
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "U", _readonly(self.U))
        object.__setattr__(self, "lam", _readonly(self.lam, float))


@dataclass(frozen=True)
class SpectralReport:
    log_det_IplusK: float
    log_det_IminusBstarB: float
    szego_energy: float
    hs_norm_sq: float
    delta_m_tail: float
    kappa_hat: float


def _grow(tail: np.ndarray, a: np.ndarray, size: int) -> np.ndarray:
    """The size x size table whose leading block is a, symmetric by construction.

    Each new row k = len(a)+1..size is computed on its columns
    ceil(k/d) <= l <= k by the recurrence of the module docstring and
    mirrored into column k at once; every entry above the diagonal that
    the recurrence reads was mirrored there by an earlier row.  Rows run
    in the same order, each over the same (p, q) in the same order,
    whatever the size of a, so growing a table rung by rung gives the
    bits of building the largest rung at once.  Entries with max(k, l) >
    d min(k, l) are exact zeros and are not computed; nor are the (p, q)
    with t_{p+q-1} = 0, nor the a_{k-p,l-q} with l - q < 1.  The table is
    returned write-protected, so ``GrunskyTable`` keeps it as is.

    Every row is BLAS work on the flat table, addressed by offset (no
    slice view, no temporary): one ``zcopy`` of t_{k+lo-1..2k-1} into
    columns lo..k, cut to the t_j with j <= d (none past row d), one
    ``zaxpy`` per (p, q) with p, q < k over columns
    max(lo, q+1)..k, and one ``zcopy`` of stride size that mirrors columns
    lo..k-1, if any, into column k.  The kernel may round c a + row with
    fused multiply-adds where NumPy rounds the product and the sum apart,
    so an entry can differ from an elementwise loop in its last bits (at
    most 4.3e-19 of max |a| at m = 512 on the test curves); the calls,
    their order and their lengths do not depend on the size of a, nor on
    the BLAS thread count at these lengths, so the bits do not either.
    """
    if size < 1:
        raise ValueError("table size must be >= 1")
    out = np.zeros((size, size), dtype=complex)
    lead = len(a)
    out[:lead, :lead] = a
    values = tail.tolist()
    nonzero = [j for j, tj in enumerate(values, 1) if tj]
    if nonzero:
        d = nonzero[-1]
        t = np.zeros(d + 1, dtype=complex)  # t[j] is t_j
        t[1:] = tail[:d]
        # (t_{p+q-1}, p, q, flat distance from a_{k-p,l-q} to a_{kl})
        pairs = [(values[j - 1], p, j + 1 - p, p * size + j + 1 - p)
                 for j in nonzero for p in range(1, j + 1)]
        flat = out.reshape(-1)  # a view: the BLAS calls write into the table in place
        for k in range(lead + 1, size + 1):
            lo = -(-k // d)
            at = (k - 1) * size - 1  # flat index of (k, l) is at + l
            # t_{k+lo-1..2k-1} into columns lo..k, of which only t_j, j <= d,
            # are not the zeros the row already holds
            run = min(k - lo + 1, d + 2 - k - lo)
            if run > 0:
                _zcopy(t, flat, run, k + lo - 1, 1, at + lo)
            for tj, p, q, back in pairs:
                if p < k and q < k:
                    # row k, columns start..k, += c a_{k-p, start-q..k-q}
                    start = lo if lo > q else q + 1  # first column with l - q >= 1
                    _zaxpy(flat, flat, k - start + 1, tj * (k - p) / k, at + start - back, 1,
                           at + start)
            if lo < k:
                _zcopy(flat, flat, k - lo, at + lo, 1, (lo - 1) * size + k - 1, size)
    out.setflags(write=False)
    return out


def _asym_defect(tail: np.ndarray, a: np.ndarray) -> float:
    """Largest relative gap between the last row of a and that row
    recomputed by the transposed recurrence

        l a_{kl} = l t_{k+l-1} + sum_{p,q>=1} t_{p+q-1} (l-q) a_{k-p,l-q},

    over the nonzero entries of the row (0 if it has none).  ``_grow``
    builds row k by the recurrence in k, so the two agree to rounding
    only if the entries it read (half of them mirrored) are right.
    """
    m = len(a)
    nonzero = np.flatnonzero(tail) + 1
    if not m or not nonzero.size:
        return 0.0
    d = int(nonzero[-1])
    t = np.zeros(max(2 * m, d + 1), dtype=complex)
    t[1:d + 1] = tail[:d]
    j = np.repeat(nonzero, nonzero)
    p = np.concatenate([np.arange(1, i + 1) for i in nonzero.tolist()])
    q = j + 1 - p
    keep = p < m
    j, p, q = j[keep], p[keep], q[keep]
    el = np.arange(1, m + 1)
    lq = el - q[:, None]  # one row of column offsets l - q per (p, q)
    weight = t[j][:, None] * np.maximum(lq, 0)
    terms = a[(m - p - 1)[:, None], np.maximum(lq - 1, 0)]
    again = t[m:2 * m] + np.sum(weight * terms, axis=0) / el
    row = a[-1]
    nz = row != 0
    return float(np.max(np.abs(again[nz] - row[nz]) / np.abs(row[nz]), initial=0.0))


def grunsky_coefficients(mp: ExteriorMap, size: int) -> GrunskyTable:
    """Table a_{kl}, 1 <= k,l <= size, by the exact recurrence.

    The recurrence of the module docstring needs no working truncation:
    the size-m table is exactly the leading block of the size-2m table.
    Entries in the wedge max(k, l) > d min(k, l) are exact zeros.  The
    table is symmetric by construction (each row is mirrored into its
    column), and ``asym_defect`` records how far its last row is from
    the same row recomputed by the transposed recurrence.
    """
    a = _grow(mp.tail, np.zeros((0, 0), dtype=complex), size)
    return GrunskyTable(size, a, _asym_defect(mp.tail, a))


def _weights(m: int) -> np.ndarray:
    """sqrt(k), k = 1..m: B = a * np.outer(w, w)."""
    return np.sqrt(np.arange(1, m + 1, dtype=float))


def _operator(a: np.ndarray) -> np.ndarray:
    """B = sqrt(k l) a_{kl} of a table array, write-protected: symmetric
    bit for bit when a is, as the weights are."""
    k = _weights(len(a))
    B = a * np.outer(k, k)
    B.setflags(write=False)
    return B


def _rungs(tail: np.ndarray, size: int):
    """(a, cho) of table size, 2 size, 4 size, ...: the table array, grown
    by its new rows only, and the factor of its I + K, extending the one
    before where ``_cholesky`` does; each rung has the bits of
    ``grunsky_coefficients`` and of ``_cholesky`` of its operator."""
    a, cho = np.zeros((0, 0), dtype=complex), None
    while True:
        a = _grow(tail, a, size)
        cho = _cholesky(a, cho if size > _DENSE_MAX else None, _weights(size))
        yield a, cho
        size *= 2


def operators(table: GrunskyTable) -> OperatorPair:
    """B of the table (``_operator``), built once and frozen, so
    ``OperatorPair`` keeps it as is; K follows from B when it is first read.
    """
    return OperatorPair(_operator(table.a))


def _k_matrix(B: np.ndarray) -> np.ndarray:
    """K = [[B1, B2], [B2, -B1]] of B = B1 + i B2."""
    B1, B2 = B.real, B.imag
    return np.block([[B1, B2], [B2, -B1]])


def takagi(B: np.ndarray) -> TakagiFactor:
    """Takagi factorization B = U diag(lam) U^t from one SVD B = W Sigma V^H.

    Since B = B^t, each cluster of equal singular values has
    conj(V_c) = W_c Z with Z symmetric and unitary, and U_c = W_c Z^{1/2}.
    Singular values at most 1e-13 max(1, sigma_max) are set to 0; their
    columns of W are kept as they are, since any orthonormal completion
    of the null space serves.  Clusters join neighbours whose relative
    gap is at most 1e-9.  Each column of U is signed so that its
    largest-modulus entry has a nonnegative real part.
    """
    import scipy.linalg  # for schur; the rest of the library never loads it

    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("B must be square")
    msize = B.shape[0]
    if not msize:
        return TakagiFactor(np.zeros((0, 0), dtype=complex), np.zeros(0), 0.0)
    if float(np.max(np.abs(B - B.T))) > 1e-12:
        raise NotSymmetric("matrix is not complex symmetric to 1e-12")
    W, lam, Vh = np.linalg.svd(B)
    lam[lam <= 1e-13 * max(1.0, float(lam[0]))] = 0.0
    pos = lam[:np.count_nonzero(lam)]
    breaks = np.nonzero(pos[:-1] - pos[1:] > 1e-9 * pos[:-1])[0] + 1
    U = W.copy()
    for c in np.split(np.arange(len(pos)), breaks) if len(pos) else ():
        Wc = W[:, c]
        P, _, Qh = np.linalg.svd(Wc.conj().T @ Vh[c].T)
        T, X = scipy.linalg.schur(P @ Qh, output="complex")
        U[:, c] = Wc @ (X * _unit_sqrt(np.diag(T))) @ X.conj().T
    lead = U[np.argmax(np.abs(U), axis=0), np.arange(msize)]
    U *= np.where(lead.real < 0, -1.0, 1.0)
    residual = float(np.max(np.abs(B - (U * lam) @ U.T)))
    return TakagiFactor(U, lam, residual)


def _unit_sqrt(t: np.ndarray) -> np.ndarray:
    """Square roots of unit-modulus t, one branch for the whole set.

    The cut sits mid-way through the widest angular gap, so eigenvalues
    that rounding splits apart (say around -1) get the same branch, and
    X sqrt(T) X^H stays the symmetric square root of a symmetric Z.
    """
    ang = np.sort(np.angle(t))
    gaps = np.diff(ang, append=ang[0] + 2.0 * np.pi)
    j = int(np.argmax(gaps))
    rot = np.exp(1j * (np.pi - ang[j] - 0.5 * gaps[j]))
    return np.sqrt(t * rot) / np.sqrt(rot)


def delta_m_tail(B: np.ndarray) -> float:
    """Weighted norm of the last row and column of B: the truncation tail.

    sqrt(sum over the edge entries of (k l)**(2 + eps) |B_kl|**2), which
    is small once the table has resolved the decay of the coefficients.
    """
    msize = len(B)
    if not msize:
        return 0.0
    # the last column above the corner, then the last row: row-major order
    # over the edge, so the sum is the same as over the masked matrix
    k = np.arange(1, msize + 1, dtype=float)
    kl = np.concatenate([k[:-1] * k[-1], k[-1] * k]) ** (2.0 + _DELTA_EPS)
    edge = np.concatenate([B[:-1, -1], B[-1]])
    return float(np.sqrt(np.sum(kl * np.abs(edge) ** 2)))


def _gram(B: np.ndarray) -> np.ndarray:
    """Upper triangle of H = B^H B, whose eigenvalues are the squares of
    the singular values of B, in Fortran order from one ``zherk``; the
    lower triangle is 0.  B is symmetric, so B.T holds it in the order
    zherk reads, with no copy.  B must not be empty."""
    return _zherk(1.0, B.T, trans=2)


def _lanczos_top(B: np.ndarray, steps: int) -> float | None:
    """Largest eigenvalue of K by Lanczos, or None if ``steps`` steps do
    not converge.

    K acts on R^{2m} as the real-linear map v -> B conj(v) acts on C^m
    (v = x + i y is the vector (x, y)), and Re(u^H v) is the inner product
    of R^{2m}: each step is one complex ``zgemv`` with the conjugated
    Lanczos vector.  The new vector is orthogonalized against all earlier
    ones twice, classical Gram-Schmidt by real ``dgemv`` on the real view
    of the stored vectors, so they stay orthonormal to rounding.  The
    start vector is fixed (seeded normal), so the value is deterministic.

    From step 8 on, every fourth step, LAPACK ``stemr`` gives the top
    eigenpair (theta, s) of the tridiagonal T_j; the Ritz vector's residual
    has norm beta_j |s_j|, and the loop stops once that is at most
    eps |theta|, which puts theta within eps |theta| of an eigenvalue of
    K.  The last step is checked too.  A zero beta_j (an invariant
    subspace, as for B = 0) passes that test at once, and step 2m, where
    T_j is K in an orthonormal basis, ends the loop.
    """
    m = len(B)
    n = 2 * m
    steps = min(steps, n)
    Q = np.empty((steps, m), dtype=complex)
    R = Q.view(float)  # row j is q_j as a vector of R^{2m}
    R[0] = np.random.default_rng(0).standard_normal(n)
    R[0] /= _dnrm2(R[0])
    d, e = np.zeros(steps), np.zeros(steps)  # diagonal and subdiagonal of T
    x = np.empty(m, dtype=complex)
    eps = float(np.finfo(float).eps)
    check = 8
    for j in range(steps):
        np.conjugate(Q[j], out=x)
        w = _zgemv(1.0, B.T, x).view(float)
        V = R[:j + 1].T  # q_0..q_j as columns, in Fortran order
        for _ in range(2):
            c = _dgemv(1.0, V, w, trans=1)
            w = _dgemv(-1.0, V, c, beta=1.0, y=w, overwrite_y=1)
            d[j] += c[j]
        beta = _dnrm2(w)
        if j + 1 in (check, steps) or beta == 0.0:
            check += 4
            # stemr overwrites its subdiagonal; e[j] is still 0 here
            _, theta, s, info = _stemr(d[:j + 1], e[:j + 1].copy(), 2, 0.0, 0.0, j + 1, j + 1)
            if info != 0:
                raise ValueError(f"stemr: info {info}")
            if beta * abs(s[j, 0]) <= eps * abs(theta[0]) or j + 1 == n:
                return float(theta[0])
        if j + 1 < steps:
            e[j] = beta
            R[j + 1] = w / beta
    return None


def _kappa(B: np.ndarray, H: np.ndarray | None = None) -> float:
    """kappa, the largest singular value of B, converged to rounding;
    ``SingularValueAtOne`` if it reaches 1 - 1e-10.

    From m = 100 on it is the largest eigenvalue of K by Lanczos
    (``_lanczos_top``, at most m/2 steps, a few dozen on curves whose top
    singular values are not clustered).  Below that, or when Lanczos has
    not converged, it is the square root of the largest eigenvalue of
    H = B^H B by LAPACK ``heevr``; H is the caller's ``_gram(B)``, or formed
    here.  An estimate within 1e-11 of 1 - 1e-10 or above does not decide
    alone: the Cholesky factor of (1 - 1e-10)**2 I - H does, and the error
    is raised when ``potrf`` meets a nonpositive pivot.
    """
    m = len(B)
    if not m:
        return 0.0
    kappa = _lanczos_top(B, m // 2) if m >= _LANCZOS_MIN else None
    if kappa is None:
        if H is None:
            H = _gram(B)
        w, _, _, _, info = _heevr(H, compute_v=0, range="I", il=m, iu=m, lower=0)
        if info != 0:
            raise ValueError(f"heevr: info {info}")
        kappa = math.sqrt(max(float(w[0]), 0.0))
    if kappa >= _KAPPA_MAX - _KAPPA_MARGIN:
        A = -(_gram(B) if H is None else H)
        A.T.reshape(-1)[::m + 1] += _KAPPA_MAX**2  # A is in Fortran order
        _, info = _zpotrf(A, lower=0, clean=0, overwrite_a=1)
        if info > 0:
            raise SingularValueAtOne(
                f"largest singular value {kappa!r} reaches 1; determinant diverges"
            )
    return kappa


def _log_det_I_minus(H: np.ndarray) -> float:
    """log det(I - H) from H = ``_gram(B)``, which is overwritten with
    I - H and factored in place by one complex ``potrf``: twice the sum
    of the logs of the factor's diagonal."""
    m = len(H)
    np.negative(H, out=H)
    H.T.reshape(-1)[::m + 1] += 1.0  # H is in Fortran order
    c, info = _zpotrf(H, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefinite("I - B*B is not positive definite")
    if info < 0:
        raise ValueError(f"zpotrf: illegal value in argument {-info}")
    return 2.0 * float(np.sum(np.log(np.diagonal(c).real)))


def spectral_report(pair: OperatorPair) -> SpectralReport:
    """Determinant, energy and truncation diagnostics for one table.

    H = B^H B comes from one ``zherk``.  kappa_hat comes from ``_kappa``
    (Lanczos on K from m = 100 on, the dense eigenvalues of H below and
    where m/2 Lanczos steps do not converge), which raises
    ``SingularValueAtOne`` first.  log det(I - B*B), and the energy
    from it, comes from the complex Cholesky factor of I - H, and
    log det(I+K) from the diagonal of the real Cholesky factor of I + K.
    The two factorizations are independent LAPACK routines on different
    matrices, so their agreement exercises the determinant identity
    det(I+K) = prod(1 - lam_j**2).  No SVD runs (see ``takagi`` for the
    factorization B = U diag(lam) U^t).
    """
    B = pair.B
    H = _gram(B) if len(B) else None
    kappa = _kappa(B, H)
    log_det_IplusK = 2.0 * float(np.sum(np.log(np.diag(_cholesky(B)[0]))))
    log_det_ImBB = _log_det_I_minus(H) if H is not None else 0.0
    return SpectralReport(
        log_det_IplusK=log_det_IplusK,
        log_det_IminusBstarB=log_det_ImBB,
        szego_energy=-0.5 * log_det_ImBB + 0.0,
        hs_norm_sq=float(np.sum(np.abs(B) ** 2)),
        delta_m_tail=delta_m_tail(B),
        kappa_hat=kappa,
    )


def szego_energy(pair: OperatorPair) -> float:
    """The ``szego_energy`` of ``spectral_report`` alone: -1/2 log det(I - B*B)
    from the complex Cholesky factor of I - H, H = B^H B, after the guard
    of ``_kappa``, so ``SingularValueAtOne`` is raised first.  Neither the
    factor of I + K nor ``delta_m_tail`` is computed."""
    B = pair.B
    if not len(B):
        return 0.0
    H = _gram(B)
    _kappa(B, H)
    return -0.5 * _log_det_I_minus(H) + 0.0


def _dilated(a: np.ndarray, r: float) -> np.ndarray:
    """The table array of the dilated curve: entry (k, l) scaled by r**-(k+l)."""
    if not (r > 1):
        raise DilationNotGreaterThanOne(f"r must be > 1, got {r}")
    k = np.arange(1, len(a) + 1, dtype=float)
    return a * r ** (-(k[:, None] + k[None, :]))


# --- table dump: '%.17g' for whole blocks of numbers -------------------------
#
# A line of the dump is laid out as pre + 8 words of 8 bytes: "k,l," in
# the pre words (one for m <= 999), then four words for re and four for
# im.  A number is laid out as its four words, NUL where a byte is unused:
#   word 0     sign, then '0', '.', '0', '0', '0' of the 0.000ddd form,
#              then the lead digit and the slot of a point after it
#   words 1-2  the other 16 digits, one byte each, with no slot between
#              them; the digits past the last one printed are NUL
#   word 3     'e', the exponent's sign and three digits; the last byte
#              is left to the caller (the separator)
# A point inside the digits (10 <= |v| < 1e17, printed without an
# exponent) moves the digits after it one byte on, the last into word 3.
# Words come from byte strings and are combined by & and | only, so the
# layout does not depend on the machine's byte order.

_CSV_BLOCK = 4096  # values per formatting pass, table entries per block of rows
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # magnitudes printed without '%.17g'
_TIE_WIDTH = 1e-6  # scaled values this close to a half-integer go to '%.17g'
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_X_LO, _X_HI = -282, 282  # decimal exponents the tables cover


def _words(rows) -> np.ndarray:
    """uint64 words holding the given 8-byte strings."""
    return np.frombuffer(b"".join(rows), dtype=np.uint64)


@functools.cache
def _dump_tables() -> dict[str, np.ndarray]:
    """Lookup tables of the dump, built on first use (4-5 ms)."""
    # hi + lo = 10**(16 - X) to about 2**-106 relative; int true division
    # is correctly rounded, so hi is the nearest double and lo the nearest
    # double to the remainder
    hi, lo = [], []
    for X in range(_X_LO, _X_HI + 1):
        num, den = (10 ** (16 - X), 1) if X <= 16 else (1, 10 ** (X - 16))
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    c = hi * _SPLIT
    big = c - (c - hi)  # Veltkamp split of hi

    place = np.array([1000, 100, 10, 1], dtype=np.int16)
    digits = np.arange(10000, dtype=np.int16)[:, None] // place % 10
    nz = digits != 0
    last = np.where(nz.any(axis=1), 4 - np.argmax(nz[:, ::-1], axis=1), 0)  # 1-4, 0 for 0000
    last = np.where(last, last + np.arange(0, 16, 4)[:, None], 0).astype(np.uint8)
    keep = np.where(np.arange(1, 17) <= np.arange(17)[:, None], 255, 0).astype(np.uint8)
    shift = np.tile(np.arange(32), (17, 1))
    for X in range(1, 17):
        shift[X, 9 + X:25] = np.arange(8 + X, 24)

    def exponent(X):
        if -4 <= X <= 16:
            return bytes(8)
        return b"e" + (b"-" if X < 0 else b"+") + (b"%02d" % abs(X)).rjust(3, b"\0") + bytes(3)

    exps = range(_X_LO, _X_HI + 1)
    return {
        "scale": np.array([hi, lo, big, hi - big]),
        # a group of four digits as the uint32 of their characters
        "quads": (digits + 48).astype(np.uint8).view(np.uint32).ravel(),
        # index (1-16) of the last nonzero digit of a group (column) at
        # place g (row) of the 16 digits, 0 for 0000
        "last": last,
        # the 4-digit groups (columns) of words 1-2 keeping digits 1..L (row)
        "keep": keep.view(np.uint32),
        # the bytes of a number (column) read to put a point after digit X (row)
        "shift": shift,
        # word 0 at index (lead * 2 + dot) * 2 + sign ...
        "head": _words((b"-" if sign else b"\0") + bytes(5) + b"%d" % lead
                       + (b"." if dot else b"\0")
                       for lead in range(10) for dot in (0, 1) for sign in (0, 1)),
        # ... or-ed with the 0.000 prefix of exponent X
        "small": _words((b"\0" + b"0." + b"0" * (-1 - X)).ljust(8, b"\0") if -4 <= X < 0
                        else bytes(8) for X in exps),
        # word 3 of exponent X
        "exponent": _words(exponent(X) for X in exps),
    }


def _scaled(ax: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Double-double yh + yl = ax * 10**(16 - X), to about 1e-14 absolute.

    Dekker's two-product gives ax * hi exactly (NumPy has no fused
    multiply-add); ax * lo adds the rest of the power.
    """
    hi, lo, hb, hs = np.take(_dump_tables()["scale"], X - _X_LO, axis=1)
    # in place, in the order of ((ab hb - p) + ab hs + asm hb) + asm hs + ax lo
    p = ax * hi
    ab = ax * _SPLIT
    ab -= ab - ax  # Veltkamp split of ax: c - (c - ax), c = ax * _SPLIT
    asm = ax - ab
    t = ab * hb
    t -= p
    hb *= asm
    ab *= hs
    t += ab
    t += hb
    hs *= asm
    t += hs
    lo *= ax
    t += lo
    yh = p + t
    p -= yh
    p += t  # t - (yh - p)
    return yh, p


def _percent_g(v: float) -> bytes:
    """'%.17g' % v in ASCII: the text of each value that ``_write_g17``
    does not decide."""
    return b"%.17g" % v


def _write_g17(x: np.ndarray, out: np.ndarray) -> None:
    """Write '%.17g' % v of each v in x as the words out[..., 0:4].

    With X the decimal exponent and D the 17-digit integer of |v| rounded
    to 17 significant digits, D is found exactly on a double-double.  Its
    16 digits after the lead are four 4-digit groups, each one uint32 of
    characters from a 10000-entry table, masked past the last digit
    printed.  Values with a point inside their digits (10 <= |v| < 1e17)
    get it by one byte gather over those values alone.  Non-finite values,
    magnitudes outside [_FAST_MIN, _FAST_MAX] and near-ties at the 18th
    digit are formatted by ``_percent_g``; nothing else is.
    """
    tab = _dump_tables()
    ax = np.abs(x)
    zero = ax == 0.0
    fast = (ax >= _FAST_MIN) & (ax <= _FAST_MAX)
    ax = np.where(fast, ax, 1.0)  # zeros print as the digits of 1.0, relabelled below
    X = np.floor(np.log10(ax)).astype(np.intp)
    yh, yl = _scaled(ax, X)
    # the exponent is decided on the unrounded value: the double nearest
    # 1e-28 must print as 9.9999999999999997e-29, not as 1e-28
    low = (yh < 1e16) | ((yh == 1e16) & (yl < 0))
    high = (yh > 1e17) | ((yh == 1e17) & (yl >= 0))
    redo = low | high
    if redo.any():
        redo = np.nonzero(redo)
        X[redo] += np.where(high[redo], 1, -1)
        yh[redo], yl[redo] = _scaled(ax[redo], X[redo])
    r = np.rint(yl)  # yh >= 2**53 is an integer
    tie = 0.5 - np.abs(yl - r) < _TIE_WIDTH
    D = (yh.astype(np.int64) + r.astype(np.int64)).view(np.uint64)
    top = D == 10**17
    D[top] = 10**16
    X += top

    # digit groups as uint64 (division by a constant is fast), read as intp
    hi9 = D // np.uint64(10**8)
    lo8 = D - hi9 * np.uint64(10**8)
    lead = hi9 // np.uint64(10**8)
    hi8 = hi9 - lead * np.uint64(10**8)
    groups = np.empty(x.shape + (4,), dtype=np.uint64)  # in the order of words 1-2
    groups[..., 0] = hi8 // np.uint64(10**4)
    groups[..., 1] = hi8 - groups[..., 0] * np.uint64(10**4)
    groups[..., 2] = lo8 // np.uint64(10**4)
    groups[..., 3] = lo8 - groups[..., 2] * np.uint64(10**4)
    groups = groups.view(np.intp)
    lead = np.where(zero, 0, lead.view(np.intp))
    last_nz = np.take(tab["last"][0], groups[..., 0])
    for g in (1, 2, 3):
        np.maximum(last_nz, np.take(tab["last"][g], groups[..., g]), out=last_nz)

    inner = (X > 0) & (X <= 16)  # the point falls inside the digits
    point_at = np.where(inner, X, 0)  # index of the digit before it
    last = np.maximum(last_nz, point_at)  # the integer digits are all printed
    # 0.000ddd has its point in the prefix, and an inner point is put below
    dot = ((X < -4) | (X >= 0)) & ~inner & (last_nz > 0)
    out[..., 0] = np.take(tab["head"], (lead * 2 + dot) * 2 + np.signbit(x))
    out[..., 0] |= np.take(tab["small"], X - _X_LO)
    quads = np.take(tab["quads"], groups)
    quads &= np.take(tab["keep"], last, axis=0)
    out.view(np.uint32)[..., 2:6] = quads
    out[..., 3] = np.take(tab["exponent"], X - _X_LO)

    text = out.view(np.uint8)
    if inner.any():
        # the digits after the point move one byte on, the last into word 3
        inner = np.nonzero(inner)
        at = point_at[inner]
        chars = np.take_along_axis(text[inner], tab["shift"][at], axis=-1)
        chars[np.arange(len(at)), 8 + at] = np.where(last[inner] > at, ord("."), 0)
        text[inner] = chars
    slow = ~(fast | zero) | tie
    if slow.any():
        for i in zip(*np.nonzero(slow)):
            s = _percent_g(x[i])
            out[i] = 0
            text[i][:len(s)] = np.frombuffer(s, dtype=np.uint8)


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values to format of a table, and the m x m map from its entries
    to them.

    The values are the upper triangle, row by row, behind one shared +0+0j
    (both sign bits clear) that every such entry maps to.
    """
    m = len(a)
    bits = a.view(np.uint64)  # re and im of a[k, l] at [k, 2l] and [k, 2l + 1]
    k = np.arange(m)
    keep = (bits[:, 0::2] | bits[:, 1::2]) != 0
    keep &= k[:, None] <= k
    slot = np.cumsum(keep, axis=None).reshape(m, m)
    slot *= keep  # 0, the shared zero, off the kept entries
    return (np.concatenate([np.zeros(1, dtype=complex), a.reshape(-1)[keep.reshape(-1)]]),
            np.maximum(slot, slot.T))


def _encode(values: np.ndarray, out: np.ndarray, pre: int) -> None:
    """Words of the re and im of each value, with the ',' between them and
    the closing newline, into row i of out from word pre on."""
    _write_g17(values.view(np.float64).reshape(-1, 2), out[:, pre:].reshape(-1, 2, 4))
    chars = out.view(np.uint8)
    chars[:, 8 * pre + 31] = ord(",")
    chars[:, -1] = ord("\n")


def _csv_bytes(table: GrunskyTable) -> bytearray:
    """The text of ``table_to_csv`` as ASCII bytes."""
    m = table.m
    width = len(str(m))
    pre = (2 * width + 9) // 8  # words of "k,l,"; a line is pre + 8 words
    k_words = _words((b"%d," % i).ljust(8 * pre, b"\0") for i in range(1, m + 1)).reshape(m, pre)
    l_words = _words((bytes(width + 1) + b"%d," % i).ljust(8 * pre, b"\0")
                     for i in range(1, m + 1)).reshape(m, pre)
    values, slot = _distinct(table.a)
    # one row of words per distinct value, room for the prefix first
    encoded = np.empty((len(values), pre + 8), dtype=np.uint64)
    for start in range(0, len(values), _CSV_BLOCK):
        _encode(values[start:start + _CSV_BLOCK], encoded[start:start + _CSV_BLOCK], pre)
    # blocks of whole table rows in one reused buffer, gathered from the
    # distinct values by take (mode "clip" writes there directly, "raise"
    # buffers its output)
    rows = max(1, min(m, _CSV_BLOCK // max(m, 1)))
    text = bytearray(8 * rows * m * (pre + 8))
    buf = np.frombuffer(text, dtype=np.uint64).reshape(rows, m, pre + 8)
    csv = bytearray(b"k,l,re_a,im_a\n")
    for start in range(0, m, rows):
        n = min(rows, m - start)
        np.take(encoded, slot[start:start + n], axis=0, out=buf[:n], mode="clip")
        buf[:n, :, :pre] = k_words[start:start + n, None] | l_words
        buf[n:] = 0  # rows past the end of the last block
        # bytes.translate deletes the NULs faster than np.compress on a
        # mask: their places repeat from row to row
        csv += text.translate(None, b"\0")
    return csv


def table_to_csv(table: GrunskyTable) -> str:
    """Row-major CSV dump with header k,l,re_a,im_a at 17 significant digits.

    Every row is byte-identical to ``"%d,%d,%.17g,%.17g\\n" % (k, l, re, im)``.
    Each distinct entry is formatted once: the table equals its transpose
    bit for bit (``GrunskyTable`` holds no other), so its upper triangle
    is formatted, with every +0+0j sharing one value, and rows gather the
    formatted words through an m x m map.  The digits of a value come
    from an exact double-double scaling by a power of ten, done on blocks
    of values at a time, and are written as four 8-byte words a number
    (see the layout above ``_CSV_BLOCK``): a line takes pre + 8 words,
    72 bytes for m <= 999, and its NUL padding is deleted block by block.
    The values that path does not decide are formatted by ``'%.17g'``
    itself (``_percent_g``): NaN and infinities, magnitudes outside
    [1e-280, 1e280], and values within 1e-6 of a tie at the 18th
    significant digit.
    """
    # the words of the dump are freed before its text is copied into a str
    return _csv_bytes(table).decode("ascii")
