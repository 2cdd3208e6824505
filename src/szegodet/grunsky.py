"""Grunsky coefficients and the spectral structure of the operators B and K.

The table a_{kl} collects the double expansion

    log((phi(zeta) - phi(z)) / (zeta - z)) = - sum a_{kl} zeta**(-k) z**(-l)

for |z|, |zeta| > 1.  The primary algorithm is branch free: it builds the
Faber polynomials of the curve through the triangular system expressing
z**k in powers of phi, expands

    Phi_k(phi(z)) = z**k + k * sum_l a_{kl} z**(-l),

and reads the coefficients off the negative powers.  A 2-D FFT of samples
of the logarithm on a torus |zeta| = |z| = radius is kept as an
independent cross-check.

B is the matrix sqrt(k*l) a_{kl}; K is the real symmetric doubling

    K = [[B1, B2], [B2, -B1]],   B = B1 + i B2,

whose eigenvalues are +/- the singular values of B.  The spectral report
takes the singular values from one complex SVD of B and checks them
against the eigenvalues of K through the determinant identity.  The
Takagi factorization B = U Lambda U^t, recovered from the K
eigenproblem, is a standalone routine that no report path calls.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    AliasingDetected,
    BranchJumpDetected,
    DilationNotGreaterThanOne,
    NotSymmetric,
    PairingFailed,
    SingularValueAtOne,
    TruncationTooSmall,
)
from .series import ExteriorMap, _phi_norm, _readonly

_DELTA_EPS = 0.1  # fixed exponent offset in the tail diagnostic


@dataclass(frozen=True)
class GrunskyTable:
    """Symmetrized m-by-m table of Grunsky coefficients.

    ``asym_defect`` records the relative asymmetry max|a - a^t| / max|a|
    seen before symmetrization.
    """

    m: int
    a: np.ndarray
    asym_defect: float = 0.0

    def __post_init__(self):
        a = _readonly(self.a)
        if a.shape != (self.m, self.m):
            raise ValueError("table must be m x m")
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class OperatorPair:
    """B = sqrt(k l) a_{kl} and its real symmetric doubling K (2m x 2m)."""

    B: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "B", _readonly(self.B))
        object.__setattr__(self, "K", _readonly(self.K, float))

    @property
    def m(self) -> int:
        return self.B.shape[0]


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


def _symmetrize(a: np.ndarray) -> tuple[np.ndarray, float]:
    defect = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    scale = max(float(np.max(np.abs(a))) if a.size else 0.0, np.finfo(float).tiny)
    return 0.5 * (a + a.T), defect / scale


def _work_order(mp: ExteriorMap, size: int, work_order: int | None) -> int:
    needed = 3 * size
    if work_order is None:
        return max(needed, mp.trunc_order)
    if work_order < needed:
        raise TruncationTooSmall(
            f"work truncation {work_order} cannot resolve z**-{size}; need >= {needed}"
        )
    return work_order


def grunsky_coefficients(mp: ExteriorMap, size: int, work_order: int | None = None) -> GrunskyTable:
    """Table a_{kl}, 1 <= k,l <= size, by the Faber route.

    The composed Faber polynomials u_k(z) = Phi_k(phi(z)) = z**k
    + k sum_l a_{kl} z**(-l) are generated by the exact recurrence

        u_{n+1} = (phi - phi0) u_n - sum_{j<n} phi_{-j} u_{n-j} - (n+1) phi_{-n},

    which is the triangular system expressing z**k in powers of phi in
    recurrence form.  Eliminating against explicitly expanded powers
    phi**j is mathematically identical but subtracts exponentially large
    multiples, so it loses digits beyond size ~ 64 on generic curves;
    the recurrence keeps every intermediate the size of the answer.  The
    known structure of u_k (monic top coefficient, no other nonnegative
    powers) is reimposed after each step.

    Each u_n is one row of size + W + 1 complex entries, column c the
    power size - c down to z**(-W).  Multiplying by phi - phi0 = z
    + sum t_k z**(-k) is a one-column shift plus one shifted add per
    nonzero tail term, so each step costs O(d (size + W)) for d nonzero
    terms instead of a full convolution, and only the last d + 2 rows
    are kept.

    The working Laurent truncation defaults to 3*size; anything smaller
    cannot resolve z**(-size) reliably and is rejected.
    """
    if size < 1:
        raise ValueError("table size must be >= 1")
    W = _work_order(mp, size, work_order)
    width = size + W + 1
    terms = [(k, t) for k, t in enumerate(mp.tail.tolist(), start=1) if t != 0.0]
    # u_n sits in row (n - 1) % depth: a step reaches back to u_{n-d} for
    # the deepest nonzero tail term t_d, so d + 2 rows suffice
    depth = min(size, terms[-1][0] + 2) if terms else 1
    u = np.zeros((depth, width), dtype=complex)
    u[0, size - 1] = 1.0  # u_1 = phi - phi0
    for k, t in terms:
        u[0, size + k] = t
    a = np.empty((size, size), dtype=complex)
    a[0] = u[0, size + 1:2 * size + 1]
    for n in range(1, size):
        prev, nxt = u[(n - 1) % depth], u[n % depth]
        nxt[:-1] = prev[1:]
        nxt[-1] = 0.0
        for k, t in terms:
            nxt[k:] += t * prev[:-k]
            if k < n:
                nxt -= t * u[(n - 1 - k) % depth]
        # zeroing z**0 performs the -(n+1) phi_{-n} subtraction, since that
        # is exactly the constant the product leaves behind; z**n .. z**1
        # vanish identically and only hold rounding junk
        nxt[size - n:size + 1] = 0.0
        nxt[size - n - 1] = 1.0
        a[n] = nxt[size + 1:2 * size + 1] / (n + 1)
    sym, defect = _symmetrize(a)
    return GrunskyTable(size, sym, defect)


def grunsky_coefficients_sampled(
    mp: ExteriorMap, size: int, radius: float, grid: int | None = None
) -> GrunskyTable:
    """Cross-check table from a 2-D DFT of the sampled logarithm.

    Samples log((phi(z1) - phi(z2)) / (z1 - z2)) on z_i = radius * e^{i a},
    with phi'(z) on the diagonal, and rescales the (k, l) DFT coefficient
    by radius**(k+l).  Raises if the principal branch jumps between grid
    neighbours or if the DFT tail band is above 1e-8 of the peak.
    """
    if radius <= 1.0:
        raise ValueError("radius must be > 1")
    if grid is None:
        grid = 1 << int(np.ceil(np.log2(max(8 * size, 64))))
    if grid < 2 * (size + 1):
        raise ValueError("grid too small to hold the requested table")
    alpha = 2.0 * np.pi * np.arange(grid) / grid
    z = radius * np.exp(1j * alpha)
    phi = _phi_norm(mp, z, 0)
    num = phi[:, None] - phi[None, :]
    den = z[:, None] - z[None, :]
    np.fill_diagonal(num, 1.0)
    np.fill_diagonal(den, 1.0)
    F = np.log(num / den)
    np.fill_diagonal(F, np.log(_phi_norm(mp, z, 1)))
    jumps = max(
        float(np.max(np.abs(np.diff(F.imag, axis=0, append=F.imag[:1, :])))),
        float(np.max(np.abs(np.diff(F.imag, axis=1, append=F.imag[:, :1])))),
    )
    if jumps > np.pi:
        raise BranchJumpDetected(
            f"imaginary part of the log jumps by {jumps:.3f} > pi on the sampling torus"
        )
    C = np.fft.fft2(F) / grid**2
    peak = float(np.max(np.abs(C)))
    half = grid // 2
    band = max(
        float(np.max(np.abs(C[half - 1:half + 1, :]))),
        float(np.max(np.abs(C[:, half - 1:half + 1]))),
    )
    # an identically small transform (circle-like data) has no tail to alias
    floor = 64 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(F))))
    if band > max(1e-8 * peak, floor):
        raise AliasingDetected(
            f"tail band {band:.3e} exceeds 1e-8 of peak {peak:.3e}; refine the grid"
        )
    k = np.arange(1, size + 1)
    a = -C[np.ix_((-k) % grid, (-k) % grid)] * radius ** (k[:, None] + k[None, :]).astype(float)
    sym, defect = _symmetrize(a)
    return GrunskyTable(size, sym, defect)


def operators(table: GrunskyTable) -> OperatorPair:
    """Assemble B = sqrt(k l) a_{kl} and K = [[B1, B2], [B2, -B1]]."""
    k = np.sqrt(np.arange(1, table.m + 1, dtype=float))
    B = table.a * np.outer(k, k)
    return OperatorPair(B, _k_matrix(B))


def _k_matrix(B: np.ndarray) -> np.ndarray:
    B1, B2 = B.real, B.imag
    return np.block([[B1, B2], [B2, -B1]])


def takagi(B: np.ndarray) -> TakagiFactor:
    """Takagi factorization B = U diag(lam) U^t via the K eigenproblem.

    An eigenvector (r; s) of K for +lam yields the column u = r + i s;
    (s; -r) is then automatically an eigenvector for -lam, which is what
    makes the doubled matrix [[R, S], [S, -R]] orthogonal.  The kernel of
    K is invariant under J:(r;s)->(s;-r), and a basis {t_j, J t_j} is
    built greedily so the zero-space columns stay unitary as well.
    """
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("B must be square")
    msize = B.shape[0]
    if msize and float(np.max(np.abs(B - B.T))) > 1e-12:
        raise NotSymmetric("matrix is not complex symmetric to 1e-12")
    K = _k_matrix(B)
    w, V = np.linalg.eigh(K)
    scale = max(float(np.max(np.abs(w))) if len(w) else 0.0, 1.0)
    ztol = 1e-13 * scale
    ws = np.sort(w)
    pair_gap = float(np.max(np.abs(ws + ws[::-1]))) if len(w) else 0.0
    if pair_gap > 1e-9 * scale:
        raise PairingFailed(f"eigenvalues fail the +/- pairing by {pair_gap:.3e}")
    pos = np.nonzero(w > ztol)[0]
    neg = np.nonzero(w < -ztol)[0]
    zer = np.nonzero(np.abs(w) <= ztol)[0]
    if len(pos) != len(neg) or len(zer) % 2 != 0:
        raise PairingFailed(
            f"multiplicities disagree: {len(pos)} positive, {len(neg)} negative, "
            f"{len(zer)} near zero"
        )
    order = pos[np.argsort(-w[pos])]
    lam = list(w[order])
    cols = [V[:msize, i] + 1j * V[msize:, i] for i in order]
    if len(zer):
        basis = V[:, zer]
        want = len(zer) // 2
        for _ in range(want):
            t = basis[:, 0]
            t = t / np.linalg.norm(t)
            Jt = np.concatenate([t[msize:], -t[:msize]])
            cols.append(t[:msize] + 1j * t[msize:])
            lam.append(0.0)
            rest = basis[:, 1:]
            rest = rest - np.outer(t, t @ rest) - np.outer(Jt, Jt @ rest)
            if rest.shape[1]:
                u_, s_, _ = np.linalg.svd(rest, full_matrices=False)
                basis = u_[:, : rest.shape[1] - 1]
    U = np.column_stack(cols) if cols else np.zeros((0, 0), dtype=complex)
    lam = np.asarray(lam, dtype=float)
    recon = (U * lam) @ U.T
    residual = float(np.max(np.abs(B - recon))) if msize else 0.0
    return TakagiFactor(U, lam, residual)


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


def spectral_report(pair: OperatorPair) -> SpectralReport:
    """Determinant, energy and truncation diagnostics for one table.

    The singular values of B come from one complex SVD (values only) and
    give kappa_hat, log det(I - B*B) and the energy; log det(I+K) comes
    from the symmetric eigenvalues of K.  The two are independent LAPACK
    routines, so their agreement exercises the determinant identity
    det(I+K) = prod(1 - lam_j**2).  No Takagi vectors are needed (see
    ``takagi`` for the full factorization).
    """
    lam = np.linalg.svd(pair.B, compute_uv=False)
    kappa = float(lam[0]) if len(lam) else 0.0
    if kappa >= 1.0 - 1e-10:
        raise SingularValueAtOne(
            f"largest singular value {kappa!r} reaches 1; determinant diverges"
        )
    wk = np.linalg.eigvalsh(pair.K)
    log_det_IplusK = float(np.sum(np.log1p(wk)))
    log_det_ImBB = float(np.sum(np.log1p(-lam**2)))
    return SpectralReport(
        log_det_IplusK=log_det_IplusK,
        log_det_IminusBstarB=log_det_ImBB,
        szego_energy=-0.5 * log_det_ImBB + 0.0,
        hs_norm_sq=float(np.sum(np.abs(pair.B) ** 2)),
        delta_m_tail=delta_m_tail(pair.B),
        kappa_hat=kappa,
    )


def dilated_table(table: GrunskyTable, r: float) -> GrunskyTable:
    """Table of the dilated curve: entry (k, l) scaled by r**-(k+l)."""
    if not (r > 1):
        raise DilationNotGreaterThanOne(f"r must be > 1, got {r}")
    k = np.arange(1, table.m + 1, dtype=float)
    scale = r ** (-(k[:, None] + k[None, :]))
    return GrunskyTable(table.m, table.a * scale)


# --- table dump: '%.17g' for whole blocks of numbers -------------------------
#
# A number is laid out as six 8-byte words, NUL where a byte is unused:
#   word 0     sign, then '0', '.', '0', '0', '0' of the 0.000ddd form,
#              then the lead digit and the slot of a point after it
#   words 1-4  the other 16 digits, each followed by the slot of a point
#   word 5     'e', the exponent's sign and three digits; the last byte
#              is left to the caller (the separator)
# Words come from byte strings and are combined by & and | only, so the
# layout does not depend on the machine's byte order.

_CSV_BLOCK = 4096  # table entries per pass; temporaries stay O(block)
_FAST_MIN, _FAST_MAX = 1e-280, 1e280  # magnitudes printed without '%.17g'
_TIE_WIDTH = 1e-6  # scaled values this close to a half-integer go to '%.17g'
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_X_LO, _X_HI = -282, 282  # decimal exponents the tables cover
_DIGITS = np.arange(1, 17)  # index of each digit of words 1-4
_FIRST = _DIGITS[::4]  # index of the first digit of each of words 1-4


def _words(rows) -> np.ndarray:
    """uint64 words holding the given 8-byte strings."""
    return np.frombuffer(b"".join(rows), dtype=np.uint64)


@functools.cache
def _dump_tables() -> dict[str, np.ndarray]:
    """Lookup tables of the dump, built on first use (a few ms)."""
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

    # digit slots as (digit, point) byte pairs, as in words 1-4
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    pairs = np.zeros((10000, 4, 2), dtype=np.uint8)
    pairs[..., 0] = digits + 48
    last = np.full(10000, -16)
    for j in range(4):
        last[digits[:, j] != 0] = j
    mark = np.arange(17)[:, None]
    keep = np.zeros((17, 16, 2), dtype=np.uint8)
    keep[..., 0] = 255 * (_DIGITS <= mark)
    point = np.zeros((17, 16, 2), dtype=np.uint8)
    point[..., 1] = 46 * (_DIGITS == mark)

    def exponent(X):
        if -4 <= X <= 16:
            return bytes(8)
        return b"e" + (b"-" if X < 0 else b"+") + (b"%02d" % abs(X)).rjust(3, b"\0") + bytes(3)

    exps = range(_X_LO, _X_HI + 1)
    return {
        "scale": np.array([hi, lo, big, hi - big]),
        # a group of four digits, each followed by an empty point slot
        "pairs": pairs.reshape(10000, 8).view(np.uint64).ravel(),
        # offset of the last nonzero digit in a group, -16 for 0000
        "last": last,
        # words 1-4 (rows) keeping digits 1..mark (column)
        "keep": keep.reshape(17, 32).view(np.uint64).T.copy(),
        # words 1-4 (rows) with a point after digit mark (column; 0 has none)
        "point": point.reshape(17, 32).view(np.uint64).T.copy(),
        # word 0 at index (lead * 2 + dot) * 2 + sign ...
        "head": _words((b"-" if sign else b"\0") + bytes(5) + b"%d" % lead
                       + (b"." if dot else b"\0")
                       for lead in range(10) for dot in (0, 1) for sign in (0, 1)),
        # ... or-ed with the 0.000 prefix of exponent X
        "small": _words((b"\0" + b"0." + b"0" * (-1 - X)).ljust(8, b"\0") if -4 <= X < 0
                        else bytes(8) for X in exps),
        # word 5 of exponent X
        "exponent": _words(exponent(X) for X in exps),
    }


def _scaled(ax: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Double-double yh + yl = ax * 10**(16 - X), to about 1e-14 absolute.

    Dekker's two-product gives ax * hi exactly (NumPy has no fused
    multiply-add); ax * lo adds the rest of the power.
    """
    hi, lo, hb, hs = np.take(_dump_tables()["scale"], X - _X_LO, axis=1)
    p = ax * hi
    c = ax * _SPLIT
    ab = c - (c - ax)
    asm = ax - ab
    t = ((ab * hb - p) + ab * hs + asm * hb) + asm * hs + ax * lo
    yh = p + t
    return yh, t - (yh - p)


def _write_g17(x: np.ndarray, out: np.ndarray) -> None:
    """Write '%.17g' % v of each v in x as the words out[..., 0:6].

    With X the decimal exponent and D the 17-digit integer of |v| rounded
    to 17 significant digits, D is found exactly on a double-double.
    Non-finite values, magnitudes outside [_FAST_MIN, _FAST_MAX] and
    near-ties at the 18th digit are formatted by '%.17g' itself.
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
    redo = np.nonzero(low | high)
    if redo[0].size:
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
    groups = np.empty((4,) + x.shape, dtype=np.uint64)
    groups[0] = hi8 // np.uint64(10**4)
    groups[1] = hi8 - groups[0] * np.uint64(10**4)
    groups[2] = lo8 // np.uint64(10**4)
    groups[3] = lo8 - groups[2] * np.uint64(10**4)
    groups = groups.view(np.intp)
    lead = np.where(zero, 0, lead.view(np.intp))
    first = _FIRST.reshape((4,) + (1,) * x.ndim)
    last_nz = np.maximum((np.take(tab["last"], groups) + first).max(axis=0), 0)

    point_at = np.where((X > 0) & (X <= 16), X, 0)  # index of the digit before the point
    point = ((X < -4) | (X >= 0)) & (last_nz > point_at)  # 0.000ddd has it in the prefix
    last = np.maximum(last_nz, point_at)
    out[..., 0] = np.take(tab["head"], (lead * 2 + (point & (point_at == 0))) * 2 + np.signbit(x))
    out[..., 0] |= np.take(tab["small"], X - _X_LO)
    words = np.take(tab["pairs"], groups)
    words &= np.take(tab["keep"], last, axis=1)
    words |= np.take(tab["point"], np.where(point, point_at, 0), axis=1)
    out[..., 1:5] = np.moveaxis(words, 0, -1)
    out[..., 5] = np.take(tab["exponent"], X - _X_LO)

    text = out.view(np.uint8)
    for i in zip(*np.nonzero(~(fast | zero) | tie)):
        s = ("%.17g" % x[i]).encode("ascii")
        out[i] = 0
        text[i][:len(s)] = np.frombuffer(s, dtype=np.uint8)


def table_to_csv(table: GrunskyTable) -> str:
    """Row-major CSV dump with header k,l,re_a,im_a at 17 significant digits.

    Every row is byte-identical to ``"%d,%d,%.17g,%.17g\\n" % (k, l, re, im)``.
    The digits of a value come from an exact double-double scaling by a
    power of ten, done on blocks of the table at a time.  The values that
    path does not decide are formatted by ``'%.17g'`` itself: NaN and
    infinities, magnitudes outside [1e-280, 1e280], and values within
    1e-6 of a tie at the 18th significant digit.
    """
    m = table.m
    width = len(str(m))
    size = 8 * ((2 * width + 9) // 8)  # bytes of "k,l," in whole words
    k_words = _words((b"%d," % i).ljust(size, b"\0") for i in range(1, m + 1)).reshape(m, -1)
    l_words = _words((bytes(width + 1) + b"%d," % i).ljust(size, b"\0")
                     for i in range(1, m + 1)).reshape(m, -1)
    flat = table.a.reshape(-1)
    parts = ["k,l,re_a,im_a\n"]
    for start in range(0, m * m, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, m * m)
        idx = np.arange(start, stop)
        buf = np.empty((stop - start, size // 8 + 12), dtype=np.uint64)
        buf[:, :size // 8] = np.take(k_words, idx // m, axis=0) | np.take(l_words, idx % m, axis=0)
        _write_g17(flat[start:stop].view(np.float64).reshape(-1, 2),
                   buf[:, size // 8:].reshape(-1, 2, 6))
        text = buf.view(np.uint8)
        text[:, size + 47] = ord(",")
        text[:, -1] = ord("\n")
        text = text.ravel()
        parts.append(np.compress(text != 0, text).tobytes().decode("ascii"))
    return "".join(parts)
