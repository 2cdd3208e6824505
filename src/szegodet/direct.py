"""Finite-n determinants from the definition, by spectral quadrature.

The moment matrix M_{jk} = int zeta^j conj(zeta)^k e^g |dzeta| is never
formed.  The weight splits into its positive part w e^{Re g} and the
phase e^{i Im g}.  The positive node-by-monomial array
A[i, j] = sqrt(w_i e^{Re g_i}) zeta_i^j is factored orthogonally,
A = Q^t R with Q row-major, and

    log det M = 2 sum_j log R_jj + log det C,    C = Q diag(e^{i Im g}) Q^H.

The factorization runs as a Gram-Schmidt recurrence in the Krylov style
(multiply the latest orthonormal column pointwise by zeta, orthogonalize
twice, normalize), which produces exactly the triangular diagonal of R
without ever propagating the exponentially ill-conditioned monomial
coefficients.  The norm h_k removed at step k is R_kk / R_{k-1,k-1}, and
step k does not depend on the final degree, so one pass to n gives the
prefix vector

    2 sum_{i<j} log R_ii = 2 sum_{i<j} sum_{k<=i} log h_k,    j = 1..n,

that is every determinant of a range at the cost of its largest one
(Brubeck, Nakatsukasa & Trefethen, "Vandermonde with Arnoldi", SIAM
Rev. 63, 2021).

For a real symbol C = I and the phase term is skipped.  Otherwise C is
an n-by-n compression of a unitary diagonal, so ||C|| <= 1 however badly
the monomials are conditioned, and the leading j-block of M only sees
the leading j-block of C.  Gaussian elimination without pivoting gives
log det C_j for every j as a running sum of pivot logs, again one pass
for the whole range.  When max |Im g| < pi/2 the Hermitian part of C is
positive definite, so every pivot has positive real part, elimination
without pivoting is stable, and the sum of principal pivot logs is the
branch of log D_n that is continuous along t -> t Im g from the real
symbol at t = 0; the asymptotic prediction takes the same branch.  Past
pi/2 the same formula runs unchanged without that guarantee: a zero
pivot raises ZeroDeterminant, and grid refinement still gates
convergence.

``log_det_range`` refines the grid until the whole requested range
agrees between two consecutive node counts, so every row of a range
carries the same ``N_nodes``; a row below the top of the range may sit
on a finer grid than it would alone.  ``log_det_Dn`` is the one-row case.

All quadrature runs on the cap-normalized curve; n**2 log cap is added
analytically at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, NotConverged, ZeroDeterminant
from .predict import LOG_2PI
from .series import ExteriorMap, _phi_norm, _unchecked_map, dilate_map
from .symbol import FourierSymbol, theta_values, zero_symbol

N_CAP = 1 << 20
REFINE_TOL = 1e-8
_REAL_TOL = 1e-13


@dataclass(frozen=True)
class DirectResult:
    n: int
    N_nodes: int
    log_Dn: complex
    method: str  # "qr_positive" (real symbol) or "qr_phase" (complex symbol)
    converged: bool


@dataclass(frozen=True)
class EnergyCurve:
    n: int
    r_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if np.any(np.diff(r) <= 0):
            raise ValueError("r_grid must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("energy values must be finite")
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class ConvexityReport:
    r_interior: np.ndarray
    estimates: np.ndarray  # finite-difference r E'' + E' at interior nodes
    min_estimate: float
    tol_fd: float
    flagged: bool
    energy_at_rmax: float


def _nodes_and_gvals(mp: ExteriorMap, sym: FourierSymbol, N: int):
    theta = 2.0 * np.pi * np.arange(N) / N
    z = np.exp(1j * theta)
    pts = _phi_norm(mp, z, 0)
    w = np.abs(_phi_norm(mp, z, 1)) * (2.0 * np.pi / N)
    return pts, w, theta_values(sym, theta)


def _qr_prefix(z: np.ndarray, s: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """log D_j of the weight s**2, j = 1..n, from one Gram-Schmidt pass, and Q.

    Row j of Q (shape (n, N)) is s*p_j(zeta) for the orthonormal
    polynomial p_j of degree j.  The norm h_j removed at step j is
    R_jj / R_{j-1,j-1}, so log R_jj is the running sum of log h and
    log D_j = 2 sum_{i<j} log R_ii is the running sum of that.
    One reorthogonalization pass keeps Q close to unitary regardless of
    the conditioning of the monomial basis.  Q is row-major so the
    projections read the basis in place instead of copying its adjoint.
    """
    N = len(z)
    v = s.astype(complex)
    nrm = float(np.linalg.norm(v))
    if not nrm > 0:
        raise ZeroDeterminant("zero total weight")
    Q = np.empty((n, N), dtype=complex)
    Q[0] = v / nrm
    log_h = np.empty(n)
    log_h[0] = np.log(nrm)
    for j in range(1, n):
        B = Q[:j]
        v = z * Q[j - 1]
        for _ in range(2):
            v -= (B @ v.conj()).conj() @ B
        h = float(np.linalg.norm(v))
        if not (h > 0 and np.isfinite(h)):
            raise ZeroDeterminant("quadrature nodes do not support this degree")
        Q[j] = v / h
        log_h[j] = np.log(h)
    return 2.0 * np.cumsum(np.cumsum(log_h)), Q


def _phase_prefix(Q: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """log det C_j for j = 1..n, where C = Q diag(phase) Q^H.

    Gaussian elimination without pivoting makes pivot k the ratio
    det C_{k+1} / det C_k, so the running sum of the principal pivot logs
    is every leading log det at once.  The module docstring gives the
    condition |arg phase| < pi/2 under which this is stable and follows
    the continuous branch.
    """
    C = (Q * phase) @ Q.conj().T
    n = len(C)
    piv = np.empty(n, dtype=complex)
    for k in range(n):
        p = C[k, k]
        if not abs(p) > 0:
            raise ZeroDeterminant("a leading minor of the phase factor vanished")
        piv[k] = p
        C[k + 1 :, k + 1 :] -= np.outer(C[k + 1 :, k] / p, C[k, k + 1 :])
    return np.cumsum(np.log(piv))


def _range_at(mp: ExteriorMap, sym: FourierSymbol, n_lo: int, n_hi: int, N: int):
    """log D_n for n = n_lo..n_hi on one N-node grid, and the method used."""
    pts, w, g = _nodes_and_gvals(mp, sym, N)
    s = np.sqrt(w * np.exp(g.real))
    logdets, Q = _qr_prefix(pts, s, n_hi)
    vals, method = logdets.astype(complex), "qr_positive"
    gscale = float(np.max(np.abs(g))) if len(g) else 0.0
    if float(np.max(np.abs(g.imag))) > _REAL_TOL * max(1.0, gscale):
        vals += _phase_prefix(Q, np.exp(1j * g.imag))
        method = "qr_phase"
    return vals[n_lo - 1 :], method


def _start_N(n: int) -> int:
    N = max(512, 8 * n)
    return 1 << int(np.ceil(np.log2(N)))


def log_det_range(
    mp: ExteriorMap, sym: FourierSymbol, n_lo: int, n_hi: int, N: int | None = None
) -> list[DirectResult]:
    """log D_n[e^g] for every n in n_lo..n_hi, all on one grid.

    With N omitted the node count starts at max(512, 8 n_hi) and doubles
    until two consecutive grids agree to 1e-8 on every n of the range
    (error NotConverged past 2**20 nodes).  An explicit N (at least
    4 n_hi) is honored as stated and each row's N vs 2N agreement only
    sets its ``converged`` flag.
    """
    if n_lo < 1:
        raise ValueError("n must be >= 1")
    if n_hi < n_lo:
        raise ValueError(f"empty range {n_lo}..{n_hi}")
    ns = np.arange(n_lo, n_hi + 1)
    cap_terms = ns * ns * float(np.log(mp.cap))
    capless = _unchecked_map(1.0, mp.phi0, mp.tail)
    if N is not None:
        if N < 4 * n_hi:
            raise ValueError(f"N must be >= 4n = {4 * n_hi}")
        size = N
        vals, method = _range_at(capless, sym, n_lo, n_hi, N)
        # refinement check halves instead of doubling once N hits the cap
        N_check = 2 * N if 2 * N <= N_CAP else N // 2
        vals2, _ = _range_at(capless, sym, n_lo, n_hi, N_check)
        agree = np.abs(vals2 - vals) <= REFINE_TOL
    else:
        size = _start_N(n_hi)
        vals, _ = _range_at(capless, sym, n_lo, n_hi, size)
        while True:
            size *= 2
            prev = vals
            vals, method = _range_at(capless, sym, n_lo, n_hi, size)
            if np.max(np.abs(vals - prev)) <= REFINE_TOL:
                break
            if 2 * size > N_CAP:
                raise NotConverged(f"no convergence up to N = {N_CAP}")
        agree = np.ones(len(ns), dtype=bool)
    return [
        DirectResult(int(n), size, complex(v + c), method, bool(a))
        for n, v, c, a in zip(ns, vals, cap_terms, agree)
    ]


def log_det_Dn(
    mp: ExteriorMap, sym: FourierSymbol, n: int, N: int | None = None
) -> DirectResult:
    """log D_n[e^g] at finite n with a grid-refinement convergence check.

    The one-row case of ``log_det_range``: the node count starts at
    max(512, 8n) and doubles until two consecutive grids agree to 1e-8;
    an explicit N >= 4n is honored and only sets ``converged``.
    """
    return log_det_range(mp, sym, n, n, N)[0]


def quotient_ratio(mp: ExteriorMap, sym: FourierSymbol, n: int):
    """cap**(-2n-1) D_{n+1}/D_n from one direct evaluation of both.

    For real symbols this is the reciprocal square of the leading
    orthonormal-polynomial coefficient, and it approaches 2*pi*e^{a0/2}.
    """
    b, a = log_det_range(mp, sym, n, n + 1)
    val = np.exp(a.log_Dn - b.log_Dn - (2 * n + 1) * np.log(mp.cap))
    if abs(val.imag) <= 1e-12 * max(1.0, abs(val.real)):
        return float(val.real)
    return complex(val)


def finite_energy(mp: ExteriorMap, n: int, r_grid) -> EnergyCurve:
    """E_n(r) = log Z_n(dilated curve) - n log 2pi - n**2 log cap.

    Dilation keeps the cap, so the normalization uses the base curve's
    capacity, matching the convention that treats cap as 1 after scaling.
    E_n at r = 1 is defined only as a limit and is not evaluated here.
    """
    r = np.asarray(r_grid, dtype=float)
    vals = np.empty(len(r))
    zero = zero_symbol()
    for i, ri in enumerate(r):
        res = log_det_Dn(dilate_map(mp, ri), zero, n)
        vals[i] = res.log_Dn.real - n * LOG_2PI - n * n * float(np.log(mp.cap))
    return EnergyCurve(n, r, vals)


def bruteforce_Dn(mp: ExteriorMap, sym: FourierSymbol, n: int, grid: int = 256):
    """Andrieff-identity oracle: direct n-fold trapezoidal quadrature.

    Evaluates (1/n!) int prod_{mu != nu} |z_mu - z_nu| prod e^g prod |dz|
    on the theta grid for n in {1, 2, 3} and returns the log.  The n-fold
    sum is reorganized through pair matrices so the n = 3 case is a single
    matrix product, but every grid triple still enters exactly once.
    """
    if n not in (1, 2, 3):
        raise ValueError("bruteforce path only supports n in {1, 2, 3}")
    if grid < 64:
        raise ValueError("grid must be >= 64")
    theta = 2.0 * np.pi * np.arange(grid) / grid
    z = np.exp(1j * theta)
    pts = _phi_norm(mp, z, 0)
    w = np.abs(_phi_norm(mp, z, 1)) * (2.0 * np.pi / grid)
    g = theta_values(sym, theta)
    u = w * np.exp(g)
    if float(np.max(np.abs(u.imag))) <= _REAL_TOL * float(np.max(np.abs(u))):
        u = u.real
    if n == 1:
        total = np.sum(u)
    else:
        P = np.abs(pts[:, None] - pts[None, :]) ** 2
        if n == 2:
            total = u @ P @ u / 2.0
        else:
            Q = (P * u[None, :]) @ P
            total = u @ (P * Q) @ u / 6.0
    val = np.log(total + 0j) + n * n * np.log(mp.cap)
    if abs(val.imag) <= 1e-12:
        return float(val.real)
    return complex(val)


def convexity_check(curve: EnergyCurve, tol_fd: float = 1e-4) -> ConvexityReport:
    """Finite-difference estimates of r E'' + E' on a log-uniform grid.

    In s = log r the combination equals E''(s)/r, so a centered second
    difference per interior node suffices.  Estimates below -tol_fd are
    flagged; the energy at the largest r is reported for the decay check.
    """
    r = curve.r_grid
    if len(r) < 5:
        raise GridTooCoarse("need at least 5 grid points")
    s = np.log(r)
    h = np.diff(s)
    if np.max(np.abs(h - h[0])) > 1e-8 * abs(h[0]):
        raise GridTooCoarse("grid must be uniform in log r")
    E = curve.values
    d2 = (E[2:] - 2.0 * E[1:-1] + E[:-2]) / h[0] ** 2
    est = d2 / r[1:-1]
    return ConvexityReport(
        r_interior=r[1:-1],
        estimates=est,
        min_estimate=float(np.min(est)),
        tol_fd=tol_fd,
        flagged=bool(np.min(est) < -tol_fd),
        energy_at_rmax=float(E[-1]),
    )
