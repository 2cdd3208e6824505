"""Finite-n determinants from the definition, by spectral quadrature.

The moment matrix M_{jk} = int zeta^j conj(zeta)^k e^g |dzeta| is never
formed.  Any basis of polynomials that is monic, of degree j in column j,
differs from the monomials by a unit upper-triangular matrix, which
changes no leading minor of the Gram matrix; so D_n is also the Gram
determinant of the Faber polynomials F_0..F_{n-1} of the exterior map.
On the curve they are

    F_j(phi(z)) = z**j + j sum_l a_{jl} z**(-l),    |z| = 1,

close to e^{ij theta} by the Grunsky inequality, so the node-by-degree
array is well conditioned, where the monomials are exponentially
ill-conditioned.  ``_faber_basis`` evaluates it at the nodes by the
pointwise Faber recurrence.  The homogeneous solutions of that
recurrence are w**j over the roots w of phi(w) = zeta, and for zeta on
the curve all of them lie in |w| <= 1, so rounding errors are not
amplified along the recurrence.

The weight splits into its positive part w e^{Re g} and the phase
e^{i Im g}.  The array A[i, j] = sqrt(w_i e^{Re g_i}) F_j(zeta_i) is
factored by Householder QR, A = QR with Q N-by-n, and

    log det M = 2 sum_j log |R_jj| + log det C,    C = Q^t diag(e^{i Im g}) conj(Q).

The first j columns of R are the QR factor of the first j columns of A,
so one factorization to n gives the prefix vector 2 sum_{i<j} log |R_ii|,
j = 1..n, that is every determinant of a range at the cost of its
largest one.  A Cholesky factor of the Gram matrix A^H A would give the
same R, but from a matrix whose condition number is the square of that
of A; Householder works on A itself.  Arnoldi orthogonalization
(Brubeck, Nakatsukasa & Trefethen, "Vandermonde with Arnoldi", SIAM
Rev. 63, 2021) would build the basis degree by degree; with the whole
Faber array known up front, one blocked LAPACK factorization replaces
its n sequential steps of matrix-vector products.

For a real symbol C = I and the phase term is skipped.  Otherwise C is
an n-by-n compression of a unitary diagonal, so ||C|| <= 1, and the
leading j-block of M only sees the leading j-block of C.  Householder
fixes each column of Q only up to a unit phase, and such phases leave
every leading minor of C unchanged.  Gaussian elimination without
pivoting (blocked, ``_phase_prefix``) gives log det C_j for every j as
a running sum of pivot logs, again one pass for the whole range.  When
max |Im g| < pi/2 the Hermitian part of C is positive definite, so
every pivot has positive real part, elimination without pivoting is
stable, and the sum of principal pivot logs is the branch of log D_n
that is continuous along t -> t Im g from the real symbol at t = 0; the
asymptotic prediction takes the same branch.  Past pi/2 the same formula runs unchanged
without that guarantee: a zero pivot raises ZeroDeterminant, and grid
refinement still gates convergence.

The grids of a ladder are nested: the 2N nodes are the N nodes and N
odd ones.  The rows of A carry sqrt(|phi'| e^{Re g}) without the 2pi/N
of the trapezoidal weight, which scales each |R_jj| by sqrt(2pi/N) only
when the logs are taken, so the N-grid array is exactly the even rows
of the 2N-grid array, and

    A_2N^H A_2N = R_N^H R_N + A_odd^H A_odd:

R_2N is the R of [R_N; A_odd], one triangular-pentagonal QR (LAPACK
tpqrt) at the cost of a QR of the N new rows, and the Faber basis is
evaluated at the odd nodes only.  With A_2N = [Q_N, 0; 0, I] [R_N; A_odd]
and [R_N; A_odd] = Q' R_2N, Q_2N = [Q_N Q'_top; Q'_bot], so the phase
factor, kept un-eliminated from grid to grid, extends as

    C_2N = Q'_top^t C_N conj(Q'_top) + Q'_bot^t diag(e^{i Im g_odd}) conj(Q'_bot),

[Q'_top; Q'_bot] = Q'[I; 0] from tpmqrt: Q_2N itself is never formed.
The first grid of a ladder takes the same step from the empty grid,
R = 0 and C = 0, with all of its nodes as new rows: its R is the R of
[0; A_N], and its C is the second term alone.  So every grid is one
tpqrt per map (and one tpmqrt on the phase path), at about the cost of
a QR of its new rows.  The real/phase decision is made once per ladder,
on its first grid.

Every direct determinant runs through one grid evaluator and one N
ladder.  ``_grid_prefix`` evaluates a run of grids N, 2N, ... for a stack
of maps, given as Laurent data (phi0, tail) with a leading axis, and for
the values of g at the nodes of each grid: the nodes and weights of
every map in one Horner pass, the Faber basis of every map at the new
nodes of the whole run in one pass of ``_faber_basis`` over a (map,
node, degree) array, then per grid and map one ``ztpqrt`` (and
``ztpmqrt``) of ``_linalg.flapack``.  ``_faber_basis`` takes one Python
step per degree whatever the number of nodes, and every ladder evaluates
at least two grids (an automatic one to gate, an explicit N the N and 2N
grids), so a ladder's first run holds its first two grids and each later
run the one grid of twice the last one's nodes.  The stack is built in
blocks of at most ``_STACK_ENTRIES`` entries, so its memory does not
grow with the number of maps.  ``_refine`` starts at N = 2 n_hi + 64
nodes, rounded up to a multiple of 8, and N is doubled; each item on it
keeps its own two-grid gate and leaves once its two latest grids agree,
and only the items still on it are evaluated on the next grid, each
extending its own factors, held by ``_refine`` from run to run.
``log_det_range`` is one map and one item, its whole n range
(``log_det_Dn`` is a range of one row); an explicit N runs its N and 2N
grids as one run (N // 2 and N once 2N passes N_CAP).  ``finite_energy``
needs log D_n of the zero symbol on the level curves phi_r(z) =
phi(r z)/r, with Laurent data phi0/r and t_k / r**(k+1)
(``series._dilated_coeffs``, which ``dilate_map`` uses too): one map and
one item per r, so every r settles on the grid its own ``log_det_Dn``
call would.  Its r run in ladders of as many r as have n-by-n factors
within ``_STACK_ENTRIES``, so the factors held from grid to grid do not
grow with the number of r either.

Up to degree n_hi the Gram entries are trigonometric polynomials of
degree about 2 n_hi times an analytic weight whose Fourier tail decays
like rho**k (rho the critical radius of the exterior map), so the
trapezoidal rule converges geometrically past 2 n_hi nodes (Trefethen &
Weideman, SIAM Rev. 56, 2014); the level curve phi_r has critical
radius rho/r, so it converges on that at least as fast.  That error is
not monotone in N, so under slower growth two grids can agree to the
tolerance while both are off; doubling squares the error at each step,
which keeps the gate honest near rho = 1.  Every row of a range carries
the same ``N_nodes``; a row below the top of the range may sit on a
finer grid than it would alone.

All quadrature runs on the cap-normalized curve; n**2 log cap is added
analytically at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import fblas, flapack
from .errors import (
    DilationNotGreaterThanOne,
    GridTooCoarse,
    NotConverged,
    ZeroDeterminant,
)
from .predict import LOG_2PI
from .series import (
    ExteriorMap,
    _dilated_coeffs,
    _phi_at,
    _unit_points,
)
from .symbol import FourierSymbol, theta_values

N_CAP = 1 << 20
REFINE_TOL = 1e-8
_REAL_TOL = 1e-13
_NO_SUPPORT = "quadrature nodes do not support this degree"
# complex entries of one stacked Faber basis in finite_energy (256 KiB); the
# node arrays of the block about double its working set at small n
_STACK_ENTRIES = 1 << 14
_TP_BLOCK = 16  # block size of tpqrt
_LU_BLOCK = 32  # columns per block of the phase factor's elimination


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


def _faber_basis(phi0, tail, zeta: np.ndarray, n: int) -> np.ndarray:
    """F_0..F_{n-1} of the map (phi0, tail) at the points zeta, as the
    columns of an N-by-n Fortran array.

    With phi = z + phi0 + sum t_k z**(-k) the pointwise recurrence is

        F_0 = 1,  F_1 = zeta - phi0,
        F_{j+1} = (zeta - phi0) F_j - sum_{k=1}^{min(j-1, d)} t_k F_{j-k} - (j+1) t_j,

    t_j = 0 past the last nonzero tail term t_d.  Column j-k pairs with
    t_k, so the sum is one matrix-vector product over a contiguous block
    of at most d columns.  phi0 and tail are those of the cap-normalized
    map.

    A stack of maps runs through the same recurrence at once: leading
    axes of phi0, tail and zeta (the last axis of tail holds t_k, that
    of zeta the nodes) index the maps, the result is (..., N, n), and
    each N-by-n block is Fortran-ordered.
    """
    t = np.asarray(tail)
    d = t.shape[-1]
    while d and not t[..., d - 1].any():
        d -= 1
    t = t[..., :d]
    t_rev = t[..., ::-1, None].copy()  # t_d .. t_1, one column per map
    const = (t * np.arange(2, d + 2))[..., None]  # (j+1) t_j of each map
    F = np.empty(zeta.shape[:-1] + (n, zeta.shape[-1]), dtype=complex).swapaxes(-1, -2)
    x = zeta - np.asarray(phi0)[..., None]
    F[..., 0] = 1.0
    if n > 1:
        F[..., 1] = x
    acc = np.empty(F.shape[:-1] + (1,), dtype=complex)
    tail_sum = acc[..., 0]  # sum_k t_k F_{j-k} at the nodes of each map
    for j in range(1, n - 1):
        col = F[..., j + 1]
        np.multiply(x, F[..., j], out=col)
        K = min(j - 1, d)
        if K:
            np.matmul(F[..., j - K : j], t_rev[..., d - K :, :], out=acc)
            col -= tail_sum
        if j <= d:
            col -= const[..., j - 1, :]
    return F


def _diag_prefix(diag: np.ndarray) -> np.ndarray:
    """2 sum_{i<j} log |R_ii| for j = 1..n, from the diagonal of each R.

    The diagonals run along the last axis.  A row comes out NaN when the
    nodes do not support degree n: some |R_jj| not positive and finite.
    """
    r = np.abs(diag)
    bad = ~((r > 0) & np.isfinite(r)).all(axis=-1)
    failed = bad.any()
    if failed:
        r[bad] = 1.0
    logdets = np.log(r).cumsum(axis=-1)
    logdets *= 2.0
    if failed:
        logdets[bad] = np.nan
    return logdets


def _phase_prefix(C: np.ndarray) -> np.ndarray:
    """log det C_j for j = 1..n of the n-by-n phase factor C, left unchanged.

    Gaussian elimination without pivoting makes pivot k the ratio
    det C_{k+1} / det C_k, so the running sum of the principal pivot logs
    is every leading log det at once.  The elimination is blocked: per
    block of ``_LU_BLOCK`` columns, an unblocked elimination of the
    diagonal block, two triangular solves for the blocks beside it and
    one matrix product for the trailing matrix.  The module docstring
    gives the condition |arg phase| < pi/2 under which this is stable and
    follows the continuous branch.
    """
    A = np.array(C, dtype=complex)  # L below the diagonal, U on and above it
    n = len(A)
    for k in range(0, n, _LU_BLOCK):
        e = min(k + _LU_BLOCK, n)
        for j in range(k, e):
            p = A[j, j]
            if not abs(p) > 0:
                raise ZeroDeterminant("a leading minor of the phase factor vanished")
            A[j + 1 : e, j] /= p
            A[j + 1 : e, j + 1 : e] -= np.outer(A[j + 1 : e, j], A[j, j + 1 : e])
        if e < n:
            D = A[k:e, k:e]
            A[k:e, e:] = fblas.ztrsm(1.0, D, A[k:e, e:], lower=1, diag=1)  # L_11^-1 C_12
            A[e:, k:e] = fblas.ztrsm(1.0, D, A[e:, k:e], side=1)  # C_21 U_11^-1
            A[e:, e:] -= A[e:, k:e] @ A[k:e, e:]
    return np.cumsum(np.log(np.diagonal(A)))


def _grid_prefix(phi0, tail, gs, n: int, prev=None):
    """log D_j[e^g], j = 1..n, on each grid of a run N, 2N, 4N, ... for
    each of k maps, the method, and the factors of the run's last grid.

    phi0 (k,) and tail (k, d) are cap-normalized, as ``_phi_at`` takes
    them; gs holds the symbol at the nodes of each grid of the run, each
    grid twice the one before.  prev is the factors this function returned
    for the same maps on the grid before the run (the even nodes of its
    first grid), or None: the run then starts a ladder, its first grid
    extends the empty grid (R = 0, C = 0) with all its nodes as new rows,
    and the phase path is taken when Im g there fails the ``_REAL_TOL``
    test.  Every other grid's new rows are its odd nodes.  Each grid is
    one step: its new rows are scaled by sqrt(|phi'| e^{Re g}) and
    factored onto the running R of each map (``_extend``), and the
    diagonal of each R is scaled by sqrt(2pi/N), the trapezoidal weight.

    One ``_faber_basis`` pass per block of maps runs over the new nodes of
    the whole run, the grids in order.  A grid's rows have the bits of a
    pass over its own new nodes when N is a multiple of 4, as on every
    automatic ladder; otherwise the last rows of a block of the BLAS
    matrix-vector kernel can round differently in the last bits.

    Returns one k-by-n complex array per grid, a row NaN where the nodes
    do not support degree n; the method; and the factors (R, C) of the
    last grid: the k stacked n-by-n triangular factors, and on the phase
    path the un-eliminated phase factors, else None.  prev is left
    unchanged.
    """
    k = len(phi0)
    R = np.zeros((k, n, n), dtype=complex).swapaxes(-1, -2)  # each R[i] Fortran-ordered
    if prev is None:
        g = gs[0]
        im = float(np.abs(g.imag).max())
        # the threshold is at least _REAL_TOL, so max |g| is needed only above it
        phase = im > _REAL_TOL and im > _REAL_TOL * max(1.0, float(np.abs(g).max()))
        C = np.empty((k, n, n), dtype=complex) if phase else None
    else:
        R[:] = prev[0]
        C = None if prev[1] is None else prev[1].copy()
        phase = C is not None
    # each grid's new rows: every node of a grid that extends the empty
    # grid, the odd nodes of any other; z holds those of the whole run
    from_empty = [prev is None and not i for i in range(len(gs))]
    z = np.concatenate([_unit_points(len(g)) if e else _odd_points(len(g))
                        for e, g in zip(from_empty, gs)])
    new = [g if e else g[1::2] for e, g in zip(from_empty, gs)]  # the symbol there
    logdets = [np.empty((k, n), dtype=complex) for _ in gs]

    per = max(1, _STACK_ENTRIES // (len(z) * n))
    for lo in range(0, k, per):
        maps = slice(lo, lo + per)
        p0, t = phi0[maps], tail[maps]
        F = _faber_basis(p0, t, _phi_at(p0, t, z, 0), n)
        dphi = np.abs(_phi_at(p0, t, z, 1))
        end = 0
        for i, (e, g, x) in enumerate(zip(from_empty, gs, new)):
            rows = slice(end, end + len(x))
            end += len(x)
            _extend(R[maps], None if C is None else C[maps], F[:, rows],
                    np.sqrt(dphi[:, rows] * np.exp(x.real)),
                    np.exp(1j * x.imag) if phase else None, e)
            # sqrt(2pi/N) goes onto each |R_jj| before its log: added afterwards
            # as j log(2pi/N), it would cancel most of the sum (R_jj grows like sqrt(N))
            diag = R[maps].diagonal(0, -2, -1) * np.sqrt(2.0 * np.pi / len(g))
            out = logdets[i][maps]
            out[:] = _diag_prefix(diag)
            if phase:
                for row, c in zip(out, C[maps]):
                    if not np.isnan(row[0]):
                        row += _phase_prefix(c)
        del F, dphi  # one block's basis alive at a time
    return logdets, "qr_phase" if phase else "qr_positive", (R, C)


def _extend(R, C, F, scale, unit, from_empty: bool):
    """Factor the rows F[i] * scale[i] onto R[i] for each map i, in place.

    R[i] becomes the R of [R[i]; rows], one tpqrt.  On the phase path
    (unit, e^{i Im g} at the rows' nodes, not None) C[i] becomes
    top^t C[i] conj(top) + bot^t diag(unit) conj(bot) with [top; bot] =
    Q'[I; 0] from one tpmqrt, Q' the Q of [R[i]; rows]; or the second
    term alone when ``from_empty``, the grid before being the empty one.
    """
    n = R.shape[-1]
    nb = min(n, _TP_BLOCK)
    # the rows scaled into Fortran-ordered (node, degree) blocks, which
    # LAPACK reads in place: F itself where its blocks already are
    A = F
    if not F[0].flags.f_contiguous:
        A = np.empty((len(F), n, F.shape[1]), dtype=complex).swapaxes(-1, -2)
    np.multiply(F, scale[..., None], out=A)
    for i, a in enumerate(A):
        # the R of [R[i]; a] (in place in R[i]), the reflectors V (in place
        # in a) and T, their block factors
        R[i], V, T = flapack.ztpqrt(0, nb, R[i], a, overwrite_a=True, overwrite_b=True)[:3]
        if unit is not None:
            top, bot = flapack.ztpmqrt(0, V, T, np.eye(n, dtype=complex, order="F"),
                                       np.zeros_like(V, order="F"),
                                       overwrite_a=True, overwrite_b=True)[:2]
            part = (bot.T * unit) @ bot.conj()
            C[i] = part if from_empty else top.T @ C[i] @ top.conj() + part


def _odd_points(N: int) -> np.ndarray:
    """The N/2 nodes e^{2 pi i j/N}, j odd, that the N-node grid adds to the N/2-node one."""
    return np.exp(1j * (2.0 * np.pi * np.arange(1, N, 2) / N))


def _start_N(n: int) -> int:
    """First grid of the automatic ladder: 2n + 64 nodes, up to a multiple of 8."""
    return -(-(2 * n + 64) // 8) * 8


def _refine(evaluate, count: int, start: int):
    """The automatic N ladder for ``count`` items, each gated on its own.

    ``evaluate(idx, sizes, prev)`` gives the rows of the items idx on each
    grid of the run ``sizes``, in order, the method, and the factors of
    the last grid: a tuple of arrays, or None, over the items idx.  prev
    is None on the first run, then the factors of the run before, cut to
    the items still on the ladder once one has left.  The first run is
    the ladder's first two grids, start and 2 start; each later run is
    the one grid of twice the last one's nodes.  An item settles when
    every entry of its row agrees to REFINE_TOL on its two latest grids.
    A NaN row ends its item with ZeroDeterminant, N past N_CAP with
    NotConverged; the error raised is that of the first failing item, once
    every item before it has settled, and no later grid of its run is
    read.  Returns the settled rows and the N and method of the last grid.
    """
    errors: dict[int, Exception] = {}  # index of an item -> the error ending its ladder
    live = held = np.arange(count)  # items still on the ladder; those factors belong to
    factors, prev = None, np.nan
    sizes = (start, 2 * start)
    while True:
        if len(live) < len(held):  # the items that left drop their factors
            at = np.searchsorted(held, live)
            factors = tuple(None if f is None else f[at] for f in factors)
        run, method, factors = evaluate(live, sizes, factors)
        held = live
        for size, cur in zip(sizes, run):
            if len(live) < len(held):
                cur = cur[np.searchsorted(held, live)]
            if size == start:
                rows = np.empty((count, cur.shape[1]), dtype=complex)
            done = np.abs(cur - prev).max(axis=1) <= REFINE_TOL
            lost = np.isnan(cur[:, 0])  # a failed grid leaves the whole row NaN
            gone = done | lost
            if gone.any():
                rows[live[done]] = cur[done]
                if lost.any():
                    errors.update(dict.fromkeys(live[lost].tolist(), ZeroDeterminant(_NO_SUPPORT)))
                keep = ~gone
                live, cur = live[keep], cur[keep]
            prev = cur
            if len(live) and size > start and 2 * size > N_CAP:
                capped = NotConverged(f"no convergence up to N = {N_CAP}")
                errors.update(dict.fromkeys(live.tolist(), capped))
                live = live[:0]
            first = min(errors, default=count)
            if first < (live[0] if len(live) else count):
                raise errors[first]
            if not len(live):
                return rows, size, method
        sizes = (2 * size,)


def log_det_range(
    mp: ExteriorMap, sym: FourierSymbol, n_lo: int, n_hi: int, N: int | None = None
) -> list[DirectResult]:
    """log D_n[e^g] for every n in n_lo..n_hi, all on one grid.

    With N omitted the node count starts at 2 n_hi + 64 (rounded up to a
    multiple of 8) and is doubled until two consecutive grids agree to 1e-8
    on every n of the range (error NotConverged past 2**20 nodes).  An
    explicit N (at least 4 n_hi) is honored as stated and each row's N vs
    2N agreement (N vs N // 2 once 2N passes 2**20) only sets its
    ``converged`` flag.  An explicit N's two grids are one
    ``_grid_prefix`` run, the coarser first; an odd N past the cap holds
    no N // 2 grid, so each of its grids is a run of its own.
    """
    if n_lo < 1:
        raise ValueError("n must be >= 1")
    if n_hi < n_lo:
        raise ValueError(f"empty range {n_lo}..{n_hi}")
    ns = np.arange(n_lo, n_hi + 1)
    cap_terms = ns * ns * float(np.log(mp.cap))
    stack = np.array([mp.phi0]), mp.tail[None]

    def run(sizes, prev=None):
        """The range's rows on each grid of the run, the method and the factors."""
        M = sizes[-1]
        g = theta_values(sym, 2.0 * np.pi * np.arange(M) / M)  # the coarser grids' are in it
        logdets, method, factors = _grid_prefix(*stack, [g[:: M // s] for s in sizes], n_hi, prev)
        return (x[:, n_lo - 1 :] for x in logdets), method, factors

    if N is None:  # the whole range is one item
        vals, N, method = _refine(lambda _, sizes, prev: run(sizes, prev), 1, _start_N(n_hi))
        agree = np.ones(len(ns), dtype=bool)
    else:
        if N < 4 * n_hi:
            raise ValueError(f"N must be >= 4n = {4 * n_hi}")
        if 2 * N <= N_CAP:
            (vals, vals2), method, _ = run((N, 2 * N))
        elif N % 2:
            (vals2,), _, _ = run((N // 2,))
            (vals,), method, _ = run((N,))
        else:
            (vals2, vals), method, _ = run((N // 2, N))
        if np.isnan(vals + vals2).any():  # either grid failed
            raise ZeroDeterminant(_NO_SUPPORT)
        agree = np.abs(vals2[0] - vals[0]) <= REFINE_TOL
    return [DirectResult(n, N, v, method, a)
            for n, v, a in zip(ns.tolist(), (vals[0] + cap_terms).tolist(), agree.tolist())]


def log_det_Dn(
    mp: ExteriorMap, sym: FourierSymbol, n: int, N: int | None = None
) -> DirectResult:
    """log D_n[e^g] at finite n with a grid-refinement convergence check.

    The one-row case of ``log_det_range``: the node count starts at
    2n + 64 (rounded up to a multiple of 8) and is doubled until two
    consecutive grids agree to 1e-8;
    an explicit N >= 4n is honored and only sets ``converged``.
    """
    return log_det_range(mp, sym, n, n, N)[0]


def finite_energy(mp: ExteriorMap, n: int, r_grid) -> EnergyCurve:
    """E_n(r) = log Z_n(dilated curve) - n log 2pi - n**2 log cap.

    Dilation keeps the cap, so the normalization uses the base curve's
    capacity, matching the convention that treats cap as 1 after scaling.
    E_n at r = 1 is defined only as a limit and is not evaluated here.

    The grid is checked before any quadrature: every r > 1
    (DilationNotGreaterThanOne) and strictly increasing (ValueError).
    The r run in ladders of consecutive r, as many as have n-by-n
    factors within ``_STACK_ENTRIES`` (``_energy_ladder``).  Each grid of
    a ladder is evaluated once for all its r still on it, as one stack of
    level curves in ``_grid_prefix``, and each r keeps the gate of
    ``log_det_Dn`` (``_refine``): start at 2n + 64 nodes, double, accept
    when two consecutive grids agree to 1e-8, NotConverged past 2**20
    nodes.  So every r settles on the grid its own ``log_det_Dn`` call
    would, and when several r fail, the error is the one of the smallest
    r: the ladders run in order of r.
    """
    r = np.asarray(r_grid, dtype=float)
    low = ~(r > 1)
    if np.any(low):
        raise DilationNotGreaterThanOne(f"r must be > 1, got {r[low][0]}")
    if np.any(np.diff(r) <= 0):
        raise ValueError("r_grid must be strictly increasing")
    if n < 1:
        raise ValueError("n must be >= 1")
    # one ladder per block of r whose n-by-n factors, held from grid to
    # grid, fit in _STACK_ENTRIES
    per = max(1, _STACK_ENTRIES // (n * n))
    rows = [_energy_ladder(mp, r[lo : lo + per], n) for lo in range(0, len(r), per)]
    return EnergyCurve(n, r, np.concatenate(rows)[:, 0].real - n * LOG_2PI)


def _energy_ladder(mp: ExteriorMap, r: np.ndarray, n: int) -> np.ndarray:
    """log D_n of the zero symbol on the level curve of each r: one
    ``_refine`` ladder, one item per r."""
    def evaluate(live, sizes, prev):
        logdets, method, factors = _grid_prefix(
            *_dilated_coeffs(mp, r[live]), [np.zeros(N) for N in sizes], n, prev
        )
        return (x[:, -1:] for x in logdets), method, factors

    return _refine(evaluate, len(r), _start_N(n))[0]


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
