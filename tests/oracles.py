"""Independent references that the tests compare the library against.

``grunsky_coefficients_sampled`` takes the Grunsky table from a 2-D FFT of
the sampled logarithm on a torus, independent of the exact recurrence
``grunsky._grow``; ``bruteforce_Dn`` sums the Andreief integral over every
n-tuple of trapezoidal nodes, independent of the Faber-basis QR and the N
ladder of ``direct.log_det_range``.  Both read the library only through
``series._phi_norm`` and ``symbol.theta_values``.
"""

import numpy as np

from szegodet.errors import SzegoError
from szegodet.grunsky import GrunskyTable
from szegodet.series import _phi_norm
from szegodet.symbol import theta_values


class BranchJumpDetected(SzegoError):
    """The sampled logarithm jumps by more than pi between grid neighbours."""


class AliasingDetected(SzegoError):
    """Spectral tail of the sampled transform is not negligible."""


def grunsky_coefficients_sampled(mp, size: int, radius: float, grid: int | None = None) -> GrunskyTable:
    """Table a_{kl}, 1 <= k,l <= size, from a 2-D DFT of the sampled logarithm.

    Samples log((phi(z1) - phi(z2)) / (z1 - z2)) on z_i = radius * e^{i a},
    with phi'(z) on the diagonal, and rescales the (k, l) DFT coefficient
    by radius**(k+l).  Raises if the principal branch jumps between grid
    neighbours or if the DFT tail band is above 1e-8 of the peak.  The table
    is averaged with its transpose; ``asym_defect`` is max|a - a^t| / max|a|.
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
    defect = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    scale = max(float(np.max(np.abs(a))) if a.size else 0.0, np.finfo(float).tiny)
    return GrunskyTable(size, 0.5 * (a + a.T), defect / scale)


def bruteforce_Dn(mp, sym, n: int, grid: int = 256):
    """log D_n by the Andreief identity: direct n-fold trapezoidal quadrature.

    Evaluates (1/n!) int prod_{mu != nu} |z_mu - z_nu| prod e^g prod |dz|
    on the theta grid for n in {1, 2, 3}.  The n-fold sum is reorganized
    through pair matrices so the n = 3 case is a single matrix product,
    but every grid triple still enters exactly once.
    """
    if n not in (1, 2, 3):
        raise ValueError("bruteforce path only supports n in {1, 2, 3}")
    if grid < 64:
        raise ValueError("grid must be >= 64")
    theta = 2.0 * np.pi * np.arange(grid) / grid
    z = np.exp(1j * theta)
    pts = _phi_norm(mp, z, 0)
    w = np.abs(_phi_norm(mp, z, 1)) * (2.0 * np.pi / grid)
    u = w * np.exp(theta_values(sym, theta))
    if float(np.max(np.abs(u.imag))) <= 1e-13 * float(np.max(np.abs(u))):
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
