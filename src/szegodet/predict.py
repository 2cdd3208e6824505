"""Closed-form right-hand sides of the determinant asymptotics.

Everything is evaluated in log scale; the (2*pi)**n cap**(n**2) prefactor
is never exponentiated.  The total for log D_n[e^g] is

    n**2 log cap + n log 2pi + n a0/2 + g^t (I+K)^{-1} g - 0.5 log det(I+K),

with the bilinear (transpose) form used throughout, so complex symbols
are solved separately for their real and imaginary parts against the
real symmetric positive definite matrix I + K.  One Cholesky factor of
I + K per m ladder gives both m-dependent terms: each rung extends the
factor of the rung before by its new columns (``grunsky._cholesky``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import flapack
from .grunsky import _kappa, _operator, _rungs, delta_m_tail
from .series import ExteriorMap
from .symbol import FourierSymbol, g_vector, zero_symbol

log = logging.getLogger(__name__)

LOG_2PI = float(np.log(2.0 * np.pi))

M_AUTO_CAP = 512
M_AUTO_TOL = 1e-9


@dataclass(frozen=True)
class PredictionBreakdown:
    """Term-by-term right-hand side of the asymptotic formula, log scale."""

    n: int
    m_used: int
    term_cap: float
    term_2pi: float
    term_a0: complex
    term_quadform: complex
    term_halflogdet: float
    total_log: complex

    def to_json_dict(self) -> dict:
        def c(z):
            z = complex(z)
            return [z.real, z.imag]

        return {
            "n": self.n,
            "m_used": self.m_used,
            "term_cap": self.term_cap,
            "term_2pi": self.term_2pi,
            "term_a0": c(self.term_a0),
            "term_quadform": c(self.term_quadform),
            "term_halflogdet": self.term_halflogdet,
            "total_log": c(self.total_log),
        }


def _solve_form(cho: tuple, v: np.ndarray) -> complex:
    """v^t (I+K)^{-1} v from the Cholesky factor of I + K: Re v and Im v
    are solved for together, by one ``potrs`` on two columns.  v is in
    the block order of ``g_vector``, read in the factor's interleaved
    order (x_1, y_1, x_2, y_2, ...)."""
    c, lower = cho
    if len(v) != len(c):
        raise ValueError(f"vector of length {len(v)} against a {len(c)} x {len(c)} factor")
    if not len(v):
        return 0j
    w = v.reshape(2, -1).T  # rows (x_k, y_k)
    rhs = np.array([w.real, w.imag]).reshape(2, -1)
    x, info = flapack.dpotrs(c, rhs.T, lower=lower)
    if info < 0:
        raise ValueError(f"potrs: illegal value in argument {-info}")
    # contiguous rows, so the dot products round as on one-column solves
    (vr, vi), (xr, xi) = rhs, x.T
    return complex(float(vr @ xr - vi @ xi), float(vr @ xi + vi @ xr))


def _rung(a: np.ndarray, cho: tuple, sym: FourierSymbol):
    """(a, cho, quad, half) of a rung of ``grunsky._rungs``: quad the symbol's
    form against the factor, half = -0.5 log det(I+K) off its diagonal."""
    quad = _solve_form(cho, g_vector(sym, len(a)))
    return a, cho, quad, -float(np.sum(np.log(np.diag(cho[0])))) + 0.0


def _clearance(n: int) -> float:
    """Lower bound on the computed half = -0.5 log det(I+K) of an n x n K
    whose kappa, the largest singular value of B, is at least 1 - 1e-10.

    Each pair 1 +/- sigma of eigenvalues of I + K adds -0.5 log(1 - sigma**2)
    >= 0 to half, and 1 - kappa**2 <= 2 (1 - kappa), so exactly half >=
    -0.5 log(2e-10) = 11.17.  The computed factor R is exact for I + K + E
    with |E| <= gamma_{n+1} |R^t||R| (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3, any order of the inner products, so
    also LAPACK's blocked potrf).  Cauchy-Schwarz on the columns of R
    gives ||E||_2 <= ||E||_F <= gamma_{n+1} trace(R^t R) <= eps, as
    trace(I + K) = n.  That holds for the factor ``grunsky._cholesky``
    extends rung to rung as well: a panel by ``trsm``, a new block by
    ``syrk`` and ``potrf``, the exact zeros above the envelope left out,
    is one more order of the same inner products, and the interleaved
    order of I + K is a symmetric permutation of the block order, which
    changes neither the bound nor the spectrum.  By Weyl each eigenvalue
    moves up by at most eps, so the computed det is at most
    (2 + eps)(1e-10 + eps)(1 + eps)**(n-2).
    The logs of the pivots, each at most 745 in size, and their sum add at
    most 745 eps.  The bound is 11.17 for small n and 10.78 at n = 1024.
    """
    u = 0.5 * float(np.finfo(float).eps)  # unit roundoff
    gamma = (n + 1) * u / (1.0 - (n + 1) * u)
    eps = gamma * n / (1.0 - gamma)
    return -0.5 * (math.log((2.0 + eps) * (1e-10 + eps)) + (n - 2) * math.log1p(eps)) - 745 * eps


def _ladder(mp: ExteriorMap, sym: FourierSymbol, m: int | None):
    """``_rung`` at a fixed m, or at the first doubling m = 8, 16, ..., 512
    where quad and half both move by less than 1e-9.

    The rungs come from ``grunsky._rungs``: each computes only its new
    table rows, and its Cholesky factor of I + K extends the one of the
    rung before from table size 128 on, so the ladder computes one
    factor, each row once, and ends with the bits of a fixed m at its
    last size.  A rung's table is the array of ``_grow``, symmetric by
    construction: no rung pays the check of ``GrunskyTable`` or
    ``OperatorPair``, and B is formed only for the guard and the log line
    below.

    Only the accepted rung is checked for a singular value of B at 1: B_m
    is the leading block of B_2m, so the largest one cannot fall as m grows.
    While half stays below ``_clearance``, the Cholesky factor alone proves
    kappa < 1 - 1e-10; above it ``grunsky._kappa`` decides, the routine
    that gives ``spectral_report`` its kappa_hat: Lanczos on K from
    m = 100 on, the dense eigenvalues of B^H B below, and a Cholesky
    certificate when the estimate is within 1e-11 of 1 - 1e-10.  The
    ``--m auto`` log line, when its level is enabled, reads kappa_hat
    from the same call and changes nothing else.
    """
    size = 8 if m is None else m
    rungs = _rungs(mp.tail, size)
    rung = _rung(*next(rungs), sym)
    gaps = (float("nan"), float("nan"))
    settled = False
    while m is None and not settled and size < M_AUTO_CAP:
        size *= 2
        prev, rung = rung, _rung(*next(rungs), sym)
        gaps = (abs(rung[2] - prev[2]), abs(rung[3] - prev[3]))
        settled = all(gap < M_AUTO_TOL for gap in gaps)
    a, cho, quad, half = rung
    cleared = half < _clearance(2 * size)
    level = logging.INFO if settled else logging.WARNING
    logged = m is None and log.isEnabledFor(level)
    if not cleared or logged:
        B = _operator(a)
        kappa = _kappa(B)
        if logged:
            log.log(
                level,
                "auto truncation m=%d%s: gaps quadform=%.3e halflogdet=%.3e "
                "kappa_hat=%.6f delta_m_tail=%.3e",
                size, "" if settled else " (cap reached, gaps not below 1e-9)",
                *gaps, kappa, delta_m_tail(B),
            )
    return rung


def suggest_truncation(mp: ExteriorMap) -> int:
    """Table size of the zero-symbol m ladder: with g = 0 the quadratic form
    vanishes, and -0.5 log det(I+K) is the energy -0.5 log det(I - B*B)."""
    return len(_ladder(mp, zero_symbol(), None)[0])


def predict_range(
    mp: ExteriorMap, sym: FourierSymbol, n_lo: int, n_hi: int, m: int | None = None
) -> list[PredictionBreakdown]:
    """``predict_log_Dn`` for every n in n_lo..n_hi from one table.

    The m-dependent terms do not depend on n, so the table (and with
    m = None its doubling ladder) is resolved once for the whole range.
    """
    if n_lo < 1:
        raise ValueError("n must be >= 1")
    if n_hi < n_lo:
        raise ValueError(f"empty range {n_lo}..{n_hi}")
    a, _, quad, half = _ladder(mp, sym, m)
    log_cap = float(np.log(mp.cap))
    out = []
    for n in range(n_lo, n_hi + 1):
        term_cap = n * n * log_cap
        term_2pi = n * LOG_2PI
        term_a0 = n * complex(sym.a0) / 2.0
        out.append(PredictionBreakdown(
            n=n,
            m_used=len(a),
            term_cap=term_cap,
            term_2pi=term_2pi,
            term_a0=term_a0,
            term_quadform=quad,
            term_halflogdet=half,
            total_log=term_cap + term_2pi + term_a0 + quad + half,
        ))
    return out


def predict_log_Dn(
    mp: ExteriorMap, sym: FourierSymbol, n: int, m: int | None = None
) -> PredictionBreakdown:
    """Asymptotic log D_n[e^g] with all five terms reported separately.

    With m = None, m doubles from 8 until both m-dependent terms move by
    less than 1e-9, or up to 512 with a logged warning.  Symbol coefficients
    beyond the stored truncation count as zero, so the ladder works for
    short symbols too.  A failed Cholesky factor of I + K raises
    ``NotPositiveDefinite``; a singular value of B within 1e-10 of 1 raises
    ``SingularValueAtOne``.  That check computes the largest singular value
    of B (``grunsky._kappa``, no SVD) only when -0.5 log det(I+K) reaches
    ``_clearance``, about 11; the ``--m auto`` log line computes it too
    when its level is enabled.
    Neither the value nor the error depends on the logging configuration.
    """
    return predict_range(mp, sym, n, n, m)[0]


def predict_log_Zn(mp: ExteriorMap, n: int, m: int | None = None) -> PredictionBreakdown:
    """Partition-function asymptotics: the zero-symbol prediction."""
    return predict_log_Dn(mp, zero_symbol(), n, m)


def zn_beta_circle(n: int, beta: float) -> float:
    """log of the circle partition function at inverse temperature beta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    # not math.lgamma, which rounds differently in the last bits; imported
    # here, since no CLI command calls this
    from scipy.special import gammaln

    return float(
        n * LOG_2PI - gammaln(n + 1) + gammaln(1 + beta * n / 2) - n * gammaln(1 + beta / 2)
    )
