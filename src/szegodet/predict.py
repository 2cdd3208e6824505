"""Closed-form right-hand sides of the determinant asymptotics.

Everything is evaluated in log scale; the (2*pi)**n cap**(n**2) prefactor
is never exponentiated.  The total for log D_n[e^g] is

    n**2 log cap + n log 2pi + n a0/2 + g^t (I+K)^{-1} g - 0.5 log det(I+K),

with the bilinear (transpose) form used throughout, so complex symbols
are solved separately for their real and imaginary parts against the
real symmetric positive definite matrix I + K.  One Cholesky factor of
I + K per table size gives both m-dependent terms.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import gammaln

from .errors import NonzeroMean, NotPositiveDefinite, SingularValueAtOne
from .grunsky import (
    OperatorPair,
    delta_m_tail,
    grunsky_coefficients,
    operators,
)
from .series import ExteriorMap
from .symbol import FourierSymbol, GVector, d_vector, padded_g_vector, zero_symbol

log = logging.getLogger(__name__)

LOG_2PI = float(np.log(2.0 * np.pi))
_MEAN_TOL = 1e-12

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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PredictionBreakdown":
        def c(v):
            return complex(v[0], v[1])

        return cls(
            n=int(doc["n"]),
            m_used=int(doc["m_used"]),
            term_cap=float(doc["term_cap"]),
            term_2pi=float(doc["term_2pi"]),
            term_a0=c(doc["term_a0"]),
            term_quadform=c(doc["term_quadform"]),
            term_halflogdet=float(doc["term_halflogdet"]),
            total_log=c(doc["total_log"]),
        )


def _cholesky(pair: OperatorPair) -> tuple:
    try:
        return scipy.linalg.cho_factor(np.eye(2 * pair.m) + pair.K, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "I + K is not positive definite; the Grunsky norm reaches 1"
        ) from exc


def _solve_form(cho: tuple, v: np.ndarray) -> complex:
    """v^t (I+K)^{-1} v from the Cholesky factor of I + K."""
    vr = np.ascontiguousarray(v.real)
    vi = np.ascontiguousarray(v.imag)
    xr = scipy.linalg.cho_solve(cho, vr, check_finite=False)
    xi = scipy.linalg.cho_solve(cho, vi, check_finite=False)
    re = float(vr @ xr - vi @ xi)
    im = float(vr @ xi + vi @ xr)
    return complex(re, im)


def quadratic_form(pair: OperatorPair, v: GVector) -> complex:
    """Bilinear form v^t (I+K)^{-1} v through a Cholesky solve of I + K."""
    two_m = 2 * pair.m
    if len(v.entries) != two_m:
        raise ValueError(f"vector length {len(v.entries)} != 2m = {two_m}")
    return _solve_form(_cholesky(pair), v.entries)


def _rung(mp: ExteriorMap, sym: FourierSymbol, size: int):
    """(table, pair, cho, quad, half), with half = -0.5 log det(I+K) read off
    the diagonal of the Cholesky factor."""
    table = grunsky_coefficients(mp, size)
    pair = operators(table)
    cho = _cholesky(pair)
    quad = _solve_form(cho, padded_g_vector(sym, size).entries)
    return table, pair, cho, quad, -float(np.sum(np.log(np.diag(cho[0])))) + 0.0


def _ladder(mp: ExteriorMap, sym: FourierSymbol, m: int | None):
    """``_rung`` at a fixed m, or at the first doubling m = 8, 16, ..., 512
    where quad and half both move by less than 1e-9.

    Only the accepted rung is checked for a singular value of B at 1: B_m
    is the leading block of B_2m, so the largest one cannot fall as m grows.
    """
    size = 8 if m is None else m
    table, pair, cho, quad, half = _rung(mp, sym, size)
    gaps = (float("nan"), float("nan"))
    settled = False
    while m is None and not settled and size < M_AUTO_CAP:
        size *= 2
        table, pair, cho, quad2, half2 = _rung(mp, sym, size)
        gaps = (abs(quad2 - quad), abs(half2 - half))
        settled = all(gap < M_AUTO_TOL for gap in gaps)
        quad, half = quad2, half2
    # scipy, as for cho_factor: numpy's OpenBLAS is a second thread pool that spins when idle
    w = scipy.linalg.eigvalsh(pair.K, check_finite=False)
    if w[-1] >= 1.0 - 1e-10 or w[0] <= -1.0 + 1e-10:
        raise SingularValueAtOne("spectrum of K reaches 1; determinant diverges")
    if m is None:  # w[-1], the largest singular value of B, is kappa_hat
        log.log(
            logging.INFO if settled else logging.WARNING,
            "auto truncation m=%d%s: gaps quadform=%.3e halflogdet=%.3e "
            "kappa_hat=%.6f delta_m_tail=%.3e",
            size, "" if settled else " (cap reached, gaps not below 1e-9)",
            *gaps, float(w[-1]), delta_m_tail(pair.B),
        )
    return table, pair, cho, quad, half


def suggest_truncation(mp: ExteriorMap) -> int:
    """Table size of the zero-symbol m ladder: with g = 0 the quadratic form
    vanishes, and -0.5 log det(I+K) is the energy -0.5 log det(I - B*B)."""
    return _ladder(mp, zero_symbol(), None)[0].m


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
    table, _, _, quad, half = _ladder(mp, sym, m)
    log_cap = float(np.log(mp.cap))
    out = []
    for n in range(n_lo, n_hi + 1):
        term_cap = n * n * log_cap
        term_2pi = n * LOG_2PI
        term_a0 = n * complex(sym.a0) / 2.0
        out.append(PredictionBreakdown(
            n=n,
            m_used=table.m,
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
    ``NotPositiveDefinite``; an eigenvalue of K within 1e-10 of +/-1 raises
    ``SingularValueAtOne``.
    """
    return predict_range(mp, sym, n, n, m)[0]


def predict_log_Zn(mp: ExteriorMap, n: int, m: int | None = None) -> PredictionBreakdown:
    """Partition-function asymptotics: the zero-symbol prediction."""
    return predict_log_Dn(mp, zero_symbol(), n, m)


def predict_quotient(mp: ExteriorMap, sym: FourierSymbol):
    """Limit of cap**(-2n-1) D_{n+1}/D_n, namely 2*pi*exp(a0/2)."""
    val = 2.0 * np.pi * np.exp(complex(sym.a0) / 2.0)
    if abs(val.imag) <= 1e-15 * abs(val.real):
        return float(val.real)
    return complex(val)


def predict_beta_log(
    mp: ExteriorMap,
    sym: FourierSymbol,
    n: int,
    beta: float,
    m: int | None = None,
) -> complex:
    """Conjectured beta-ensemble limit in log scale (experimental).

    Returns -0.5 log det(I+K) + (2/beta) gb^t (I+K)^{-1} gb with
    gb = (beta/2 - 1) d + g; the value does not depend on n.  Callers
    compare at finite n by adding log Z_{n,beta}(circle) and
    (beta n (n-1)/2 + n) log cap.  Requires a mean-zero symbol.  Both
    terms use the one Cholesky factor of the table ``predict_log_Dn`` uses.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    if abs(complex(sym.a0)) > _MEAN_TOL:
        raise NonzeroMean(f"conjecture requires a0 = 0, got {sym.a0!r}")
    table, _, cho, _, half = _ladder(mp, sym, m)
    g = padded_g_vector(sym, table.m).entries
    d = d_vector(table, table.m).entries
    return half + (2.0 / beta) * _solve_form(cho, (beta / 2.0 - 1.0) * d + g)


def zn_beta_circle(n: int, beta: float) -> float:
    """log of the circle partition function at inverse temperature beta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    return float(
        n * LOG_2PI - gammaln(n + 1) + gammaln(1 + beta * n / 2) - n * gammaln(1 + beta / 2)
    )
