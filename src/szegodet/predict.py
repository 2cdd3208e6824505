"""Closed-form right-hand sides of the determinant asymptotics.

Everything is evaluated in log scale; the (2*pi)**n cap**(n**2) prefactor
is never exponentiated.  The total for log D_n[e^g] is

    n**2 log cap + n log 2pi + n a0/2 + g^t (I+K)^{-1} g - 0.5 log det(I+K),

with the bilinear (transpose) form used throughout, so complex symbols
are solved separately for their real and imaginary parts against the
real symmetric positive definite matrix I + K.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import gammaln

from .errors import NonzeroMean, NotPositiveDefinite, SingularValueAtOne
from .grunsky import (
    M_AUTO_CAP,
    M_AUTO_TOL,
    GrunskyTable,
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


def quadratic_form(pair: OperatorPair, v: GVector) -> complex:
    """Bilinear form v^t (I+K)^{-1} v through a Cholesky solve of I + K."""
    two_m = 2 * pair.m
    if len(v.entries) != two_m:
        raise ValueError(f"vector length {len(v.entries)} != 2m = {two_m}")
    IK = np.eye(two_m) + pair.K
    try:
        cho = scipy.linalg.cho_factor(IK, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "I + K is not positive definite; the Grunsky norm reaches 1"
        ) from exc
    vr = np.ascontiguousarray(v.entries.real)
    vi = np.ascontiguousarray(v.entries.imag)
    xr = scipy.linalg.cho_solve(cho, vr, check_finite=False)
    xi = scipy.linalg.cho_solve(cho, vi, check_finite=False)
    re = float(vr @ xr - vi @ xi)
    im = float(vr @ xi + vi @ xr)
    return complex(re, im)


def _halflogdet(pair: OperatorPair) -> tuple[float, float]:
    """-0.5 log det(I+K), and kappa_hat: the largest eigenvalue of K.

    The eigenvalues of K are +/- the Takagi values of B, so the largest
    one is the Grunsky norm estimate without a Takagi factorization.
    """
    w = np.linalg.eigvalsh(pair.K)
    if len(w) and (w[-1] >= 1.0 - 1e-10 or w[0] <= -1.0 + 1e-10):
        raise SingularValueAtOne("spectrum of K reaches 1; determinant diverges")
    kappa = float(w[-1]) if len(w) else 0.0
    return -0.5 * float(np.sum(np.log1p(w))) + 0.0, kappa


def _terms_at(m_table: GrunskyTable, sym: FourierSymbol):
    """(quad, half, kappa_hat, pair) for one table."""
    pair = operators(m_table)
    quad = quadratic_form(pair, padded_g_vector(sym, m_table.m))
    return (quad, *_halflogdet(pair), pair)


def _resolve_table(mp: ExteriorMap, sym: FourierSymbol, m: int | None):
    """Fixed-m table, or doubling until the two m-dependent terms settle."""
    if m is not None:
        table = grunsky_coefficients(mp, m)
        quad, half, _, pair = _terms_at(table, sym)
        return table, pair, quad, half
    size = 8
    table = grunsky_coefficients(mp, size)
    quad, half, kappa, pair = _terms_at(table, sym)
    gaps = (float("nan"), float("nan"))
    while size < M_AUTO_CAP:
        size2 = 2 * size
        table2 = grunsky_coefficients(mp, size2)
        quad2, half2, kappa, pair2 = _terms_at(table2, sym)
        size, table, pair = size2, table2, pair2
        gaps = (abs(quad2 - quad), abs(half2 - half))
        quad, half = quad2, half2
        if all(gap < M_AUTO_TOL for gap in gaps):
            break
    log.info(
        "auto truncation m=%d: gaps quadform=%.3e halflogdet=%.3e "
        "kappa_hat=%.6f delta_m_tail=%.3e",
        size, *gaps, kappa, delta_m_tail(pair.B),
    )
    return table, pair, quad, half


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
    table, _, quad, half = _resolve_table(mp, sym, m)
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

    Symbol coefficients beyond the stored truncation count as zero, so the
    automatic doubling policy (m = 8, 16, ... capped at 512, threshold
    1e-9 on the two m-dependent terms) works for short symbols too.
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
    (beta n (n-1)/2 + n) log cap.  Requires a mean-zero symbol.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if abs(complex(sym.a0)) > _MEAN_TOL:
        raise NonzeroMean(f"conjecture requires a0 = 0, got {sym.a0!r}")
    table, pair, _, half = _resolve_table(mp, sym, m)
    g = padded_g_vector(sym, table.m).entries
    d = d_vector(table, table.m).entries
    gb = GVector((beta / 2.0 - 1.0) * d + g)
    return half + (2.0 / beta) * quadratic_form(pair, gb)


def zn_beta_circle(n: int, beta: float) -> float:
    """log of the circle partition function at inverse temperature beta."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be > 0")
    return float(
        n * LOG_2PI - gammaln(n + 1) + gammaln(1 + beta * n / 2) - n * gammaln(1 + beta / 2)
    )
