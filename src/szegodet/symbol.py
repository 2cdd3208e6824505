"""Fourier data of the symbol g on the curve and the derived column vectors.

The symbol is stored in the theta domain, as the cosine/sine series of the
composition of g with the boundary parametrization:

    g(curve(theta)) = a0/2 + sum_k a_k cos(k theta) + b_k sin(k theta).

Coefficients may be complex; the quadratic forms downstream use the
transpose, never the conjugate.  a0 is carried separately because the
asymptotic formula keeps the n*a0/2 term apart from the vector data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadLength, TruncationExceedsSymbol, TruncationExceedsTable
from .grunsky import GrunskyTable
from .series import _readonly


@dataclass(frozen=True)
class FourierSymbol:
    a0: complex
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = _readonly(np.atleast_1d(self.a))
        b = _readonly(np.atleast_1d(self.b))
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("a and b must be 1-D arrays of equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def K_max(self) -> int:
        return len(self.a)

    def coeff(self, k: int) -> tuple[complex, complex]:
        """(a_k, b_k), zero beyond the stored truncation."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k > self.K_max:
            return 0.0 + 0.0j, 0.0 + 0.0j
        return complex(self.a[k - 1]), complex(self.b[k - 1])


def zero_symbol() -> FourierSymbol:
    return FourierSymbol(0.0, np.zeros(1, dtype=complex), np.zeros(1, dtype=complex))


def symbol_from_coefficients(a0, a=(), b=(), pad_to: int | None = None) -> FourierSymbol:
    """Build a symbol from explicit coefficient lists, optionally zero padded."""
    a = np.atleast_1d(np.asarray(a, dtype=complex)) if len(np.atleast_1d(a)) else np.zeros(0, complex)
    b = np.atleast_1d(np.asarray(b, dtype=complex)) if len(np.atleast_1d(b)) else np.zeros(0, complex)
    K = max(len(a), len(b), 1, pad_to or 0)
    aa = np.zeros(K, dtype=complex)
    bb = np.zeros(K, dtype=complex)
    aa[: len(a)] = a
    bb[: len(b)] = b
    return FourierSymbol(complex(a0), aa, bb)


def symbol_from_theta_samples(values) -> FourierSymbol:
    """Analyze uniform theta samples of g(curve(theta)) into Fourier data.

    values[j] is the sample at theta_j = 2*pi*j/N; N must be a power of
    two >= 8.  Returns coefficients up to K_max = N/2 - 1.
    """
    v = np.asarray(values, dtype=complex)
    N = len(v)
    if v.ndim != 1 or N < 8 or (N & (N - 1)) != 0:
        raise BadLength(f"need a power of two >= 8 samples, got {N}")
    F = np.fft.fft(v)
    K = N // 2 - 1
    k = np.arange(1, K + 1)
    a = (F[k] + F[N - k]) / N
    b = 1j * (F[k] - F[N - k]) / N
    return FourierSymbol(2.0 * np.mean(v), a, b)


def theta_values(sym: FourierSymbol, theta) -> np.ndarray:
    """Synthesize g(curve(theta)) from the stored Fourier data."""
    th = np.asarray(theta, dtype=float)
    z = np.exp(1j * th)
    out = np.full(th.shape, sym.a0 / 2.0, dtype=complex)
    zk = np.ones_like(z)
    for k in range(1, sym.K_max + 1):
        zk = zk * z
        out = out + sym.a[k - 1] * zk.real + sym.b[k - 1] * zk.imag
    return out


@dataclass(frozen=True)
class GVector:
    """Column of length 2m: block (sqrt(k) a_k / 2) then (sqrt(k) b_k / 2)."""

    entries: np.ndarray

    def __post_init__(self):
        e = _readonly(np.atleast_1d(self.entries))
        if len(e) % 2 != 0:
            raise ValueError("entries must have even length")
        object.__setattr__(self, "entries", e)

    @property
    def m(self) -> int:
        return len(self.entries) // 2


def g_vector(sym: FourierSymbol, m: int) -> GVector:
    """Vector data of the symbol at truncation m (a0 excluded)."""
    if m > sym.K_max:
        raise TruncationExceedsSymbol(f"m={m} exceeds stored truncation {sym.K_max}")
    k = np.arange(1, m + 1, dtype=float)
    half_rk = 0.5 * np.sqrt(k)
    return GVector(np.concatenate([half_rk * sym.a[:m], half_rk * sym.b[:m]]))


def padded_g_vector(sym: FourierSymbol, m: int) -> GVector:
    """Like g_vector but with zeros beyond the stored truncation.

    Zero extension is exact for the stored data, so this is the natural
    form for callers that pick m by an automatic policy.
    """
    if m <= sym.K_max:
        return g_vector(sym, m)
    k = np.arange(1, m + 1, dtype=float)
    a = np.zeros(m, dtype=complex)
    b = np.zeros(m, dtype=complex)
    a[: sym.K_max] = sym.a
    b[: sym.K_max] = sym.b
    half_rk = 0.5 * np.sqrt(k)
    return GVector(np.concatenate([half_rk * a, half_rk * b]))


def d_vector(table: GrunskyTable, m: int) -> GVector:
    """Curvature-type vector from the expansion of log phi'.

    Entry k of the first block is sqrt(k)/2 * Re(sum_{j<k} a_{j,k-j}) and
    the second block takes the imaginary part; the k = 1 entries vanish
    because log phi' has no z**-1 term.
    """
    if m > table.m:
        raise TruncationExceedsTable(f"m={m} exceeds table size {table.m}")
    s = np.zeros(m, dtype=complex)
    for k in range(2, m + 1):
        j = np.arange(1, k)
        s[k - 1] = np.sum(table.a[j - 1, k - j - 1])
    half_rk = 0.5 * np.sqrt(np.arange(1, m + 1, dtype=float))
    return GVector(np.concatenate([half_rk * s.real, half_rk * s.imag]))


def sobolev_half_norm(sym: FourierSymbol) -> float:
    """sum_k k (|a_k|^2 + |b_k|^2) over the stored truncation."""
    k = np.arange(1, sym.K_max + 1, dtype=float)
    return float(np.sum(k * (np.abs(sym.a) ** 2 + np.abs(sym.b) ** 2)))
