"""Fourier data of the symbol g on the curve and its column vector g_vector.

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

from .errors import BadLength
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


def zero_symbol() -> FourierSymbol:
    return symbol_from_coefficients(0.0)


def symbol_from_coefficients(a0, a=(), b=()) -> FourierSymbol:
    """Build a symbol from explicit coefficient lists, the shorter one zero padded."""
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    K = max(len(a), len(b), 1)
    aa = np.zeros(K, dtype=complex)
    bb = np.zeros(K, dtype=complex)
    aa[: len(a)] = a
    bb[: len(b)] = b
    aa.setflags(write=False)  # so that FourierSymbol keeps them as they are
    bb.setflags(write=False)
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
    out = np.empty(th.shape, dtype=complex)
    out.fill(sym.a0 / 2.0)
    zk = np.empty_like(z)
    zk.fill(1.0)
    for a, b in zip(sym.a.tolist(), sym.b.tolist()):
        zk *= z
        out += a * zk.real
        out += b * zk.imag
    return out


def g_vector(sym: FourierSymbol, m: int) -> np.ndarray:
    """Vector data of the symbol at truncation m (a0 excluded): length 2m,
    the block (sqrt(k) a_k / 2) then the block (sqrt(k) b_k / 2).

    Coefficients beyond the stored truncation count as zero; zero
    extension is exact for the stored data.
    """
    k = min(m, sym.K_max)
    half_rk = 0.5 * np.sqrt(np.arange(1, k + 1, dtype=float))
    out = np.zeros(2 * m, dtype=complex)
    out[:k] = half_rk * sym.a[:k]
    out[m:m + k] = half_rk * sym.b[:k]
    return out
