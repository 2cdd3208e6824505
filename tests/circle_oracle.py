"""Exact Toeplitz determinants on the unit circle, in mpmath.

On the circle phi(z) = z the moment matrix of ``direct`` is
M_{jk} = int e^{i(j-k) theta} e^{g} d theta = 2 pi c_{k-j}, with c_j the
Fourier coefficients of e^{g(theta)}, so

    D_n[e^g] = (2 pi)^n det T_n,    T_n = (c_{k-j})_{j,k < n}.

For a trigonometric-polynomial symbol g, e^g is entire in e^{i theta}: its
coefficients decay faster than any geometric rate.  The trapezoid sum on
M equally spaced nodes, (1/M) sum_m e^{g(theta_m)} e^{-i j theta_m}, is
c_j plus the aliased c_{j + M}, c_{j - M}, ...; ``coefficients`` checks
that the sum at j = M/2, which holds the aliases of c_{+-M/2} alone, is
below 10^-DPS of c_0, so the aliases of every |j| < M/2 are far below
the working precision.  Sums, determinant and logarithm run at ``DPS``
digits; nothing here calls the library.
"""

import mpmath

DPS = 40
NODES = 256


class AliasingNotResolved(ValueError):
    """The trapezoid sums on ``NODES`` nodes do not resolve e^g to ``DPS`` digits."""


def coefficients(a0, a, b, jmax: int) -> dict[int, mpmath.mpc]:
    """{j: c_j} for |j| <= jmax of e^g, g(theta) = a0/2 + sum_k a_k cos(k theta)
    + b_k sin(k theta), from trapezoid sums on ``NODES`` nodes at ``DPS`` digits."""
    if not 0 <= jmax < NODES // 2:
        raise ValueError(f"jmax must lie in [0, {NODES // 2})")
    with mpmath.workdps(DPS + 10):
        a0, a, b = mpmath.mpc(a0), [mpmath.mpc(x) for x in a], [mpmath.mpc(x) for x in b]
        c = {j: mpmath.mpc(0) for j in range(-jmax, jmax + 1)}
        alias = mpmath.mpc(0)
        for m in range(NODES):
            theta = 2 * mpmath.pi * m / NODES
            g = a0 / 2
            g += mpmath.fsum(x * mpmath.cos((k + 1) * theta) for k, x in enumerate(a))
            g += mpmath.fsum(x * mpmath.sin((k + 1) * theta) for k, x in enumerate(b))
            e = mpmath.exp(g)
            alias += e if m % 2 == 0 else -e  # e^{-i (M/2) theta_m} = (-1)^m
            w = mpmath.expj(-theta)
            up = down = e
            c[0] += e
            for j in range(1, jmax + 1):
                up *= w
                down *= mpmath.conj(w)
                c[j] += up
                c[-j] += down
        if abs(alias) > mpmath.mpf(10) ** -DPS * abs(c[0]):
            raise AliasingNotResolved(f"|c_(M/2)| / |c_0| = {abs(alias) / abs(c[0])}")
        return {j: v / NODES for j, v in c.items()}


def log_Dn(coeffs: dict[int, mpmath.mpc], n: int) -> complex:
    """log D_n = n log 2pi + log det T_n, the principal log of the
    determinant, from ``coefficients`` with jmax >= n - 1."""
    with mpmath.workdps(DPS):
        T = mpmath.matrix(n, n)
        for j in range(n):
            for k in range(n):
                T[j, k] = coeffs[k - j]
        return complex(n * mpmath.log(2 * mpmath.pi) + mpmath.log(mpmath.det(T)))
