"""Monte Carlo probes of the beta-ensemble determinant ratio.

The chain samples angles with stationary density proportional to
prod_{mu<nu} |e^{i theta_mu} - e^{i theta_nu}|**beta on the torus, which
is the circular beta-ensemble.  The estimated functional

    exp(-(beta/2) Re sum_{k,l<=m} a_{kl} p_k p_l
        + (1 - beta/2) sum_mu log|phi'(e^{i theta_mu})|
        + sum_mu g(curve(theta_mu))),      p_k = sum_mu e^{-i k theta_mu},

has expectation D_{n,beta}[e^g] / (Z_{n,beta}(circle) cap**(beta n(n-1)/2 + n)),
so at beta = 2 it reproduces the direct determinant ratio.  At other
beta it estimates the same functional, with no closed form in the
library to compare against.

The sampler is single-site Metropolis with a product-form acceptance
rule (see ``_metropolis_kernel``), written in plain Python over Python
floats with ``math.cos``; no JIT compiler is used or needed.  The
estimator (``estimate_ratio``) takes every per-sample term from a single
pass over the powers of e^{-i theta} of each block of kept sweeps, and
accepts real-valued symbols only, checked before the chain runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HeavyTailWarning
from .grunsky import grunsky_coefficients
from .predict import _ladder
from .series import ExteriorMap
from .symbol import FourierSymbol, theta_values, zero_symbol

_TUNE_BLOCK = 128
_WIDTH_MIN = 1e-3
_ROW_BLOCK = 512  # sweeps whose random draws are converted to Python floats at once
_COL_BLOCK = 4096  # samples whose power sums are held at once


@dataclass(frozen=True)
class ChainConfig:
    n: int
    beta: float
    steps: int
    burn_in: int
    proposal_width: float = 0.8
    seed: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not (self.steps > self.burn_in >= 0):
            raise ValueError("need steps > burn_in >= 0")
        if not (0 < self.proposal_width <= np.pi):
            raise ValueError("proposal_width must lie in (0, pi]")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class BetaEstimate:
    mean_log: float
    std_error: float
    acceptance_rate: float
    ess: float


def _metropolis_kernel(theta, beta, width0, burn_in, u_prop, u_acc, out):
    """Single-site Metropolis sweeps; tuning happens only during burn-in.

    Site mu proposes prop = theta_mu + width * (2 u_prop - 1), wrapped to
    [-pi, pi), and moves there with probability min(1, (num/den)**(beta/2)),
    where num and den are the products over nu != mu of
    |e^{i prop} - e^{i theta_nu}|**2 and |e^{i theta_mu} - e^{i theta_nu}|**2,
    each factor taken as 2 - 2 cos of the angle gap.  The move is accepted
    iff num > 0 and den * (1 - u_acc)**(2/beta) < num, which is the rule
    log(1 - u_acc) < (beta/2) log(num/den) without a logarithm.  The
    factors lie in [0, 4] and their product is n**2 for equally spaced
    angles, so num and den stay far from float64 overflow and underflow.

    Plain Python floats and ``math.cos``: each site carries the tuple of
    the other sites, taken in increasing order, the random draws are read
    ``_ROW_BLOCK`` sweeps at a time, and the kept sweeps of a block are
    gathered in one flat list and written into ``out`` at once.  Returns
    (post-burn-in acceptance, width).
    """
    steps, n = u_prop.shape
    th = theta.tolist()
    cos = math.cos
    pi = math.pi
    two_pi = 2.0 * math.pi
    others = [(mu, tuple(nu for nu in range(n) if nu != mu)) for mu in range(n)]
    flat = out.reshape(-1)
    width = width0
    block_acc = 0
    post_acc = 0
    pos = 0
    for start in range(0, steps, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, steps)
        jumps = (2.0 * u_prop[start:stop] - 1.0).tolist()
        bars = ((1.0 - u_acc[start:stop]) ** (2.0 / beta)).tolist()
        kept = []
        for t, jump, bar in zip(range(start, stop), jumps, bars):
            n_acc = 0
            for mu, rest in others:
                cur = th[mu]
                prop = cur + width * jump[mu]
                if prop >= pi:
                    prop -= two_pi
                elif prop < -pi:
                    prop += two_pi
                num = 1.0
                den = 1.0
                for nu in rest:
                    other = th[nu]
                    num *= 2.0 - 2.0 * cos(prop - other)
                    den *= 2.0 - 2.0 * cos(cur - other)
                if num > 0.0 and den * bar[mu] < num:
                    th[mu] = prop
                    n_acc += 1
            if t < burn_in:
                block_acc += n_acc
                if (t + 1) % _TUNE_BLOCK == 0:
                    rate = block_acc / (_TUNE_BLOCK * n)
                    if rate < 0.2:
                        width *= 0.75
                    elif rate > 0.6:
                        width *= 1.33
                    width = min(max(width, _WIDTH_MIN), pi)
                    block_acc = 0
            else:
                post_acc += n_acc
                kept += th
        if kept:
            flat[pos:pos + len(kept)] = kept
            pos += len(kept)
    return post_acc / pos, width


def _run_chain(cfg: ChainConfig):
    """Deterministic chain for one seed: (kept angles, acceptance, width)."""
    rng = np.random.default_rng(cfg.seed)
    u_prop = rng.random((cfg.steps, cfg.n))
    u_acc = rng.random((cfg.steps, cfg.n))
    theta0 = -np.pi + 2.0 * np.pi * (np.arange(cfg.n) + 0.5) / cfg.n
    out = np.empty((cfg.steps - cfg.burn_in, cfg.n))
    rate, width = _metropolis_kernel(
        theta0, cfg.beta, cfg.proposal_width, cfg.burn_in, u_prop, u_acc, out
    )
    return out, float(rate), float(width)


def _heavy_tailed(w: np.ndarray) -> bool:
    """True when the top 0.1% of weights carries over half of the mean."""
    total = float(np.sum(w))
    if not total > 0:
        return False
    cut = len(w) - max(1, len(w) // 1000)
    top = np.partition(w, cut)[cut:]
    return float(np.sum(top)) > 0.5 * total


def _autocorr_time(x: np.ndarray) -> tuple[float, float]:
    """Integrated autocorrelation time (Geyer pairing) and se of the mean."""
    T = len(x)
    xc = x - x.mean()
    f = np.fft.rfft(np.concatenate([xc, np.zeros(T)]))
    acov = np.fft.irfft(f * np.conj(f))[:T] / T
    if acov[0] <= 0:
        return 1.0, 0.0
    rho = acov / acov[0]
    tau = 1.0
    k = 1
    while k + 1 < T:
        gamma = rho[k] + rho[k + 1]
        if gamma <= 0:
            break
        tau += 2.0 * float(gamma)
        k += 2
    tau = max(tau, 1.0)
    se = float(np.sqrt(acov[0] * tau / T))
    return tau, se


def _require_real_symbol(sym: FourierSymbol) -> None:
    """ValueError unless g is real: |Im g| <= 1e-12 max(1, max |g|) on a
    grid of 8 K_max + 8 equally spaced angles, enough points to see any
    imaginary part of a trigonometric polynomial of degree K_max."""
    N = 8 * sym.K_max + 8
    gv = theta_values(sym, 2.0 * np.pi * np.arange(N) / N)
    if float(np.max(np.abs(gv.imag))) > 1e-12 * max(1.0, float(np.max(np.abs(gv)))):
        raise ValueError("Monte Carlo probe supports real-valued symbols only")


def estimate_ratio(
    mp: ExteriorMap, sym: FourierSymbol, cfg: ChainConfig, m: int | None = None
) -> BetaEstimate:
    """Chain average of the determinant-ratio functional, in log scale.

    Reports log of the weight mean, a delta-method standard error, the
    effective sample size from the weight autocorrelation, and the
    post-burn-in acceptance rate.  The symbol must be real-valued
    (``_require_real_symbol``, checked before the chain runs).  A
    mean-zero symbol is recommended and a heavy-tail warning fires when
    the top 0.1% of weights carry more than half of the mean.  With
    m = None the table is the accepted rung of the zero-symbol m ladder
    (see ``suggest_truncation``).

    Every per-sample term comes from one pass over the powers w**k,
    w = e^{-i theta}, of each block of ``_COL_BLOCK`` kept sweeps: the
    power sums p_k = sum_mu w_mu**k, the symbol term
    sum_mu Re g = n Re a0 / 2 + sum_k (Re a_k Re p_k - Re b_k Im p_k),
    and at beta != 2 log|phi'(e^{i theta})| with
    phi'(e^{i theta}) = 1 - sum_k k t_k w**(k+1).  With a = A + i A_i and
    p = x + i y, the quadratic form is
    Re(p^t a p) = (x - y)^t A (x + y) - 2 x^t A_i y, two real products.
    Only p_1..p_m are stored; higher powers are used and dropped.
    """
    a = grunsky_coefficients(mp, m).a if m is not None else _ladder(mp, zero_symbol(), None)[0]
    m = len(a)
    if abs(complex(sym.a0)) > 1e-12:
        warnings.warn("symbol has nonzero mean; consider subtracting a0/2", stacklevel=2)
    _require_real_symbol(sym)
    thetas, rate, _ = _run_chain(cfg)
    T = len(thetas)
    A = np.ascontiguousarray(a.real)
    A_i = np.ascontiguousarray(a.imag)
    K = sym.K_max
    g_cos = sym.a.real
    g_sin = sym.b.real
    g_mean = 0.5 * cfg.n * complex(sym.a0).real
    # phi' = 1 + sum_j d_j w**(j+1), d_j = -j t_j; only needed at beta != 2
    d = -np.arange(1, len(mp.tail) + 1) * mp.tail if cfg.beta != 2.0 else np.zeros(0)
    top = max(m, K, len(d) + 1)
    expo = np.empty(T)
    P = np.empty((m, _COL_BLOCK), dtype=complex)
    p = np.empty(_COL_BLOCK, dtype=complex)
    for c0 in range(0, T, _COL_BLOCK):
        w = np.exp(-1j * np.ascontiguousarray(thetas[c0:c0 + _COL_BLOCK].T))
        B = w.shape[1]
        Pb = P[:, :B]
        pk = p[:B]
        g_sum = np.full(B, g_mean)
        dphi = np.ones_like(w) if len(d) else None
        cur = w.copy()
        for k in range(1, top + 1):
            if k > 1:
                cur *= w
            if k <= m or k <= K:
                s = Pb[k - 1] if k <= m else pk
                np.sum(cur, axis=0, out=s)
                if k <= K:
                    g_sum += g_cos[k - 1] * s.real
                    g_sum -= g_sin[k - 1] * s.imag
            if 2 <= k <= len(d) + 1:
                dphi += d[k - 2] * cur
        x = Pb.real
        y = Pb.imag
        quad = np.einsum("kj,kj->j", x - y, A @ (x + y))
        quad -= 2.0 * np.einsum("kj,kj->j", x, A_i @ y)
        block = expo[c0:c0 + B]
        np.multiply(quad, -0.5 * cfg.beta, out=block)
        block += g_sum
        if dphi is not None:
            block += (1.0 - 0.5 * cfg.beta) * np.sum(np.log(np.abs(dphi)), axis=0)
    # weights relative to the largest: the log mean is shift + log(mean),
    # and the error, ESS and tail test do not depend on the common scale
    shift = float(np.max(expo))
    w = np.exp(expo - shift)
    mean = float(np.mean(w))
    if _heavy_tailed(w):
        warnings.warn(
            HeavyTailWarning("top 0.1% of weights carry over half of the mean"),
            stacklevel=2,
        )
    tau, se_mean = _autocorr_time(w)
    std_error = max(se_mean / mean, np.finfo(float).tiny)
    return BetaEstimate(
        mean_log=shift + float(np.log(mean)),
        std_error=std_error,
        acceptance_rate=rate,
        ess=float(T / tau),
    )
