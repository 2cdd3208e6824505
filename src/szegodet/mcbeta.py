"""Monte Carlo probes of the beta-ensemble determinant ratio.

The chain samples angles with stationary density proportional to
prod_{mu<nu} |e^{i theta_mu} - e^{i theta_nu}|**beta on the torus, which
is the circular beta-ensemble.  The estimated functional

    exp(-(beta/2) Re sum_{k,l<=m} a_{kl} p_k p_l
        + (1 - beta/2) sum_mu log|phi'(e^{i theta_mu})|
        + sum_mu g(curve(theta_mu))),      p_k = sum_mu e^{-i k theta_mu},

has expectation D_{n,beta}[e^g] / (Z_{n,beta}(circle) cap**(beta n(n-1)/2 + n)),
so at beta = 2 it reproduces the direct determinant ratio and at other
beta it probes the conjectured limit.  Everything here is exploratory at
beta != 2.

The sampler is single-site Metropolis with a product-form acceptance
rule (see ``_metropolis_kernel``), written in plain Python over Python
floats with ``math.cos``; no JIT compiler is used or needed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import HeavyTailWarning
from .grunsky import grunsky_coefficients
from .predict import _ladder
from .series import ExteriorMap, _phi_norm
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

    Plain Python floats and ``math.cos``: the random draws are read
    ``_ROW_BLOCK`` sweeps at a time, and kept sweeps are written into
    ``out`` block by block.  Returns (post-burn-in acceptance, width).
    """
    steps, n = u_prop.shape
    th = theta.tolist()
    cos = math.cos
    pi = math.pi
    two_pi = 2.0 * math.pi
    sites = range(n)
    width = width0
    block_acc = 0
    post_acc = 0
    kept = 0
    for start in range(0, steps, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, steps)
        jumps = (2.0 * u_prop[start:stop] - 1.0).tolist()
        bars = ((1.0 - u_acc[start:stop]) ** (2.0 / beta)).tolist()
        rows = []
        for t, jump, bar in zip(range(start, stop), jumps, bars):
            n_acc = 0
            for mu in sites:
                cur = th[mu]
                prop = cur + width * jump[mu]
                if prop >= pi:
                    prop -= two_pi
                elif prop < -pi:
                    prop += two_pi
                num = 1.0
                den = 1.0
                for nu in sites:
                    if nu != mu:
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
                rows.append(th[:])
        if rows:
            out[kept:kept + len(rows)] = rows
            kept += len(rows)
    return post_acc / (kept * n), width


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


def sample_circular_beta(cfg: ChainConfig):
    """Yield post-burn-in angle configurations, one array per sweep."""
    out, _, _ = _run_chain(cfg)
    for row in out:
        yield row.copy()


def _heavy_tailed(w: np.ndarray) -> bool:
    """True when the top 0.1% of weights carries over half of the mean."""
    total = float(np.sum(w))
    if not total > 0:
        return False
    top = np.sort(w)[::-1][: max(1, len(w) // 1000)]
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


def estimate_ratio(
    mp: ExteriorMap, sym: FourierSymbol, cfg: ChainConfig, m: int | None = None
) -> BetaEstimate:
    """Chain average of the determinant-ratio functional, in log scale.

    Reports log of the weight mean, a delta-method standard error, the
    effective sample size from the weight autocorrelation, and the
    post-burn-in acceptance rate.  A mean-zero symbol is recommended and
    a heavy-tail warning fires when the top 0.1% of weights carry more
    than half of the mean.  With m = None the table is the accepted rung
    of the zero-symbol m ladder (see ``suggest_truncation``).
    """
    table = grunsky_coefficients(mp, m) if m is not None else _ladder(mp, zero_symbol(), None)[0]
    a, m = table.a, table.m
    if abs(complex(sym.a0)) > 1e-12:
        warnings.warn("symbol has nonzero mean; consider subtracting a0/2", stacklevel=2)
    thetas, rate, _ = _run_chain(cfg)
    T = len(thetas)
    # power sums in an (m, block) layout, each p_k one contiguous row, built
    # over _COL_BLOCK samples at a time so memory stays O(m * _COL_BLOCK)
    quad = np.empty(T)
    for c0 in range(0, T, _COL_BLOCK):
        z = np.exp(-1j * np.ascontiguousarray(thetas[c0:c0 + _COL_BLOCK].T))
        cur = z.copy()
        P = np.empty((m, z.shape[1]), dtype=complex)
        for k in range(m):
            np.sum(cur, axis=0, out=P[k])
            cur *= z
        Q = a.T @ P
        Q *= P
        quad[c0:c0 + _COL_BLOCK] = np.sum(Q, axis=0).real
    gv = theta_values(sym, thetas)
    if float(np.max(np.abs(gv.imag))) > 1e-12 * max(1.0, float(np.max(np.abs(gv)))):
        raise ValueError("Monte Carlo probe supports real-valued symbols only")
    expo = -0.5 * cfg.beta * quad + np.sum(gv.real, axis=1)
    if cfg.beta != 2.0:
        zb = np.exp(1j * thetas)
        logphip = np.sum(np.log(np.abs(_phi_norm(mp, zb, 1))), axis=1)
        expo += (1.0 - 0.5 * cfg.beta) * logphip
    w = np.exp(expo)
    mean = float(np.mean(w))
    if _heavy_tailed(w):
        warnings.warn(
            HeavyTailWarning("top 0.1% of weights carry over half of the mean"),
            stacklevel=2,
        )
    tau, se_mean = _autocorr_time(w)
    std_error = max(se_mean / abs(mean), np.finfo(float).tiny) if mean != 0 else float("inf")
    return BetaEstimate(
        mean_log=float(np.log(mean)),
        std_error=std_error,
        acceptance_rate=rate,
        ess=float(T / tau),
    )


def merge_estimates(estimates) -> tuple[float, float]:
    """Inverse-variance pooling of independent chain estimates."""
    est = list(estimates)
    if not est:
        raise ValueError("nothing to merge")
    w = np.array([1.0 / e.std_error**2 for e in est])
    vals = np.array([e.mean_log for e in est])
    return float(np.sum(w * vals) / np.sum(w)), float(1.0 / np.sqrt(np.sum(w)))
