import numpy as np
import pytest
import scipy.integrate

from szegodet import (
    ChainConfig,
    estimate_ratio,
    grunsky_coefficients,
    log_det_Dn,
    suggest_truncation,
    symbol_from_coefficients,
    symbol_from_theta_samples,
    zero_symbol,
)
from szegodet import mcbeta
from szegodet.mcbeta import _autocorr_time, _run_chain
from szegodet.predict import LOG_2PI
from szegodet.series import _phi_norm
from szegodet.symbol import theta_values


def log_form_chain(cfg):
    """Reference chain: the same draws, proposal and tuning as the sampler,
    with the acceptance rule in its log form
    log(1 - u) < (beta/2) sum_nu log((1 - cos(prop - t_nu)) / (1 - cos(t_mu - t_nu)))."""
    rng = np.random.default_rng(cfg.seed)
    u_prop = rng.random((cfg.steps, cfg.n))
    u_acc = rng.random((cfg.steps, cfg.n))
    theta = -np.pi + 2.0 * np.pi * (np.arange(cfg.n) + 0.5) / cfg.n
    out = np.empty((cfg.steps - cfg.burn_in, cfg.n))
    width, block_acc, post_acc = cfg.proposal_width, 0, 0
    for t in range(cfg.steps):
        for mu in range(cfg.n):
            th = theta[mu]
            prop = th + width * (2.0 * u_prop[t, mu] - 1.0)
            if prop >= np.pi:
                prop -= 2.0 * np.pi
            elif prop < -np.pi:
                prop += 2.0 * np.pi
            d, reject = 0.0, False
            for nu in range(cfg.n):
                if nu != mu:
                    cn = 1.0 - np.cos(prop - theta[nu])
                    if cn <= 0.0:
                        reject = True
                        break
                    d += np.log(cn) - np.log(1.0 - np.cos(th - theta[nu]))
            acc = not reject and np.log(1.0 - u_acc[t, mu]) < 0.5 * cfg.beta * d
            if acc:
                theta[mu] = prop
            if t < cfg.burn_in:
                block_acc += acc
            else:
                post_acc += acc
        if t < cfg.burn_in and (t + 1) % 128 == 0:
            rate = block_acc / (128 * cfg.n)
            if rate < 0.2:
                width *= 0.75
            elif rate > 0.6:
                width *= 1.33
            width, block_acc = min(max(width, 1e-3), np.pi), 0
        if t >= cfg.burn_in:
            out[t - cfg.burn_in] = theta
    return out, post_acc / out.size, width


def three_pass_estimate(mp, sym, cfg, m):
    """Reference estimator: the kept angles of the same chain, post-processed
    in three separate passes: power sums p_k and the complex product
    a^t P, the symbol by ``theta_values`` on every angle, and
    log|phi'| by ``_phi_norm`` at beta != 2."""
    a = grunsky_coefficients(mp, m).a
    thetas, rate, _ = _run_chain(cfg)
    T = len(thetas)
    z = np.exp(-1j * thetas.T)
    P = np.empty((m, T), dtype=complex)
    cur = z.copy()
    for k in range(m):
        P[k] = np.sum(cur, axis=0)
        cur *= z
    quad = np.sum((a.T @ P) * P, axis=0).real
    gv = theta_values(sym, thetas)
    expo = -0.5 * cfg.beta * quad + np.sum(gv.real, axis=1)
    if cfg.beta != 2.0:
        logphip = np.sum(np.log(np.abs(_phi_norm(mp, np.exp(1j * thetas), 1))), axis=1)
        expo += (1.0 - 0.5 * cfg.beta) * logphip
    shift = float(np.max(expo))
    w = np.exp(expo - shift)
    mean = float(np.mean(w))
    tau, se_mean = _autocorr_time(w)
    return shift + float(np.log(mean)), se_mean / mean, rate, T / tau


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(n=0, beta=2.0, steps=10, burn_in=1)
        with pytest.raises(ValueError):
            ChainConfig(n=2, beta=0.0, steps=10, burn_in=1)
        with pytest.raises(ValueError):
            ChainConfig(n=2, beta=2.0, steps=10, burn_in=10)
        with pytest.raises(ValueError):
            ChainConfig(n=2, beta=2.0, steps=10, burn_in=1, proposal_width=4.0)


class TestSampler:
    def test_single_angle_uniform(self):
        cfg = ChainConfig(n=1, beta=2.0, steps=20000, burn_in=1000, seed=5)
        th = _run_chain(cfg)[0][:, 0]
        # uniform stationary law: the circular mean vanishes
        z = np.mean(np.exp(1j * th))
        assert abs(z) <= 3.0 / np.sqrt(len(th) / 50.0)

    def test_pair_statistic_oracle(self):
        # E |e^{i t1} - e^{i t2}|^2 under the n = 2 repulsive density:
        # integrating (2 - 2 cos d)^2 / (8 pi^2) over the torus gives 3
        val, _ = scipy.integrate.quad(
            lambda d: (2 - 2 * np.cos(d)) ** 2 / (8 * np.pi**2) * 2 * np.pi,
            -np.pi, np.pi,
        )
        assert val == pytest.approx(3.0, abs=1e-10)
        cfg = ChainConfig(n=2, beta=2.0, steps=120000, burn_in=5000, seed=9)
        th = _run_chain(cfg)[0]
        stat = np.abs(np.exp(1j * th[:, 0]) - np.exp(1j * th[:, 1])) ** 2
        # generous 3 sigma band with an autocorrelation allowance
        sigma = np.std(stat) / np.sqrt(len(stat) / 50.0)
        assert abs(np.mean(stat) - val) <= 3 * sigma

    @pytest.mark.parametrize("n, beta", [(1, 2.0), (3, 1.5), (5, 4.0),
                                         (2, 2.0), (4, 2.0), (4, 4.0)])
    def test_kernel_matches_log_form_rule(self, n, beta):
        # the product-form kernel must run the same Markov chain as the
        # log-form rule: same kept angles, acceptance rate and tuned width
        cfg = ChainConfig(n=n, beta=beta, steps=3000, burn_in=1000, seed=11,
                          proposal_width=0.05)
        out, rate, width = _run_chain(cfg)
        ref_out, ref_rate, ref_width = log_form_chain(cfg)
        assert width != cfg.proposal_width  # burn-in tuning was active
        assert np.array_equal(out, ref_out)
        assert rate == ref_rate
        assert width == ref_width

    def test_determinism(self):
        cfg = ChainConfig(n=3, beta=1.5, steps=2000, burn_in=100, seed=42)
        a = _run_chain(cfg)[0]
        b = _run_chain(cfg)[0]
        assert np.array_equal(a, b)


class TestEstimate:
    def test_circle_identity_functional(self, circle):
        cfg = ChainConfig(n=3, beta=2.0, steps=4000, burn_in=500, seed=2)
        est = estimate_ratio(circle, zero_symbol(), cfg, m=8)
        assert est.mean_log == pytest.approx(0.0, abs=3 * est.std_error)
        assert est.ess <= cfg.steps - cfg.burn_in

    def test_reproducible(self, qcurve):
        cfg = ChainConfig(n=4, beta=2.0, steps=3000, burn_in=300, seed=17)
        a = estimate_ratio(qcurve, zero_symbol(), cfg, m=16)
        b = estimate_ratio(qcurve, zero_symbol(), cfg, m=16)
        assert a == b

    def test_auto_m_uses_the_ladder_table(self, wobbly, a1_sym):
        cfg = ChainConfig(n=3, beta=2.0, steps=2000, burn_in=200, seed=5)
        auto = estimate_ratio(wobbly, a1_sym, cfg)
        assert auto == estimate_ratio(wobbly, a1_sym, cfg, suggest_truncation(wobbly))

    def test_beta_two_matches_direct(self, qcurve):
        truth = log_det_Dn(qcurve, zero_symbol(), 4).log_Dn.real - 4 * LOG_2PI
        cfg = ChainConfig(n=4, beta=2.0, steps=100000, burn_in=10000, seed=3)
        est = estimate_ratio(qcurve, zero_symbol(), cfg)
        assert abs(est.mean_log - truth) <= 3 * est.std_error

    def test_beta_four_runs(self, qcurve):
        cfg = ChainConfig(n=4, beta=4.0, steps=20000, burn_in=2000, seed=6)
        est = estimate_ratio(qcurve, zero_symbol(), cfg, m=16)
        assert np.isfinite(est.mean_log)
        assert est.std_error > 0

    def test_acceptance_tuned(self, qcurve):
        cfg = ChainConfig(n=4, beta=2.0, steps=20000, burn_in=5000, seed=8,
                          proposal_width=3.0)
        est = estimate_ratio(qcurve, zero_symbol(), cfg, m=8)
        assert 0.2 <= est.acceptance_rate <= 0.6

    def test_nonzero_mean_warns(self, qcurve):
        from szegodet import symbol_from_coefficients

        cfg = ChainConfig(n=2, beta=2.0, steps=2000, burn_in=100, seed=1)
        with pytest.warns(UserWarning):
            estimate_ratio(qcurve, symbol_from_coefficients(1.0), cfg, m=8)

    @pytest.mark.parametrize("a0", [-2000.0, 2000.0])
    def test_large_mean_shifts_the_log(self, qcurve, a0):
        # exp of the raw exponents under- or overflows here; a0 only adds
        # n a0 / 2 to every exponent, so the log mean moves by exactly that
        from szegodet import symbol_from_coefficients

        cfg = ChainConfig(n=4, beta=2.0, steps=20000, burn_in=1000, seed=1)
        ref = estimate_ratio(qcurve, symbol_from_coefficients(0.0, [0.1]), cfg, m=16)
        with pytest.warns(UserWarning):
            est = estimate_ratio(qcurve, symbol_from_coefficients(a0, [0.1]), cfg, m=16)
        assert est.mean_log == pytest.approx(ref.mean_log + cfg.n * a0 / 2, abs=1e-9)
        assert est.std_error == pytest.approx(ref.std_error, rel=1e-9)
        assert est.ess == pytest.approx(ref.ess, rel=1e-9)
        assert est.acceptance_rate == ref.acceptance_rate


class TestSinglePassEstimator:
    # a symbol shorter than the table, and one with a_40 != 0 past m = 8
    SYMBOLS = {
        "short": symbol_from_coefficients(0.0, [0.2, -0.1], [0.15]),
        "long": symbol_from_coefficients(0.0, [0.1] + [0.0] * 38 + [0.05], [0.0, 0.1]),
    }

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("sym_name", ["short", "long"])
    @pytest.mark.parametrize("curve_name", ["qcurve", "wobbly"])
    @pytest.mark.parametrize("m", [8, 32])
    @pytest.mark.parametrize("beta", [1.5, 2.0, 4.0])
    def test_matches_three_passes(self, request, beta, m, curve_name, sym_name, n):
        # qcurve is the q = 0.5 ellipse (real table); wobbly's degree-4
        # complex tail gives a complex table and phi' terms w^2 .. w^5;
        # 5000 kept sweeps span two blocks of power sums
        mp = request.getfixturevalue(curve_name)
        sym = self.SYMBOLS[sym_name]
        cfg = ChainConfig(n=n, beta=beta, steps=5500, burn_in=500, seed=13)
        est = estimate_ratio(mp, sym, cfg, m=m)
        mean_log, std_error, rate, ess = three_pass_estimate(mp, sym, cfg, m)
        assert abs(est.mean_log - mean_log) <= 1e-12 * max(1.0, abs(mean_log))
        assert est.std_error == pytest.approx(std_error, rel=1e-12, abs=0)
        assert est.ess == pytest.approx(ess, rel=1e-12, abs=0)
        assert est.acceptance_rate == rate


class TestRealSymbolRule:
    def test_complex_symbol_rejected_before_the_chain(self, qcurve, monkeypatch):
        def no_chain(cfg):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(mcbeta, "_run_chain", no_chain)
        cfg = ChainConfig(n=3, beta=2.0, steps=200000, burn_in=100, seed=1)
        with pytest.raises(ValueError, match="real-valued symbols only"):
            estimate_ratio(qcurve, symbol_from_coefficients(0.0, [0.1 + 0.2j]), cfg, m=8)

    def test_theta_samples_of_a_real_function_run(self, qcurve):
        theta = 2 * np.pi * np.arange(16) / 16
        sym = symbol_from_theta_samples(0.3 * np.cos(theta) - 0.2 * np.sin(2 * theta))
        assert np.max(np.abs(sym.a.imag)) + np.max(np.abs(sym.b.imag)) > 0  # rounding only
        cfg = ChainConfig(n=3, beta=2.0, steps=2000, burn_in=200, seed=4)
        assert np.isfinite(estimate_ratio(qcurve, sym, cfg, m=8).mean_log)


def test_heavy_tail_detection():
    from szegodet.mcbeta import _heavy_tailed

    w = np.ones(5000)
    assert not _heavy_tailed(w)
    w[0] = 1e7  # one sample carries essentially the whole mean
    assert _heavy_tailed(w)
