"""Spans and counters around the public functions of each szegodet layer.

The wrappers replace the module attributes the program looks functions
up through at call time (``szegodet.grunsky.takagi`` for
``spectral_report``, ``szegodet.predict.spectral_report`` for
``predict_log_Dn``, ...), so nothing under ``src/`` changes.  Spans
(name, start, end, parent, job id) stay in memory and are written out
when the run ends.  A span's self time is its duration minus its child
spans; the time the counters themselves take (for example the
unitarity check of a Takagi factor) is charged to tracing, not to the
enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name): every place the program resolves a layer
# function at call time
TARGETS = (
    ("szegodet.cli", "main", "cli.main"),
    ("szegodet.cli", "make_map", "series.make_map"),
    ("szegodet.grunsky", "grunsky_coefficients", "grunsky.grunsky_coefficients"),
    ("szegodet.predict", "grunsky_coefficients", "grunsky.grunsky_coefficients"),
    ("szegodet.mcbeta", "grunsky_coefficients", "grunsky.grunsky_coefficients"),
    ("szegodet.grunsky", "operators", "grunsky.operators"),
    ("szegodet.predict", "operators", "grunsky.operators"),
    ("szegodet.grunsky", "takagi", "grunsky.takagi"),
    ("szegodet.grunsky", "spectral_report", "grunsky.spectral_report"),
    ("szegodet.predict", "spectral_report", "grunsky.spectral_report"),
    ("szegodet.grunsky", "suggest_truncation", "grunsky.suggest_truncation"),
    ("szegodet.mcbeta", "suggest_truncation", "grunsky.suggest_truncation"),
    ("szegodet.predict", "predict_log_Dn", "predict.predict_log_Dn"),
    ("szegodet.predict", "quadratic_form", "predict.quadratic_form"),
    ("szegodet.direct", "log_det_Dn", "direct.log_det_Dn"),
    ("szegodet.direct", "finite_energy", "direct.finite_energy"),
    ("szegodet.mcbeta", "estimate_ratio", "mcbeta.estimate_ratio"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))
LAYERS = ("series", "grunsky", "predict", "direct", "mcbeta", "cli")

# direct.log_det_Dn grid policy, used to derive the grids a call evaluated
# from its N_nodes and n (an estimate: the program does not report them)
_N_START_MIN = 512
_N_CAP = 1 << 20


def _start_grid(n: int) -> int:
    return 1 << int(np.ceil(np.log2(max(_N_START_MIN, 8 * n))))


def _grids(n: int, N_explicit, N_final) -> list[int]:
    if N_explicit is not None:
        return [N_explicit, 2 * N_explicit if 2 * N_explicit <= _N_CAP else N_explicit // 2]
    out, g = [], _start_grid(n)
    while g <= N_final:
        out.append(g)
        g *= 2
    return out


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, job id)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.tables: set = set()
        self.acceptance: list[float] = []
        self.hook_s = 0.0
        self.job_id = -1
        self._stack: list[list] = []  # [span index, child time]
        self._active: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target that exists; return the ones that do not."""
        missing = []
        wrapped = {}
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            key = (id(fn), span)
            if key not in wrapped:
                wrapped[key] = self._wrap(fn, span)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapped[key])
        return missing

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        sig = inspect.signature(fn)
        pre = getattr(self, "_pre_" + name.replace(".", "_"), None)
        post = getattr(self, "_post_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if pre or post:
                h0 = time.perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if pre:
                    pre(bound.arguments)
                self._charge_hook(time.perf_counter() - h0)
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            result, error = None, None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = time.perf_counter()
                self._active[name] -= 1
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.job_id)
                self.calls[name] += 1
                self.self_s[name] += (t1 - t0) - frame[1]
                if self._stack:
                    self._stack[-1][1] += t1 - t0
                if post:
                    h0 = time.perf_counter()
                    post(bound.arguments, result, error)
                    self._charge_hook(time.perf_counter() - h0)

        return wrapper

    def _charge_hook(self, dt: float):
        self.hook_s += dt
        if self._stack:
            self._stack[-1][1] += dt

    def _max(self, key, value):
        self.maxima[key] = max(self.maxima[key], float(value))

    # -- counters at the layer boundaries -----------------------------------

    def _pre_grunsky_grunsky_coefficients(self, a):
        mp, m = a["mp"], int(a["size"])
        self._max("grunsky.grunsky_coefficients.max_m", m)
        self.counts["grunsky.grunsky_coefficients.sum_m3"] += float(m) ** 3
        self.tables.add((mp.cap, complex(mp.phi0), np.asarray(mp.tail).tobytes(), m))
        if self._active["predict.predict_log_Dn"]:
            self.counts["predict.ladder_tables"] += 1

    def _post_grunsky_takagi(self, a, res, err):
        if res is None:
            return
        m = res.U.shape[0]
        self._max("grunsky.takagi.max_m", m)
        self.counts["grunsky.takagi.zero_pairs"] += int(np.sum(res.lam == 0.0))
        if m:
            gram = res.U.conj().T @ res.U
            self._max("grunsky.takagi.unitarity_err",
                      float(np.max(np.abs(gram - np.eye(m)))))

    def _post_predict_predict_log_Dn(self, a, res, err):
        if res is not None:
            self._max("predict.predict_log_Dn.max_m_used", res.m_used)

    def _post_direct_log_det_Dn(self, a, res, err):
        n, N = int(a["n"]), a["N"]
        if err is not None:
            cls = type(err).__name__
            self.counts["direct.log_det_Dn.errors"] += 1
            if cls == "NotConverged":
                self.counts["direct.log_det_Dn.errors.NotConverged"] += 1
            else:
                return  # rejected before any grid was evaluated
            final = _N_CAP
        else:
            final = res.N_nodes
        grids = _grids(n, N, final)
        self._max("direct.log_det_Dn.max_nodes", max(grids))
        self.counts["direct.log_det_Dn.grid_evals"] += len(grids)
        self.counts["direct.log_det_Dn.arnoldi_flops_est"] += sum(16.0 * g * n * n for g in grids)

    def _pre_mcbeta_estimate_ratio(self, a):
        cfg = a["cfg"]
        self.counts["mcbeta.estimate_ratio.site_updates"] += cfg.steps * cfg.n

    def _post_mcbeta_estimate_ratio(self, a, res, err):
        if res is not None:
            self.counts["mcbeta.ess"] += res.ess
            self.acceptance.append(res.acceptance_rate)

    def _post_cli_main(self, a, res, err):
        if isinstance(res, int):
            self.counts[f"cli.main.exit_{res}"] += 1

    # -- results -------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics; sums are per round of the workload."""
        per = 1.0 / rounds
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] * per
            out[f"{name}.self_s"] = self.self_s[name] * per
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per * sum(
                v for k, v in self.self_s.items() if k.split(".")[0] == layer)
        for key in ("grunsky.grunsky_coefficients.sum_m3", "grunsky.takagi.zero_pairs",
                    "direct.log_det_Dn.grid_evals", "direct.log_det_Dn.arnoldi_flops_est",
                    "direct.log_det_Dn.errors", "direct.log_det_Dn.errors.NotConverged",
                    "mcbeta.estimate_ratio.site_updates",
                    "cli.main.exit_0", "cli.main.exit_2", "cli.main.exit_3"):
            out[key] = self.counts[key] * per
        for key in ("grunsky.grunsky_coefficients.max_m", "grunsky.takagi.max_m",
                    "grunsky.takagi.unitarity_err", "predict.predict_log_Dn.max_m_used",
                    "direct.log_det_Dn.max_nodes"):
            out[key] = self.maxima[key]
        built = self.calls["grunsky.grunsky_coefficients"]
        out["grunsky.tables_unique_frac"] = len(self.tables) / built if built else 0.0
        pcalls = self.calls["predict.predict_log_Dn"]
        out["predict.predict_log_Dn.ladder_tables_per_call"] = (
            self.counts["predict.ladder_tables"] / pcalls if pcalls else 0.0)
        mc_s = self.self_s["mcbeta.estimate_ratio"]
        out["mcbeta.estimate_ratio.site_updates_per_s"] = (
            self.counts["mcbeta.estimate_ratio.site_updates"] / mc_s if mc_s else 0.0)
        out["mcbeta.estimate_ratio.ess_per_s"] = self.counts["mcbeta.ess"] / mc_s if mc_s else 0.0
        out["mcbeta.estimate_ratio.acceptance"] = (
            float(np.mean(self.acceptance)) if self.acceptance else 0.0)
        out["tracing.spans"] = len(self.spans) * per
        out["tracing.hook_s"] = self.hook_s * per
        return out

    def write_spans(self, path):
        with open(path, "w") as f:
            for name, t0, t1, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "job": job}) + "\n")
