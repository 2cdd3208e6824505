"""One workload in one process: set-up, a closed loop of CLI calls, checks.

Started by ``run.py``; prints one JSON object as its last stdout line.
The loop has one client: each job is an in-process ``szegodet.cli.main``
call that starts when the previous one returned.  Jobs run in whole
rounds until ``--seconds`` have passed, so every run sees the same mix.
Each job is timed twice: wall time, and the process CPU time it used.
The end-to-end metrics divide each job's CPU time by the CPU time of a
fixed reference kernel timed alongside it (``SpeedReference``), which
takes out two kinds of machine noise that are not the program's: on a
shared virtual machine the wall time of a single-threaded job also
counts the time the host ran other guests on its vCPU, and the speed of
the vCPU itself changes by up to 1.7x for seconds to minutes at a time.
The wall and CPU figures are reported beside them.  The known-defect
probes run after the timed phase.

Modes:
  --setup-only   stop when the timed phase would begin (set-up samples)
  --trace 0      timed run; end-to-end metrics
  --trace 1      each round untraced, then again traced; per-layer
                 metrics, tracing overhead, spans written to --spans
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import workloads  # noqa: E402


def import_program():
    """Import szegodet from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import szegodet
    import szegodet.cli

    if not Path(szegodet.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"szegodet imported from {szegodet.__file__}, not {src}")
    return szegodet


_SYM96 = np.random.default_rng(0).standard_normal((96, 96))
_SYM96 = _SYM96 + _SYM96.T
_BASIS = np.exp(1j * np.outer(np.linspace(0.0, 6.0, 2048), np.arange(32)))


def mixed_kernel():
    """A pure-Python loop, then two eigendecompositions and products of a
    fixed 96 x 96 matrix (about 5 ms): interpreter and small LAPACK work."""
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    for _ in range(2):
        np.linalg.eigh(_SYM96)
        _SYM96 @ _SYM96


def arnoldi_kernel():
    """Gram-Schmidt against a fixed 2048 x 32 complex basis (about 6 ms).

    Matrix-vector products on tall complex blocks, as in the Arnoldi
    recurrence of ``direct.log_det_Dn``.
    """
    v = _BASIS[:, 0].copy()
    for j in range(1, _BASIS.shape[1]):
        v = v - _BASIS[:, :j] @ (_BASIS[:, :j].conj().T @ v)
        v /= np.linalg.norm(v)


# The reference kernel of each workload does the kind of work that
# dominates it, so that a slower machine slows both alike: sweep is about
# 80 % direct.log_det_Dn, whose long-n calls a slow machine slows less
# than it slows the interpreter or small LAPACK calls; the others, and
# set-up (imports, input generation), are interpreter and small LAPACK
# work.
KERNELS = {"sweep": arnoldi_kernel, "spectral": mixed_kernel,
           "montecarlo": mixed_kernel, "quick": mixed_kernel}
# set-up CPU time is rescaled to the speed at which mixed_kernel takes
# SETUP_REF_KERNEL_S of CPU time (4-5 ms on a 2-vCPU Xeon VM)
SETUP_REF_KERNEL_S = 0.005


def kernel_cpu(kernel) -> float:
    c0 = time.process_time()
    kernel()
    return time.process_time() - c0


class SpeedReference:
    """CPU time of a fixed kernel, sampled between jobs every ``every_s``.

    The kernel is the benchmark's own code, so no change to the program
    moves it.  A job's speed-normalised time is its CPU time over the
    median kernel time in a window of ``window_s`` around the job.
    """

    def __init__(self, kernel, every_s=0.2, window_s=2.0):
        self.kernel = kernel
        self.every_s, self.window_s = every_s, window_s
        self.samples: list[tuple[float, float]] = []  # (perf_counter, CPU seconds)
        self._last = -math.inf
        kernel()  # first call pays for lazy initialisation

    def maybe_sample(self):
        now = time.perf_counter()
        if now - self._last >= self.every_s:
            self.samples.append((now, kernel_cpu(self.kernel)))
            self._last = time.perf_counter()

    def at(self, t0: float, t1: float) -> float:
        """Median kernel CPU time within ``window_s`` of [t0, t1]."""
        near = [c for t, c in self.samples if t0 - self.window_s <= t <= t1 + self.window_s]
        if len(near) < 3:
            near = [c for _, c in sorted(self.samples, key=lambda s: abs(s[0] - t0))[:3]]
        return statistics.median(near)


class Result(NamedTuple):
    job: object
    start: float  # perf_counter at the call
    wall: float  # seconds
    cpu: float  # process CPU seconds
    code: int | None  # exit code; None when the call raised
    reason: str | None  # None when the output passed its check
    mc_std_error: float | None  # std_error of a correct beta-mc output


def run_job(cli_mod, job) -> Result:
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_mod.main(list(job.argv))
    except Exception as exc:  # a crash is a failed job, never a crashed benchmark
        return Result(job, t0, time.perf_counter() - t0, time.process_time() - c0, None,
                      f"raised {type(exc).__name__}: {exc}", None)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    try:
        reason = job.check(code, out.getvalue())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        reason = f"unparsable output ({type(exc).__name__})"
    se = None
    if reason is None and job.kind.startswith("montecarlo."):
        se = float(out.getvalue().splitlines()[1].split(",")[2])
    # the output itself is dropped: kept, large tables would inflate peak_rss_mb
    return Result(job, t0, wall, cpu, code, reason, se)


def run_round(cli_mod, wl, r, results, tracer=None, ref=None):
    for job in workloads.round_jobs(wl, r):
        if tracer is not None:
            tracer.job_id = len(results)
        if ref is not None:
            ref.maybe_sample()
        results.append(run_job(cli_mod, job))


def run_rounds(cli_mod, wl, seconds, ref):
    """Whole rounds until ``seconds`` have passed."""
    results, r = [], 0
    t0 = time.perf_counter()
    while time.perf_counter() < t0 + seconds:
        run_round(cli_mod, wl, r, results, ref=ref)
        r += 1
    ref.maybe_sample()
    return results, r, time.perf_counter() - t0


def run_probes(cli_mod, wl, tracer=None):
    """Known-defect probes: {kind: failure reason or None}."""
    out = {}
    if tracer is not None:
        tracer.install()
    try:
        for job in wl.probes:
            out[job.kind] = run_job(cli_mod, job).reason
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out


def run_traced(cli_mod, wl, seconds, spans_path=None):
    """Each round untraced, then again traced, until ``seconds`` have passed.

    Alternating keeps a slow drift of machine speed out of the overhead.
    Returns the untraced results, the round count, the untraced job time
    and the per-layer part of the worker's report.
    """
    from tracing import LAYERS, Tracer

    results, traced, r = [], [], 0
    tracer = Tracer()
    t0 = time.perf_counter()
    while time.perf_counter() < t0 + seconds:
        run_round(cli_mod, wl, r, results)
        missing = tracer.install()
        try:
            run_round(cli_mod, wl, r, traced, tracer)
        finally:
            tracer.uninstall()
        r += 1
    untraced_s = sum(x.wall for x in results)
    layer = tracer.metrics(r)
    self_total = sum(layer[f"{name}.self_s"] for name in LAYERS)
    layer["tracing.overhead_frac"] = (sum(x.wall for x in traced) - untraced_s) / untraced_s
    layer["tracing.unaccounted_frac"] = (untraced_s / r - self_total) / (untraced_s / r)
    if spans_path:
        tracer.write_spans(spans_path)
    extra = {"per_layer": layer, "missing_targets": missing,
             "traced_failures": sum(1 for x in traced if x.reason is not None)}
    return results, r, untraced_s, extra


def latency_metrics(times, failed, limit):
    """p50 and tail of per-job times; a failed job counts as +inf.

    The tail is the highest percentile with at least ten jobs beyond it.
    A +inf there (more than ten failures in the run) is reported as
    ``limit``, the sum of all job times, the longest a run can observe.
    """
    lat = sorted(math.inf if bad else t for t, bad in zip(times, failed))
    lat = [limit if math.isinf(v) else v for v in lat]
    J = len(lat)
    tail_rank = J - 10 if J > 10 else J  # 1-based nearest rank
    return lat[math.ceil(0.5 * J) - 1], lat[tail_rank - 1], tail_rank


def takagi_pairing_failure(K) -> str | None:
    """Why ``szegodet.grunsky.takagi`` would raise PairingFailed on K, or None.

    The same eigenproblem (``numpy.linalg.eigh`` of the same K) and the
    same thresholds as the program's pairing checks, without the
    zero-space basis that makes ``takagi`` itself slow.
    """
    w = np.linalg.eigh(K)[0]
    if not len(w):
        return None
    scale = max(float(np.max(np.abs(w))), 1.0)
    ws = np.sort(w)
    if float(np.max(np.abs(ws + ws[::-1]))) > 1e-9 * scale:
        return "eigenvalues fail the +/- pairing"
    ztol = 1e-13 * scale
    pos, neg = int(np.sum(w > ztol)), int(np.sum(w < -ztol))
    if pos != neg or (len(w) - pos - neg) % 2:
        return f"multiplicities disagree: {pos} positive, {neg} negative"
    return None


def mc_cost(results, times):
    """Median over chains of time x (std_error / 0.01)**2.

    std_error is relative (delta method), so this is the projected time
    for one chain to reach 1 % relative error.
    """
    costs = [t * (x.mc_std_error / 0.01) ** 2 for x, t in zip(results, times)
             if x.mc_std_error is not None]
    return statistics.median(costs) if costs else None


def steal_ticks():
    """Host steal and guest busy ticks of all vCPUs so far, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            t = [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return t[7], t[0] + t[1] + t[2] + t[5] + t[6]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t0", type=float, required=True, help="launcher's monotonic spawn time")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    szegodet = import_program()
    cli_mod = szegodet.cli
    from szegodet import direct, grunsky, predict

    def mc_truth(curve_path, symbol_path):
        mp = cli_mod.load_curve(curve_path)
        sym = cli_mod.load_symbol(symbol_path)
        log_dn = direct.log_det_Dn(mp, sym, 4).log_Dn.real
        return log_dn - predict.zn_beta_circle(4, 2.0) - 16 * math.log(mp.cap)

    screen_cpu = [0.0]

    def screen(curve_path, ms):
        c0 = time.process_time()
        try:
            mp = cli_mod.load_curve(curve_path)
            for m in ms:
                why = takagi_pairing_failure(grunsky.operators(grunsky.grunsky_coefficients(mp, m)).K)
                if why:
                    return f"m = {m}: {why}"
            return None
        finally:
            screen_cpu[0] += time.process_time() - c0

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    # set-up-only processes skip the screen: its time is left out of setup_s
    wl = workloads.build(args.workload, args.seed, work, truth_fn=mc_truth,
                         screen_fn=None if args.setup_only else screen)
    warm = run_job(cli_mod, wl.warmup)
    # set-up CPU time of this process, from its start (interpreter, imports,
    # inputs, warm-up), less the screen; the wall time from spawn beside it
    setup_cpu = time.process_time() - screen_cpu[0]
    setup_wall = time.monotonic() - args.t0 - screen_cpu[0]
    mixed_kernel()  # lazy initialisation
    kernel_s = statistics.median(kernel_cpu(mixed_kernel) for _ in range(9))
    doc = {"setup_s": setup_cpu * SETUP_REF_KERNEL_S / kernel_s, "setup_cpu_s": setup_cpu,
           "setup_wall_s": setup_wall, "setup_kernel_s": kernel_s,
           "screen_cpu_s": screen_cpu[0], "screened_out": wl.rejected,
           "warmup_failure": warm.reason}
    if args.setup_only:
        print(json.dumps(doc))
        return 0

    steal0 = steal_ticks()
    ref = SpeedReference(KERNELS[args.workload])
    if args.trace == 0:
        results, rounds, wall = run_rounds(cli_mod, wl, args.seconds, ref)
        # read before the probes, which are outside every metric
        doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe_tracer = None
    else:
        results, rounds, wall, extra = run_traced(cli_mod, wl, args.seconds, args.spans)
        doc.update(extra)
        from tracing import Tracer
        probe_tracer = Tracer()
    steal1 = steal_ticks()
    if steal0 and steal1 and steal1[1] > steal0[1]:
        doc["steal_frac"] = (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])
    doc["probes"] = run_probes(cli_mod, wl, probe_tracer)

    ok = sum(1 for x in results if x.reason is None)
    failed = [x.reason is not None for x in results]
    cpu_s = sum(x.cpu for x in results)
    p50_cpu, tail_cpu, _ = latency_metrics([x.cpu for x in results], failed, cpu_s)
    p50_wall, tail_wall, _ = latency_metrics([x.wall for x in results], failed, wall)
    if ref.samples:
        norm = [x.cpu / ref.at(x.start, x.start + x.wall) for x in results]
        kernel = [c for _, c in ref.samples]
        doc["ref_kernel_ms"] = [1e3 * min(kernel), 1e3 * statistics.median(kernel),
                                1e3 * max(kernel), len(kernel)]
    else:  # traced runs take no reference samples and report no end-to-end metrics
        norm = [x.cpu for x in results]
    p50, tail, tail_rank = latency_metrics(norm, failed, sum(norm))
    failures = {}
    for x in results:
        if x.reason is not None:
            key = f"{x.job.kind}: {x.reason}"
            failures[key] = failures.get(key, 0) + 1
    by_kind = {}
    for x in results:
        by_kind.setdefault(x.job.kind, []).append(x)
    doc["by_kind"] = {k: {"jobs": len(v), "ok": sum(x.reason is None for x in v),
                          "median_cpu_s": statistics.median(x.cpu for x in v),
                          "median_wall_s": statistics.median(x.wall for x in v)}
                      for k, v in sorted(by_kind.items())}
    doc.update(
        rounds=rounds, wall_s=wall, cpu_s=cpu_s, attempted=len(results), ok=ok,
        # exit 0 with an output outside tolerance is a wrong answer, not just a failure
        wrong=sum(1 for x in results if x.code == 0 and x.reason is not None),
        ok_jobs_per_kref=1e3 * ok / sum(norm), job_p50_ref=p50, job_tail_ref=tail,
        ok_jobs_per_cpu_s=ok / cpu_s, job_cpu_p50_s=p50_cpu, job_cpu_tail_s=tail_cpu,
        ok_jobs_per_s=ok / wall, job_p50_s=p50_wall, job_tail_s=tail_wall,
        tail_rank=tail_rank, failures=failures,
        mc_cost_s=mc_cost(results, [x.cpu for x in results]), mc_cost_ref=mc_cost(results, norm),
    )
    if args.trace == 1:
        layer = doc["per_layer"]
        layer["mcbeta.mc_cost_s"] = doc["mc_cost_s"] or 0.0
        pm = probe_tracer.metrics(1)
        layer["probes.failed"] = sum(r is not None for r in doc["probes"].values())
        layer["probes.direct.log_det_Dn.errors.NotConverged"] = pm[
            "direct.log_det_Dn.errors.NotConverged"]
        layer["probes.direct.log_det_Dn.max_nodes"] = pm["direct.log_det_Dn.max_nodes"]
        layer["probes.cli.main.exit_3"] = pm["cli.main.exit_3"]
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
