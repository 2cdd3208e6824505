"""Benchmark launcher: python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  Each workload runs in its own worker
process (``worker.py``) with the BLAS and ``SZEGO_THREADS`` thread counts
pinned below.  ``--trace 0`` prints the end-to-end metrics; set-up time
is the median over SETUP_SAMPLES processes (set-up-only processes plus
the worker itself).  ``--trace 1`` prints the per-layer metrics.  The last
stdout line is the JSON result; the lines before it are a readable
report.  Generated inputs live in ``.perfbench_work/`` and are removed
at exit; span files from traced runs are kept there.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# one thread each: the loop is one closed-loop client, and two cores are
# shared with the rest of the machine; both values are printed
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SZEGO_THREADS": "1",
}
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170.0


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": blas_name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{k.lower(): v for k, v in PINNED_ENV.items()},
    }


def spawn_worker(args, workdir: Path, deadline: float, extra=()) -> dict:
    """Run worker.py to completion; its last stdout line is a JSON object."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--workdir", str(workdir), *extra]
    env = {**os.environ, **PINNED_ENV}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "szegodet" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'szegodet'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ROOT / ".perfbench_work"
    workdir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace == 0:
            # set-up-only processes before and after the worker, so that the
            # samples straddle the run rather than one stretch of machine speed
            def setup_only(i):
                return spawn_worker(args, workdir / f"setup{i}", deadline, ["--setup-only"])

            before = (SETUP_SAMPLES - 1) // 2
            setups = [setup_only(i) for i in range(before)]
            res = spawn_worker(args, workdir / "run", deadline)
            setups += [dict(res)] + [setup_only(i) for i in range(before, SETUP_SAMPLES - 1)]
            res["setup_samples"] = [x["setup_s"] for x in setups]
            for key in ("setup_s", "setup_cpu_s", "setup_wall_s"):
                res[key] = statistics.median(x[key] for x in setups)
        else:
            spans = base / f"spans-{args.workload}-{args.seed}.jsonl"
            res = spawn_worker(args, workdir / "run", deadline, ["--spans", str(spans)])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts()
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("# machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    steal = f"{res['steal_frac']:.3f}" if "steal_frac" in res else "unknown"
    print(f"# rounds {res['rounds']}  jobs {res['attempted']}  ok {res['ok']}  "
          f"failed {res['attempted'] - res['ok']}  wrong outputs {res['wrong']}  "
          f"timed {res['wall_s']:.3f} s wall, {res['cpu_s']:.3f} s job CPU  "
          f"host steal / busy vCPU time {steal}")
    print(f"failed_frac {(res['attempted'] - res['ok']) / res['attempted']:.6g} ratio")
    for kind, k in res["by_kind"].items():
        print(f"#   {kind:28s} jobs {k['jobs']:5d}  ok {k['ok']:5d}  "
              f"median {k['median_cpu_s']:.4f} s CPU, {k['median_wall_s']:.4f} s wall")
    for reason, count in sorted(res["failures"].items()):
        print(f"#   failed x{count}: {reason}")
    if res["warmup_failure"]:
        print(f"#   warm-up failed: {res['warmup_failure']}")
    print(f"# input screen: {len(res['screened_out'])} generated curves redrawn, "
          f"{res['screen_cpu_s']:.3f} s CPU (left out of setup_s)")
    for path, reason in res["screened_out"]:
        print(f"#   redrawn {Path(path).name}: takagi would fail at {reason}")
    for kind, reason in res["probes"].items():
        verdict = f"KNOWN DEFECT: {reason}" if reason else "meets the contract"
        print(f"# probe (outside the metrics) {kind}: {verdict}")
    with open(ROOT / "BENCHMARK.json") as f:
        specs = json.load(f)["end_to_end" if args.trace == 0 else "per_layer"]
    if args.trace == 0:
        values = res
    else:
        values = res["per_layer"]
        print(f"# traced pass failures {res['traced_failures']}")
        if res["missing_targets"]:
            print("# not traced (attribute missing): " + ", ".join(res["missing_targets"]))
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        metrics[name] = {"value": float(values[name]), "unit": unit}
        note = ""
        if name == "job_tail_ref":
            note = (f"  (rank {res['tail_rank']} of {res['attempted']}, "
                    f"p{100.0 * res['tail_rank'] / res['attempted']:.1f})")
        elif name == "setup_s":
            note = ("  (rescaled CPU; median of "
                    + ", ".join(f"{s:.3f}" for s in res["setup_samples"])
                    + f"; CPU median {res['setup_cpu_s']:.3f} s, "
                    f"wall median {res['setup_wall_s']:.3f} s)")
        print(f"{name} {metrics[name]['value']:.6g} {unit}{note}")
    if args.trace == 0:
        lo, med, hi, count = res["ref_kernel_ms"]
        print(f"# reference kernel: {count} samples, CPU {lo:.3f} / {med:.3f} / {hi:.3f} ms "
              f"(min / median / max) of the {args.workload} kernel; "
              "1 ref = its median CPU time near the job")
        print(f"# CPU time: ok_jobs_per_cpu_s {res['ok_jobs_per_cpu_s']:.6g} 1/s  "
              f"job_cpu_p50_s {res['job_cpu_p50_s']:.6g} s  "
              f"job_cpu_tail_s {res['job_cpu_tail_s']:.6g} s")
        print(f"# wall time: ok_jobs_per_s {res['ok_jobs_per_s']:.6g} 1/s  "
              f"job_p50_s {res['job_p50_s']:.6g} s  job_tail_s {res['job_tail_s']:.6g} s")
        if res["mc_cost_s"] is not None:
            print(f"mc_cost_ref {res['mc_cost_ref']:.6g} ref  mc_cost_s {res['mc_cost_s']:.6g} s"
                  "  (median chain CPU time x (std_error/0.01)^2)")
    result = {
        "correct": res["wrong"] == 0 and res["warmup_failure"] is None,
        "attempted": res["attempted"],
        "failed": res["attempted"] - res["ok"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
