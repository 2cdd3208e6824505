"""Seeded inputs, job lists and output checks for the benchmark workloads.

Every input is drawn from ``numpy.random.default_rng`` seeded with the
run seed, so one seed always gives the same files.  The program only
ever sees the JSON files written here and the command lines built here.

Curves are ``cap * (z + phi0 + sum t_k z**-k)`` with ``sum k|t_k| <= rho
< 1``, which is sufficient for univalence (``make_map`` still checks).
Each generated curve has one dominant term t_d with ``d|t_d| = r**(d+1)``,
so phi' vanishes on the circle |z| = r, plus small random lower terms.
That critical radius r sets how fast the Grunsky table decays, hence
which m the ``--m auto`` ladder reaches (r <= 0.72: m = 32, r ~ 0.89:
m = 128, r ~ 0.94: m = 256, ellipse with q ~ 0.93: m = 512), and how
fast the finite-n residual decays (about r**(2n)).  Holding r fixed and
drawing phases, the cap, phi0 and the symbols from the seed keeps the
cost of a job nearly the same from seed to seed while the numbers
differ.

Why each workload has the mix it has:

* ``sweep``: ``convergence --m auto`` jobs.  Long-n ranges (up to n =
  100) on fast-decaying curves, where the direct determinant dominates,
  alternate with ranges near n = 40..60 on a slowly decaying curve
  (r = 0.89), where the per-n prediction ladder (Faber + Takagi at
  m = 128 for every n) dominates.  This is the traffic of the "one
  factorization for all n" item.  Its known-defect probe is a
  complex-symbol sweep that crosses n = 20 on the ``wobbly`` test curve:
  today it doubles the grid to 2**20 nodes and exits 3 (the complex-path
  item).
* ``spectral``: ``predict --m auto`` on r = 0.89 curves, ``grunsky``
  report jobs at m = 128 and m = 256, and one ``predict --m auto`` on an
  ellipse z + q/z with q ~ 0.93, which reaches m = 512 (Faber at 512
  without the generic Takagi cost, because its B is diagonal).  No job
  does direct quadrature, so this isolates the Grunsky table and the
  spectral layer and bypasses ``direct``.
* ``montecarlo``: ``beta-mc --n 4`` chains at beta = 2 and 4 with
  ``--m 32`` on the q = 0.5 ellipse and on a generated curve, plus one
  ``--m auto`` chain (``suggest_truncation``).  The Metropolis loop is
  nearly all of the time, so this isolates ``mcbeta``.
* ``quick``: hundreds of 5-40 ms calls (``direct --n <= 16``,
  ``predict --m 16/32``, ``energy``, ``wp-check``, ``grunsky --m 16``)
  on freshly generated curves, two ~70 ms ``energy`` calls on a finer
  r grid per round, and expected-error inputs.  Curve
  validation and CLI overhead are below 1 % of the other workloads and
  would go unmeasured without this one; it also uses ``direct`` on the
  512-node start grid many times, so a per-call cost added by a sweep
  optimisation shows here.  Its known-defect probes are ``--n 0`` and
  ``--N`` below 4n: the documented contract is exit 2 and the program
  exits 3 today.

Known-defect probes are jobs on which the program fails today.  They run
once per run, after the timed phase and outside every timing and memory
metric, so that the timed jobs are ones on which no operation fails; the
run reports each probe against the documented contract, so the defects
stay visible and a fix shows as a probe that passes.

One defect hits random valid curves: ``takagi`` counts the eigenvalues
of K within 1e-13 of zero, and when a +/- pair straddles that threshold
it raises PairingFailed (about one generated curve in a thousand).  So
every generated curve is screened at set-up (``Files.screened``) with
the same eigenproblem at each m its jobs may reach, and redrawn from the
same generator if it would fail; ``quick`` keeps one such curve as a
probe.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)
M_LADDER = (8, 16, 32, 64, 128, 256, 512)
# MC z-score limit; 5 sigma keeps false alarms below 1e-6 per chain
MC_Z_LIMIT = 5.0
MC_STEPS = 20000
MC_BURN_IN = 2000


@dataclass(frozen=True)
class Job:
    """One CLI call and the check applied to its exit code and output."""

    kind: str
    argv: tuple
    check: Callable[[int, str], str | None]  # None when correct, else why not


@dataclass(frozen=True)
class Curve:
    cap: float
    phi0: complex
    tail: tuple
    crit: float  # radius of the critical circle of phi (0 for the circle)


@dataclass
class Workload:
    name: str
    warmup: Job
    rounds: list  # rounds[i] is a list of Job; round r runs rounds[r % len]
    probes: list  # known-defect jobs, run once after the timed phase
    rejected: list  # (curve path, reason) of curves the screen redrew


def crit_radius(tail) -> float:
    """Largest |z| where phi'(z) = 1 - sum k t_k z**(-k-1) vanishes."""
    tail = np.asarray(tail, dtype=complex)
    if not np.any(tail):
        return 0.0
    c = np.zeros(len(tail) + 2, dtype=complex)
    c[0] = 1.0
    c[2:] = -np.arange(1, len(tail) + 1) * tail
    return float(np.max(np.abs(np.roots(c))))


def gen_curve(rng, crit: float, degree: int, extra: float = 0.05,
              cap_range=(0.8, 1.25)) -> Curve:
    """Curve whose critical radius is within 1.5 % of ``crit``.

    The dominant term alone puts the critical circle at ``crit``; the
    lower terms carry ``extra`` times its ``d|t_d|`` in ``sum k|t_k|``,
    with random split and phases, and are redrawn (from the same
    generator) when they move the critical radius by more than 1.5 %.
    """
    k = np.arange(1, degree + 1)
    rho_dom = crit ** (degree + 1)
    for _ in range(1000):
        tail = np.zeros(degree, dtype=complex)
        tail[-1] = rho_dom / degree * np.exp(2j * np.pi * rng.random())
        if degree > 1:
            w = rng.dirichlet(np.ones(degree - 1)) * extra * rho_dom
            tail[:-1] = w / k[:-1] * np.exp(2j * np.pi * rng.random(degree - 1))
        r = crit_radius(tail)
        if abs(r - crit) <= 0.015 * crit:
            break
    else:
        raise ValueError(f"no curve with critical radius {crit} and degree {degree}")
    cap = float(rng.uniform(*cap_range))
    phi0 = complex(*rng.normal(scale=0.1, size=2))
    return Curve(cap, phi0, tuple(tail), r)


def ellipse(q: float, cap: float = 1.0) -> Curve:
    return Curve(cap, 0j, (complex(q),), math.sqrt(q))


def real_symbol(rng, n_cos=3, n_sin=2, scale=0.3, mean_zero=False) -> dict:
    a0 = 0.0 if mean_zero else float(rng.uniform(-0.2, 0.2))
    return {
        "a0": [a0, 0.0],
        "a": [[float(x), 0.0] for x in rng.uniform(-scale, scale, n_cos)],
        "b": [[float(x), 0.0] for x in rng.uniform(-scale, scale, n_sin)],
    }


class Files:
    """Writes generated curves and symbols under one run directory.

    ``screen(curve_path, ms)`` returns why the program would fail on the
    curve at one of the table sizes ``ms``, or None; curves it rejects
    are listed in ``rejected``.
    """

    def __init__(self, root: Path, screen=None):
        self.root = root
        self.count = 0
        self.screen = screen
        self.rejected: list[tuple[str, str]] = []

    def screened(self, draw, ms) -> tuple[Curve, str]:
        """Draw curves with ``draw()`` until one passes the screen."""
        while True:
            c = draw()
            path = self.curve(c)
            reason = self.screen(path, ms) if self.screen else None
            if reason is None:
                return c, path
            self.rejected.append((path, reason))

    def _write(self, prefix: str, doc: dict) -> str:
        self.count += 1
        path = self.root / f"{prefix}{self.count:05d}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def curve(self, c: Curve) -> str:
        return self._write("c", {
            "cap": c.cap,
            "phi0": [c.phi0.real, c.phi0.imag],
            "tail": [[complex(t).real, complex(t).imag] for t in c.tail],
        })

    def symbol(self, doc: dict) -> str:
        return self._write("s", doc)


# --- output checks ----------------------------------------------------------
# Each returns None when the output is correct, else a short reason.


def _csv_rows(out: str):
    lines = [ln for ln in out.strip().splitlines() if ln]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _residual_tol(crit: float, n: int, log_dn: float) -> float:
    """Finite-n correction ~ crit**(2n), floored at float64 noise of log D_n."""
    return max(4.0 * crit ** (2 * n), 1e-10 * max(1.0, abs(log_dn)))


def check_sweep(code, out, *, n_lo, n_hi, crit, tol=None):
    if code != 0:
        return f"exit {code}"
    head, rows = _csv_rows(out)
    if head[:7] != ["n", "N_nodes", "log_Dn_re", "log_Dn_im", "predicted",
                    "residual", "converged"]:
        return "bad CSV header"
    if [int(r[0]) for r in rows] != list(range(n_lo, n_hi + 1)):
        return "rows do not cover the n range"
    last = rows[-1]
    res = float(last[5])
    limit = tol if tol is not None else _residual_tol(crit, n_hi, float(last[2]))
    if not res <= limit:
        return f"residual {res:.3e} > {limit:.1e} at n = {n_hi}"
    if last[6] != "1":
        return "converged = 0 at the largest n"
    return None


def _prediction_terms_ok(doc, n, cap, a0) -> str | None:
    parts = (doc["term_cap"] + doc["term_2pi"] + doc["term_a0"][0]
             + doc["term_quadform"][0] + doc["term_halflogdet"])
    total = doc["total_log"][0]
    if doc["n"] != n:
        return "wrong n"
    if abs(parts - total) > 1e-9 * max(1.0, abs(total)):
        return "terms do not add up to total_log"
    if abs(doc["term_cap"] - n * n * math.log(cap)) > 1e-9 * max(1.0, n * n):
        return "term_cap != n^2 log cap"
    if abs(doc["term_2pi"] - n * LOG_2PI) > 1e-9 * n:
        return "term_2pi != n log 2pi"
    if abs(doc["term_a0"][0] - n * a0 / 2.0) > 1e-9 * max(1.0, n):
        return "term_a0 != n a0 / 2"
    return None


def check_predict_generic(code, out, *, n, cap, a0, m=None):
    """Structure of the breakdown; (I+K) is SPD so both m-terms are positive."""
    if code != 0:
        return f"exit {code}"
    doc = json.loads(out)
    bad = _prediction_terms_ok(doc, n, cap, a0)
    if bad:
        return bad
    if m is not None and doc["m_used"] != m:
        return f"m_used {doc['m_used']} != {m}"
    if doc["m_used"] not in M_LADDER:
        return f"m_used {doc['m_used']} not on the ladder"
    if not doc["term_quadform"][0] > 0 or abs(doc["term_quadform"][1]) > 1e-12:
        return "quadratic form of a real symbol is not positive real"
    if not doc["term_halflogdet"] >= 0:
        return "-1/2 log det(I+K) is negative"
    return None


def ellipse_cos_expected(n: int, q: float, cap: float) -> float:
    """log D_n for z + q/z with g o phi = cos theta: closed form."""
    s, k = 0.0, 1
    while q ** (2 * k) >= 1e-18:
        s += math.log1p(-(q ** (2 * k)))
        k += 1
    return n * n * math.log(cap) + n * LOG_2PI + 1.0 / (4.0 * (1.0 + q)) - 0.5 * s


def check_predict_ellipse(code, out, *, n, q, cap):
    if code != 0:
        return f"exit {code}"
    doc = json.loads(out)
    want = ellipse_cos_expected(n, q, cap)
    got = doc["total_log"][0]
    if abs(got - want) > 1e-9 * max(1.0, abs(want)) or doc["total_log"][1] != 0.0:
        return f"total_log {got!r} != closed form {want!r}"
    return None


def check_grunsky(code, out, *, m, tol=1e-8):
    """Table size plus the determinant identity det(I+K) = prod(1 - lam^2)."""
    if code != 0:
        return f"exit {code}"
    split = out.index("{")
    table, report = out[:split], json.loads(out[split:])
    if table.count("\n") != m * m + 1:
        return "table does not have m^2 rows"
    if report["m"] != m:
        return "wrong m in report"
    a, b = report["log_det_IplusK"], report["log_det_IminusBstarB"]
    if not abs(a - b) <= tol * max(1.0, abs(a)):
        return f"determinant identity off by {abs(a - b):.2e}"
    return None


def check_mc(code, out, *, truth=None):
    """beta = 2: z-score against log D_4 - log Z_4(circle); else sanity only."""
    if code != 0:
        return f"exit {code}"
    _, rows = _csv_rows(out)
    mean_log, se, ess, acc = (float(x) for x in rows[0][1:5])
    if not (math.isfinite(mean_log) and se > 0 and ess > 0 and 0 < acc < 1):
        return "non-finite estimate or bad diagnostics"
    if truth is not None and abs(mean_log - truth) > MC_Z_LIMIT * se:
        return f"z-score {abs(mean_log - truth) / se:.1f} > {MC_Z_LIMIT}"
    return None


def check_energy(code, out, *, rows_expected):
    if code != 0:
        return f"exit {code}"
    split = out.index("{")
    head, rows = _csv_rows(out[:split])
    report = json.loads(out[split:])
    vals = [float(r[1]) for r in rows]
    if head != ["r", "E_n"] or len(vals) != rows_expected:
        return "bad energy table"
    if not all(math.isfinite(v) for v in vals):
        return "non-finite energy"
    # E_n(r) is nonincreasing in r (the monotonicity lemma)
    if any(b > a + 1e-8 for a, b in zip(vals, vals[1:])):
        return "E_n not decreasing in r"
    if not report["trend_decreasing_in_r"]:
        return "report disagrees with the table"
    return None


def check_wp(code, out):
    if code != 0:
        return f"exit {code}"
    split = out.index("{")
    report = json.loads(out[split:])
    # every generated curve is analytic, hence Weil-Petersson
    if report["bounded_verdict"] is not True:
        return "analytic curve not reported bounded"
    return None


def check_exit(code, out, *, expected):
    """Expected-error inputs: ``expected`` is an exit code or 'nonzero'."""
    if expected == "nonzero":
        return None if code != 0 else "accepted an invalid curve"
    return None if code == expected else f"exit {code}, contract says {expected}"


# --- workloads --------------------------------------------------------------


def _ladder(top: int) -> tuple:
    """Table sizes an ``--m auto`` ladder may end on, up to ``top``."""
    return tuple(m for m in M_LADDER if m <= top)


# largest table an --m auto ladder reaches for a critical radius: one
# doubling past where it ends (m = 32) for r <= 0.72; at r = 0.89 it ends
# at m = 128, and screening m = 256 as well would double the set-up time
LADDER_TOP = {0.70: 64, 0.72: 64, 0.89: 128}


def _job(kind, argv, check, **kw):
    return Job(kind, tuple(str(a) for a in argv), functools.partial(check, **kw))


def _sweep_job(files, rng, kind, crit, degree, n_lo, n_hi):
    c, cpath = files.screened(lambda: gen_curve(rng, crit, degree), _ladder(LADDER_TOP[crit]))
    argv = ["convergence", "--curve", cpath,
            "--symbol", files.symbol(real_symbol(rng)),
            "--n", f"{n_lo}..{n_hi}", "--m", "auto"]
    return _job(kind, argv, check_sweep, n_lo=n_lo, n_hi=n_hi, crit=c.crit)


def _sweep_round(files, rng):
    # n ranges are fixed so a job's cost does not depend on the seed; 3 long :
    # 3 mid : 2 slow keeps the median inside the mid-n latency band and the
    # tail (p73..p80 at 40..50 jobs a run) inside the long-n band
    jobs = []
    for i in range(3):
        jobs.append(_sweep_job(files, rng, "sweep.long_n", 0.70, 2, 97, 100))
        jobs.append(_sweep_job(files, rng, "sweep.mid_n", 0.70, 2, 71, 75))
        if i < 2:
            jobs.append(_sweep_job(files, rng, "sweep.slow_curve", 0.89, 3, 48, 50))
    return jobs


def _complex_sweep(files):
    """The ``wobbly`` test curve with the complex symbol [1, 0.3, 0.1i].

    Fixed, not seeded (a known-defect probe): perturbing the curve flips some draws from
    NotConverged (2**20 nodes, about 1.1 GB) to a converged result whose
    residual is off by 4 pi, which would make cost and memory depend on
    the seed.
    """
    tail = (0.3, 0.1j, -0.05, 0.02 + 0.02j)
    c = Curve(1.3, complex(0.2, 0.1), tail, crit_radius(tail))
    sym = {"a0": [0.0, 0.0], "a": [[1.0, 0.0], [0.3, 0.0], [0.0, 0.1]], "b": []}
    argv = ["convergence", "--curve", files.curve(c), "--symbol", files.symbol(sym),
            "--n", "18..21", "--m", "auto"]
    return _job("sweep.complex_symbol", argv, check_sweep,
                n_lo=18, n_hi=21, crit=c.crit, tol=1e-6)


def _spectral_round(files, rng):
    def predict_generic():
        c, cpath = files.screened(lambda: gen_curve(rng, 0.89, int(rng.integers(2, 5))),
                                  _ladder(LADDER_TOP[0.89]))
        sym = real_symbol(rng)
        n = int(rng.integers(20, 201))
        argv = ["predict", "--curve", cpath, "--symbol", files.symbol(sym),
                "--n", n, "--m", "auto"]
        return _job("spectral.predict_auto", argv, check_predict_generic,
                    n=n, cap=c.cap, a0=sym["a0"][0])

    def grunsky_job(m, crit):
        _, cpath = files.screened(lambda: gen_curve(rng, crit, 3), (m,))
        return _job(f"spectral.grunsky_m{m}", ["grunsky", "--curve", cpath, "--m", m],
                    check_grunsky, m=m)

    q = float(rng.uniform(0.925, 0.935))
    cap = float(rng.uniform(0.8, 1.25))
    n = int(rng.integers(20, 201))
    ell = _job("spectral.ellipse_m512",
               ["predict", "--curve", files.curve(ellipse(q, cap)),
                "--symbol", files.symbol({"a0": [0.0, 0.0], "a": [[1.0, 0.0]], "b": []}),
                "--n", n, "--m", "auto"],
               check_predict_ellipse, n=n, q=q, cap=cap)
    # 3 predict : 3 grunsky m=128 : 3 grunsky m=256 : 1 ellipse puts the
    # median in the middle of the m = 128 report band (p30..p60) and the tail
    # (p67..p80 at 30..50 jobs a run) inside the m = 256 band (p60..p90)
    jobs = ([predict_generic() for _ in range(3)] + [grunsky_job(128, 0.89) for _ in range(3)]
            + [grunsky_job(256, 0.94) for _ in range(3)] + [ell])
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _mc_setup(files, rng, truth_fn):
    """Fixed curves and mean-zero symbols; beta = 2 truths computed here."""
    cases = []
    _, generated = files.screened(lambda: gen_curve(rng, 0.70, 2, cap_range=(1.0, 1.0)),
                                  _ladder(LADDER_TOP[0.70]))
    for cpath in (files.curve(ellipse(0.5)), generated):
        sym = real_symbol(rng, n_cos=2, n_sin=1, scale=0.25, mean_zero=True)
        spath = files.symbol(sym)
        cases.append((cpath, spath, truth_fn(cpath, spath)))
    return cases


def _mc_round(cases, rng):
    jobs = []
    for cpath, spath, truth in cases:
        for beta in (2, 4):
            seed = int(rng.integers(1, 2**31))
            argv = ["beta-mc", "--curve", cpath, "--symbol", spath, "--n", 4,
                    "--beta", beta, "--steps", MC_STEPS, "--burn-in", MC_BURN_IN,
                    "--seed", seed, "--m", 32]
            jobs.append(_job(f"montecarlo.beta{beta}_m32", argv, check_mc,
                             truth=truth if beta == 2 else None))
    cpath, spath, truth = cases[1]
    seed = int(rng.integers(1, 2**31))
    jobs.append(_job("montecarlo.beta2_mauto",
                     ["beta-mc", "--curve", cpath, "--symbol", spath, "--n", 4, "--beta", 2,
                      "--steps", MC_STEPS, "--burn-in", MC_BURN_IN, "--seed", seed,
                      "--m", "auto"],
                     check_mc, truth=truth))
    return jobs


def _quick_round(files, rng):
    jobs = []
    for _ in range(16):
        c, cpath = files.screened(
            lambda: gen_curve(rng, float(rng.uniform(0.5, 0.72)), int(rng.integers(1, 5))),
            _ladder(LADDER_TOP[0.72]))
        n = int(rng.integers(8, 17))
        jobs.append(_job("quick.direct", ["direct", "--curve", cpath, "--n", n],
                         check_sweep, n_lo=n, n_hi=n, crit=c.crit))
        sym = real_symbol(rng)
        n = int(rng.integers(4, 41))
        m = int(rng.choice([16, 32]))
        jobs.append(_job("quick.predict", ["predict", "--curve", cpath, "--symbol",
                                           files.symbol(sym), "--n", n, "--m", m],
                         check_predict_generic, n=n, cap=c.cap, a0=sym["a0"][0], m=m))
        kind = rng.integers(3)
        if kind == 0:
            n = int(rng.integers(2, 6))
            jobs.append(_job("quick.energy", ["energy", "--curve", cpath, "--n", n,
                                              "--r", "1.1:8:9"],
                             check_energy, rows_expected=9))
        elif kind == 1:
            jobs.append(_job("quick.wp_check", ["wp-check", "--curve", cpath, "--m", 16],
                             check_wp))
        else:
            jobs.append(_job("quick.grunsky", ["grunsky", "--curve", cpath, "--m", 16],
                             check_grunsky, m=16, tol=1e-10))
    # two finer energy grids a round (about 4x the cost of the other calls)
    # hold the tail rank (p99 at 1000+ jobs a run) inside one band of equal
    # work instead of among whichever direct calls needed an extra grid;
    # one critical radius and degree keep the band narrow
    for _ in range(2):
        cpath = files.curve(gen_curve(rng, 0.6, 2))
        jobs.append(_job("quick.energy_fine", ["energy", "--curve", cpath, "--n", 5,
                                                "--r", "1.1:8:49"],
                         check_energy, rows_expected=49))
    # expected errors that the program handles today
    bad = files.curve(ellipse(float(rng.uniform(1.05, 1.5))))
    jobs.append(_job("quick.rejected_curve", ["predict", "--curve", bad, "--n", 5],
                     check_exit, expected="nonzero"))
    jobs.append(_job("quick.bad_flag", ["grunsky", "--curve", bad, "--m", "sixteen"],
                     check_exit, expected=2))
    jobs.append(_job("quick.missing_file",
                     ["direct", "--curve", str(files.root / "absent.json"), "--n", 4],
                     check_exit, expected=2))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def _quick_probes(files, rng):
    cpath = files.curve(gen_curve(rng, 0.6, 2))
    # a valid curve, drawn by an earlier version of this generator, whose
    # Takagi factorization at m = 32 splits a +/- pair across the zero
    # threshold ("21 positive, 20 negative, 23 near zero"); contract: exit 0
    tail = (complex(0.000415769300650514, -0.0014260872854523709),
            complex(-0.0007243788516635403, 0.0010639525807065267),
            complex(0.009987687957441876, 0.025154596756418783))
    pairing = Curve(1.122395134169683, complex(0.12927163977988496, -0.0626620189631375),
                    tail, crit_radius(tail))
    return [
        _job("quick.n_zero", ["direct", "--curve", cpath, "--n", 0], check_exit, expected=2),
        _job("quick.N_below_4n", ["direct", "--curve", cpath, "--n", 8, "--N", 16],
             check_exit, expected=2),
        _job("quick.takagi_pairing", ["direct", "--curve", files.curve(pairing), "--n", 14],
             check_sweep, n_lo=14, n_hi=14, crit=pairing.crit),
    ]


# rounds of inputs written at set-up; a run cycles through them, and only
# quick (about 28 rounds a run today) repeats its curves, to keep set-up short
POOL_ROUNDS = {"sweep": 8, "spectral": 6, "montecarlo": 8, "quick": 8}
WORKLOADS = tuple(POOL_ROUNDS)


def build(name: str, seed: int, root: Path, truth_fn=None, screen_fn=None) -> Workload:
    """Write every input of one run under ``root`` and return its jobs.

    ``truth_fn(curve_path, symbol_path)`` gives the beta = 2 reference for
    the montecarlo workload; the caller computes it with the library.
    ``screen_fn`` is the curve screen of ``Files``.
    """
    if name not in POOL_ROUNDS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    files = Files(root, screen_fn)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    probes: list = []
    if name == "sweep":
        c, cpath = files.screened(lambda: gen_curve(rng, 0.70, 2), _ladder(LADDER_TOP[0.70]))
        warmup = _job("warmup", ["convergence", "--curve", cpath, "--n", "40..41"],
                      check_sweep, n_lo=40, n_hi=41, crit=c.crit)
        rounds = [_sweep_round(files, rng) for _ in range(POOL_ROUNDS[name])]
        probes = [_complex_sweep(files)]
    elif name == "spectral":
        _, cpath = files.screened(lambda: gen_curve(rng, 0.70, 2), (32,))
        warmup = _job("warmup", ["grunsky", "--curve", cpath, "--m", 32],
                      check_grunsky, m=32)
        rounds = [_spectral_round(files, rng) for _ in range(POOL_ROUNDS[name])]
    elif name == "montecarlo":
        cases = _mc_setup(files, rng, truth_fn)
        warmup = _job("warmup", ["beta-mc", "--curve", cases[0][0], "--n", 4, "--steps", 2000,
                                 "--burn-in", 200, "--m", 16], check_mc)
        rounds = [_mc_round(cases, rng) for _ in range(POOL_ROUNDS[name])]
    else:
        c, cpath = files.screened(lambda: gen_curve(rng, 0.6, 2), _ladder(64))
        warmup = _job("warmup", ["direct", "--curve", cpath, "--n", 8],
                      check_sweep, n_lo=8, n_hi=8, crit=c.crit)
        rounds = [_quick_round(files, rng) for _ in range(POOL_ROUNDS[name])]
        probes = _quick_probes(files, rng)
    return Workload(name, warmup, rounds, probes, files.rejected)


def round_jobs(wl: Workload, r: int) -> list:
    """Jobs of round r."""
    return list(wl.rounds[r % len(wl.rounds)])
