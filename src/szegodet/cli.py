"""Command line front end.

Commands: grunsky, predict, direct, convergence, energy, wp-check, beta-mc.
Curve and symbol files are JSON; numeric output is CSV or JSON at 17
significant digits.  Exit codes: 0 success, 2 parse/validation error or
an output path that cannot be written, 3 numerical failure inside the
library.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import json
import math
import os
import sys

import numpy as np
import scipy

from . import direct, grunsky, mcbeta, predict, symbol
from .errors import BadLength, SzegoError
from .series import make_map

FMT = "{:.17g}"


class CLIInputError(Exception):
    """Bad file, flag, schema or output path; maps to exit code 2."""


def _fmt(x) -> str:
    return FMT.format(float(x))


def _json17(doc, indent=0) -> str:
    """JSON text with every float at 17 significant digits."""
    pad = "  " * indent
    if isinstance(doc, dict):
        body = ",\n".join(
            f'{pad}  "{k}": {_json17(v, indent + 1).lstrip()}' for k, v in doc.items()
        )
        return f"{pad}{{\n{body}\n{pad}}}"
    if isinstance(doc, (list, tuple)):
        return pad + "[" + ", ".join(_json17(v).strip() for v in doc) + "]"
    if isinstance(doc, bool):
        return pad + ("true" if doc else "false")
    if isinstance(doc, float):
        return pad + _fmt(doc)
    if isinstance(doc, int):
        return pad + str(doc)
    return pad + json.dumps(doc)


def _finite(v, where: str) -> float:
    """A JSON number as a float: an int or a float, not a bool or a string,
    and not the NaN and Infinity that Python's json reads."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"{where}: expected a number, got {json.dumps(v)}")
    try:
        x = float(v)
    except OverflowError:  # an int literal past the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{where}: numbers must be finite, got {x}")
    return x


def _parse_complex(v, where: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise CLIInputError(f"{where}: complex values are [re, im] pairs")
    return complex(_finite(v[0], where), _finite(v[1], where))


def load_curve(path: str):
    """Curve JSON: {"cap": 1.0, "phi0": [re, im], "tail": [[re, im], ...]}."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise CLIInputError(f"cannot read curve file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIInputError(f"curve file {path} is not valid JSON: {exc}") from exc
    try:
        cap = _finite(doc["cap"], "cap")
        phi0 = _parse_complex(doc["phi0"], "phi0")
        tail = [_parse_complex(t, "tail") for t in doc["tail"]]
        if not cap > 0:
            raise ValueError(f"cap must be > 0, got {cap}")
        if not tail:
            raise ValueError("tail must hold at least one coefficient")
    except (KeyError, TypeError, ValueError) as exc:
        raise CLIInputError(f"curve file {path} has a bad schema: {exc}") from exc
    return make_map(cap, phi0, tail)


def load_symbol(path: str | None):
    """Symbol JSON: coefficient form or theta-sample form (exclusive keys)."""
    if path is None:
        return symbol.zero_symbol()
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise CLIInputError(f"cannot read symbol file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIInputError(f"symbol file {path} is not valid JSON: {exc}") from exc
    try:
        if not isinstance(doc, dict):
            raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
        has_coef = "a0" in doc or "a" in doc or "b" in doc
        has_samp = "theta_samples" in doc
        if has_coef == has_samp:
            raise CLIInputError(
                f"symbol file {path}: give either a0/a/b or theta_samples, not both"
            )
        if has_samp:
            vals = [_parse_complex(v, "theta_samples") for v in doc["theta_samples"]]
            return symbol.symbol_from_theta_samples(vals)
        a0 = _parse_complex(doc.get("a0", [0.0, 0.0]), "a0")
        a = [_parse_complex(v, "a") for v in doc.get("a", [])]
        b = [_parse_complex(v, "b") for v in doc.get("b", [])]
    except (TypeError, ValueError, BadLength) as exc:
        raise CLIInputError(f"symbol file {path} has a bad schema: {exc}") from exc
    return symbol.symbol_from_coefficients(a0, a, b)


def _emit(text: str, path: str | None):
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w") as f:
                f.write(text)
        except OSError as exc:
            raise CLIInputError(f"cannot write {path}: {exc}") from exc


def _positive_int(spec: str) -> int:
    """argparse type for --n and a fixed --m: an integer >= 1."""
    n = int(spec)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _auto_or_positive_int(spec: str) -> int | None:
    """argparse type for --m and --N: 'auto' (None) or an integer >= 1."""
    return None if spec == "auto" else _positive_int(spec)


def _parse_range(spec: str) -> tuple[int, int]:
    """'8..40' inclusive, or a single integer; bounds >= 1."""
    try:
        lo, hi = spec.split("..") if ".." in spec else (spec, spec)
        lo, hi = int(lo), int(hi)
        if not 1 <= lo <= hi:
            raise ValueError
        return lo, hi
    except ValueError as exc:
        raise CLIInputError(f"bad range {spec!r}; expected e.g. 8..40 with bounds >= 1") from exc


def _parse_rgrid(spec: str) -> np.ndarray:
    """Comma list '1.05,1.1,2' or log-spaced 'rmin:rmax:count'; finite r > 1."""
    try:
        if ":" in spec:
            lo, hi, cnt = spec.split(":")
            lo, hi, cnt = float(lo), float(hi), int(cnt)
            if not (1.0 < lo < hi < math.inf) or cnt < 2:
                raise ValueError
            return np.exp(np.linspace(np.log(lo), np.log(hi), cnt))
        vals = np.array([float(x) for x in spec.split(",")])
        if not (np.all((1.0 < vals) & (vals < math.inf)) and np.all(np.diff(vals) > 0)):
            raise ValueError
        return vals
    except ValueError as exc:
        raise CLIInputError(f"bad r grid {spec!r}") from exc


def _svg_polyline(xs, ys, title: str) -> str:
    """Minimal SVG line plot by string templating; no plotting dependency."""
    W, H, pad = 640, 400, 50
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    xr = x1 - x0 or 1.0
    yr = y1 - y0 or 1.0
    px = pad + (W - 2 * pad) * (xs - x0) / xr
    py = H - pad - (H - 2 * pad) * (ys - y0) / yr
    points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">\n'
        f'<rect width="{W}" height="{H}" fill="white"/>\n'
        f'<text x="{W // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>\n'
        f'<polyline fill="none" stroke="black" stroke-width="1.5" points="{points}"/>\n'
        f'<text x="{pad}" y="{H - 15}" font-size="11">{x0:.6g}</text>\n'
        f'<text x="{W - pad}" y="{H - 15}" text-anchor="end" font-size="11">{x1:.6g}</text>\n'
        f'<text x="5" y="{H - pad}" font-size="11">{y0:.6g}</text>\n'
        f'<text x="5" y="{pad}" font-size="11">{y1:.6g}</text>\n'
        f"</svg>\n"
    )


# --- commands ---------------------------------------------------------------


def _cmd_grunsky(args) -> int:
    mp = load_curve(args.curve)
    table = grunsky.grunsky_coefficients(mp, args.m)
    report = grunsky.spectral_report(grunsky.operators(table))
    _emit(grunsky.table_to_csv(table), args.table_out)
    doc = {
        "m": table.m,
        "asym_defect": table.asym_defect,
        "log_det_IplusK": report.log_det_IplusK,
        "log_det_IminusBstarB": report.log_det_IminusBstarB,
        "szego_energy": report.szego_energy,
        "hs_norm_sq": report.hs_norm_sq,
        "delta_m_tail": report.delta_m_tail,
        "kappa_hat": report.kappa_hat,
    }
    _emit(_json17(doc), args.report_out)
    return 0


def _breakdown_json(b) -> str:
    return _json17(b.to_json_dict())


def _cmd_predict(args) -> int:
    mp = load_curve(args.curve)
    sym = load_symbol(args.symbol)
    b = predict.predict_log_Dn(mp, sym, args.n, args.m)
    _emit(_breakdown_json(b), args.out)
    return 0


_DIRECT_HEADER = "n,N_nodes,log_Dn_re,log_Dn_im,predicted,residual,converged"


def _direct_rows(mp, sym, n_lo, n_hi, N, m) -> list[str]:
    """CSV rows for n_lo..n_hi: one direct range call, one prediction table."""
    results = direct.log_det_range(mp, sym, n_lo, n_hi, N)
    preds = predict.predict_range(mp, sym, n_lo, n_hi, m)
    rows = []
    for res, pred in zip(results, preds):
        residual = abs(res.log_Dn - pred.total_log)
        rows.append(
            f"{res.n},{res.N_nodes},{_fmt(res.log_Dn.real)},{_fmt(res.log_Dn.imag)},"
            f"{_fmt(pred.total_log.real)},{_fmt(residual)},{int(res.converged)}"
        )
    return rows


def _cmd_direct(args) -> int:
    mp = load_curve(args.curve)
    sym = load_symbol(args.symbol)
    if args.N is not None and args.N < 4 * args.n:
        raise CLIInputError(f"--N must be >= 4n = {4 * args.n}, got {args.N}")
    rows = _direct_rows(mp, sym, args.n, args.n, args.N, args.m)
    _emit(_DIRECT_HEADER + "\n" + rows[0] + "\n", args.out)
    return 0


def _cmd_convergence(args) -> int:
    mp = load_curve(args.curve)
    sym = load_symbol(args.symbol)
    n_lo, n_hi = _parse_range(args.n)
    rows = _direct_rows(mp, sym, n_lo, n_hi, None, args.m)
    _emit(_DIRECT_HEADER + "\n" + "\n".join(rows) + "\n", args.out)
    if args.svg:
        residuals = [float(r.split(",")[5]) for r in rows]
        ys = np.log10(np.maximum(residuals, 1e-300))
        _emit(_svg_polyline(range(n_lo, n_hi + 1), ys, "log10 residual vs n"), args.svg)
    return 0


def _cmd_energy(args) -> int:
    mp = load_curve(args.curve)
    r = _parse_rgrid(args.r)
    curve = direct.finite_energy(mp, args.n, r)
    lines = ["r,E_n"] + [
        f"{_fmt(ri)},{_fmt(vi)}" for ri, vi in zip(curve.r_grid, curve.values)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    doc = {"n": args.n, "r_smallest": float(curve.r_grid[0]),
           "E_at_smallest_r": float(curve.values[0]),
           "trend_decreasing_in_r": bool(np.all(np.diff(curve.values) <= 1e-8))}
    try:
        rep = direct.convexity_check(curve)
        doc.update(
            min_convexity_estimate=rep.min_estimate,
            convexity_flagged=rep.flagged,
            energy_at_rmax=rep.energy_at_rmax,
        )
    except SzegoError as exc:
        doc["convexity"] = f"skipped: {exc}"
    _emit(_json17(doc), args.report_out)
    if args.svg:
        _emit(_svg_polyline(np.log(curve.r_grid), curve.values, "E_n vs log r"), args.svg)
    return 0


def _cmd_wp_check(args) -> int:
    mp = load_curve(args.curve)
    rs = _parse_rgrid(args.r)[::-1]  # descending toward 1
    # boundedness is about the tail in the table size, so compare against a doubled
    # table (the m-table is its leading block), without the unreported asym_defect
    size = 2 * args.m
    table2 = grunsky.GrunskyTable(size, grunsky._grow(mp.tail, np.zeros((0, 0), complex), size))
    a = table2.a[:args.m, :args.m]

    def hs_norm_sq(B) -> float:
        return float(np.sum(np.abs(B) ** 2))

    # the sums read B of arrays the library built symmetric, with no check;
    # szego_energy takes the one checked pair
    lines = ["r,hs_norm_sq"]
    for r in rs:
        hs = hs_norm_sq(grunsky._operator(grunsky._dilated(a, float(r))))
        lines.append(f"{_fmt(r)},{_fmt(hs)}")
    _emit("\n".join(lines) + "\n", args.out)
    base = grunsky.OperatorPair(grunsky._operator(a))
    energy = grunsky.szego_energy(base)
    # the truncated norms increase to the base-table norm as r drops to 1
    hs2 = hs_norm_sq(grunsky._operator(table2.a))
    tail_growth = hs2 - hs_norm_sq(base.B)
    bounded = bool(tail_growth <= 0.05 * (hs2 + 1e-12))
    doc = {
        "m": args.m,
        "hs_norm_sq_limit_estimate": hs2,
        "hs_tail_growth_m_to_2m": tail_growth,
        "szego_energy": energy,
        "bounded_verdict": bounded,
        "note": "Weil-Petersson iff the Hilbert-Schmidt norm stays bounded as r -> 1",
    }
    _emit(_json17(doc), args.report_out)
    return 0


def _cmd_beta_mc(args) -> int:
    mp = load_curve(args.curve)
    sym = load_symbol(args.symbol)
    try:
        cfg = mcbeta.ChainConfig(
            n=args.n, beta=args.beta, steps=args.steps, burn_in=args.burn_in,
            proposal_width=args.width, seed=args.seed,
        )
    except ValueError as exc:
        raise CLIInputError(str(exc)) from exc
    est = mcbeta.estimate_ratio(mp, sym, cfg, args.m)
    _emit(
        "seed,mean_log,std_error,ess,acceptance\n"
        f"{args.seed},{_fmt(est.mean_log)},{_fmt(est.std_error)},"
        f"{_fmt(est.ess)},{_fmt(est.acceptance_rate)}\n",
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="szegodet",
        description="Determinant asymptotics on Jordan curves given by exterior-map data",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_symbol=True):
        sp.add_argument("--curve", required=True, help="curve JSON file")
        if with_symbol:
            sp.add_argument("--symbol", default=None, help="symbol JSON file (default g = 0)")
        sp.add_argument("--out", default="-", help="output path ('-' = stdout)")

    sp = sub.add_parser("grunsky", help="dump the Grunsky table and spectral report")
    sp.add_argument("--curve", required=True)
    sp.add_argument("--m", type=_positive_int, required=True)
    sp.add_argument("--table-out", default="-")
    sp.add_argument("--report-out", default="-")
    sp.set_defaults(fn=_cmd_grunsky)

    sp = sub.add_parser("predict", help="asymptotic prediction for log D_n")
    add_common(sp)
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--m", type=_auto_or_positive_int, default="auto")
    sp.set_defaults(fn=_cmd_predict)

    sp = sub.add_parser("direct", help="direct quadrature log D_n at one n")
    add_common(sp)
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--N", type=_auto_or_positive_int, default="auto")
    sp.add_argument("--m", type=_auto_or_positive_int, default="auto")
    sp.set_defaults(fn=_cmd_direct)

    sp = sub.add_parser("convergence", help="residual sweep over a range of n")
    add_common(sp)
    sp.add_argument("--n", required=True, help="range like 8..40")
    sp.add_argument("--m", type=_auto_or_positive_int, default="auto")
    sp.add_argument("--svg", default=None, help="write an SVG residual plot")
    sp.set_defaults(fn=_cmd_convergence)

    sp = sub.add_parser("energy", help="dilation energy sweep E_n(r)")
    add_common(sp, with_symbol=False)
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--r", required=True, help="'1.05,1.2,2' or log grid 'lo:hi:count'")
    sp.add_argument("--report-out", default="-")
    sp.add_argument("--svg", default=None)
    sp.set_defaults(fn=_cmd_energy)

    sp = sub.add_parser("wp-check", help="Hilbert-Schmidt boundedness across dilations")
    add_common(sp, with_symbol=False)
    sp.add_argument("--m", type=_positive_int, required=True)
    sp.add_argument("--r", default="1.01:2:8")
    sp.add_argument("--report-out", default="-")
    sp.set_defaults(fn=_cmd_wp_check)

    sp = sub.add_parser("beta-mc", help="Monte Carlo beta-ensemble estimate")
    add_common(sp)
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--beta", type=float, default=2.0)
    sp.add_argument("--steps", type=int, default=200000)
    sp.add_argument("--burn-in", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--width", type=float, default=0.8)
    sp.add_argument("--m", type=_auto_or_positive_int, default="auto")
    sp.set_defaults(fn=_cmd_beta_mc)

    return p


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of this process; parse_args keeps no state between calls."""
    return build_parser()


@functools.cache
def _blas_thread_setters() -> tuple:
    """Thread-count setters of the OpenBLAS builds that numpy and scipy
    bundle: ``scipy_openblas_set_num_threads64_`` in numpy.libs and
    ``scipy_openblas_set_num_threads`` in scipy.libs, looked up once by
    ctypes.  Both libraries are loaded by then (scipy's by ``_linalg``'s
    ``_flapack``), so ctypes gets the instances numpy and scipy call.  A
    build without them gives none."""
    setters = []
    for mod, symbol in ((np, "scipy_openblas_set_num_threads64_"),
                        (scipy, "scipy_openblas_set_num_threads")):
        libs = os.path.dirname(mod.__file__) + ".libs"
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
            setter = getattr(ctypes.CDLL(path), symbol, None)
            if setter is not None:
                setters.append(setter)
    return tuple(setters)


def main(argv=None) -> int:
    # one BLAS thread in both pools: most LAPACK calls here are small and
    # slower with a second one, and the output then has the same bits at
    # any OPENBLAS_NUM_THREADS
    for set_threads in _blas_thread_setters():
        set_threads(1)
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CLIInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SzegoError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. an explicit --m too large for this machine
        detail = f": {exc}" if str(exc) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
