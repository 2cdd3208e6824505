import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from szegodet import grunsky
from szegodet.cli import build_parser, load_curve, main
from szegodet.predict import LOG_2PI

from conftest import PAIRING_CURVE


@pytest.fixture
def curve_file(tmp_path):
    def write(name, cap=1.0, phi0=(0.0, 0.0), tail=((0.5, 0.0), (0.0, 0.0))):
        p = tmp_path / name
        p.write_text(json.dumps({"cap": cap, "phi0": list(phi0),
                                 "tail": [list(t) for t in tail]}))
        return str(p)

    return write


@pytest.fixture
def symbol_file(tmp_path):
    p = tmp_path / "a1.json"
    p.write_text(json.dumps({"a0": [0.0, 0.0], "a": [[1.0, 0.0]], "b": []}))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPredict:
    def test_circle(self, capsys, curve_file):
        path = curve_file("circle.json", tail=((0.0, 0.0),))
        code, out, _ = run(capsys, "predict", "--curve", path, "--n", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_log"][0] == pytest.approx(5 * LOG_2PI)
        assert doc["total_log"][1] == 0.0

    def test_round_trip_fields(self, capsys, curve_file, symbol_file):
        path = curve_file("q.json")
        code, out, _ = run(capsys, "predict", "--curve", path,
                           "--symbol", symbol_file, "--n", "12")
        doc = json.loads(out)
        total = (doc["term_cap"] + doc["term_2pi"]
                 + doc["term_a0"][0] + doc["term_quadform"][0]
                 + doc["term_halflogdet"])
        assert total == pytest.approx(doc["total_log"][0], abs=1e-12)

    def test_round_trip_into_type(self, capsys, curve_file, symbol_file):
        # the emitted JSON carries every value of the producing breakdown unchanged
        from szegodet import predict_log_Dn
        from szegodet.cli import load_curve, load_symbol

        path = curve_file("q.json")
        code, out, _ = run(capsys, "predict", "--curve", path,
                           "--symbol", symbol_file, "--n", "12")
        direct = predict_log_Dn(load_curve(path), load_symbol(symbol_file), 12)
        assert json.loads(out) == direct.to_json_dict()

    def test_theta_samples_symbol(self, capsys, curve_file, tmp_path):
        theta = 2 * np.pi * np.arange(16) / 16
        p = tmp_path / "samples.json"
        p.write_text(json.dumps(
            {"theta_samples": [[float(np.cos(t)), 0.0] for t in theta]}
        ))
        path = curve_file("circle.json", tail=((0.0, 0.0),))
        code, out, _ = run(capsys, "predict", "--curve", path,
                           "--symbol", str(p), "--n", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_log"][0] == pytest.approx(10 * LOG_2PI + 0.25, abs=1e-10)

    def test_exclusive_symbol_keys(self, capsys, curve_file, tmp_path):
        p = tmp_path / "both.json"
        p.write_text(json.dumps({"a0": [0, 0], "theta_samples": [[0, 0]] * 8}))
        path = curve_file("q.json")
        code, _, err = run(capsys, "predict", "--curve", path,
                           "--symbol", str(p), "--n", "4")
        assert code == 2

    @pytest.mark.parametrize("length", [0, 3, 12])
    def test_theta_samples_bad_length(self, capsys, curve_file, tmp_path, length):
        # a sample count that is not a power of two >= 8 is bad input, not
        # a numerical failure
        p = tmp_path / "samples.json"
        p.write_text(json.dumps({"theta_samples": [[1.0, 0.0]] * length}))
        path = curve_file("q.json")
        code, out, err = run(capsys, "predict", "--curve", path,
                             "--symbol", str(p), "--n", "4")
        assert code == 2
        assert out == ""
        assert f"power of two >= 8 samples, got {length}" in err


class TestGrunsky:
    def test_q_table(self, capsys, curve_file, tmp_path):
        path = curve_file("q.json")
        report = tmp_path / "rep.json"
        code, out, _ = run(capsys, "grunsky", "--curve", path, "--m", "8",
                           "--report-out", str(report))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,l,re_a,im_a"
        rows = {tuple(map(int, l.split(",")[:2])): float(l.split(",")[2]) for l in lines[1:]}
        for k in range(1, 9):
            assert rows[(k, k)] == pytest.approx(0.5**k / k, abs=1e-14)
            if k > 1:
                assert rows[(k, k - 1)] == 0.0
        doc = json.loads(report.read_text())
        assert doc["kappa_hat"] == pytest.approx(0.5, abs=1e-12)

    def test_report_round_trips_into_type(self, capsys, curve_file, tmp_path):
        from szegodet import grunsky_coefficients, operators, spectral_report
        from szegodet.cli import load_curve
        from szegodet.grunsky import SpectralReport

        path = curve_file("q.json")
        report = tmp_path / "rep.json"
        run(capsys, "grunsky", "--curve", path, "--m", "8",
            "--report-out", str(report))
        doc = json.loads(report.read_text())
        fields = {k: doc[k] for k in SpectralReport.__dataclass_fields__}
        parsed = SpectralReport(**fields)
        direct = spectral_report(operators(grunsky_coefficients(load_curve(path), 8)))
        assert parsed == direct

    def test_table_bytes_m256(self, capsys, curve_file, tmp_path):
        from szegodet import grunsky_coefficients
        from szegodet.cli import load_curve

        from test_grunsky import table_to_csv_reference

        path = curve_file("wobbly.json", cap=1.3, phi0=(0.2, 0.1),
                          tail=((0.3, 0.0), (0.0, 0.1), (-0.05, 0.0), (0.02, 0.02)))
        code, out, err = run(capsys, "grunsky", "--curve", path, "--m", "256",
                             "--report-out", str(tmp_path / "rep.json"))
        assert code == 0, err
        assert out == table_to_csv_reference(grunsky_coefficients(load_curve(path), 256))

    def test_curve_where_takagi_pairing_fails(self, capsys, curve_file, tmp_path):
        cap, phi0, tail = PAIRING_CURVE
        path = curve_file("pairing.json", cap=cap, phi0=(phi0.real, phi0.imag),
                          tail=[(t.real, t.imag) for t in tail])
        report = tmp_path / "rep.json"
        code, out, err = run(capsys, "grunsky", "--curve", path, "--m", "32",
                             "--report-out", str(report))
        assert code == 0, err
        assert len(out.strip().split("\n")) == 1 + 32 * 32
        doc = json.loads(report.read_text())
        assert abs(doc["log_det_IplusK"] - doc["log_det_IminusBstarB"]) <= 1e-12


class TestDirectAndConvergence:
    def test_direct_row(self, capsys, curve_file, symbol_file):
        path = curve_file("q.json")
        code, out, _ = run(capsys, "direct", "--curve", path,
                           "--symbol", symbol_file, "--n", "8")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "n,N_nodes,log_Dn_re,log_Dn_im,predicted,residual,converged"
        f = row.split(",")
        assert int(f[0]) == 8 and int(f[6]) == 1
        assert float(f[5]) <= 1e-3

    def test_convergence_sweep(self, capsys, curve_file, symbol_file, tmp_path):
        path = curve_file("q.json")
        svg = tmp_path / "plot.svg"
        code, out, _ = run(capsys, "convergence", "--curve", path,
                           "--symbol", symbol_file, "--n", "4..10",
                           "--svg", str(svg))
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 7
        residuals = [float(r.split(",")[5]) for r in rows]
        assert residuals[-1] < residuals[0]
        assert svg.read_text().startswith("<svg")

    def test_convergence_rows_match_direct(self, capsys, curve_file, symbol_file):
        # the wobbly test curve at the sizes sweeps reach
        path = curve_file("wobbly.json", cap=1.3, phi0=(0.2, 0.1),
                          tail=((0.3, 0.0), (0.0, 0.1), (-0.05, 0.0), (0.02, 0.02)))
        code, out, _ = run(capsys, "convergence", "--curve", path,
                           "--symbol", symbol_file, "--n", "8..100")
        assert code == 0
        rows = {int(r.split(",")[0]): r.split(",") for r in out.strip().split("\n")[1:]}
        assert sorted(rows) == list(range(8, 101))
        for n in (8, 57, 100):
            code, out, _ = run(capsys, "direct", "--curve", path,
                               "--symbol", symbol_file, "--n", str(n))
            assert code == 0
            one = out.strip().split("\n")[1].split(",")
            assert one[6] == rows[n][6] == "1"
            for col in (2, 3, 4, 5):  # log_Dn_re, log_Dn_im, predicted, residual
                a, b = float(one[col]), float(rows[n][col])
                assert abs(a - b) <= 1e-12 * max(1.0, abs(float(one[2])))

    def test_complex_symbol_sweep(self, capsys, curve_file, tmp_path):
        # the wobbly curve with g = cos t + 0.3 cos 2t + 0.1i cos 3t
        path = curve_file("wobbly.json", cap=1.3, phi0=(0.2, 0.1),
                          tail=((0.3, 0.0), (0.0, 0.1), (-0.05, 0.0), (0.02, 0.02)))
        sym = tmp_path / "complex.json"
        sym.write_text(json.dumps(
            {"a0": [0.0, 0.0], "a": [[1.0, 0.0], [0.3, 0.0], [0.0, 0.1]], "b": []}
        ))
        code, out, err = run(capsys, "convergence", "--curve", path,
                             "--symbol", str(sym), "--n", "18..21")
        assert code == 0, err
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        assert [int(r[0]) for r in rows] == [18, 19, 20, 21]
        assert float(rows[-1][5]) <= 1e-6
        assert rows[-1][6] == "1"

    def test_threads_env(self, capsys, curve_file, monkeypatch):
        path = curve_file("q.json")
        monkeypatch.setenv("SZEGO_THREADS", "2")
        code, out, _ = run(capsys, "convergence", "--curve", path, "--n", "3..6")
        assert code == 0
        assert len(out.strip().split("\n")) == 5


class TestEnergyAndWp:
    def test_energy(self, capsys, curve_file, tmp_path):
        path = curve_file("q.json")
        rep = tmp_path / "rep.json"
        code, out, _ = run(capsys, "energy", "--curve", path, "--n", "3",
                           "--r", "1.1:8:6", "--report-out", str(rep))
        assert code == 0
        rows = out.strip().split("\n")[1:]
        vals = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        doc = json.loads(rep.read_text())
        assert doc["trend_decreasing_in_r"] is True
        assert doc["convexity_flagged"] is False

    def test_wp_check(self, capsys, curve_file, tmp_path):
        path = curve_file("q.json")
        rep = tmp_path / "rep.json"
        code, out, _ = run(capsys, "wp-check", "--curve", path, "--m", "8",
                           "--report-out", str(rep))
        assert code == 0
        rows = out.strip().split("\n")[1:]
        hs = [float(r.split(",")[1]) for r in rows]
        assert all(b >= a for a, b in zip(hs, hs[1:]))  # grows as r drops to 1
        doc = json.loads(rep.read_text())
        assert doc["bounded_verdict"] is True


_WOBBLY = dict(cap=1.3, phi0=(0.2, 0.1),
               tail=((0.3, 0.0), (0.0, 0.1), (-0.05, 0.0), (0.02, 0.02)))
_SLOW_T3 = 0.94**4 / 3 * np.exp(0.7j)
_SLOW = dict(cap=1.1, phi0=(0.05, -0.02),
             tail=((0.01, 0.005), (0.0, -0.008), (_SLOW_T3.real, _SLOW_T3.imag)))


def _stdout_at_blas_threads(*argv) -> list[bytes]:
    """stdout of ``python -m szegodet.cli *argv`` at OPENBLAS_NUM_THREADS=1 and 2."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        outs.append(subprocess.run([sys.executable, "-m", "szegodet.cli", *argv],
                                   env=env, check=True, capture_output=True).stdout)
    return outs


# ``main`` pins both OpenBLAS pools to one thread, so CLI output has the
# same bytes at any BLAS thread count.  Without the pin each of these
# differs at two threads: the threaded potrf of the 1024 x 1024 I + K,
# and the QR and complex products of the direct layer, round differently.


def test_grunsky_output_independent_of_blas_threads(curve_file):
    path = curve_file("wobbly.json", **_WOBBLY)
    one, two = _stdout_at_blas_threads("grunsky", "--curve", path, "--m", "512")
    assert one == two
    report = json.loads(one[one.index(b"{"):])
    assert report["m"] == 512
    assert abs(report["log_det_IplusK"] - report["log_det_IminusBstarB"]) <= 1e-12


def test_convergence_output_independent_of_blas_threads(curve_file, tmp_path):
    path = curve_file("wobbly.json", **_WOBBLY)
    sym = tmp_path / "complex.json"
    sym.write_text(json.dumps(
        {"a0": [0.0, 0.0], "a": [[1.0, 0.0], [0.3, 0.0], [0.0, 0.1]], "b": []}
    ))
    one, two = _stdout_at_blas_threads("convergence", "--curve", path,
                                       "--symbol", str(sym), "--n", "8..200")
    assert one == two
    assert one.count(b"\n") == 194


def test_energy_output_independent_of_blas_threads(curve_file, tmp_path):
    path = curve_file("wobbly.json", **_WOBBLY)
    one, two = _stdout_at_blas_threads("energy", "--curve", path, "--n", "60",
                                       "--r", "1.05:4:49", "--report-out", str(tmp_path / "r.json"))
    assert one == two
    assert one.count(b"\n") == 50


def test_predict_auto_output_independent_of_blas_threads(curve_file, symbol_file):
    # the m ladder grows its tables with BLAS axpy rows, here up to m = 512
    path = curve_file("slow.json", **_SLOW)
    one, two = _stdout_at_blas_threads("predict", "--curve", path, "--symbol", symbol_file,
                                       "--n", "40", "--m", "auto")
    assert one == two
    assert json.loads(one)["m_used"] == 256


def test_wp_check_runs_only_the_energy(capsys, curve_file, monkeypatch, tmp_path):
    # the report's energy comes without the factor of I + K, the tail
    # diagnostic or the rest of spectral_report, and with the same bits
    def fail(*args, **kwargs):
        raise AssertionError("not needed by wp-check")

    path = curve_file("wobbly.json", **_WOBBLY)
    rep = tmp_path / "rep.json"
    report = grunsky.spectral_report
    for name in ("spectral_report", "_cholesky", "delta_m_tail"):
        monkeypatch.setattr(grunsky, name, fail)
    code, _, err = run(capsys, "wp-check", "--curve", path, "--m", "24",
                       "--report-out", str(rep))
    assert code == 0, err
    table = grunsky.grunsky_coefficients(load_curve(path), 24)
    monkeypatch.undo()
    want = report(grunsky.operators(table)).szego_energy
    assert json.loads(rep.read_text())["szego_energy"] == want


def test_wp_check_checks_one_pair(capsys, curve_file, monkeypatch, tmp_path):
    # the Hilbert-Schmidt sums read B of the library's own arrays: one
    # symmetry check for the doubled table, one for the pair szego_energy
    # takes; the rows have the bits of the table and operator types
    path = curve_file("wobbly.json", **_WOBBLY)
    rep = tmp_path / "rep.json"
    checked = []
    check = grunsky._symmetric
    monkeypatch.setattr(grunsky, "_symmetric", lambda a: checked.append(len(a)) or check(a))
    code, out, err = run(capsys, "wp-check", "--curve", path, "--m", "16",
                         "--report-out", str(rep))
    assert code == 0, err
    assert checked == [32, 16]
    table2 = grunsky.grunsky_coefficients(load_curve(path), 32)
    table = grunsky.GrunskyTable(16, table2.a[:16, :16])

    def hs(t):
        return "{:.17g}".format(float(np.sum(np.abs(grunsky.operators(t).B) ** 2)))

    rows = out.strip().split("\n")[1:]
    assert [r.split(",")[1] for r in rows] == [
        hs(grunsky.GrunskyTable(16, grunsky._dilated(table.a, float(r.split(",")[0]))))
        for r in rows]
    doc = json.loads(rep.read_text())
    assert "{:.17g}".format(doc["hs_norm_sq_limit_estimate"]) == hs(table2)
    assert doc["hs_tail_growth_m_to_2m"] == float(hs(table2)) - float(hs(table))


def test_grunsky_runs_no_svd(capsys, curve_file, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an SVD ran")

    for mod in (scipy.linalg, np.linalg):
        monkeypatch.setattr(mod, "svd", fail)
        monkeypatch.setattr(mod, "svdvals", fail)
    monkeypatch.setattr(grunsky, "takagi", fail)
    path = curve_file("wobbly.json", **_WOBBLY)
    code, out, err = run(capsys, "grunsky", "--curve", path, "--m", "256")
    assert code == 0, err
    report = json.loads(out[out.index("{"):])
    assert report["kappa_hat"] == pytest.approx(0.3768103383162, rel=1e-12)


class TestBetaMc:
    def test_row(self, capsys, curve_file):
        path = curve_file("q.json")
        code, out, _ = run(capsys, "beta-mc", "--curve", path, "--n", "3",
                           "--steps", "4000", "--burn-in", "400",
                           "--seed", "7", "--m", "8")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "seed,mean_log,std_error,ess,acceptance"
        f = row.split(",")
        assert f[0] == "7"
        assert np.isfinite(float(f[1]))


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "predict", "--curve", "nope.json", "--n", "3")
        assert code == 2
        assert "nope.json" in err

    def test_bad_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, _ = run(capsys, "predict", "--curve", str(p), "--n", "3")
        assert code == 2

    def test_cusp_curve(self, capsys, curve_file):
        path = curve_file("cusp.json", tail=((1.0, 0.0),))
        code, _, err = run(capsys, "predict", "--curve", path, "--n", "3")
        assert code == 3
        assert "failure" in err

    def test_bad_flags(self, capsys, curve_file):
        code, _, _ = run(capsys, "predict", "--n", "3")
        assert code == 2

    def test_bad_range(self, capsys, curve_file):
        path = curve_file("q.json")
        code, _, _ = run(capsys, "convergence", "--curve", path, "--n", "9..3")
        assert code == 2

    @pytest.mark.parametrize("spec", ["0..3", "-2..4", "0", "8..", "3..x"])
    def test_range_bounds(self, capsys, curve_file, spec):
        path = curve_file("q.json")
        code, _, _ = run(capsys, "convergence", "--curve", path, "--n", spec)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["direct", "--n", "0"],
        ["direct", "--n", "-3"],
        ["direct", "--n", "8", "--N", "16"],
        ["predict", "--n", "0"],
        ["energy", "--n", "0", "--r", "1.5,2"],
        ["beta-mc", "--n", "0", "--steps", "100"],
    ])
    def test_bad_n_and_N(self, capsys, curve_file, argv):
        path = curve_file("q.json")
        code, _, err = run(capsys, *argv[:1], "--curve", path, *argv[1:])
        assert code == 2
        assert "failure" not in err

    @pytest.mark.parametrize("argv", [
        ["predict", "--n", "8", "--m", "x"],
        ["predict", "--n", "8", "--m", "0"],
        ["predict", "--n", "8", "--m", "2.5"],
        ["direct", "--n", "8", "--N", "abc"],
        ["direct", "--n", "8", "--N", "0"],
        ["direct", "--n", "8", "--m", "-1"],
        ["convergence", "--n", "4..6", "--m", "auto16"],
        ["grunsky", "--m", "0"],
        ["grunsky", "--m", "-4"],
        ["wp-check", "--m", "0"],
        ["beta-mc", "--n", "3", "--m", "0", "--steps", "100"],
    ])
    def test_bad_m_and_N(self, capsys, curve_file, argv):
        path = curve_file("q.json")
        code, _, err = run(capsys, *argv[:1], "--curve", path, *argv[1:])
        assert code == 2
        assert "failure" not in err

    @pytest.mark.parametrize("flags", [
        ["--steps", "100", "--burn-in", "200"],
        ["--width", "5"],
        ["--beta", "0"],
        ["--beta", "nan"],
        ["--beta", "inf"],
    ])
    def test_bad_chain_flags(self, capsys, curve_file, flags):
        path = curve_file("q.json")
        code, _, err = run(capsys, "beta-mc", "--curve", path, "--n", "3",
                           "--m", "8", *flags)
        assert code == 2
        assert "failure" not in err

    @pytest.mark.parametrize("argv", [["energy", "--n", "2"], ["wp-check", "--m", "8"]])
    @pytest.mark.parametrize("spec", [
        "1.05,1e400", "1.05,inf", "1.1:inf:5", "0.9,2", "2,1.5", "1.1:2:1",
    ])
    def test_bad_r_grid(self, capsys, curve_file, argv, spec):
        path = curve_file("q.json")
        code, _, err = run(capsys, *argv[:1], "--curve", path, *argv[1:], "--r", spec)
        assert code == 2
        assert "failure" not in err

    @pytest.mark.parametrize("text", [
        '{"cap": Infinity, "phi0": [0, 0], "tail": [[0.5, 0]]}',
        '{"cap": NaN, "phi0": [0, 0], "tail": [[0.5, 0]]}',
        '{"cap": 1.0, "phi0": [0, -Infinity], "tail": [[0.5, 0]]}',
        '{"cap": 1.0, "phi0": [0, 0], "tail": [[0.5, 0], [NaN, 0]]}',
        pytest.param('{"cap": 1.0, "phi0": [0, 0], "tail": [[1%s, 0]]}' % ("0" * 400),
                     id="int-past-the-float-range"),
    ])
    def test_non_finite_curve(self, capsys, tmp_path, text):
        p = tmp_path / "c.json"
        p.write_text(text)
        code, _, err = run(capsys, "predict", "--curve", str(p), "--n", "4")
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("text", [
        '{"a": [[NaN, 0]]}',
        '{"a0": [Infinity, 0]}',
        '{"b": [[0, 0], [0, -Infinity]]}',
        '{"theta_samples": [[NaN, 0], [0, 0], [0, 0], [0, 0]]}',
    ])
    @pytest.mark.parametrize("command", [["predict", "--m", "16"], ["direct"]])
    def test_non_finite_symbol(self, capsys, curve_file, tmp_path, text, command):
        # json reads NaN and Infinity; they must not reach the numerics
        p = tmp_path / "s.json"
        p.write_text(text)
        path = curve_file("q.json")
        code, out, err = run(capsys, command[0], "--curve", path, "--symbol", str(p),
                             "--n", "6", *command[1:])
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flag, text", [
        ("--curve", '{"cap": true, "phi0": [0, 0], "tail": [[0.3, 0]]}'),
        ("--curve", '{"cap": "1.0", "phi0": [0, 0], "tail": [[0.3, 0]]}'),
        ("--curve", '{"cap": 1, "phi0": ["0.1", 0], "tail": [[0.3, 0]]}'),
        ("--curve", '{"cap": 1, "phi0": [0, false], "tail": [[0.3, 0]]}'),
        ("--curve", '{"cap": 1, "phi0": [0, 0], "tail": [["0.3", 0]]}'),
        ("--curve", '{"cap": 1, "phi0": [0, 0], "tail": [[0.3, null]]}'),
        ("--symbol", '{"a0": [true, 0]}'),
        ("--symbol", '{"a0": [0, "0"]}'),
        ("--symbol", '{"a": [["1", 0]]}'),
        ("--symbol", '{"b": [[0, [0]]]}'),
        ("--symbol", '{"theta_samples": [[0, 0], [0, 0], [false, 0], [0, 0]]}'),
    ])
    def test_numbers_must_be_json_numbers(self, capsys, curve_file, tmp_path, flag, text):
        # a bool or a numeric string is not a number: a bad schema, exit 2
        p = tmp_path / "doc.json"
        p.write_text(text)
        files = {"--curve": curve_file("q.json"), flag: str(p)}
        code, out, err = run(capsys, "predict", *(a for kv in files.items() for a in kv),
                             "--n", "5", "--m", "8")
        assert code == 2
        assert out == ""
        assert "bad schema" in err and "expected a number" in err

    @pytest.mark.parametrize("flag, text", [
        ("--symbol", "5"),
        ("--symbol", "null"),
        ("--symbol", "[]"),
        ("--symbol", '"x"'),
        ("--curve", "5"),
        ("--curve", "null"),
    ])
    def test_json_not_an_object(self, capsys, curve_file, tmp_path, flag, text):
        p = tmp_path / "doc.json"
        p.write_text(text)
        files = {"--curve": curve_file("q.json"), flag: str(p)}
        code, out, err = run(capsys, "predict", *(a for kv in files.items() for a in kv),
                             "--n", "4")
        assert code == 2
        assert out == ""
        assert "bad schema" in err

    @pytest.mark.parametrize("text, why", [
        ('{"cap": 1.0, "phi0": [0, 0], "tail": []}', "tail"),
        ('{"cap": 0, "phi0": [0, 0], "tail": [[0.5, 0]]}', "cap"),
        ('{"cap": -1.5, "phi0": [0, 0], "tail": [[0.5, 0]]}', "cap"),
    ])
    @pytest.mark.parametrize("command", [["predict", "--n", "4"], ["grunsky", "--m", "8"]])
    def test_bad_curve_data(self, capsys, tmp_path, text, why, command):
        # an empty tail or a capacity that is not positive is a bad schema
        p = tmp_path / "c.json"
        p.write_text(text)
        code, out, err = run(capsys, command[0], "--curve", str(p), *command[1:])
        assert code == 2
        assert out == ""
        assert "bad schema" in err and why in err
        assert "failure" not in err

    def test_explicit_m_and_N(self, capsys, curve_file):
        path = curve_file("q.json")
        code, out, _ = run(capsys, "direct", "--curve", path, "--n", "8",
                           "--N", "64", "--m", "16")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[1] == "64"
        code, out, _ = run(capsys, "predict", "--curve", path, "--n", "8", "--m", "16")
        assert code == 0
        assert json.loads(out)["m_used"] == 16

    @pytest.mark.parametrize("command", [["grunsky"], ["predict", "--n", "5"]])
    def test_out_of_memory(self, capsys, curve_file, monkeypatch, command):
        # an explicit m too large for the machine: numpy raises MemoryError
        # when the table is allocated
        def fail(*args):
            raise MemoryError("Unable to allocate 4.00 GiB for an array")

        monkeypatch.setattr(grunsky, "_grow", fail)
        code, out, err = run(capsys, *command, "--curve", curve_file("q.json"),
                             "--m", "16384")
        assert code == 3
        assert out == ""
        assert err == "numerical failure: out of memory: Unable to allocate 4.00 GiB for an array\n"

    @pytest.mark.parametrize("argv, flag", [
        (["predict", "--n", "4", "--m", "8"], "--out"), (["grunsky", "--m", "4"], "--table-out"),
        (["grunsky", "--m", "4"], "--report-out"), (["wp-check", "--m", "4"], "--report-out"),
        (["energy", "--n", "2", "--r", "1.5,2"], "--report-out"),
        (["convergence", "--n", "2..3", "--m", "8"], "--svg"),
        (["energy", "--n", "2", "--r", "1.5,2"], "--svg"),
    ])
    @pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
    def test_unwritable_output_path(self, capsys, curve_file, tmp_path, argv, flag, where):
        # a path that cannot be opened for writing is bad input, not a crash
        target = tmp_path / "missing" / "x.out" if where == "missing_dir" else tmp_path
        code, _, err = run(capsys, *argv[:1], "--curve", curve_file("q.json"), *argv[1:],
                           flag, str(target))
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")

    @pytest.mark.parametrize("argv, flag", [
        (["grunsky", "--m", "2", "--table-out", "kept.txt"], "--report-out"),
        (["energy", "--n", "2", "--r", "1.5,2", "--out", "kept.txt"], "--svg"),
    ])
    def test_unwritable_output_path_before_any_work(self, capsys, curve_file, tmp_path,
                                                    monkeypatch, argv, flag):
        # every output path is checked before the command runs: nothing is
        # printed, and no other output file is created or truncated
        monkeypatch.chdir(tmp_path)
        (tmp_path / "kept.txt").write_text("kept")
        target = tmp_path / "missing" / "x.out"
        code, out, err = run(capsys, *argv[:1], "--curve", curve_file("q.json"), *argv[1:],
                             flag, str(target))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert (tmp_path / "kept.txt").read_text() == "kept"


def test_shared_parser_keeps_no_state(capsys, curve_file, symbol_file):
    # main reuses one parser per process: options of an earlier call,
    # or of one that failed to parse, must not leak into the next
    path = curve_file("q.json")
    plain = ["predict", "--curve", path, "--n", "12"]
    code, with_symbol, _ = run(capsys, *plain, "--symbol", symbol_file, "--m", "16")
    assert code == 0
    code, _, _ = run(capsys, "grunsky", "--curve", path, "--m", "sixteen")
    assert code == 2
    code, out, _ = run(capsys, *plain)
    assert code == 0
    args = build_parser().parse_args(plain)
    assert args.fn(args) == 0
    assert out == capsys.readouterr().out
    assert out != with_symbol


# A fresh interpreter: imports szegodet.cli, runs every command through
# main, then imports scipy.linalg.  The library reaches LAPACK and BLAS
# through szegodet._linalg alone, which loads scipy's f2py modules without
# running scipy/linalg/__init__.py.
_FRESH_CLI = """
import contextlib, io, json, sys

def loaded():
    return [m for m in ("scipy.linalg", "scipy.special") if m in sys.modules]

import szegodet.cli
doc = {"import": loaded()}
from szegodet import _linalg, cli
doc["setters"] = len(cli._blas_thread_setters())
with contextlib.redirect_stdout(io.StringIO()):
    doc["codes"] = [cli.main(argv) for argv in json.loads(sys.argv[1])]
doc["commands"] = loaded()
import scipy.linalg
doc["same"] = [scipy.linalg.lapack.zgeqrf is _linalg.flapack.zgeqrf,
               scipy.linalg.blas.zaxpy is _linalg.fblas.zaxpy,
               scipy.linalg.lapack._flapack is _linalg.flapack,
               scipy.linalg.blas._fblas is _linalg.fblas]
print(json.dumps(doc))
"""


def _fresh_python(script: str, *args: str) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def fresh_cli(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fresh")
    curve = tmp / "wobbly.json"
    curve.write_text(json.dumps({"cap": _WOBBLY["cap"], "phi0": list(_WOBBLY["phi0"]),
                                 "tail": [list(t) for t in _WOBBLY["tail"]]}))
    sym = tmp / "complex.json"
    sym.write_text(json.dumps({"a0": [0.0, 0.0], "a": [[1.0, 0.0], [0.0, 0.3]], "b": []}))
    c, s, out = str(curve), str(sym), str(tmp / "report.json")
    commands = [
        ["predict", "--curve", c, "--symbol", s, "--n", "20", "--m", "auto"],
        ["direct", "--curve", c, "--n", "12"],
        ["convergence", "--curve", c, "--symbol", s, "--n", "8..16"],
        ["grunsky", "--curve", c, "--m", "64"],
        ["energy", "--curve", c, "--n", "4", "--r", "1.1:4:4", "--report-out", out],
        ["wp-check", "--curve", c, "--m", "16", "--report-out", out],
        ["beta-mc", "--curve", c, "--n", "3", "--steps", "2000", "--burn-in", "200"],
    ]
    return _fresh_python(_FRESH_CLI, json.dumps(commands))


def test_cli_import_loads_no_scipy_linalg_or_special(fresh_cli):
    assert fresh_cli["import"] == []


def test_cli_commands_load_no_scipy_linalg_or_special(fresh_cli):
    assert fresh_cli["codes"] == [0] * 7
    assert fresh_cli["commands"] == []


def test_scipy_linalg_reuses_the_loaded_wrappers(fresh_cli):
    assert fresh_cli["same"] == [True] * 4


def test_thread_pin_finds_both_openblas_builds(fresh_cli):
    assert fresh_cli["setters"] == 2


def test_linalg_falls_back_to_the_plain_import(tmp_path):
    # a scipy whose linalg directory holds no such files: the same
    # wrappers, through scipy.linalg
    script = f"""
import json, sys, scipy
scipy.__file__ = {str(tmp_path / "scipy" / "__init__.py")!r}
from szegodet import _linalg
import scipy.linalg
print(json.dumps([_linalg.flapack is scipy.linalg._flapack,
                  _linalg.fblas is scipy.linalg._fblas,
                  callable(_linalg.flapack.zgeqrf)]))
"""
    assert _fresh_python(script) == [True, True, True]
