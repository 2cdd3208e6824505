import json

import numpy as np
import pytest

from szegodet.cli import build_parser, main
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
        # the emitted JSON re-parses into the producing value unchanged
        from szegodet import predict_log_Dn
        from szegodet.cli import load_curve, load_symbol
        from szegodet.predict import PredictionBreakdown

        path = curve_file("q.json")
        code, out, _ = run(capsys, "predict", "--curve", path,
                           "--symbol", symbol_file, "--n", "12")
        parsed = PredictionBreakdown.from_json_dict(json.loads(out))
        direct = predict_log_Dn(load_curve(path), load_symbol(symbol_file), 12)
        assert parsed == direct

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

    def test_explicit_m_and_N(self, capsys, curve_file):
        path = curve_file("q.json")
        code, out, _ = run(capsys, "direct", "--curve", path, "--n", "8",
                           "--N", "64", "--m", "16")
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[1] == "64"
        code, out, _ = run(capsys, "predict", "--curve", path, "--n", "8", "--m", "16")
        assert code == 0
        assert json.loads(out)["m_used"] == 16


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
