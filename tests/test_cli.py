import csv
import json
import math
import os
import subprocess
import sys

import pytest

from entrobound import cli
from entrobound.numerics import ConvergenceError, DomainError


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


class TestFig1:
    def test_reference_row_and_determinism(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli(["fig1", "--lambda-max", "1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 11
        assert list(rows[0]) == ["lambda", "H_poisson", "ME_bound"]
        last = rows[-1]
        assert float(last["lambda"]) == 1.0
        assert float(last["H_poisson"]) == pytest.approx(1.304842242, abs=1e-6)
        assert float(last["ME_bound"]) == pytest.approx(1.458959887, abs=1e-6)
        first = rows[0]
        assert float(first["H_poisson"]) == 0.0
        assert float(first["ME_bound"]) == pytest.approx(0.176485208, abs=1e-6)
        body = out.read_bytes()
        run_cli(["fig1", "--lambda-max", "1", "--out", str(out)])
        assert out.read_bytes() == body  # idempotent, byte-identical

    def test_grid_override(self, tmp_path):
        out = tmp_path / "fig1.csv"
        run_cli(["fig1", "--lambda-min", "2", "--lambda-max", "4", "--lambda-step", "0.5", "--out", str(out)])
        assert len(read_csv(out)) == 5

    def test_nine_significant_digits(self, tmp_path):
        out = tmp_path / "fig1.csv"
        run_cli(["fig1", "--lambda-max", "0.2", "--out", str(out)])
        text = out.read_text().splitlines()
        assert text[1].startswith("0,0,0.176485208")

    def test_large_rate(self, tmp_path):
        # the series would need 4e6 terms here; the asymptotic expansion takes over
        out = tmp_path / "fig1.csv"
        assert run_cli(["fig1", "--lambda-min", "1e6", "--lambda-max", "1e6", "--out", str(out)]) == 0
        (row,) = read_csv(out)
        assert float(row["H_poisson"]) == pytest.approx(8.32669373, abs=1e-8)


class TestFig2:
    def test_reference_values(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli(["fig2", "--theta-max", "1", "--theta-step", "0.5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["theta", "K_sigma1", "K_sigma5"]
        assert float(rows[0]["K_sigma1"]) == 0.0
        assert float(rows[1]["K_sigma1"]) == pytest.approx(0.705882353, abs=1e-4)
        assert float(rows[1]["K_sigma5"]) == pytest.approx(0.795755968, abs=1e-4)
        assert float(rows[2]["K_sigma1"]) == pytest.approx(0.923076923, abs=1e-4)


class TestFig3:
    def test_values_and_crossover(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run_cli(["fig3", "--sigma", "5", "--theta-max", "1", "--theta-step", "0.5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["theta", "H_CE", "H_TH1", "H_TH3"]
        at_one = rows[2]
        assert float(at_one["H_CE"]) == pytest.approx(3.232184454, abs=5e-3)
        # the PSD-route bound beats the conditional-entropy baseline here
        assert float(at_one["H_TH1"]) < float(at_one["H_CE"])

    def test_sigma1_th1_anchor(self, tmp_path):
        out = tmp_path / "fig3.csv"
        run_cli(["fig3", "--sigma", "1", "--theta-max", "1.5", "--theta-step", "1.5", "--out", str(out)])
        rows = read_csv(out)
        assert float(rows[-1]["H_TH1"]) == pytest.approx(1.88223574, abs=2e-3)


@pytest.mark.parametrize(
    "args,ce_column,bound_column",
    [
        (["fig3", "--sigma", "0.004"], "H_CE", "H_TH3"),
        (["fig4", "--sigma", "0.004", "--nu", "0"], "H_CE_AR", "H_TH2_k3"),
        # the s-grid stops where the weight underflows, not at the saddle s*
        (["fig3", "--sigma", "1e-7"], "H_CE", "H_TH3"),
        # sigma^2 underflows to 0.0 as well
        (["fig3", "--sigma", "1e-170"], "H_CE", "H_TH3"),
        # s-nodes 2^-66 to 2^-68 apart: more offsets per unit than an index holds
        (["fig3", "--sigma", "1e-20"], "H_CE", "H_TH3"),
    ],
)
def test_r0_underflow_gives_the_univariate_bound(tmp_path, args, ce_column, bound_column):
    # at sigma = 0.004 R(0) underflows to 0.0 on most rows: the quantized
    # process is 0, and every bound is 1/2 log(2 pi e / 12).  H_CE underflows
    # too, except on the fig4 rows phi = 0.96 and 0.98 (1.4e-265, 4.3e-134)
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) > 10
    for row in rows:
        assert float(row[bound_column]) == pytest.approx(0.5 * math.log(2 * math.pi * math.e / 12), abs=1e-8)
        assert float(row[ce_column]) >= 0.0 and not row[ce_column].startswith("-")


def test_variance_underflow_prints_nothing_on_stderr(tmp_path):
    # in a fresh interpreter, with numpy's default warning handling
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    code = "import sys\nfrom entrobound import cli\nsys.exit(cli.main(sys.argv[1:]))"
    args = ["fig3", "--sigma", "1e-170", "--out", str(tmp_path / "out.csv")]
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stderr == ""


class TestFig4:
    def test_anchors_and_monotonicity(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run_cli(["fig4", "--phi-min", "0.9", "--phi-max", "0.98", "--phi-step", "0.08", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert list(rows[0]) == ["phi", "H_CE_AR", "H_TH2_k2", "H_TH2_k3"]
        assert float(rows[0]["H_TH2_k3"]) == pytest.approx(2.907583792, abs=3e-3)
        assert float(rows[1]["H_TH2_k2"]) == pytest.approx(2.994138702, abs=3e-3)
        for row in rows:
            assert float(row["H_TH2_k3"]) <= float(row["H_TH2_k2"]) + 1e-6
        body = out.read_bytes()
        run_cli(["fig4", "--phi-min", "0.9", "--phi-max", "0.98", "--phi-step", "0.08", "--out", str(out)])
        assert out.read_bytes() == body


class TestBoundCov:
    def test_variance_only(self, tmp_path):
        src = tmp_path / "cov.txt"
        src.write_text("1.0\n")
        out = tmp_path / "out.csv"
        assert run_cli(["bound-cov", "--input", str(src), "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["bound"] == "univariate_me"
        assert "note" in rows[0] and rows[0]["note"]

    def test_quantized_ma_statistics_roundtrip(self, tmp_path):
        from entrobound.processes import QuantizedMaModel, qma_r0, qma_r1, qma_th3_bound

        m = QuantizedMaModel(1.0, 1.0)
        src = tmp_path / "cov.txt"
        src.write_text(f"# lag-0 and lag-1 statistics\n{qma_r0(m)!r},{qma_r1(m)!r}\n")
        out = tmp_path / "out.csv"
        assert run_cli(["bound-cov", "--input", str(src), "--out", str(out)]) == 0
        rows = {r["bound"]: r for r in read_csv(out)}
        assert float(rows["tdist_order_1"]["value"]) == pytest.approx(1.685758684, abs=1e-4)
        # output carries 9 significant digits
        assert float(rows["tdist_order_1"]["value"]) == pytest.approx(
            qma_th3_bound(m), abs=1e-8
        )

    def test_near_unit_root(self, tmp_path):
        from entrobound.bounds import tdist_bound_k
        from entrobound.spectrum import CovarianceSequence

        values = [1e4 * 0.9999**m for m in range(9)]
        src = tmp_path / "cov.txt"
        src.write_text(",".join(repr(v) for v in values) + "\n")
        out = tmp_path / "out.csv"
        assert run_cli(["bound-cov", "--input", str(src), "--out", str(out)]) == 0
        rows = {r["bound"]: r for r in read_csv(out)}
        value = float(rows["tdist_order_8"]["value"])
        assert value == pytest.approx(tdist_bound_k(CovarianceSequence(tuple(values))).value, abs=1e-8)
        assert value < float(rows["univariate_me"]["value"])

    def test_invariant_violation_exit_code(self, tmp_path, capsys):
        src = tmp_path / "cov.txt"
        src.write_text("1.0,1.5\n")
        assert run_cli(["bound-cov", "--input", str(src), "--out", "-"]) == 2
        assert "Cauchy-Schwarz" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run_cli(["bound-cov", "--input", str(tmp_path / "nope.txt"), "--out", "-"]) == 2

    @pytest.mark.parametrize(
        "text,message",
        [("", "no covariance values"), ("# only a comment\n", "no covariance values"), ("1.0,abc\n", "malformed")],
        ids=["empty", "comment-only", "malformed"],
    )
    def test_unreadable_file(self, tmp_path, capsys, text, message):
        src = tmp_path / "cov.txt"
        src.write_text(text)
        assert run_cli(["bound-cov", "--input", str(src), "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_unit_root_at_large_scale_exits_2(self, tmp_path, capsys):
        # R(0) = R(1) = 1e16: the order-1 row is exact (it raised a bare
        # ValueError when it formed sigma - R(1)^2 / sigma), and the order-k
        # row rejects the sequence with DomainError, so no traceback escapes
        src = tmp_path / "cov.txt"
        src.write_text("1e16,1e16\n")
        assert run_cli(["bound-cov", "--input", str(src), "--out", "-"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["bound-cov", "bound-psd"])
def test_non_utf8_file_exit_code(tmp_path, capsys, command):
    src = tmp_path / "cov.txt"
    src.write_bytes(b"1.0,\xff0.5\n")
    assert run_cli([command, "--input", str(src), "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: malformed covariance file {src}: ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["bound-cov", "bound-psd"])
def test_not_positive_semidefinite_exit_code(tmp_path, capsys, command):
    src = tmp_path / "cov.txt"
    src.write_text("1,0.99,-0.99\n")
    assert run_cli([command, "--input", str(src), "--out", "-"]) == 2
    captured = capsys.readouterr()
    assert "positive semidefinite" in captured.err
    assert captured.out == ""


class TestBoundPsd:
    def test_bound_and_rate(self, tmp_path):
        src = tmp_path / "cov.txt"
        src.write_text("1.0,0.25\n")
        out = tmp_path / "out.json"
        assert run_cli(["bound-psd", "--input", str(src), "--out", str(out), "--format", "json"]) == 0
        records = {r["quantity"]: r for r in json.loads(out.read_text())}
        assert records["gaussian_psd_bound"]["value"] > records["gaussian_entropy_rate"]["value"]
        assert "zero" in records["gaussian_psd_bound"]["note"]

    def test_defect_c_exits_zero(self, tmp_path, capsys):
        # the PSD's minimum is 3.0e-11: the periodic quadrature never settled
        src = tmp_path / "cov.txt"
        src.write_text("0.8671189766904396,0.42217425418268545,0.20994707107442728,-0.11749767076109953\n")
        assert run_cli(["bound-psd", "--input", str(src), "--out", "-"]) == 0
        rows = {row[0]: row[1] for row in (line.split(",") for line in capsys.readouterr().out.splitlines())}
        assert rows["gaussian_psd_bound"] == "1.1991344"
        assert float(rows["gaussian_entropy_rate"]) == pytest.approx(0.97545597, abs=1e-8)


class TestGridValidation:
    def test_bad_step(self, capsys):
        assert run_cli(["fig1", "--lambda-step", "0", "--out", "-"]) == 2
        assert "step" in capsys.readouterr().err

    def test_empty_grid(self):
        assert run_cli(["fig1", "--lambda-min", "5", "--lambda-max", "1", "--out", "-"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["fig2", "--theta-max", "inf"],
            ["fig2", "--theta-max", "nan"],
            ["fig1", "--lambda-min=-inf"],
            ["fig4", "--phi-step", "nan"],
        ],
    )
    def test_non_finite_grid(self, args, capsys):
        assert run_cli(args + ["--out", "-"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--model", "quantized-ma", "--sigma", "inf", "-n", "3"],
            ["simulate", "--model", "quantized-ma", "--theta", "nan", "-n", "3"],
            ["simulate", "--model", "quantized-ar", "--nu", "inf", "-n", "3"],
            ["simulate", "--model", "dma", "--variance", "inf", "-n", "3"],
            ["fig2", "--sigma", "inf"],
            ["fig3", "--sigma", "inf"],
            ["fig4", "--sigma", "inf"],
            ["fig4", "--nu", "inf"],
        ],
    )
    def test_non_finite_model_parameters(self, args, capsys):
        assert run_cli(args + ["--out", "-"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_huge_grid_rejected_before_allocation(self, capsys):
        assert run_cli(["fig1", "--lambda-max", "1e12", "--lambda-step", "1e-3", "--out", "-"]) == 2
        assert f"more than {cli.MAX_GRID_POINTS} points" in capsys.readouterr().err

    def test_grid_size_limit_is_inclusive(self):
        assert len(cli._grid(0.0, cli.MAX_GRID_POINTS - 1.0, 1.0)) == cli.MAX_GRID_POINTS
        with pytest.raises(DomainError):
            cli._grid(0.0, float(cli.MAX_GRID_POINTS), 1.0)


class TestNonFiniteJson:
    def test_vanishing_psd_rate_serializes(self, tmp_path):
        src = tmp_path / "cov.txt"
        src.write_text("2.0,1.0\n")  # PSD touches zero at pi; log Phi is integrable there
        out = tmp_path / "out.json"
        assert run_cli(["bound-psd", "--input", str(src), "--out", str(out), "--format", "json"]) == 0
        records = {r["quantity"]: r for r in json.loads(out.read_text())}
        assert records["gaussian_entropy_rate"]["value"] == 1.41893853  # 1/2 log(2 pi e)
        assert isinstance(records["gaussian_psd_bound"]["value"], float)

    def test_writer_serializes_non_finite_values(self, tmp_path):
        out = tmp_path / "out.json"
        rows = [["a", -math.inf, ""], ["b", math.inf, ""], ["c", math.nan, ""], ["d", 1.5, ""]]
        cli._write_table(str(out), ["quantity", "value", "note"], rows, "json")
        values = [r["value"] for r in json.loads(out.read_text())]
        assert values == ["-inf", "inf", "nan", 1.5]


class TestSimulate:
    def test_deterministic(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["simulate", "--model", "quantized-ar", "--length", "50", "--seed", "9"]
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert len(read_csv(out_a)) == 50

    def test_json_format(self, tmp_path):
        out = tmp_path / "p.json"
        run_cli(["simulate", "--model", "poisson", "--rate", "2.0", "--length", "10",
                 "--seed", "1", "--out", str(out), "--format", "json"])
        records = json.loads(out.read_text())
        assert len(records) == 10
        assert all(isinstance(r["value"], int) for r in records)

    def test_oversized_length(self, capsys):
        assert run_cli(["simulate", "--model", "poisson", "-n", "10000000000000", "--out", "-"]) == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_invalid_model_parameters(self, tmp_path, capsys):
        for args in (
            ["--model", "quantized-ar", "--phi", "1.5"],
            ["--model", "dma", "--weights", "x,y"],
            ["--model", "dma", "--weights", "0.5,0.5,"],
            # beyond what numpy's Poisson and binomial samplers take
            ["--model", "poisson", "--rate", "1e300"],
            ["--model", "poisson-hmm", "--rate1", "1e300"],
            ["--model", "poisson-hmm", "--rate2", "1e300"],
            ["--model", "dma", "--variance", "1e300"],
            ["--model", "binomial-hmm", "--trials", "10000000000000000000"],
        ):
            assert run_cli(["simulate", *args, "--length", "10", "--out", "-"]) == 2, args
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ") and captured.out == "", args

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2", "--sigma", "1e300"],
            ["fig3", "--sigma", "1e300"],
            ["fig4", "--sigma", "1e300"],
            ["fig4", "--nu", "1e200"],
            ["fig2", "--sigma", "1e154", "--theta-max", "2", "--theta-step", "1"],
            ["simulate", "--model", "quantized-ma", "--sigma", "1e19", "-n", "8", "--seed", "3"],
            ["simulate", "--model", "quantized-ma", "--sigma", "1e300", "-n", "8"],
            ["simulate", "--model", "quantized-ma", "--theta", "1e200", "-n", "8"],
            ["simulate", "--model", "quantized-ar", "--nu", "1e200", "-n", "8"],
            ["simulate", "--model", "poisson", "--seed", "-1", "-n", "5"],
        ],
    )
    def test_overflow_and_negative_seed_exit_2(self, argv, capsys):
        # an overflowing variance, a sample beyond int64 or a negative seed:
        # one error line, where a traceback or wrapped int64 values came before
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _row_rendering(values, fmt):
    """An integer column rendered row by row: one _fmt call or JSON record per value."""
    if fmt == "csv":
        return "value\n" + "".join(cli._fmt(int(v)) + "\n" for v in values)
    return json.dumps([{"value": int(v)} for v in values], indent=2) + "\n"


class TestSimulateRendering:
    @pytest.mark.parametrize("model", sorted(cli._MODEL_BUILDERS))
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [1, 10**5])
    def test_byte_identical_to_row_rendering(self, model, fmt, n, tmp_path):
        from entrobound.montecarlo import simulate

        out = tmp_path / "path.txt"
        argv = ["simulate", "--model", model, "-n", str(n), "--seed", "11", "--format", fmt]
        assert run_cli(argv + ["--out", str(out)]) == 0
        args = cli._build_parser().parse_args(argv)
        values = simulate(cli._MODEL_BUILDERS[model](args), n, 11).values
        got, want = out.read_text(), _row_rendering(values, fmt)
        if got != want:  # not a bare assert: pytest's diff of 1e5 lines takes minutes
            i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            pytest.fail(f"first difference at character {i}: {got[i:i + 40]!r} vs {want[i:i + 40]!r}")


class TestJsonMirror:
    def test_same_records_as_csv(self, tmp_path):
        csv_out = tmp_path / "t.csv"
        json_out = tmp_path / "t.json"
        run_cli(["fig1", "--lambda-max", "0.3", "--out", str(csv_out)])
        run_cli(["fig1", "--lambda-max", "0.3", "--out", str(json_out), "--format", "json"])
        csv_rows = read_csv(csv_out)
        json_rows = json.loads(json_out.read_text())
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            for key in c:
                assert float(c[key]) == pytest.approx(float(j[key]), abs=1e-12)


class TestThreadCapAndErrors:
    def test_non_convergence_exit_code(self, monkeypatch, capsys):
        def boom(grid):
            raise ConvergenceError("stalled", estimates=(1.0, 2.0))

        monkeypatch.setattr(cli, "run_fig1", boom)
        assert run_cli(["fig1", "--out", "-"]) == 3
        err = capsys.readouterr().err
        assert "non-convergence" in err
        assert "last estimates: 1.0, 2.0" in err


class TestParserReuse:
    """The parser is built once per process, so one call's options must not
    carry into the next."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "first,second,header",
        [
            (["fig2", "--sigma", "3"], ["fig2"], "theta,K_sigma1,K_sigma5"),
            (["fig4", "--k", "5"], ["fig4"], "phi,H_CE_AR,H_TH2_k2,H_TH2_k3"),
        ],
        ids=["fig2-sigma", "fig4-k"],
    )
    def test_append_options_do_not_leak(self, first, second, header, tmp_path):
        grid = {"fig2": ["--theta-step", "1"], "fig4": ["--phi-max", "0.7"]}[first[0]]
        out = tmp_path / "second.csv"
        assert run_cli(first + grid + ["--out", str(tmp_path / "first.csv")]) == 0
        assert run_cli(second + grid + ["--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == header
