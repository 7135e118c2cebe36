"""Self-test of the benchmark: ``python -m pytest bench/test_bench.py``.

Runs every workload once in smoke mode (one pass, tiny size), untraced and
traced, and checks that every end-to-end and per-layer metric is emitted with
its unit and that each workload's output checks actually ran.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report ") :])
    return json.loads(lines[-1]), report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_checked(workload):
    result, report = parse(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert tuple(wanted) == run.GATED
    # all seven end-to-end metrics, with sample counts, are in the report
    extra = {"peak_rss_mb": "MiB", "error_frac": "ratio", "wrong_frac": "ratio"}
    for name, unit in {**wanted, **extra}.items():
        assert report["metrics"][name]["unit"] == unit
        assert report["metrics"][name]["samples"] > 0
    assert report["values_checked"] > 0
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_checked(workload):
    result, report = parse(bench(workload, 1))
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert report["values_checked"] > 0
    assert result["correct"]


def test_spec_lists_the_traced_metrics():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == tracing.layer_metrics()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("figures", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    selfs = tracer.self_times()
    assert inner.parent is outer
    assert selfs[id(outer)] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


def test_importtime_counts_outermost_entries_once():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy.special._ufuncs",
            "import time:       200 |        300 |     scipy.special",
            "import time:        50 |       5000 |   scipy.optimize._optimize",
            "import time:        10 |       8000 | entrobound",
        ]
    )
    got = tracing.importtime_breakdown(stderr)
    assert got["import.entrobound_s"] == pytest.approx(8000e-6)
    assert got["import.scipy_special_s"] == pytest.approx(300e-6)
    assert got["import.scipy_optimize_s"] == pytest.approx(5000e-6)
    assert got["import.scipy_signal_s"] == 0.0


def test_percentile_interpolates():
    values = [float(v) for v in range(101)]
    assert run.percentile(values, 95) == 95.0
    assert run.percentile([1.0, 2.0], 50) == 1.5
