"""Benchmark for entrobound: end-to-end metrics per workload, per-layer when traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli_cold|figures|cov_bounds|oracles|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with the package's public functions wrapped in spans and reports the
per-layer metrics instead.  ``--workload all`` runs every workload in its own
process, one after another, and prints the seven end-to-end metrics of each.
``--smoke`` runs one pass at tiny size (the self-test uses it).  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

# Load discipline: a workload process uses at most nproc threads.  The grid
# pool of entrobound.cli already takes nproc of them, so BLAS calls run on the
# calling thread.  Set before numpy is imported, here and in every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# End-to-end metrics in the result line, as BENCHMARK.json lists them.  The
# report line adds peak_rss_mb, error_frac and wrong_frac (see README.md).
GATED = ("setup_s", "items_per_s", "latency_p50_s", "latency_tail_s")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_import(env: dict) -> float:
    """Wall time from a fresh interpreter's start until ``import entrobound`` is done."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import entrobound"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import entrobound failed: {proc.stderr[-2000:]}")
    return elapsed


def load_package():
    sys.path.insert(0, str(SRC))
    import entrobound
    import entrobound.cli

    if not Path(entrobound.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: entrobound was imported from {entrobound.__file__}, not {SRC}")
    return entrobound


def machine_record(eb, env: dict) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    max_workers = getattr(eb.cli, "_max_workers", None)
    workers = max_workers() if max_workers else 1
    record = {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ENTROBOUND_THREADS": os.environ.get("ENTROBOUND_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "grid_pool_workers": workers,
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }
    if workers > nproc and max_workers:
        # load discipline: the workload process uses at most nproc threads
        os.environ["ENTROBOUND_THREADS"] = env["ENTROBOUND_THREADS"] = str(nproc)
        record["grid_pool_workers"] = max_workers()
    return record


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Tally:
    """Item outcomes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.by_label: dict = defaultdict(list)
        self.pass_rates: list[float] = []  # work units per second of item time
        self.pass_medians: list[float] = []  # median item time of each pass


def run_pass(workload, p: int, checks, tally: Tally, clear: bool = True) -> float:
    """Run one pass of items in a closed loop; returns the summed item time."""
    if clear and workload.clears_caches:
        wl.clear_caches(workload.ctx.eb.processes)
    busy = 0.0
    rows = 0
    times = []
    for item in workload.items(p):
        tally.attempted += 1
        start = time.perf_counter()
        try:
            out = item.run()
        except Exception:
            tally.failed += 1
            print(f"item {item.label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        elapsed = time.perf_counter() - start
        busy += elapsed
        rows += item.rows
        times.append(elapsed)
        tally.latencies.append(elapsed)
        tally.by_label[item.label].append(elapsed)
        try:
            item.check(out, checks)
        except Exception as exc:
            checks.expect(("check", item.label), False, f"output unreadable: {exc!r}")
    if times:
        tally.pass_rates.append(rows / busy)
        tally.pass_medians.append(statistics.median(times))
    return busy


def end_to_end(workload, checks, args, env) -> tuple[dict, dict, Tally]:
    reps = 1 if args.smoke else SETUP_REPS
    setup = [time_import(env) for _ in range(reps)]
    tally = Tally()
    p = 0
    if workload.name != "cli_cold" and not args.smoke:
        run_pass(workload, p, checks, Tally())  # warm-up, not timed
        p += 1
    start = time.perf_counter()
    passes = 0
    while True:
        run_pass(workload, p, checks, tally)
        p += 1
        passes += 1
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    workload.finish(checks)

    who = resource.RUSAGE_CHILDREN if workload.name == "cli_cold" else resource.RUSAGE_SELF
    lat = tally.latencies or [float("nan")]
    rates = tally.pass_rates or [0.0]
    pct = workload.tail_percentile
    tail = percentile(lat, pct)
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "items_per_s": (statistics.median(rates), "1/s", len(tally.pass_rates)),
        "latency_p50_s": (statistics.median(tally.pass_medians or lat), "s", len(tally.latencies)),
        "latency_tail_s": (tail, "s", len(tally.latencies)),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB", 1),
        "error_frac": (tally.failed / max(tally.attempted, 1), "ratio", tally.attempted),
        "wrong_frac": (len(checks.wrong) / max(checks.checked, 1), "ratio", checks.checked),
    }
    details = {
        "passes": passes,
        "latency_tail_percentile": pct,
        "latency_tail_beyond": sum(v > tail for v in lat),
        "pass_rate_quartiles": statistics.quantiles(rates, n=4) if len(rates) > 1 else rates,
        "setup_samples_s": setup,
        "median_latency_by_item_s": {k: statistics.median(v) for k, v in tally.by_label.items()},
    }
    return metrics, details, tally


def traced(workload, checks, args, env) -> tuple[dict, dict, Tally]:
    eb = workload.ctx.eb
    values = tracing.import_metrics(sys.executable, env, ROOT, 1 if args.smoke else SETUP_REPS)
    values["src.lines"] = float(tracing.src_lines(SRC))
    tracer = tracing.Tracer()
    cache = {"hits": 0, "misses": 0}
    tally = Tally()
    untraced_s, traced_s = [], []
    p = 0
    if not args.smoke:
        run_pass(workload, p, checks, Tally())  # warm-up, not timed
        p += 1
    start = time.perf_counter()
    while True:
        untraced_s.append(run_pass(workload, p, checks, tally))
        if workload.clears_caches:
            wl.clear_caches(eb.processes)
        before = wl.cache_totals(eb.processes)
        tracer.install(eb)
        try:
            traced_s.append(run_pass(workload, p + 1, checks, tally, clear=False))
        finally:
            tracer.uninstall()
        after = wl.cache_totals(eb.processes)
        for key in cache:
            cache[key] += after[key] - before[key]
        p += 2
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    workload.finish(checks)

    values.update(tracing.span_metrics(tracer, len(traced_s), cache))
    values["trace.untraced_pass_s"] = statistics.mean(untraced_s)
    values["trace.traced_pass_s"] = statistics.mean(traced_s)
    values["trace.overhead_s"] = values["trace.traced_pass_s"] - values["trace.untraced_pass_s"]
    metrics = {name: (values.get(name, 0.0), unit, len(traced_s)) for name, unit, _ in tracing.layer_metrics()}
    details = {"passes_traced": len(traced_s), "spans": len(tracer.spans)}
    return metrics, details, tally


def run_one(args) -> int:
    env = child_env()
    eb = load_package()
    machine = machine_record(eb, env)
    print("machine " + json.dumps(machine), flush=True)
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        ctx = wl.Context(
            ROOT,
            tmp,
            eb,
            sys.executable,
            env,
            cold_cli=args.workload == "cli_cold" and not args.trace,
            smoke=args.smoke,
        )
        workload = wl.WORKLOADS[args.workload](ctx, args.seed)
        checks = wl.Checks()
        if args.trace:
            metrics, details, tally = traced(workload, checks, args, env)
        else:
            metrics, details, tally = end_to_end(workload, checks, args, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    unexpected = checks.unexpected()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit:<6} n={n}")
    if not args.trace:
        print(
            f"  latency_tail_s is p{details['latency_tail_percentile']} with "
            f"{details['latency_tail_beyond']} samples beyond it"
        )
    print(
        f"  checked {checks.checked} values: {len(checks.wrong)} wrong, "
        f"{len(checks.wrong) - len(unexpected)} of them known defects, {len(unexpected)} unexpected"
    )
    for _, detail in unexpected[:10]:
        print(f"  unexpected: {detail}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "values_checked": checks.checked,
        "values_wrong": len(checks.wrong),
        "values_wrong_unexpected": len(unexpected),
        "wrong_known": sorted({str(key) for key, _ in checks.wrong if checks.known_defect(key)}),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        **details,
    }
    print("report " + json.dumps(report))
    reported = {k: v for k, v in metrics.items() if args.trace or k in GATED}
    result = {
        "correct": tally.failed == 0 and checks.checked > 0 and not unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in reported.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary, results = [], []
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        summary.append(json.loads(next(l for l in lines if l.startswith("report "))[7:]))
        results.append(json.loads(lines[-1]))
    print("\nall workloads (value unit samples)")
    for report in summary:
        print(f"{report['workload']}:")
        for k, m in report["metrics"].items():
            print(f"  {k:<52} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {
                    f"{rep['workload']}.{k}": v for rep, r in zip(summary, results) for k, v in r["metrics"].items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at tiny size")
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "entrobound" / "__init__.py", ROOT / "tests" / "data") if not p.exists()]
    if missing:
        print(f"bench: not in an entrobound checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
