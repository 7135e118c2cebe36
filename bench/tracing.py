"""Spans and per-layer metrics for the traced benchmark run.

The tracer wraps public functions of the ``entrobound`` modules from outside:
every module attribute bound to the original function (``processes`` and
``cli`` import several kernels by name) is rebound to a wrapper that records a
span, and restored afterwards.  Nothing under ``src/`` is edited.  Spans are
kept in memory; self time is computed when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# (module, function) pairs whose spans make up the per-layer metrics.  A
# function that a later version of the package no longer has is skipped and
# its metrics read 0.
TRACED = (
    ("cli", "main"),
    ("processes", "qma_conditional_entropy"),
    ("processes", "qar_conditional_entropy"),
    ("processes", "qma_r0"),
    ("processes", "qar_r0"),
    ("processes", "qma_r1"),
    ("processes", "qar_rk"),
    ("processes", "qar_th2_bound"),
    ("processes", "poisson_entropy"),
    ("numerics", "bilateral_sum"),
    ("numerics", "integrate_gaussian_weighted"),
    ("numerics", "integrate_periodic_full"),
    ("spectrum", "psd_from_finite_covariance"),
    ("spectrum", "toeplitz_gaussian_bound_finite"),
    ("bounds", "tdist_bound_k"),
    ("bounds", "tdist_bound_1"),
    ("bounds", "gaussian_psd_bound"),
    ("bounds", "gaussian_entropy_rate"),
    ("montecarlo", "simulate"),
    ("montecarlo", "empirical_covariance"),
    ("montecarlo", "empirical_conditional_entropy"),
)

CLI_COMMANDS = ("fig1", "fig2", "fig3", "fig4", "bound-cov", "bound-psd", "simulate")
SIM_MODELS = (
    "poisson",
    "dma",
    "binomial-hmm",
    "binomial-hmm-seq",
    "poisson-hmm",
    "quantized-ma",
    "quantized-ar",
)
IMPORT_PREFIXES = {
    "import.entrobound_s": "entrobound",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_signal_s": "scipy.signal",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_special_s": "scipy.special",
    "import.scipy_linalg_s": "scipy.linalg",
}


def model_label(model) -> str:
    """Short name of a process model; the two-state sampler paths differ."""
    kind = type(model).__name__
    if kind == "PoissonModel":
        return "poisson"
    if kind == "DmaModel":
        return "dma"
    if kind == "QuantizedMaModel":
        return "quantized-ma"
    if kind == "QuantizedArModel":
        return "quantized-ar"
    if type(model.emission).__name__ == "PoissonEmission":
        return "poisson-hmm"
    return "binomial-hmm" if model.gamma1 + model.gamma2 <= 1.0 else "binomial-hmm-seq"


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent):
        self.name = name
        self.parent = parent
        self.attrs: dict = {}
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """Collects spans: name, start, end and the span that caused each one.

    The grid pool in ``cli`` runs rows on worker threads; a span opened on a
    thread with no open span of its own takes the main thread's innermost
    open span as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._main: list[Span] = []
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main[-1:]
            parent = main[0] if main else None
        s = Span(name, parent)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    # -- instrumentation ----------------------------------------------------

    def install(self, package) -> None:
        for module_name, func_name in TRACED:
            module = getattr(package, module_name, None)
            original = getattr(module, func_name, None)
            if callable(original):
                self._rebind(package, original, self._wrap(module_name, func_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _rebind(self, package, original, wrapper) -> None:
        prefix = package.__name__ + "."
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def _wrap(self, module_name: str, func_name: str, original):
        name = f"{module_name}.{func_name}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                if func_name == "bilateral_sum" and args:
                    term = args[0]

                    def counted(k):
                        s.attrs["term_calls"] = s.attrs.get("term_calls", 0) + 1
                        return term(k)

                    args = (counted,) + args[1:]
                result = original(*args, **kwargs)
                _annotate(s, func_name, args, kwargs, result)
                return result

        # lru_cache'd functions: cache_clear/cache_info must reach the cache
        for attr in ("cache_clear", "cache_info"):
            if hasattr(original, attr):
                setattr(wrapper, attr, getattr(original, attr))
        return wrapper

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> dict:
        """Span -> duration minus the part of it covered by its child spans."""
        children: dict = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[id(s)] = (s.end - s.start) - covered
        return out


def _annotate(s: Span, func_name: str, args, kwargs, result) -> None:
    if func_name == "main":
        argv = args[0] if args else kwargs.get("argv")
        s.attrs["command"] = argv[0] if argv else "?"
    elif func_name == "tdist_bound_k":
        cov = args[0] if args else kwargs["cov"]
        s.attrs["k"] = len(cov.values) - 1
        s.attrs["iterations"] = int(getattr(result, "optimizer_iterations", 0) or 0)
        argmin = getattr(result, "argmin", None) or []
        bounds = sys.modules.get("entrobound.bounds")
        limit = 1.0 - getattr(bounds, "L1_SHRINK", 1e-6)
        s.attrs["boundary"] = bool(argmin) and abs(sum(abs(b) for b in argmin) - limit) <= 1e-6
    elif func_name == "integrate_periodic_full":
        s.attrs["points"] = int(getattr(result, "points", 0))
    elif func_name == "simulate":
        model = args[0] if args else kwargs["model"]
        s.attrs["model"] = model_label(model)
        s.attrs["samples"] = len(result.values)


def layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.

    BENCHMARK.json lists the same metrics; the self-test checks that they agree.
    """
    names = list(IMPORT_PREFIXES) + ["import.modules_loaded", "src.lines"]
    names += [f"cli.main_s.{c}" for c in CLI_COMMANDS]
    for module, func in TRACED:
        if module == "processes":
            names += [f"processes.{func}.self_s", f"processes.{func}.calls"]
    names.append("processes.cache_hit_ratio")
    names += [
        "numerics.bilateral_sum.term_calls",
        "numerics.bilateral_sum.self_s",
        "numerics.integrate_gaussian_weighted.self_s",
        "numerics.integrate_gaussian_weighted.calls",
        "numerics.integrate_periodic_full.self_s",
        "numerics.integrate_periodic_full.points",
        "spectrum.psd_from_finite_covariance.self_s",
        "spectrum.toeplitz_gaussian_bound_finite.self_s",
    ]
    names += [f"bounds.tdist_bound_k.self_s.k{k}" for k in range(1, 5)]
    names += [
        "bounds.tdist_bound_k.iterations",
        "bounds.tdist_bound_k.boundary_share",
        "bounds.tdist_bound_1.self_s",
        "bounds.gaussian_psd_bound.self_s",
        "bounds.gaussian_entropy_rate.self_s",
    ]
    names += [f"montecarlo.simulate.self_s.{m}" for m in SIM_MODELS]
    names += [
        "montecarlo.simulate.samples_per_s",
        "montecarlo.empirical_covariance.self_s",
        "montecarlo.empirical_conditional_entropy.self_s",
        "trace.untraced_pass_s",
        "trace.traced_pass_s",
        "trace.overhead_s",
    ]
    out = []
    for name in names:
        if name.endswith("_ratio") or name.endswith("_share"):
            # a higher boundary share means more optima found on the l1 boundary
            out.append((name, "ratio", "higher"))
        elif name.endswith("per_s"):
            out.append((name, "1/s", "higher"))
        elif name.endswith("_s") or "_s." in name:
            out.append((name, "s", "lower"))
        else:
            out.append((name, "count", "lower"))
    return out


def span_metrics(tracer: Tracer, passes: int, cache_stats: dict) -> dict:
    """Per-pass self times and counts by layer, from the recorded spans.

    Times and counts are divided by the number of traced passes; ratios and
    rates are not.  ``cache_stats`` holds the lru_cache hits and misses seen
    over the traced passes.
    """
    per = 1.0 / max(passes, 1)
    selfs = tracer.self_times()
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    boundary = [0, 0]
    sim_samples, sim_time = 0, 0.0
    for s in tracer.spans:
        st = selfs[id(s)]
        module, _, func = s.name.partition(".")
        if module == "cli":
            add(f"cli.main_s.{s.attrs.get('command')}", (s.end - s.start) * per)
            continue
        if func == "tdist_bound_k":
            add(f"bounds.tdist_bound_k.self_s.k{s.attrs['k']}", st * per)
            add("bounds.tdist_bound_k.iterations", s.attrs["iterations"] * per)
            boundary[0] += s.attrs["boundary"]
            boundary[1] += 1
            continue
        if func == "simulate":
            add(f"montecarlo.simulate.self_s.{s.attrs['model']}", st * per)
            sim_samples += s.attrs["samples"]
            sim_time += s.end - s.start
            continue
        add(f"{s.name}.self_s", st * per)
        add(f"{s.name}.calls", per)
        if func == "bilateral_sum":
            add("numerics.bilateral_sum.term_calls", s.attrs.get("term_calls", 0) * per)
        elif func == "integrate_periodic_full":
            add("numerics.integrate_periodic_full.points", s.attrs["points"] * per)
    out["bounds.tdist_bound_k.boundary_share"] = boundary[0] / boundary[1] if boundary[1] else 0.0
    out["montecarlo.simulate.samples_per_s"] = sim_samples / sim_time if sim_time > 0 else 0.0
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    out["processes.cache_hit_ratio"] = cache_stats.get("hits", 0) / lookups if lookups else 0.0
    return out


# -- import analysis ---------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)\s*$")


def importtime_breakdown(stderr: str) -> dict:
    """Cumulative import seconds per prefix from ``python -X importtime``.

    A prefix's time is the summed cumulative time of its outermost entries
    (the module or its submodules, not nested in another entry with the same
    prefix).  Modules reached through ``importlib.import_module`` (scipy's
    lazy submodules) get no entry of their own, only their children do,
    which is why outermost entries are summed rather than one line read.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((int(m.group(2)), len(m.group(3)) // 2, m.group(4)))
    totals = dict.fromkeys(IMPORT_PREFIXES, 0.0)
    ancestors: list = []
    # -X importtime prints children before their parent; walking the lines
    # backwards visits each parent first.
    for cumulative_us, depth, name in reversed(entries):
        del ancestors[depth:]
        for key, prefix in IMPORT_PREFIXES.items():
            inside = name == prefix or name.startswith(prefix + ".")
            if inside and not any(a == prefix or a.startswith(prefix + ".") for a in ancestors):
                totals[key] += cumulative_us / 1e6
        ancestors.append(name)
    return totals


def import_metrics(python: str, env: dict, cwd: Path, reps: int) -> dict:
    """Median import breakdown and module count over ``reps`` fresh interpreters."""
    code = "import sys; n = len(sys.modules); import entrobound; print(len(sys.modules) - n)"
    samples = []
    for _ in range(reps):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", code],
            env=env,
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import entrobound failed: {proc.stderr[-2000:]}")
        row = importtime_breakdown(proc.stderr)
        row["import.modules_loaded"] = float(proc.stdout.split()[-1])
        samples.append(row)
    return {key: statistics.median(r[key] for r in samples) for key in samples[0]}


def src_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
