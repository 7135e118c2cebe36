"""The four benchmark workloads: inputs made from the seed, items and checks.

A workload yields passes of items.  Every item is one request of a closed
loop with one client: it is timed on its own and the next item starts only
after it has returned.  Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Tolerances of the acceptance criteria, per reference column.
TOLERANCES = {
    "H_poisson": 1e-6,
    "ME_bound": 1e-6,
    "K_sigma1": 1e-4,
    "K_sigma5": 1e-4,
    "H_CE": 5e-3,
    "H_TH1": 2e-3,
    "H_TH3": 2e-3,
    "H_CE_AR": 5e-3,
    "H_TH2_k2": 3e-3,
    "H_TH2_k3": 3e-3,
}

# Criterion 3's known red: the frozen H_CE values at these grid points
# disagree with the implementation (see the package README).  They are
# checked and counted as wrong like any other point; they are listed only so
# that a run can tell them from a new regression.
KNOWN_RED = {("fig3_sigma1", "H_CE", t) for t in (1.7, 1.8, 1.9, 2.0)} | {
    ("fig3_sigma5", "H_CE", t) for t in (1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0)
}

# Optimality invariants of tdist_bound_k.  For k >= 4 its grid scan plus
# Nelder-Mead search may stop in a local minimum (its docstring says so); the
# value is then still an upper bound but exceeds the order-1 or univariate
# value.  Such misses at k = 4 are counted as wrong but are a documented
# defect, not a regression; at k <= 3 they are unexpected.
OPTIMALITY = ("tdist_k<=tdist_1", "tdist_k<=univariate_me")

# The periodic quadrature behind gaussian_entropy_rate does not converge
# within its 2**21-node budget when the spectral density nearly vanishes
# somewhere: in process it raises ConvergenceError, and bound-psd exits with
# code 3.  About 1 in 25,000 random covariance sequences does this.  The
# missing values are counted as wrong, as a known defect, instead of failing
# the item.
NONCONVERGENCE = "periodic quadrature did not converge"

INVARIANT_SLACK = 1e-9
Z_LIMIT = 4.0  # batch-means standard errors, as in acceptance criterion 8


class ItemFailed(Exception):
    """The program raised, or a CLI call exited with a code other than 0."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class Checks:
    """Counts checked output values and records the ones out of tolerance."""

    def __init__(self):
        self.checked = 0
        self.wrong: list[tuple] = []

    def expect(self, key: tuple, ok: bool, detail: str = "") -> None:
        self.checked += 1
        if not ok:
            self.wrong.append((key, detail))

    @staticmethod
    def known_defect(key: tuple) -> bool:
        return (
            key in KNOWN_RED
            or (key[0] in OPTIMALITY and key[1] == "k4")
            or key[0] == "rate_nonconvergence"
        )

    def unexpected(self) -> list[tuple]:
        return [w for w in self.wrong if not self.known_defect(w[0])]


@dataclass
class Item:
    label: str
    rows: int  # work units counted by items_per_s
    run: Callable[[], object]
    check: Callable[[object, Checks], None]


class Context:
    """What every workload needs: paths, the package, and how to call the CLI."""

    def __init__(self, root: Path, tmp: Path, eb, python: str, env: dict, cold_cli: bool, smoke: bool):
        self.root = root
        self.tmp = tmp
        self.eb = eb
        self.python = python
        self.env = env
        self.cold_cli = cold_cli
        self.smoke = smoke

    def cli(self, argv: list[str]) -> None:
        if self.cold_cli:
            proc = subprocess.run(
                [self.python, "-m", "entrobound.cli", *argv],
                env=self.env,
                cwd=self.root,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
            if proc.returncode != 0:
                raise ItemFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}", proc.returncode)
        else:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = self.eb.cli.main(argv)  # looked up per call, so tracing sees it
            if code != 0:
                raise ItemFailed(f"cli.main returned {code}: {err.getvalue().strip()[-500:]}", code)

    def reference(self, name: str) -> list[dict]:
        with open(self.root / "tests" / "data" / name) as f:
            return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(f)]


def read_table(path: Path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(f))


def clear_caches(processes) -> None:
    for fn in cached_functions(processes):
        fn.cache_clear()


def cached_functions(processes) -> list:
    return [v for v in vars(processes).values() if callable(getattr(v, "cache_info", None))]


def cache_totals(processes) -> dict:
    infos = [fn.cache_info() for fn in cached_functions(processes)]
    return {"hits": sum(i.hits for i in infos), "misses": sum(i.misses for i in infos)}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_table(checks: Checks, table: str, out: Path, reference: list[dict], key_col: str) -> None:
    """Every reference value against the CLI table at its column tolerance."""
    got = {}
    for row in read_table(out):
        got[round(float(row[key_col]), 9)] = row
    for ref in reference:
        key = round(ref[key_col], 9)
        row = got.get(key)
        for col, tol in TOLERANCES.items():
            if col not in ref:
                continue
            value = float(row[col]) if row is not None and col in row else math.nan
            err = abs(value - ref[col])
            checks.expect((table, col, key), err < tol, f"{table} {col} at {key}: off by {err:.3g}")


def half_ulp9(v: float) -> float:
    """Rounding error of a value printed with 9 significant digits."""
    if v == 0.0 or not math.isfinite(v):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 8)


def check_bounds(checks: Checks, tag: str, r: list[float], v: dict, printed: bool) -> None:
    """Rigorous relations between the covariance-route and PSD-route bounds.

    ``v`` holds me, t1, tk, psd, rate (and toeplitz, in process).  Values
    read from CLI output carry 9 significant digits, whose rounding is added
    to the slack.
    """

    def le(name, a, b):
        slack = INVARIANT_SLACK + (half_ulp9(a) + half_ulp9(b) if printed else 0.0)
        checks.expect((name, tag), a <= b + slack, f"{name} {tag}: {a!r} > {b!r}")

    if v["rate"] is None:
        checks.expect(("rate_nonconvergence", tag), False, f"{tag} {r}: {NONCONVERGENCE}")
    else:
        le("rate<=psd", v["rate"], v["psd"])
    if v["psd"] is None:
        checks.expect(("rate_nonconvergence", tag), False, f"bound-psd {tag} {r}: exit 3")
    else:
        le("psd<=tdist_k", v["psd"], v["tk"])
    le("tdist_k<=tdist_1", v["tk"], v["t1"])
    le("tdist_k<=univariate_me", v["tk"], v["me"])
    if "toeplitz" in v and v["psd"] is not None:
        le("psd<=toeplitz_512", v["psd"], v["toeplitz"])
    sig = r[0] + 1.0 / 12.0
    closed = 0.5 * math.log(2.0 * math.pi * math.e * (sig - r[1] ** 2 / sig))
    slack = INVARIANT_SLACK + (half_ulp9(v["t1"]) if printed else 0.0)
    checks.expect(
        ("tdist_1=closed_form", tag),
        abs(v["t1"] - closed) <= slack,
        f"tdist_1 {tag}: {v['t1']!r} vs closed form {closed!r}",
    )


def random_covariance(rng: np.random.Generator, k: int) -> list[float]:
    """Autocorrelation of a random coefficient vector: a valid order-k sequence.

    Same construction as ``tests/conftest.py::random_ma_covariance``, with
    the order given instead of drawn.
    """
    c = rng.normal(size=k + 1)
    return [float(np.dot(c[: k + 1 - j], c[j:])) for j in range(k + 1)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    clears_caches = False  # clear the processes caches before each pass
    # Percentile reported as latency_tail_s: the highest of 50, 80, 90, 95
    # with at least 10 samples beyond it in a standard run, fixed per
    # workload so that runs of different length stay comparable.
    tail_percentile = 50

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx
        self.rng = np.random.default_rng(seed)

    def items(self, p: int) -> list[Item]:
        raise NotImplementedError

    def finish(self, checks: Checks) -> None:
        """Checks that need the whole run."""


FIGURE_TABLES = (
    # name, CLI arguments, grid rows, reference file, grid column
    ("fig2", ["fig2"], 201, "fig2_reference.csv", "theta"),
    ("fig3_sigma1", ["fig3"], 21, "fig3_sigma1_reference.csv", "theta"),
    ("fig3_sigma5", ["fig3", "--sigma", "5"], 21, "fig3_sigma5_reference.csv", "theta"),
    ("fig4", ["fig4"], 15, "fig4_reference.csv", "phi"),
)


class Figures(Workload):
    """The paper's tables in process through ``cli.main``, caches cold per pass."""

    name = "figures"
    clears_caches = True
    tail_percentile = 80  # inside the fig4 items, the slowest quarter

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        self.refs = {t[0]: ctx.reference(t[3]) for t in FIGURE_TABLES}

    def items(self, p):
        return [self._item(*t) for t in FIGURE_TABLES]

    def _item(self, table, args, rows, _ref, key_col):
        out = self.ctx.tmp / f"{table}.csv"
        return Item(
            table,
            rows,
            lambda: self.ctx.cli(args + ["--out", str(out)]),
            lambda _, checks: check_table(checks, table, out, self.refs[table], key_col),
        )


# CLI models for `simulate`, with every parameter given explicitly.
SIM_CLI_MODELS = {
    "poisson": (["--rate", "2.5"], lambda eb: eb.PoissonModel(2.5)),
    "dma": (
        ["--weights", "0.3,0.3,0.4", "--variance", "2"],
        lambda eb: eb.DmaModel((0.3, 0.3, 0.4), 2.0),
    ),
    "binomial-hmm": (
        ["--gamma1", "0.1", "--gamma2", "0.3", "--trials", "10", "--p1", "0.2", "--p2", "0.8"],
        lambda eb: eb.TwoStateHmm(0.1, 0.3, eb.BinomialEmission(10, 0.2, 0.8)),
    ),
    "poisson-hmm": (
        ["--gamma1", "0.2", "--gamma2", "0.4", "--rate1", "1", "--rate2", "5"],
        lambda eb: eb.TwoStateHmm(0.2, 0.4, eb.PoissonEmission(1.0, 5.0)),
    ),
    "quantized-ma": (["--sigma", "1", "--theta", "1"], lambda eb: eb.QuantizedMaModel(1.0, 1.0)),
    "quantized-ar": (
        ["--sigma", "1", "--phi", "0.9", "--nu", "4"],
        lambda eb: eb.QuantizedArModel(1.0, 0.9, 4.0),
    ),
}
SIM_LENGTH_CLI = 100_000


class CliCold(Workload):
    """Every CLI command once per pass, each in a fresh interpreter.

    In the traced run the same commands go through ``cli.main`` in process
    instead, with the caches cleared before each pass.
    """

    name = "cli_cold"
    clears_caches = True
    tail_percentile = 50  # about 14 invocations per run: too few for a higher one

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        fig1 = [r for r in ctx.reference("fig1_reference.csv") if r["lambda"] <= 10.0 + 1e-9]
        self.refs = {"fig1": fig1}
        self.refs.update({t[0]: ctx.reference(t[3]) for t in FIGURE_TABLES})

    def items(self, p):
        ctx, rng = self.ctx, self.rng
        k = int(rng.integers(1, 5))
        r = random_covariance(rng, k)
        cov_file = ctx.tmp / f"cov{p}.txt"
        cov_file.write_text(",".join(repr(v) for v in r) + "\n")
        model = list(SIM_CLI_MODELS)[int(rng.integers(len(SIM_CLI_MODELS)))]
        sim_seed = int(rng.integers(2**31))
        out = {name: ctx.tmp / f"{name}.csv" for name in ("fig1", "fig2", "fig3", "fig4")}
        out.update(cov=ctx.tmp / "cov.csv", psd=ctx.tmp / "psd.csv", sim=ctx.tmp / "sim.csv")
        found: dict = {}

        def table(name, table_name, key_col):
            return Item(
                name,
                1,
                lambda: ctx.cli([name, "--out", str(out[name])]),
                lambda _, c: check_table(c, table_name, out[name], self.refs[table_name], key_col),
            )

        def read_cov(_, checks):
            rows = read_table(out["cov"])
            found["me"] = float(rows[0]["value"])
            found["t1"] = float(rows[1]["value"])
            found["tk"] = float(rows[2]["value"])

        def run_psd():
            try:
                ctx.cli(["bound-psd", "--input", str(cov_file), "--out", str(out["psd"])])
            except ItemFailed as exc:
                if exc.code != 3 or NONCONVERGENCE not in str(exc):
                    raise
                return NONCONVERGENCE
            return None

        def read_psd(outcome, checks):
            if outcome == NONCONVERGENCE:
                # both values come from one command, so both are missing
                found["psd"] = found["rate"] = None
            else:
                rows = {row["quantity"]: float(row["value"]) for row in read_table(out["psd"])}
                found["psd"] = rows["gaussian_psd_bound"]
                found["rate"] = rows["gaussian_entropy_rate"]
            if "tk" in found:
                check_bounds(checks, f"k{k}", r, found, printed=True)

        args, build = SIM_CLI_MODELS[model]
        sim_argv = ["simulate", "--model", model, *args, "-n", str(SIM_LENGTH_CLI)]
        sim_argv += ["--seed", str(sim_seed), "--out", str(out["sim"])]

        def check_sim(_, checks):
            lines = out["sim"].read_text().split()
            got = np.array(lines[1:], dtype=np.int64)
            want = ctx.eb.simulate(build(ctx.eb), SIM_LENGTH_CLI, sim_seed).values
            checks.expect(("simulate", model, sim_seed), np.array_equal(got, want), "path differs")

        return [
            table("fig1", "fig1", "lambda"),
            table("fig2", "fig2", "theta"),
            table("fig3", "fig3_sigma1", "theta"),
            table("fig4", "fig4", "phi"),
            Item("bound-cov", 1, lambda: ctx.cli(["bound-cov", "--input", str(cov_file), "--out", str(out["cov"])]), read_cov),
            Item("bound-psd", 1, run_psd, read_psd),
            Item("simulate", 1, lambda: ctx.cli(sim_argv), check_sim),
        ]


class CovBounds(Workload):
    """One random valid covariance sequence per item, orders 1..4 in turn."""

    name = "cov_bounds"
    tail_percentile = 95  # inside the order-4 items

    def items(self, p):
        return [self._item(k, random_covariance(self.rng, k)) for k in (1, 2, 3, 4)]

    def _item(self, k, r):
        eb = self.ctx.eb

        def run():
            cov = eb.CovarianceSequence(tuple(r))
            v = {
                "me": eb.univariate_me_bound(r[0]),
                "t1": eb.tdist_bound_1(r[0], r[1]).value,
                "tk": eb.tdist_bound_k(cov).value,
            }
            psd = eb.psd_from_finite_covariance(cov)
            v["psd"] = eb.gaussian_psd_bound(psd).value
            try:
                v["rate"] = eb.gaussian_entropy_rate(psd)
            except eb.ConvergenceError as exc:
                if NONCONVERGENCE not in str(exc):
                    raise
                v["rate"] = None
            v["toeplitz"] = eb.toeplitz_gaussian_bound_finite(cov, 512)
            return v

        return Item(f"k{k}", 1, run, lambda v, checks: check_bounds(checks, f"k{k}", r, v, printed=False))


def oracle_models(eb) -> dict:
    return {
        "poisson": eb.PoissonModel(2.5),
        "dma": eb.DmaModel((0.3, 0.3, 0.4), 2.0),
        "binomial-hmm": eb.TwoStateHmm(0.1, 0.3, eb.BinomialEmission(10, 0.2, 0.8)),
        "binomial-hmm-seq": eb.TwoStateHmm(0.7, 0.6, eb.BinomialEmission(10, 0.2, 0.8)),
        "poisson-hmm": eb.TwoStateHmm(0.2, 0.4, eb.PoissonEmission(1.0, 5.0)),
        "quantized-ma": eb.QuantizedMaModel(1.0, 1.0),
        "quantized-ar": eb.QuantizedArModel(1.0, 0.9, 4.0),
    }


def analytic_covariances(eb, name: str, model, lags: int) -> list[float]:
    if name == "poisson":
        return [model.rate] + [0.0] * (lags - 1)
    if name == "dma":
        return [eb.dma_covariance(model, k) for k in range(lags)]
    if name == "quantized-ma":
        return [eb.qma_r0(model), eb.qma_r1(model)] + [0.0] * (lags - 2)
    if name == "quantized-ar":
        return [eb.qar_r0(model)] + [eb.qar_rk(model, k) for k in range(1, lags)]
    return [eb.hmm_covariance(model, k) for k in range(lags)]


class Oracles(Workload):
    """Seeded Monte Carlo paths of every model family plus the estimators.

    Each analytic covariance is checked against the estimates pooled over
    the run's passes (independent paths), within 4 batch-means standard
    errors of the pooled mean.
    """

    name = "oracles"
    tail_percentile = 90  # inside the sequential-sampler items, one seventh
    LAGS = 4

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        eb = ctx.eb
        self.n = 10**5 if ctx.smoke else 10**6
        self.models = oracle_models(eb)
        self.analytic = {m: analytic_covariances(eb, m, model, self.LAGS) for m, model in self.models.items()}
        self.estimates = {m: [] for m in self.models}

    def items(self, p):
        return [self._item(m, model, int(self.rng.integers(2**31))) for m, model in self.models.items()]

    def _item(self, name, model, seed):
        eb = self.ctx.eb

        def run():
            path = eb.simulate(model, self.n, seed)
            covs = [eb.empirical_covariance(path, k) for k in range(self.LAGS)]
            eb.empirical_conditional_entropy(path)
            return covs

        def keep(covs, _checks):
            self.estimates[name].append([(c.value, c.std_error) for c in covs])

        return Item(name, 1, run, keep)

    def finish(self, checks):
        for name, runs in self.estimates.items():
            if not runs:
                continue
            est = np.array(runs)  # passes x lags x (value, std_error)
            mean = est[:, :, 0].mean(axis=0)
            se = np.sqrt((est[:, :, 1] ** 2).sum(axis=0)) / len(runs)
            for lag, analytic in enumerate(self.analytic[name]):
                z = abs(mean[lag] - analytic) / se[lag]
                checks.expect(
                    ("oracle", name, lag),
                    bool(z <= Z_LIMIT),
                    f"{name} lag {lag}: analytic {analytic:.6g} vs {mean[lag]:.6g} (z={z:.2f})",
                )


WORKLOADS = {w.name: w for w in (CliCold, Figures, CovBounds, Oracles)}
