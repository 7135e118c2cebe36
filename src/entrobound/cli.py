"""Command-line interface: figure tables and generic bound computations.

Exit codes: 0 success, 2 input validation error, 3 numerical non-convergence.
Grid points are computed one after another in grid order, so outputs are
deterministic and idempotent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import montecarlo, processes, spectrum
from .bounds import (
    gaussian_entropy_rate,
    gaussian_psd_bound,
    tdist_bound_1,
    tdist_bound_k,
    univariate_me_bound,
)
from .numerics import ConvergenceError, DomainError


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{x:.9g}"


MAX_GRID_POINTS = 10**5


def _grid(start: float, stop: float, step: float) -> list[float]:
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise DomainError(
            f"grid start, stop and step must be finite, got {start!r}, {stop!r}, {step!r}"
        )
    if not step > 0:
        raise DomainError(f"grid step must be positive, got {step!r}")
    steps = (stop - start) / step  # may overflow to +-inf
    if steps < -0.5:
        raise DomainError(f"empty grid: start {start!r} exceeds stop {stop!r}")
    if not steps < MAX_GRID_POINTS - 0.5:
        raise DomainError(f"grid would have more than {MAX_GRID_POINTS} points")
    return [float(f"{start + i * step:.12g}") for i in range(int(round(steps)) + 1)]


def _render_int_column(column: str, values: np.ndarray, fmt: str) -> str:
    # one str() per value: the same text as the row renderer below gives
    # for [[int(v)] for v in values], without a _fmt call or a dict per value
    text = map(str, values.tolist())
    if fmt == "csv":
        return column + "\n" + "\n".join(text) + "\n"
    key = json.dumps(column)
    return "[\n  {\n    %s: " % key + ("\n  },\n  {\n    %s: " % key).join(text) + "\n  }\n]\n"


def _write_table(out_path: str, columns: list[str], rows, fmt: str):
    """Write rows (a list of rows, or a 1-D integer array holding the one
    column) as CSV or JSON to out_path ('-' for stdout)."""
    if isinstance(rows, np.ndarray):
        text = _render_int_column(columns[0], rows, fmt)
    elif fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        records = []
        for row in rows:
            rec = {}
            for col, v in zip(columns, row):
                if isinstance(v, float):
                    rec[col] = float(_fmt(v)) if math.isfinite(v) else _fmt(v)
                else:
                    rec[col] = v
            records.append(rec)
        text = json.dumps(records, indent=2) + "\n"
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as f:
            f.write(text)


def _floats(tokens, source: str) -> tuple:
    """The tokens as floats; DomainError naming source on a malformed one."""
    try:
        return tuple(float(tok) for tok in tokens)
    except ValueError as exc:
        raise DomainError(f"malformed {source}: {exc}") from exc


def _read_covariance_file(path: str) -> spectrum.CovarianceSequence:
    source = f"covariance file {path}"
    try:
        with open(path) as f:
            lines = [line.split("#", 1)[0].strip() for line in f]
    except UnicodeDecodeError as exc:
        raise DomainError(f"malformed {source}: {exc}") from exc
    payload = [line for line in lines if line]
    if not payload:
        raise DomainError(f"no covariance values found in {path}")
    tokens = [tok for tok in ",".join(payload).split(",") if tok.strip()]
    return spectrum.CovarianceSequence(_floats(tokens, source))


# ---------------------------------------------------------------------------
# figure commands
# ---------------------------------------------------------------------------


def run_fig1(lambda_grid: list[float]) -> tuple[list[str], list[list]]:
    def row(lam: float) -> list:
        if lam == 0.0:  # degenerate limit: H = 0, bound at variance 0
            return [lam, 0.0, univariate_me_bound(0.0)]
        model = processes.PoissonModel(lam)
        return [lam, processes.poisson_entropy(model), processes.poisson_me_bound(model)]

    return ["lambda", "H_poisson", "ME_bound"], [row(lam) for lam in lambda_grid]


def run_fig2(sigma_list: list[float], theta_grid: list[float]):
    def row(theta: float) -> list:
        out = [theta]
        for sigma in sigma_list:
            out.append(processes.qma_k_ratio(processes.QuantizedMaModel(sigma, theta)))
        return out

    columns = ["theta"] + [f"K_sigma{_fmt(s)}" for s in sigma_list]
    return columns, [row(theta) for theta in theta_grid]


def run_fig3(sigma: float, theta_grid: list[float]):
    def row(theta: float) -> list:
        model = processes.QuantizedMaModel(sigma, theta)
        return [
            theta,
            processes.qma_conditional_entropy(model),
            processes.qma_th1_bound(model),
            processes.qma_th3_bound(model),
        ]

    return ["theta", "H_CE", "H_TH1", "H_TH3"], [row(theta) for theta in theta_grid]


def run_fig4(sigma: float, nu: float, phi_grid: list[float], k_list: list[int]):
    def row(phi: float) -> list:
        model = processes.QuantizedArModel(sigma, phi, nu)
        out = [phi, processes.qar_conditional_entropy(model)]
        for k in k_list:
            out.append(processes.qar_th2_bound(model, k).value)
        return out

    columns = ["phi", "H_CE_AR"] + [f"H_TH2_k{k}" for k in k_list]
    return columns, [row(phi) for phi in phi_grid]


def run_bound_cov(cov: spectrum.CovarianceSequence):
    columns = ["bound", "value", "argmin", "note"]
    r0 = cov.values[0]
    note = "" if cov.k else "no lags supplied; univariate bound only"
    rows = [["univariate_me", univariate_me_bound(r0), "", note]]
    if cov.k == 0:
        return columns, rows
    b1 = tdist_bound_1(r0, cov.values[1])
    rows.append(["tdist_order_1", b1.value, " ".join(_fmt(v) for v in b1.argmin), ""])
    bk = tdist_bound_k(cov)
    rows.append(
        [f"tdist_order_{cov.k}", bk.value, " ".join(_fmt(v) for v in bk.argmin), ""]
    )
    return columns, rows


def run_bound_psd(cov: spectrum.CovarianceSequence):
    psd = spectrum.psd_from_finite_covariance(cov)
    rate = gaussian_entropy_rate(psd)
    bound = gaussian_psd_bound(psd)
    note = "covariances beyond the last supplied lag are treated as zero"
    columns = ["quantity", "value", "note"]
    rows = [
        ["gaussian_psd_bound", bound.value, note],
        ["gaussian_entropy_rate", rate, ""],
    ]
    return columns, rows


_MODEL_BUILDERS = {
    "poisson": lambda a: processes.PoissonModel(a.rate),
    "dma": lambda a: processes.DmaModel(_floats(a.weights.split(","), "--weights"), a.variance),
    "binomial-hmm": lambda a: processes.TwoStateHmm(
        a.gamma1, a.gamma2, processes.BinomialEmission(a.trials, a.p1, a.p2)
    ),
    "poisson-hmm": lambda a: processes.TwoStateHmm(
        a.gamma1, a.gamma2, processes.PoissonEmission(a.rate1, a.rate2)
    ),
    "quantized-ma": lambda a: processes.QuantizedMaModel(a.sigma, a.theta),
    "quantized-ar": lambda a: processes.QuantizedArModel(a.sigma, a.phi, a.nu),
}


def run_simulate(args) -> tuple[list[str], np.ndarray]:
    model = _MODEL_BUILDERS[args.model](args)
    path = montecarlo.simulate(model, args.length, args.seed)
    return ["value"], path.values


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)  # built once per process; parse_args leaves it as it is
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrobound",
        description="Entropy-rate upper bounds from second-order statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("fig1", help="Poisson entropy vs its ME bound")
    p.add_argument("--lambda-min", type=float, default=0.0, dest="lambda_min")
    p.add_argument("--lambda-max", type=float, default=10.0, dest="lambda_max")
    p.add_argument("--lambda-step", type=float, default=0.1, dest="lambda_step")
    common(p)

    p = sub.add_parser("fig2", help="K ratio of the quantized MA process")
    p.add_argument("--sigma", type=float, action="append", default=None)
    p.add_argument("--theta-max", type=float, default=2.0)
    p.add_argument("--theta-step", type=float, default=0.01)
    common(p)

    p = sub.add_parser("fig3", help="quantized MA bound comparison")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--theta-max", type=float, default=2.0)
    p.add_argument("--theta-step", type=float, default=0.1)
    common(p)

    p = sub.add_parser("fig4", help="quantized-hidden AR bound comparison")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=4.0)
    p.add_argument("--phi-min", type=float, default=0.7)
    p.add_argument("--phi-max", type=float, default=0.98)
    p.add_argument("--phi-step", type=float, default=0.02)
    p.add_argument("--k", type=int, action="append", default=None)
    common(p)

    p = sub.add_parser("bound-cov", help="covariance-route bounds from a file")
    p.add_argument("--input", required=True, help="file with one line R0,R1,...,Rk")
    common(p)

    p = sub.add_parser("bound-psd", help="PSD-route bound from a covariance file")
    p.add_argument("--input", required=True, help="file with one line R0,R1,...,Rk")
    common(p)

    p = sub.add_parser("simulate", help="draw a seeded sample path")
    p.add_argument("--model", required=True, choices=sorted(_MODEL_BUILDERS))
    p.add_argument("--length", "-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--weights", default="1.0", help="comma-separated mixing weights")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--gamma1", type=float, default=0.1)
    p.add_argument("--gamma2", type=float, default=0.3)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--p1", type=float, default=0.2)
    p.add_argument("--p2", type=float, default=0.8)
    p.add_argument("--rate1", type=float, default=1.0)
    p.add_argument("--rate2", type=float, default=4.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--phi", type=float, default=0.9)
    p.add_argument("--nu", type=float, default=4.0)
    common(p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "fig1":
            grid = _grid(args.lambda_min, args.lambda_max, args.lambda_step)
            columns, rows = run_fig1(grid)
        elif args.command == "fig2":
            sigmas = args.sigma if args.sigma else [1.0, 5.0]
            columns, rows = run_fig2(sigmas, _grid(0.0, args.theta_max, args.theta_step))
        elif args.command == "fig3":
            grid = _grid(0.0, args.theta_max, args.theta_step)
            columns, rows = run_fig3(args.sigma, grid)
        elif args.command == "fig4":
            grid = _grid(args.phi_min, args.phi_max, args.phi_step)
            ks = args.k if args.k else [2, 3]
            columns, rows = run_fig4(args.sigma, args.nu, grid, ks)
        elif args.command == "bound-cov":
            columns, rows = run_bound_cov(_read_covariance_file(args.input))
        elif args.command == "bound-psd":
            columns, rows = run_bound_psd(_read_covariance_file(args.input))
        else:  # simulate: the subparsers are required, with fixed choices
            columns, rows = run_simulate(args)
        _write_table(args.out, columns, rows, args.format)
        return 0
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        last = ", ".join(str(float(v)) for v in exc.estimates) or "none"
        print(f"numerical non-convergence: {exc}; last estimates: {last}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
