import os
import subprocess
import sys

import pytest

import entrobound

# Run in a fresh interpreter: print the modules of a package loaded after the code.
_REPORT = "print(','.join(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
_MAIN = (
    "import io, sys, contextlib\n"
    "from entrobound import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert cli.main({argv!r}) == 0\n"
)
_SIMULATE_MODELS = ("binomial-hmm", "dma", "poisson", "poisson-hmm", "quantized-ar", "quantized-ma")


def modules_after(code: str, cwd, package: str = "scipy") -> str:
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(entrobound.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{_REPORT.format(package=package)}"],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=cwd,
    )
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["entrobound", "entrobound.cli"])
def test_import_loads_no_scipy_module(module, tmp_path):
    # scipy.special, scipy.linalg load on first use; signal, optimize, stats never
    assert modules_after(f"import {module}", tmp_path) == ""


def test_cli_import_loads_no_thread_pool(tmp_path):
    # figure grids run row by row in the calling thread
    assert modules_after("import entrobound.cli", tmp_path, package="concurrent") == ""


# covariance files for bound-cov and bound-psd: a generic sequence, a PSD with
# a double zero at pi, and one whose PSD's minimum is 3.0e-11
_COVARIANCES = {
    "cov.txt": "1.0,0.5,0.2,-0.1",
    "touching.txt": "2.0,1.0",
    "defect_c.txt": "0.8671189766904396,0.42217425418268545,0.20994707107442728,-0.11749767076109953",
}


@pytest.mark.parametrize(
    "argv",
    [["fig1"], ["fig2"], ["bound-cov", "--input", "cov.txt"]]
    + [["bound-psd", "--input", name] for name in _COVARIANCES]
    + [["simulate", "--model", m, "-n", "1000"] for m in _SIMULATE_MODELS],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_commands_without_gaussian_cells_load_no_scipy_module(argv, tmp_path):
    for name, values in _COVARIANCES.items():
        (tmp_path / name).write_text(values + "\n")
    assert modules_after(_MAIN.format(argv=argv), tmp_path) == ""


def test_gaussian_cell_commands_load_scipy_special_on_first_use(tmp_path):
    # the check above can see scipy: fig3's conditional entropy evaluates
    # erfc on Gaussian cells, so scipy.special loads (fig2's moments are
    # Fourier sums and need none)
    loaded = modules_after(_MAIN.format(argv=["fig3", "--theta-max", "0.2"]), tmp_path)
    assert "scipy.special" in loaded.split(",")
