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
    # scipy is a test dependency only: no scipy module ever loads
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


@pytest.mark.parametrize(
    "argv", [["fig3"], ["fig3", "--sigma", "5"], ["fig4"]], ids=lambda argv: " ".join(argv)
)
def test_gaussian_cell_commands_load_no_scipy_module(argv, tmp_path):
    # the check above can see scipy: fig3 and fig4 evaluate erfc on Gaussian
    # cells, with the C library's erfc (math.erfc)
    assert modules_after(_MAIN.format(argv=argv), tmp_path) == ""


@pytest.mark.parametrize(
    "call",
    [
        "eb.qma_conditional_entropy(eb.QuantizedMaModel(1.0, 0.5))",
        "eb.qar_conditional_entropy(eb.QuantizedArModel(1.0, 0.9, 0.0))",
    ],
    ids=["qma", "qar"],
)
def test_conditional_entropies_load_no_scipy_module(call, tmp_path):
    assert modules_after(f"import entrobound as eb\n{call}", tmp_path) == ""


def test_no_module_imports_scipy():
    import ast
    import pathlib

    for path in pathlib.Path(entrobound.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), (path.name, node.lineno)


def test_bounds_imports_no_quadrature():
    # every spectral density the bounds take has a closed-form log integral
    import ast
    import pathlib

    from entrobound import bounds

    for node in ast.walk(ast.parse(pathlib.Path(bounds.__file__).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
            assert not any(name.startswith("integrate_periodic") for name in names), node.lineno


def test_finite_toeplitz_bound_loads_no_scipy_module(tmp_path):
    # the bound's log-determinant comes from the reflection-coefficient recursion
    code = "import entrobound as eb\neb.toeplitz_gaussian_bound_finite(eb.CovarianceSequence((1.0, 0.5)), 8)"
    assert modules_after(code, tmp_path) == ""


def test_runtime_dependencies_are_numpy_only():
    import pathlib
    import re

    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    assert [re.split(r"[\s<>=!~;\[]", dep)[0] for dep in dependencies] == ["numpy"]


def test_export_list_matches_the_imports():
    # every exported name resolves and appears once, and every public name
    # that __init__ imports is exported, so a deleted function leaves no stale name
    import ast
    import pathlib

    exported = entrobound.__all__
    assert len(set(exported)) == len(exported)
    assert all(hasattr(entrobound, name) for name in exported)
    imported = {
        alias.asname or alias.name
        for node in ast.parse(pathlib.Path(entrobound.__file__).read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for name in imported if not name.startswith("_")} <= set(exported)
