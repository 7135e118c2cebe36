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


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(entrobound.__file__)))


def modules_after(code: str, cwd, package: str = "scipy") -> str:
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{_REPORT.format(package=package)}"],
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=cwd,
    )
    assert out.returncode == 0, out.stderr
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


def test_bound_psd_loads_no_fft(tmp_path):
    # a PSD is checked at its stationary points, not on an FFT grid
    (tmp_path / "cov.txt").write_text(_COVARIANCES["cov.txt"] + "\n")
    argv = ["bound-psd", "--input", "cov.txt"]
    assert "numpy.fft" not in modules_after(_MAIN.format(argv=argv), tmp_path, package="numpy").split(",")


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
    # __init__ resolves each exported name on first access from one name ->
    # module table: the table holds exactly the export list, and each name is
    # the object its home module defines
    import importlib

    exported = entrobound.__all__
    assert len(set(exported)) == len(exported) == 51
    assert set(entrobound._HOMES) == set(exported)
    for name, home in entrobound._HOMES.items():
        module = importlib.import_module(f"entrobound.{home}")
        assert getattr(entrobound, name) is getattr(module, name), name
        assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__, name
    assert set(exported) <= set(dir(entrobound))
    namespace: dict = {}
    exec("from entrobound import *", namespace)
    assert set(exported) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        entrobound.no_such_name


# fig1 and fig2 are closed forms in plain math: neither they nor the package
# import may load numpy, and each stays near the interpreter's own modules
MAX_MODULES = 130
_RUN_MODULE = (
    "import contextlib, io, runpy\n"
    "sys.argv = ['entrobound.cli', {command!r}]\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    try:\n"
    "        runpy.run_module('entrobound.cli', run_name='__main__')\n"
    "    except SystemExit as exc:\n"
    "        assert exc.code == 0, exc.code\n"
)


@pytest.mark.parametrize(
    "code",
    ["import entrobound"]
    + [_RUN_MODULE.format(command=c) for c in ("fig1", "fig2")]
    + [_MAIN.format(argv=[c]) for c in ("fig1", "fig2")],
    ids=["import", "-m fig1", "-m fig2", "main fig1", "main fig2"],
)
def test_closed_form_commands_load_no_numpy(code, tmp_path):
    bounded = f"{code}\nassert len(sys.modules) <= {MAX_MODULES}, len(sys.modules)"
    assert modules_after(bounded, tmp_path, package="numpy") == ""


# a meta-path finder in front of the others: any numpy import fails
_HIDE_NUMPY = """
import runpy, sys

class HideNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "numpy":
            raise ImportError(f"{name} is hidden")

sys.meta_path.insert(0, HideNumpy())
runpy.run_module("entrobound.cli", run_name="__main__", alter_sys=True)
"""


def _run_cli(prefix: list, command: str, cwd):
    return subprocess.run([sys.executable, *prefix, command], capture_output=True, env=_child_env(), cwd=cwd)


@pytest.mark.parametrize("command", ["fig1", "fig2"])
def test_closed_form_commands_run_without_numpy(command, tmp_path):
    hidden = _run_cli(["-c", _HIDE_NUMPY], command, tmp_path)
    plain = _run_cli(["-m", "entrobound.cli"], command, tmp_path)
    assert hidden.returncode == plain.returncode == 0, hidden.stderr
    assert hidden.stdout == plain.stdout and hidden.stderr == plain.stderr == b""


def test_hidden_numpy_stops_a_numpy_command(tmp_path):
    # the finder above takes effect: fig3 needs numpy and fails without it
    hidden = _run_cli(["-c", _HIDE_NUMPY], "fig3", tmp_path)
    assert hidden.returncode != 0 and b"numpy is hidden" in hidden.stderr


def test_submodules_resolve_after_a_bare_import(tmp_path):
    # the bench reads eb.processes right after import entrobound
    code = "import entrobound\nassert entrobound.processes.__name__ == 'entrobound.processes'"
    assert "entrobound.processes" in modules_after(code, tmp_path, package="entrobound").split(",")


def test_imports_sit_at_module_level_outside_cli_and_init():
    # cli and __init__ defer the numpy modules to where they are used; every
    # other module states its dependencies at its top
    import ast
    import pathlib

    for path in pathlib.Path(entrobound.__file__).parent.glob("*.py"):
        if path.name in ("cli.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not nested, (path.name, node.name)
