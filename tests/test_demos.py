"""Every script in demos/ runs to completion against the package in src/."""

import os
import pathlib
import subprocess
import sys

import pytest

import entrobound

DEMOS = sorted(pathlib.Path(__file__).resolve().parents[1].joinpath("demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(entrobound.__file__)))
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
