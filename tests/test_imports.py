import os
import subprocess
import sys

import entrobound


def test_import_loads_no_heavy_scipy_modules():
    # scipy.signal and scipy.linalg load on first use; optimize and stats never
    heavy = ("scipy.optimize", "scipy.signal", "scipy.stats", "scipy.linalg")
    code = f"import sys, entrobound; print(','.join(m for m in {heavy!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(entrobound.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == ""
