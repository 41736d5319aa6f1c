"""The installed package runs on numpy alone; scipy is a test-only extra."""

import os
import subprocess
import sys

import sphwave


def test_runtime_imports_no_scipy():
    # a fresh interpreter, so modules the test suite imported do not count
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphwave.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # the star import fails on a stale __all__ entry
    code = ("import sys, sphwave, sphwave.cli; from sphwave import *; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]", out.stdout
