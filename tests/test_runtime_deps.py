"""The installed package runs on numpy alone; scipy is a test-only extra,
and a coefficient read stays clear of numpy's lazy numpy.ma."""

import os
import subprocess
import sys

import numpy as np

import sphwave
from sphwave.fileio import write_coefficients
from sphwave.profiles import WaveletSpec
from sphwave.so3 import make_scale_sequence, make_so3_grid
from sphwave.sphfn import CoefficientTable, default_grid_spec, synthesize_signal
from sphwave.transform import forward_transform, uniform_specs


def _env():
    # a fresh interpreter, so modules the test suite imported do not count
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphwave.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_runtime_imports_no_scipy():
    # the star import fails on a stale __all__ entry
    code = ("import sys, sphwave, sphwave.cli; from sphwave import *; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=_env())
    assert out.stdout.strip() == "[]", out.stdout


def test_read_coefficients_imports_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on first use, 11-15 ms of a cold
    # reconstruct; modules imported before the read (numpy 1.x imports
    # numpy.ma with numpy) do not count.  The second file's tau map splits
    # bands, so its solve builds S from the stacked rows
    scales = make_scale_sequence(1.0, 0.5, 1)
    grid = make_so3_grid(0.8, 0.8)
    f = synthesize_signal(CoefficientTable(4, np.arange(25.0) + 1j),
                          default_grid_spec(4))
    split = np.where(np.cos(grid.cells.phi) > 0.0, 1.0, 2.0)
    paths = [tmp_path / "w.bin", tmp_path / "a.bin"]
    for path, specs in zip(paths, (
            uniform_specs("omega", 2.0, scales),
            [tuple(WaveletSpec("omega", rho, t) for t in split)
             for rho in scales])):
        write_coefficients(path, forward_transform(f, specs, grid, scales))
    code = ("import sys; from sphwave.fileio import read_coefficients; "
            "from sphwave.transform import FrameOperatorConfig, reconstruct; "
            "before = set(sys.modules); read_coefficients(sys.argv[1]); "
            "reconstruct(read_coefficients(sys.argv[2]), "
            "FrameOperatorConfig(strict=False)); "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m == 'numpy.ma' or m.startswith('numpy.ma.')))")
    out = subprocess.run([sys.executable, "-c", code, *map(str, paths)],
                         capture_output=True, text=True, check=True,
                         env=_env())
    assert out.stdout.strip() == "[]", out.stdout
