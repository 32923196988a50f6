"""monosing runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import monosing

from conftest import ROOT


def test_every_module_imports_only_the_standard_library():
    src = str(Path(monosing.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "stdlib_only.py")],
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stdout + run.stderr
