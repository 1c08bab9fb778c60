from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import roitrack

PACKAGE_DIR = Path(roitrack.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__")


def test_every_module_is_found():
    assert len(MODULES) == 9


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    """The package root imports no module, so each must import alone in a fresh
    interpreter: no import cycle that only a fixed order resolves, and with
    site-packages off (-S) nothing outside the standard library."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run([sys.executable, "-S", "-c", f"import roitrack.{module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
