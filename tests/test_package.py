from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roitrack

PACKAGE_DIR = Path(roitrack.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__")


def test_every_module_is_found():
    assert MODULES == ["arenas", "cli", "controller", "geometry", "metrics", "protocol", "telemetry", "text",
                       "trials", "world"]


def test_text_is_the_bottom_of_the_import_graph():
    """``roitrack.text`` imports no ``roitrack`` module, so every other module may import it."""
    tree = ast.parse((PACKAGE_DIR / "text.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.startswith((".", "roitrack"))]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    """The package root imports no module, so each must import alone in a fresh
    interpreter: no import cycle that only a fixed order resolves, and with
    site-packages off (-S) nothing outside the standard library."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    done = subprocess.run([sys.executable, "-S", "-c", f"import roitrack.{module}"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
