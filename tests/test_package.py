from __future__ import annotations

import ast
from pathlib import Path

import pytest

import roitrack
from conftest import run_python

PACKAGE_DIR = Path(roitrack.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__")


def test_every_module_is_found():
    assert MODULES == ["arenas", "cli", "controller", "geometry", "metrics", "protocol", "replay", "telemetry",
                       "text", "trials", "world"]


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
    site-packages off (-S) nothing outside the standard library.  Only the
    command parses arguments, so no other module loads ``argparse``."""
    done = run_python("-S", "-c", f"import sys, roitrack.{module}; print('argparse' in sys.modules)")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{module == 'cli'}\n"


@pytest.mark.parametrize("module", ["metrics", "telemetry"])
def test_the_metrics_and_the_csv_codec_load_no_simulator(module):
    """``report`` reads telemetry and summarizes it: ``metrics`` names
    ``TrialRecord`` in annotations only, so neither loads the simulator."""
    done = run_python("-S", "-c", f"import sys, roitrack.{module}; print(*sorted(sys.modules))")
    assert (done.returncode, done.stderr) == (0, "")
    loaded = set(done.stdout.split())
    assert f"roitrack.{module}" in loaded and not loaded & {"roitrack.trials", "roitrack.arenas", "roitrack.world"}
