"""Import-time dependency guard for the ``repro`` package.

``setup.py`` declares no dependencies, so importing the library must not
pull in a third-party package that an installed copy could lack.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import importlib, pkgutil, sys
import repro
modules = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in ["repro"] + modules:
    importlib.import_module(name)
    if "numpy" in sys.modules:
        sys.exit(f"importing {name} pulled in numpy")
"""


def test_importing_every_module_leaves_numpy_unloaded():
    """Regression: ``repro.codegen`` imported numpy, which ``setup.py``
    never declared, so a fresh interpreter loaded it on ``import repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
