"""The package's public names and import cost."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import airfl

MODULES = [
    "airfl",
    "airfl.aircomp",
    "airfl.channel",
    "airfl.checks",
    "airfl.cli",
    "airfl.flsim",
    "airfl.linalg",
    "airfl.pam",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_import_loads_no_optional_modules():
    # ``import airfl`` loads what every command needs and no more: the Monte
    # Carlo helper thread's executor is imported where it runs, and scipy and
    # hypothesis serve only the tests.
    src = str(Path(airfl.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, airfl; print(' '.join(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = run.stdout.split()
    assert "airfl.cli" in loaded
    unwanted = [n for n in loaded if n == "concurrent.futures" or n.split(".")[0] in ("scipy", "hypothesis")]
    assert not unwanted, sorted(unwanted)
