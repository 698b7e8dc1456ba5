"""The package's public names: every exported name must resolve."""

import importlib

import pytest

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

