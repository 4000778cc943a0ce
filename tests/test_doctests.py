"""The examples in the package's docstrings run as tests."""
import doctest
import importlib
import pkgutil

import pytest

import permlab

MODULES = ["permlab"] + sorted(
    m.name for m in pkgutil.iter_modules(permlab.__path__, "permlab.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0
