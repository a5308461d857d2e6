"""Every name a module lists in __all__ resolves on that module."""

import importlib

import pytest


@pytest.mark.parametrize(
    "name", ["heavenly", "heavenly.towers", "heavenly.factorization"])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
