"""Every name a module lists in ``__all__`` exists in that module."""
import importlib
import pkgutil

import pytest

import steinmpc

MODULES = sorted(m.name for m in pkgutil.iter_modules(steinmpc.__path__))


def test_every_module_is_covered():
    assert MODULES == ["cli", "configfile", "controllers", "costs", "dynamics", "harness",
                       "inference", "kernels", "reporting", "track"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"steinmpc.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"steinmpc.{name}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
