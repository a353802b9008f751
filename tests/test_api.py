"""Each module's ``__all__`` lists exactly the public functions and classes
that the module defines, so a deleted name cannot linger in it."""

import importlib
import inspect
import pkgutil

import pytest

import opsampler

MODULES = sorted(info.name for info in pkgutil.iter_modules(opsampler.__path__))


def _is_routine(obj) -> bool:
    return inspect.isfunction(obj) or inspect.isclass(obj)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    mod = importlib.import_module(f"opsampler.{name}")
    exported = mod.__all__
    assert len(set(exported)) == len(exported), "duplicate names"
    missing = [key for key in exported if not hasattr(mod, key)]
    assert not missing, f"listed but not defined: {missing}"
    defined = {key for key, obj in vars(mod).items()
               if not key.startswith("_") and _is_routine(obj) and obj.__module__ == mod.__name__}
    assert {key for key in exported if _is_routine(getattr(mod, key))} == defined
