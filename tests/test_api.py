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



@pytest.mark.parametrize("name", MODULES)
def test_no_module_carries_the_operator_calculus(name):
    # the operator calculus is the test suite's oracle: no stage forms an
    # operator kernel, so no module defines or imports any of its names
    import oracles

    mod = importlib.import_module(f"opsampler.{name}")
    calculus = {key for key, obj in vars(oracles).items()
                if _is_routine(obj) and obj.__module__ == oracles.__name__}
    assert sorted(calculus & set(vars(mod))) == []
    assert not any(hasattr(mod.__dict__.get("Lattice"), key) for key in ("points", "index_of"))


def test_runner_reconstructs_through_the_coefficients():
    # the roundtrip applies the left inverse to the samples' series and
    # synthesizes from the generators: the reconstructors are never formed,
    # and their explicit form is the tests' reference, not the package's
    import oracles
    from opsampler import runner, sampling

    assert "reconstruct" in sampling.__all__ and "build_reconstructor_multi" not in sampling.__all__
    assert runner.reconstruct is sampling.reconstruct
    assert not hasattr(runner, "build_reconstructor_multi")
    assert callable(oracles.build_reconstructor_multi)
