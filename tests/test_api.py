"""Each module's ``__all__`` lists exactly the public functions and classes
that the module defines, so a deleted name cannot linger in it; the
commands reach every public function; and the only private names one
module imports from another are ``lattice``'s shared helpers."""

import ast
import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import opsampler

MODULES = sorted(info.name for info in pkgutil.iter_modules(opsampler.__path__))
SRC = Path(opsampler.__file__).parent

# Public functions that no command calls.  None is left: reading an
# exported CSV back and reshaping an L x L grid to fibers, which the
# builders never need since they write fibers directly, are the tests'
# (``oracles.read_phase_grid`` and ``oracles.fibers``).
NOT_REACHED_BY_THE_COMMANDS = set()


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
    # the roundtrip applies the left inverse to the samples' series A c_hat
    # and reads the error off the Riesz Gram: no element, sample or
    # reconstructor is formed, and the fiber route and the explicit H_m
    # are the tests' reference, not the package's
    import oracles

    fiber_route = ("synthesize_element", "average_samples", "reconstruct", "relative_error",
                   "build_reconstructor_multi")
    for name in fiber_route:
        assert callable(getattr(oracles, name))
        assert [mod for mod in MODULES if hasattr(importlib.import_module(f"opsampler.{mod}"), name)] == []


def test_the_commands_reach_every_public_function(tmp_path, capsys):
    # analyze, roundtrip and export of one seeded design whose generator is
    # whitened and whose averager is a random rank-one pair, plus a seedless
    # analyze (the only path to the config's seed check), run every public
    # function of every module but those listed above
    from opsampler import cli

    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps({
        "L": 15, "lattice": {"a": 3, "b": 3}, "seed": 7, "c_matrix": "random",
        "generators": [{"kind": "whitened", "inner": {"kind": "random_hs"}}],
        "averagers": [{"kind": "random_signal_pair"}]}))
    seedless = tmp_path / "seedless.json"
    seedless.write_text(json.dumps({
        "L": 15, "lattice": {"a": 3, "b": 3}, "generators": [{"kind": "boxcar", "width": 3}]}))
    calls = [["analyze", "--config", str(seeded)],
             ["roundtrip", "--config", str(seeded)],
             ["export", "--config", str(seeded), "--out", str(tmp_path / "export")],
             ["analyze", "--config", str(seedless)]]
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in calls]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    public = {}
    for name in MODULES:
        mod = importlib.import_module(f"opsampler.{name}")
        public.update({f"{name}.{key}": getattr(mod, key) for key in mod.__all__
                       if inspect.isfunction(getattr(mod, key))})
    assert NOT_REACHED_BY_THE_COMMANDS <= set(public)
    missed = {key for key, fn in public.items() if fn.__code__ not in reached}
    assert missed == NOT_REACHED_BY_THE_COMMANDS


def _private_imports(name):
    """(source module, name) of each underscore name that module ``name``
    imports from another module of the package."""
    tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 0 and not node.module.startswith("opsampler."):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                yield node.module.rsplit(".", 1)[-1], alias.name


def test_only_lattices_shared_helpers_cross_module_boundaries():
    # the per-dual-point algebra the modules share lives in lattice, whose
    # docstring names each shared helper; no other private name crosses a
    # module boundary, and the coset product is written once
    from opsampler import lattice

    imports = {(name, source, key) for name in MODULES for source, key in _private_imports(name)}
    assert sorted(i for i in imports if i[1] != "lattice") == []
    shared = {key for _, _, key in imports}
    assert [key for key in sorted(shared) if not hasattr(lattice, key)] == []
    assert [key for key in sorted(shared) if f"``{key}``" not in lattice.__doc__] == []
    assert {name for name, _, key in imports if key == "_coset_gram"} == {"frames"}
