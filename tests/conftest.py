"""Every warning raised by a test in this directory fails it.

A divide by zero, an invalid value or an unclosed file then fails the
suite instead of scrolling past.  The filter is applied per test here,
not in ``pyproject.toml``, so that it leaves the benchmark's own tests
under ``perfbench/tests`` as they are.

One third-party warning is exempt, by message and category: hypothesis's
report hook touches the deprecated ``mypy_extensions.TypedDict`` when a
property fails, and as an error that warning ends the session before the
falsifying example is printed.
"""

import tracemalloc
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

_HERE = Path(__file__).parent

# Marks applied later take precedence, so the exemption follows "error".
WARNING_FILTERS = (
    "error",
    r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning",
)


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            for spec in WARNING_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)`` returns ``fn(*args)`` and the bytes its
    traced allocations peaked at above what was allocated before the call."""
    def measure(fn, *args):
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
    return measure
