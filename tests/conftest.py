"""Every warning raised by a test in this directory fails it.

A divide by zero, an invalid value or an unclosed file then fails the
suite instead of scrolling past.  The filter is applied per test here,
not in ``pyproject.toml``, so that it leaves the benchmark's own tests
under ``perfbench/tests`` as they are.
"""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
