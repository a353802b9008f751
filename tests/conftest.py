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
