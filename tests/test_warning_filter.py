from pathlib import Path

PROPERTY_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
"""


def test_failing_property_prints_its_example_under_the_suite_filter(pytester):
    # the suite's warnings-as-errors filter must not turn hypothesis's
    # failure report into an INTERNALERROR that hides the example and
    # stops the session
    pytester.makeconftest((Path(__file__).parent / "conftest.py").read_text())
    pytester.makepyfile(test_property=PROPERTY_TESTS)
    result = pytester.runpytest_subprocess()
    result.stdout.fnmatch_lines(["*Falsifying example*"])
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
