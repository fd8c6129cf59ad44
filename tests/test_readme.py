"""The README's interactive example runs as printed."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_is_a_passing_doctest():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 4
    assert result.failed == 0
