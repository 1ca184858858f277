"""The README's library example runs as a doctest."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    # the example starts with `from charbound import *`, so this also
    # checks that the package exports every name it uses
    failures, tried = doctest.testfile(str(README), module_relative=False)
    assert tried >= 4
    assert failures == 0
