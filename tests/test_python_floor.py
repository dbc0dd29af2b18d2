"""Every Python file parses under the oldest Python that pyproject.toml allows.

A newer interpreter accepts syntax the floor does not, such as ``except*``,
``type X = ...`` and PEP 695 generics, so each file under src/, tests/, bench/
and demos/ is parsed with ast.parse's feature_version set to the floor read
from requires-python.  This checks the grammar only: it cannot see a
standard-library API newer than the floor, which only a run on the floor
interpreter finds.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def python_floor() -> tuple[int, int]:
    # a regular expression, not tomllib: tomllib is new in Python 3.11
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE)
    assert found, "pyproject.toml names no requires-python floor"
    return int(found[1]), int(found[2])


def test_the_floor_is_python_3_10():
    assert python_floor() == (3, 10)


def test_the_floor_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* E:\n    pass\n", feature_version=python_floor())


def test_every_python_file_parses_under_the_floor():
    floor = python_floor()
    tops = ("src", "tests", "bench", "demos")
    paths = sorted(path for top in tops for path in (ROOT / top).rglob("*.py"))
    assert len(paths) >= 33
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=floor)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}: {exc}")
    assert not failures, "\n".join(failures)
