"""The engine's safety checks must not depend on ``assert``.

``python -O`` strips every assert statement, so a check written as one stops
checking without a word.  Every module under ``src/loopsim`` is parsed and
must hold none; a check raises an exception of its own instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "loopsim"
MODULES = sorted(SRC.rglob("*.py"))


def test_the_package_sources_are_found():
    assert SRC / "sim.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_no_assert_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.relative_to(SRC)}: assert statement on lines {lines}"
