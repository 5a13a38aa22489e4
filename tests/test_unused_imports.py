"""No module-level import goes unused in ``src/`` or ``tests/``.

An import that nothing references is dead weight that outlives the code it
once served, and no CI step lints for it.  Every module is parsed, and each
name a top-level ``import`` or ``from ... import`` binds must be read
somewhere in the module, or listed in its ``__all__``.  ``from __future__``
imports bind no name and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by *source*'s module-level imports that it never reads."""
    tree = ast.parse(source)
    bound = {}  # name -> line of the import that binds it
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # __all__ = [...] re-exports its names
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_scan_finds_an_unused_import_and_passes_a_used_one():
    source = ("from __future__ import annotations\nimport os, sys\nimport a.b\n"
              "from x import y as z, w\n__all__ = ['w']\nprint(sys.argv, a.b)\n")
    assert unused_imports(source) == ["os (line 2)", "z (line 4)"]


def test_the_sources_are_found():
    assert ROOT / "src" / "loopsim" / "sim.py" in MODULES
    assert Path(__file__).resolve() in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
