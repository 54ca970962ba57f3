"""Source hygiene: every name a package module imports is used there."""

import ast
import pathlib

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "metalink"


def _unused_imports(source):
    """Imported names that no expression reads and __all__ does not export."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_check_finds_unused_imports():
    source = "import os.path\nimport sys as system\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: int\n"
    assert _unused_imports(source) == ["field (line 3)", "os (line 1)", "system (line 2)"]
    assert _unused_imports("from . import graph\n__all__ = ['graph']\n") == []


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_package_modules_import_only_what_they_use(path):
    assert _unused_imports(path.read_text()) == []
