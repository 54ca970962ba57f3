"""Source hygiene: every name a package module imports is used there, and
the learners take no model from nn."""

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


def _names_from(source, module):
    """Names the source imports from the package module; '*' for the module itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"metalink.{module}"):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "metalink"):
            names |= {"*" for alias in node.names if alias.name == module}
        elif isinstance(node, ast.Import):
            names |= {"*" for alias in node.names if alias.name == f"metalink.{module}"}
    return names


def test_learners_take_only_param_vector_from_nn():
    # every learner takes its loss from the caller, so none builds a model
    assert _names_from("from .nn import ParamVector, make_mlp_lossfn\n", "nn") == {"ParamVector", "make_mlp_lossfn"}
    assert _names_from("from . import graph, nn\nimport metalink.nn\n", "nn") == {"*"}
    assert _names_from((_PACKAGE / "learners.py").read_text(), "nn") <= {"ParamVector"}
