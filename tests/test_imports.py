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


def _bindings(tree):
    """(name, statement) for each name, public or private, a top-level def,
    class or assignment binds."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target.id]
        else:
            continue
        yield from ((name, stmt) for name in targets)


def _loads(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unreferenced(sources):
    """'module.name' for each module-level name, public or private, of the
    package sources (module -> source) that no other module imports or
    reads as module.name, and that its own module reads nowhere outside the
    statement defining it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reached = set()  # (module, name)
    for tree in trees.values():
        aliases = {}  # local name -> package module it binds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (None, "metalink"):
                aliases |= {alias.asname or alias.name: alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                module = node.module.removeprefix("metalink.")
                reached |= {(module, alias.name) for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                reached.add((aliases[node.value.id], node.attr))
    found = []
    for module, tree in trees.items():
        for name, stmt in _bindings(tree):
            read_at_home = any(name in _loads(other) for other in tree.body if other is not stmt)
            if not read_at_home and (module, name) not in reached:
                found.append(f"{module}.{name}")
    return sorted(found)


# Module-level names that nothing in the package reaches, each kept for a
# reader outside it.
_REACHED_FROM_OUTSIDE = {
    "channel.apply_channel_block": "perfbench wraps it; it leaves with ROADMAP items 2 and 7",
    "harness.read_curve": "README-documented API that criterion 9 uses",
    "harness.write_config": "README-documented API that criterion 9 uses",
}


def test_the_check_finds_unreferenced_names():
    sources = {
        "a": "def used():\n    return _scale(1)\n\ndef _scale(x):\n    return x\n\ndef _unread():\n    return 1\n\n"
             "def unread():\n    return unread()\n\nLIMIT = 3\n",
        "b": "from .a import used\nfrom . import c\nX = c.Y\nprint(X)\n",
        "c": "Y = 1\nZ = 2\n\ndef main():\n    return Z\n\nif __name__ == '__main__':\n    main()\n",
    }
    assert _unreferenced(sources) == ["a.LIMIT", "a._unread", "a.unread"]


def test_every_public_name_in_the_package_is_reached():
    sources = {path.stem: path.read_text() for path in _PACKAGE.glob("*.py")}
    assert _unreferenced(sources) == sorted(_REACHED_FROM_OUTSIDE)
