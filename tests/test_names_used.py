"""Every name a ``subcurv`` module imports is used, and every private
module-level name is read somewhere in the package: a helper whose last
caller went away, or an import left behind by an edit, fails here."""

import ast
import pathlib

import pytest

import subcurv

TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted(pathlib.Path(subcurv.__file__).parent.glob("*.py"))
}


def _read(tree) -> set:
    """The names ``tree`` reads: loaded identifiers, attribute names and ``__all__``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            out.update(ast.literal_eval(node.value))
    return out


def _imported(tree) -> list:
    return [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]


def _private_definitions(tree) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


# the package's __init__ only re-exports
@pytest.mark.parametrize("module", [m for m in TREES if m != "__init__"])
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _read(tree)
    assert [name for name in _imported(tree) if name not in used] == []


@pytest.mark.parametrize("module", list(TREES))
def test_every_private_module_name_is_read(module):
    read = set().union(*map(_read, TREES.values()))
    assert [name for name in _private_definitions(TREES[module]) if name not in read] == []


def test_an_unused_import_and_an_unread_helper_are_found():
    tree = ast.parse("import os\nfrom . import ca\n\n\ndef _helper():\n    return ca.ONE\n")
    assert [n for n in _imported(tree) if n not in _read(tree)] == ["os"]
    assert [n for n in _private_definitions(tree) if n not in _read(tree)] == ["_helper"]
