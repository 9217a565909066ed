"""Every module-level import of a package module is used: referenced by name
in the module, or re-exported through its ``__all__``.  Every private
module-level function and class is referenced somewhere in the package
outside its own body, so a helper that a change orphans cannot linger."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cpdkernels"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used | exported)


def test_the_check_sees_an_unused_import():
    source = "from os import path, sep\nimport numpy as np\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["np", "path"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def unreferenced_privates(sources: list[str]) -> list[str]:
    """Private module-level functions and classes of ``sources`` that no
    name or attribute in them refers to, outside the definition itself."""
    trees = [ast.parse(source) for source in sources]
    found = []
    for tree in trees:
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            own = {id(n) for n in ast.walk(node)}
            if not any((isinstance(n, ast.Name) and n.id == node.name
                        or isinstance(n, ast.Attribute) and n.attr == node.name)
                       and id(n) not in own for t in trees for n in ast.walk(t)):
                found.append(node.name)
    return sorted(found)


def test_the_check_sees_an_unreferenced_private():
    used = "def _used():\n    pass\n\n\nclass _Base:\n    pass\n"
    other = ("from m import _used\n\n\ndef _recursive():\n    return _recursive()\n\n\n"
             "class _Orphan(object):\n    pass\n\n\nx = _used() or m._Base\n")
    assert unreferenced_privates([used, other]) == ["_Orphan", "_recursive"]


def test_every_private_function_and_class_is_referenced():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_privates(sources) == []
