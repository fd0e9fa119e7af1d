"""The package's public surface is written down, and ``src/`` holds nothing beyond it.

``folsub.__all__`` is a literal list in ``__init__.py``, equal, name for name
and in order, to the "Python API" section of README.  Every public
module-level ``def`` or ``class`` under ``src/folsub`` is either in
``__all__`` or named by the program: by another definition in ``src/``, by
``scripts/`` or by ``perfbench/`` (whose tracer patches functions by their
names as strings).  A name counts as named where it occurs in the code as an
identifier, an attribute, an imported name or a word of a string constant
that is not a docstring; comments and docstrings do not count.  So a
function that only the tests call cannot stay in ``src/``: it belongs in
``tests/helpers.py``.
"""

import ast
import re
import types
from pathlib import Path

import folsub

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "folsub"
PROGRAM = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]


def _all_node():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    found = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    assert len(found) == 1, "__init__.py assigns __all__ once"
    return found[0]


def _readme_api() -> list[str]:
    """The names of README's "Python API" section, one per list item, in order."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Python API\n(.*?)(?=^## )", text, re.S | re.M)
    assert section, 'README has a "## Python API" section'
    return re.findall(r"^- `(\w+)`", section.group(1), re.M)


def _docstrings(tree) -> set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def _words(nodes, docstrings) -> set[str]:
    """Every name the code of ``nodes`` uses: identifiers, attributes, imports and the words of its strings."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                out.update(re.findall(r"\w+", node.value))
    return out


def test_all_is_a_literal_list_of_the_package_names():
    node = _all_node()
    assert isinstance(node, ast.List)
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts)
    names = [e.value for e in node.elts]
    assert folsub.__all__ == names
    assert len(set(names)) == len(names)
    for name in names:
        assert not isinstance(getattr(folsub, name), types.ModuleType), name


def test_all_equals_the_python_api_section_of_readme():
    assert _readme_api() == folsub.__all__


def test_every_public_definition_in_src_has_a_caller_or_is_exported():
    # __init__.py only re-exports, so what it imports is not a caller.
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM if path.name != "__init__.py"}
    docstrings = set().union(*(_docstrings(tree) for tree in trees.values()))
    words = {path: _words([tree], docstrings) for path, tree in trees.items()}
    exported = set(folsub.__all__)
    orphans = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        others = set().union(*(w for p, w in words.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in exported | others | _words([n for n in tree.body if n is not node], docstrings):
                orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert not orphans, f"public definitions that only the tests reach: {orphans}"
