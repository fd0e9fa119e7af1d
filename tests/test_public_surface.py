"""The package's public surface is written down, and ``src/`` holds nothing beyond it.

``folsub.__all__`` is a literal list in ``__init__.py``, equal, name for name
and in order, to the "Python API" section of README.  Every public
module-level ``def`` or ``class`` under ``src/folsub``, and every public
method of a public class there, is either in ``__all__`` (a method: never)
or named by the program, ``src/``, ``scripts/`` and ``perfbench/``:

- a bare name counts in its defining module, and in a module that imports
  that name from it;
- an attribute ``x.f`` counts unless ``x`` is a stdlib or third-party module
  (``np``, ``math``, ``np.linalg``, ...);
- the words of a string count only in ``perfbench/tracing.py``, which
  patches functions and methods by name.

Comments and docstrings do not count.  So a function that only the tests
call cannot stay in ``src/``: it belongs in ``tests/helpers.py``.
"""

import ast
import re
import types
from pathlib import Path

import folsub

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "folsub"
PROGRAM = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
TRACING = ROOT / "perfbench" / "tracing.py"
# The top-level modules of the program: an import from any other is a stdlib or third-party module.
OWN_MODULES = {"folsub"} | {path.stem for path in PROGRAM if path.parent != PACKAGE}


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


class _Uses:
    """What one program file names: its bare names, the names it imports from folsub modules, its attributes and strings."""

    def __init__(self, path: Path, tree: ast.Module):
        self.module = path.stem if path.parent == PACKAGE else None
        self.imported = {}  # local name -> (folsub module, name there)
        external = set()  # local names bound to stdlib or third-party modules
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] not in OWN_MODULES:
                        external.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level == 0 and source.split(".")[0] not in OWN_MODULES:
                    external.update(alias.asname or alias.name for alias in node.names)
                elif node.level and self.module or source.startswith("folsub."):
                    for alias in node.names:
                        self.imported[alias.asname or alias.name] = (source.split(".")[-1], alias.name)
        self.names = {}  # bare name -> the nodes that use it
        self.attributes = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                self.names.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and not _is_module(node.value, external):
                self.attributes.add(node.attr)
        docstrings = _docstrings(tree)
        self.strings = set()
        if path == TRACING:
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                    self.strings.update(re.findall(r"\w+", node.value))

    def names_bare(self, module: str, name: str, outside: ast.AST) -> bool:
        """This file names ``module.name`` by a bare name, other than inside the definition ``outside``."""
        if self.module == module:
            inner = {id(n) for n in ast.walk(outside)}
            return any(id(node) not in inner for node in self.names.get(name, ()))
        return any(source == (module, name) and local in self.names for local, source in self.imported.items())


def _is_module(node, external: set) -> bool:
    """``node`` is a stdlib or third-party module: a name bound to one, or an attribute chain from one."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in external


def _orphans() -> list[str]:
    """The public definitions and public methods of public classes in ``src/folsub`` that nothing in the program names."""
    # __init__.py only re-exports, so what it imports is not a caller.
    trees = {path: ast.parse(path.read_text()) for path in PROGRAM if path.name != "__init__.py"}
    uses = [_Uses(path, tree) for path, tree in trees.items()]
    attributes = set().union(*(u.attributes for u in uses))
    strings = set().union(*(u.strings for u in uses))
    exported = set(folsub.__all__)
    orphans = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            named = any(u.names_bare(path.stem, node.name, node) for u in uses)
            if node.name not in exported | attributes | strings and not named:
                orphans.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    public = isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
                    if public and method.name not in attributes | strings:
                        orphans.append(f"{path.stem}.{node.name}.{method.name}")
    return orphans


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
    orphans = _orphans()
    assert not orphans, f"public definitions that only the tests reach: {orphans}"


def test_the_caller_rule_finds_a_definition_that_only_the_export_list_keeps(monkeypatch):
    # quadrature.refined is public API that nothing in the program calls
    monkeypatch.setattr(folsub, "__all__", [])
    assert "quadrature.refined" in _orphans()
