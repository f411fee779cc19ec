"""Every name a module imports is used in it, every top-level function or
class of the package is exported or read somewhere, and every method and
class attribute of a package class is read outside the tests.

The package's ``__init__`` is left out of the first check: it imports names to
re-export them.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "iacompat").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "scripts").glob("*.py"))
READERS = sorted(p for d in ("src", "scripts", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
PROGRAM = [p for p in READERS if "tests" not in p.relative_to(ROOT).parts]  # perfbench/tests too


def unused_imports(source: str) -> list[str]:
    """The names bound by an import that the module never reads, in import order."""
    tree = ast.parse(source)
    imported: dict[str, None] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(dict.fromkeys((a.asname or a.name).split(".")[0] for a in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(dict.fromkeys(a.asname or a.name for a in node.names))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import Iterator, Mapping\nx: Mapping\n"
    assert unused_imports(source) == ["os", "Iterator"]


def read_names(source: str) -> set[str]:
    """Every name the module reads: as a variable, an attribute, an imported
    name or an identifier string (``getattr`` by name). A top-level function or
    class reading its own name, as a recursive call does, does not count."""
    read: set[str] = set()
    for stmt in ast.parse(source).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        read |= names
    return read


def unread_definitions(definitions: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each top-level function or class of the modules in
    ``definitions`` (module name to source) that no source in ``readers`` reads."""
    read = set().union(*map(read_names, readers))
    return [f"{module}.{node.name}" for module, source in definitions.items()
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in read]


def test_every_function_and_class_is_exported_or_read():
    """``__init__`` exports by importing, so it is one of the readers."""
    definitions = {p.stem: p.read_text(encoding="utf-8") for p in MODULES if p.parent.name == "iacompat"}
    assert unread_definitions(definitions, [p.read_text(encoding="utf-8") for p in READERS]) == []


def test_an_unread_definition_is_found():
    helper = "def used(x):\n    return x\n\ndef recursive(n):\n    return recursive(n - 1)\n\nclass Unread:\n    pass\n"
    caller = "from m import used\nimport m\nm.used(1)\ngetattr(m, 'Named')\n"
    named = "class Named:\n    pass\n"
    assert unread_definitions({"m": helper + named}, [helper + named, caller]) == ["m.recursive", "m.Unread"]


def unread_members(definitions: dict[str, str], readers: list[str]) -> list[str]:
    """``module.Class.name`` for each method or class attribute, dunders aside, of a class of the
    modules in ``definitions`` (module name to source) that no source in ``readers`` reads."""
    read = set().union(*map(read_names, readers))
    out = []
    for module, source in definitions.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                else:
                    continue
                out += (f"{module}.{cls.name}.{name}" for name in names
                        if not (name.startswith("__") and name.endswith("__")) and name not in read)
    return out


def test_every_method_and_class_attribute_is_read_outside_the_tests():
    """A method only tests call is API that nothing else needs."""
    definitions = {p.stem: p.read_text(encoding="utf-8") for p in MODULES if p.parent.name == "iacompat"}
    assert unread_members(definitions, [p.read_text(encoding="utf-8") for p in PROGRAM]) == []


def test_an_unread_member_is_found():
    helper = ("class A:\n    x: int\n    y = z = 0\n\n    def __len__(self):\n        return 0\n\n"
              "    def used(self):\n        return self.x + self.y\n\n    def unused(self):\n        return 1\n")
    assert unread_members({"m": helper}, [helper, "A().used()\n"]) == ["m.A.z", "m.A.unused"]


def test_importing_a_submodule_by_its_dotted_name_gives_the_module():
    """No name the package root exports is also one of its module names, so
    ``import iacompat.falsity as F`` binds the module, not a function of it."""
    import iacompat
    import iacompat.evaluate as E
    import iacompat.falsity as F

    assert isinstance(E, ModuleType) and E.__name__ == "iacompat.evaluate"
    assert isinstance(F, ModuleType) and F.__name__ == "iacompat.falsity"
    for path in MODULES:
        if path.parent.name == "iacompat" and path.stem != "__main__":
            module = importlib.import_module(f"iacompat.{path.stem}")
            assert getattr(iacompat, path.stem) is module, path.stem
