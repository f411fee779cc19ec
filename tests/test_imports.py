"""Every name a module imports is used in it.

The package's ``__init__`` is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "iacompat").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "scripts").glob("*.py"))


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
