"""Every imported name in src/, tests/ and scripts/ is used (no linter is installed),
and every top-level definition of the package is read outside the tests.

Package __init__.py files are exempt from the import scan: their imports are
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
FILES = sorted(
    path
    for directory in ("src", "tests", "scripts")
    for path in (ROOT / directory).rglob("*.py")
    if path.name != "__init__.py"
)
PACKAGE = sorted((ROOT / "src" / "cidgik").rglob("*.py"))
READERS = sorted(
    path for directory in ("src", "scripts", "ikbench") for path in (ROOT / directory).rglob("*.py")
)
# Read only by tests: the SDPA round-trip reference of test_acceptance.py.
TEST_ONLY = {"parse_sdpa"}


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_unused_imports():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(d)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_definitions(defining: list[str], reading: list[str]) -> set[str]:
    """Top-level functions and classes in `defining` that no Name or Attribute in `reading` reads.

    Imports and __all__ strings are not reads, so a re-export alone does
    not keep a definition alive.
    """
    defined = {
        node.name
        for source in defining
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return defined - read


def test_scan_finds_unread_definitions():
    package = "def used():\n    pass\n\ndef orphan():\n    pass\n\nclass Hint:\n    pass\n"
    reader = "from m import orphan\n__all__ = ['orphan']\nm.orphan = 1\nm.used()\nx: Hint = None\n"
    assert unread_definitions([package], [reader]) == {"orphan"}


def test_package_definitions_are_read_outside_tests():
    sources = {path: path.read_text() for path in READERS}
    package = [sources[path] for path in PACKAGE]
    assert unread_definitions(package, list(sources.values())) == TEST_ONLY
