"""Every imported name in src/, tests/ and scripts/ is used (no linter is installed).

Package __init__.py files are exempt: their imports are re-exports.
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
