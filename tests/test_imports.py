"""Every imported name in src/, tests/ and scripts/ is used (no linter is installed),
and every top-level definition of the package is read outside the tests.

Package __init__.py files are exempt from the import scan: their imports are
re-exports.

A fresh interpreter's `import cidgik, cidgik.cli` loads none of scipy.linalg
and the modules only a benchmark campaign runs, and a solve loads none of them
either: the solver runs on numpy's LAPACK alone.
"""

import ast
import json
import os
import subprocess
import sys
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


# Loaded on first use by jeffreys_interval (scipy.optimize, scipy.special) and
# by a parallel campaign (the process pool), never by a solve.
DEFERRED = ("scipy.optimize", "scipy.special", "concurrent.futures.process", "multiprocessing")
# Not loaded by an import or a solve: the solver needs numpy alone.
WATCHED = ("scipy.linalg", *DEFERRED)
PROBE = """
import json, sys
snapshots = []
for statement in json.loads(sys.argv[1]):
    exec(statement)
    snapshots.append([name for name in json.loads(sys.argv[2]) if name in sys.modules])
print(json.dumps(snapshots))
"""


def loaded_after(*statements: str) -> list[set[str]]:
    """The WATCHED modules a fresh interpreter holds after each of `statements` in turn."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(statements), json.dumps(WATCHED)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    return [set(names) for names in json.loads(done.stdout)]


def cold_start_faults(loaded: set[str]) -> list[str]:
    return [f"{name} is loaded" for name in WATCHED if name in loaded]


@pytest.mark.parametrize("module", WATCHED)
def test_cold_start_check_catches_an_eager_import(module):
    (loaded,) = loaded_after(f"import cidgik, cidgik.cli, {module}")
    assert f"{module} is loaded" in cold_start_faults(loaded)


def test_import_loads_only_what_a_solve_runs_and_first_use_loads_the_rest():
    after_import, after_solve, after_interval, after_campaign = loaded_after(
        "import cidgik, cidgik.cli",
        "import cidgik.robots\n"
        "problem = cidgik.generate(cidgik.robots.arm_6dof(), 'octahedron', 0)\n"
        "result = cidgik.cidgik_solve(problem.qcqp)\n"
        "assert result.status == 'converged' and result.verified",
        "low, high = cidgik.jeffreys_interval(5, 10)\n"
        "assert 0.22 < low < 0.23 and abs(low + high - 1.0) < 1e-9",
        "options = cidgik.CidgikOptions(solver=cidgik.SolverSettings(max_iters=6000))\n"
        "report = cidgik.run_benchmark(cidgik.robots.arm_6dof(), 'free', 2, 7, options, jobs=2)\n"
        "assert [row.seed for row in report.rows] == [7, 8] and report.successes == 2",
    )
    assert cold_start_faults(after_import) == []
    assert cold_start_faults(after_solve) == []
    assert {"scipy.optimize", "scipy.special"} <= after_interval
    assert "concurrent.futures.process" not in after_interval
    assert {"concurrent.futures.process", "multiprocessing"} <= after_campaign
