"""scripts/fingerprint_diff.py on synthetic fingerprints: hashes alone may change."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "fingerprint_diff.py"
LINES = [
    {"numpy": "2.4.6", "blas": "openblas 0.3", "lapack": "openblas 0.3"},
    {"instance": "octahedron-0", "lift": "1" * 40, "sdpa": "2" * 40},
    {"instance": "octahedron-0", "pass": 0, "status": "accepted", "iterations": 10,
     "Z": "3" * 40, "certificate": None},
    {"instance": "octahedron-0", "status": "converged", "passes": 1, "theta": "4" * 40},
]


def _diff(tmp_path, new_lines, old_lines=LINES):
    old, new = tmp_path / "old.txt", tmp_path / "new.txt"
    for path, lines in ((old, old_lines), (new, new_lines)):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    done = subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


def _with(k, **fields):
    return [dict(line, **fields) if i == k else line for i, line in enumerate(LINES)]


def test_identical_fingerprints_agree(tmp_path):
    assert _diff(tmp_path, LINES) == (0, "0 lines differ beyond their hashes; 0 of 4 differ in hashes only\n")


def test_hash_only_change_exits_0_and_is_counted(tmp_path):
    code, out = _diff(tmp_path, _with(2, Z="5" * 40))
    assert code == 0
    assert out.splitlines() == [
        "0 lines differ beyond their hashes; 1 of 4 differ in hashes only",
        "  instance=octahedron-0 pass=0: Z",
    ]


@pytest.mark.parametrize(
    "new_lines",
    [
        pytest.param(_with(2, status="max_iters"), id="status"),
        pytest.param(_with(3, passes=2), id="passes"),
        pytest.param(_with(3, theta=None), id="hash-against-null"),
        pytest.param(LINES[:2] + LINES[3:], id="line-only-in-old"),
        pytest.param(LINES + [dict(LINES[2], **{"pass": 1})], id="line-only-in-new"),
    ],
)
def test_value_change_or_missing_line_exits_1(tmp_path, new_lines):
    code, out = _diff(tmp_path, new_lines)
    assert code == 1
    assert out.splitlines()[-1].startswith("1 lines differ beyond their hashes")


def test_graph_lines_are_told_apart_by_robot(tmp_path):
    """Two graph lines share their fields, so only the robot's name tells them apart."""
    graphs = [{"graph": name, "edges": "6" * 40, "anchors": "7" * 40, "column_vertex": "8" * 40}
              for name in ("chain7", "coincident")]
    code, out = _diff(tmp_path, [graphs[0], dict(graphs[1], edges="9" * 40)], graphs)
    assert code == 0
    assert out.splitlines() == [
        "0 lines differ beyond their hashes; 1 of 2 differ in hashes only",
        "  graph=coincident: edges",
    ]
