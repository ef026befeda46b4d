"""Problem and solution JSON serialization.

A problem file bundles the robot description (inline document or a path),
end-effector goals, and workspace constraints::

    {"robot": {...} | "path.json",
     "goals": [{"ee": 0, "position": [...], "direction": [...]?}, ...],
     "obstacles": [{"center": [...], "radius": r, "sense": "keep_out"?}, ...],
     "planes": [{"vertex": v, "normal": [...], "offset": c, "relation": "on"|"above"}, ...],
     "self_collision_eps": eps?}

A global self_collision_eps applies the separation inequality to every pair
of variable points not already linked by an equality edge.  Serialization is
deterministic (sorted keys) so identical problems produce identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .generator import GeneratedProblem
from .graph import Goal, QcqpInstance, assemble_qcqp
from .kinematics import RobotModel, load_robot
from .workspace import Plane, Sphere, WorkspaceSpec


class ProblemFormatError(ValueError):
    """Malformed problem JSON."""


def problem_to_dict(
    robot: RobotModel, goals, workspace: WorkspaceSpec | None = None
) -> dict:
    if robot.document is None:
        raise ValueError("robot carries no source document to embed")
    workspace = workspace or WorkspaceSpec()
    out = {
        "robot": robot.document,
        "goals": [
            {
                "ee": g.end_effector,
                "position": [float(v) for v in g.position],
                **(
                    {"direction": [float(v) for v in g.direction]}
                    if g.direction is not None
                    else {}
                ),
            }
            for g in goals
        ],
        "obstacles": [
            {
                "center": [float(v) for v in s.center],
                "radius": float(s.radius),
                "sense": s.sense,
            }
            for s in workspace.spheres
        ],
        "planes": [
            {
                "vertex": vertex,
                "normal": [float(v) for v in p.normal],
                "offset": float(p.offset),
                "relation": p.relation,
            }
            for vertex, p in workspace.planes
        ],
    }
    if workspace.self_collision_eps is not None:
        out["self_collision_eps"] = float(workspace.self_collision_eps)
    return out


def dumps_problem(robot: RobotModel, goals, workspace=None) -> str:
    return json.dumps(problem_to_dict(robot, goals, workspace), sort_keys=True, indent=2)


def save_problem(path, robot: RobotModel, goals, workspace=None) -> None:
    Path(path).write_text(dumps_problem(robot, goals, workspace))


def save_generated(path, problem: GeneratedProblem) -> Path:
    """Write the problem JSON plus a ground-truth sidecar; returns the sidecar path.

    The sidecar's JSON is built first, and save_problem builds the problem's
    before it writes, so a sidecar that cannot be serialized leaves no
    problem file behind.
    """
    path = Path(path)
    qcqp = problem.qcqp
    workspace = WorkspaceSpec(
        spheres=list(qcqp.spheres),
        planes=[(v, p) for v, p in qcqp.planes],
    )
    truth = json.dumps(
        {
            "seed": problem.seed,
            "environment": problem.environment,
            "theta": [float(t) for t in problem.ground_truth],
        },
        sort_keys=True,
        indent=2,
    )
    save_problem(path, qcqp.robot, qcqp.goals, workspace)
    sidecar = path.with_suffix(".truth.json")
    sidecar.write_text(truth)
    return sidecar


def _entries(doc: dict, key: str) -> list[dict]:
    entries = doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ProblemFormatError(f"'{key}' must be a list of objects")
    return entries


def _finite(value, what: str, scalar: bool = False):
    """value as a float array, or a float if scalar; it must be numeric and finite."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as e:
        raise ProblemFormatError(f"{what} must be numeric") from e
    if not np.all(np.isfinite(arr)) or (scalar and arr.ndim):
        raise ProblemFormatError(f"{what} must be finite{' and a single number' if scalar else ''}")
    return float(arr) if scalar else arr


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFormatError(f"{what} must be an integer")
    return value


def parse_problem(text: str, *, base_dir: Path | None = None) -> QcqpInstance:
    """Parse problem JSON into an assembled feasibility instance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFormatError(f"problem file is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")

    robot_field = doc.get("robot")
    if isinstance(robot_field, str):
        robot_path = Path(robot_field)
        if base_dir is not None and not robot_path.is_absolute():
            robot_path = base_dir / robot_path
        robot = load_robot(robot_path.read_text())
    elif isinstance(robot_field, dict):
        robot = load_robot(robot_field)
    else:
        raise ProblemFormatError("'robot' must be a document object or a path string")

    try:
        goals = [
            Goal(
                end_effector=_integer(g["ee"], "goal 'ee'"),
                position=_finite(g["position"], "goal position"),
                direction=None
                if g.get("direction") is None
                else _finite(g["direction"], "goal direction"),
            )
            for g in _entries(doc, "goals")
        ]
        spheres = [
            Sphere(
                center=_finite(s["center"], "obstacle center"),
                radius=_finite(s["radius"], "obstacle radius", scalar=True),
                sense=s.get("sense", "keep_out"),
            )
            for s in _entries(doc, "obstacles")
        ]
        planes = [
            (
                None if p.get("vertex") is None else _integer(p["vertex"], "plane vertex"),
                Plane(
                    normal=_finite(p["normal"], "plane normal"),
                    offset=_finite(p["offset"], "plane offset", scalar=True),
                    relation=p.get("relation", "above"),
                ),
            )
            for p in _entries(doc, "planes")
        ]
    except KeyError as e:
        raise ProblemFormatError(f"goal, obstacle or plane without the key {e}") from None
    eps = doc.get("self_collision_eps")
    workspace = WorkspaceSpec(
        spheres=spheres,
        planes=planes,
        self_collision_eps=None if eps is None else _finite(eps, "self_collision_eps", True),
    )
    return assemble_qcqp(robot, goals, workspace)


def load_problem(path) -> QcqpInstance:
    path = Path(path)
    return parse_problem(path.read_text(), base_dir=path.parent)
