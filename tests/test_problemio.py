import dataclasses
import json

import numpy as np
import pytest

from cidgik import Goal, Sphere, WorkspaceSpec, assemble_qcqp, generate, lift
from cidgik.problemio import (
    ProblemFormatError,
    dumps_problem,
    load_problem,
    parse_problem,
    save_generated,
    save_problem,
)
from cidgik.robots import arm_6dof, planar_two_link
from cidgik.workspace import AuxPoint, Plane


def test_round_trip_with_workspace(tmp_path):
    """A saved problem loads as the problem that was saved: the same lift."""
    robot = arm_6dof()
    goal = Goal(
        end_effector=0,
        position=np.array([0.3, 0.2, 0.6]),
        direction=np.array([0.0, 0.0, 1.0]),
    )
    up, across = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    ws = WorkspaceSpec(
        spheres=[
            Sphere(center=np.array([0.4, -0.3, 0.5]), radius=0.1),
            Sphere(center=np.array([0.0, 0.0, 0.5]), radius=2.0, sense="keep_in"),
        ],
        planes=[
            (None, Plane(normal=up, offset=-0.5, relation="above")),
            (1, Plane(normal=up, offset=0.27, relation="above")),
            (None, Plane(normal=across, offset=0.0, relation="on")),
            (0, Plane(normal=across, offset=0.0, relation="on")),
        ],
        self_collision_eps=0.05,
    )
    path = tmp_path / "p.json"
    save_problem(path, robot, [goal], ws)
    qcqp = load_problem(path)
    expected = assemble_qcqp(robot, [goal], ws)
    assert qcqp.robot.num_joints == 6
    assert len(qcqp.goals) == 1
    assert qcqp.goals[0].direction is not None
    assert len(qcqp.spheres) == 2
    assert len(qcqp.planes) == 2 * qcqp.graph.num_variables + 2
    assert len(qcqp.self_collision) == len(expected.self_collision) > 0
    loaded, built = lift(qcqp), lift(expected)
    assert (loaded.side, loaded.dim) == (built.side, built.dim)
    for name in ("eq_mats", "eq_rhs", "ineq_mats", "ineq_rhs"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(built, name))
    # Every other field has a file form; aux_points are rejected (below).
    assert [f.name for f in dataclasses.fields(WorkspaceSpec)] == [
        "spheres", "planes", "aux_points", "self_collision_eps"
    ]


def test_aux_points_are_rejected_before_any_file_is_written(tmp_path):
    """A problem file has no field for aux points, so saving one used to drop them."""
    robot = planar_two_link()
    goal = Goal(end_effector=0, position=np.array([1.0, 1.0]))
    edge = assemble_qcqp(robot, [goal]).graph.edges[0]
    ws = WorkspaceSpec(aux_points=[AuxPoint(edge=(edge.tail, edge.head), alpha=0.5)])
    path = tmp_path / "p.json"
    with pytest.raises(ValueError, match="aux_points"):
        save_problem(path, robot, [goal], ws)
    assert list(tmp_path.iterdir()) == []


def test_robot_by_path_reference(tmp_path):
    robot = planar_two_link()
    (tmp_path / "robot.json").write_text(json.dumps(robot.document))
    problem = {
        "robot": "robot.json",
        "goals": [{"ee": 0, "position": [1.0, 1.0]}],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    qcqp = load_problem(path)
    assert qcqp.robot.num_joints == 2


def test_deterministic_bytes():
    robot = planar_two_link()
    goal = Goal(end_effector=0, position=np.array([1.0, 1.0]))
    assert dumps_problem(robot, [goal]) == dumps_problem(robot, [goal])


def test_malformed_problem():
    with pytest.raises(ProblemFormatError):
        parse_problem("{ nope")
    with pytest.raises(ProblemFormatError):
        parse_problem(json.dumps({"robot": 17, "goals": []}))


def test_unserializable_sidecar_leaves_no_problem_file(tmp_path):
    """Both texts are built before either file is written.

    The problem file used to be written first, so a sidecar whose JSON
    failed left it behind without its ground truth.
    """
    problem = generate(planar_two_link(), "free", 3)
    problem.seed = object()  # json.dumps cannot hold it
    path = tmp_path / "p.json"
    with pytest.raises(TypeError):
        save_generated(path, problem)
    assert list(tmp_path.iterdir()) == []
    problem.seed = 3
    sidecar = save_generated(path, problem)
    assert json.loads(sidecar.read_text())["seed"] == 3
    assert load_problem(path).robot.num_joints == 2
