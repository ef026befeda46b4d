import json

import numpy as np
import pytest

from cidgik import Goal, Sphere, WorkspaceSpec, generate
from cidgik.problemio import (
    ProblemFormatError,
    dumps_problem,
    load_problem,
    parse_problem,
    save_generated,
    save_problem,
)
from cidgik.robots import planar_two_link
from cidgik.workspace import Plane


def test_round_trip_with_workspace(tmp_path):
    robot = planar_two_link()
    goal = Goal(
        end_effector=0,
        position=np.array([1.0, 1.0]),
        direction=np.array([0.0, 1.0]),
    )
    ws = WorkspaceSpec(
        spheres=[Sphere(center=np.array([1.0, 0.0]), radius=0.5)],
        planes=[(0, Plane(normal=np.array([0.0, 1.0]), offset=-2.0, relation="above"))],
        self_collision_eps=0.05,
    )
    path = tmp_path / "p.json"
    save_problem(path, robot, [goal], ws)
    qcqp = load_problem(path)
    assert qcqp.robot.num_joints == 2
    assert len(qcqp.goals) == 1
    assert qcqp.goals[0].direction is not None
    assert len(qcqp.spheres) == 1
    assert len(qcqp.planes) == 1


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
