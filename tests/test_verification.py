"""One verdict per solve: verify_solution, and who reads its result."""

import json

import numpy as np
import pytest

import cidgik.iteration as iteration
from cidgik import (
    Goal,
    WorkspaceSpec,
    assemble_qcqp,
    cidgik_solve,
    forward_kinematics,
    generate,
    joint_points,
)
from cidgik.bench import solve_one
from cidgik.cli import main
from cidgik.iteration import CidgikOptions, verify_solution
from cidgik.problemio import save_generated
from cidgik.robots import arm_6dof
from cidgik.solver import SolverSettings
from cidgik.workspace import Plane

FAST = CidgikOptions(solver=SolverSettings(max_iters=6000))


def _vertex_point(qcqp, theta, vertex):
    robot = qcqp.robot
    label = qcqp.graph.variable_labels[vertex]
    return joint_points(robot, theta)[:, robot.layout.index[label]]


def _with_plane(problem, vertex, plane):
    qcqp = problem.qcqp
    return assemble_qcqp(qcqp.robot, qcqp.goals, WorkspaceSpec(planes=[(vertex, plane)]))


@pytest.fixture(scope="module")
def free_problem():
    return generate(arm_6dof(), "free", 3)


def test_ground_truth_meets_an_on_plane_through_its_vertex(free_problem):
    theta = free_problem.ground_truth
    x0 = _vertex_point(free_problem.qcqp, theta, 0)
    normal = np.array([1.0, 2.0, 2.0]) / 3.0
    plane = Plane(normal=normal, offset=float(normal @ x0), relation="on")
    report = verify_solution(_with_plane(free_problem, 0, plane), theta)
    assert report.success, report.failures
    assert report.max_penetration < 1e-12


def test_plane_is_checked_at_its_own_vertex(free_problem):
    theta = free_problem.ground_truth
    x0 = _vertex_point(free_problem.qcqp, theta, 0)
    x1 = _vertex_point(free_problem.qcqp, theta, 1)
    # vertex 1 lies 'below' this half-space, which binds vertex 0 only
    normal = (x0 - x1) / np.linalg.norm(x0 - x1)
    above = Plane(normal=normal, offset=float(normal @ x0), relation="above")
    assert verify_solution(_with_plane(free_problem, 0, above), theta).success
    report = verify_solution(_with_plane(free_problem, 1, above), theta)
    assert report.failures == ("collision",)
    assert report.max_penetration == pytest.approx(np.linalg.norm(x0 - x1), abs=1e-12)
    shifted = Plane(normal=normal, offset=float(normal @ x0) + 0.05, relation="on")
    report = verify_solution(_with_plane(free_problem, 0, shifted), theta)
    assert report.failures == ("collision",)
    assert report.max_penetration == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("turn, failures", [(0.02, ("direction",)), (0.005, ())])
def test_goal_direction_is_checked_to_its_angle(chain_6dof, turn, failures):
    """A goal direction turned off the achieved one fails past 0.01 rad."""
    theta = np.zeros(6)
    pose = forward_kinematics(chain_6dof, theta)[0][0]
    side = np.cross(pose.direction, [1.0, 0.0, 0.0])
    side /= np.linalg.norm(side)
    direction = np.cos(turn) * pose.direction + np.sin(turn) * side
    goal = Goal(end_effector=0, position=pose.position, direction=direction)
    report = verify_solution(assemble_qcqp(chain_6dof, [goal]), theta)
    assert report.failures == failures
    assert report.direction_error == pytest.approx(turn, abs=1e-9)
    assert report.position_error == 0.0


def test_library_cli_and_bench_report_one_verdict(tmp_path, monkeypatch, capsys):
    robot = arm_6dof()
    problem = generate(robot, "table", 1, table_obstacles=5)
    assert problem.qcqp.planes
    calls = []
    checker = iteration.verify_solution

    def counted(qcqp, theta):
        calls.append(qcqp)
        return checker(qcqp, theta)

    monkeypatch.setattr(iteration, "verify_solution", counted)

    result = cidgik_solve(problem.qcqp, FAST)
    assert len(calls) == 1

    row = solve_one(robot, "table", 1, FAST, table_obstacles=5)
    assert len(calls) == 2

    path = tmp_path / "problem.json"
    save_generated(path, problem)
    out = tmp_path / "solution.json"
    code = main(["solve", str(path), "--solver-iters", "6000", "--out", str(out)])
    assert len(calls) == 3
    payload = json.loads(out.read_text())
    assert "verified=yes" in capsys.readouterr().out

    assert result.verified and code == 0
    assert row["verified"] == payload["verified"] == result.verified
    assert row["max_penetration"] == payload["max_penetration"] == result.max_penetration


def test_infeasible_result_carries_only_its_certificate():
    robot = arm_6dof()
    rng = np.random.Generator(np.random.Philox(key=12))
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    # A goal 3 cm from joint 1's origin: in reach, but no configuration puts
    # the tip there.  The first pass stops at its 4000-iteration budget and
    # leaves an iterate behind; only the second pass certifies.
    goal = Goal(end_effector=0, position=np.array([0.0, 0.0, 0.15]) + 0.03 * direction,
                direction=direction)
    result = cidgik_solve(assemble_qcqp(robot, [goal]), FAST)
    assert result.status == "infeasible"
    assert [r.solver_status for r in result.trace.records] == ["max_iters", "infeasible"]
    assert result.certificate is not None
    assert np.isfinite(result.trace.h_values[0])
    assert result.X is None and result.theta is None and result.h is None
    assert result.position_error is None and result.max_penetration is None
    assert not result.verified
