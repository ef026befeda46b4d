"""The benchmark's result checker accepts true results and rejects tampered ones.

    PYTHONPATH=src python3 -m pytest -q ikbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import cidgik as ck  # noqa: E402
from cidgik.lifting import lift  # noqa: E402

import checker  # noqa: E402

ROBOT_TEXT = (ROOT / "robots" / "arm_6dof.json").read_text()


@pytest.fixture(scope="module")
def robot():
    return ck.load_robot(ROBOT_TEXT)


@pytest.fixture(scope="module")
def rc():
    return checker.RobotChecker(json.loads(ROBOT_TEXT))


def _case(robot, environment, seed, table_obstacles=25):
    problem = ck.generate(robot, environment, seed, table_obstacles=table_obstacles)
    workspace = ck.environment(environment, robot, table_obstacles=table_obstacles)
    goals = [(g.end_effector, g.position, g.direction) for g in problem.qcqp.goals]
    spheres = [(s.center, s.radius) for s in workspace.spheres]
    planes = [(p.normal, p.offset) for _, p in workspace.planes]
    return problem.ground_truth, goals, spheres, planes


def test_forward_kinematics_matches_the_program(robot, rc):
    rng = np.random.Generator(np.random.Philox(key=3))
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, size=6)
        (position, direction), = rc.forward(theta)[0]
        pose = ck.forward_kinematics(robot, theta)[0][0]
        np.testing.assert_allclose(position, pose.position, atol=1e-12)
        np.testing.assert_allclose(direction, pose.direction, atol=1e-12)
    assert rc.reach == pytest.approx(robot.reach)


@pytest.mark.parametrize("environment,seed", [("octahedron", 0), ("octahedron", 5), ("table", 2)])
def test_ground_truth_passes(robot, rc, environment, seed):
    theta, goals, spheres, planes = _case(robot, environment, seed)
    checker.check_configuration(rc, theta, goals, spheres, planes)


def test_perturbed_configuration_misses_the_goal(robot, rc):
    theta, goals, spheres, planes = _case(robot, "octahedron", 0)
    theta = theta.copy()
    theta[1] += 0.05
    with pytest.raises(checker.CheckError, match="misses its goal"):
        checker.check_configuration(rc, theta, goals, spheres, planes)


def test_wrist_turn_keeps_position_but_misses_direction(robot, rc):
    theta, goals, spheres, planes = _case(robot, "octahedron", 0)
    theta = theta.copy()
    theta[5] += 0.05  # the last joint turns the 0.1 m tip: 5 mm off, 0.05 rad off
    with pytest.raises(checker.CheckError, match="rad off"):
        checker.check_configuration(rc, theta, goals, spheres, planes)


def test_point_inside_a_sphere_or_below_a_plane_fails(rc):
    theta = np.zeros(6)
    (position, _), = rc.forward(theta)[0]
    goals = [(0, position, None)]
    elbow = rc.forward(theta)[1][4]
    with pytest.raises(checker.CheckError, match="inside a sphere"):
        checker.check_configuration(rc, theta, goals, [(elbow, 0.1)], [])
    with pytest.raises(checker.CheckError, match="beyond a plane"):
        checker.check_configuration(rc, theta, goals, [], [(np.array([0.0, 0.0, 1.0]), 0.5)])


@pytest.fixture(scope="module")
def certified(robot):
    direction = np.array([0.6, 0.0, 0.8])
    goal = ck.Goal(end_effector=0, position=1.5 * robot.reach * direction, direction=direction)
    qcqp = ck.assemble_qcqp(robot, [goal])
    result = ck.cidgik_solve(qcqp, ck.CidgikOptions(solver=ck.SolverSettings(max_iters=8000)))
    assert result.status == "infeasible" and result.certificate is not None
    sdp = lift(qcqp)
    return result.certificate, sdp, [(0, goal.position, goal.direction)]


def test_certificate_passes(rc, certified):
    cert, sdp, goals = certified
    checker.check_unreachable(rc, goals)
    checker.check_certificate(cert.y, cert.mu, sdp.eq_mats, sdp.eq_rhs, sdp.ineq_mats, sdp.ineq_rhs)


def test_tampered_certificate_fails(certified):
    cert, sdp, _ = certified
    args = (sdp.eq_mats, sdp.eq_rhs, sdp.ineq_mats, sdp.ineq_rhs)
    with pytest.raises(checker.CheckError):
        checker.check_certificate(-cert.y, cert.mu, *args)
    # Weight on the corner pin Z[-1, -1] = 1 keeps S PSD but lifts a.y above 0.
    corner = next(
        k for k, A in enumerate(sdp.eq_mats)
        if A[-1, -1] == 1.0 and np.count_nonzero(A) == 1 and sdp.eq_rhs[k] == 1.0
    )
    y = cert.y.copy()
    y[corner] += 1.0 + abs(float(sdp.eq_rhs @ cert.y))
    with pytest.raises(checker.CheckError, match="is not below"):
        checker.check_certificate(y, cert.mu, *args)
    with pytest.raises(checker.CheckError, match="multipliers"):
        checker.check_certificate(cert.y[:-1], cert.mu, *args)


def test_reachable_goal_is_not_called_unreachable(robot, rc):
    _, goals, _, _ = _case(robot, "octahedron", 0)
    with pytest.raises(checker.CheckError, match="within reach"):
        checker.check_unreachable(rc, goals)
