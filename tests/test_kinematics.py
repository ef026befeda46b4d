import json
import math

import numpy as np
import pytest

from cidgik import (
    Pose,
    RobotError,
    forward_kinematics,
    joint_points,
    load_robot,
    nominal_distances,
    pose_error,
    reconstruct_angles,
)
from cidgik.robots import (
    arm_6dof,
    planar_chain_document,
    random_coplanar_chain,
)
from conftest import sample_angles


def test_load_minimal_planar_chain():
    robot = load_robot(json.dumps(planar_chain_document([1.0, 1.0])))
    assert robot.num_joints == 2
    assert robot.dimension == 2


def test_self_parent_is_rejected():
    doc = planar_chain_document([1.0, 1.0])
    doc["joints"][1]["parent"] = "j2"
    with pytest.raises(RobotError, match="non-tree"):
        load_robot(doc)


def test_skew_axes_rejected():
    # axis lines z-through-origin and y-through-(1,0,0): triple product is -1
    doc = {
        "dimension": 3,
        "joints": [
            {
                "name": "a",
                "parent": "base",
                "translation": [0.0, 0.0, 0.0],
                "rotation_rpy": [0.0, 0.0, 0.0],
                "axis": [0.0, 0.0, 1.0],
            },
            {
                "name": "b",
                "parent": "a",
                "translation": [1.0, 0.0, 0.0],
                "rotation_rpy": [0.0, 0.0, 0.0],
                "axis": [0.0, 1.0, 0.0],
            },
        ],
        "end_effectors": [{"parent": "b", "tip": [0.1, 0.0, 0.0]}],
    }
    with pytest.raises(RobotError, match="non-coplanar"):
        load_robot(doc)


def test_schema_violations():
    with pytest.raises(RobotError):
        load_robot("not json at all {")
    with pytest.raises(RobotError):
        load_robot({"dimension": 4, "joints": [], "end_effectors": []})
    doc = planar_chain_document([1.0])
    doc["joints"][0]["axis"] = [0.0, 0.0, 0.0]
    with pytest.raises(RobotError):
        load_robot(doc)


def test_fk_straight_and_quarter_turn(planar_2r):
    poses, _ = forward_kinematics(planar_2r, [0.0, 0.0])
    np.testing.assert_allclose(poses[0].position, [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(poses[0].direction, [1.0, 0.0], atol=1e-12)
    poses, _ = forward_kinematics(planar_2r, [math.pi / 2, 0.0])
    np.testing.assert_allclose(poses[0].position, [0.0, 2.0], atol=1e-12)


def test_fk_reach_bound(planar_2r):
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(50):
        theta = sample_angles(rng, 2)
        poses, _ = forward_kinematics(planar_2r, theta)
        assert np.linalg.norm(poses[0].position) <= 2.0 + 1e-12


def test_unit_axis_pairs_everywhere(chain_6dof):
    rng = np.random.Generator(np.random.Philox(key=5))
    layout = chain_6dof.layout
    for _ in range(20):
        theta = sample_angles(rng, 6)
        P = joint_points(chain_6dof, theta)
        for i in range(6):
            p = P[:, layout.index[("p", i)]]
            q = P[:, layout.index[("q", i)]]
            assert abs(np.linalg.norm(p - q) - 1.0) < 1e-12


def test_fig2_anchoring(fig2_robot):
    # base yaw joint is anchored; the two pitch joints contribute variables
    assert fig2_robot.anchored == (True, False, False)
    assert fig2_robot.layout.num_variables == 4


def test_planar_elbow_point(planar_2r):
    P = joint_points(planar_2r, [0.0, 0.0])
    elbow = P[:, planar_2r.layout.index[("p", 1)]]
    np.testing.assert_allclose(elbow, [1.0, 0.0], atol=1e-12)


def test_anchored_points_not_variables(chain_6dof, fig2_robot, planar_2r):
    for robot in (chain_6dof, fig2_robot, planar_2r):
        layout = robot.layout
        for col in layout.columns[: layout.num_variables]:
            assert not robot.anchored[col[1]]


def test_parallel_axis_cross_distances():
    # shoulder->elbow of the fig2-style arm: parallel y axes, link 0.5 along x
    robot = load_robot(
        {
            "dimension": 3,
            "joints": [
                {
                    "name": "a",
                    "parent": "base",
                    "translation": [0.0, 0.0, 0.0],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 1.0, 0.0],
                },
                {
                    "name": "b",
                    "parent": "a",
                    "translation": [0.5, 0.0, 0.0],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 1.0, 0.0],
                },
            ],
            "end_effectors": [{"parent": "b", "tip": [0.1, 0.0, 0.0]}],
        }
    )
    nominal = nominal_distances(robot)

    def dist(a, b):
        return nominal[(a, b)] if (a, b) in nominal else nominal[(b, a)]

    L2 = 0.25
    assert dist(("p", 0), ("p", 1)) == pytest.approx(L2, abs=1e-12)
    assert dist(("q", 0), ("q", 1)) == pytest.approx(L2, abs=1e-12)
    assert dist(("p", 0), ("q", 1)) == pytest.approx(L2 + 1.0, abs=1e-12)
    assert dist(("q", 0), ("p", 1)) == pytest.approx(L2 + 1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nominal_distance_invariance(seed, chain_6dof):
    robots = {0: chain_6dof, 1: random_coplanar_chain(5, seed=21),
              2: random_coplanar_chain(7, seed=22)}
    robot = robots[seed]
    nominal = nominal_distances(robot)
    index = robot.layout.index
    rng = np.random.Generator(np.random.Philox(key=100 + seed))
    worst = 0.0
    for _ in range(100):
        theta = sample_angles(rng, robot.num_joints)
        P = joint_points(robot, theta)
        for (a, b), w in nominal.items():
            diff = P[:, index[a]] - P[:, index[b]]
            worst = max(worst, abs(float(diff @ diff) - w))
    assert worst < 1e-10


def test_collinear_pair_flagged_degenerate():
    robot = load_robot(
        {
            "dimension": 3,
            "joints": [
                {
                    "name": "a",
                    "parent": "base",
                    "translation": [0.0, 0.0, 0.1],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 0.0, 1.0],
                },
                {
                    "name": "b",
                    "parent": "a",
                    "translation": [0.0, 0.0, 0.3],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 0.0, 1.0],
                },
                {
                    "name": "c",
                    "parent": "b",
                    "translation": [0.0, 0.0, 0.2],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 1.0, 0.0],
                },
            ],
            "end_effectors": [{"parent": "c", "tip": [0.2, 0.0, 0.0]}],
        }
    )
    # collinear prefix makes joint b anchored as well
    assert robot.anchored == (True, True, False)


@pytest.mark.parametrize(
    "make",
    [
        lambda: arm_6dof(),
        lambda: random_coplanar_chain(5, seed=3),
        lambda: random_coplanar_chain(6, seed=9),
        lambda: random_coplanar_chain(4, seed=13, dimension=2),
    ],
)
def test_reconstruction_round_trip(make):
    robot = make()
    rng = np.random.Generator(np.random.Philox(key=77))
    for _ in range(10):
        theta = sample_angles(rng, robot.num_joints)
        P = joint_points(robot, theta)
        rec = reconstruct_angles(robot, P)
        assert rec.residual < 1e-6


def test_reconstruction_straight_chain(chain_6dof):
    P = joint_points(chain_6dof, np.zeros(6))
    rec = reconstruct_angles(chain_6dof, P)
    np.testing.assert_allclose(rec.theta, np.zeros(6), atol=1e-9)


def test_reconstruction_perturbed_column(chain_6dof):
    rng = np.random.Generator(np.random.Philox(key=8))
    theta = sample_angles(rng, 6)
    P = joint_points(chain_6dof, theta).copy()
    P[:, 2] += 1e-3 / math.sqrt(3)
    rec = reconstruct_angles(chain_6dof, P)  # must not raise
    assert rec.residual >= 1e-4


def test_pose_error_cases():
    p = Pose(position=np.zeros(3), direction=np.array([1.0, 0.0, 0.0]))
    assert pose_error(p, p) == (0.0, 0.0)
    q = Pose(position=np.zeros(3), direction=np.array([0.0, 1.0, 0.0]))
    assert pose_error(p, q)[1] == pytest.approx(math.pi / 2)
    r = Pose(position=np.array([0.006, 0.008, 0.0]), direction=np.array([1.0, 0.0, 0.0]))
    assert pose_error(p, r)[0] == pytest.approx(0.01)
