import json
import math

import numpy as np
import pytest

from cidgik import (
    Goal,
    RobotError,
    assemble_qcqp,
    evaluate,
    forward_kinematics,
    joint_points,
    lift,
    lift_points,
    load_robot,
    reconstruct_angles,
)
from cidgik.graph import selection
from cidgik.robots import (
    arm_6dof,
    planar_chain_document,
    planar_two_link,
    random_coplanar_chain,
)
from conftest import (
    DH_CHAINS,
    panda_like_document,
    random_dh_chain_document,
    sample_angles,
    two_arm_tree,
)


def _joint(name, parent, translation, axis, rpy=(0.0, 0.0, 0.0)):
    return {"name": name, "parent": parent, "translation": translation,
            "rotation_rpy": list(rpy), "axis": axis}


def rpy_chain():
    """Spatial chain whose every joint has a fixed rotation; each origin sits
    on its parent's axis line, so consecutive axes intersect."""
    return load_robot(
        {
            "dimension": 3,
            "joints": [
                _joint("a", "base", [0.0, 0.0, 0.2], [0.0, 0.0, 1.0], (0.1, 0.2, 0.3)),
                _joint("b", "a", [0.0, 0.0, 0.3], [0.0, 1.0, 0.0], (0.4, -0.3, 0.2)),
                _joint("c", "b", [0.0, 0.25, 0.0], [1.0, 0.0, 0.0], (-0.5, 0.1, 0.7)),
                _joint("d", "c", [0.2, 0.0, 0.0], [0.0, 0.0, 1.0], (0.3, 0.3, -0.2)),
            ],
            "end_effectors": [{"parent": "d", "tip": [0.1, 0.05, 0.0]}],
        }
    )


def branching_robot():
    """Joint b carries two child joints (c, d) and an end effector of its own."""
    return load_robot(
        {
            "dimension": 3,
            "joints": [
                _joint("a", "base", [0.0, 0.0, 0.2], [0.0, 0.0, 1.0]),
                _joint("b", "a", [0.0, 0.0, 0.1], [0.0, 1.0, 0.0]),
                _joint("c", "b", [0.0, 0.0, 0.3], [0.0, 0.0, 1.0]),
                _joint("d", "b", [0.0, 0.2, 0.0], [1.0, 0.0, 0.0], (0.0, 0.4, 0.0)),
            ],
            "end_effectors": [
                {"parent": "b", "tip": [0.15, 0.0, 0.0]},
                {"parent": "c", "tip": [0.1, 0.0, 0.2]},
                {"parent": "d", "tip": [0.0, 0.1, 0.1]},
            ],
        }
    )


def rodrigues_frames(robot, theta):
    """Per-joint reference walk: one Rodrigues matrix and one quaternion
    matrix per joint, no cached terms and no batching."""
    n = robot.num_joints
    R, t, axes = np.empty((n, 3, 3)), np.empty((n, 3)), np.empty((n, 3))
    sines, cosines = np.sin(theta), np.cos(theta)
    for i, j in enumerate(robot.joints):
        Rp, tp = (np.eye(3), np.zeros(3)) if j.parent < 0 else (R[j.parent], t[j.parent])
        w, x, y, z = j.rotation
        fixed = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        x, y, z = j.axis
        K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        spin = np.eye(3) + sines[i] * K + (1 - cosines[i]) * (K @ K)
        t[i] = tp + Rp @ j.translation
        R_pre = Rp @ fixed
        axes[i] = R_pre @ j.axis
        R[i] = R_pre @ spin
    return R, t, axes


KERNEL_ROBOTS = {
    "arm_6dof": arm_6dof,
    "planar_two_link": planar_two_link,
    "chain7": lambda: random_coplanar_chain(7, 1),
    "rpy_chain": rpy_chain,
    "branching": branching_robot,
}


@pytest.mark.parametrize("name", KERNEL_ROBOTS)
def test_frame_walk_matches_per_joint_rodrigues(name):
    robot = KERNEL_ROBOTS[name]()
    n = robot.num_joints
    rng = np.random.Generator(np.random.Philox(key=31))
    thetas = [sample_angles(rng, n) for _ in range(20)]
    thetas += [np.full(n, v) for v in (0.0, math.pi, -math.pi)]
    thetas += [rng.uniform(2.0 * math.pi, 20.0, size=n) * rng.choice([-1.0, 1.0], size=n)]
    for theta in thetas:
        _, frames = forward_kinematics(robot, theta)
        R, t, axes = rodrigues_frames(robot, theta)
        assert np.array_equal(frames.rotations, R)
        assert np.array_equal(frames.origins, t)
        assert np.array_equal(frames.axes, axes)


def per_column_points(robot, frames):
    """Reference point matrix: each layout column read off its owner's frame on its own."""
    d = robot.dimension
    P = np.empty((d, len(robot.layout.columns)))
    for c, col in enumerate(robot.layout.columns):
        if col[0] == "p":
            P[:, c] = frames.origins[col[1]][:d]
        elif col[0] == "q":
            axis = robot.joints[col[1]].axis
            P[:, c] = (frames.origins[col[1]] + frames.rotations[col[1]] @ axis)[:d]
        else:
            ee = robot.end_effectors[col[1]]
            R = frames.rotations[ee.parent]
            offset = ee.tip if col[2] == "pos" else ee.tip + ee.tip / np.linalg.norm(ee.tip)
            P[:, c] = (frames.origins[ee.parent] + R @ offset)[:d]
    return P


@pytest.mark.parametrize("name", KERNEL_ROBOTS)
def test_joint_points_match_per_column_reference(name):
    """The one-gather point matrix equals the column-by-column one, zero signs included."""
    robot = KERNEL_ROBOTS[name]()
    rng = np.random.Generator(np.random.Philox(key=32))
    for theta in [sample_angles(rng, robot.num_joints) for _ in range(20)] + [np.zeros(robot.num_joints)]:
        _, frames = forward_kinematics(robot, theta)
        got, want = joint_points(robot, theta), per_column_points(robot, frames)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize(
    "make, fallbacks",
    [
        pytest.param(rpy_chain, (), id="rpy_chain"),
        pytest.param(branching_robot, (), id="branching_robot"),
        # each arm's last joint spins about its own tip, so no point reads its angle
        pytest.param(lambda: two_arm_tree(math.pi / 4), (4, 8), id="two_arm_tree"),
        # skew consecutive axes; the DH chains' last joint spins about its own tip too
        pytest.param(lambda: load_robot(panda_like_document()), (), id="panda_like"),
    ]
    + [
        pytest.param(
            lambda n=n, seed=seed: load_robot(random_dh_chain_document(n, seed)),
            (n - 1,),
            id=f"dh{n}-{seed}",
        )
        for n, seed in DH_CHAINS
    ],
)
def test_reconstruction_round_trip_rpy_and_branching(make, fallbacks):
    robot = make()
    rng = np.random.Generator(np.random.Philox(key=78))
    for _ in range(10):
        theta = sample_angles(rng, robot.num_joints)
        rec = reconstruct_angles(robot, joint_points(robot, theta))
        assert rec.residual < 1e-6
        assert rec.fallback_joints == fallbacks


def test_swung_children_of_an_end_effector_joint_break_a_lifted_row():
    """Joint b carries an end effector and two child joints (c, d).

    With a goal on b's end effector only, the cross pairs between that end
    effector's points and c's and d's points are what hold the children in
    b's frame: swinging c and d (with their end effectors) about b's axis
    must break a lifted row.
    """
    robot = branching_robot()
    index = robot.layout.index
    theta = np.array([0.3, -0.7, 1.1, 0.4])
    _, frames = forward_kinematics(robot, theta)
    points = joint_points(robot, theta)
    below = [  # c's and d's points and their end effectors'
        index[c]
        for c in robot.layout.columns
        if (c[1] in (1, 2) if c[0] == "ee" else c[1] in (2, 3))
    ]
    tip, ahead = points[:, index["ee", 0, "pos"]], points[:, index["ee", 0, "dir"]]
    qcqp = assemble_qcqp(robot, [Goal(end_effector=0, position=tip, direction=ahead - tip)])
    x, y, z = frames.axes[1]
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    origin = frames.origins[1][:, None]

    def violation(angle):
        spin = np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)
        P = points.copy()
        P[:, below] = origin + spin @ (P[:, below] - origin)
        eq, _ = evaluate(lift(qcqp), lift_points(P @ selection(qcqp)))
        return float(np.max(np.abs(eq)))

    assert violation(0.0) < 1e-12
    assert violation(0.5) > 0.1


def test_load_minimal_planar_chain():
    robot = load_robot(json.dumps(planar_chain_document([1.0, 1.0])))
    assert robot.num_joints == 2
    assert robot.dimension == 2


def test_self_parent_is_rejected():
    doc = planar_chain_document([1.0, 1.0])
    doc["joints"][1]["parent"] = "j2"
    with pytest.raises(RobotError, match="non-tree"):
        load_robot(doc)


def test_skew_axes_load_and_lift_exactly():
    """Skew consecutive axes load, and every lifted row holds at any angles.

    Both points of every structural pair are fixed in one joint's frame, so
    the lift is exact whatever the axes.  The six distances between two skew
    axes' points fix them only up to a mirror image, which the
    forward-kinematics check settles.
    """
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
    robot = load_robot(doc)
    rng = np.random.Generator(np.random.Philox(key=221))
    for _ in range(10):
        theta = sample_angles(rng, 2)
        poses, _ = forward_kinematics(robot, theta)
        goal = Goal(end_effector=0, position=poses[0].position, direction=poses[0].direction)
        qcqp = assemble_qcqp(robot, [goal])
        eq, _ = evaluate(lift(qcqp), lift_points(joint_points(robot, theta) @ selection(qcqp)))
        assert np.max(np.abs(eq)) < 1e-12


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


@pytest.mark.parametrize(
    "robot", [planar_two_link(), arm_6dof(), random_coplanar_chain(7, 1), two_arm_tree()],
    ids=["planar", "arm", "chain7", "tree"],
)
def test_fk_poses_are_joint_points_columns(robot):
    """Bit for bit: each pose is its tip column and the step to its direction column."""
    rng = np.random.Generator(np.random.Philox(key=12))
    index = robot.layout.index
    for _ in range(10):
        theta = sample_angles(rng, robot.num_joints)
        poses, _ = forward_kinematics(robot, theta)
        P = joint_points(robot, theta)
        assert len(poses) == len(robot.end_effectors)
        for k, pose in enumerate(poses):
            position = P[:, index["ee", k, "pos"]]
            assert np.array_equal(pose.position, position)
            assert np.array_equal(pose.direction, P[:, index["ee", k, "dir"]] - position)


def test_fk_reach_bound(planar_2r):
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(50):
        theta = sample_angles(rng, 2)
        poses, _ = forward_kinematics(planar_2r, theta)
        assert np.linalg.norm(poses[0].position) <= 2.0 + 1e-12


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(arm_6dof, id="arm"),
        pytest.param(lambda: random_coplanar_chain(7, 1), id="chain7"),
        pytest.param(lambda: two_arm_tree(math.pi / 4), id="two_arm_tree"),
        pytest.param(lambda: load_robot(panda_like_document()), id="panda_like"),
    ],
)
def test_reach_bounds_joint_origins_and_tips(make):
    """robot.reach bounds every joint origin's and end-effector tip's distance from the base."""
    robot = make()
    rng = np.random.Generator(np.random.Philox(key=19))
    for _ in range(200):
        poses, frames = forward_kinematics(robot, sample_angles(rng, robot.num_joints))
        points = np.vstack([frames.origins] + [pose.position for pose in poses])
        assert np.max(np.linalg.norm(points, axis=1)) <= robot.reach


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
    index = robot.layout.index
    pairs = {tuple(pair) for pair in robot._rigid_pairs.tolist()}
    P0 = joint_points(robot, np.zeros(2))

    def dist(a, b):
        i, j = sorted((index[a], index[b]))
        assert (i, j) in pairs
        diff = P0[:, i] - P0[:, j]
        return float(diff @ diff)

    L2 = 0.25
    assert dist(("p", 0), ("p", 1)) == pytest.approx(L2, abs=1e-12)
    assert dist(("q", 0), ("q", 1)) == pytest.approx(L2, abs=1e-12)
    assert dist(("p", 0), ("q", 1)) == pytest.approx(L2 + 1.0, abs=1e-12)
    assert dist(("q", 0), ("p", 1)) == pytest.approx(L2 + 1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_nominal_distance_invariance(seed, chain_6dof):
    robots = {0: chain_6dof, 1: random_coplanar_chain(5, seed=21),
              2: random_coplanar_chain(7, seed=22), 3: two_arm_tree(np.pi / 4)}
    robot = robots[seed]
    a, b = robot._rigid_pairs.T
    assert a.size > 0

    def squared_distances(P):
        return np.sum((P[:, a] - P[:, b]) ** 2, axis=0)

    nominal = squared_distances(joint_points(robot, np.zeros(robot.num_joints)))
    rng = np.random.Generator(np.random.Philox(key=100 + seed))
    worst = 0.0
    for _ in range(100):
        theta = sample_angles(rng, robot.num_joints)
        worst = max(worst, np.max(np.abs(squared_distances(joint_points(robot, theta)) - nominal)))
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
        lambda: load_robot(planar_chain_document(
            np.random.Generator(np.random.Philox(key=13)).uniform(0.2, 0.6, size=4)
        )),
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
    rebuilt = joint_points(chain_6dof, rec.theta)
    assert abs(rec.residual - np.max(np.linalg.norm(rebuilt - P, axis=0))) <= 1e-15

