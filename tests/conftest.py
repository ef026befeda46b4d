import numpy as np
import pytest

from cidgik import Goal, Sphere, WorkspaceSpec, assemble_qcqp
from cidgik.robots import arm_6dof, arm_6dof_document, planar_two_link
from cidgik.kinematics import load_robot


@pytest.fixture(scope="session")
def planar_2r():
    return planar_two_link()


@pytest.fixture(scope="session")
def chain_6dof():
    return arm_6dof()


@pytest.fixture(scope="session")
def fig2_robot():
    """3-DOF spatial arm whose first joint is anchored (base yaw, two pitches)."""
    return load_robot(
        {
            "dimension": 3,
            "joints": [
                {
                    "name": "yaw",
                    "parent": "base",
                    "translation": [0.0, 0.0, 0.2],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 0.0, 1.0],
                },
                {
                    "name": "shoulder",
                    "parent": "yaw",
                    "translation": [0.0, 0.0, 0.2],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 1.0, 0.0],
                },
                {
                    "name": "elbow",
                    "parent": "shoulder",
                    "translation": [0.5, 0.0, 0.0],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 1.0, 0.0],
                },
            ],
            "end_effectors": [{"parent": "elbow", "tip": [0.4, 0.0, 0.0]}],
        }
    )


@pytest.fixture()
def toy_qcqp(planar_2r):
    """Planar two-link reach with the elbow-down root cut off by a disc."""
    goal = Goal(end_effector=0, position=np.array([1.0, 1.0]))
    workspace = WorkspaceSpec(
        spheres=[Sphere(center=np.array([1.0, 0.0]), radius=0.5)]
    )
    return assemble_qcqp(planar_2r, [goal], workspace)


def sample_angles(rng, n):
    return np.pi - rng.uniform(0.0, 2.0 * np.pi, size=n)


def two_arm_tree(mount_turn: float = 0.0):
    """A z-axis torso at (0, 0, 0.2) carrying two 4-joint arms (axes y, z, y, z).

    The arms start at (0, +-0.2, 0.2) from the torso, with links of 0.3, 0.3
    and 0.2 m along z and a tip at (0, 0, 0.1); the left arm comes first in
    the document, and each tip is an end effector.  mount_turn turns the
    right arm's mount about the torso axis, so its axis plane leaves the
    left arm's.
    """
    c, s = np.cos(mount_turn), np.sin(mount_turn)

    def arm(side, start, yaw):
        links = [start, [0.0, 0.0, 0.3], [0.0, 0.0, 0.3], [0.0, 0.0, 0.2]]
        axes = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]] * 2
        return [
            {
                "name": f"{side}{i}",
                "parent": "torso" if i == 0 else f"{side}{i - 1}",
                "translation": link,
                "rotation_rpy": [0.0, 0.0, yaw if i == 0 else 0.0],
                "axis": axis,
            }
            for i, (link, axis) in enumerate(zip(links, axes))
        ]

    torso = {
        "name": "torso",
        "parent": "base",
        "translation": [0.0, 0.0, 0.2],
        "rotation_rpy": [0.0, 0.0, 0.0],
        "axis": [0.0, 0.0, 1.0],
    }
    return load_robot(
        {
            "dimension": 3,
            "joints": [torso]
            + arm("left", [0.0, 0.2, 0.2], 0.0)
            + arm("right", [0.2 * s, -0.2 * c, 0.2], mount_turn),
            "end_effectors": [
                {"parent": "left3", "tip": [0.0, 0.0, 0.1]},
                {"parent": "right3", "tip": [0.0, 0.0, 0.1]},
            ],
        }
    )


def dh_chain_document(rows, tip):
    """Serial chain from modified-DH rows (a, d, alpha), one joint per row.

    Joint i sits at Rx(alpha) Tx(a) Tz(d) in joint i-1's frame: translation
    (a, -d sin alpha, d cos alpha), rotation (alpha, 0, 0), spin about its z
    axis.  Consecutive axes are skew wherever a and alpha are both nonzero.
    """
    joints = [
        {
            "name": f"j{i + 1}",
            "parent": "base" if i == 0 else f"j{i}",
            "translation": [float(a), float(-d * np.sin(alpha)), float(d * np.cos(alpha))],
            "rotation_rpy": [float(alpha), 0.0, 0.0],
            "axis": [0.0, 0.0, 1.0],
        }
        for i, (a, d, alpha) in enumerate(rows)
    ]
    return {
        "dimension": 3,
        "joints": joints,
        "end_effectors": [{"parent": f"j{len(rows)}", "tip": list(tip)}],
    }


def panda_like_document():
    """A 7-joint arm from Franka's published modified-DH values (not checked
    against an offline source, hence "like"); j3-j4, j4-j5 and j6-j7 are skew,
    and j2's origin coincides with j1's, an anchor."""
    half = np.pi / 2
    rows = [
        (0.0, 0.333, 0.0),
        (0.0, 0.0, -half),
        (0.0, 0.316, half),
        (0.0825, 0.0, half),
        (-0.0825, 0.384, -half),
        (0.0, 0.0, half),
        (0.088, 0.0, half),
    ]
    return dh_chain_document(rows, (0.05, 0.0, 0.107))


def random_dh_chain_document(num_joints, seed):
    """Random modified-DH chain with tip (0, 0, 0.1): joint 1 draws d ~ U[0.05, 0.3]
    with a = alpha = 0, and each later joint draws a ~ U[0, 0.15], d ~ U[0.05, 0.3]
    and alpha ~ U(-pi, pi), in that order."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = [(0.0, rng.uniform(0.05, 0.3), 0.0)]
    for _ in range(num_joints - 1):
        rows.append((rng.uniform(0.0, 0.15), rng.uniform(0.05, 0.3), rng.uniform(-np.pi, np.pi)))
    return dh_chain_document(rows, (0.0, 0.0, 0.1))


# Philox seed 100 n + s for n = 6, 7, 8 joints and s = 0..3.
DH_CHAINS = [(n, 100 * n + s) for n in (6, 7, 8) for s in range(4)]


def coincident_arm_document():
    """arm_6dof with j1 raised to j2's height and j2 on j1's origin, so that
    j2's unanchored point p merges onto j1's anchored one."""
    document = arm_6dof_document()
    document["joints"][0]["translation"] = [0.0, 0.0, 0.27]
    document["joints"][1]["translation"] = [0.0, 0.0, 0.0]
    return document
