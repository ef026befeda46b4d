import numpy as np
import pytest

from cidgik import Goal, Sphere, WorkspaceSpec, assemble_qcqp
from cidgik.robots import arm_6dof, planar_two_link
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
