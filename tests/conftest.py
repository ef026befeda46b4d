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
