"""Sample robot descriptions used by the tests, the benchmarks, and the demos."""

from __future__ import annotations

import numpy as np

from .kinematics import RobotModel, load_robot


def planar_chain_document(lengths) -> dict:
    """Planar chain, one joint per link: joint i+1 sits lengths[i] down the x axis
    of joint i, and the last link is the end-effector tip offset."""
    lengths = [float(v) for v in lengths]
    if len(lengths) < 1:
        raise ValueError("need at least one link")
    joints = []
    for i in range(len(lengths)):
        joints.append(
            {
                "name": f"j{i + 1}",
                "parent": "base" if i == 0 else f"j{i}",
                "translation": [0.0 if i == 0 else lengths[i - 1], 0.0, 0.0],
                "rotation_rpy": [0.0, 0.0, 0.0],
                "axis": [0.0, 0.0, 1.0],
            }
        )
    return {
        "dimension": 2,
        "joints": joints,
        "end_effectors": [{"parent": f"j{len(lengths)}", "tip": [lengths[-1], 0.0, 0.0]}],
    }


def planar_two_link() -> RobotModel:
    """Unit-link planar 2R arm: one variable point (the elbow)."""
    return load_robot(planar_chain_document([1.0, 1.0]))


def arm_6dof_document() -> dict:
    """Column-style 6-DOF spatial arm with alternating z / y axes.

    Every consecutive axis pair intersects on the base column at the zero
    configuration, and the fixed base points stay clear of the Platonic-solid
    obstacle presets scaled to this arm's reach.
    """
    joints = [
        ("j1", "base", [0.0, 0.0, 0.15], [0.0, 0.0, 1.0]),
        ("j2", "j1", [0.0, 0.0, 0.12], [0.0, 1.0, 0.0]),
        ("j3", "j2", [0.0, 0.0, 0.34], [0.0, 0.0, 1.0]),
        ("j4", "j3", [0.0, 0.0, 0.31], [0.0, 1.0, 0.0]),
        ("j5", "j4", [0.0, 0.0, 0.27], [0.0, 0.0, 1.0]),
        ("j6", "j5", [0.0, 0.0, 0.16], [0.0, 1.0, 0.0]),
    ]
    return {
        "dimension": 3,
        "joints": [
            {
                "name": name,
                "parent": parent,
                "translation": translation,
                "rotation_rpy": [0.0, 0.0, 0.0],
                "axis": axis,
            }
            for name, parent, translation, axis in joints
        ],
        "end_effectors": [{"parent": "j6", "tip": [0.0, 0.0, 0.10]}],
    }


def arm_6dof() -> RobotModel:
    return load_robot(arm_6dof_document())


def random_coplanar_chain_document(num_joints: int, seed: int) -> dict:
    """Random serial chain whose consecutive axes are coplanar by construction.

    Each new joint either keeps the parent's axis direction (parallel, free
    offset) or picks a fresh direction with its origin placed on the parent's
    axis line (intersecting).  Link lengths fall in [0.2, 0.6] m.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))

    def random_unit():
        while True:
            v = rng.normal(size=3)
            n = np.linalg.norm(v)
            if n > 1e-6:
                return v / n

    joints = []
    axis = np.array([0.0, 0.0, 1.0])
    joints.append(
        {
            "name": "j1",
            "parent": "base",
            "translation": [0.0, 0.0, float(rng.uniform(0.2, 0.4))],
            "rotation_rpy": [0.0, 0.0, 0.0],
            "axis": list(axis),
        }
    )
    for i in range(1, num_joints):
        length = float(rng.uniform(0.2, 0.6))
        if rng.random() < 0.5:
            # Parallel: any offset keeps the axes coplanar.
            offset = random_unit() * length
            new_axis = axis
        else:
            # Intersecting: put the new origin on the parent's axis line.
            offset = axis * length * float(rng.choice([-1.0, 1.0]))
            new_axis = random_unit()
            while abs(new_axis @ axis) > 0.95:
                new_axis = random_unit()
        joints.append(
            {
                "name": f"j{i + 1}",
                "parent": f"j{i}",
                "translation": [float(v) for v in offset],
                "rotation_rpy": [0.0, 0.0, 0.0],
                "axis": [float(v) for v in new_axis],
            }
        )
        axis = new_axis
    tip = random_unit() * float(rng.uniform(0.1, 0.3))
    return {
        "dimension": 3,
        "joints": joints,
        "end_effectors": [{"parent": f"j{num_joints}", "tip": [float(v) for v in tip]}],
    }


def random_coplanar_chain(num_joints: int, seed: int) -> RobotModel:
    return load_robot(random_coplanar_chain_document(num_joints, seed))
