"""Feasible problem generation by rejection sampling over configurations.

Instances follow the benchmark protocol: draw joint angles uniformly on
(-pi, pi], reject configurations that collide with the workspace, and use the
sampled configuration's end-effector poses as goals, so every generated
instance is feasible with the sample as a witness.  The Philox counter-based
generator keeps instances reproducible from (robot, environment, seed) alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import Goal, QcqpInstance, assemble_qcqp
from .kinematics import RobotModel, forward_kinematics, joint_points
from .workspace import WorkspaceSpec, config_in_collision, environment

logger = logging.getLogger("cidgik.generator")

REJECTION_CAP = 10_000


class GenerationError(RuntimeError):
    """No collision-free configuration found within the rejection cap."""


@dataclass(eq=False)
class GeneratedProblem:
    qcqp: QcqpInstance
    ground_truth: np.ndarray  # collision-free configuration reaching the goals
    seed: int
    environment: str


def _sample_theta(rng: np.random.Generator, n: int) -> np.ndarray:
    # uniform on (-pi, pi]: map [0, 2*pi) draws through pi - u
    return np.pi - rng.uniform(0.0, 2.0 * np.pi, size=n)


def _respects_planes(robot: RobotModel, theta, workspace: WorkspaceSpec) -> bool:
    if not workspace.planes:
        return True
    P = joint_points(robot, theta)
    for _, plane in workspace.planes:
        vals = plane.normal @ P - plane.offset
        if plane.relation == "above" and np.min(vals) < 0.0:
            return False
        if plane.relation == "on" and np.max(np.abs(vals)) > 1e-9:
            return False
    return True


def generate(
    robot: RobotModel,
    environment_name: str,
    seed: int,
    *,
    table_obstacles: int = 100,
) -> GeneratedProblem:
    """Draw one feasible instance in the named environment preset."""
    workspace = environment(environment_name, robot, table_obstacles=table_obstacles)
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = len(robot.joints)
    for attempt in range(REJECTION_CAP):
        theta = _sample_theta(rng, n)
        if config_in_collision(robot, theta, workspace.spheres):
            continue
        if not _respects_planes(robot, theta, workspace):
            continue
        poses, _ = forward_kinematics(robot, theta)
        goals = [
            Goal(end_effector=k, position=p.position, direction=p.direction)
            for k, p in enumerate(poses)
        ]
        qcqp = assemble_qcqp(robot, goals, workspace)
        logger.debug("seed %d accepted after %d draws", seed, attempt + 1)
        return GeneratedProblem(
            qcqp=qcqp, ground_truth=theta, seed=seed, environment=environment_name
        )
    raise GenerationError(
        f"no collision-free configuration in {REJECTION_CAP} draws; "
        f"environment {environment_name!r} is too cluttered for this robot"
    )
