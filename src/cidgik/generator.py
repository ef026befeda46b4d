"""Feasible problem generation by rejection sampling over configurations.

Instances follow the benchmark protocol: draw joint angles uniformly on
(-pi, pi], reject the draw when workspace.penetration finds any depth above 0
among its joint_points (every sphere and plane against every robot point, the
end effectors' tip and direction points too, as ikbench's checker does), and
read the goals off the same points, so every generated instance is feasible
with the sample as a witness, bit for bit.  The Philox counter-based
generator keeps instances reproducible from (robot, environment, seed) alone.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np

from .graph import Goal, QcqpInstance, assemble_qcqp
from .kinematics import RobotModel, _poses, joint_points
from .workspace import environment, penetration

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


def _check_seed(seed) -> None:
    """Reject anything but an integer Philox key in [0, 2**128) (bools included)."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def generate(
    robot: RobotModel,
    environment_name: str,
    seed: int,
    *,
    table_obstacles: int = 100,
) -> GeneratedProblem:
    """Draw one feasible instance in the named environment preset."""
    _check_seed(seed)
    workspace = environment(environment_name, robot, table_obstacles=table_obstacles)
    rng = np.random.Generator(np.random.Philox(key=seed))
    planes = [plane for _, plane in workspace.planes]
    for attempt in range(REJECTION_CAP):
        # uniform on (-pi, pi]: map [0, 2*pi) draws through pi - u
        theta = np.pi - rng.uniform(0.0, 2.0 * np.pi, size=len(robot.joints))
        P = joint_points(robot, theta)
        if penetration(P, workspace.spheres, planes) > 0.0:
            continue
        goals = [
            Goal(end_effector=k, position=pose.position, direction=pose.direction)
            for k, pose in enumerate(_poses(robot, P))
        ]
        qcqp = assemble_qcqp(robot, goals, workspace)
        logger.debug("seed %d accepted after %d draws", seed, attempt + 1)
        return GeneratedProblem(
            qcqp=qcqp, ground_truth=theta, seed=int(seed), environment=environment_name
        )
    raise GenerationError(
        f"no collision-free configuration in {REJECTION_CAP} draws; "
        f"environment {environment_name!r} is too cluttered for this robot"
    )
