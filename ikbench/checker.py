"""Result checks that share no code with the solver they judge.

Forward kinematics is recomputed here from the robot JSON with its own
rotation and transform code, so a fault in ``cidgik.kinematics`` cannot make
a wrong configuration look right.  Infeasibility certificates are checked by
rebuilding S = sum y_k A_k + sum mu_j B_j from the lifted constraint matrices.

Every check raises ``CheckError`` with a reason; returning means it passed.
"""

from __future__ import annotations

import math

import numpy as np

POSITION_TOL = 0.01  # m
DIRECTION_TOL = 0.01  # rad
CLEARANCE_TOL = 0.01  # m of penetration allowed into a sphere or below a plane
CERT_TOL = 1e-6


class CheckError(AssertionError):
    """A result failed an independent check."""


def _rpy_matrix(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis x-y-z (URDF) rotation: Rz(yaw) Ry(pitch) Rx(roll)."""
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry @ rx


def _axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation about a unit axis, built from the outer-product form."""
    c, s = math.cos(angle), math.sin(angle)
    x, y, z = axis
    return c * np.eye(3) + s * np.array(
        [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]
    ) + (1.0 - c) * np.outer(axis, axis)


class RobotChecker:
    """Forward kinematics of a serial or tree robot read from its JSON document."""

    def __init__(self, document: dict):
        if document.get("dimension") != 3:
            raise ValueError("the checker handles spatial (dimension 3) robots")
        joints = document["joints"]
        self.names = [j["name"] for j in joints]
        index = {name: i for i, name in enumerate(self.names)}
        self.parents = [-1 if j["parent"] == "base" else index[j["parent"]] for j in joints]
        self.translations = [np.array(j["translation"], float) for j in joints]
        self.fixed = [_rpy_matrix(*j.get("rotation_rpy", (0.0, 0.0, 0.0))) for j in joints]
        self.axes = [np.array(j["axis"], float) / np.linalg.norm(j["axis"]) for j in joints]
        self.effectors = [
            (index[e["parent"]], np.array(e["tip"], float)) for e in document["end_effectors"]
        ]

    @property
    def reach(self) -> float:
        """Upper bound on the distance from the world origin to any robot point."""
        links = sum(float(np.linalg.norm(t)) for t in self.translations)
        return links + max(float(np.linalg.norm(tip)) for _, tip in self.effectors)

    def forward(self, theta) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
        """(per end effector (position, unit direction), every robot point as rows).

        The robot points are each joint's origin and the point one unit along
        its world axis, then each end effector's tip and the point one unit
        along its pointing direction.
        """
        theta = np.asarray(theta, float)
        if theta.shape != (len(self.names),) or not np.all(np.isfinite(theta)):
            raise CheckError(f"configuration {theta!r} is not {len(self.names)} finite angles")
        rotations, origins, points = [], [], []
        for i, parent in enumerate(self.parents):
            R0 = np.eye(3) if parent < 0 else rotations[parent]
            o0 = np.zeros(3) if parent < 0 else origins[parent]
            origin = o0 + R0 @ self.translations[i]
            pre = R0 @ self.fixed[i]
            rotations.append(pre @ _axis_angle(self.axes[i], float(theta[i])))
            origins.append(origin)
            points += [origin, origin + pre @ self.axes[i]]
        poses = []
        for parent, tip in self.effectors:
            position = origins[parent] + rotations[parent] @ tip
            direction = rotations[parent] @ tip / np.linalg.norm(tip)
            poses.append((position, direction))
            points += [position, position + direction]
        return poses, np.array(points)


def check_configuration(robot: RobotChecker, theta, goals, spheres, planes) -> None:
    """A configuration reaches its goals and clears the workspace.

    goals: (end-effector index, position, direction or None);
    spheres: keep-out (center, radius); planes: (unit normal, offset) for
    the half-space n.x >= offset.  Every robot point must penetrate no sphere
    and no plane by CLEARANCE_TOL or more.
    """
    poses, points = robot.forward(theta)
    for k, position, direction in goals:
        reached, pointing = poses[k]
        miss = float(np.linalg.norm(reached - np.asarray(position, float)))
        if not miss < POSITION_TOL:
            raise CheckError(f"end effector {k} misses its goal by {miss:.3g} m")
        if direction is not None:
            cos = float(np.clip(pointing @ np.asarray(direction, float), -1.0, 1.0))
            angle = math.acos(cos)
            if not angle < DIRECTION_TOL:
                raise CheckError(f"end effector {k} points {angle:.3g} rad off its goal")
    for center, radius in spheres:
        depth = radius - float(np.min(np.linalg.norm(points - np.asarray(center, float), axis=1)))
        if not depth < CLEARANCE_TOL:
            raise CheckError(f"a robot point lies {depth:.3g} m inside a sphere at {center}")
    for normal, offset in planes:
        depth = offset - float(np.min(points @ np.asarray(normal, float)))
        if not depth < CLEARANCE_TOL:
            raise CheckError(f"a robot point lies {depth:.3g} m beyond a plane")


def check_unreachable(robot: RobotChecker, goals) -> None:
    """Every goal position lies farther from the origin than the robot can reach."""
    reach = robot.reach
    for k, position, _ in goals:
        distance = float(np.linalg.norm(position))
        if not distance > reach:
            raise CheckError(f"goal {k} at {distance:.3g} m lies within reach {reach:.3g} m")


def check_certificate(y, mu, eq_mats, eq_rhs, ineq_mats, ineq_rhs) -> None:
    """Farkas conditions: mu >= 0, S = sum y A + sum mu B PSD, a.y + b.mu < 0."""
    y = np.asarray(y, float)
    mu = np.asarray(mu, float)
    if y.shape != (len(eq_mats),) or mu.shape != (len(ineq_mats),):
        raise CheckError("certificate multipliers do not match the constraint count")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(mu))):
        raise CheckError("certificate multipliers are not finite")
    if mu.size and float(np.min(mu)) < 0.0:
        raise CheckError(f"inequality multiplier {float(np.min(mu)):.3g} is negative")
    S = np.tensordot(y, np.asarray(eq_mats), axes=1)
    if mu.size:
        S = S + np.tensordot(mu, np.asarray(ineq_mats), axes=1)
    lowest = float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])
    if lowest < -CERT_TOL:
        raise CheckError(f"S has eigenvalue {lowest:.3g} < -{CERT_TOL}")
    value = float(np.asarray(eq_rhs, float) @ y + np.asarray(ineq_rhs, float) @ mu)
    if value > -CERT_TOL:
        raise CheckError(f"a.y + b.mu = {value:.3g} is not below -{CERT_TOL}")
