"""Robot model, forward kinematics, and the configuration-invariant point placement.

A robot is a tree of revolute joints.  Each unanchored joint carries a pair of
points (p, q) one unit apart along its rotation axis; anchored joints (those
whose axis never moves, e.g. the base) contribute fixed points instead.  The
distance between any two points one joint's frame holds is invariant to the
joint angles, which is what the distance-geometric solver exploits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ON_AXIS_TOL = 1e-9


class RobotError(ValueError):
    """Malformed robot description or invalid kinematic structure."""


def _rpy_to_quat(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Quaternion (w, x, y, z) for extrinsic x-y-z (URDF-style) Euler angles."""
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    return np.array(
        [
            cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr,
        ]
    )


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


_EYE = np.eye(3)
_ORIGIN = np.zeros(3)


def _spin(K: np.ndarray, KK: np.ndarray, sin, cos) -> np.ndarray:
    """Rodrigues rotation I + sin θ K + (1 - cos θ) K² from an axis's terms K, K @ K."""
    return _EYE + sin * K + (1 - cos) * KK


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis: np.cross's products without its axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


@dataclass(frozen=True, eq=False)
class Joint:
    """One revolute joint: a fixed transform from the parent frame plus a spin axis."""

    name: str
    parent: int  # index of the parent joint, -1 for the fixed base
    translation: np.ndarray  # (3,) offset in the parent frame, meters
    rotation: np.ndarray  # (4,) unit quaternion (w, x, y, z), fixed frame rotation
    axis: np.ndarray  # (3,) unit rotation axis in the local frame

    def __post_init__(self):
        if abs(np.linalg.norm(self.axis) - 1.0) > 1e-12:
            raise RobotError(f"joint {self.name!r}: axis must have unit norm")
        if abs(np.linalg.norm(self.rotation) - 1.0) > 1e-12:
            raise RobotError(f"joint {self.name!r}: rotation quaternion must have unit norm")


@dataclass(frozen=True, eq=False)
class EndEffector:
    parent: int
    tip: np.ndarray  # (3,) nonzero offset in the parent joint frame, meters

    def __post_init__(self):
        if np.linalg.norm(self.tip) <= 0.0:
            raise RobotError("end-effector tip offset must be nonzero")


@dataclass(frozen=True, eq=False)
class Pose:
    """End-effector position plus unit pointing direction (no roll about it)."""

    position: np.ndarray
    direction: np.ndarray


@dataclass(frozen=True, eq=False)
class JointFrames:
    """World frames of every joint at some configuration, as _frames walks them."""

    rotations: np.ndarray  # (N, 3, 3) orientation after the joint's own rotation
    origins: np.ndarray  # (N, 3) frame origins (invariant to the joint's own angle)
    axes: np.ndarray  # (N, 3) world direction of each rotation axis


@dataclass(frozen=True)
class PointLayout:
    """Column bookkeeping for the point matrix produced by joint_points.

    Columns are: (p, q) of every unanchored joint in index order, then (p, q)
    of every anchored joint, then per end-effector the tip point and the
    direction point (tip + unit pointing direction).  Planar robots have all
    axes out of plane, so the q points carry no information and are omitted.
    """

    columns: tuple[tuple, ...]
    num_variables: int

    @cached_property
    def index(self) -> dict:
        return {c: i for i, c in enumerate(self.columns)}


@dataclass(frozen=True, eq=False)
class RobotModel:
    joints: tuple[Joint, ...]
    end_effectors: tuple[EndEffector, ...]
    dimension: int
    document: dict | None = None  # source description, kept for serialization

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids = [[] for _ in self.joints]
        for i, j in enumerate(self.joints):
            if j.parent >= 0:
                kids[j.parent].append(i)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def ancestors(self) -> np.ndarray:
        """(joints, joints) mask: row j marks joint j and every ancestor of it."""
        mask = np.eye(len(self.joints), dtype=bool)
        # Joints are listed parents-first, so each chain extends its parent's.
        for i, joint in enumerate(self.joints):
            if joint.parent >= 0:
                mask[i] |= mask[joint.parent]
        return mask

    @cached_property
    def _fixed_rotations(self) -> np.ndarray:
        return np.array([_quat_to_matrix(j.rotation) for j in self.joints])

    @cached_property
    def _axis_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(K, K @ K) per joint, K the skew matrix of the joint's local axis."""
        axes = [j.axis for j in self.joints]
        K = np.array([[[0, -z, y], [z, 0, -x], [-y, x, 0]] for x, y, z in axes])
        return K, np.array([k @ k for k in K])

    @cached_property
    def anchored(self) -> tuple[bool, ...]:
        """A joint is anchored iff its axis line coincides with every ancestor's.

        Rotating about a line leaves only that same line invariant, so the
        axis of joint i is configuration-invariant exactly when all joints on
        the path from the base share its axis line (checked at zero angles).
        """
        frames = _frames(self, np.zeros(len(self.joints)))
        flags = []
        for i, j in enumerate(self.joints):
            if j.parent < 0:
                flags.append(True)
                continue
            p = j.parent
            anchored = bool(flags[p]) and _same_line(
                frames.origins[i], frames.axes[i], frames.origins[p], frames.axes[p]
            )
            flags.append(bool(anchored))
        return tuple(flags)

    @cached_property
    def layout(self) -> PointLayout:
        cols = []
        planar = self.dimension == 2
        for i in range(len(self.joints)):
            if not self.anchored[i]:
                cols.append(("p", i))
                if not planar:
                    cols.append(("q", i))
        num_vars = len(cols)
        for i in range(len(self.joints)):
            if self.anchored[i]:
                cols.append(("p", i))
                if not planar:
                    cols.append(("q", i))
        for k in range(len(self.end_effectors)):
            cols.append(("ee", k, "pos"))
            cols.append(("ee", k, "dir"))
        return PointLayout(columns=tuple(cols), num_variables=num_vars)

    @cached_property
    def _point_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(owner joint, (columns, 3, 1) offset in its frame) of every layout column.

        p sits at its joint's origin and q one unit along its axis, which the
        joint's own rotation fixes; an end effector's tip point sits at the
        tip and its direction point one unit further along it.
        """
        owners, offsets = [], []
        for kind, k, *end in self.layout.columns:
            if kind == "ee":
                tip = np.asarray(self.end_effectors[k].tip, dtype=float)
                owners.append(self.end_effectors[k].parent)
                offsets.append(tip if end == ["pos"] else tip + tip / np.linalg.norm(tip))
            else:
                owners.append(k)
                offsets.append(self.joints[k].axis if kind == "q" else np.zeros(3))
        return np.array(owners, dtype=int), np.array(offsets, dtype=float).reshape(-1, 3, 1)

    @cached_property
    def _rigid_pairs(self) -> np.ndarray:
        """(pairs, 2) layout columns a < b that one joint's frame holds both of.

        Each column is held by its owner's frame (robot._point_table), and p
        and q by the parent's frame too, since they lie on their joint's
        axis.  So a pair's distance is the same at every configuration.
        """
        owners, _ = self._point_table
        held = np.zeros((len(owners), len(self.joints)), dtype=bool)
        held[np.arange(len(owners)), owners] = True
        for c, (kind, k, *_) in enumerate(self.layout.columns):
            if kind in ("p", "q") and self.joints[k].parent >= 0:
                held[c, self.joints[k].parent] = True
        return np.argwhere(np.triu(held @ held.T, 1))

    @cached_property
    def _references(self) -> tuple[tuple[tuple[int, np.ndarray], ...], ...]:
        """Per joint, its reconstruction references: (layout column, offset) pairs.

        The columns are the points below the joint in breadth-first order
        (its own end effectors' points, then each child's p, q and
        end-effector points, then deeper).  Each offset is the point's
        position in the joint's frame before its own spin with every angle
        below held at zero, so it is read off the zero configuration, where
        that frame is the joint's frame.  The predictions are valid because
        when a child's points sit on the joint's axis the child axis is
        collinear, so deeper points still rotate rigidly with the joint's
        angle.
        """
        index = self.layout.index
        frames = _frames(self, np.zeros(len(self.joints)))
        P0 = _points(self, frames)
        attached = [[] for _ in self.joints]
        for col in self.layout.columns:
            if col[0] == "ee":
                attached[self.end_effectors[col[1]].parent].append(index[col])
        table = []
        for i in range(len(self.joints)):
            cols, below = list(attached[i]), list(self.children[i])
            for c in below:  # grows as it goes: a breadth-first walk
                cols += [index[col] for col in (("p", c), ("q", c)) if col in index] + attached[c]
                below.extend(self.children[c])
            offsets = (P0[cols] - frames.origins[i]) @ frames.rotations[i]
            table.append(tuple(zip(cols, offsets)))
        return tuple(table)

    @cached_property
    def reach(self) -> float:
        """Upper bound on the distance from the base to a joint origin or an end-effector tip.

        It sums every joint's translation and adds the longest tip.  A q
        point and a direction point sit one unit from their joint origin and
        tip, so they can lie up to one unit beyond it.
        """
        total = sum(float(np.linalg.norm(j.translation)) for j in self.joints)
        tip = max(
            (float(np.linalg.norm(e.tip)) for e in self.end_effectors), default=0.0
        )
        return total + tip

    @property
    def num_joints(self) -> int:
        return len(self.joints)


def _same_line(o1, a1, o2, a2, tol=ON_AXIS_TOL) -> bool:
    if np.linalg.norm(_cross(a1, a2)) > tol:
        return False
    return np.linalg.norm(_cross(a1, o2 - o1)) <= tol * max(1.0, np.linalg.norm(o2 - o1))


def _frames(robot: RobotModel, theta: np.ndarray, choose=None) -> JointFrames:
    """The one frame walk: every joint's world frame at theta, parents first.

    All spins come at once from the robot's cached axis terms, so the loop
    only multiplies matrices.  With `choose` given, theta is filled in
    instead: choose(i, R_pre, origin, world axis) returns joint i's angle
    from its ancestors' frames (R_pre is the rotation before its own spin).
    """
    n = len(robot.joints)
    R, t, axes = np.empty((n, 3, 3)), np.empty((n, 3)), np.empty((n, 3))
    fixed = robot._fixed_rotations
    K, KK = robot._axis_terms
    spins = _spin(K, KK, np.sin(theta)[:, None, None], np.cos(theta)[:, None, None])
    for i, j in enumerate(robot.joints):
        Rp, tp = (_EYE, _ORIGIN) if j.parent < 0 else (R[j.parent], t[j.parent])
        t[i] = tp + Rp @ j.translation
        R_pre = Rp @ fixed[i]
        axes[i] = R_pre @ j.axis
        if choose is not None:
            theta[i] = angle = choose(i, R_pre, t[i], axes[i])
            spins[i] = _spin(K[i], KK[i], math.sin(angle), math.cos(angle))
        R[i] = R_pre @ spins[i]
    return JointFrames(rotations=R, origins=t, axes=axes)


def _check_theta(robot: RobotModel, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(robot.joints),):
        raise ValueError(
            f"expected {len(robot.joints)} joint angles, got shape {theta.shape}"
        )
    if not np.all(np.isfinite(theta)):
        raise ValueError("joint angles must be finite")
    return theta


def load_robot(document: str | dict) -> RobotModel:
    """Parse and validate a robot description.

    The document is JSON with the shape::

        {"dimension": 2|3,
         "joints": [{"name", "parent": name|"base", "translation": [x,y,z],
                     "rotation_rpy": [r,p,y], "axis": [x,y,z]}, ...],
         "end_effectors": [{"parent": name, "tip": [x,y,z]}, ...]}

    Angles are radians, lengths meters.  Joints must be listed parents-first;
    any revolute tree loads, whatever its axes.  Planar robots must keep
    everything in the z=0 plane with all axes along z.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as e:
            raise RobotError(f"robot document is not valid JSON: {e}") from e
    else:
        doc = document
    if not isinstance(doc, dict):
        raise RobotError("robot document must be a JSON object")

    dim = doc.get("dimension")
    if type(dim) is not int or dim not in (2, 3):
        raise RobotError(f"dimension must be 2 or 3, got {dim!r}")
    raw_joints = doc.get("joints")
    if not isinstance(raw_joints, list) or not raw_joints:
        raise RobotError("robot must declare a non-empty 'joints' list")

    name_to_index: dict[str, int] = {}
    joints = []
    for entry in raw_joints:
        if not isinstance(entry, dict):
            raise RobotError(f"every joint must be a JSON object, got {entry!r}")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise RobotError("every joint needs a non-empty string name")
        if name in name_to_index:
            raise RobotError(f"duplicate joint name {name!r}")
        parent_name = entry.get("parent")
        if not isinstance(parent_name, str):
            raise RobotError(f"joint {name!r}: parent must be a joint name or 'base'")
        if parent_name == name:
            raise RobotError(f"non-tree topology: joint {name!r} is its own parent")
        if parent_name == "base":
            parent = -1
        elif parent_name in name_to_index:
            parent = name_to_index[parent_name]
        else:
            raise RobotError(
                f"non-tree topology: joint {name!r} has unknown parent "
                f"{parent_name!r} (parents must be declared first)"
            )
        translation = _vector3(entry.get("translation"), f"joint {name!r} translation")
        rpy = _vector3(entry.get("rotation_rpy", [0.0, 0.0, 0.0]), f"joint {name!r} rotation_rpy")
        axis = _vector3(entry.get("axis"), f"joint {name!r} axis")
        norm = np.linalg.norm(axis)
        if norm < 1e-12:
            raise RobotError(f"joint {name!r}: axis must be nonzero")
        axis = axis / norm
        if dim == 2:
            if abs(abs(axis[2]) - 1.0) > 1e-9:
                raise RobotError(
                    f"joint {name!r}: planar robots need all axes perpendicular "
                    "to the plane (axis along z)"
                )
            if abs(translation[2]) > 1e-12 or abs(rpy[0]) > 1e-12 or abs(rpy[1]) > 1e-12:
                raise RobotError(
                    f"joint {name!r}: planar robots must stay in the z=0 plane"
                )
        name_to_index[name] = len(joints)
        joints.append(
            Joint(
                name=name,
                parent=parent,
                translation=translation,
                rotation=_rpy_to_quat(*rpy),
                axis=axis,
            )
        )

    raw_ees = doc.get("end_effectors")
    if not isinstance(raw_ees, list) or not raw_ees:
        raise RobotError("robot must declare at least one end effector")
    ees = []
    for entry in raw_ees:
        if not isinstance(entry, dict):
            raise RobotError(f"every end effector must be a JSON object, got {entry!r}")
        parent_name = entry.get("parent")
        if not isinstance(parent_name, str) or parent_name not in name_to_index:
            raise RobotError(f"end effector parent {parent_name!r} is not a joint")
        tip = _vector3(entry.get("tip"), "end effector tip")
        if dim == 2 and abs(tip[2]) > 1e-12:
            raise RobotError("planar end-effector tips must have zero z component")
        ees.append(EndEffector(parent=name_to_index[parent_name], tip=tip))

    return RobotModel(
        joints=tuple(joints),
        end_effectors=tuple(ees),
        dimension=dim,
        document=doc,
    )


def _vector3(value, what: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise RobotError(f"{what} must be a list of 3 numbers")
    try:
        v = np.array([float(x) for x in value])
    except (TypeError, ValueError) as e:
        raise RobotError(f"{what} must be a list of 3 numbers") from e
    if not np.all(np.isfinite(v)):
        raise RobotError(f"{what} must be finite")
    return v


def forward_kinematics(robot: RobotModel, theta) -> tuple[list[Pose], JointFrames]:
    """World pose of every end effector, read off the point table, plus all joint frames."""
    frames = _frames(robot, _check_theta(robot, theta))
    return _poses(robot, _points(robot, frames)[:, : robot.dimension].T), frames


def _poses(robot: RobotModel, P: np.ndarray) -> list[Pose]:
    """Per end effector, its tip column of P and the step from it to its direction column."""
    index = robot.layout.index
    poses = []
    for k in range(len(robot.end_effectors)):
        position = P[:, index["ee", k, "pos"]]
        poses.append(Pose(position=position, direction=P[:, index["ee", k, "dir"]] - position))
    return poses


def joint_points(robot: RobotModel, theta) -> np.ndarray:
    """Point matrix P with columns laid out per robot.layout.

    p_i sits at the joint-i frame origin and q_i = p_i + (world axis of i), so
    ||p_i - q_i|| = 1 for every configuration.  End-effector columns are the
    tip position and the point one unit along the pointing direction.
    """
    frames = _frames(robot, _check_theta(robot, theta))
    return np.ascontiguousarray(_points(robot, frames)[:, : robot.dimension].T)


def _points(robot: RobotModel, frames: JointFrames, columns=slice(None)) -> np.ndarray:
    """(columns, 3) world points of the given layout columns at the walk's frames.

    Column c sits at origins[o] + rotations[o] @ offset for its owner joint o
    and its offset in o's frame, both from robot._point_table.
    """
    owners, offsets = robot._point_table
    o = owners[columns]
    return frames.origins[o] + (frames.rotations[o] @ offsets[columns])[..., 0]


@dataclass(frozen=True)
class ReconstructionResult:
    theta: np.ndarray
    residual: float  # max column-wise distance between given and rebuilt points
    fallback_joints: tuple[int, ...] = ()  # joints recovered as 0 (no usable reference)


def reconstruct_angles(robot: RobotModel, points: np.ndarray) -> ReconstructionResult:
    """Recover joint angles from a solved point matrix (columns per robot.layout).

    Picks each angle inside one root-to-leaves frame walk (_frames): the
    recovered ancestor angles fix the joint's origin and world axis, and the
    angle is the atan2 between the zero-angle prediction and the observed
    position of a descendant reference point, both projected into the plane
    orthogonal to the axis.  References (robot._references) are tried in
    breadth-first order (attached end-effector points, then child p and q,
    then deeper); if every one is on the axis the angle falls back to 0 and
    the joint is reported.  NaN columns are skipped, so callers may leave
    unknown end-effector direction points unfilled.  The residual is
    measured on the points of the walk's own frames.
    """
    layout = robot.layout
    points = np.asarray(points, dtype=float)
    if points.shape != (robot.dimension, len(layout.columns)):
        raise ValueError(
            f"expected point matrix of shape {(robot.dimension, len(layout.columns))}, "
            f"got {points.shape}"
        )
    P3 = np.zeros((len(layout.columns), 3))
    P3[:, : robot.dimension] = points.T
    known = np.all(np.isfinite(points), axis=0)
    references = robot._references
    fallbacks = []

    def choose(i, R_pre, o, a):
        for col, offset in references[i]:
            if not known[col]:
                continue
            u0 = R_pre @ offset
            u0 = u0 - (u0 @ a) * a
            u1 = P3[col] - o
            u1 = u1 - (u1 @ a) * a
            if np.linalg.norm(u0) < ON_AXIS_TOL or np.linalg.norm(u1) < ON_AXIS_TOL:
                continue
            return math.atan2(a @ _cross(u0, u1), u0 @ u1)
        fallbacks.append(i)
        return 0.0

    theta = np.zeros(len(robot.joints))
    rebuilt = _points(robot, _frames(robot, theta, choose))[:, : robot.dimension].T
    gaps = np.linalg.norm(rebuilt[:, known] - points[:, known], axis=0)
    return ReconstructionResult(theta, float(np.max(gaps, initial=0.0)), tuple(fallbacks))
