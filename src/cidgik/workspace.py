"""Workspace constraints: spheres, planes, auxiliary on-link points, self-collision."""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .kinematics import RobotModel

ENVIRONMENT_NAMES = ("free", "octahedron", "cube", "icosahedron", "table")

_TABLE_PLACEMENT_SEED = 0xC1D61  # fixed so every batch shares one table layout


@dataclass(frozen=True, eq=False)
class Sphere:
    """Spherical keep-out (obstacle) or keep-in (free-space ball) region."""

    center: np.ndarray
    radius: float
    sense: str = "keep_out"

    def __post_init__(self):
        if not np.all(np.isfinite(np.asarray(self.center, dtype=float))):
            raise ValueError("sphere center must be finite")
        if not 0.0 < self.radius < math.inf:  # NaN fails too
            raise ValueError("sphere radius must be positive and finite")
        if self.sense not in ("keep_out", "keep_in"):
            raise ValueError(f"unknown sphere sense {self.sense!r}")


@dataclass(frozen=True, eq=False)
class Plane:
    """Half-space or containment plane: x.n == c ('on') or x.n >= c ('above')."""

    normal: np.ndarray
    offset: float
    relation: str = "above"

    def __post_init__(self):
        if not abs(np.linalg.norm(self.normal) - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError("plane normal must have unit norm")
        if not math.isfinite(self.offset):
            raise ValueError("plane offset must be finite")
        if self.relation not in ("on", "above"):
            raise ValueError(f"unknown plane relation {self.relation!r}")


@dataclass(frozen=True)
class AuxPoint:
    """Extra collision-checked point at fraction alpha along an equality edge."""

    edge: tuple[int, int]
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("aux point interpolation must lie strictly in (0, 1)")


@dataclass(eq=False)
class WorkspaceSpec:
    """Everything the environment imposes beyond the robot's own geometry.

    Plane entries pair a variable vertex index with a Plane; a vertex of None
    applies the plane to every variable point once the instance is assembled.
    """

    spheres: list[Sphere] = field(default_factory=list)
    planes: list[tuple[int | None, Plane]] = field(default_factory=list)
    aux_points: list[AuxPoint] = field(default_factory=list)
    self_collision_eps: float | None = None  # global eps for non-adjacent pairs


def penetration(points: np.ndarray, spheres=(), planes=()) -> float:
    """Deepest violation of any region over the columns of points, 0 when all hold.

    A keep-out sphere is violated by r - |x - c|, a keep-in sphere by
    |x - c| - r, an "above" plane by offset - n.x and an "on" plane by
    |n.x - offset|.  generate and verify_solution both judge clearance by it.
    """
    depth = 0.0
    for s in spheres:
        dist = np.linalg.norm(points - s.center[:, None], axis=0)
        gap = s.radius - dist if s.sense == "keep_out" else dist - s.radius
        depth = max(depth, float(np.max(gap, initial=0.0)))
    for plane in planes:
        vals = plane.normal @ points - plane.offset
        gap = -vals if plane.relation == "above" else np.abs(vals)
        depth = max(depth, float(np.max(gap, initial=0.0)))
    return depth


def add_self_collision(instance, i: int, j: int, eps: float):
    """Append the separation constraint ||x_i - x_j||^2 >= eps; returns a new instance.

    Duplicate (i, j) constraints collapse to the most recent eps.
    """
    if i == j:
        raise ValueError("self-collision constraint needs two distinct vertices")
    if not 0.0 < eps < math.inf:  # NaN fails too
        raise ValueError("self-collision threshold must be positive and finite")
    n = instance.num_points
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("self-collision vertices must be variable or aux points")
    key = (min(i, j), max(i, j))
    kept = [c for c in instance.self_collision if (min(c[0], c[1]), max(c[0], c[1])) != key]
    kept.append((key[0], key[1], float(eps)))
    return dataclasses.replace(instance, self_collision=kept)


def add_aux_point(instance, aux: AuxPoint):
    """Add a collision-checked point tied to the interior of an equality edge.

    The new point y = (1-alpha) x_i + alpha x_j is a fixed mix of its
    edge's ends, so it adds no variable to the lift: it picks up a row for
    every sphere, written from that mix, and may join self-collision pairs.
    Returns a new instance.
    """
    i, j = aux.edge
    graph = instance.graph
    if not any({e.tail, e.head} == {i, j} for e in graph.edges):
        raise ValueError(f"aux point edge {aux.edge} is not an equality edge")
    nv = graph.num_variables
    if i >= nv and j >= nv:
        raise ValueError("aux point on an anchor-anchor edge would be a constant point")
    return dataclasses.replace(instance, aux_points=list(instance.aux_points) + [aux])


_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _platonic_vertices(name: str) -> np.ndarray:
    if name == "octahedron":
        v = np.vstack([np.eye(3), -np.eye(3)])
    elif name == "cube":
        v = np.array(
            [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
            dtype=float,
        )
    elif name == "icosahedron":
        v = []
        for a, b in [(1.0, _PHI)]:
            for sa in (-1, 1):
                for sb in (-1, 1):
                    v.append([0.0, sa * a, sb * b])
                    v.append([sa * a, sb * b, 0.0])
                    v.append([sb * b, 0.0, sa * a])
        v = np.array(v)
    else:
        raise ValueError(f"unknown solid {name!r}")
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def environment(
    name: str, robot: RobotModel, *, table_obstacles: int = 100
) -> WorkspaceSpec:
    """Build a named workspace preset scaled to the robot's reach.

    The Platonic presets place keep-out spheres of radius 0.25 * reach at the
    solid's vertices, 0.5 * reach from the base.  The table preset constrains
    every variable point above the z = 0 plane and scatters seeded random
    spheres over it; sphere centers keep clear of a cylinder around the base
    column so the fixed base points stay feasible.  table_obstacles must be an
    integer of at least 0 for every preset.
    """
    if (
        isinstance(table_obstacles, bool)
        or not isinstance(table_obstacles, numbers.Integral)
        or table_obstacles < 0
    ):
        raise ValueError("table_obstacles must be an integer of at least 0")
    if name == "free":
        return WorkspaceSpec()
    if name not in ENVIRONMENT_NAMES:
        raise ValueError(f"unknown environment {name!r}")
    if robot.dimension != 3:
        raise ValueError(f"environment {name!r} requires a 3-dimensional robot")
    reach = robot.reach
    if name in ("octahedron", "cube", "icosahedron"):
        spheres = [
            Sphere(center=0.5 * reach * v, radius=0.25 * reach)
            for v in _platonic_vertices(name)
        ]
        return WorkspaceSpec(spheres=spheres)

    # table
    rng = np.random.Generator(np.random.Philox(key=_TABLE_PLACEMENT_SEED))
    radius = 0.03 * reach
    spheres = []
    while len(spheres) < table_obstacles:
        c = rng.uniform(-0.6 * reach, 0.6 * reach, size=3)
        c[2] = rng.uniform(0.1 * reach, 0.6 * reach)
        if np.hypot(c[0], c[1]) < 0.15 * reach:
            continue
        spheres.append(Sphere(center=c, radius=radius))
    plane = Plane(normal=np.array([0.0, 0.0, 1.0]), offset=0.0, relation="above")
    return WorkspaceSpec(spheres=spheres, planes=[(None, plane)])
