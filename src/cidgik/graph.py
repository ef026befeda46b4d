"""Weighted directed acyclic distance graph and the feasibility QCQP it induces.

Vertices are the variable points of unanchored joints followed by anchors
(fixed base points plus goal-defining points); edges carry the exact squared
distances the kinematic structure enforces.  Together with the workspace
constraints this is the full quadratic feasibility program the SDP relaxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kinematics import RobotModel, joint_points
from .workspace import AuxPoint, Plane, Sphere, WorkspaceSpec, add_aux_point, add_self_collision

MERGE_TOL = 1e-9


class GraphError(ValueError):
    """Raised when a distance graph cannot be assembled."""


class Edge(NamedTuple):
    tail: int
    head: int
    weight: float  # squared distance, meters^2


@dataclass(frozen=True, eq=False)
class Goal:
    """Target for one end effector: a position and optionally a unit direction."""

    end_effector: int
    position: np.ndarray
    direction: np.ndarray | None = None


@dataclass(eq=False)
class DistanceGraph:
    dim: int
    num_variables: int
    anchors: np.ndarray  # (d, m) anchor positions
    edges: list[Edge]  # tail < head and tail a variable; vertex ids: variables then anchors
    variable_labels: tuple[tuple, ...]
    anchor_labels: tuple[tuple, ...]
    # per robot layout column, its vertex (merged columns share one), or -1
    # for an end-effector point without a goal
    column_vertex: np.ndarray

    @property
    def num_anchors(self) -> int:
        return self.anchors.shape[1]


@dataclass(eq=False)
class QcqpInstance:
    """A full feasibility instance: graph equalities plus workspace constraints.

    Auxiliary points extend the point set beyond the graph's variables:
    point k for k >= graph.num_variables is aux_points[k - graph.num_variables],
    a fixed mix of its edge's ends that the lift writes rows for but does
    not carry as a variable.  Self-collision pairs index points.
    """

    graph: DistanceGraph
    robot: RobotModel
    goals: list[Goal]
    spheres: list[Sphere] = field(default_factory=list)
    planes: list[tuple[int, Plane]] = field(default_factory=list)
    self_collision: list[tuple[int, int, float]] = field(default_factory=list)
    aux_points: list[AuxPoint] = field(default_factory=list)

    @property
    def num_points(self) -> int:
        return self.graph.num_variables + len(self.aux_points)

    @property
    def dim(self) -> int:
        return self.graph.dim

    def constraint_counts(self) -> dict[str, int]:
        return {
            "equalities": len(self.graph.edges),
            "obstacle_inequalities": self.num_points * len(self.spheres),
            "self_collision": len(self.self_collision),
            "planes": len(self.planes),
        }


def build_graph(robot: RobotModel, goals: list[Goal]) -> DistanceGraph:
    """Assemble the distance graph for a robot and its end-effector goals.

    Variable vertices are the points of unanchored joints; anchors are all
    points of anchored joints plus, per goal, the target position and (for
    pose goals) the point one unit along the target direction.  The pairs
    are robot._rigid_pairs, read off the point table: two points one joint's
    frame holds.  Edge weights are their squared distances at the zero
    configuration.  Points that coincide there (possible with intersecting
    axes) are merged, onto an anchor if one is among them, else onto the
    earlier column.  Pairs whose merged ends coincide or are both anchors,
    as when a variable point merges onto an anchor, state nothing and give
    no edge.
    """
    if not goals:
        raise GraphError("at least one goal is required")
    layout = robot.layout
    nv = layout.num_variables
    if nv == 0:
        raise GraphError("robot has no unanchored joints; nothing to solve for")
    d = robot.dimension
    index = layout.index

    # Zero-configuration positions give merge geometry and edge weights; goal
    # points anchor at their goal, and an end-effector point without one is unused.
    P0 = joint_points(robot, np.zeros(len(robot.joints)))
    points = P0.copy()
    usable = np.array([c[0] != "ee" for c in layout.columns])
    for g in goals:
        if not 0 <= g.end_effector < len(robot.end_effectors):
            raise GraphError(f"goal for unknown end-effector {g.end_effector}")
        tip, end = index["ee", g.end_effector, "pos"], index["ee", g.end_effector, "dir"]
        if usable[tip]:
            raise GraphError(f"duplicate goal for end-effector {g.end_effector}")
        pos = np.asarray(g.position, dtype=float)
        if pos.shape != (d,):
            raise GraphError(f"goal position must have dimension {d}")
        if not np.all(np.isfinite(pos)):
            raise GraphError("goal position must be finite")
        usable[tip], points[:, tip] = True, pos
        if g.direction is not None:
            u = np.asarray(g.direction, dtype=float)
            if u.shape != (d,) or not abs(np.linalg.norm(u) - 1.0) <= 1e-9:  # NaN fails too
                raise GraphError("goal direction must be a unit vector")
            usable[end], points[:, end] = True, pos + u
    anchor = usable & (np.arange(len(usable)) >= nv)

    a, b = robot._rigid_pairs.T
    keep = usable[a] & usable[b] & ~(anchor[a] & anchor[b])
    a, b = a[keep], b[keep]
    diff = (P0[:, a] - P0[:, b]).T
    weights = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]

    # Union-find over coincident pairs (merged points stay merged at every
    # configuration because one frame holds both).  A root is the first of
    # its set by (not an anchor, column).
    root = list(range(len(usable)))

    def find(c):
        while root[c] != c:
            root[c] = c = root[root[c]]
        return c

    coincide = weights < MERGE_TOL**2
    for x, y in zip(a[coincide].tolist(), b[coincide].tolist()):
        first, second = sorted((find(x), find(y)), key=lambda c: (not anchor[c], c))
        root[second] = first

    # Final vertex numbering: surviving variables, then anchors.  Every anchor
    # keeps its own vertex; edges join the vertices of their ends' roots.
    roots = np.array([find(c) for c in range(len(usable))])
    variables = np.flatnonzero(roots[:nv] == np.arange(nv))
    anchors = np.flatnonzero(anchor)
    vertex = np.full(len(usable), -1)
    vertex[variables] = np.arange(len(variables))
    vertex[anchors] = len(variables) + np.arange(len(anchors))
    merged = vertex[roots]

    edges: dict[tuple[int, int], float] = {}
    for u, v, w in zip(merged[a].tolist(), merged[b].tolist(), weights.tolist()):
        u, v = min(u, v), max(u, v)
        if u == v or u >= len(variables):
            continue
        if (u, v) in edges and abs(edges[u, v] - w) <= 1e-12 * max(1.0, w):
            continue
        edges[u, v] = w

    graph = DistanceGraph(
        dim=d,
        num_variables=len(variables),
        anchors=points[:, anchors],
        edges=[Edge(t, h, w) for (t, h), w in sorted(edges.items())],
        variable_labels=tuple(layout.columns[c] for c in variables),
        anchor_labels=tuple(layout.columns[c] for c in anchors),
        column_vertex=np.where(vertex >= 0, vertex, merged),
    )
    _check_graph(graph)
    return graph


def _check_graph(graph: DistanceGraph) -> None:
    if graph.num_anchors < 2:
        raise GraphError("need at least two anchors (base plus a goal)")
    for e in graph.edges:
        if not np.isfinite(e.weight) or e.weight < 0.0:
            raise GraphError(f"edge {e} has invalid weight")
        if not e.tail < e.head:
            raise GraphError(f"edge {e} is not oriented low-to-high")
        if e.tail >= graph.num_variables:
            raise GraphError(f"edge {e} joins two anchors")
    # Every variable must reach an anchor through the (undirected) edge set.
    nv = graph.num_variables
    adj = [[] for _ in range(nv + graph.num_anchors)]
    for e in graph.edges:
        adj[e.tail].append(e.head)
        adj[e.head].append(e.tail)
    seen = set(range(nv, nv + graph.num_anchors))
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    missing = [graph.variable_labels[v] for v in range(nv) if v not in seen]
    if missing:
        raise GraphError(f"variable vertices not connected to any anchor: {missing}")


def assemble_qcqp(
    robot: RobotModel, goals: list[Goal], workspace: WorkspaceSpec | None = None
) -> QcqpInstance:
    """Build the complete feasibility instance for a robot, goals, and workspace."""
    workspace = workspace or WorkspaceSpec()
    graph = build_graph(robot, goals)
    d = robot.dimension
    for s in workspace.spheres:
        if s.center.shape != (d,):
            raise GraphError(f"sphere center dimension != {d}")

    planes: list[tuple[int, Plane]] = []
    for vertex, plane in workspace.planes:
        if plane.normal.shape != (d,):
            raise GraphError(f"plane normal dimension != {d}")
        if vertex is None:
            planes.extend((v, plane) for v in range(graph.num_variables))
        else:
            if not 0 <= vertex < graph.num_variables:
                raise GraphError(f"plane constraint on unknown variable {vertex}")
            planes.append((vertex, plane))

    instance = QcqpInstance(
        graph=graph,
        robot=robot,
        goals=list(goals),
        spheres=list(workspace.spheres),
        planes=planes,
    )
    if workspace.self_collision_eps is not None:
        adjacent = {(e.tail, e.head) for e in graph.edges}
        for i in range(graph.num_variables):
            for j in range(i + 1, graph.num_variables):
                if (i, j) not in adjacent:
                    instance = add_self_collision(
                        instance, i, j, workspace.self_collision_eps
                    )
    for aux in workspace.aux_points:
        instance = add_aux_point(instance, aux)
    return instance


def selection(instance: QcqpInstance) -> np.ndarray:
    """(layout columns, points) matrix S that maps joint points to the instance's points.

    Column v picks variable v's layout column; an aux point's column
    interpolates between its edge's ends, a goal anchor end reading the
    robot point it marks.  So joint_points(robot, theta) @ S is the
    point matrix a configuration realizes, aux points last.
    """
    robot, graph = instance.robot, instance.graph
    index = robot.layout.index
    labels = graph.variable_labels + graph.anchor_labels
    S = np.zeros((len(index), instance.num_points))
    for v, label in enumerate(graph.variable_labels):
        S[index[label], v] = 1.0
    for k, aux in enumerate(instance.aux_points):
        for v, weight in zip(aux.edge, (1.0 - aux.alpha, aux.alpha)):
            S[index[labels[v]], graph.num_variables + k] += weight
    return S


def feasible_points(instance: QcqpInstance, theta) -> np.ndarray:
    """The lift's variables, the graph's variable points, realized by a configuration.

    That is joint_points(robot, theta) @ selection(instance) without the
    aux points' columns, so lift_points of it is the exact lift Z(X).
    """
    S = selection(instance)[:, : instance.graph.num_variables]
    return joint_points(instance.robot, theta) @ S
