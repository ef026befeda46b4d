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

from .kinematics import RobotModel, joint_points, nominal_distances, structural_pairs
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
    pose goals) the point one unit along the target direction.  Edge weights
    come straight from the zero-configuration structural distances.  Points
    that coincide at zero configuration (possible with intersecting axes) are
    merged.  Pairs whose merged ends coincide or are both anchors, as when a
    variable point merges onto an anchor, state nothing and give no edge.
    """
    if not goals:
        raise GraphError("at least one goal is required")
    layout = robot.layout
    if layout.num_variables == 0:
        raise GraphError("robot has no unanchored joints; nothing to solve for")
    d = robot.dimension

    goal_by_ee: dict[int, Goal] = {}
    for g in goals:
        if not 0 <= g.end_effector < len(robot.end_effectors):
            raise GraphError(f"goal for unknown end-effector {g.end_effector}")
        if g.end_effector in goal_by_ee:
            raise GraphError(f"duplicate goal for end-effector {g.end_effector}")
        pos = np.asarray(g.position, dtype=float)
        if pos.shape != (d,):
            raise GraphError(f"goal position must have dimension {d}")
        if not np.all(np.isfinite(pos)):
            raise GraphError("goal position must be finite")
        if g.direction is not None:
            u = np.asarray(g.direction, dtype=float)
            if u.shape != (d,) or not abs(np.linalg.norm(u) - 1.0) <= 1e-9:  # NaN fails too
                raise GraphError("goal direction must be a unit vector")
        goal_by_ee[g.end_effector] = g

    # Zero-configuration positions give merge geometry and edge weights.
    P0 = joint_points(robot, np.zeros(len(robot.joints)))
    col = layout.index

    def anchor_position(c) -> np.ndarray | None:
        if c[0] in ("p", "q"):
            return P0[:, col[c]]
        _, k, kind = c
        g = goal_by_ee.get(k)
        if g is None:
            return None
        if kind == "pos":
            return np.asarray(g.position, dtype=float)
        if g.direction is None:
            return None
        return np.asarray(g.position, dtype=float) + np.asarray(g.direction, dtype=float)

    variable_cols = list(layout.columns[: layout.num_variables])
    anchor_cols = []
    for c in layout.columns[layout.num_variables :]:
        if anchor_position(c) is not None:
            anchor_cols.append(c)

    # Union-find over coincident structural pairs (merged points stay merged
    # at every configuration because they are rigidly linked on a shared axis).
    parent: dict[tuple, tuple] = {}

    def find(c):
        while parent.get(c, c) != c:
            parent[c] = parent.get(parent[c], parent[c])
            c = parent[c]
        return c

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        # Prefer anchors as representatives; otherwise the earlier column.
        a_anchor, b_anchor = ra in anchor_set, rb in anchor_set
        if a_anchor and not b_anchor:
            parent[rb] = ra
        elif b_anchor and not a_anchor:
            parent[ra] = rb
        elif col.get(ra, 0) <= col.get(rb, 0):
            parent[rb] = ra
        else:
            parent[ra] = rb

    anchor_set = set(anchor_cols)
    usable = set(variable_cols) | anchor_set
    pairs = []
    for a, b in structural_pairs(robot):
        if a in usable and b in usable:
            pairs.append((a, b))
    nominal = nominal_distances(robot)
    for a, b in pairs:
        if a in anchor_set and b in anchor_set:
            continue
        if nominal[(a, b)] < MERGE_TOL**2:
            union(a, b)

    # Final vertex numbering: surviving variables, then anchors.
    variables = [c for c in variable_cols if find(c) == c]
    vid: dict[tuple, int] = {c: i for i, c in enumerate(variables)}
    anchors = [c for c in anchor_cols]
    m = len(anchors)
    anchor_mat = np.empty((d, m))
    for i, c in enumerate(anchors):
        anchor_mat[:, i] = anchor_position(c)
        vid[c] = len(variables) + i

    def vertex(c) -> int:
        return vid[find(c)]

    edges: dict[tuple[int, int], float] = {}
    for a, b in pairs:
        u, v = vertex(a), vertex(b)
        if u == v or min(u, v) >= len(variables):
            continue
        w = nominal[(a, b)]
        key = (min(u, v), max(u, v))
        if key in edges and abs(edges[key] - w) <= 1e-12 * max(1.0, w):
            continue
        edges[key] = w

    edge_list = [Edge(t, h, w) for (t, h), w in sorted(edges.items())]

    column_vertex = [
        vid[c] if c in vid else vertex(c) if c in usable else -1 for c in layout.columns
    ]
    graph = DistanceGraph(
        dim=d,
        num_variables=len(variables),
        anchors=anchor_mat,
        edges=edge_list,
        variable_labels=tuple(variables),
        anchor_labels=tuple(anchors),
        column_vertex=np.array(column_vertex, dtype=int),
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
