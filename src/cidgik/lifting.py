"""Lifting the feasibility QCQP to semidefinite-program data.

With nv variable points in dimension d, the lifted variable is

    Z(X) = [X I_d]^T [X I_d] = [[X^T X, X^T], [X, I_d]]  (side nv + d),

which turns every squared-distance and linear constraint on X into a linear
trace constraint on Z.  A generic PSD Z of rank <= d with the identity corner
pinned is exactly a lift of some X, so rank-d feasible points of the relaxed
problem are solutions of the original one.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field

import numpy as np

from .graph import DistanceGraph, QcqpInstance

logger = logging.getLogger("cidgik.lifting")


@dataclass(eq=False)
class SdpInstance:
    """Linear-trace constraint data over PSD matrices of a fixed side.

    Equalities: tr(A_k Z) = a_k.  Inequalities: tr(B_k Z) <= b_k (keep-out
    spheres are stored negated, so ||x - c||^2 >= l^2 becomes tr(B Z) <= -l^2).
    dim is the target rank of the lift (d for point problems).

    Constraints are stacked float arrays: eq_mats has shape (n_eq, side, side)
    and ineq_mats (n_ineq, side, side), one symmetric matrix per row, with the
    right-hand sides in eq_rhs and ineq_rhs.  A list of matrices is stacked on
    construction, and an empty one becomes (0, side, side).
    """

    side: int
    dim: int
    eq_mats: np.ndarray
    eq_rhs: np.ndarray
    ineq_mats: np.ndarray = field(default_factory=list)
    ineq_rhs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.eq_mats, self.eq_rhs = _stacked("eq", self.side, self.eq_mats, self.eq_rhs)
        self.ineq_mats, self.ineq_rhs = _stacked("ineq", self.side, self.ineq_mats, self.ineq_rhs)

    @property
    def num_equalities(self) -> int:
        return len(self.eq_mats)

    @property
    def num_inequalities(self) -> int:
        return len(self.ineq_mats)

    @property
    def num_variables(self) -> int:
        return self.side - self.dim


def _stacked(kind: str, side: int, mats, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Constraint matrices as a (k, side, side) float array with k right-hand sides."""
    mats = np.asarray(mats, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if mats.shape == (0,):
        mats = np.zeros((0, side, side))
    if mats.ndim != 3 or mats.shape[1:] != (side, side):
        raise ValueError(f"{kind}_mats has shape {mats.shape}, expected (k, {side}, {side})")
    if rhs.shape != (len(mats),):
        raise ValueError(f"{kind}_rhs has shape {rhs.shape}, expected ({len(mats)},)")
    return mats, rhs


def _vertex_columns(graph: DistanceGraph) -> np.ndarray:
    """(side, vertices) matrix V whose column v is vertex v as a vector of [X I].

    A variable is a unit column and an anchor sits in the corner rows, so
    [X I] V holds every vertex's position.
    """
    n = graph.num_variables
    V = np.zeros((n + graph.dim, n + graph.num_anchors))
    V[np.arange(n), np.arange(n)] = 1.0
    V[n:, n:] = graph.anchors
    return V


def _gram_rows(M: np.ndarray, start: int, G: np.ndarray, d: int) -> None:
    """Write ||[X I] g||^2 = tr(g g^T Z) into M[start:], one row g of G per matrix.

    The corner block of g g^T is replaced by its trace on Z[-1, -1], which
    the corner rows pin to 1.  Adding 0.0 turns the -0.0 of a product with a
    zero factor into 0.0.
    """
    block = M[start : start + len(G)]
    np.einsum("ki,kj->kij", G, G, out=block)
    np.add(block, 0.0, out=block)
    corner = G[:, -d:]
    block[:, -d:, -d:] = 0.0
    block[:, -1, -1] = (corner[:, None, :] @ corner[:, :, None])[:, 0, 0]


def _plane_rows(M: np.ndarray, rows, planes, nv: int) -> None:
    """Write x_v . n into M[rows] for each (v, plane), on the X block."""
    if not planes:
        return
    v = np.array([v for v, _ in planes])
    N = np.array([p.normal for _, p in planes], dtype=float)
    for r in range(N.shape[1]):
        nz = N[:, r] != 0.0
        M[rows[nz], v[nz], nv + r] = M[rows[nz], nv + r, v[nz]] = 0.5 * N[nz, r]


def lift(qcqp: QcqpInstance) -> SdpInstance:
    """Construct the SDP data for a feasibility instance.

    Every squared distance is one Gram row (_gram_rows) of the difference
    of two point columns of [X I]: a graph vertex is its _vertex_columns
    column, an aux point y = (1 - alpha) x_i + alpha x_j the same mix of its
    edge's columns, and a sphere center sits in the corner rows.  So an aux
    point adds sphere and self-collision rows but no variable.  The identity
    corner is pinned with d(d+1)/2 upper-triangle equalities, planes select
    rows of the X block, and obstacles become negated inequalities.

    Each kind of row is written into one stacked array by index: equalities
    are the edges, the corner and the "on" planes, in that order;
    inequalities the "above" planes, every sphere for every point
    (sphere-major; the graph's variables, then the aux points) and the
    self-collision pairs.
    """
    graph = qcqp.graph
    d = graph.dim
    nv = graph.num_variables
    side = nv + d
    edges = graph.edges
    on = [(v, p) for v, p in qcqp.planes if p.relation == "on"]
    above = [(v, p) for v, p in qcqp.planes if p.relation != "on"]
    corner_r, corner_s = np.triu_indices(d)
    n_edge, n_corner = len(edges), len(corner_r)
    n_sphere = len(qcqp.spheres) * qcqp.num_points

    eq_mats = np.zeros((n_edge + n_corner + len(on), side, side))
    eq_rhs = np.zeros(len(eq_mats))
    ineq_mats = np.zeros((len(above) + n_sphere + len(qcqp.self_collision), side, side))
    ineq_rhs = np.zeros(len(ineq_mats))

    V = _vertex_columns(graph)
    tails = np.array([e.tail for e in edges], dtype=int)
    heads = np.array([e.head for e in edges], dtype=int)
    _gram_rows(eq_mats, 0, V.T[tails] - V.T[heads], d)
    eq_rhs[:n_edge] = [e.weight for e in edges]

    t = n_edge + np.arange(n_corner)
    eq_mats[t, nv + corner_r, nv + corner_s] = eq_mats[t, nv + corner_s, nv + corner_r] = (
        np.where(corner_r == corner_s, 1.0, 0.5)
    )
    eq_rhs[t] = corner_r == corner_s

    t0 = n_edge + n_corner
    _plane_rows(eq_mats, t0 + np.arange(len(on)), on, nv)
    eq_rhs[t0:] = [p.offset for _, p in on]

    _plane_rows(ineq_mats, np.arange(len(above)), above, nv)
    ineq_mats[: len(above)] *= -1.0  # x.n >= c  ->  tr(-A Z) <= -c
    ineq_rhs[: len(above)] = [-p.offset for _, p in above]

    points = np.vstack([V[:, :nv].T] + [  # one row per point: variables, then aux points
        (1.0 - aux.alpha) * V[:, aux.edge[0]] + aux.alpha * V[:, aux.edge[1]]
        for aux in qcqp.aux_points
    ])
    spheres = qcqp.spheres
    if spheres:
        t0 = len(above)
        centers = np.zeros((len(spheres), side))
        centers[:, nv:] = [s.center for s in spheres]
        _gram_rows(ineq_mats, t0, (points[None] - centers[:, None]).reshape(-1, side), d)
        keep_out = np.repeat([s.sense == "keep_out" for s in spheres], len(points))
        block = ineq_mats[t0 : t0 + n_sphere]
        np.negative(block, out=block, where=keep_out[:, None, None])
        r2 = [-s.radius**2 if s.sense == "keep_out" else s.radius**2 for s in spheres]
        ineq_rhs[t0 : t0 + n_sphere] = np.repeat(r2, len(points))

    t0 = len(above) + n_sphere
    pairs = np.array([(i, j) for i, j, _ in qcqp.self_collision], dtype=int).reshape(-1, 2)
    _gram_rows(ineq_mats, t0, points[pairs[:, 0]] - points[pairs[:, 1]], d)
    ineq_mats[t0:] *= -1.0
    ineq_rhs[t0:] = [-eps for _, _, eps in qcqp.self_collision]

    return SdpInstance(
        side=side, dim=d, eq_mats=eq_mats, eq_rhs=eq_rhs, ineq_mats=ineq_mats, ineq_rhs=ineq_rhs
    )


def _path_multipliers(qcqp: QcqpInstance, instance: SdpInstance) -> np.ndarray | None:
    """Farkas multipliers y (mu = 0) from a structural path shorter than its anchors' gap, or None.

    Steps e_i of lengths l_i from anchor a to anchor b through variable points,
    with L = sum l_i < D = ||b - a|| and c = (b - a) / L, give tr(S Z) =
    sum_i ||e_i - l_i c||^2 / l_i = L - D^2 / L < 0 on the constraints, with
    S = sum_i g_i g_i^T / l_i PSD.  So y is 1/l_i on the path's edge rows (lift's
    first rows) and the identity-corner rows take the rest of S.  The path is
    the first such pair's shortest, from one Dijkstra search per anchor.
    """
    graph = qcqp.graph
    n = graph.num_variables
    lengths = np.sqrt([e.weight for e in graph.edges])
    adjacent = [[] for _ in range(n + graph.num_anchors)]
    for k, e in enumerate(graph.edges):
        adjacent[e.tail].append((e.head, k))
        adjacent[e.head].append((e.tail, k))
    points = _vertex_columns(graph)
    gaps = np.linalg.norm(points[n:, :, None] - points[n:, None, :], axis=0)
    for a in range(n, len(adjacent) - 1):
        dist, via, heap = {a: 0.0}, {}, [(0.0, a)]
        while heap:
            L, v = heapq.heappop(heap)
            if L > dist[v] or (v >= n and v != a):  # stale, or an anchor a path ends at
                continue
            for w, k in adjacent[v]:
                if L + lengths[k] < dist.get(w, np.inf):
                    dist[w], via[w] = L + lengths[k], k
                    heapq.heappush(heap, (dist[w], w))
        farther = (b for b in range(a + 1, len(adjacent)) if dist.get(b, np.inf) < gaps[a, b])
        b = next(farther, None)
        if b is None:
            continue
        path, walk = [], [b]  # edges and vertices from b back to a
        while walk[-1] != a:
            path.append(via[walk[-1]])
            walk.append(graph.edges[path[-1]].tail + graph.edges[path[-1]].head - walk[-1])
        L, D, l = dist[b], gaps[a, b], lengths[path]
        G = points[:, walk[:-1]] - points[:, walk[1:]]
        G[n:] -= np.outer(points[n:, b] - points[n:, a], l / L)
        y = np.zeros(instance.num_equalities)
        y[path] = 1.0 / l
        R = (G * y[path]) @ G.T - np.tensordot(y[path], instance.eq_mats[path], 1)
        r, s = np.triu_indices(graph.dim)
        y[len(lengths) + np.arange(len(r))] = R[n + r, n + s] * np.where(r == s, 1.0, 2.0)
        logger.info("path bound: anchors %d and %d, L=%.6g < D=%.6g, L - D^2/L=%.3e",
                    a - n, b - n, L, D, L - D * D / L)
        return y
    return None


def lift_points(X: np.ndarray) -> np.ndarray:
    """Exact lift Z(X) = [X I]^T [X I]; rank at most d by construction."""
    X = np.asarray(X, dtype=float)
    d, nv = X.shape
    Z = np.empty((nv + d, nv + d))
    Z[:nv, :nv] = X.T @ X
    Z[:nv, nv:] = X.T
    Z[nv:, :nv] = X
    Z[nv:, nv:] = np.eye(d)
    return Z


def evaluate(instance: SdpInstance, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(equality residuals tr(A_k Z) - a_k, inequality slacks b_k - tr(B_k Z)).

    Negative slack means the inequality is violated.
    """
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (instance.side, instance.side):
        raise ValueError(
            f"Z has shape {Z.shape}, expected {(instance.side, instance.side)}"
        )
    eq = np.tensordot(instance.eq_mats, Z) - instance.eq_rhs
    slack = instance.ineq_rhs - np.tensordot(instance.ineq_mats, Z)
    return eq, slack


def extract_points(Z: np.ndarray, dim: int) -> np.ndarray:
    """Read the point matrix X off the lifted variable's X block."""
    Z = np.asarray(Z, dtype=float)
    nv = Z.shape[0] - dim
    return Z[nv:, :nv].copy()


def build_toy_instance() -> SdpInstance:
    """Fixed 3x3 homogenized instance for the planar two-link reach problem.

    The elbow x of a unit-link planar 2R arm reaching w = (1, 1) satisfies
    ||x||^2 = 1 and ||x - w||^2 = 1, with a keep-out disc of radius 0.5 at
    (1, 0) excluding the elbow-down root.  Homogenizing with s^2 = 1 and
    lifting z = (x, s) to Z = z z^T gives three trace equalities and one
    trace inequality over 3x3 PSD matrices; the sought solutions are rank 1.
    """
    A0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    A1 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
    A2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    A3 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    return SdpInstance(
        side=3,
        dim=1,
        eq_mats=[A0, A1, A2],
        eq_rhs=np.array([1.0, 1.0, 1.0]),
        ineq_mats=[-A3],  # tr(A3 Z) >= 0.25 stored as tr(-A3 Z) <= -0.25
        ineq_rhs=np.array([-0.25]),
    )
