"""Lifting the feasibility QCQP to semidefinite-program data.

With nv variable points in dimension d, the lifted variable is

    Z(X) = [X I_d]^T [X I_d] = [[X^T X, X^T], [X, I_d]]  (side nv + d),

which turns every squared-distance and linear constraint on X into a linear
trace constraint on Z.  A generic PSD Z of rank <= d with the identity corner
pinned is exactly a lift of some X, so rank-d feasible points of the relaxed
problem are solutions of the original one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import QcqpInstance


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


def _sym_from_coeffs(side: int, coeffs: dict[tuple[int, int], float]) -> np.ndarray:
    """Symmetric A with tr(A Z) = sum coeffs[(i, j)] * Z_ij for symmetric Z."""
    A = np.zeros((side, side))
    for (i, j), c in coeffs.items():
        if i == j:
            A[i, i] += c
        else:
            A[i, j] += 0.5 * c
            A[j, i] += 0.5 * c
    return A


def _anchor_coeffs(k: int, w: np.ndarray, nv: int, side: int) -> dict:
    """Coefficients of ||x_k - w||^2 as a linear function of Z.

    x_k^T x_k - 2 w^T x_k + ||w||^2: the Gram diagonal, the X block column,
    and the constant routed through the pinned identity corner Z[-1, -1] = 1.
    """
    coeffs = {(k, k): 1.0}
    for r, wr in enumerate(w):
        if wr != 0.0:
            coeffs[(min(k, nv + r), max(k, nv + r))] = -2.0 * wr
    coeffs[(side - 1, side - 1)] = coeffs.get((side - 1, side - 1), 0.0) + float(w @ w)
    return coeffs


def _edge_coeffs(k: int, l: int) -> dict:
    return {(k, k): 1.0, (l, l): 1.0, (min(k, l), max(k, l)): -2.0}


def lift(qcqp: QcqpInstance) -> SdpInstance:
    """Construct the SDP data for a feasibility instance.

    Distance edges between variables use the +1/+1/-1 pattern on rows/columns
    {k, l}; edges to an anchor fold the anchor into the constraint matrix
    (border -w, corner ||w||^2).  The identity corner is pinned with
    d(d+1)/2 upper-triangle equalities, planes select rows of the X block,
    obstacles become negated inequalities, and auxiliary points contribute
    linear ties on both the X block and the Gram rows.
    """
    graph = qcqp.graph
    d = graph.dim
    nv = qcqp.num_variables
    side = nv + d
    n_graph = graph.num_variables

    eq_mats: list[np.ndarray] = []
    eq_rhs: list[float] = []
    ineq_mats: list[np.ndarray] = []
    ineq_rhs: list[float] = []

    def anchor_vec(v: int) -> np.ndarray:
        return graph.anchors[:, v - n_graph]

    for e in graph.edges:
        if e.head < n_graph:  # variable-variable
            coeffs = _edge_coeffs(e.tail, e.head)
            rhs = e.weight
        else:  # variable-anchor (tail < head and anchors come last)
            w = anchor_vec(e.head)
            coeffs = _anchor_coeffs(e.tail, w, nv, side)
            rhs = e.weight
        eq_mats.append(_sym_from_coeffs(side, coeffs))
        eq_rhs.append(rhs)

    for r in range(d):
        for s in range(r, d):
            eq_mats.append(_sym_from_coeffs(side, {(nv + r, nv + s): 1.0}))
            eq_rhs.append(1.0 if r == s else 0.0)

    for v, plane in qcqp.planes:
        coeffs = {
            (min(v, nv + r), max(v, nv + r)): float(nr)
            for r, nr in enumerate(plane.normal)
            if nr != 0.0
        }
        A = _sym_from_coeffs(side, coeffs)
        if plane.relation == "on":
            eq_mats.append(A)
            eq_rhs.append(plane.offset)
        else:  # x.n >= c  ->  tr(-A Z) <= -c
            ineq_mats.append(-A)
            ineq_rhs.append(-plane.offset)

    for k, aux in enumerate(qcqp.aux_points):
        ky = n_graph + k
        i, j = aux.edge
        wa, wb = 1.0 - aux.alpha, aux.alpha
        # X block: y_r - wa x_i_r - wb x_j_r = const
        for r in range(d):
            coeffs = {(min(ky, nv + r), max(ky, nv + r)): 1.0}
            rhs = 0.0
            for v, wgt in ((i, wa), (j, wb)):
                if v < n_graph:
                    key = (min(v, nv + r), max(v, nv + r))
                    coeffs[key] = coeffs.get(key, 0.0) - wgt
                else:
                    rhs += wgt * anchor_vec(v)[r]
            eq_mats.append(_sym_from_coeffs(side, coeffs))
            eq_rhs.append(rhs)
        # Gram rows: <y, x_u> = wa <x_i, x_u> + wb <x_j, x_u> for every variable u
        for u in range(nv):
            coeffs = {(min(ky, u), max(ky, u)): 1.0}
            for v, wgt in ((i, wa), (j, wb)):
                if v < n_graph:
                    key = (min(v, u), max(v, u))
                    coeffs[key] = coeffs.get(key, 0.0) - wgt
                else:
                    w = anchor_vec(v)
                    for r, wr in enumerate(w):
                        if wr != 0.0:
                            key = (min(u, nv + r), max(u, nv + r))
                            coeffs[key] = coeffs.get(key, 0.0) - wgt * wr
            eq_mats.append(_sym_from_coeffs(side, coeffs))
            eq_rhs.append(0.0)

    for sphere in qcqp.spheres:
        r2 = sphere.radius**2
        for v in range(nv):
            M = _sym_from_coeffs(side, _anchor_coeffs(v, sphere.center, nv, side))
            if sphere.sense == "keep_out":
                ineq_mats.append(-M)
                ineq_rhs.append(-r2)
            else:
                ineq_mats.append(M)
                ineq_rhs.append(r2)

    for i, j, eps in qcqp.self_collision:
        ineq_mats.append(-_sym_from_coeffs(side, _edge_coeffs(i, j)))
        ineq_rhs.append(-eps)

    return SdpInstance(
        side=side,
        dim=d,
        eq_mats=eq_mats,
        eq_rhs=np.array(eq_rhs),
        ineq_mats=ineq_mats,
        ineq_rhs=np.array(ineq_rhs),
    )


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


def extract_points(Z: np.ndarray, dim: int) -> tuple[np.ndarray, float]:
    """Read the point matrix off the lifted variable's X block.

    Returns (X, gram_gap) where gram_gap = ||Z_gram - X^T X||_F vanishes
    exactly when Z is a rank-d lift with the identity corner.
    """
    Z = np.asarray(Z, dtype=float)
    nv = Z.shape[0] - dim
    X = Z[nv:, :nv].copy()
    gap = float(np.linalg.norm(Z[:nv, :nv] - X.T @ X))
    return X, gap


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
