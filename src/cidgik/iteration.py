"""Convex iteration: drive the lifted solution to rank d.

The excess-rank surrogate h(Z) sums every eigenvalue beyond the d largest,
so h(Z) = 0 exactly when a PSD Z has rank at most d.  Minimizing tr(C Z) with
C the projector onto the trailing eigenspace of the previous iterate equals
h at that iterate, so alternating the linear-cost SDP with this closed-form
direction update walks the spectrahedron toward its rank-d points.  The first
pass uses C = I, i.e. the plain nuclear-norm heuristic.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .graph import QcqpInstance, feasible_points, selection
from .kinematics import _cross, _frames, _points, _poses, joint_points, reconstruct_angles
from .lifting import SdpInstance, _path_multipliers, evaluate, extract_points, lift, lift_points
from .solver import (
    InfeasibilityCertificate,
    SolverSettings,
    _check_count,
    _constraint_tolerance,
    _verify_certificate,
    solve,
)
from .workspace import penetration

logger = logging.getLogger("cidgik.iteration")

SYMMETRY_TOL = 1e-9

# The refinement gate accepts a configuration whose exact lift has h below H_TOL.
H_TOL = 1e-6

# Verification thresholds: position (m), direction (rad), penetration depth (m).
POSITION_TOL = 0.01
DIRECTION_TOL = 0.01
PENETRATION_TOL = 0.01

# Levenberg-Marquardt succeeds once every residual is below LM_TOL, within
# LM_MAX_STEPS accepted steps.  It gives up after LM_SLOW_STEPS accepted steps
# in a row that each cut the residual norm by less than the fraction LM_SLOW_CUT.
LM_TOL = 1e-11
LM_MAX_STEPS = 40
LM_SLOW_STEPS = 3
LM_SLOW_CUT = 1e-3

# A stalled plain LM makes the gate decline its next STALL_BACKOFF offers.
STALL_BACKOFF = 2


def excess_rank(Z: np.ndarray, dim: int) -> float:
    """Sum of the eigenvalues of Z beyond the dim largest (zero iff rank <= dim)."""
    Z = np.asarray(Z, dtype=float)
    scale = max(1.0, float(np.max(np.abs(Z))))
    if np.max(np.abs(Z - Z.T)) > SYMMETRY_TOL * scale:
        raise ValueError("excess_rank expects a symmetric matrix")
    lam = np.linalg.eigvalsh(0.5 * (Z + Z.T))  # ascending
    if dim >= len(lam):
        return 0.0
    tail = float(np.sum(lam)) if dim <= 0 else float(np.sum(lam[:-dim]))
    return max(tail, 0.0)


def direction_matrix(Z: np.ndarray, dim: int) -> np.ndarray:
    """Closed-form optimal direction: C* = U U^T from the smallest eigenvectors.

    U collects the eigenvectors of the side - dim smallest eigenvalues, so C*
    is an orthogonal projector with trace side - dim and tr(C* Z) = h(Z).
    C* does not depend on the eigenvectors' signs, since flipping a column
    of U leaves U U^T unchanged.
    """
    Z = np.asarray(Z, dtype=float)
    scale = max(1.0, float(np.max(np.abs(Z))))
    if np.max(np.abs(Z - Z.T)) > SYMMETRY_TOL * scale:
        raise ValueError("direction_matrix expects a symmetric matrix")
    side = Z.shape[0]
    _, V = np.linalg.eigh(0.5 * (Z + Z.T))  # ascending eigenvalues
    U = V[:, : side - dim]
    return U @ U.T


@dataclass(frozen=True)
class IterationRecord:
    h: float
    solver_status: str


@dataclass(eq=False)
class IterationTrace:
    records: list[IterationRecord] = field(default_factory=list)

    @property
    def h_values(self) -> list[float]:
        return [r.h for r in self.records]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class CidgikOptions:
    max_iterations: int = 10
    # Not a field, so it cannot be set: ikbench/run.py reads options.h_tol.
    h_tol: ClassVar[float] = H_TOL
    solver: SolverSettings = SolverSettings()
    # The nuclear-norm pass only initializes the direction, so it gets a
    # fixed budget instead of the full solver iteration cap.
    first_solve_budget: int = 4000

    def __post_init__(self):
        _check_count(self.max_iterations, "max_iterations")
        _check_count(self.first_solve_budget, "first_solve_budget")


class _Residuals:
    """The residuals the refinement drives to zero, as functions of theta.

    Every row reads points attached to joint frames (see _points): a point
    moves with each joint i among its owner's ancestors (the owner
    included) as a_i x (x - o_i).
    The goal rows are P_pos - goal for each goal's tip point and, for a pose
    goal, P_dir - P_pos - direction for its direction point.  A hinged object
    (instance given) adds one row per inequality row k of the lift:
    min(b_k - tr(B_k Z(X)), 0) on the exact lift Z(X) = [X I]^T [X I] of the
    variable points X = P S, with S the graph variables' columns of
    graph.selection, so what an obstacle asks of a point, an aux point
    included, is said only by lift().
    """

    def __init__(self, qcqp: QcqpInstance, instance: SdpInstance | None = None):
        robot = qcqp.robot
        self.robot = robot
        self.dim = d = robot.dimension
        index = robot.layout.index
        goals = qcqp.goals
        pointed = [k for k, g in enumerate(goals) if g.direction is not None]
        columns = [index["ee", g.end_effector, "pos"] for g in goals]
        columns += [index["ee", goals[k].end_effector, "dir"] for k in pointed]
        self.num_goals, self.num_goal_points = len(goals), len(columns)
        self.pointed = np.array(pointed, dtype=int)
        self.positions = np.array([g.position for g in goals], dtype=float).reshape(-1, d)
        self.directions = np.array([goals[k].direction for k in pointed], dtype=float).reshape(-1, d)
        self.hinged = instance is not None
        if self.hinged:
            S = selection(qcqp)[:, : qcqp.graph.num_variables]
            used = np.flatnonzero(S.any(axis=1))
            self.select = S[used]
            columns += list(used)
            self.mats = instance.ineq_mats
            self.rows = self.mats.reshape(len(self.mats), -1)  # tr(B_k Z) = rows[k] . Z.ravel()
            self.rhs = instance.ineq_rhs
        self.columns = np.array(columns, dtype=int)
        owners, _ = robot._point_table
        self.moves = robot.ancestors[owners[self.columns]]

    def __call__(self, theta) -> tuple[np.ndarray, tuple]:
        """(residuals, state) at theta.

        The state is (frames, points P, variable points X, slacks
        b_k - tr(B_k Z(X))), X and the slacks None unless hinged;
        jacobian(state) reuses its points.
        """
        frames = _frames(self.robot, theta)
        P = _points(self.robot, frames, self.columns)
        d, g = self.dim, self.num_goals
        parts = [
            (P[:g, :d] - self.positions).ravel(),
            (P[g : self.num_goal_points, :d] - P[self.pointed, :d] - self.directions).ravel(),
        ]
        X = slack = None
        if self.hinged:
            X = P[self.num_goal_points :, :d].T @ self.select
            slack = self.rhs - self.rows @ lift_points(X).ravel()
            parts.append(np.minimum(slack, 0.0))
        return np.concatenate(parts), (frames, P, X, slack)

    def jacobian(self, state) -> np.ndarray:
        """d residual / d theta at a state from __call__.

        Hinge rows are zero while their inequality row holds; a violated
        row's gradient in X is -2 (X B11 + B21), with B11 the Gram block and
        B21 the X block of B.
        """
        frames, P, X, slack = state
        n, d, g, m = len(frames.axes), self.dim, self.num_goals, self.num_goal_points
        active = np.flatnonzero(slack < 0.0) if self.hinged else ()
        cols = len(P) if len(active) else m  # the hinge's points move only rows that are violated
        dP = _cross(frames.axes, P[:cols, None] - frames.origins) * self.moves[:cols, :, None]
        dP = dP[:, :, :d].transpose(0, 2, 1)  # (column, coordinate, joint)
        rows = [dP[:g].reshape(-1, n), (dP[g:m] - dP[self.pointed]).reshape(-1, n)]
        if self.hinged:
            J = np.zeros((len(slack), n))
            if len(active):
                nv = X.shape[1]
                dX = np.einsum("cv,ckn->kvn", self.select, dP[m:])
                B = self.mats[active]
                J[active] = -2.0 * np.einsum("akv,kvn->an", X @ B[:, :nv, :nv] + B[:, nv:, :nv], dX)
            rows.append(J)
        return np.vstack(rows)


def refine_configuration(residuals: _Residuals, theta0) -> np.ndarray | None:
    """Levenberg-Marquardt on a _Residuals object over joint angles.

    Configurations satisfy every structural distance constraint identically,
    so driving the goal residuals to zero lands exactly on the feasibility
    set; callers still gate the result against the lift's inequalities.  A
    hinged object adds a residual for every inequality row of the lift, so
    that the result holds those rows too.  Returns None when the iteration
    stalls above the tolerance: no damped step lowers the residual, or
    LM_SLOW_STEPS accepted steps in a row each cut its norm by less than
    LM_SLOW_CUT, as they do in the residual valley of an unreachable goal.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    r, state = residuals(theta)
    damping = 1e-8
    slow = 0
    eye = np.eye(len(theta))
    for _ in range(LM_MAX_STEPS):
        if float(np.max(np.abs(r))) < LM_TOL:
            return theta
        if slow == LM_SLOW_STEPS:
            return None
        J = residuals.jacobian(state)
        JtJ = J.T @ J
        g = J.T @ r
        norm = float(np.linalg.norm(r))
        accepted = False
        for _ in range(15):
            step = np.linalg.solve(JtJ + damping * eye, -g)
            r_new, state_new = residuals(theta + step)
            norm_new = float(np.linalg.norm(r_new))
            if norm_new < norm:
                slow = slow + 1 if norm_new > (1.0 - LM_SLOW_CUT) * norm else 0
                theta = theta + step
                r, state = r_new, state_new
                damping = max(damping / 3.0, 1e-12)
                accepted = True
                break
            damping *= 10.0
        if not accepted:
            return None
    return theta if float(np.max(np.abs(r))) < LM_TOL else None


@dataclass(eq=False)
class CidgikResult:
    status: str  # converged | max_iterations | infeasible
    trace: IterationTrace
    X: np.ndarray | None = None
    theta: np.ndarray | None = None
    position_error: float | None = None
    direction_error: float | None = None
    max_penetration: float | None = None
    # verify_solution's verdict on theta; the CLI and the bench report it as is
    verified: bool = False
    certificate: InfeasibilityCertificate | None = None
    solve_time: float = 0.0  # path bound and pass loop wall time; lift and verification excluded
    h: float | None = None

    @property
    def iterations(self) -> int:
        return len(self.trace)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "theta": None if self.theta is None else [float(t) for t in self.theta],
            "h_trace": [float(h) if np.isfinite(h) else None for h in self.trace.h_values],
            "position_error": self.position_error,
            "direction_error": self.direction_error,
            "max_penetration": self.max_penetration,
            "verified": self.verified,
            "iterations": self.iterations,
            "solve_time_s": self.solve_time,
        }


def cidgik_solve(qcqp: QcqpInstance, options: CidgikOptions | None = None) -> CidgikResult:
    """Alternate the linear-cost SDP with the rank-direction update.

    Every pass makes one solve call with the solver's single splitting.  The
    nuclear-norm pass (C = I) starts cold and stops at first_solve_budget
    iterations; each later pass minimizes tr(C Z) with C the direction
    matrix of the previous pass's iterate, warm-started from that iterate,
    under the full iteration cap.  Only the refinement gate closes an
    instance, and only as a pass's acceptance callback (see _PassGate): each
    pass offers it the live iterate at ADMM iterations 10, 20, 40, ... and
    the iterate the pass stops on.  When some goal position lies farther
    from the base than robot.reach by more than LM's own tolerance
    LM_TOL * sqrt(d), no configuration puts a tip there.  Before any pass,
    such an instance ends `infeasible` with one `path_bound` trace record
    when _verify_certificate accepts the multipliers of a structural path
    shorter than its anchors' gap (lifting._path_multipliers).  Otherwise no
    pass gets a gate; offers only read the iterate, so the passes run
    exactly as with a gate that declines them all.  The first refined
    configuration whose exact lift has h below H_TOL and lifted residuals
    within the solver tolerance ends the iteration `converged`, with X and h
    read off that lift.  That configuration is checked once, by verify_solution,
    and `verified` holds its verdict.  An SDP infeasibility ends the
    iteration with only the certificate and the h-trace; reaching the pass
    cap gives `max_iterations` with only the h-trace.  h is measured on the
    iterate the solver's pass stopped on (the accepted one, for an accepted
    pass), and the trace records it before any refinement.
    """
    options = options or CidgikOptions()
    instance = lift(qcqp)
    dim = instance.dim
    tol_con = _constraint_tolerance(instance)
    reach = qcqp.robot.reach + LM_TOL * math.sqrt(dim)
    in_reach = all(float(np.linalg.norm(g.position)) <= reach for g in qcqp.goals)

    out = CidgikResult(status="max_iterations", trace=IterationTrace())
    t0 = time.perf_counter()
    y = None if in_reach else _path_multipliers(qcqp, instance)
    if y is not None:
        certificate = _verify_certificate(instance, y, np.zeros(instance.num_inequalities))
        if certificate is not None:
            out.status, out.certificate = "infeasible", certificate
            out.trace.records.append(IterationRecord(h=float("nan"), solver_status="path_bound"))
            out.solve_time = time.perf_counter() - t0
            return out
    C = np.eye(instance.side)
    warm = None
    settings = dataclasses.replace(
        options.solver,
        max_iters=min(options.solver.max_iters, options.first_solve_budget),
    )
    for k in range(options.max_iterations):
        gate = _PassGate(qcqp, instance, tol_con) if in_reach else None
        result = solve(instance, C, settings, warm_start=warm, accept=gate)
        infeasible = result.status == "infeasible"
        h = float("nan") if infeasible else excess_rank(result.Z, dim)
        out.trace.records.append(IterationRecord(h=h, solver_status=result.status))
        if infeasible:
            out.status = "infeasible"
            out.certificate = result.certificate
            break
        logger.info("iteration %d: h=%.3e solver=%s", k + 1, h, result.status)
        if result.status == "accepted":
            out.status = "converged"
            out.h, Zr, out.theta = result.accepted
            out.X = extract_points(Zr, dim=dim)
            break
        C = direction_matrix(result.Z, dim)
        warm = result.Z
        settings = options.solver
    out.solve_time = time.perf_counter() - t0

    if out.theta is not None:
        report = verify_solution(qcqp, out.theta)
        out.position_error = report.position_error
        out.direction_error = report.direction_error
        out.max_penetration = report.max_penetration
        out.verified = report.success
    return out


class _PassGate:
    """The refinement gate, as one SDP pass's acceptance callback.

    An offered iterate's reconstructed angles seed a local refinement of the
    goal residuals; a configuration satisfies every structural distance
    identically, so only the goal edges need closing.  The gate builds two
    _Residuals objects once: a plain one and, when the lift has inequality
    rows (obstacles, self-collision), a hinged one that carries a hinge on
    each of them, so that LM does not settle where one is violated.  The
    hinged refinement runs first; should it fail, a plain refinement
    follows, and then the hinged refinement again from its configuration,
    which returns at once when that configuration violates no row.  The
    configuration only counts if its exact lifted residuals pass the solver
    tolerance, no inequality is violated and its h is below H_TOL, so an
    accepted offer is a certified feasible rank-d point, not a guess; the
    gate returns (h, lifted Z, theta) for it.

    An instance that never closes would pay one Levenberg-Marquardt run for
    every offer, so an offer whose plain LM stalls makes the gate decline
    the next STALL_BACKOFF offers unseen (the iterate the pass stops on
    counts as one); a further stall restarts the count.  Later iterates
    still get their turn, since one nearer the feasible set can reconstruct
    to angles from which LM closes.  A converged LM that the gate rejects
    (a collision, or h above H_TOL) does not count as a stall, since a
    later iterate can reconstruct to a configuration that passes.
    """

    def __init__(self, qcqp: QcqpInstance, instance, tol_con: float):
        self.qcqp = qcqp
        self.instance = instance
        self.tol_con = tol_con
        self.plain = _Residuals(qcqp)
        self.hinged = _Residuals(qcqp, instance) if instance.num_inequalities else None
        self.declining = 0  # offers still to decline after the last stall

    def __call__(self, Z):
        if self.declining:
            self.declining -= 1
            return None
        qcqp, hinged = self.qcqp, self.hinged
        X0 = extract_points(Z, dim=self.instance.dim)
        theta0 = reconstruct_angles(qcqp.robot, _full_point_matrix(qcqp, X0)).theta
        theta = None if hinged is None else refine_configuration(hinged, theta0)
        if theta is None:
            theta = refine_configuration(self.plain, theta0)
            if theta is None:
                self.declining = STALL_BACKOFF
                return None
            if hinged is not None:
                theta = refine_configuration(hinged, theta)
                if theta is None:
                    return None
        Zr = lift_points(feasible_points(qcqp, theta))
        eq, slack = evaluate(self.instance, Zr)
        ok = float(np.max(np.abs(eq))) <= self.tol_con and (
            not slack.size or float(np.min(slack)) >= -self.tol_con
        )
        hr = excess_rank(Zr, self.instance.dim)
        return (hr, Zr, theta) if ok and hr < H_TOL else None


def _full_point_matrix(qcqp: QcqpInstance, X: np.ndarray) -> np.ndarray:
    """Assemble the layout-ordered point matrix from solved variables.

    Each layout column reads its graph vertex (graph.column_vertex): a
    variable, merged-away ones through their representative, or an anchor.
    End-effector columns without a goal (or without a direction goal) read
    the trailing NaN column and are skipped during reconstruction.
    """
    graph = qcqp.graph
    vertices = [X, graph.anchors, np.full((graph.dim, 1), np.nan)]
    return np.hstack(vertices)[:, graph.column_vertex]


@dataclass(frozen=True)
class VerificationReport:
    success: bool
    position_error: float
    direction_error: float
    max_penetration: float
    failures: tuple[str, ...] = ()


def verify_solution(qcqp: QcqpInstance, theta) -> VerificationReport:
    """Check a configuration against the instance's goals and workspace.

    Success requires every goal position within 0.01 m, every specified goal
    direction within 0.01 rad, a workspace.penetration depth under 0.01 m for
    the spheres over every joint point and aux point and for each plane at the
    point of its own graph vertex, and each self-collision pair (i, j, eps) no
    closer than sqrt(eps) by more than that depth.  Every check reads the
    configuration's joint points, the goal errors included: a goal's tip
    point, and the direction from it to its direction point.
    """
    P = joint_points(qcqp.robot, theta)
    poses = _poses(qcqp.robot, P)
    pos_err = 0.0
    dir_err = 0.0
    for g in qcqp.goals:
        achieved = poses[g.end_effector]
        pos_err = max(pos_err, float(np.linalg.norm(achieved.position - g.position)))
        if g.direction is not None:
            cos = achieved.direction @ g.direction / np.linalg.norm(achieved.direction)
            dir_err = max(dir_err, math.acos(float(np.clip(cos, -1.0, 1.0))))

    X = P @ selection(qcqp)
    points = np.hstack([P, X[:, qcqp.graph.num_variables :]])
    depth = penetration(points, qcqp.spheres)
    vertices = {}  # each plane's own vertices: one call per plane, not per row
    for vertex, plane in qcqp.planes:
        vertices.setdefault(plane, []).append(vertex)
    for plane, columns in vertices.items():
        depth = max(depth, penetration(X[:, columns], planes=[plane]))
    for i, j, eps in qcqp.self_collision:
        depth = max(depth, math.sqrt(eps) - float(np.linalg.norm(X[:, i] - X[:, j])))

    failures = []
    if pos_err >= POSITION_TOL:
        failures.append("position")
    if dir_err >= DIRECTION_TOL:
        failures.append("direction")
    if depth >= PENETRATION_TOL:
        failures.append("collision")
    return VerificationReport(
        success=not failures,
        position_error=pos_err,
        direction_error=dir_err,
        max_penetration=depth,
        failures=tuple(failures),
    )
