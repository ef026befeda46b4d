"""First-order conic solver for linear-cost SDPs, plus the sparse SDPA bridge.

The built-in method is an operator-splitting (ADMM) scheme on

    min tr(C Z)  s.t.  tr(A_k Z) = a_k,  tr(B_j Z) <= b_j,  Z PSD,

with one slack per inequality row, so the affine constraint set is
G x = h with G = [[E, 0], [B, I]]: the equality and inequality rows of
svec(Z) as the lift states them, unscaled, and an identity on the slacks.
The multipliers of a projection onto that set are therefore the Farkas
certificate's y and mu as they stand.  The affine projection eliminates the
slacks and solves in the D = side (side + 1) / 2 dimensions of svec(Z), on
the inverses of a D x D matrix and of the equality rows' Schur complement,
taken once per pass (`_ConicData`), so a projection costs O(rows x D)
however many inequality rows there are.  One ADMM step pairs that
projection onto the affine constraint set with a projection onto the PSD x
nonnegative cone, with over-relaxation and scaled dual updates.  The cone
projection is one eigendecomposition by LAPACK dsyevd, through numpy's
eigh_lo gufunc on a buffer each pass allocates once; the ADMM and the
certificate polish share it.  The solver needs numpy alone: its inverses
and eigendecompositions all run in numpy's LAPACK.  Each step
tests only its dual residual; the split and the true constraint residuals
are computed only once the cheaper tests before them pass.  One loop in
`solve` runs the splitting and owns its iterate, dual variable and step
size rho, the iteration cap, the Farkas certificate probes of the live
iterate at iterations FIRST_PROBE * 2^k (each polished by over-relaxed,
Anderson-mixed alternating projections, `_certificate_from_iterate`) and the
offers of the iterate to a caller's acceptance callback at FIRST_OFFER * 2^k;
a pass returns the iterate it stops on.  The mixing acts on the polish alone:
the ADMM iterates are plain over-relaxed steps.
Everything is dense and deterministic: the same instance and settings
reproduce the same iterates.

There is one splitting on purpose.  ADMM on the dual pair A^T y + S = C is
Douglas-Rachford on the primal (Gabay 1983; Eckstein and Bertsekas 1992), so
a dual variant computes the same iterates as this one: run side by side from
the same start on arm_6dof octahedron and 25-obstacle table instances, with
C = I and with a warm-started rank direction, the two agreed to 7e-14 over
their first 100 iterations (2e-14 on the 3x3 toy), and parted only where
their step-size rules first chose differently.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .lifting import SdpInstance

logger = logging.getLogger("cidgik.solver")

OVER_RELAXATION = 1.5
POLISH_RELAXATION = 1.8  # over-relaxation of the certificate polish's rounds after the first
POLISH_MEMORY = 5  # step differences the certificate polish's Anderson mixing fits
RHO_ADAPT_EVERY = 100
RHO_MIN, RHO_MAX = 1e-4, 1e4
FIRST_PROBE = 100  # Farkas probes of the iterate at FIRST_PROBE * 2^k
CERT_TOL = 1e-6
CERT_POLISH_ROUNDS = 300  # cap on the alternating projections of a failed probe
FIRST_OFFER = 10  # offers to the acceptance callback at FIRST_OFFER * 2^k
# Every stopping test accepts a residual below EPS + EPS * scale, with scale
# the size of the quantities it compares.
EPS = 1e-7


class NumericalBreakdownError(RuntimeError):
    """The iteration produced non-finite values or a factorization failed."""


@dataclass(frozen=True)
class SolverSettings:
    max_iters: int = 50000

    def __post_init__(self):
        _check_count(self.max_iters, "max_iters")


def _check_count(value, what: str) -> None:
    """Reject anything but an integer of at least 1 (bools included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{what} must be an integer of at least 1")


@dataclass(frozen=True, eq=False)
class InfeasibilityCertificate:
    """Farkas-type witness that the constraint set has no PSD solution.

    With multipliers y (free) and mu >= 0, S = sum_k y_k A_k + sum_j mu_j B_j
    is PSD while a.y + b.mu < 0; any feasible Z would give
    0 <= tr(S Z) <= a.y + b.mu, a contradiction.
    """

    y: np.ndarray
    mu: np.ndarray
    value: float
    min_eigenvalue: float


@dataclass(eq=False)
class SolveResult:
    """One pass's outcome; Z is always the iterate the pass stopped on.

    That is the converged iterate (optimal), the probed one (infeasible),
    the one the acceptance callback took (accepted) or the last one under
    the iteration cap (max_iters).
    """

    status: str  # optimal | infeasible | accepted | max_iters
    Z: np.ndarray
    objective: float
    iterations: int
    eq_residual: float
    ineq_violation: float
    certificate: InfeasibilityCertificate | None = None
    accepted: object = None  # the acceptance callback's value that ended the pass


class _SvecSpace:
    """Symmetric matrices as vectors with the trace inner product preserved."""

    def __init__(self, n: int):
        self.n = n
        self.rows, self.cols = np.triu_indices(n)
        self.weights = np.where(self.rows == self.cols, 1.0, math.sqrt(2.0))
        self.dim = len(self.weights)
        # Flat positions of the upper triangle and of its mirror image; the
        # two together cover every entry of an n x n matrix.
        self.upper = self.rows * n + self.cols
        self.lower = self.cols * n + self.rows

    def vec(self, M: np.ndarray) -> np.ndarray:
        return np.take(M, self.upper) * self.weights

    def mat(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The symmetric matrix of v, written into out (C-contiguous n x n) if given."""
        M = np.empty((self.n, self.n)) if out is None else out
        flat = M.reshape(-1)  # a view, since M is C-contiguous
        # Divided, not multiplied by 1 / weights, which rounds differently.
        vals = v / self.weights
        flat[self.upper] = vals
        flat[self.lower] = vals
        return M


class _ConicData:
    """Preprocessed constraint system shared by the solve loop and certificates.

    The iterate is (z, s): z = svec(Z) in D dimensions and one slack per
    inequality row.  The constraint operator is G = [[E, 0], [B, I]] with
    right-hand side h = (e, c), all in the lift's own units: E and e the
    equality rows and their right-hand side, B and c the inequality rows
    and theirs.  G is never formed; `rows` holds its svec block [E; B].  On
    the affine set G x = h the slacks are s = c - B z, so the projection
    (_reduce) eliminates them and works in D dimensions on H = I + B^T B
    and the Schur complement S = E H^-1 E^T of the equality rows.  Both are
    inverted here, once per pass, by numpy's LU inverse, so each
    projection's solves are matvecs; a singular S (dependent equality rows,
    which its Cholesky test finds) takes its eigh pseudo-inverse instead.
    Without inequality rows H = I is neither formed nor inverted, and
    S = E E^T.
    """

    def __init__(self, instance: SdpInstance):
        self.instance = instance
        self.space = _SvecSpace(instance.side)
        D = self.space.dim
        self.n_eq = instance.num_equalities
        self.n_ineq = instance.num_inequalities
        self._cone_buf = np.empty((instance.side, instance.side))  # project_cone_min_eig's scatter

        # Each block's svec rows are gathered straight into one contiguous
        # array, with no stacked copy of the matrices.  (Mode "clip" writes
        # into out unbuffered; every index is in range.)
        rows = np.empty((self.n_eq + self.n_ineq, D))
        blocks = ((instance.eq_mats, rows[: self.n_eq]), (instance.ineq_mats, rows[self.n_eq :]))
        for mats, out in blocks:
            flat = mats.reshape(len(out), instance.side**2)
            np.take(flat, self.space.upper, axis=1, out=out, mode="clip")
        rows *= self.space.weights
        squared = np.einsum("ij,ij->i", rows, rows)  # row norms squared, with no m x D temporary
        if not np.all((squared > 0.0) & (squared < math.inf)):  # NaN fails too
            raise ValueError("constraint matrices must be finite and nonzero")
        self.rows = rows  # G without its slack columns
        self.h = np.concatenate([instance.eq_rhs, instance.ineq_rhs])
        self.D = D

        self.E = rows[: self.n_eq]
        self.e = instance.eq_rhs
        self.B = rows[self.n_eq :]
        self.c = instance.ineq_rhs
        if self.n_ineq:
            H = self.B.T @ self.B
            H.flat[:: D + 1] += 1.0
            # H >= I is well conditioned, and its explicit inverse turns each
            # projection's H solve into one matvec.  The LU inverse is
            # symmetric only up to rounding; the projections use its exactly
            # symmetric part, without which the certificate polish of an
            # unreachable goal among obstacles needs more rounds.
            h_inv = np.linalg.inv(H)
            self._h_inv = 0.5 * (h_inv + h_inv.T)
            self.M = self._h_inv @ self.E.T  # H^-1 E^T
        else:
            self.M = self.E.T
        S = self.E @ self.M
        try:
            # S is positive definite exactly when the equality rows are independent.
            np.linalg.cholesky(S)
            self._s_inv = np.linalg.inv(S)
        except np.linalg.LinAlgError:
            lam, V = np.linalg.eigh(S)
            inv = np.zeros_like(lam)
            keep = lam > 1e-12 * max(float(np.max(lam, initial=0.0)), 1.0)
            inv[keep] = 1.0 / lam[keep]
            self._s_inv = (V * inv) @ V.T

    def _reduce(self, w: np.ndarray, homogeneous: bool) -> tuple[np.ndarray, np.ndarray]:
        """(u, lam) for the projection of w onto G x = h, or onto G x = 0 if homogeneous.

        With w = (a, b), the projection x = (z, c - B z) minimizes
        ||z - a||^2 + ||c - B z - b||^2 subject to E z = e, so
        z = u - H^-1 E^T lam with u = H^-1 (a + B^T (c - b)) and lam from
        S lam = E u - e, one matvec on the inverse of S taken once per pass.
        A singular S (dependent equality rows) takes its pseudo-inverse,
        which projects onto G x = proj_range(G) h.  Both project_affine and
        multipliers read the projection off (u, lam).
        """
        D = self.D
        if self.n_ineq:
            t = w[D:] if homogeneous else w[D:] - self.c
            u = self._h_inv @ (w[:D] - self.B.T @ t)
        else:
            u = w[:D]
        r = self.E @ u
        if not homogeneous:
            r -= self.e
        return u, self._s_inv @ r

    def project_affine(self, w: np.ndarray) -> np.ndarray:
        """The projection x = (z, c - B z) of w onto G x = h."""
        u, lam = self._reduce(w, False)
        z = u - self.M @ lam
        if not self.n_ineq:
            return z
        return np.concatenate([z, self.c - self.B @ z])

    def multipliers(self, w: np.ndarray, homogeneous: bool = False) -> np.ndarray:
        """y with w - x = G^T y, x the projection of w onto G x = h (G x = 0 if homogeneous).

        lam for the equality rows, and for each inequality row its slack gap
        b - s = b - c + B z, since G's slack columns are the identity.
        """
        u, lam = self._reduce(w, homogeneous)
        gap = w[self.D :] + self.B @ (u - self.M @ lam)
        if not homogeneous:
            gap -= self.c
        return np.concatenate([lam, gap])

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """G^T y, without forming G."""
        return np.concatenate([self.rows.T @ y, y[self.n_eq :]])

    def project_cone_min_eig(self, w: np.ndarray) -> tuple[np.ndarray, float]:
        """proj_K(w), plus the least eigenvalue of mat(w[:D]) that it costs anyway.

        One LAPACK dsyevd on the lower triangle of the buffer this pass
        allocated, through numpy's eigh_lo gufunc: np.linalg.eigh calls the
        same gufunc and gets the same eigenpairs, but its wrapper costs about
        a quarter of the call.  The rebuild keeps every column, zero
        eigenvalues included, so it rounds as it always did.  Neither scans
        for NaN: a NaN that dsyevd returns reaches the output and the solve
        loop's finiteness check, and where dsyevd fails on one (the gufunc
        flags it invalid, where eigh raised LinAlgError) this raises
        NumericalBreakdownError.
        """
        M = self.space.mat(w[: self.D], out=self._cone_buf)
        try:
            with np.errstate(invalid="raise"):
                lam, V = _eigh_lo(M)
        except FloatingPointError as error:
            raise NumericalBreakdownError("dsyevd failed on the cone's input") from error
        lam_min = float(lam[0])
        np.maximum(lam, 0.0, out=lam)
        out = np.empty_like(w)
        out[: self.D] = self.space.vec((V * lam) @ V.T)
        np.maximum(w[self.D :], 0.0, out=out[self.D :])
        return out, lam_min

    def affine_least_squares_residual(self) -> tuple[np.ndarray, float]:
        """Residual h - proj_range(G) h; nonzero means the affine set is empty.

        x = project_affine(0) meets G x = proj_range(G) h.  Its slacks meet
        the inequality rows by construction, so only equality rows keep a
        residual.
        """
        x = self.project_affine(np.zeros(self.D + self.n_ineq))
        resid = np.zeros(len(self.h))
        resid[: self.n_eq] = self.e - self.E @ x[: self.D]
        return resid, float(np.max(np.abs(resid))) if resid.size else 0.0


def _constraint_tolerance(instance: SdpInstance) -> float:
    """Residual tolerance on every constraint row: EPS + EPS * max |rhs|.

    The solver's stopping tests and the refinement gate of cidgik_solve both
    accept a point against this one number.
    """
    rhs = np.concatenate([instance.eq_rhs, instance.ineq_rhs])
    rhs_scale = float(np.max(np.abs(rhs))) if rhs.size else 0.0
    return EPS + EPS * rhs_scale


def _verify_certificate(
    instance: SdpInstance, y: np.ndarray, mu: np.ndarray
) -> InfeasibilityCertificate | None:
    """Normalize multipliers and check the Farkas conditions to 1e-6."""
    mu = np.maximum(mu, 0.0)
    scale = float(np.linalg.norm(np.concatenate([y, mu])))
    if scale <= 0.0:
        return None
    y = y / scale
    mu = mu / scale
    S = np.tensordot(y, instance.eq_mats, 1) + np.tensordot(mu, instance.ineq_mats, 1)
    value = float(instance.eq_rhs @ y) + float(instance.ineq_rhs @ mu)
    min_eig = float(np.linalg.eigvalsh(S)[0]) if instance.side else 0.0
    if value <= -CERT_TOL and min_eig >= -CERT_TOL:
        return InfeasibilityCertificate(y=y, mu=mu, value=value, min_eigenvalue=min_eig)
    return None


def _certificate_from_iterate(
    data: _ConicData, w: np.ndarray, iteration: int
) -> InfeasibilityCertificate | None:
    """Farkas test on a cone point w through its gap to the affine set.

    w - proj_affine(w) = G^T y, with y the multipliers of the projection
    (_ConicData.multipliers).  When the affine set and the cone are disjoint,
    the gap of the ADMM iterate tends to the closest-pair direction, which
    lies in the dual cone and makes y a Farkas witness (Banjac, Goulart,
    Stellato and Boyd, JOTA 2019): its first n_eq entries are the equality
    multipliers and the rest mu.

    Long before the gap itself is PSD enough to verify, its a.y is already
    well below zero, so the multipliers are polished by alternating
    projections between the cone and range(G^T):
    v = proj_K(G^T y), then y_new the multipliers of the projection of v
    onto G x = 0, whose gap G^T y_new is the part of v in range(G^T).  The
    rounds converge linearly, so after the first each one is over-relaxed,
    y + POLISH_RELAXATION * (y_new - y), and then Anderson-mixed (type II;
    Zhang, O'Donoghue and Boyd, arXiv 1808.03971): a least-squares fit over
    the last POLISH_MEMORY differences of those relaxed steps and of the
    relaxed y they reach picks the combination of the kept rounds whose
    steps cancel best.  The mixed y is taken only while its a.y + b.mu is
    still negative (read off the kept rounds' values, which mix alike);
    otherwise the round moves on with its relaxed y and forgets the older
    rounds.
    Over keys 0-159 of the benchmark's unreachable goals that cuts a
    certificate's polish from a median of 92 rounds (at most 151) relaxed
    alone to 8 (at most 28).  The slack columns of G are the identity, so
    G^T y = (svec S(y), mu) lies in the cone exactly when S(y) is PSD and
    mu >= 0: the rounds walk toward the set of certificates.  Each round's
    cone projection (one dsyevd) also gives lambda_min(S), which with a.y
    and the sign of mu screens the multipliers the round moves on with.
    Only those that pass the screen get the full check, _verify_certificate,
    which alone decides.  The probe's multipliers are not checked before
    round 1: when G^T y already lies in the cone it is its own projection,
    and round 1 checks that same y.

    The polish runs until it decides: a screened round verifies, or a
    round's a.y + b.mu (h.y of its relaxed y, the one h.y each round
    computes) reaches zero, which no certificate can have, or
    CERT_POLISH_ROUNDS rounds have run.  On a feasible instance a.y + b.mu
    rises through zero within tens of rounds and stays there; on an
    unreachable goal it stays negative until the certificate verifies.  Each
    probe logs one debug line: the ADMM iteration it probed, its polish
    rounds and how it ended.
    """
    y = data.multipliers(w)
    certificate, outcome = None, "round cap"
    v = data.project_cone_min_eig(data.adjoint(y))[0]
    history = []  # (relaxed step, relaxed y, its h.y) of the latest rounds after the first
    for rounds in range(1, CERT_POLISH_ROUNDS + 1):
        y_new = data.multipliers(v, homogeneous=True)
        if rounds == 1:
            y = y_new
        else:
            step = POLISH_RELAXATION * (y_new - y)
            y = y + step
        value = float(data.h @ y)
        if value >= 0.0:
            outcome = "value turned nonnegative"
            break
        if rounds > 1:
            history.append(np.concatenate([step, y, [value]]))
            del history[:-POLISH_MEMORY - 1]
            if len(history) > 1:
                # The combination of the kept rounds whose steps cancel
                # best; h.y is linear, so the value mixes with the y.
                n = len(y)
                diffs = np.diff(history, axis=0)
                gamma = np.linalg.lstsq(diffs[:, :n].T, step, rcond=None)[0]
                mixed = history[-1][n:] - gamma @ diffs[:, n:]
                if mixed[-1] < 0.0:
                    y, value = mixed[:-1], float(mixed[-1])
                else:
                    del history[:-1]
        g = data.adjoint(y)
        v, lam_min = data.project_cone_min_eig(g)
        # Both tests of _verify_certificate, up to its normalization, and
        # mu >= 0: the slack block of G^T y is mu.
        tol = CERT_TOL * float(np.linalg.norm(y))
        if (
            lam_min >= -tol
            and value <= -tol
            and float(np.min(g[data.D :], initial=0.0)) >= -tol
        ):
            certificate = _verify_certificate(data.instance, y[: data.n_eq], y[data.n_eq :])
            if certificate is not None:
                outcome = "verified"
                break
    logger.debug(
        "Farkas probe at iteration %d: %s after %d polish rounds", iteration, outcome, rounds
    )
    return certificate


def _true_residuals(data: _ConicData, x_vec):
    """(equality residual inf-norm, inequality violation inf-norm) of an iterate."""
    r = data.rows @ x_vec[: data.D] - data.h
    eq_res = float(np.max(np.abs(r[: data.n_eq]), initial=0.0))
    ineq_viol = float(np.max(r[data.n_eq :], initial=0.0))
    return eq_res, ineq_viol


def solve(
    instance: SdpInstance,
    C: np.ndarray | None = None,
    settings: SolverSettings | None = None,
    warm_start: np.ndarray | None = None,
    accept=None,
) -> SolveResult:
    """Minimize tr(C Z) over the instance's constraints and the PSD cone.

    Returns optimal with residuals below the requested tolerances, infeasible
    with a verified certificate attached, accepted when the acceptance
    callback took an iterate, or max_iters with the last iterate.
    warm_start, when given, seeds the iteration with a previous Z.

    At iterations FIRST_PROBE * 2^k (100, 200, 400, ...), while the combined
    residual (true constraint residuals and split) is still above 50x the
    constraint tolerance, the current iterate's gap to the affine set is
    mapped to multipliers and checked as a Farkas certificate; multipliers
    that fail are polished by over-relaxed, Anderson-mixed alternating
    projections toward the certificate set, each round screened and checked
    again, until a round verifies, its a.y + b.mu turns nonnegative or
    CERT_POLISH_ROUNDS rounds have run (see _certificate_from_iterate).
    The schedule advances at every scheduled iteration, whether or not the
    residual test lets that probe run.  The first certificate that verifies
    ends the pass infeasible.  The probe only reads the iterate, so a pass
    it never stops runs exactly as without it.  The combined residual is
    computed only at probe iterations, and the residuals SolveResult reports
    only at the stop.

    accept, when given, is offered the current cone point Z at iterations
    FIRST_OFFER * 2^k (10, 20, 40, ...) and at the iteration the pass stops
    on, an optimal stop or the max_iters cap.  It returns None to decline;
    any other value ends the pass accepted, with that value in
    SolveResult.accepted and Z the offered iterate, so a pass whose stop
    the callback takes ends accepted, not optimal.  Offers only read the
    iterate too, so a pass that declines every offer runs exactly as
    without them.

    Every pass runs the one splitting in this function's loop, with or
    without a warm start; a dual-pair variant would compute the same
    iterates (see the module docstring).
    """
    settings = settings or SolverSettings()
    if C is None:
        C = np.eye(instance.side)
    C = np.asarray(C, dtype=float)
    if C.shape != (instance.side, instance.side):
        raise ValueError("objective matrix side does not match the instance")
    # The loop's matvecs and its eigh_lo calls scan for no NaN; finite input
    # plus the per-iteration check on the dual residual keep NaN from going
    # unnoticed.
    if not np.all(np.isfinite(C)):
        raise ValueError("objective matrix must be finite")
    if np.max(np.abs(C - C.T)) > 1e-12 * max(1.0, float(np.max(np.abs(C)))):
        raise ValueError("objective matrix must be symmetric")
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=float)
        if warm_start.shape != (instance.side, instance.side):
            raise ValueError("warm start side does not match the instance")
        if not np.all(np.isfinite(warm_start)):
            raise ValueError("warm start must be finite")

    data = _ConicData(instance)
    space = data.space
    D = data.D
    total = D + data.n_ineq

    resid, resid_inf = data.affine_least_squares_residual()
    if resid_inf > 1e-9 * (1.0 + float(np.max(np.abs(data.h)))):
        # The equality system alone is contradictory.
        cert = _verify_certificate(instance, -resid[: data.n_eq], -resid[data.n_eq :])
        status = "infeasible" if cert is not None else "max_iters"
        return SolveResult(
            status=status,
            Z=np.zeros((instance.side, instance.side)),
            objective=0.0,
            iterations=0,
            eq_residual=resid_inf,
            ineq_violation=0.0,
            certificate=cert,
        )

    c_vec = np.zeros(total)
    c_vec[:D] = space.vec(0.5 * (C + C.T))

    x0 = np.zeros(total)
    if warm_start is not None:
        x0[:D] = space.vec(warm_start)
    else:
        x0[:D] = space.vec(np.eye(instance.side))
    x0[D:] = np.maximum(data.c - data.B @ x0[:D], 0.0)

    tol_con = _constraint_tolerance(instance)
    dual_tol = EPS + EPS
    # Over-relaxed ADMM with a scaled dual u: x the affine point, z the cone
    # point.  When the objective ties over a face, z settles near the face's
    # center instead of a vertex, mimicking the max-rank solutions
    # interior-point methods return, which the first rank-direction update
    # needs in order to see the full eigenstructure.
    z = x0
    u = np.zeros_like(z)
    rho = 1.0
    status = "max_iters"
    certificate = None
    accepted = None
    next_offer, next_probe = FIRST_OFFER, FIRST_PROBE
    for it in range(1, settings.max_iters + 1):
        x = data.project_affine(z - u - c_vec / rho)
        xr = OVER_RELAXATION * x + (1.0 - OVER_RELAXATION) * z
        z_new = data.project_cone_min_eig(xr + u)[0]
        u += xr - z_new
        step = z_new - z
        dual_res = rho * float(np.max(np.abs(step)))
        z = z_new
        # Every entry of the new iterate reaches the dual residual, so it is
        # non-finite whenever the iterate is.
        if not math.isfinite(dual_res):
            raise NumericalBreakdownError(
                f"solver iterates became non-finite at iteration {it}"
            )
        # The stopping test asks the dual residual, the split max|x - z| and
        # the true constraint residuals of z each to be within tolerance, in
        # that order and lazily: each is computed only once the ones before
        # it pass.
        converged = False
        if dual_res <= dual_tol:
            split = float(np.max(np.abs(x - z)))
            split_tol = EPS + EPS * max(float(np.max(np.abs(x))), float(np.max(np.abs(z))))
            if split <= split_tol:
                eq_res, ineq_viol = _true_residuals(data, z)
                converged = eq_res <= tol_con and ineq_viol <= tol_con
        # The iterate a pass stops on is offered too; doubling next_offer
        # off schedule is harmless, since the loop ends after it.
        if accept is not None and (
            it == next_offer or converged or it == settings.max_iters
        ):
            next_offer *= 2
            accepted = accept(space.mat(z[:D]))
            if accepted is not None:
                status = "accepted"
                break
        if converged:
            status = "optimal"
            break
        if it == next_probe:
            next_probe *= 2
            split = float(np.max(np.abs(x - z)))
            if max(*_true_residuals(data, z), split) > 50 * tol_con:
                # z is a cone point, so its affine gap is the probe.
                certificate = _certificate_from_iterate(data, z, it)
                if certificate is not None:
                    status = "infeasible"
                    break
        # The step size follows the balance of the primal residual and the
        # dual change; rescaling u keeps the unscaled dual rho * u.
        if it % RHO_ADAPT_EVERY == 0:
            dual_change = rho * float(np.linalg.norm(step))
            rp = float(np.linalg.norm(x - z))
            if rp > 10.0 * dual_change and rho < RHO_MAX:
                rho *= 2.0
                u *= 0.5
            elif dual_change > 10.0 * rp and rho > RHO_MIN:
                rho *= 0.5
                u *= 2.0

    eq_res, ineq_viol = _true_residuals(data, z)
    Zm = space.mat(z[:D])
    objective = float(np.tensordot(C, Zm))
    logger.debug(
        "solve finished: status=%s iters=%d eq_res=%.3e ineq=%.3e obj=%.6g",
        status,
        it,
        eq_res,
        ineq_viol,
        objective,
    )
    return SolveResult(
        status=status,
        Z=Zm,
        objective=objective,
        iterations=it,
        eq_residual=eq_res,
        ineq_violation=ineq_viol,
        certificate=certificate,
        accepted=accepted,
    )


# ---------------------------------------------------------------------------
# Sparse SDPA text format


def _fmt(v: float) -> str:
    return repr(float(v))


def export_sdpa(instance: SdpInstance) -> str:
    """Serialize the instance's nuclear-norm problem as sparse SDPA (.dat-s) text.

    The file encodes the standard SDPA pair whose dual is our problem
    min tr(Z) s.t. tr(A_k Z) = a_k, tr(B_j Z) <= b_j, Z PSD: the objective
    matrix I enters negated, inequalities gain a diagonal slack block, and the
    right-hand sides become the SDPA cost vector.  Constraints are written
    equalities first, matrix entries upper-triangle row-major, so equal
    instances export byte-identical text.  A leading comment records the
    target rank, which the standard format cannot carry.
    """
    n = instance.side
    n_eq = instance.num_equalities
    n_ineq = instance.num_inequalities
    lines = [f"* rank target = {instance.dim}", f"{n_eq + n_ineq}"]
    if n_ineq:
        lines.append("2")
        lines.append(f"{n} -{n_ineq}")
    else:
        lines.append("1")
        lines.append(f"{n}")
    rhs = np.concatenate([instance.eq_rhs, instance.ineq_rhs])
    lines.append(" ".join(_fmt(v) for v in rhs))

    mats = np.concatenate([-np.eye(n)[None], instance.eq_mats, instance.ineq_mats])
    for matno, M in enumerate(mats):
        for i, j in zip(*np.nonzero(np.triu(M))):  # upper triangle, row-major
            lines.append(f"{matno} 1 {i + 1} {j + 1} {_fmt(M[i, j])}")
        if matno > n_eq:
            lines.append(f"{matno} 2 {matno - n_eq} {matno - n_eq} {_fmt(1.0)}")
    return "\n".join(lines) + "\n"


def parse_sdpa(text: str, dim: int | None = None) -> tuple[SdpInstance, np.ndarray]:
    """Parse sparse SDPA text produced by export_sdpa back into an instance.

    Returns (instance, C).  The rank target is read from the leading comment
    when present; otherwise the dim argument is required.
    """
    rank_target = dim
    tokens: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("*") or stripped.startswith('"'):
            if "rank target" in stripped and "=" in stripped:
                rank_target = int(stripped.split("=")[1])
            continue
        tokens.extend(stripped.replace(",", " ").split())
    if rank_target is None:
        raise ValueError("no rank-target comment in file and no dim given")

    pos = 0

    def take() -> str:
        nonlocal pos
        if pos == len(tokens):
            raise ValueError("SDPA header ends early")
        tok = tokens[pos]
        pos += 1
        return tok

    m = int(float(take()))
    nblocks = int(float(take()))
    blocks = [int(float(take())) for _ in range(nblocks)]
    side = blocks[0]
    if side <= 0:
        raise ValueError("first SDPA block must be the PSD block")
    n_ineq = -blocks[1] if nblocks > 1 else 0
    if nblocks > 2 or (nblocks == 2 and blocks[1] >= 0):
        raise ValueError("expected one PSD block plus an optional diagonal slack block")
    rhs = np.array([float(take()) for _ in range(m)])
    n_eq = m - n_ineq

    entries = tokens[pos:]
    if len(entries) % 5:
        raise ValueError("SDPA entries must come in fives: matno blkno i j value")
    C = np.zeros((side, side))
    eq_mats = np.zeros((n_eq, side, side))
    ineq_mats = np.zeros((n_ineq, side, side))
    for k in range(0, len(entries), 5):
        matno, blkno, i, j = (int(float(t)) for t in entries[k : k + 4])
        v = float(entries[k + 4])
        if not 0 <= matno <= m:
            raise ValueError(f"matrix number {matno} outside 0..{m}")
        if blkno == 1:
            if not (1 <= i <= side and 1 <= j <= side):
                raise ValueError(f"entry ({i}, {j}) outside the {side} x {side} block")
            if matno == 0:
                target = C
            elif matno <= n_eq:
                target = eq_mats[matno - 1]
            else:
                target = ineq_mats[matno - 1 - n_eq]
            target[i - 1, j - 1] = v
            target[j - 1, i - 1] = v
        elif blkno == 2:
            if matno <= n_eq or i != j or i != matno - n_eq or v != 1.0:
                raise ValueError("unexpected slack-block entry")
        else:
            raise ValueError(f"unknown block {blkno}")

    instance = SdpInstance(
        side=side,
        dim=rank_target,
        eq_mats=eq_mats,
        eq_rhs=rhs[:n_eq],
        ineq_mats=ineq_mats,
        ineq_rhs=rhs[n_eq:],
    )
    return instance, -C
