import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cidgik.iteration
import cidgik.solver
from cidgik import (
    CidgikOptions,
    Goal,
    SdpInstance,
    WorkspaceSpec,
    build_toy_instance,
    assemble_qcqp,
    cidgik_solve,
    direction_matrix,
    environment,
    excess_rank,
    export_sdpa,
    generate,
    lift,
    parse_sdpa,
    solve,
)
from cidgik.solver import NumericalBreakdownError, SolverSettings, _verify_certificate

GOLDEN = Path(__file__).parent / "data" / "toy_identity.dat-s"


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(eps=0.0)
    with pytest.raises(ValueError):
        SolverSettings(eps=float("nan"))
    with pytest.raises(ValueError):
        SolverSettings(max_iters=0)


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (SolverSettings, "eps", float("inf")),
        (SolverSettings, "max_iters", 2.5),
        (SolverSettings, "max_iters", 100.0),
        (SolverSettings, "max_iters", True),
        (CidgikOptions, "max_iterations", 2.5),
        (CidgikOptions, "first_solve_budget", 50.0),
        (CidgikOptions, "h_tol", float("inf")),
        (CidgikOptions, "h_tol", float("nan")),
    ],
)
def test_fractional_counts_and_infinite_tolerances_rejected(cls, field, value):
    """A fractional count used to fail later, in range(); an infinite eps
    made every residual test pass vacuously."""
    with pytest.raises(ValueError):
        cls(**{field: value})


def test_toy_solve_feasible():
    toy = build_toy_instance()
    result = solve(toy, np.eye(3))
    assert result.status == "optimal"
    eq, slack = (
        np.array([np.tensordot(A, result.Z) for A in toy.eq_mats]) - toy.eq_rhs,
        toy.ineq_rhs - np.array([np.tensordot(B, result.Z) for B in toy.ineq_mats]),
    )
    assert np.max(np.abs(eq)) < 1e-6
    assert np.min(slack) > -1e-6
    assert np.min(np.linalg.eigvalsh(result.Z)) >= -10 * SolverSettings().eps


def test_toy_convex_iteration_concentrates_rank_one():
    toy = build_toy_instance()
    result = solve(toy, np.eye(3))
    C = direction_matrix(result.Z, 1)
    warm = result.Z
    for _ in range(8):
        result = solve(toy, C, warm_start=warm)
        h = excess_rank(result.Z, 1)
        if h < 1e-6:
            break
        C = direction_matrix(result.Z, 1)
        warm = result.Z
    assert h < 1e-6
    z = result.Z[:, 2]  # last column of the rank-1 solution zz^T with s=1
    np.testing.assert_allclose(z, [0.0, 1.0, 1.0], atol=1e-4)


def test_zero_cost_returns_any_feasible():
    toy = build_toy_instance()
    result = solve(toy, np.zeros((3, 3)))
    assert result.status == "optimal"
    assert result.objective == 0.0


def test_contradictory_equalities_infeasible():
    instance = SdpInstance(
        side=2,
        dim=1,
        eq_mats=[np.eye(2), np.eye(2)],
        eq_rhs=np.array([0.0, 1.0]),
    )
    result = solve(instance)
    assert result.status == "infeasible"
    cert = _verify_certificate(instance, result.certificate.y, result.certificate.mu)
    assert cert.value < 0.0
    assert cert.min_eigenvalue > -1e-6


def test_unreachable_goal_certified(chain_6dof):
    goal = Goal(
        end_effector=0,
        position=np.array([1.5 * chain_6dof.reach, 0.0, 0.0]),
        direction=np.array([1.0, 0.0, 0.0]),
    )
    instance = lift(assemble_qcqp(chain_6dof, [goal]))
    result = solve(instance, settings=SolverSettings(max_iters=8000))
    assert result.status in ("infeasible", "max_iters")
    if result.status == "infeasible":
        cert = _verify_certificate(instance, result.certificate.y, result.certificate.mu)
        assert cert.value < -1e-6
        assert cert.min_eigenvalue >= -1e-6
        assert cert.mu.size == 0 or np.min(cert.mu) >= 0.0


def _unreachable_qcqp(robot, key, workspace=None):
    """A goal at 1.5x reach, built as the benchmark's arm-unreachable workload builds it."""
    direction = np.random.Generator(np.random.Philox(key=key)).standard_normal(3)
    direction /= np.linalg.norm(direction)
    goal = Goal(end_effector=0, position=1.5 * robot.reach * direction, direction=direction)
    return assemble_qcqp(robot, [goal], workspace or WorkspaceSpec())


def _record_passes(monkeypatch):
    """Collect (warm start, SolveResult) for every SDP pass cidgik_solve runs."""
    passes = []
    inner = cidgik.iteration.solve

    def recording_solve(*args, **kwargs):
        passes.append((kwargs["warm_start"], inner(*args, **kwargs)))
        return passes[-1][1]

    monkeypatch.setattr(cidgik.iteration, "solve", recording_solve)
    return passes


@pytest.mark.parametrize("key", [0, 22])
def test_probe_certifies_unreachable_goal(chain_6dof, key):
    """The iterate yields a verified certificate at the first or second probe.

    The probe polishes the multipliers of each iterate's affine gap until
    they verify or their a.y turns nonnegative; key 0 certifies at
    iteration 100 and key 22 at 200.  With 20 polish rounds per probe they
    certified at 800 and 600, the raw multipliers alone first verified at
    3300, and the stall-window hunt before the probe needed 3150/5505.
    """
    instance = lift(_unreachable_qcqp(chain_6dof, key))
    result = solve(instance, None, SolverSettings(max_iters=8000))
    assert result.status == "infeasible"
    assert result.iterations <= 200
    cert = _verify_certificate(instance, result.certificate.y, result.certificate.mu)
    assert cert is not None
    assert cert.value < 0.0
    assert cert.min_eigenvalue >= -1e-6


def test_unreachable_goal_among_obstacles_certified(chain_6dof):
    """Inequality rows give the certificate multipliers mu >= 0 that must hold too.

    Key 0 among the 25 table obstacles (260 inequality rows) certifies at
    iteration 400 with the Anderson-mixed polish; the relaxed polish alone
    hit its round cap at 200 and 400 and certified at 800, with 20 polish
    rounds per probe it certified at 1400, and the raw probe multipliers
    first verified at 2600.
    """
    table = environment("table", chain_6dof, table_obstacles=25)
    instance = lift(_unreachable_qcqp(chain_6dof, 0, table))
    assert instance.num_inequalities == 260
    result = solve(instance, None, SolverSettings(max_iters=8000))
    assert result.status == "infeasible"
    assert result.iterations <= 400
    cert = result.certificate
    assert cert.mu.size == 260 and cert.mu.min() >= 0.0
    assert _verify_certificate(instance, cert.y, cert.mu) is not None


def test_unreachable_goal_certified_in_first_pass(chain_6dof, monkeypatch):
    passes = _record_passes(monkeypatch)
    qcqp = _unreachable_qcqp(chain_6dof, 22)
    result = cidgik_solve(qcqp, CidgikOptions(solver=SolverSettings(max_iters=8000)))
    assert result.status == "infeasible"
    assert [(warm is None, r.status) for warm, r in passes] == [(True, "infeasible")]


def test_unreachable_goal_stops_probing_after_one_stall(chain_6dof, monkeypatch):
    """The gate's first LM stall ends its offers for the pass; the Farkas probe still certifies."""
    calls = []
    inner = cidgik.iteration.refine_configuration

    def counting_refine(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cidgik.iteration, "refine_configuration", counting_refine)
    qcqp = _unreachable_qcqp(chain_6dof, 0)
    result = cidgik_solve(qcqp, CidgikOptions(solver=SolverSettings(max_iters=8000)))
    assert result.status == "infeasible"
    assert 0 < len(calls) <= len(result.trace)
    cert = result.certificate
    assert _verify_certificate(lift(qcqp), cert.y, cert.mu) is not None


def test_declined_offers_leave_the_pass_unchanged(chain_6dof):
    """An acceptance callback sees iterations 10, 20, 40, ... and the capped stop.

    Declining them all changes nothing, and the capped pass returns the
    iterate it stopped on, the last one offered.
    """
    instance = lift(generate(chain_6dof, "octahedron", 0).qcqp)
    settings = SolverSettings(max_iters=700)
    offered = []

    def decline(Z):
        offered.append(Z)
        return None

    plain = solve(instance, None, settings)
    probed = solve(instance, None, settings, accept=decline)
    assert len(offered) == 8  # iterations 10, 20, ..., 640 and 700
    assert (plain.status, plain.iterations) == ("max_iters", 700)
    assert (probed.status, probed.iterations) == (plain.status, plain.iterations)
    assert probed.Z.tobytes() == plain.Z.tobytes()
    assert offered[-1].tobytes() == plain.Z.tobytes()
    taken = solve(instance, None, settings, accept=lambda Z: "closed")
    assert (taken.status, taken.iterations, taken.accepted) == ("accepted", 10, "closed")
    assert taken.Z.tobytes() == offered[0].tobytes()


def _count_affine_projections(monkeypatch):
    """A list with one entry per _ConicData.project_affine call.

    A pass projects once for its affine pre-check and then once per ADMM
    iteration, so during iteration k the list holds k + 1 entries.
    """
    calls = []
    inner = cidgik.solver._ConicData.project_affine

    def counting_projection(self, w):
        calls.append(None)
        return inner(self, w)

    monkeypatch.setattr(cidgik.solver._ConicData, "project_affine", counting_projection)
    return calls


def test_optimal_stop_is_offered(monkeypatch):
    """The toy's callback sees iterations 10 and 20 and its optimal stop at 25.

    Taking the stop ends the pass accepted, with the stop's iterate.
    """
    calls = _count_affine_projections(monkeypatch)
    offered = []

    def decline(Z):
        offered.append((len(calls) - 1, Z))
        return None

    declined = solve(build_toy_instance(), np.eye(3), accept=decline)
    assert (declined.status, declined.iterations) == ("optimal", 25)
    assert [it for it, _ in offered] == [10, 20, 25]
    assert offered[-1][1].tobytes() == declined.Z.tobytes()
    calls.clear()
    taken = solve(
        build_toy_instance(), np.eye(3), accept=lambda Z: "closed" if len(calls) - 1 == 25 else None
    )
    assert (taken.status, taken.iterations, taken.accepted) == ("accepted", 25, "closed")
    assert taken.Z.tobytes() == declined.Z.tobytes()


def test_nonfinite_warm_start_rejected(toy_qcqp):
    instance = lift(toy_qcqp)
    warm = np.full((instance.side, instance.side), np.inf)
    with pytest.raises(ValueError):
        solve(instance, warm_start=warm)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_nonfinite_or_zero_constraint_rows_rejected(toy_qcqp, bad):
    instance = lift(toy_qcqp)
    eq_mats = instance.eq_mats.copy()
    eq_mats[0] = bad
    broken = SdpInstance(
        side=instance.side,
        dim=instance.dim,
        eq_mats=eq_mats,
        eq_rhs=instance.eq_rhs,
        ineq_mats=instance.ineq_mats,
        ineq_rhs=instance.ineq_rhs,
    )
    with pytest.raises(ValueError, match="finite and nonzero"):
        solve(broken)


def test_probe_leaves_feasible_passes_unchanged(chain_6dof, monkeypatch):
    """On feasible instances the probe finds nothing and changes no pass."""
    probes = []
    inner_probe = cidgik.solver._certificate_from_iterate

    def recording_probe(*args):
        probes.append(inner_probe(*args))
        return probes[-1]

    def run():
        # The nuclear-norm pass of octahedron key 0 at its 4000-iteration
        # budget, without the refinement gate that would end it at iteration 10,
        # and 2000 iterations of table-25 key 0, whose 260 inequality rows
        # send the polished multipliers through the mu >= 0 cone too.
        octahedron = lift(generate(chain_6dof, "octahedron", 0).qcqp)
        table = lift(generate(chain_6dof, "table", 0, table_obstacles=25).qcqp)
        passes = [
            solve(octahedron, None, SolverSettings(max_iters=4000)),
            solve(table, None, SolverSettings(max_iters=2000)),
            solve(build_toy_instance(), np.eye(3)),
        ]
        return [(r.status, r.iterations, r.Z.tobytes()) for r in passes]

    monkeypatch.setattr(cidgik.solver, "_certificate_from_iterate", recording_probe)
    probed = run()
    assert probes and all(p is None for p in probes)  # the probe ran and found nothing
    monkeypatch.setattr(cidgik.solver, "FIRST_PROBE", 10**9)
    assert probed == run()


def test_probes_run_at_doubling_iterations(chain_6dof, monkeypatch):
    """A 2000-iteration feasible pass probes at iterations 100, 200, 400, 800 and 1600.

    Probing every 100 iterations, it paid for 20 failed polishes.
    """
    calls = _count_affine_projections(monkeypatch)
    probed = []
    inner = cidgik.solver._certificate_from_iterate

    def recording_probe(*args):
        probed.append(len(calls) - 1)
        return inner(*args)

    monkeypatch.setattr(cidgik.solver, "_certificate_from_iterate", recording_probe)
    instance = lift(generate(chain_6dof, "octahedron", 0).qcqp)
    result = solve(instance, None, SolverSettings(max_iters=2000))
    assert (result.status, result.iterations) == ("max_iters", 2000)
    assert probed == [100, 200, 400, 800, 1600]


def _reference_admm(instance, iterations):
    """(Z, step sizes) after the given ADMM iterations of a cold C = I pass.

    Written out from the two projections alone: over-relaxation 1.5, a
    scaled dual, and every 100 iterations rho doubled (u halved) when the
    primal residual exceeds 10x the dual change, or halved (u doubled) in
    the opposite case, within [1e-4, 1e4].  The start is Z = I with the
    inequality slacks that I leaves.
    """
    data = cidgik.solver._ConicData(instance)
    space, D = data.space, data.D
    z = np.zeros(D + data.n_ineq)
    z[:D] = space.vec(np.eye(instance.side))
    z[D:] = np.maximum(instance.ineq_rhs - data.unscaled_evaluation(z[:D])[data.n_eq :], 0.0)
    c = np.zeros_like(z)
    c[:D] = space.vec(np.eye(instance.side))
    u = np.zeros_like(z)
    rho = 1.0
    rhos = [rho]
    for k in range(1, iterations + 1):
        x = data.project_affine(z - u - c / rho)
        xr = 1.5 * x - 0.5 * z
        z_new, _ = data.project_cone_min_eig(xr + u)
        u = u + (xr - z_new)
        if k % 100 == 0:
            dual_change = rho * np.linalg.norm(z_new - z)
            primal = np.linalg.norm(x - z_new)
            if primal > 10.0 * dual_change and rho < 1e4:
                rho, u = 2.0 * rho, 0.5 * u
            elif dual_change > 10.0 * primal and rho > 1e-4:
                rho, u = 0.5 * rho, 2.0 * u
            rhos.append(rho)
        z = z_new
    return space.mat(z[:D]), rhos


def test_admm_matches_reference_steps(chain_6dof, monkeypatch):
    """solve() computes the reference ADMM's iterate bit for bit.

    Unreachable key 0 without probes runs 800 iterations, long enough for
    rho to change; octahedron key 0 carries inequality slacks and runs one
    probe, at iteration 100, that finds nothing.
    """
    unreachable = lift(_unreachable_qcqp(chain_6dof, 0))
    octahedron = lift(generate(chain_6dof, "octahedron", 0).qcqp)
    Z, _ = _reference_admm(octahedron, 150)
    result = solve(octahedron, None, SolverSettings(max_iters=150))
    assert (result.status, result.iterations) == ("max_iters", 150)
    assert octahedron.num_inequalities > 0
    assert result.Z.tobytes() == Z.tobytes()

    monkeypatch.setattr(cidgik.solver, "FIRST_PROBE", 10**9)
    Z, rhos = _reference_admm(unreachable, 800)
    result = solve(unreachable, None, SolverSettings(max_iters=800))
    assert (result.status, result.iterations) == ("max_iters", 800)
    assert len(set(rhos)) > 1
    assert result.Z.tobytes() == Z.tobytes()


def test_true_residuals_only_where_they_are_read(chain_6dof, monkeypatch):
    """A 2000-iteration feasible pass computes the true residuals 6 times.

    Once at each of the 5 probes, whose gate reads them, and once for the
    residuals SolveResult reports; the stopping test reaches them only once
    its dual residual and split pass, which they never do here.
    """
    calls = []
    inner = cidgik.solver._true_residuals

    def counting_residuals(*args):
        calls.append(None)
        return inner(*args)

    monkeypatch.setattr(cidgik.solver, "_true_residuals", counting_residuals)
    instance = lift(generate(chain_6dof, "octahedron", 0).qcqp)
    result = solve(instance, None, SolverSettings(max_iters=2000))
    assert result.status == "max_iters"
    assert len(calls) == 6
    assert (result.eq_residual, result.ineq_violation) == inner(
        cidgik.solver._ConicData(instance), cidgik.solver._SvecSpace(instance.side).vec(result.Z)
    )


def test_failed_polish_stops_once_its_value_turns(chain_6dof, monkeypatch):
    """A feasible iterate's polish ends on the round whose a.y + b.mu reaches zero.

    Table-25 key 0's iterate at iteration 100 (260 inequality rows) gets no
    certificate, and its polish stops well before CERT_POLISH_ROUNDS.  The
    stop reads the relaxed multipliers, so the test records the y of every
    h.y the polish takes, and checks each against the relaxation of the
    projections' raw multipliers from the y the round before moved on with
    (the y it sends through G^T).  That y is the round's relaxed step, or
    an Anderson-mixed candidate whose h.y is still negative.
    """
    probes = []
    inner_probe = cidgik.solver._certificate_from_iterate

    def recording_probe(data, w, iteration):
        probes.append((data, w.copy(), iteration))
        return inner_probe(data, w, iteration)

    monkeypatch.setattr(cidgik.solver, "_certificate_from_iterate", recording_probe)
    instance = lift(generate(chain_6dof, "table", 0, table_obstacles=25).qcqp)
    result = solve(instance, None, SolverSettings(max_iters=100))
    assert (result.status, len(probes)) == ("max_iters", 1)

    data, w, iteration = probes[0]
    assert iteration == 100
    solved = []  # the multipliers of the probe's projection, then of each polish round's
    inner_multipliers = cidgik.solver._ConicData.multipliers

    def recording_multipliers(self, v, homogeneous=False):
        solved.append(inner_multipliers(self, v, homogeneous))
        return solved[-1]

    read = []  # the y of each h.y the polish computes: the stopping test's

    class RecordingRow(np.ndarray):
        def __matmul__(self, y):
            read.append(y.copy())
            return np.asarray(self) @ y

    moved = []  # the y each round moves on with: the probe's, then each polish round's
    inner_adjoint = cidgik.solver._ConicData.adjoint

    def recording_adjoint(self, y):
        moved.append(y.copy())
        return inner_adjoint(self, y)

    monkeypatch.setattr(cidgik.solver._ConicData, "multipliers", recording_multipliers)
    monkeypatch.setattr(cidgik.solver._ConicData, "adjoint", recording_adjoint)
    data.h = data.h.view(RecordingRow)
    assert inner_probe(data, w, iteration) is None
    h = np.asarray(data.h)
    assert 1 < len(solved) < 1 + cidgik.solver.CERT_POLISH_ROUNDS
    assert len(read) == len(solved) - 1  # one stopping test per polish round
    assert float(h @ read[-1]) >= 0.0
    assert all(float(h @ y) < 0.0 for y in read[:-1])
    # The last round stops before it moves on.
    assert len(moved) == len(read)
    assert moved[0].tobytes() == solved[0].tobytes()
    # The first round is unrelaxed; each later one moves POLISH_RELAXATION
    # times its step toward the round's projection.
    relaxation = cidgik.solver.POLISH_RELAXATION
    assert read[0].tobytes() == solved[1].tobytes()
    for prev, y, y_new in zip(moved[1:], read[1:], solved[2:]):
        assert y.tobytes() == (prev + relaxation * (y_new - prev)).tobytes()
        assert not np.array_equal(y, y_new)
    # Each round moves on with its relaxed step or with a mixed candidate
    # whose h.y is still negative.
    mixed = [y for y, relaxed in zip(moved[1:], read) if y.tobytes() != relaxed.tobytes()]
    assert mixed and all(float(h @ y) < 0.0 for y in mixed)


@pytest.mark.parametrize("key", [0, 22])
def test_relaxed_polish_certifies_within_its_round_budget(chain_6dof, monkeypatch, key):
    """Keys 0 and 22 certify in their first pass within 30 polish rounds in total.

    Unrelaxed (POLISH_RELAXATION = 1), key 0 took 187 rounds and key 22 took
    162; relaxed by 1.8 they took 103 and 88, and with Anderson mixing on
    top they take 7 and 18 (10 in a failed probe at iteration 100, then 8).
    The goal among the table obstacles certifies by iteration 400 with
    mu >= 0 (test_unreachable_goal_among_obstacles_certified).
    """
    passes = _record_passes(monkeypatch)
    rounds = []
    inner = cidgik.solver._ConicData.multipliers

    def counting_multipliers(self, v, homogeneous=False):
        if homogeneous:  # only the polish projects onto G x = 0
            rounds.append(None)
        return inner(self, v, homogeneous)

    monkeypatch.setattr(cidgik.solver._ConicData, "multipliers", counting_multipliers)
    qcqp = _unreachable_qcqp(chain_6dof, key)
    result = cidgik_solve(qcqp, CidgikOptions(solver=SolverSettings(max_iters=8000)))
    assert result.status == "infeasible"
    assert [(warm is None, r.status) for warm, r in passes] == [(True, "infeasible")]
    assert 0 < len(rounds) <= 30
    assert _verify_certificate(lift(qcqp), result.certificate.y, result.certificate.mu) is not None


# The ADMM iteration at which unreachable keys 0-15 certified in pass 1
# with the relaxed polish alone, before Anderson mixing: each at the first probe.
RELAXED_POLISH_CERTIFIED_AT = [100] * 16


def test_mixed_polish_certifies_where_the_relaxed_polish_did(chain_6dof, monkeypatch):
    """Unreachable keys 0-15 each end infeasible in pass 1, at the same iteration as before.

    The mixing only speeds up a polish that would verify anyway: a mixed
    candidate is taken while its h.y is negative, and otherwise the round
    takes its relaxed step and forgets the older rounds.  Without that
    safeguard, or with the mixing's sign flipped, probes that verified stop
    verifying.
    """
    passes = _record_passes(monkeypatch)
    options = CidgikOptions(solver=SolverSettings(max_iters=8000))
    certified_at = []
    for key in range(16):
        passes.clear()
        result = cidgik_solve(_unreachable_qcqp(chain_6dof, key), options)
        assert result.status == "infeasible"
        assert [r.status for _, r in passes] == ["infeasible"]
        certified_at.append(passes[0][1].iterations)
    assert certified_at == RELAXED_POLISH_CERTIFIED_AT


def test_probes_are_logged(chain_6dof, monkeypatch, caplog):
    """One debug line per probe: its ADMM iteration, polish rounds and outcome.

    Unreachable key 0 verifies at its first probe; a 3-round cap ends that
    probe at the cap instead; table-25 key 0 is feasible, and its probe at
    iteration 100 ends once its value turns nonnegative.
    """

    def probe_lines(instance, max_iters):
        caplog.clear()
        with caplog.at_level("DEBUG", logger="cidgik.solver"):
            solve(instance, None, SolverSettings(max_iters=max_iters))
        return [r.getMessage() for r in caplog.records if "Farkas probe" in r.getMessage()]

    unreachable = lift(_unreachable_qcqp(chain_6dof, 0))
    [line] = probe_lines(unreachable, 100)
    prefix = "Farkas probe at iteration 100: verified after "
    assert line.startswith(prefix) and line.endswith(" polish rounds")
    assert 0 < int(line[len(prefix) :].split()[0]) <= 30
    monkeypatch.setattr(cidgik.solver, "CERT_POLISH_ROUNDS", 3)
    assert probe_lines(unreachable, 100) == [
        "Farkas probe at iteration 100: round cap after 3 polish rounds"
    ]
    monkeypatch.undo()
    table = lift(generate(chain_6dof, "table", 0, table_obstacles=25).qcqp)
    [line] = probe_lines(table, 100)
    assert line.startswith("Farkas probe at iteration 100: value turned nonnegative after ")


def _eigh_cone_reference(data, w):
    """proj_K(w) and lambda_min as the cone projection computed them with np.linalg.eigh."""
    n = data.instance.side
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    vals = w[: data.D] / weights
    M = np.empty((n, n))
    M[rows, cols] = vals
    M[cols, rows] = vals
    lam, V = np.linalg.eigh(M)
    lam_min = float(lam[0])
    np.maximum(lam, 0.0, out=lam)
    out = np.empty_like(w)
    out[: data.D] = ((V * lam) @ V.T)[rows, cols] * weights
    out[data.D :] = np.maximum(w[data.D :], 0.0)
    return out, lam_min


CONE_CASES = {
    "octahedron": lambda robot: lift(generate(robot, "octahedron", 0).qcqp),
    "table-25": lambda robot: lift(generate(robot, "table", 0, table_obstacles=25).qcqp),
    "unreachable": lambda robot: lift(_unreachable_qcqp(robot, 0)),
    "toy": lambda robot: build_toy_instance(),
}


@pytest.mark.parametrize("case", list(CONE_CASES))
def test_cone_projection_matches_eigh_reference(chain_6dof, monkeypatch, case):
    """The LAPACK cone kernel gives the eigh projection's output and lambda_min, bit for bit.

    Its inputs are the cone projections' inputs at ADMM iterations 1, 10
    and 100 (table-25 with its slack block), the unreachable goal's first
    polish inputs, and seeded random vectors, whose matrices are random
    symmetric ones.
    """
    instance = CONE_CASES[case](chain_6dof)
    inputs = []
    inner = cidgik.solver._ConicData.project_cone_min_eig

    def recording_projection(self, w):
        inputs.append(w.copy())
        return inner(self, w)

    monkeypatch.setattr(cidgik.solver._ConicData, "project_cone_min_eig", recording_projection)
    result = solve(instance, None, SolverSettings(max_iters=100))
    monkeypatch.undo()
    data = cidgik.solver._ConicData(instance)
    assert len(inputs) >= result.iterations
    # The ADMM projects once per iteration; an unreachable goal's probe at
    # iteration 100 then polishes.
    chosen = [inputs[0], inputs[9], inputs[99]] if result.iterations == 100 else inputs
    if case == "unreachable":
        assert result.status == "infeasible" and len(inputs) > 100
        chosen += inputs[100:110]
    rng = np.random.Generator(np.random.Philox(key=23))
    chosen += [rng.standard_normal(data.D + data.n_ineq) for _ in range(20)]
    for w in chosen:
        out, lam_min = data.project_cone_min_eig(w)
        want, want_min = _eigh_cone_reference(data, w)
        assert out.tobytes() == want.tobytes()
        assert lam_min == want_min


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cone_projection_nan(chain_6dof, monkeypatch):
    """NaN goes through the kernel as it went through eigh, and solve still stops on it.

    A NaN on the diagonal of a diagonal matrix, or in the slack block,
    reaches the output.  A NaN in a dense matrix makes dsyevd fail, where
    eigh raised LinAlgError; the gufunc flags it invalid and the kernel
    raises NumericalBreakdownError.  A NaN put into a solve's affine point,
    either in the matrix or in a slack, ends the solve with
    NumericalBreakdownError.  No RuntimeWarning escapes on the way.
    """
    instance = lift(generate(chain_6dof, "table", 0, table_obstacles=25).qcqp)
    data = cidgik.solver._ConicData(instance)
    diagonal = np.zeros(data.D + data.n_ineq)
    diagonal[: data.D] = data.space.vec(np.eye(instance.side))
    diagonal[0] = np.nan
    slack = np.ones(data.D + data.n_ineq)
    slack[-1] = np.nan
    for w in (diagonal, slack):
        out, _ = data.project_cone_min_eig(w)
        want, _ = _eigh_cone_reference(data, w)
        assert np.isnan(out).any()
        assert out.tobytes() == want.tobytes()
    dense = np.random.Generator(np.random.Philox(key=23)).standard_normal(len(slack))
    dense[1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        _eigh_cone_reference(data, dense)
    with pytest.raises(NumericalBreakdownError):
        data.project_cone_min_eig(dense)

    inner = cidgik.solver._ConicData.project_affine
    for position in (1, -1):  # an off-diagonal entry of Z, the last slack

        def poisoned_affine(self, w):
            x = inner(self, w)
            x[position] = np.nan
            return x

        monkeypatch.setattr(cidgik.solver._ConicData, "project_affine", poisoned_affine)
        with pytest.raises(NumericalBreakdownError):
            solve(instance, None, SolverSettings(max_iters=100))


NUMPY_ONLY_SOLVES = """
import sys

import numpy as np


class RefuseScipyLinalg:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.linalg" or name.startswith("scipy.linalg."):
            raise ImportError(f"{name} is refused")
        return None


sys.meta_path.insert(0, RefuseScipyLinalg())
import cidgik
from cidgik.robots import arm_6dof
from cidgik.solver import _verify_certificate

robot = arm_6dof()
result = cidgik.cidgik_solve(cidgik.generate(robot, "octahedron", 0).qcqp)
assert result.status == "converged" and result.verified, result.status
direction = np.random.Generator(np.random.Philox(key=0)).standard_normal(3)
direction /= np.linalg.norm(direction)
goal = cidgik.Goal(end_effector=0, position=1.5 * robot.reach * direction, direction=direction)
qcqp = cidgik.assemble_qcqp(robot, [goal], cidgik.WorkspaceSpec())
result = cidgik.cidgik_solve(qcqp)
assert result.status == "infeasible", result.status
cert = result.certificate
assert _verify_certificate(cidgik.lift(qcqp), cert.y, cert.mu) is not None
"""


def test_solves_without_scipy_linalg():
    """With scipy.linalg refused, octahedron key 0 converges and unreachable key 0 certifies."""
    subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SOLVES],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        check=True,
    )


def _dense_operator(instance):
    """(G, h): the scaled constraint rows with their slack columns, as a dense matrix."""
    space = cidgik.solver._SvecSpace(instance.side)
    mats = np.concatenate([instance.eq_mats, instance.ineq_mats])
    rows = mats[:, space.rows, space.cols] * space.weights
    scale = 1.0 / np.linalg.norm(rows, axis=1)
    n_eq, n_ineq = instance.num_equalities, instance.num_inequalities
    G = np.zeros((n_eq + n_ineq, space.dim + n_ineq))
    G[:, : space.dim] = rows * scale[:, None]
    G[n_eq + np.arange(n_ineq), space.dim + np.arange(n_ineq)] = scale[n_eq:]
    return G, np.concatenate([instance.eq_rhs, instance.ineq_rhs]) * scale


def _duplicated_row_instance(chain_6dof):
    """Octahedron key 0 with its first equality row repeated: a singular Schur complement."""
    inst = lift(generate(chain_6dof, "octahedron", 0).qcqp)
    return SdpInstance(
        side=inst.side,
        dim=inst.dim,
        eq_mats=np.concatenate([inst.eq_mats, inst.eq_mats[:1]]),
        eq_rhs=np.concatenate([inst.eq_rhs, inst.eq_rhs[:1]]),
        ineq_mats=inst.ineq_mats,
        ineq_rhs=inst.ineq_rhs,
    )


PROJECTION_CASES = {
    "table-25": lambda robot: lift(generate(robot, "table", 0, table_obstacles=25).qcqp),
    "octahedron": lambda robot: lift(generate(robot, "octahedron", 0).qcqp),
    "unreachable": lambda robot: lift(_unreachable_qcqp(robot, 0)),
    "toy": lambda robot: build_toy_instance(),
    "duplicated-equality": _duplicated_row_instance,
    "inequalities-only": lambda robot: SdpInstance(
        side=2, dim=1, eq_mats=[], eq_rhs=[], ineq_mats=[-np.eye(2)], ineq_rhs=[-1.0]
    ),
}


@pytest.mark.parametrize("case", list(PROJECTION_CASES))
def test_projection_matches_dense_reference(chain_6dof, case):
    """The D-dimensional projection is w - G^T pinv(G G^T) (G w - h), and w - x = G^T y.

    The dense operator G (slack columns included) and its m x m normal
    matrix are built here only; the solver never forms them.  The
    multipliers of the homogeneous projection (h = 0), which the
    certificate polish reads, must give its gap too.
    """
    instance = PROJECTION_CASES[case](chain_6dof)
    data = cidgik.solver._ConicData(instance)
    G, h = _dense_operator(instance)
    if case == "table-25":
        assert G.shape[0] > data.D  # more rows than svec dimensions
    if case == "unreachable":
        assert data.n_ineq == 0  # H = I is never formed
    if case == "duplicated-equality":
        # The pseudo-inverse of a singular S: rank one short of the equality rows.
        assert np.linalg.matrix_rank(data._s_inv) == data.n_eq - 1
    normal_pinv = np.linalg.pinv(G @ G.T)
    rng = np.random.Generator(np.random.Philox(key=58))
    for homogeneous in (False, True):
        rhs = 0.0 * h if homogeneous else h
        for _ in range(3):
            w = rng.standard_normal(G.shape[1])
            want = w - G.T @ (normal_pinv @ (G @ w - rhs))
            scale = np.linalg.norm(w) + np.linalg.norm(want)
            if not homogeneous:
                x = data.project_affine(w)
                assert np.linalg.norm(x - want) <= 1e-9 * scale
            y = data.multipliers(w, homogeneous)
            assert np.linalg.norm(w - want - G.T @ y) <= 1e-9 * scale
            np.testing.assert_allclose(
                data.adjoint(y), G.T @ y, rtol=0.0, atol=1e-12 * np.linalg.norm(y)
            )
    resid, resid_inf = data.affine_least_squares_residual()
    assert resid_inf <= 1e-9 * (1.0 + np.max(np.abs(h)))
    np.testing.assert_allclose(resid, h - G @ G.T @ (normal_pinv @ h), rtol=0.0, atol=1e-9)


def test_solver_determinism(toy_qcqp):
    instance = lift(toy_qcqp)
    a = solve(instance, np.eye(instance.side))
    b = solve(instance, np.eye(instance.side))
    assert a.iterations == b.iterations
    assert a.Z.tobytes() == b.Z.tobytes()


def test_optimal_residual_contract(toy_qcqp):
    instance = lift(toy_qcqp)
    settings = SolverSettings()
    result = solve(instance, np.eye(instance.side), settings)
    assert result.status == "optimal"
    bound = settings.eps + settings.eps * float(np.max(np.abs(instance.eq_rhs)))
    assert result.eq_residual <= bound
    assert np.min(np.linalg.eigvalsh(result.Z)) >= -10 * settings.eps


def test_breakdown_on_nonfinite_objective(toy_qcqp):
    instance = lift(toy_qcqp)
    C = np.full((instance.side, instance.side), np.nan)
    with pytest.raises((NumericalBreakdownError, ValueError)):
        solve(instance, C)


# ---------------------------------------------------------------------------
# SDPA format


def test_sdpa_golden_file():
    toy = build_toy_instance()
    assert export_sdpa(toy, np.eye(3)) == GOLDEN.read_text()


def test_sdpa_round_trip_exact():
    toy = build_toy_instance()
    text = export_sdpa(toy, np.eye(3))
    parsed, C = parse_sdpa(text)
    assert parsed.side == 3 and parsed.dim == 1
    for a, b in zip(toy.eq_mats, parsed.eq_mats):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(toy.ineq_mats, parsed.ineq_mats):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(parsed.eq_rhs, toy.eq_rhs)
    np.testing.assert_array_equal(parsed.ineq_rhs, toy.ineq_rhs)
    np.testing.assert_array_equal(C, np.eye(3))
    assert export_sdpa(parsed, C) == text


@pytest.mark.parametrize(
    "tail,match",
    [
        ("1 1 0 1 1.0\n", "outside the 3 x 3 block"),
        ("9 1 1 1 1.0\n", "matrix number 9 outside 0..4"),
        ("-1 1 1 1 1.0\n", "matrix number -1 outside 0..4"),
        ("1 1 1 14 1.0\n", "outside the 3 x 3 block"),
        ("1 1 1 1\n", "come in fives"),
        (None, "header ends early"),
    ],
    ids=["row-0", "matno-above-m", "matno-negative", "col-above-side", "truncated", "header"],
)
def test_sdpa_rejects_malformed_text(tail, match):
    golden = GOLDEN.read_text()
    text = golden + tail if tail is not None else "\n".join(golden.splitlines()[:4])
    with pytest.raises(ValueError, match=match):
        parse_sdpa(text)


def test_sdpa_no_slack_block_without_inequalities():
    instance = SdpInstance(
        side=2, dim=1, eq_mats=[np.eye(2)], eq_rhs=np.array([1.0])
    )
    text = export_sdpa(instance, np.eye(2))
    lines = text.splitlines()
    assert lines[2] == "1"  # single PSD block
    assert lines[3] == "2"
    parsed, _ = parse_sdpa(text)
    assert parsed.num_inequalities == 0


def test_sdpa_export_stable_for_robot_instance(toy_qcqp):
    instance = lift(toy_qcqp)
    text1 = export_sdpa(instance, np.eye(instance.side))
    text2 = export_sdpa(instance, np.eye(instance.side))
    assert text1 == text2
    parsed, _ = parse_sdpa(text1)
    assert parsed.num_equalities == instance.num_equalities
    assert parsed.num_inequalities == instance.num_inequalities
