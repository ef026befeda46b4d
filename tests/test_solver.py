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
    certify,
    cidgik_solve,
    direction_matrix,
    excess_rank,
    export_sdpa,
    lift,
    parse_sdpa,
    solve,
)
from cidgik.solver import STALL_WINDOW, NumericalBreakdownError, SolverSettings

GOLDEN = Path(__file__).parent / "data" / "toy_identity.dat-s"


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(eps_abs=0.0)
    with pytest.raises(ValueError):
        SolverSettings(max_iters=0)


def test_toy_solve_feasible():
    toy = build_toy_instance()
    result = solve(toy, np.eye(3))
    assert result.status == "optimal"
    eq, slack = (
        np.array([np.tensordot(A, result.Z.Z) for A in toy.eq_mats]) - toy.eq_rhs,
        toy.ineq_rhs - np.array([np.tensordot(B, result.Z.Z) for B in toy.ineq_mats]),
    )
    assert np.max(np.abs(eq)) < 1e-6
    assert np.min(slack) > -1e-6
    assert np.min(result.Z.eigenvalues) >= -10 * SolverSettings().eps_abs


def test_toy_convex_iteration_concentrates_rank_one():
    toy = build_toy_instance()
    result = solve(toy, np.eye(3), method="primal")
    C = direction_matrix(result.Z.Z, 1).C
    warm = result.Z.Z
    for _ in range(8):
        result = solve(toy, C, warm_start=warm)
        h = excess_rank(result.Z.Z, 1)
        if h < 1e-6:
            break
        C = direction_matrix(result.Z.Z, 1).C
        warm = result.Z.Z
    assert h < 1e-6
    z = result.Z.Z[:, 2]  # last column of the rank-1 solution zz^T with s=1
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
    cert = certify(result)
    assert cert.value < 0.0
    assert cert.min_eigenvalue > -1e-6


def test_unreachable_goal_certified(chain_6dof):
    goal = Goal(
        end_effector=0,
        position=np.array([1.5 * chain_6dof.reach, 0.0, 0.0]),
        direction=np.array([1.0, 0.0, 0.0]),
    )
    qcqp = assemble_qcqp(chain_6dof, [goal])
    result = solve(lift(qcqp), settings=SolverSettings(max_iters=8000))
    assert result.status in ("infeasible", "max_iters")
    if result.status == "infeasible":
        cert = certify(result)
        assert cert.value < -1e-6
        assert cert.min_eigenvalue >= -1e-6
        assert cert.mu.size == 0 or np.min(cert.mu) >= 0.0


@pytest.mark.parametrize(
    "key, methods, statuses",
    [
        (0, ["primal"], ["infeasible"]),
        (22, ["primal", "dual"], ["max_iters", "infeasible"]),
    ],
)
def test_stall_path_certifies_unreachable_goal(
    chain_6dof, monkeypatch, key, methods, statuses
):
    """Each splitting, stalled on a goal at 1.5x reach, hunts down a certificate.

    The goal is built as the benchmark's arm-unreachable workload builds it.
    Key 0 stalls in the primal nuclear-norm pass (4000-iteration budget);
    key 22 reaches that budget and stalls in the dual pass that follows.
    """
    direction = np.random.Generator(np.random.Philox(key=key)).standard_normal(3)
    direction /= np.linalg.norm(direction)
    goal = Goal(
        end_effector=0,
        position=1.5 * chain_6dof.reach * direction,
        direction=direction,
    )
    qcqp = assemble_qcqp(chain_6dof, [goal], WorkspaceSpec())
    passes = []  # (method, result, certificate hunts in the pass)
    hunts = []
    inner_solve = cidgik.iteration.solve
    inner_hunt = cidgik.solver._certificate_from_projections

    def recording_solve(*args, **kwargs):
        hunts.clear()
        result = inner_solve(*args, **kwargs)
        passes.append((kwargs["method"], result, len(hunts)))
        return result

    def recording_hunt(*args):
        hunts.append(args)
        return inner_hunt(*args)

    monkeypatch.setattr(cidgik.iteration, "solve", recording_solve)
    monkeypatch.setattr(cidgik.solver, "_certificate_from_projections", recording_hunt)
    result = cidgik_solve(qcqp, CidgikOptions(solver=SolverSettings(max_iters=8000)))
    assert result.status == "infeasible"
    assert [p[0] for p in passes] == methods
    assert [p[1].status for p in passes] == statuses
    # A failed hunt waits another stall window before the next one.
    for _, r, count in passes:
        assert 1 <= count <= r.iterations // STALL_WINDOW
    last = passes[-1][1]
    assert last.iterations >= STALL_WINDOW
    cert = certify(last)
    assert cert.value < 0.0
    assert cert.min_eigenvalue >= -1e-6


def test_certify_requires_infeasible_status():
    toy = build_toy_instance()
    result = solve(toy)
    with pytest.raises(ValueError, match="infeasible"):
        certify(result)


def test_solver_determinism(toy_qcqp):
    instance = lift(toy_qcqp)
    a = solve(instance, np.eye(instance.side))
    b = solve(instance, np.eye(instance.side))
    assert a.iterations == b.iterations
    assert a.Z.Z.tobytes() == b.Z.Z.tobytes()


def test_optimal_residual_contract(toy_qcqp):
    instance = lift(toy_qcqp)
    settings = SolverSettings()
    result = solve(instance, np.eye(instance.side), settings)
    assert result.status == "optimal"
    bound = settings.eps_abs + settings.eps_rel * float(np.max(np.abs(instance.eq_rhs)))
    assert result.eq_residual <= bound
    assert np.min(result.Z.eigenvalues) >= -10 * settings.eps_abs


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
