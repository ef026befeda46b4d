import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cidgik.iteration
from cidgik import (
    AuxPoint,
    Goal,
    Sphere,
    WorkspaceSpec,
    add_aux_point,
    add_self_collision,
    assemble_qcqp,
    cidgik_solve,
    direction_matrix,
    evaluate,
    excess_rank,
    forward_kinematics,
    generate,
    lift,
    lift_points,
    verify_solution,
)
from cidgik.graph import feasible_points
from cidgik.iteration import CidgikOptions, _Residuals, refine_configuration
from cidgik.kinematics import load_robot
from cidgik.robots import arm_6dof, planar_two_link, random_coplanar_chain
from cidgik.solver import SolverSettings
from conftest import (
    coincident_arm_document,
    panda_like_document,
    random_dh_chain_document,
    two_arm_tree,
)

FAST = CidgikOptions(solver=SolverSettings(max_iters=6000))


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param({"max_iterations": 0}, id="bad0"),
        pytest.param({"first_solve_budget": 0}, id="bad3"),
    ],
)
def test_options_validation(bad):
    with pytest.raises(ValueError):
        CidgikOptions(**bad)


def test_tolerances_are_constants_that_ikbench_still_reads():
    """ikbench/run.py builds these two options and reads options.h_tol;
    neither the gate's h tolerance nor the solver's eps can be set."""
    options = CidgikOptions(solver=SolverSettings(max_iters=8000))
    warmup = CidgikOptions(
        max_iterations=2, first_solve_budget=50, solver=SolverSettings(max_iters=50)
    )
    assert options.h_tol == warmup.h_tol == cidgik.iteration.H_TOL == 1e-6
    assert [f.name for f in dataclasses.fields(CidgikOptions)] == [
        "max_iterations", "solver", "first_solve_budget"
    ]
    assert [f.name for f in dataclasses.fields(SolverSettings)] == ["max_iters"]
    with pytest.raises(TypeError):
        CidgikOptions(h_tol=1e-3)
    with pytest.raises(TypeError):
        SolverSettings(eps=1e-7)


def random_psd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T


def test_excess_rank_diagonal():
    Z = np.diag([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
    assert excess_rank(Z, 2) == pytest.approx(6.0)


def test_excess_rank_exact_lift():
    rng = np.random.Generator(np.random.Philox(key=1))
    X = rng.normal(size=(3, 6))
    from cidgik import lift_points

    assert excess_rank(lift_points(X), 3) < 1e-10


def test_excess_rank_full_spectrum_identity():
    rng = np.random.Generator(np.random.Philox(key=2))
    for _ in range(20):
        Z = random_psd(rng, 7)
        lam = np.sort(np.linalg.eigvalsh(Z))[::-1]
        for d in (2, 3):
            expected = float(np.trace(Z) - np.sum(lam[:d]))
            assert excess_rank(Z, d) == pytest.approx(expected, abs=1e-9)


def test_excess_rank_rejects_asymmetric():
    with pytest.raises(ValueError):
        excess_rank(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_direction_matrix_diagonal():
    Z = np.diag([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
    C = direction_matrix(Z, 2)
    np.testing.assert_allclose(C, np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 1.0]), atol=1e-12)
    assert np.tensordot(C, Z) == pytest.approx(excess_rank(Z, 2))


@given(seed=st.integers(0, 10_000), n=st.integers(5, 12), d=st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_direction_matrix_projector_properties(seed, n, d):
    rng = np.random.Generator(np.random.Philox(key=seed))
    Z = random_psd(rng, n)
    C = direction_matrix(Z, d)
    np.testing.assert_allclose(C, C.T, atol=1e-10)
    np.testing.assert_allclose(C @ C, C, atol=1e-9)
    assert np.trace(C) == pytest.approx(n - d, abs=1e-9)
    lam = np.linalg.eigvalsh(C)
    assert lam.min() > -1e-10 and lam.max() < 1.0 + 1e-10
    assert np.tensordot(C, Z) == pytest.approx(excess_rank(Z, d), abs=1e-9)


def test_cidgik_toy_converges(toy_qcqp):
    result = cidgik_solve(toy_qcqp)
    assert result.status == "converged"
    assert result.h < 1e-6
    np.testing.assert_allclose(result.X.ravel(), [0.0, 1.0], atol=1e-4)
    assert result.iterations <= 10


def test_cidgik_trace_length_one_on_determined_instance(planar_2r):
    # fully stretched goal: the feasible set is a single rank-d point, so the
    # nuclear-norm iterate already has vanishing excess rank
    goal = Goal(end_effector=0, position=np.array([2.0, 0.0]))
    qcqp = assemble_qcqp(planar_2r, [goal])
    result = cidgik_solve(qcqp, FAST)
    assert result.status == "converged"
    assert len(result.trace) == 1


def test_stretched_2r_closes_through_refinement(planar_2r, monkeypatch):
    """Only the refinement gate closes, even after an SDP pass that ends at h = 0."""
    calls = []
    inner = cidgik.iteration.refine_configuration

    def counting_refine(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cidgik.iteration, "refine_configuration", counting_refine)
    qcqp = assemble_qcqp(planar_2r, [Goal(end_effector=0, position=np.array([2.0, 0.0]))])
    result = cidgik_solve(qcqp, FAST)
    assert result.status == "converged"
    assert calls
    assert result.verified
    assert verify_solution(qcqp, result.theta).success


def test_no_gate_acceptance_leaves_no_configuration(toy_qcqp, monkeypatch):
    """Without an accepted refinement a solve ends max_iterations with its h-trace only."""

    def no_verification(*args):
        raise AssertionError("verify_solution must not run without a configuration")

    monkeypatch.setattr(cidgik.iteration._PassGate, "__call__", lambda self, Z: None)
    monkeypatch.setattr(cidgik.iteration, "verify_solution", no_verification)
    result = cidgik_solve(toy_qcqp, CidgikOptions(max_iterations=2))
    assert result.status == "max_iterations"
    assert result.theta is None and result.X is None and result.h is None
    assert result.position_error is None and not result.verified
    assert len(result.trace) == 2
    assert all(np.isfinite(h) for h in result.trace.h_values)


def test_cidgik_unreachable_never_converges(planar_2r):
    goal = Goal(end_effector=0, position=np.array([3.0, 0.0]))
    qcqp = assemble_qcqp(planar_2r, [goal])
    result = cidgik_solve(qcqp, FAST)
    assert result.status in ("infeasible", "max_iterations")


def test_cidgik_converged_implies_consistent(toy_qcqp):
    result = cidgik_solve(toy_qcqp)
    assert result.status == "converged"
    eq, slack = evaluate(lift(toy_qcqp), lift_points(result.X))
    assert max(float(np.max(np.abs(eq))), -float(np.min(slack)), 0.0) < 1e-5
    assert result.position_error < 1e-5


def test_cidgik_reports_trace_records(toy_qcqp):
    result = cidgik_solve(toy_qcqp)
    assert len(result.trace) == result.iterations
    for record in result.trace.records:
        assert record.solver_status in ("optimal", "accepted", "max_iters")
    payload = result.to_json_dict()
    assert set(payload) == {
        "status",
        "theta",
        "h_trace",
        "position_error",
        "direction_error",
        "max_penetration",
        "verified",
        "iterations",
        "solve_time_s",
    }


def test_verify_solution_round_trip(chain_6dof):
    rng = np.random.Generator(np.random.Philox(key=31))
    theta = np.pi - rng.uniform(0, 2 * np.pi, size=6)
    poses, _ = forward_kinematics(chain_6dof, theta)
    goals = [Goal(end_effector=0, position=poses[0].position, direction=poses[0].direction)]
    report = verify_solution(assemble_qcqp(chain_6dof, goals), theta)
    assert report.success
    assert report.position_error < 1e-12


def test_verify_solution_position_failure(chain_6dof):
    theta = np.zeros(6)
    poses, _ = forward_kinematics(chain_6dof, theta)
    goals = [
        Goal(
            end_effector=0,
            position=poses[0].position + np.array([0.02, 0.0, 0.0]),
            direction=poses[0].direction,
        )
    ]
    report = verify_solution(assemble_qcqp(chain_6dof, goals), theta)
    assert not report.success
    assert "position" in report.failures


def test_verify_solution_tolerated_penetration(chain_6dof):
    theta = np.zeros(6)
    poses, frames = forward_kinematics(chain_6dof, theta)
    goals = [Goal(end_effector=0, position=poses[0].position, direction=poses[0].direction)]
    # sphere grazing a joint origin by 5 mm: inside the 10 mm tolerance
    center = frames.origins[3] + np.array([0.3, 0.0, 0.0])
    ws = WorkspaceSpec(spheres=[Sphere(center=center, radius=0.305)])
    report = verify_solution(assemble_qcqp(chain_6dof, goals, ws), theta)
    assert report.max_penetration == pytest.approx(0.005, abs=1e-9)
    assert report.success


def test_verify_solution_checks_self_collision_and_aux_points(chain_6dof):
    """Self-collision rows and aux points are held to the penetration depth too."""
    problem = generate(chain_6dof, "octahedron", 9)
    theta = problem.ground_truth
    assert verify_solution(problem.qcqp, theta).success
    # Points 0 and 9 must stay 10 m apart; at the ground truth they are about 1.2 m.
    crowded = add_self_collision(problem.qcqp, 0, 9, 100.0)
    report = verify_solution(crowded, theta)
    assert report.failures == ("collision",)
    X = feasible_points(crowded, theta)
    assert report.max_penetration == pytest.approx(10.0 - np.linalg.norm(X[:, 0] - X[:, 9]), abs=1e-12)
    # A sphere around the midpoint of an edge holds no joint point but the edge's aux point.
    free = assemble_qcqp(chain_6dof, problem.qcqp.goals)
    edge = next(e for e in free.graph.edges if max(e.tail, e.head) < free.graph.num_variables)
    X = feasible_points(free, theta)
    mid = 0.5 * (X[:, edge.tail] + X[:, edge.head])
    radius = 0.25 * float(np.linalg.norm(X[:, edge.tail] - X[:, edge.head]))
    walled = assemble_qcqp(chain_6dof, free.goals, WorkspaceSpec(spheres=[Sphere(center=mid, radius=radius)]))
    assert verify_solution(walled, theta).success
    report = verify_solution(add_aux_point(walled, AuxPoint(edge=(edge.tail, edge.head), alpha=0.5)), theta)
    assert report.failures == ("collision",)
    assert report.max_penetration == pytest.approx(radius, abs=1e-12)


def test_refine_configuration_closes_goals(chain_6dof):
    rng = np.random.Generator(np.random.Philox(key=41))
    theta_true = np.pi - rng.uniform(0, 2 * np.pi, size=6)
    poses, _ = forward_kinematics(chain_6dof, theta_true)
    goals = [Goal(end_effector=0, position=poses[0].position, direction=poses[0].direction)]
    theta0 = theta_true + rng.normal(scale=0.05, size=6)
    refined = refine_configuration(_Residuals(assemble_qcqp(chain_6dof, goals)), theta0)
    assert refined is not None
    report = verify_solution(assemble_qcqp(chain_6dof, goals), refined)
    assert report.position_error < 1e-9
    # acos of a clamped dot product floors at sqrt(machine eps) ~ 1.5e-8
    assert report.direction_error < 1e-6


def test_refine_configuration_gives_up_on_unreachable_goal(chain_6dof, monkeypatch):
    """LM creeping along the residual valley of a far goal stops before LM_MAX_STEPS."""
    jacobians = []
    inner = _Residuals.jacobian

    def counting_jacobian(self, state):
        jacobians.append(state)
        return inner(self, state)

    monkeypatch.setattr(_Residuals, "jacobian", counting_jacobian)
    direction = np.random.Generator(np.random.Philox(key=0)).standard_normal(3)
    direction /= np.linalg.norm(direction)
    goal = Goal(end_effector=0, position=1.5 * chain_6dof.reach * direction, direction=direction)
    residuals = _Residuals(assemble_qcqp(chain_6dof, [goal]))
    assert refine_configuration(residuals, np.zeros(6)) is None
    assert len(jacobians) < cidgik.iteration.LM_MAX_STEPS  # where a creeping LM would stop


@pytest.mark.parametrize("environment, key", [("octahedron", 56), ("table", 29)])
def test_gate_closes_keys_a_whole_pass_left_open(chain_6dof, environment, key):
    """Keys that ended max_iterations while the gate saw only each pass's last iterate."""
    qcqp = generate(chain_6dof, environment, key, table_obstacles=25).qcqp
    result = cidgik_solve(qcqp, CidgikOptions(solver=SolverSettings(max_iters=8000)))
    assert result.status == "converged"
    assert result.verified


@pytest.mark.parametrize(
    "environment, key",
    [("octahedron", 112), ("table", 11), ("table", 20)],
)
def test_clearance_refinement_closes_at_the_first_offer(chain_6dof, environment, key, monkeypatch):
    """Held clear of every sphere and table plane, LM closes these keys on the iteration-10 iterate.

    Plain LM from the early iterates of these keys lands inside a keep-out
    sphere (octahedron 112) or below a table-top plane (table 11 and 20).
    """
    passes = []
    inner = cidgik.iteration.solve

    def recording_solve(*args, **kwargs):
        result = inner(*args, **kwargs)
        passes.append((result.status, result.iterations))
        return result

    monkeypatch.setattr(cidgik.iteration, "solve", recording_solve)
    qcqp = generate(chain_6dof, environment, key, table_obstacles=25).qcqp
    result = cidgik_solve(qcqp, CidgikOptions(solver=SolverSettings(max_iters=8000)))
    assert result.status == "converged"
    assert result.verified
    assert passes == [("accepted", 10)]


def test_clearance_refinement_from_the_plain_configuration(chain_6dof, monkeypatch):
    """Icosahedron key 60 closes on the iteration-10 iterate through the gate's third stage.

    Clearance LM from the reconstructed angles fails there, and plain LM
    closes the goals with joint points inside keep-out spheres; clearance LM
    on every obstacle pair, from that configuration, then closes the key.
    """
    passes, stages = [], []
    inner_solve = cidgik.iteration.solve
    inner_refine = cidgik.iteration.refine_configuration

    def recording_solve(*args, **kwargs):
        result = inner_solve(*args, **kwargs)
        passes.append((result.status, result.iterations))
        return result

    def recording_refine(residuals, theta0, **kwargs):
        theta = inner_refine(residuals, theta0, **kwargs)
        stages.append((residuals.hinged, theta is not None))
        return theta

    monkeypatch.setattr(cidgik.iteration, "solve", recording_solve)
    monkeypatch.setattr(cidgik.iteration, "refine_configuration", recording_refine)
    qcqp = generate(chain_6dof, "icosahedron", 60).qcqp
    result = cidgik_solve(qcqp, CidgikOptions(solver=SolverSettings(max_iters=8000)))
    assert result.status == "converged"
    assert result.verified
    assert passes == [("accepted", 10)]
    assert stages == [(True, False), (False, True), (True, True)]


@pytest.mark.parametrize("environment", ["octahedron", "table"])
def test_warm_started_second_pass_closes(chain_6dof, environment, monkeypatch):
    """With every offer of pass 1 declined, pass 2 closes from its warm start.

    Every benchmark key closes in pass 1, so this is the path a key takes
    when it does not: the direction matrix of pass 1's iterate as the cost,
    that iterate as the warm start and the full iteration cap.  Pass 2
    closes at its first offer, iteration 10.
    """
    passes = []
    inner_solve = cidgik.iteration.solve
    inner_gate = cidgik.iteration._PassGate.__call__

    def recording_solve(instance, C, settings, **kwargs):
        passes.append({"warm": kwargs["warm_start"], "max_iters": settings.max_iters})
        passes[-1]["result"] = inner_solve(instance, C, settings, **kwargs)
        return passes[-1]["result"]

    def gate_after_pass_1(self, Z):
        return inner_gate(self, Z) if len(passes) > 1 else None

    monkeypatch.setattr(cidgik.iteration, "solve", recording_solve)
    monkeypatch.setattr(cidgik.iteration._PassGate, "__call__", gate_after_pass_1)
    qcqp = generate(chain_6dof, environment, 0, table_obstacles=25).qcqp
    options = CidgikOptions(solver=SolverSettings(max_iters=8000))
    result = cidgik_solve(qcqp, options)
    assert result.status == "converged"
    assert result.verified
    assert len(passes) == 2
    first, second = passes
    assert first["warm"] is None and first["max_iters"] == options.first_solve_budget
    assert first["result"].status in ("optimal", "max_iters")
    assert second["warm"] is first["result"].Z
    assert second["max_iters"] == options.solver.max_iters
    assert (second["result"].status, second["result"].iterations) == ("accepted", 10)
    assert [r.solver_status for r in result.trace.records] == [
        first["result"].status,
        "accepted",
    ]


def test_a_stall_declines_the_next_offers_and_a_further_stall_restarts_the_count(chain_6dof, monkeypatch):
    """With every LM stalling, the gate runs LM on every (STALL_BACKOFF + 1)-th offer."""
    runs = []

    def stalling_refine(*args):
        runs.append(args)
        return None

    monkeypatch.setattr(cidgik.iteration, "refine_configuration", stalling_refine)
    problem = generate(chain_6dof, "octahedron", 0)
    instance = lift(problem.qcqp)
    gate = cidgik.iteration._PassGate(problem.qcqp, instance, 1e-6)
    Z = lift_points(feasible_points(problem.qcqp, problem.ground_truth))
    offered = []
    for _ in range(7):
        before = len(runs)
        assert gate(Z) is None
        offered.append(len(runs) > before)
    assert offered == [k % (cidgik.iteration.STALL_BACKOFF + 1) == 0 for k in range(7)]


@pytest.mark.parametrize(
    "make, key",
    [
        pytest.param(lambda: random_coplanar_chain(5, 4), 1, id="chain5-4-key1"),
        pytest.param(lambda: random_coplanar_chain(5, 4), 6, id="chain5-4-key6"),
        pytest.param(lambda: random_coplanar_chain(6, 2), 5, id="chain6-2-key5"),
        pytest.param(lambda: load_robot(random_dh_chain_document(6, 602)), 0, id="dh6-602-key0"),
        pytest.param(lambda: load_robot(random_dh_chain_document(7, 701)), 3, id="dh7-701-key3"),
        pytest.param(lambda: two_arm_tree(np.pi / 4), 3, id="two_arm_tree-key3"),
        pytest.param(lambda: two_arm_tree(np.pi / 4), 17, id="two_arm_tree-key17"),
    ],
)
def test_refinement_after_a_stall_closes_in_pass_1(make, key):
    """Feasible keys whose first plain LM stalls close on a later offer of pass 1.

    While a stall closed the gate for the rest of the pass, the chain and
    DH-chain keys ran 10 passes to max_iterations and the two-arm tree's
    keys closed in pass 2.
    """
    result = cidgik_solve(generate(make(), "free", key).qcqp, CidgikOptions(solver=SolverSettings(max_iters=8000)))
    assert result.status == "converged"
    assert result.verified
    assert result.iterations == 1


def _hinged_instance(robot):
    """Table key 3 with an aux point, a keep-in ball and a self-collision row.

    The aux point sits on an edge to the goal's direction point, which the
    configuration's points realize as the tool's, so it moves with the end
    effector; it picks up every sphere row.  The keep-in ball, appended
    last, is small enough that every point leaves it, and the self-collision
    row holds the aux point 3 m from the first variable point.
    """
    qcqp = generate(robot, "table", 3, table_obstacles=25).qcqp
    graph = qcqp.graph
    nv = graph.num_variables
    tip = nv + graph.anchor_labels.index(("ee", 0, "dir"))
    tool = next(e for e in graph.edges if e.head == tip)
    qcqp = add_aux_point(qcqp, AuxPoint(edge=(tool.tail, tool.head), alpha=0.5))
    ball = Sphere(center=np.array([0.0, 0.0, 0.5]), radius=0.1, sense="keep_in")
    qcqp = dataclasses.replace(qcqp, spheres=qcqp.spheres + [ball])
    return add_self_collision(qcqp, 0, nv, 9.0)


def _jacobians(residuals, theta, step=1e-6):
    """(residuals, Jacobian, central-difference Jacobian) at theta."""
    r, state = residuals(theta)
    columns = [
        (residuals(theta + step * e)[0] - residuals(theta - step * e)[0]) / (2 * step)
        for e in np.eye(len(theta))
    ]
    return r, residuals.jacobian(state), np.stack(columns, axis=1)


def _finite_difference_check(qcqp, keys):
    """Compare each violated hinge row of the Jacobian with central differences."""
    residuals = _Residuals(qcqp, lift(qcqp))
    n = len(qcqp.robot.joints)
    rng = np.random.Generator(np.random.Philox(key=7))
    deep_rows = set()
    for _ in range(keys):
        theta = rng.uniform(-np.pi, np.pi, size=n)
        r, J, numeric = _jacobians(residuals, theta)
        goal_rows = len(r) - len(residuals.rhs)
        deep = np.flatnonzero(r[goal_rows:] < -1e-3)
        deep_rows.update(deep.tolist())
        np.testing.assert_allclose(J[goal_rows + deep], numeric[goal_rows + deep], atol=1e-6)
        np.testing.assert_array_equal(J[goal_rows:][r[goal_rows:] == 0.0], 0.0)
    return deep_rows


@pytest.mark.parametrize(
    "robot", [arm_6dof(), planar_two_link(), random_coplanar_chain(7, 1)], ids=["arm", "planar", "chain"]
)
@pytest.mark.parametrize("pointed", [True, False], ids=["pose", "position"])
def test_goal_rows_match_finite_differences(robot, pointed):
    """Position rows and, for a pose goal, direction rows are the derivatives of their residuals."""
    rng = np.random.Generator(np.random.Philox(key=9))
    n = len(robot.joints)
    poses, _ = forward_kinematics(robot, rng.uniform(-np.pi, np.pi, size=n))
    goal = Goal(end_effector=0, position=poses[0].position, direction=poses[0].direction if pointed else None)
    residuals = _Residuals(assemble_qcqp(robot, [goal]))
    for _ in range(4):
        r, J, numeric = _jacobians(residuals, rng.uniform(-np.pi, np.pi, size=n))
        assert J.shape == (len(r), n) and len(r) == robot.dimension * (2 if pointed else 1)
        np.testing.assert_allclose(J, numeric, rtol=0, atol=1e-8)


def test_clearance_rows_match_finite_differences(chain_6dof, toy_qcqp):
    """Each violated hinge row of the Jacobian is the derivative of its residual.

    The rows checked include a self-collision row, sphere rows on an aux
    point that moves with the end effector, and the planar toy's disc row.
    """
    qcqp = _hinged_instance(chain_6dof)
    deep = _finite_difference_check(qcqp, keys=8)
    aux_in_ball = len(qcqp.planes) + len(qcqp.spheres) * qcqp.num_points - 1
    self_collision = aux_in_ball + 1
    assert {aux_in_ball, self_collision} <= deep
    assert _finite_difference_check(toy_qcqp, keys=8) == {0}


def test_clearance_gaps_match_obstacle_distances(chain_6dof, toy_qcqp):
    """The hinge's slacks are those of the exact lift of the configuration's points."""
    rng = np.random.Generator(np.random.Philox(key=8))
    for qcqp in (_hinged_instance(chain_6dof), toy_qcqp):
        sdp = lift(qcqp)
        residuals = _Residuals(qcqp, sdp)
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi, size=len(qcqp.robot.joints))
            *_, slacks = residuals(theta)[1]
            _, expected = evaluate(sdp, lift_points(feasible_points(qcqp, theta)))
            np.testing.assert_allclose(slacks, expected, rtol=0, atol=1e-12)


def test_self_collision_rows_close_in_the_first_pass(chain_6dof):
    """Octahedron key 9 with every non-adjacent pair held at 0.8x its ground-truth squared distance.

    The gate's hinge carries the self-collision rows, so the refinement's
    configuration passes the gate's lifted check on the first pass.
    """
    problem = generate(chain_6dof, "octahedron", 9)
    qcqp = problem.qcqp
    X = feasible_points(qcqp, problem.ground_truth)
    adjacent = {(e.tail, e.head) for e in qcqp.graph.edges}
    for i in range(qcqp.num_points):
        for j in range(i + 1, qcqp.num_points):
            if (i, j) not in adjacent:
                qcqp = add_self_collision(qcqp, i, j, 0.8 * float(np.sum((X[:, i] - X[:, j]) ** 2)))
    options = CidgikOptions(max_iterations=1, solver=SolverSettings(max_iters=8000))
    result = cidgik_solve(qcqp, options)
    assert result.status == "converged"
    assert result.verified


def test_cidgik_planar_without_obstacle_picks_some_root(planar_2r):
    qcqp = assemble_qcqp(planar_2r, [Goal(end_effector=0, position=np.array([1.0, 1.0]))])
    result = cidgik_solve(qcqp, FAST)
    assert result.status == "converged"
    x = result.X.ravel()
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.norm(x - np.array([1.0, 1.0])) == pytest.approx(1.0, abs=1e-6)


def test_two_arm_tree_key_6_converges():
    """Free-space key 6 of the two-arm tree ran 10 passes to max_iterations while
    its arms could swing apart in the lift; rigid, it converges and verifies."""
    result = cidgik_solve(generate(two_arm_tree(), "free", 6).qcqp)
    assert result.status == "converged"
    assert result.verified


@pytest.mark.parametrize("key", range(5))
def test_panda_like_arm_converges(key):
    """Skew consecutive axes: the lift pins each skew link only up to a mirror,
    and the forward-kinematics check picks the configuration."""
    result = cidgik_solve(generate(load_robot(panda_like_document()), "free", key).qcqp)
    assert result.status == "converged"
    assert result.verified


def test_point_merged_onto_an_anchor_converges():
    """Key 0 of the arm whose j2 point merges onto j1's anchor: certified
    infeasible while the merged pair stayed in the lift as an anchor-anchor row."""
    result = cidgik_solve(generate(load_robot(coincident_arm_document()), "free", 0).qcqp)
    assert result.status == "converged"
    assert result.verified
