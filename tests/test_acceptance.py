"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
The two 100-instance campaigns are shared across criteria through module
fixtures, so the whole file stays within the benchmark runtime budget.
"""

import math
import time

import numpy as np
import pytest
from pathlib import Path
from scipy.integrate import quad
from scipy.special import gammaln

import cidgik as ck
from cidgik.bench import jeffreys_interval, run_benchmark
from cidgik.graph import feasible_points
from cidgik.iteration import CidgikOptions
from cidgik.solver import SolverSettings
from cidgik.robots import arm_6dof, random_coplanar_chain
from conftest import sample_angles

GOLDEN = Path(__file__).parent / "data" / "toy_identity.dat-s"

H_TOL = 1e-6
POSITION_TOL = 0.01
DIRECTION_TOL = 0.01
PENETRATION_TOL = 0.01

CAMPAIGN_N = 100
CAMPAIGN_OPTIONS = CidgikOptions(solver=SolverSettings(max_iters=8000))


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def free_campaign():
    robot = arm_6dof()
    return run_benchmark(
        robot, "free", CAMPAIGN_N, 20_000, CAMPAIGN_OPTIONS, jobs=2, robot_name="arm_6dof"
    )


@pytest.fixture(scope="module")
def octahedron_campaign():
    robot = arm_6dof()
    return run_benchmark(
        robot,
        "octahedron",
        CAMPAIGN_N,
        30_000,
        CAMPAIGN_OPTIONS,
        jobs=2,
        robot_name="arm_6dof",
    )


def test_criterion_1_toy_pierogi(toy_qcqp):
    start = time.perf_counter()
    result = ck.cidgik_solve(toy_qcqp)
    elapsed = time.perf_counter() - start
    ok = (
        result.status == "converged"
        and result.iterations <= 10
        and result.h < H_TOL
        and np.linalg.norm(result.X.ravel() - np.array([0.0, 1.0])) < 1e-4
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"status={result.status} h={result.h:.2e} "
        f"x={np.round(result.X.ravel(), 6)} time={elapsed:.3f}s",
    )


def test_criterion_2_direction_matrix_identity():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=0xD1))
    worst_gap = 0.0
    worst_trace = 0.0
    for _ in range(500):
        side = int(rng.integers(5, 41))
        d = int(rng.choice([2, 3]))
        rank = int(rng.integers(1, side + 1))
        A = rng.normal(size=(side, rank))
        Z = A @ A.T
        C = ck.direction_matrix(Z, d)
        h = ck.excess_rank(Z, d)
        worst_gap = max(worst_gap, abs(float(np.tensordot(C, Z)) - h))
        worst_trace = max(worst_trace, abs(float(np.trace(C)) - (side - d)))
    elapsed = time.perf_counter() - start
    ok = worst_gap < 1e-9 and worst_trace < 1e-9 and elapsed < 10.0
    report(
        2,
        ok,
        f"max |tr(CZ)-h|={worst_gap:.2e} max |tr(C)-2n|={worst_trace:.2e} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_3_lift_correctness():
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=0xD2))
    worst_eq = 0.0
    worst_slack = 0.0
    samples = 0
    robot_seed = 0
    while samples < 200:
        n_joints = int(rng.integers(3, 8))
        robot = random_coplanar_chain(n_joints, seed=5000 + robot_seed)
        robot_seed += 1
        spheres = [
            ck.Sphere(
                center=1.2 * robot.reach * _unit(rng, 3), radius=0.2 * robot.reach
            )
            for _ in range(2)
        ]
        for _ in range(8):
            theta = sample_angles(rng, n_joints)
            if ck.penetration(ck.joint_points(robot, theta), spheres) > 0.0:
                continue
            poses, _ = ck.forward_kinematics(robot, theta)
            goals = [
                ck.Goal(end_effector=k, position=p.position, direction=p.direction)
                for k, p in enumerate(poses)
            ]
            qcqp = ck.assemble_qcqp(robot, goals, ck.WorkspaceSpec(spheres=spheres))
            instance = ck.lift(qcqp)
            X = feasible_points(qcqp, theta)
            eq, slack = ck.evaluate(instance, ck.lift_points(X))
            worst_eq = max(worst_eq, float(np.max(np.abs(eq))))
            if slack.size:
                worst_slack = min(worst_slack, float(np.min(slack)))
            samples += 1
            if samples >= 200:
                break
    elapsed = time.perf_counter() - start
    ok = worst_eq < 1e-10 and worst_slack >= -1e-10 and elapsed < 30.0
    report(
        3,
        ok,
        f"{samples} samples, max eq residual={worst_eq:.2e} "
        f"min slack={worst_slack:.2e} time={elapsed:.1f}s",
    )


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_criterion_4_success_rates(free_campaign, octahedron_campaign):
    free_rate = free_campaign.success_rate
    octa_rate = octahedron_campaign.success_rate
    p50_free = free_campaign.aggregate()["p50_solve_time_s"]
    p50_octa = octahedron_campaign.aggregate()["p50_solve_time_s"]
    ok = free_rate >= 0.90 and octa_rate >= 0.70
    report(
        4,
        ok,
        f"free {free_campaign.successes}/{free_campaign.trials} "
        f"({100 * free_rate:.1f}%, p50 {p50_free:.2f}s), octahedron "
        f"{octahedron_campaign.successes}/{octahedron_campaign.trials} "
        f"({100 * octa_rate:.1f}%, p50 {p50_octa:.2f}s)",
    )


def test_criterion_5_nuclear_norm_insufficiency(free_campaign):
    first_iterate = sum(
        1
        for row in free_campaign.rows
        if row["h_trace"] and row["h_trace"][0] is not None and row["h_trace"][0] < H_TOL
    )
    converged = sum(1 for row in free_campaign.rows if row["status"] == "converged")
    ok = first_iterate < converged
    report(
        5,
        ok,
        f"first-iterate rank-d fraction {first_iterate}/{free_campaign.trials} "
        f"< converged fraction {converged}/{free_campaign.trials}",
    )


def test_criterion_6_verification_gate_soundness(free_campaign, octahedron_campaign):
    """Re-verify every row through forward kinematics written out longhand."""
    robot = arm_6dof()
    mismatches = 0
    checked = 0
    for campaign in (free_campaign, octahedron_campaign):
        workspace = ck.environment(campaign.environment, robot)
        for row in campaign.rows:
            if row["theta"] is None:
                assert not row["verified"]
                continue
            problem = ck.generate(robot, campaign.environment, row["seed"])
            theta = np.array(row["theta"])
            poses, _ = ck.forward_kinematics(robot, theta)
            pos_err = 0.0
            dir_err = 0.0
            for g in problem.qcqp.goals:
                achieved = poses[g.end_effector]
                pos_err = max(
                    pos_err, float(np.linalg.norm(achieved.position - g.position))
                )
                dot = float(np.clip(achieved.direction @ g.direction, -1.0, 1.0))
                dir_err = max(dir_err, math.acos(dot))
            P = ck.joint_points(robot, theta)
            depth = 0.0
            for s in workspace.spheres:
                dist = np.linalg.norm(P - s.center[:, None], axis=0)
                depth = max(depth, float(np.max(s.radius - dist)))
            independent_success = (
                pos_err < POSITION_TOL
                and dir_err < DIRECTION_TOL
                and depth < PENETRATION_TOL
            )
            checked += 1
            if independent_success != row["verified"]:
                mismatches += 1
    ok = mismatches == 0 and checked > 0
    report(6, ok, f"{checked} rows re-verified, {mismatches} discrepancies")


def test_criterion_7_unreachable_goals_never_converge():
    robot = arm_6dof()
    rng = np.random.Generator(np.random.Philox(key=0xD7))
    options = CidgikOptions(solver=SolverSettings(max_iters=4000))
    statuses = []
    certified = 0
    for _ in range(20):
        direction = _unit(rng, 3)
        position = 1.5 * robot.reach * direction
        goal = ck.Goal(end_effector=0, position=position, direction=direction)
        qcqp = ck.assemble_qcqp(robot, [goal])
        result = ck.cidgik_solve(qcqp, options)
        statuses.append(result.status)
        if result.certificate is not None:
            certified += 1
    ok = all(s in ("infeasible", "max_iterations") for s in statuses)
    report(
        7,
        ok,
        f"20 out-of-reach goals: statuses={sorted(set(statuses))}, "
        f"certified infeasible={certified}/20",
    )


def test_criterion_8_sdpa_golden():
    toy = ck.build_toy_instance()
    text = ck.export_sdpa(toy)
    golden_ok = text == GOLDEN.read_text()
    parsed, C = ck.parse_sdpa(text)
    matrices_ok = (
        all(np.array_equal(a, b) for a, b in zip(toy.eq_mats, parsed.eq_mats))
        and all(np.array_equal(a, b) for a, b in zip(toy.ineq_mats, parsed.ineq_mats))
        and np.array_equal(parsed.eq_rhs, toy.eq_rhs)
        and np.array_equal(parsed.ineq_rhs, toy.ineq_rhs)
    )
    ok = golden_ok and matrices_ok
    report(8, ok, f"golden bytes={'match' if golden_ok else 'differ'} reparse exact={matrices_ok}")


def test_criterion_9_jeffreys_oracle():
    lognorm = gammaln(11.0) - 2 * gammaln(5.5)

    def dens(t):
        return np.exp(lognorm + 4.5 * (np.log(t) + np.log(1 - t)))

    def cdf(x):
        v, _ = quad(dens, 0.0, x, epsabs=1e-14, epsrel=1e-13, limit=200)
        return v

    def invert(q):
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    low, high = jeffreys_interval(5, 10)
    oracle_low, oracle_high = invert(0.025), invert(0.975)
    boundary_ok = (
        jeffreys_interval(0, 10)[0] == 0.0 and jeffreys_interval(10, 10)[1] == 1.0
    )
    ok = abs(low - oracle_low) < 1e-6 and abs(high - oracle_high) < 1e-6 and boundary_ok
    report(
        9,
        ok,
        f"(5,10) -> ({low:.7f}, {high:.7f}) vs oracle ({oracle_low:.7f}, {oracle_high:.7f}), "
        f"boundaries exact={boundary_ok}",
    )
