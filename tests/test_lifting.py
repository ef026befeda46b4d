import numpy as np
import pytest

from cidgik import (
    Goal,
    SdpInstance,
    Sphere,
    WorkspaceSpec,
    assemble_qcqp,
    build_toy_instance,
    evaluate,
    extract_points,
    forward_kinematics,
    generate,
    lift,
    lift_points,
)
from cidgik.graph import feasible_points
from cidgik.robots import random_coplanar_chain
from conftest import sample_angles

A0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
A1 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
A2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
A3 = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])


def test_toy_instance_matrices():
    toy = build_toy_instance()
    assert toy.side == 3 and toy.dim == 1
    np.testing.assert_array_equal(toy.eq_mats[0], A0)
    np.testing.assert_array_equal(toy.eq_mats[1], A1)
    np.testing.assert_array_equal(toy.eq_mats[2], A2)
    np.testing.assert_array_equal(toy.ineq_mats[0], -A3)
    np.testing.assert_array_equal(toy.eq_rhs, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(toy.ineq_rhs, [-0.25])


def test_toy_feasible_and_infeasible_roots():
    toy = build_toy_instance()
    up = np.outer([0.0, 1.0, 1.0], [0.0, 1.0, 1.0])
    eq, slack = evaluate(toy, up)
    assert np.max(np.abs(eq)) < 1e-14
    assert slack[0] == pytest.approx(2.0 - 0.25)  # tr(A3 Z) = 2
    down = np.outer([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    eq, slack = evaluate(toy, down)
    assert np.max(np.abs(eq)) < 1e-14
    assert slack[0] == pytest.approx(-0.25)  # tr(A3 Z) = 0 violates the 0.25 bound


def _random_instance(seed, n_joints):
    robot = random_coplanar_chain(n_joints, seed=seed)
    rng = np.random.Generator(np.random.Philox(key=1000 + seed))
    theta = sample_angles(rng, n_joints)
    poses, _ = forward_kinematics(robot, theta)
    goals = [
        Goal(end_effector=k, position=p.position, direction=p.direction)
        for k, p in enumerate(poses)
    ]
    ws = WorkspaceSpec(
        spheres=[Sphere(center=np.array([0.0, 0.0, -5.0]), radius=0.5)]
    )
    qcqp = assemble_qcqp(robot, goals, ws)
    return qcqp, theta


@pytest.mark.parametrize("seed,n", [(0, 3), (1, 4), (2, 5), (3, 6)])
def test_lift_of_feasible_points(seed, n):
    qcqp, theta = _random_instance(seed, n)
    instance = lift(qcqp)
    X = feasible_points(qcqp, theta)
    eq, slack = evaluate(instance, lift_points(X))
    assert np.max(np.abs(eq)) < 1e-10
    assert slack.size == 0 or np.min(slack) >= -1e-10


def test_lift_no_obstacles_no_inequalities(planar_2r):
    qcqp = assemble_qcqp(planar_2r, [Goal(end_effector=0, position=np.array([1.0, 1.0]))])
    instance = lift(qcqp)
    assert instance.num_inequalities == 0


def test_lift_constraint_matrix_structure(toy_qcqp):
    instance = lift(toy_qcqp)
    nv = instance.num_variables
    for A in np.concatenate([instance.eq_mats, instance.ineq_mats]):
        np.testing.assert_allclose(A, A.T, atol=1e-14)
    # distance-edge rows touch only their vertices and the anchor block
    graph = toy_qcqp.graph
    for k, e in enumerate(graph.edges):
        A = instance.eq_mats[k]
        allowed = {e.tail, e.head} if e.head < graph.num_variables else {e.tail}
        allowed |= set(range(nv, instance.side))
        nz = {int(i) for i in np.nonzero(np.any(A != 0.0, axis=0))[0]}
        assert nz <= allowed


def test_lift_equality_count(toy_qcqp):
    instance = lift(toy_qcqp)
    d = toy_qcqp.dim
    assert instance.num_equalities == len(toy_qcqp.graph.edges) + d * (d + 1) // 2


def test_evaluate_errors_and_linearity():
    toy = build_toy_instance()
    with pytest.raises(ValueError):
        evaluate(toy, np.eye(4))
    Z = np.outer([0.0, 1.0, 1.0], [0.0, 1.0, 1.0])
    eq1, _ = evaluate(toy, Z)
    eq2, _ = evaluate(toy, 2.0 * Z)
    np.testing.assert_allclose(eq2 + toy.eq_rhs, 2.0 * (eq1 + toy.eq_rhs))


def test_evaluate_zero_matrix_identity_rows(toy_qcqp):
    instance = lift(toy_qcqp)
    eq, _ = evaluate(instance, np.zeros((instance.side, instance.side)))
    # rows pinning the identity diagonal report -1 when Z = 0
    n_edges = len(toy_qcqp.graph.edges)
    diag_rows = [
        k
        for k in range(n_edges, instance.num_equalities)
        if instance.eq_rhs[k] == 1.0
    ]
    assert diag_rows and all(eq[k] == -1.0 for k in diag_rows)


def test_extract_points_exact_and_perturbed():
    rng = np.random.Generator(np.random.Philox(key=55))
    X = rng.normal(size=(3, 5))
    Z = lift_points(X)
    got, gap = extract_points(Z, dim=3)
    np.testing.assert_array_equal(got, X)
    assert gap == 0.0
    _, gap2 = extract_points(Z + 1e-3 * np.eye(8), dim=3)
    assert gap2 > 0.0


def test_lift_points_rank_bound():
    rng = np.random.Generator(np.random.Philox(key=56))
    for d in (2, 3):
        X = rng.normal(size=(d, 6))
        Z = lift_points(X)
        lam = np.linalg.eigvalsh(Z)
        assert np.sum(lam > 1e-9 * lam[-1]) <= d
        assert np.min(lam) > -1e-12


@pytest.fixture(scope="module")
def table_instance(chain_6dof):
    return lift(generate(chain_6dof, "table", 0, table_obstacles=25).qcqp)


def test_lift_stacks_constraints(table_instance):
    inst = table_instance
    n_eq, n_ineq = inst.num_equalities, inst.num_inequalities
    assert n_eq > 0 and n_ineq > 0
    for mats, rows in ((inst.eq_mats, n_eq), (inst.ineq_mats, n_ineq)):
        assert isinstance(mats, np.ndarray) and mats.dtype == np.float64
        assert mats.shape == (rows, inst.side, inst.side)
    assert inst.eq_rhs.shape == (n_eq,) and inst.ineq_rhs.shape == (n_ineq,)


def test_evaluate_matches_per_row_trace(table_instance):
    inst = table_instance
    rng = np.random.Generator(np.random.Philox(key=57))
    M = rng.normal(size=(inst.side, inst.side))
    Z = M @ M.T
    eq, slack = evaluate(inst, Z)
    np.testing.assert_allclose(
        eq, [np.tensordot(A, Z) - a for A, a in zip(inst.eq_mats, inst.eq_rhs)],
        rtol=0.0, atol=1e-12,
    )
    np.testing.assert_allclose(
        slack, [b - np.tensordot(B, Z) for B, b in zip(inst.ineq_mats, inst.ineq_rhs)],
        rtol=0.0, atol=1e-12,
    )


def test_sdp_instance_accepts_lists_and_no_inequalities():
    inst = SdpInstance(side=2, dim=1, eq_mats=[np.eye(2), np.ones((2, 2))], eq_rhs=[1.0, 2.0])
    assert inst.eq_mats.shape == (2, 2, 2) and inst.eq_mats.dtype == np.float64
    assert inst.eq_rhs.dtype == np.float64
    assert inst.ineq_mats.shape == (0, 2, 2) and inst.ineq_rhs.shape == (0,)
    assert inst.num_equalities == 2 and inst.num_inequalities == 0


@pytest.mark.parametrize(
    "eq_mats,eq_rhs,ineq_mats,ineq_rhs,match",
    [
        ([np.eye(3)], [1.0], [], [], "eq_mats has shape"),
        ([np.eye(2)], [1.0], [np.eye(3)], [0.0], "ineq_mats has shape"),
        (np.eye(2), [1.0, 1.0], [], [], "eq_mats has shape"),
        ([np.eye(2)], [1.0, 2.0], [], [], "eq_rhs has shape"),
        ([np.eye(2)], [1.0], [np.eye(2)], [], "ineq_rhs has shape"),
    ],
    ids=["eq-side", "ineq-side", "eq-2d", "eq-rhs-length", "ineq-rhs-length"],
)
def test_sdp_instance_rejects_misshaped_constraints(eq_mats, eq_rhs, ineq_mats, ineq_rhs, match):
    with pytest.raises(ValueError, match=match):
        SdpInstance(
            side=2, dim=1, eq_mats=eq_mats, eq_rhs=eq_rhs, ineq_mats=ineq_mats, ineq_rhs=ineq_rhs
        )
