import dataclasses

import numpy as np
import pytest

from cidgik import (
    AuxPoint,
    Goal,
    Plane,
    SdpInstance,
    Sphere,
    WorkspaceSpec,
    add_aux_point,
    assemble_qcqp,
    build_toy_instance,
    evaluate,
    extract_points,
    forward_kinematics,
    generate,
    joint_points,
    lift,
    lift_points,
)
from cidgik.graph import feasible_points, selection
from cidgik.kinematics import load_robot
from cidgik.robots import planar_two_link, random_coplanar_chain
from conftest import DH_CHAINS, panda_like_document, random_dh_chain_document, sample_angles
from test_iteration import _hinged_instance

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


@pytest.mark.parametrize(
    "document",
    [pytest.param(panda_like_document(), id="panda_like")]
    + [pytest.param(random_dh_chain_document(n, seed), id=f"dh{n}-{seed}") for n, seed in DH_CHAINS],
)
def test_lift_of_ground_truths_with_skew_axes(document):
    """Every structural pair sits in one joint's frame, so skew axes keep the lift exact."""
    robot = load_robot(document)
    for key in range(6):
        problem = generate(robot, "free", key)
        X = feasible_points(problem.qcqp, problem.ground_truth)
        eq, _ = evaluate(lift(problem.qcqp), lift_points(X))
        assert np.max(np.abs(eq)) < 1e-9


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
    np.testing.assert_array_equal(extract_points(Z, dim=3), X)
    # A Gram block that no longer matches X leaves the X block as it stands.
    np.testing.assert_array_equal(extract_points(Z + 1e-3 * np.eye(8), dim=3), X)


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


# ---------------------------------------------------------------------------
# The stacked lift against an entrywise reference


def _sym_from_coeffs(side, coeffs):
    """Symmetric A with tr(A Z) = sum coeffs[(i, j)] * Z_ij for symmetric Z."""
    A = np.zeros((side, side))
    for (i, j), c in coeffs.items():
        if i == j:
            A[i, i] += c
        else:
            A[i, j] += 0.5 * c
            A[j, i] += 0.5 * c
    return A


def _anchor_coeffs(k, w, nv, side):
    coeffs = {(k, k): 1.0}
    for r, wr in enumerate(w):
        if wr != 0.0:
            coeffs[(min(k, nv + r), max(k, nv + r))] = -2.0 * wr
    coeffs[(side - 1, side - 1)] = coeffs.get((side - 1, side - 1), 0.0) + float(w @ w)
    return coeffs


def _edge_coeffs(k, l):
    return {(k, k): 1.0, (l, l): 1.0, (min(k, l), max(k, l)): -2.0}


def _gram_coeffs(g, nv):
    """||[X I] g||^2 expanded: g_a g_b on the Gram and X blocks, the corner's ||.||^2 on Z[-1, -1]."""
    side = len(g)
    coeffs = {(a, b): (1.0 if a == b else 2.0) * g[a] * g[b] for a in range(nv) for b in range(a, side)}
    coeffs[(side - 1, side - 1)] = float(g[nv:] @ g[nv:])
    return coeffs


def _reference_lift(qcqp):
    """The lift written row by row: a coefficient dict per row, then a dense matrix."""
    graph = qcqp.graph
    d = graph.dim
    nv = n_graph = graph.num_variables  # the lift's variables are the graph's
    side = nv + d
    eq_mats, eq_rhs, ineq_mats, ineq_rhs = [], [], [], []

    def anchor_vec(v):
        return graph.anchors[:, v - n_graph]

    def point_vec(v):
        """Point v as a vector of [X I]: a unit vector, or an aux point's mix of its edge's ends."""
        g = np.zeros(side)
        if v < n_graph:
            g[v] = 1.0
            return g
        aux = qcqp.aux_points[v - n_graph]
        for u, wgt in zip(aux.edge, (1.0 - aux.alpha, aux.alpha)):
            if u < n_graph:
                g[u] += wgt
            else:
                g[nv:] += wgt * anchor_vec(u)
        return g

    for e in graph.edges:
        if e.head < n_graph:
            coeffs = _edge_coeffs(e.tail, e.head)
        else:
            coeffs = _anchor_coeffs(e.tail, anchor_vec(e.head), nv, side)
        eq_mats.append(_sym_from_coeffs(side, coeffs))
        eq_rhs.append(e.weight)
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
        else:
            ineq_mats.append(-A)
            ineq_rhs.append(-plane.offset)
    for sphere in qcqp.spheres:
        r2 = sphere.radius**2
        center = np.concatenate([np.zeros(nv), sphere.center])
        for v in range(qcqp.num_points):
            if v < n_graph:
                coeffs = _anchor_coeffs(v, sphere.center, nv, side)
            else:
                coeffs = _gram_coeffs(point_vec(v) - center, nv)
            M = _sym_from_coeffs(side, coeffs)
            if sphere.sense == "keep_out":
                ineq_mats.append(-M)
                ineq_rhs.append(-r2)
            else:
                ineq_mats.append(M)
                ineq_rhs.append(r2)
    for i, j, eps in qcqp.self_collision:
        if max(i, j) < n_graph:
            coeffs = _edge_coeffs(i, j)
        else:
            coeffs = _gram_coeffs(point_vec(i) - point_vec(j), nv)
        ineq_mats.append(-_sym_from_coeffs(side, coeffs))
        ineq_rhs.append(-eps)
    return SdpInstance(side, d, eq_mats, np.array(eq_rhs), ineq_mats, np.array(ineq_rhs))


def _planes_instance(chain_6dof):
    """Octahedron key 0 with an "on" plane and an "above" plane on two variable points."""
    qcqp = generate(chain_6dof, "octahedron", 0).qcqp
    tilted = np.array([0.6, 0.0, 0.8])
    planes = [
        (1, Plane(normal=tilted, offset=0.1, relation="on")),
        (2, Plane(normal=np.array([0.0, 1.0, 0.0]), offset=-0.2, relation="above")),
    ]
    return dataclasses.replace(qcqp, planes=qcqp.planes + planes)


def _variable_aux_instance(chain_6dof):
    """Table-25 key 2 with an aux point between two variable points."""
    qcqp = generate(chain_6dof, "table", 2, table_obstacles=25).qcqp
    nv = qcqp.graph.num_variables
    edge = next(e for e in qcqp.graph.edges if e.head < nv)
    return add_aux_point(qcqp, AuxPoint(edge=(edge.tail, edge.head), alpha=0.3))


def _coplanar_chain_instance():
    robot = random_coplanar_chain(7, 1)
    poses, _ = forward_kinematics(robot, np.linspace(-1.0, 1.0, 7))
    goal = Goal(end_effector=0, position=poses[0].position, direction=poses[0].direction)
    ws = WorkspaceSpec(spheres=[Sphere(center=np.array([0.0, 0.0, -5.0]), radius=0.5)])
    return assemble_qcqp(robot, [goal], ws)


def _generated(env, key, obstacles=0):
    return lambda robot: generate(robot, env, key, table_obstacles=obstacles).qcqp


LIFT_CASES = {
    "octahedron-0": _generated("octahedron", 0),
    "octahedron-1": _generated("octahedron", 1),
    "table25-0": _generated("table", 0, 25),
    "table25-1": _generated("table", 1, 25),
    "table100-0": _generated("table", 0, 100),
    "table100-1": _generated("table", 1, 100),
    "cube-0": _generated("cube", 0),
    "icosahedron-0": _generated("icosahedron", 0),
    "free-0": _generated("free", 0),
    "planar-two-link": lambda robot: assemble_qcqp(
        planar_two_link(),
        [Goal(end_effector=0, position=np.array([1.0, 1.0]))],
        WorkspaceSpec(spheres=[Sphere(center=np.array([1.0, 0.0]), radius=0.5)]),
    ),
    "coplanar-chain-7": lambda robot: _coplanar_chain_instance(),
    "aux-keep-in-self-collision": _hinged_instance,
    "aux-between-variables": _variable_aux_instance,
    "on-and-above-planes": _planes_instance,
}


@pytest.mark.parametrize("case", list(LIFT_CASES))
def test_lift_matches_entrywise_reference(chain_6dof, case):
    """Every row and right-hand side equals the row-by-row lift exactly, zero signs included."""
    qcqp = LIFT_CASES[case](chain_6dof)
    got, want = lift(qcqp), _reference_lift(qcqp)
    assert (got.side, got.dim) == (want.side, want.dim)
    for name in ("eq_mats", "eq_rhs", "ineq_mats", "ineq_rhs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape
        assert np.array_equal(a, b), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name


@pytest.mark.parametrize("env", ["octahedron", "table"])
def test_aux_points_add_sphere_rows_but_no_variable(chain_6dof, env):
    """An aux point is a mix of points the lift already has: no variable and no equality row."""
    qcqp = generate(chain_6dof, env, 2, table_obstacles=25).qcqp
    graph = qcqp.graph
    with_aux = qcqp
    for e in graph.edges:
        with_aux = add_aux_point(with_aux, AuxPoint(edge=(e.tail, e.head), alpha=0.5))
    before, after = lift(qcqp), lift(with_aux)
    assert after.side == before.side == graph.num_variables + graph.dim
    assert np.array_equal(after.eq_mats, before.eq_mats)
    assert np.array_equal(after.eq_rhs, before.eq_rhs)
    assert after.num_inequalities == before.num_inequalities + len(qcqp.spheres) * len(graph.edges)


@pytest.mark.parametrize(
    "build,key", [(_hinged_instance, 3), (_variable_aux_instance, 2)], ids=["hinged", "variable-aux"]
)
def test_aux_sphere_rows_are_the_mixed_points_clearance(chain_6dof, build, key):
    """On the exact lift of the graph's variables, an aux point's sphere slack is its clearance."""
    qcqp = build(chain_6dof)
    theta = generate(chain_6dof, "table", key, table_obstacles=25).ground_truth
    points = joint_points(chain_6dof, theta) @ selection(qcqp)
    n = qcqp.graph.num_variables
    n_points = n + len(qcqp.aux_points)
    assert n_points > n
    _, slack = evaluate(lift(qcqp), lift_points(points[:, :n]))
    first = sum(p.relation != "on" for _, p in qcqp.planes)  # the "above" planes' rows come first
    for s, sphere in enumerate(qcqp.spheres):
        for k in range(n, n_points):
            gap = float(np.sum((points[:, k] - sphere.center) ** 2)) - sphere.radius**2
            want = gap if sphere.sense == "keep_out" else -gap
            assert slack[first + s * n_points + k] == pytest.approx(want, rel=0, abs=1e-12)
