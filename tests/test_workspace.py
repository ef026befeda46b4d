import numpy as np
import pytest

from cidgik import (
    Goal,
    GraphError,
    Plane,
    Sphere,
    WorkspaceSpec,
    add_aux_point,
    add_self_collision,
    assemble_qcqp,
    evaluate,
    joint_points,
    lift,
    lift_points,
    penetration,
    solve,
)
from cidgik.graph import feasible_points, selection
from cidgik.solver import SolverSettings
from cidgik.workspace import AuxPoint, environment
from cidgik.robots import planar_chain_document
from cidgik.kinematics import load_robot


def test_sphere_validation():
    with pytest.raises(ValueError):
        Sphere(center=np.zeros(3), radius=0.0)
    with pytest.raises(ValueError):
        Sphere(center=np.zeros(3), radius=float("nan"))
    with pytest.raises(ValueError):
        Sphere(center=np.zeros(3), radius=1.0, sense="sideways")


NAN = float("nan")


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda chain: Sphere(center=np.array([NAN, 0.0]), radius=0.5), ValueError),
        (lambda chain: Sphere(center=np.zeros(2), radius=float("inf")), ValueError),
        (lambda chain: Plane(normal=np.array([NAN, 0.0]), offset=0.0), ValueError),
        (lambda chain: Plane(normal=np.array([1.0, 0.0]), offset=NAN), ValueError),
        (lambda chain: add_self_collision(chain, 0, 1, NAN), ValueError),
        (lambda chain: add_self_collision(chain, 0, 1, float("inf")), ValueError),
        (lambda chain: chain_instance(position=[NAN, 1.0]), GraphError),
        (lambda chain: chain_instance(direction=[NAN, 0.0]), GraphError),
    ],
    ids=[
        "sphere-center",
        "sphere-radius",
        "plane-normal",
        "plane-offset",
        "self-collision-nan",
        "self-collision-inf",
        "goal-position",
        "goal-direction",
    ],
)
def test_non_finite_input_is_rejected(build, error):
    """NaN data fails where it is given, not as a LinAlgError deep in the solve."""
    with pytest.raises(error):
        build(chain_instance())


def chain_instance(position=(2.2, 1.2), direction=None):
    """A planar three-link chain reaching one goal (two variable points)."""
    robot = load_robot(planar_chain_document([1.0, 1.0, 1.0]))
    goal = Goal(
        end_effector=0,
        position=np.array(position, dtype=float),
        direction=None if direction is None else np.array(direction, dtype=float),
    )
    return assemble_qcqp(robot, [goal])


def test_config_in_collision(planar_2r):
    def depth(theta, spheres):
        return penetration(joint_points(planar_2r, theta), spheres)

    assert not depth([0.3, -0.2], []) > 0.0
    on_elbow = Sphere(center=np.array([1.0, 0.0]), radius=0.5)
    assert depth([0.0, 0.0], [on_elbow]) > 0.0
    assert not depth([np.pi / 2, 0.0], [on_elbow]) > 0.0


def test_collision_implies_positive_residual(toy_qcqp, planar_2r):
    theta = np.array([0.0, 0.0])  # elbow at (1, 0), inside the keep-out disc
    assert penetration(joint_points(planar_2r, theta), toy_qcqp.spheres) > 0.0
    X = feasible_points(toy_qcqp, theta)
    _, slack = evaluate(lift(toy_qcqp), lift_points(X))
    assert -np.min(slack) > 0.0


# Columns (0, 0, 0), (1, 0, 0) and (3, 0, 0).
LINE = np.array([[0.0, 1.0, 3.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
X_AXIS = np.array([1.0, 0.0, 0.0])


def test_penetration_of_each_region_kind():
    keep_out = Sphere(center=np.zeros(3), radius=2.0)
    keep_in = Sphere(center=np.zeros(3), radius=2.0, sense="keep_in")
    above = Plane(normal=X_AXIS, offset=0.5)
    on = Plane(normal=X_AXIS, offset=1.0, relation="on")
    assert penetration(LINE, [keep_out]) == 2.0  # r - |x - c| at the center
    assert penetration(LINE, [keep_in]) == 1.0  # |x - c| - r at (3, 0, 0)
    assert penetration(LINE, planes=[above]) == 0.5  # offset - n.x at the origin
    assert penetration(LINE, planes=[on]) == 2.0  # |n.x - offset| at (3, 0, 0)
    assert penetration(LINE, [keep_in, keep_out], [above, on]) == 2.0  # the deepest


def test_penetration_is_zero_where_every_region_holds():
    clear = Sphere(center=np.array([1.5, 0.0, 0.0]), radius=0.25)
    around = Sphere(center=np.zeros(3), radius=3.5, sense="keep_in")
    below = Plane(normal=X_AXIS, offset=-1.0)
    on = Plane(normal=np.array([0.0, 0.0, 1.0]), offset=0.0, relation="on")
    assert penetration(LINE, [clear, around], [below, on]) == 0.0
    assert penetration(LINE) == 0.0
    assert penetration(np.zeros((3, 0)), [Sphere(center=np.zeros(3), radius=1.0)], [below]) == 0.0


def test_aux_point_midpoint():
    robot = load_robot(planar_chain_document([2.0, 1.0]))
    theta = np.array([0.4, -0.8])
    from cidgik import forward_kinematics

    poses, _ = forward_kinematics(robot, theta)
    goal = Goal(end_effector=0, position=poses[0].position)
    qcqp = assemble_qcqp(robot, [goal])
    edge = qcqp.graph.edges[0]  # base anchor -> elbow, length 2
    assert edge.weight == pytest.approx(4.0)
    aux = AuxPoint(edge=(edge.tail, edge.head), alpha=0.5)
    updated = add_aux_point(qcqp, aux)
    assert updated.num_points == qcqp.num_points + 1
    points = joint_points(robot, theta) @ selection(updated)
    y = points[:, -1]
    a = points[:, edge.tail]  # the elbow, a variable
    b = updated.graph.anchors[:, edge.head - updated.graph.num_variables]
    assert np.linalg.norm(y - a) == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(y - b) == pytest.approx(1.0, abs=1e-9)
    eq, _ = evaluate(lift(updated), lift_points(feasible_points(updated, theta)))
    assert np.max(np.abs(eq)) < 1e-9


def test_two_aux_points_extend_variables(toy_qcqp):
    e = toy_qcqp.graph.edges[0]
    u1 = add_aux_point(toy_qcqp, AuxPoint(edge=(e.tail, e.head), alpha=0.3))
    u2 = add_aux_point(u1, AuxPoint(edge=(e.tail, e.head), alpha=0.7))
    assert u2.num_points == toy_qcqp.num_points + 2


def test_aux_point_validation(toy_qcqp):
    with pytest.raises(ValueError):
        AuxPoint(edge=(0, 1), alpha=0.0)
    with pytest.raises(ValueError, match="not an equality edge"):
        add_aux_point(toy_qcqp, AuxPoint(edge=(0, 7), alpha=0.5))


def test_aux_point_on_anchor_anchor_edge_rejected(planar_2r):
    # fabricate an instance whose graph got an anchor-anchor edge: the real
    # builder never produces one, so check against the vertex classification
    goal = Goal(end_effector=0, position=np.array([1.0, 1.0]))
    qcqp = assemble_qcqp(planar_2r, [goal])
    nv = qcqp.graph.num_variables
    qcqp.graph.edges.append(type(qcqp.graph.edges[0])(nv, nv + 1, 2.0))
    with pytest.raises(ValueError, match="constant point"):
        add_aux_point(qcqp, AuxPoint(edge=(nv, nv + 1), alpha=0.5))


def test_self_collision_validation(toy_qcqp):
    with pytest.raises(ValueError):
        add_self_collision(toy_qcqp, 0, 0, 1.0)
    with pytest.raises(ValueError):
        add_self_collision(toy_qcqp, 0, 1, 0.0)


def test_self_collision_feasible_chain():
    robot = load_robot(planar_chain_document([1.0, 1.0, 1.0]))
    goal = Goal(end_effector=0, position=np.array([2.2, 1.2]))
    qcqp = assemble_qcqp(robot, [goal])
    qcqp = add_self_collision(qcqp, 0, 1, 0.01)  # well below any separation
    theta = np.array([0.3, 0.4, -0.5])
    X = feasible_points(
        assemble_qcqp(robot, [Goal(end_effector=0, position=np.array([2.2, 1.2]))]),
        theta,
    )
    # the lift only needs variable columns, which are unchanged
    _, slack = evaluate(lift(qcqp), lift_points(X))
    assert np.min(slack) >= 0.0


def test_self_collision_duplicate_collapses(toy_qcqp):
    robot_doc = planar_chain_document([1.0, 1.0, 1.0])
    robot = load_robot(robot_doc)
    qcqp = assemble_qcqp(robot, [Goal(end_effector=0, position=np.array([2.0, 1.0]))])
    a = add_self_collision(qcqp, 0, 1, 0.1)
    b = add_self_collision(a, 1, 0, 0.2)
    assert len(b.self_collision) == 1
    assert b.self_collision[0][2] == pytest.approx(0.2)


def test_self_collision_unreachable_eps_infeasible_downstream():
    robot = load_robot(planar_chain_document([1.0, 1.0, 1.0]))
    goal = Goal(end_effector=0, position=np.array([1.5, 0.5]))
    qcqp = assemble_qcqp(robot, [goal])
    # the two variable points can never be more than 4 apart on this robot
    qcqp = add_self_collision(qcqp, 0, 1, 100.0)
    result = solve(lift(qcqp), settings=SolverSettings(max_iters=4000))
    assert result.status in ("infeasible", "max_iters")


def test_environment_presets(chain_6dof):
    free = environment("free", chain_6dof)
    assert not free.spheres and not free.planes
    for name, count in [("octahedron", 6), ("cube", 8), ("icosahedron", 12)]:
        ws = environment(name, chain_6dof)
        assert len(ws.spheres) == count
        reach = chain_6dof.reach
        for s in ws.spheres:
            assert s.radius == pytest.approx(0.25 * reach)
            assert np.linalg.norm(s.center) == pytest.approx(0.5 * reach)
    table = environment("table", chain_6dof, table_obstacles=17)
    assert len(table.spheres) == 17
    assert len(table.planes) == 1 and table.planes[0][0] is None
    assert all(s.center[2] > 0 for s in table.spheres)
    # deterministic layout
    again = environment("table", chain_6dof, table_obstacles=17)
    assert all(
        np.array_equal(a.center, b.center) for a, b in zip(table.spheres, again.spheres)
    )
    with pytest.raises(ValueError):
        environment("dodecahedron", chain_6dof)


@pytest.mark.parametrize("count", [-3, -1, 2.5, True, "3", None])
@pytest.mark.parametrize("name", ["free", "table"])
def test_environment_rejects_bad_table_obstacles(chain_6dof, name, count):
    """-3 used to give 0 spheres and 2.5 to give 3."""
    with pytest.raises(ValueError, match="table_obstacles"):
        environment(name, chain_6dof, table_obstacles=count)


def test_environment_table_without_obstacles(chain_6dof):
    table = environment("table", chain_6dof, table_obstacles=0)
    assert not table.spheres and len(table.planes) == 1
    assert len(environment("table", chain_6dof, table_obstacles=np.int64(2)).spheres) == 2


def test_environment_requires_3d(planar_2r):
    with pytest.raises(ValueError):
        environment("octahedron", planar_2r)


def test_aux_point_redundant_on_clear_instance():
    """Adding an aux point far from every obstacle must not change feasibility."""
    robot = load_robot(planar_chain_document([2.0, 1.0]))
    theta = np.array([0.4, -0.8])
    from cidgik import forward_kinematics

    poses, _ = forward_kinematics(robot, theta)
    goal = Goal(end_effector=0, position=poses[0].position)
    ws = WorkspaceSpec(spheres=[Sphere(center=np.array([0.0, -5.0]), radius=0.5)])
    base = assemble_qcqp(robot, [goal], ws)
    edge = base.graph.edges[0]
    with_aux = add_aux_point(base, AuxPoint(edge=(edge.tail, edge.head), alpha=0.5))
    for instance in (base, with_aux):
        X = feasible_points(instance, theta)
        eq, slack = evaluate(lift(instance), lift_points(X))
        assert np.max(np.abs(eq)) < 1e-9
        assert np.min(slack) > 0.0
