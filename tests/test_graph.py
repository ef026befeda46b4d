import numpy as np
import pytest

from cidgik import (
    Goal,
    GraphError,
    Sphere,
    WorkspaceSpec,
    assemble_qcqp,
    build_graph,
    evaluate,
    forward_kinematics,
    generate,
    lift,
    lift_points,
)
from cidgik.graph import Edge, _check_graph, feasible_points, selection
from cidgik.kinematics import joint_points, load_robot
from conftest import (
    DH_CHAINS,
    coincident_arm_document,
    panda_like_document,
    random_dh_chain_document,
    sample_angles,
    two_arm_tree,
)


def lifted(qcqp, X):
    """(worst equality residual, lifted inequality slacks) of the exact lift of X."""
    eq, slack = evaluate(lift(qcqp), lift_points(X))
    return float(np.max(np.abs(eq))), slack


def pose_goals(robot, theta):
    poses, _ = forward_kinematics(robot, theta)
    return [
        Goal(end_effector=k, position=p.position, direction=p.direction)
        for k, p in enumerate(poses)
    ]


# (num_variables, num_anchors, edges) for pose goals at the Philox-40
# configuration, as the hand-listed pairs that _rigid_pairs replaced gave them.
GRAPH_COUNTS = {
    "fig2": (4, 4, 14),
    "two-arm-tree-0": (16, 6, 52),
    "two-arm-tree-45": (16, 6, 52),
    "panda-like": (10, 4, 28),
    "coincident": (9, 4, 26),
    **{f"dh-{n}-{seed}": (2 * n - 2, 4, 5 * n - 1) for n, seed in DH_CHAINS},
}
GRAPH_ROBOTS = {
    "two-arm-tree-0": lambda: two_arm_tree(0.0),
    "two-arm-tree-45": lambda: two_arm_tree(np.pi / 4),
    "panda-like": lambda: load_robot(panda_like_document()),
    "coincident": lambda: load_robot(coincident_arm_document()),
    **{
        f"dh-{n}-{seed}": lambda n=n, seed=seed: load_robot(random_dh_chain_document(n, seed))
        for n, seed in DH_CHAINS
    },
}


@pytest.mark.parametrize("name", list(GRAPH_COUNTS))
def test_rigid_pair_graph_counts_and_invariant_weights(name, request):
    """The graph keeps its size, and every edge weight holds at any configuration."""
    robot = request.getfixturevalue("fig2_robot") if name == "fig2" else GRAPH_ROBOTS[name]()
    rng = np.random.Generator(np.random.Philox(key=40))
    graph = build_graph(robot, pose_goals(robot, sample_angles(rng, robot.num_joints)))
    assert (graph.num_variables, graph.num_anchors, len(graph.edges)) == GRAPH_COUNTS[name]
    # A vertex's label is a layout column, and a goal anchor's is the robot
    # point it marks, so each edge reads its two robot points.
    labels = graph.variable_labels + graph.anchor_labels
    index = robot.layout.index
    tails = [index[labels[e.tail]] for e in graph.edges]
    heads = [index[labels[e.head]] for e in graph.edges]
    weights = np.array([e.weight for e in graph.edges])
    for _ in range(20):
        P = joint_points(robot, sample_angles(rng, robot.num_joints))
        assert np.max(np.abs(np.sum((P[:, tails] - P[:, heads]) ** 2, axis=0) - weights)) < 1e-10


def test_fig2_graph_counts(fig2_robot):
    goals = pose_goals(fig2_robot, np.array([0.2, -0.4, 0.8]))
    graph = build_graph(fig2_robot, goals)
    assert graph.num_variables == 4  # p, q of the two unanchored joints
    assert graph.num_anchors == 4  # base p, q plus position and direction anchors


def test_planar_2r_graph(planar_2r):
    graph = build_graph(planar_2r, [Goal(end_effector=0, position=np.array([1.0, 1.0]))])
    assert graph.num_variables == 1
    assert graph.num_anchors == 2
    assert sorted(e.weight for e in graph.edges) == [1.0, 1.0]


def test_fully_anchored_robot_rejected():
    robot = load_robot(
        {
            "dimension": 3,
            "joints": [
                {
                    "name": "a",
                    "parent": "base",
                    "translation": [0.0, 0.0, 0.1],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 0.0, 1.0],
                }
            ],
            "end_effectors": [{"parent": "a", "tip": [0.2, 0.0, 0.0]}],
        }
    )
    with pytest.raises(GraphError, match="no unanchored joints"):
        build_graph(robot, [Goal(end_effector=0, position=np.array([0.2, 0.0, 0.1]))])


def test_goal_validation(planar_2r):
    with pytest.raises(GraphError, match="unknown end-effector"):
        build_graph(planar_2r, [Goal(end_effector=3, position=np.array([1.0, 1.0]))])
    with pytest.raises(GraphError, match="at least one goal"):
        build_graph(planar_2r, [])
    with pytest.raises(GraphError, match="unit vector"):
        build_graph(
            planar_2r,
            [
                Goal(
                    end_effector=0,
                    position=np.array([1.0, 1.0]),
                    direction=np.array([2.0, 0.0]),
                )
            ],
        )


def test_graph_is_acyclic_by_orientation(chain_6dof):
    goals = pose_goals(chain_6dof, np.zeros(6))
    graph = build_graph(chain_6dof, goals)
    assert all(e.tail < e.head for e in graph.edges)  # topological by index


def test_six_edges_per_consecutive_unanchored_pair(chain_6dof):
    goals = pose_goals(chain_6dof, np.zeros(6))
    graph = build_graph(chain_6dof, goals)
    label_of = {lab: v for v, lab in enumerate(graph.variable_labels)}
    # joints 2..5 (0-based 1..5 unanchored); count edges within pairs (i, i+1)
    for i in range(1, 5):
        pair_vertices = {
            label_of[("p", i)],
            label_of[("q", i)],
            label_of[("p", i + 1)],
            label_of[("q", i + 1)],
        }
        inside = [
            e for e in graph.edges if e.tail in pair_vertices and e.head in pair_vertices
        ]
        assert len(inside) == 6


def test_assemble_counts_toy(toy_qcqp):
    counts = toy_qcqp.constraint_counts()
    assert counts["equalities"] == 2
    assert counts["obstacle_inequalities"] == 1
    assert counts["planes"] == 0


def test_assemble_no_obstacles(planar_2r):
    qcqp = assemble_qcqp(planar_2r, [Goal(end_effector=0, position=np.array([1.0, 1.0]))])
    assert qcqp.spheres == []
    assert qcqp.constraint_counts()["obstacle_inequalities"] == 0


def test_assemble_obstacle_count_6dof(chain_6dof):
    goals = pose_goals(chain_6dof, np.array([0.4, 0.5, -0.3, 0.8, 0.2, -0.6]))
    spheres = [
        Sphere(center=np.array([2.0 + i, 0.0, 0.0]), radius=0.1) for i in range(6)
    ]
    qcqp = assemble_qcqp(chain_6dof, goals, WorkspaceSpec(spheres=spheres))
    n_unanchored = sum(not a for a in chain_6dof.anchored)
    assert qcqp.constraint_counts()["obstacle_inequalities"] == 2 * n_unanchored * 6


def test_residuals_feasible_and_perturbed(chain_6dof):
    rng = np.random.Generator(np.random.Philox(key=23))
    theta = sample_angles(rng, 6)
    goals = pose_goals(chain_6dof, theta)
    ws = WorkspaceSpec(spheres=[Sphere(center=np.array([0.0, 0.0, -3.0]), radius=0.4)])
    qcqp = assemble_qcqp(chain_6dof, goals, ws)
    X = feasible_points(qcqp, theta)
    eq, slack = lifted(qcqp, X)
    assert eq < 1e-9
    assert np.min(slack) >= 0.0

    # drag one point to the obstacle centre: violation is the full radius^2
    X2 = X.copy()
    X2[:, 0] = np.array([0.0, 0.0, -3.0])
    _, slack2 = lifted(qcqp, X2)
    assert -np.min(slack2) == pytest.approx(0.4**2)


def test_residuals_empty_sets(planar_2r):
    qcqp = assemble_qcqp(planar_2r, [Goal(end_effector=0, position=np.array([1.0, 1.0]))])
    X = np.array([[0.0], [1.0]])
    eq, slack = lifted(qcqp, X)
    assert slack.size == 0
    assert eq < 1e-12


def test_equality_residuals_vanish_at_any_theta(chain_6dof):
    rng = np.random.Generator(np.random.Philox(key=29))
    for _ in range(10):
        theta = sample_angles(rng, 6)
        goals = pose_goals(chain_6dof, theta)
        qcqp = assemble_qcqp(chain_6dof, goals)
        assert lifted(qcqp, feasible_points(qcqp, theta))[0] < 1e-9


def test_merging_coincident_points():
    """A child origin one unit along the parent axis coincides with q_parent."""
    robot = load_robot(
        {
            "dimension": 3,
            "joints": [
                {
                    "name": "a",
                    "parent": "base",
                    "translation": [0.0, 0.0, 0.2],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 0.0, 1.0],
                },
                {
                    "name": "b",
                    "parent": "a",
                    "translation": [0.0, 0.0, 0.3],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 1.0, 0.0],
                },
                {
                    "name": "c",
                    "parent": "b",
                    # exactly 1.0 along b's axis: p_c lands on q_b
                    "translation": [0.0, 1.0, 0.0],
                    "rotation_rpy": [0.0, 0.0, 0.0],
                    "axis": [0.0, 1.0, 0.0],
                },
            ],
            "end_effectors": [{"parent": "c", "tip": [0.3, 0.0, 0.0]}],
        }
    )
    theta = np.array([0.3, -0.4, 0.9])
    goals = pose_goals(robot, theta)
    graph = build_graph(robot, goals)
    # q_b and p_c merged into one vertex; no zero-weight edges survive
    index = robot.layout.index
    assert graph.column_vertex[index["p", 2]] == graph.column_vertex[index["q", 1]]
    assert all(e.weight > 1e-12 for e in graph.edges)
    qcqp = assemble_qcqp(robot, goals)
    assert lifted(qcqp, feasible_points(qcqp, theta))[0] < 1e-9


def test_point_merged_onto_an_anchor_leaves_no_anchor_edge():
    """j2's origin sits on j1's anchored one, so p2 merges onto the anchor p1.

    The pairs from p2 to j1's anchored points then join two anchors; kept as
    edges, they would land in the lift's identity corner and no ground truth
    would satisfy the lift.
    """
    robot = load_robot(coincident_arm_document())
    index = robot.layout.index
    for key in range(10):
        problem = generate(robot, "free", key)
        graph = problem.qcqp.graph
        assert graph.column_vertex[index["p", 1]] == graph.column_vertex[index["p", 0]]
        assert all(e.tail < graph.num_variables for e in graph.edges)
        X = feasible_points(problem.qcqp, problem.ground_truth)
        assert lifted(problem.qcqp, X)[0] < 1e-9


def test_anchor_to_anchor_edge_rejected(chain_6dof):
    graph = build_graph(chain_6dof, pose_goals(chain_6dof, np.zeros(6)))
    nv = graph.num_variables
    graph.edges.append(Edge(nv, nv + 1, 1.0))
    with pytest.raises(GraphError, match="two anchors"):
        _check_graph(graph)


@pytest.mark.parametrize("mount_turn", [0.0, np.pi / 4])
def test_swung_sibling_arm_breaks_a_lifted_row(mount_turn):
    """Swinging the right arm of a two-arm torso about the torso axis breaks a row.

    Each arm's first axis lies in a plane through the torso axis.  When the
    two planes are mount_turn apart, the swing by -2 mount_turn reflects the
    right arm's points through the left arm's plane, which keeps every
    distance: that point set satisfies every lifted row although no
    configuration realizes it, so on the turned mount only the gate's check
    through forward kinematics rejects it.  With both arms in one plane
    (mount_turn 0) every swing but the trivial one breaks a row.
    """
    robot = two_arm_tree(mount_turn)
    index = robot.layout.index
    arm = {i for i, joint in enumerate(robot.joints) if joint.name.startswith("right")}
    right = [
        index[c] for c in robot.layout.columns if (c[1] == 1 if c[0] == "ee" else c[1] in arm)
    ]
    theta = np.array([0.3, -0.4, 0.7, 1.1, -0.2, 0.5, 0.9, -1.3, 0.4])
    points = joint_points(robot, theta)

    def violation(angle):
        c, s = np.cos(angle), np.sin(angle)
        P = points.copy()
        P[:, right] = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ P[:, right]
        goals = []
        for k in range(2):
            tip, ahead = P[:, index["ee", k, "pos"]], P[:, index["ee", k, "dir"]]
            goals.append(Goal(end_effector=k, position=tip, direction=ahead - tip))
        qcqp = assemble_qcqp(robot, goals)
        return lifted(qcqp, P @ selection(qcqp))[0]

    assert violation(0.0) < 1e-12
    assert violation(0.5) > 0.1
    mirror = -2.0 * mount_turn % (2.0 * np.pi)
    for angle in 2.0 * np.pi * np.arange(1, 72) / 72:
        if mount_turn and abs(angle - mirror) < 1e-9:
            assert violation(angle) < 1e-12
        else:
            assert violation(angle) > 1e-3, angle

