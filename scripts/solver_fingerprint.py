"""Print one JSON line per SDP pass and per solve on fixed seeded instances.

    PYTHONPATH=src python3 scripts/solver_fingerprint.py > fingerprint.txt

The output opens with one line naming numpy's version and the BLAS and LAPACK
libraries it was built against: the solver's factorizations and
eigendecompositions all run in numpy's LAPACK, so every Z, certificate and
theta hash depends on it.  One line per environment preset follows: the SHA-1 of the
generated ground-truth thetas and of the goals (positions, then directions)
of arm_6dof keys 0-39 (table with 25 obstacles), so a change to the
generator's rejection or to its goal arithmetic shows up before any solve.
Each instance then gets a line with the SHA-1 of its lifted constraint data
(eq_mats, eq_rhs, ineq_mats, ineq_rhs) and of its export_sdpa text, so a change
to the lift or the operator shows up before any solve runs.  Each pass line
holds the pass's status, ADMM iterations, the SHA-1 of Z (the iterate the pass
stopped on) and the SHA-1 of the certificate's y and mu.  The instance's result
line holds the cidgik_solve status, its pass count and the SHA-1 of theta (null
without one).  The instances are the arm_6dof benchmark keys below, an
unreachable goal among the 25 table obstacles (whose certificate carries
inequality multipliers mu), two goals inside the workspace's inner boundary
("inner": 3 cm from joint 1's origin, certified in pass 1 and in pass 2, so
their certificates come from a cold and from a warm-started pass), cube key 0
with an aux point at the midpoint of each link ("cube-midpoints-0": a link
joins consecutive joint origins, and the last origin to the tip), so the
aux points' rows of the lift are fingerprinted too, the planar two-link toy
with its keep-out disc and the fully stretched planar two-link.
More pass lines follow: the 3x3 toy SDP ("toy"), a warm-started
rank-direction pass ("warm-octahedron-0": octahedron key 0, a 4000-iteration
C = I pass, then one 4000-iteration pass with that iterate's direction_matrix
as the cost and the iterate as the warm start, which stops at its cap, so its
Z is its last iterate), since every benchmark key closes in its first pass,
and a cold 4000-iteration C = I pass on each goal beyond reach
("cold-unreachable-0", "cold-unreachable-22", "cold-unreachable-table-0"),
since cidgik_solve certifies those from a structural path before any pass
and so prints no pass line for them.
Then come two kinematics lines, for arm_6dof and random_coplanar_chain(7, 1)
at 50 seeded configurations: the
SHA-1 of the forward_kinematics frames (rotations, origins, axes), of
joint_points, and of the theta reconstruct_angles reads back from those
points.  Last come two graph lines, for random_coplanar_chain(7, 1) and for
the coincident arm (arm_6dof with j1 raised to 0.27 m and j2 on j1's origin,
so j2's point p merges onto an anchor), each with a pose goal at a seeded
configuration: the SHA-1 of build_graph's edges (tails and heads, then
weights), of its anchors and of its column_vertex.  BLAS runs on one thread, so the
output does not depend on the caller's environment.  Run it at two commits
and compare the outputs with

    python3 scripts/fingerprint_diff.py OLD NEW

which prints every line whose status, iterations or passes differ, counts
the lines that differ in hashes only, and exits 1 on any difference beyond
the hashes.  A refactor of the solve path that keeps its arithmetic must
leave every line byte-identical; one that only changes rounding (of the
projection, say, or of the local refinement) may change Z, certificate and
theta hashes, but nothing else.
"""

import os

# One BLAS thread, set before numpy loads: threaded BLAS changes the rounding.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

import cidgik as ck  # noqa: E402
import cidgik.iteration  # noqa: E402
from cidgik.robots import (  # noqa: E402
    arm_6dof,
    arm_6dof_document,
    planar_two_link,
    random_coplanar_chain,
)
from cidgik.workspace import ENVIRONMENT_NAMES  # noqa: E402

# Benchmark workloads (ikbench/run.py) and keys; table uses 25 obstacles.
# "unreachable-table" puts the arm-unreachable goal among the table obstacles;
# "inner" puts the goal 3 cm from joint 1's origin, inside the inner boundary.
KEYS = {
    "octahedron": (0, 1, 2, 13, 20),
    "table": (0, 1, 11, 22),
    "unreachable": (0, 22),
    "unreachable-table": (0,),
    "inner": (6, 12),
}
JOINT_1_ORIGIN = np.array([0.0, 0.0, 0.15])  # arm_6dof's, the center of the inner goals
GENERATE_KEYS = range(40)  # per environment preset, for the generate lines


def _qcqp(robot, environment: str, key: int):
    if environment in ENVIRONMENT_NAMES:
        return ck.generate(robot, environment, key, table_obstacles=25).qcqp
    direction = np.random.Generator(np.random.Philox(key=key)).standard_normal(3)
    direction /= np.linalg.norm(direction)
    if environment == "inner":
        position = JOINT_1_ORIGIN + 0.03 * direction
    else:
        position = 1.5 * robot.reach * direction
    goal = ck.Goal(end_effector=0, position=position, direction=direction)
    if environment == "unreachable-table":
        workspace = ck.environment("table", robot, table_obstacles=25)
    else:
        workspace = ck.WorkspaceSpec()
    return ck.assemble_qcqp(robot, [goal], workspace)


def _link_midpoints(qcqp):
    """qcqp with an aux point halfway along each link: joint origins in order, then the tip."""
    graph = qcqp.graph
    vertex = {label: v for v, label in enumerate(graph.variable_labels + graph.anchor_labels)}
    ends = sorted(label for label in vertex if label[0] == "p") + [("ee", 0, "pos")]
    for a, b in zip(ends, ends[1:]):
        qcqp = ck.add_aux_point(qcqp, ck.AuxPoint(edge=(vertex[a], vertex[b]), alpha=0.5))
    return qcqp


def _instances():
    """(name, qcqp) for every arm_6dof key and cube-midpoints-0, then the planar two-link cases."""
    robot = arm_6dof()
    for environment, keys in KEYS.items():
        for key in keys:
            yield f"{environment}-{key}", _qcqp(robot, environment, key)
    yield "cube-midpoints-0", _link_midpoints(_qcqp(robot, "cube", 0))
    planar = planar_two_link()
    disc = ck.WorkspaceSpec(spheres=[ck.Sphere(center=np.array([1.0, 0.0]), radius=0.5)])
    reach = ck.Goal(end_effector=0, position=np.array([1.0, 1.0]))
    stretched = ck.Goal(end_effector=0, position=np.array([2.0, 0.0]))
    yield "toy-qcqp", ck.assemble_qcqp(planar, [reach], disc)
    yield "stretched-2r", ck.assemble_qcqp(planar, [stretched])


def _sha1(*arrays) -> str:
    return hashlib.sha1(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def _print_lift(name: str, qcqp) -> None:
    sdp = ck.lift(qcqp)
    lifted = _sha1(sdp.eq_mats, sdp.eq_rhs, sdp.ineq_mats, sdp.ineq_rhs)
    sdpa = hashlib.sha1(ck.export_sdpa(sdp).encode()).hexdigest()
    print(json.dumps({"instance": name, "lift": lifted, "sdpa": sdpa}))


def _print_pass(name: str, k: int, r) -> None:
    cert = r.certificate and _sha1(r.certificate.y, r.certificate.mu)
    Z = getattr(r.Z, "Z", r.Z)  # older trees wrap Z in a LiftedSolution
    print(json.dumps({"instance": name, "pass": k, "status": r.status,
                      "iterations": r.iterations, "Z": _sha1(Z), "certificate": cert}))


def _print_result(name: str, result) -> None:
    theta = None if result.theta is None else _sha1(result.theta)
    print(json.dumps({"instance": name, "status": result.status,
                      "passes": result.iterations, "theta": theta}))


def _print_generate(environment: str) -> None:
    problems = [ck.generate(arm_6dof(), environment, key, table_obstacles=25)
                for key in GENERATE_KEYS]
    goals = [g for p in problems for g in p.qcqp.goals]
    print(json.dumps({"generate": environment,
                      "theta": _sha1(*(p.ground_truth for p in problems)),
                      "goals": _sha1(*(g.position for g in goals), *(g.direction for g in goals))}))


def _print_numpy() -> None:
    dependencies = np.show_config(mode="dicts")["Build Dependencies"]
    print(json.dumps({"numpy": np.__version__, **{
        kind: f"{dependencies[kind]['name']} {dependencies[kind]['version']}"
        for kind in ("blas", "lapack")
    }}))


def _print_kinematics(name: str, robot) -> None:
    rng = np.random.Generator(np.random.Philox(key=2024))
    frames, points, theta = [], [], []
    for th in rng.uniform(-np.pi, np.pi, size=(50, robot.num_joints)):
        _, f = ck.forward_kinematics(robot, th)
        P = ck.joint_points(robot, th)
        frames += [f.rotations, f.origins, f.axes]
        points.append(P)
        theta.append(ck.reconstruct_angles(robot, P).theta)
    print(json.dumps({"kinematics": name, "frames": _sha1(*frames),
                      "points": _sha1(*points), "reconstruct": _sha1(*theta)}))


def _coincident_arm():
    """arm_6dof with j1 raised to j2's height and j2 on j1's origin."""
    document = arm_6dof_document()
    document["joints"][0]["translation"] = [0.0, 0.0, 0.27]
    document["joints"][1]["translation"] = [0.0, 0.0, 0.0]
    return ck.load_robot(document)


def _print_graph(name: str, robot) -> None:
    rng = np.random.Generator(np.random.Philox(key=2025))
    theta = rng.uniform(-np.pi, np.pi, robot.num_joints)
    pose = ck.forward_kinematics(robot, theta)[0][0]
    graph = ck.build_graph(robot, [ck.Goal(0, pose.position, pose.direction)])
    ends = np.array([(e.tail, e.head) for e in graph.edges], dtype=np.int64)
    weights = np.array([e.weight for e in graph.edges])
    print(json.dumps({"graph": name, "edges": _sha1(ends, weights),
                      "anchors": _sha1(graph.anchors),
                      "column_vertex": _sha1(graph.column_vertex.astype(np.int64))}))


def main():
    passes, solve = [], cidgik.iteration.solve

    def recording_solve(*args, **kwargs):
        passes.append(solve(*args, **kwargs))
        return passes[-1]

    cidgik.iteration.solve = recording_solve
    _print_numpy()
    for environment in ENVIRONMENT_NAMES:
        _print_generate(environment)
    options = ck.CidgikOptions(solver=ck.SolverSettings(max_iters=8000))
    for name, qcqp in _instances():
        passes.clear()
        _print_lift(name, qcqp)
        result = ck.cidgik_solve(qcqp, options)
        for k, r in enumerate(passes):
            _print_pass(name, k, r)
        _print_result(name, result)
    _print_pass("toy", 0, ck.solve(ck.build_toy_instance(), np.eye(3)))
    sdp = ck.lift(_qcqp(arm_6dof(), "octahedron", 0))
    settings = ck.SolverSettings(max_iters=4000)
    first = ck.solve(sdp, None, settings)
    C = ck.direction_matrix(first.Z, sdp.dim)
    _print_pass("warm-octahedron-0", 1, ck.solve(sdp, C, settings, warm_start=first.Z))
    for environment in ("unreachable", "unreachable-table"):
        for key in KEYS[environment]:
            sdp = ck.lift(_qcqp(arm_6dof(), environment, key))
            _print_pass(f"cold-{environment}-{key}", 0, ck.solve(sdp, None, settings))
    _print_kinematics("arm_6dof", arm_6dof())
    _print_kinematics("chain7", random_coplanar_chain(7, 1))
    _print_graph("chain7", random_coplanar_chain(7, 1))
    _print_graph("coincident", _coincident_arm())


if __name__ == "__main__":
    main()
