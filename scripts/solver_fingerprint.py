"""Print one JSON line per SDP pass on fixed seeded instances.

    PYTHONPATH=src python3 scripts/solver_fingerprint.py > fingerprint.txt

Each instance first gets a line with the SHA-1 of its lifted constraint data
(eq_mats, eq_rhs, ineq_mats, ineq_rhs) and of its export_sdpa text, so a change
to the lift or the operator shows up before any solve runs.  Each pass line
holds the pass's status, ADMM iterations, the SHA-1 of Z and the SHA-1 of the
certificate's y and mu.  Run it at two commits and diff the output: a refactor
of the solve path must leave it byte-identical.
"""

import hashlib
import json

import numpy as np

import cidgik as ck
import cidgik.iteration
from cidgik.robots import arm_6dof

# Benchmark workloads (ikbench/run.py) and keys; table uses 25 obstacles.
KEYS = {"octahedron": (0, 1, 2, 13, 20), "table": (0, 1, 11, 22), "unreachable": (0, 22)}


def _qcqp(robot, environment: str, key: int):
    if environment != "unreachable":
        return ck.generate(robot, environment, key, table_obstacles=25).qcqp
    direction = np.random.Generator(np.random.Philox(key=key)).standard_normal(3)
    direction /= np.linalg.norm(direction)
    goal = ck.Goal(end_effector=0, position=1.5 * robot.reach * direction, direction=direction)
    return ck.assemble_qcqp(robot, [goal], ck.WorkspaceSpec())


def _sha1(*arrays) -> str:
    return hashlib.sha1(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def _print_lift(name: str, qcqp) -> None:
    sdp = ck.lift(qcqp)
    lifted = _sha1(sdp.eq_mats, sdp.eq_rhs, sdp.ineq_mats, sdp.ineq_rhs)
    sdpa = hashlib.sha1(ck.export_sdpa(sdp).encode()).hexdigest()
    print(json.dumps({"instance": name, "lift": lifted, "sdpa": sdpa}))


def _print_pass(name: str, k: int, r) -> None:
    cert = r.certificate and _sha1(r.certificate.y, r.certificate.mu)
    print(json.dumps({"instance": name, "pass": k, "status": r.status,
                      "iterations": r.iterations, "Z": _sha1(r.Z.Z), "certificate": cert}))


def main():
    robot = arm_6dof()
    passes, solve = [], cidgik.iteration.solve

    def recording_solve(*args, **kwargs):
        passes.append(solve(*args, **kwargs))
        return passes[-1]

    cidgik.iteration.solve = recording_solve
    options = ck.CidgikOptions(solver=ck.SolverSettings(max_iters=8000))
    for environment, keys in KEYS.items():
        for key in keys:
            passes.clear()
            qcqp = _qcqp(robot, environment, key)
            _print_lift(f"{environment}-{key}", qcqp)
            ck.cidgik_solve(qcqp, options)
            for k, r in enumerate(passes):
                _print_pass(f"{environment}-{key}", k, r)
    for method in ("primal", "dual"):
        _print_pass(f"toy-{method}", 0, ck.solve(ck.build_toy_instance(), np.eye(3), method=method))


if __name__ == "__main__":
    main()
