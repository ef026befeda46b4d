"""Solve every screened instance key of a workload once and report the failures.

    python3 ikbench/screen.py --workload arm-table

Solves keys 0 .. screened-1 of the workload and prints one line per key
(status, passes, seconds, check outcome) and, at the end, the keys that did
not pass.  Those, with the keys that took three or more passes, are the
workload's `excluded` keys in run.py.  Set-up and timing follow run.py,
without the reference kernel.
"""

import argparse
import json
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    workload = run.WORKLOADS[args.workload]
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    import cidgik as ck
    from cidgik.lifting import lift

    import checker

    robot_text = run.ROBOT_JSON.read_text()
    robot = ck.load_robot(robot_text)
    rc = checker.RobotChecker(json.loads(robot_text))
    options = ck.CidgikOptions(solver=ck.SolverSettings(max_iters=run.MAX_ITERS))
    failed = []
    for key in range(workload.screened):
        instance = run.build_instance(workload, robot, key, np, ck)
        t0 = time.perf_counter()
        result = ck.cidgik_solve(instance.qcqp, options)
        seconds = time.perf_counter() - t0
        try:
            ok, reason = run.check(workload, instance, result, rc, checker, lift)
        except checker.CheckError as e:
            ok, reason = False, f"wrong result: {e}"
        print(f"{key} {result.status} passes={result.iterations} {seconds:.3f}s {reason}", flush=True)
        if not ok:
            failed.append(key)
    print(f"failed keys: {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
