"""Run seeded benchmark campaigns on the bundled 6-DOF arm and print a table.

Mirrors `cidgik bench` but drives the library directly, which is handy for
sweeping environments in one go.
"""

import argparse
import time

from cidgik.bench import run_benchmark
from cidgik.iteration import CidgikOptions
from cidgik.solver import SolverSettings
from cidgik.robots import arm_6dof


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=50, help="instances per environment")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--envs",
        nargs="+",
        default=["free", "octahedron", "cube", "icosahedron"],
    )
    parser.add_argument("--solver-iters", type=int, default=8000)
    args = parser.parse_args()

    robot = arm_6dof()
    options = CidgikOptions(solver=SolverSettings(max_iters=args.solver_iters))
    print(f"{'env':<12} {'success':<12} {'95% Jeffreys':<22} {'mean solve [s]':<14}")
    for env in args.envs:
        t0 = time.perf_counter()
        report = run_benchmark(
            robot, env, args.n, args.seed, options, jobs=args.jobs
        )
        agg = report.aggregate()
        low, high = agg["jeffreys_95"]
        mean = agg["mean_solve_time_s"]
        print(
            f"{env:<12} {agg['successes']}/{agg['trials']:<9} "
            f"[{100 * low:5.1f}, {100 * high:5.1f}]%        "
            f"{'n/a' if mean is None else f'{mean:.3f}':<14} "
            f"(wall {time.perf_counter() - t0:.0f}s)"
        )


if __name__ == "__main__":
    main()
