"""Benchmark campaigns: generate, solve, verify, and aggregate with Jeffreys intervals."""

from __future__ import annotations

import concurrent.futures
import functools
import json
import logging
import os
import time
from dataclasses import dataclass

import numpy as np

from .generator import GenerationError, _check_seed, generate
from .iteration import CidgikOptions, CidgikResult, IterationTrace, cidgik_solve
from .kinematics import RobotModel
from .solver import _check_count
from .workspace import environment

logger = logging.getLogger("cidgik.bench")


def jeffreys_interval(successes: int, trials: int) -> tuple[float, float]:
    """Equal-tailed 95 % Jeffreys interval for a binomial proportion.

    Endpoints are quantiles of the Beta(s + 1/2, n - s + 1/2) posterior, read
    off the inverse regularized incomplete beta function; the lower endpoint
    is pinned to 0 when s = 0 and the upper to 1 when s = n.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    from scipy.special import betaincinv

    tail = (1.0 - 0.95) / 2.0
    a = successes + 0.5
    b = trials - successes + 0.5
    low = 0.0 if successes == 0 else float(betaincinv(a, b, tail))
    high = 1.0 if successes == trials else float(betaincinv(a, b, 1.0 - tail))
    return low, high


@dataclass(eq=False)
class BenchmarkReport:
    robot_name: str
    environment: str
    base_seed: int
    # One dict per instance: the solve's own to_json_dict() plus seed,
    # setup_time_s and error (see solve_one).
    rows: list[dict]

    @property
    def trials(self) -> int:
        return len(self.rows)

    @property
    def successes(self) -> int:
        return sum(r["verified"] for r in self.rows)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    def aggregate(self) -> dict:
        low, high = jeffreys_interval(self.successes, self.trials)
        # Rows whose generation or solve raised carry no solve time.
        times = [r["solve_time_s"] for r in self.rows if r["error"] is None]
        p50, p95 = (float(p) for p in np.percentile(times, [50, 95])) if times else (None, None)
        statuses = {}
        for r in self.rows:
            statuses[r["status"]] = statuses.get(r["status"], 0) + 1
        return {
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "jeffreys_95": [low, high],
            "p50_solve_time_s": p50,
            "p95_solve_time_s": p95,
            "statuses": statuses,
        }

    def to_json(self) -> str:
        return json.dumps(
            {
                "robot": self.robot_name,
                "environment": self.environment,
                "base_seed": self.base_seed,
                "aggregate": self.aggregate(),
                "rows": self.rows,
            },
            sort_keys=True,
            indent=2,
        )


def solve_one(
    robot: RobotModel,
    environment_name: str,
    seed: int,
    options: CidgikOptions,
    *,
    table_obstacles: int = 100,
) -> dict:
    """Generate and solve one instance; failures become rows, not raises.

    The row is the solve's own `CidgikResult.to_json_dict()` plus `seed`,
    `setup_time_s` and `error`.  A row whose generation or solve raised
    carries the values of a solve that never ran, so every row has the same
    keys.
    """
    t0 = time.perf_counter()
    error = None
    try:
        problem = generate(
            robot, environment_name, seed, table_obstacles=table_obstacles
        )
    except GenerationError as e:
        result, error = CidgikResult("generation_error", IterationTrace()), str(e)
    setup = time.perf_counter() - t0
    if error is None:
        try:
            result = cidgik_solve(problem.qcqp, options)
        except Exception as e:  # per-instance errors must not abort the campaign
            logger.warning("seed %d failed: %s", seed, e)
            result, error = CidgikResult("error", IterationTrace()), str(e)
    return {**result.to_json_dict(), "seed": seed, "setup_time_s": setup, "error": error}


def check_campaign(
    robot: RobotModel,
    environment_name: str,
    count: int,
    base_seed: int,
    *,
    jobs: int = 1,
    table_obstacles: int = 100,
) -> None:
    """Raise ValueError for a campaign that cannot run, before any instance or worker exists.

    jobs may not exceed the machine's CPU count: each job is one worker process.
    """
    _check_count(count, "count")
    _check_count(jobs, "jobs")
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        raise ValueError(f"jobs must be at most the {cpus} CPUs of this machine, got {jobs}")
    _check_seed(base_seed)
    _check_seed(int(base_seed) + count - 1)
    environment(environment_name, robot, table_obstacles=table_obstacles)


def run_benchmark(
    robot: RobotModel,
    environment_name: str,
    count: int,
    base_seed: int,
    options: CidgikOptions | None = None,
    *,
    jobs: int = 1,
    table_obstacles: int = 100,
    robot_name: str = "robot",
) -> BenchmarkReport:
    """Solve a seeded campaign; per-instance determinism holds for any job count.

    The pool holds min(jobs, count) workers: under the fork start method
    every worker starts at the first submit, whether it gets work or not.
    """
    check_campaign(
        robot, environment_name, count, base_seed, jobs=jobs, table_obstacles=table_obstacles
    )
    options = options or CidgikOptions()
    seeds = range(base_seed, base_seed + count)
    # One function over the seeds either way; a RobotModel pickles.
    one = functools.partial(
        solve_one, robot, environment_name, options=options, table_obstacles=table_obstacles
    )
    if jobs == 1:
        rows = list(map(one, seeds))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, count)) as pool:
            rows = list(pool.map(one, seeds))
    return BenchmarkReport(
        robot_name=robot_name,
        environment=environment_name,
        base_seed=base_seed,
        rows=rows,
    )
