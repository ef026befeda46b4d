"""Benchmark campaigns: generate, solve, verify, and aggregate with Jeffreys intervals."""

from __future__ import annotations

import concurrent.futures
import csv
import functools
import io
import json
import logging
import time
from dataclasses import dataclass

import numpy as np

from .generator import GenerationError, _check_seed, generate
from .iteration import CidgikOptions, cidgik_solve
from .kinematics import RobotModel
from .solver import _check_count
from .workspace import environment

logger = logging.getLogger("cidgik.bench")


def jeffreys_interval(successes: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Equal-tailed Jeffreys interval for a binomial proportion.

    Endpoints are quantiles of the Beta(s + 1/2, n - s + 1/2) posterior, found
    by a bracketed root-find on the regularized incomplete beta function; the
    lower endpoint is pinned to 0 when s = 0 and the upper to 1 when s = n.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    import scipy.optimize
    import scipy.special

    tail = (1.0 - level) / 2.0
    a = successes + 0.5
    b = trials - successes + 0.5

    def quantile(q: float) -> float:
        return float(scipy.optimize.brentq(
            lambda x: scipy.special.betainc(a, b, x) - q, 0.0, 1.0, xtol=1e-10
        ))

    low = 0.0 if successes == 0 else quantile(tail)
    high = 1.0 if successes == trials else quantile(1.0 - tail)
    return low, high


@dataclass(frozen=True)
class InstanceRow:
    seed: int
    status: str
    success: bool
    setup_time_s: float
    position_error: float | None = None
    direction_error: float | None = None
    max_penetration: float | None = None
    h_trace: tuple[float, ...] = ()
    iterations: int = 0
    solve_time_s: float = 0.0
    theta: tuple[float, ...] | None = None
    certified_infeasible: bool = False
    error: str | None = None


@dataclass(eq=False)
class BenchmarkReport:
    robot_name: str
    environment: str
    base_seed: int
    rows: list[InstanceRow]
    h_tol: float

    @property
    def trials(self) -> int:
        return len(self.rows)

    @property
    def successes(self) -> int:
        return sum(r.success for r in self.rows)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    def aggregate(self) -> dict:
        low, high = jeffreys_interval(self.successes, self.trials)
        # Rows whose generation or solve raised carry no solve time.
        times = [r.solve_time_s for r in self.rows if r.error is None]
        statuses = {}
        for r in self.rows:
            statuses[r.status] = statuses.get(r.status, 0) + 1
        return {
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": self.success_rate,
            "jeffreys_95": [low, high],
            "mean_solve_time_s": float(np.mean(times)) if times else None,
            "stddev_solve_time_s": float(np.std(times)) if times else None,
            "statuses": statuses,
            "certified_infeasible": sum(r.certified_infeasible for r in self.rows),
        }

    def to_json_dict(self) -> dict:
        return {
            "robot": self.robot_name,
            "environment": self.environment,
            "base_seed": self.base_seed,
            "h_tol": self.h_tol,
            "aggregate": self.aggregate(),
            "rows": [
                {
                    "seed": r.seed,
                    "status": r.status,
                    "success": r.success,
                    "position_error": r.position_error,
                    "direction_error": r.direction_error,
                    "max_penetration": r.max_penetration,
                    "h_trace": [h if np.isfinite(h) else None for h in r.h_trace],
                    "iterations": r.iterations,
                    "setup_time_s": r.setup_time_s,
                    "solve_time_s": r.solve_time_s,
                    "theta": None if r.theta is None else list(r.theta),
                    "certified_infeasible": r.certified_infeasible,
                    "error": r.error,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "seed",
                "status",
                "success",
                "position_error",
                "direction_error",
                "max_penetration",
                "iterations",
                "setup_time_s",
                "solve_time_s",
                "h_trace",
            ]
        )
        for r in self.rows:
            writer.writerow(
                [
                    r.seed,
                    r.status,
                    int(r.success),
                    r.position_error,
                    r.direction_error,
                    r.max_penetration,
                    r.iterations,
                    r.setup_time_s,
                    r.solve_time_s,
                    "|".join(f"{h:.3e}" for h in r.h_trace),
                ]
            )
        return buf.getvalue()


def solve_one(
    robot: RobotModel,
    environment_name: str,
    seed: int,
    options: CidgikOptions,
    *,
    table_obstacles: int = 100,
) -> InstanceRow:
    """Generate and solve one instance; failures become rows, not raises.

    `success` is the solve's own `verified` verdict.
    """
    t0 = time.perf_counter()
    try:
        problem = generate(
            robot, environment_name, seed, table_obstacles=table_obstacles
        )
    except GenerationError as e:
        return InstanceRow(
            seed=seed,
            status="generation_error",
            success=False,
            setup_time_s=time.perf_counter() - t0,
            error=str(e),
        )
    setup = time.perf_counter() - t0
    try:
        result = cidgik_solve(problem.qcqp, options)
    except Exception as e:  # per-instance errors must not abort the campaign
        logger.warning("seed %d failed: %s", seed, e)
        return InstanceRow(
            seed=seed, status="error", success=False, setup_time_s=setup, error=str(e)
        )
    return InstanceRow(
        seed=seed,
        status=result.status,
        success=result.verified,
        setup_time_s=setup,
        position_error=result.position_error,
        direction_error=result.direction_error,
        max_penetration=result.max_penetration,
        h_trace=tuple(result.trace.h_values),
        iterations=result.iterations,
        solve_time_s=result.solve_time,
        theta=None if result.theta is None else tuple(float(t) for t in result.theta),
        certified_infeasible=result.certificate is not None,
    )


def check_campaign(
    robot: RobotModel,
    environment_name: str,
    count: int,
    base_seed: int,
    *,
    jobs: int = 1,
    table_obstacles: int = 100,
) -> None:
    """Raise ValueError for a campaign that cannot run, before any instance or worker exists."""
    _check_count(count, "count")
    _check_count(jobs, "jobs")
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
    """Solve a seeded campaign; per-instance determinism holds for any job count."""
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
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(one, seeds))
    return BenchmarkReport(
        robot_name=robot_name,
        environment=environment_name,
        base_seed=base_seed,
        rows=rows,
        h_tol=options.h_tol,
    )
