import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from cidgik import jeffreys_interval, run_benchmark
from cidgik.bench import BenchmarkReport, solve_one
from cidgik.generator import GenerationError, generate
from cidgik.iteration import CidgikOptions, CidgikResult, IterationTrace, cidgik_solve
from cidgik.solver import SolverSettings

FAST = CidgikOptions(solver=SolverSettings(max_iters=6000))


def beta_quantile_by_quadrature(a, b, q):
    """Independent oracle: integrate the Beta density and invert by bisection."""
    lognorm = gammaln(a + b) - gammaln(a) - gammaln(b)

    def dens(t):
        return np.exp(lognorm + (a - 1) * np.log(t) + (b - 1) * np.log(1 - t))

    def cdf(x):
        v, _ = quad(dens, 0.0, x, epsabs=1e-14, epsrel=1e-13, limit=200)
        return v

    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_jeffreys_boundaries():
    assert jeffreys_interval(10, 10)[1] == 1.0
    assert jeffreys_interval(0, 10)[0] == 0.0
    low, high = jeffreys_interval(0, 10)
    assert 0.0 < high < 1.0


def test_jeffreys_against_quadrature_oracle():
    low, high = jeffreys_interval(5, 10)
    assert low == pytest.approx(beta_quantile_by_quadrature(5.5, 5.5, 0.025), abs=1e-6)
    assert high == pytest.approx(beta_quantile_by_quadrature(5.5, 5.5, 0.975), abs=1e-6)


def test_jeffreys_validation():
    with pytest.raises(ValueError):
        jeffreys_interval(1, 0)
    with pytest.raises(ValueError):
        jeffreys_interval(5, 3)


@given(n=st.integers(1, 60), s=st.integers(0, 60))
@settings(max_examples=80, deadline=None)
def test_jeffreys_monotone_in_successes(n, s):
    if s >= n:
        return
    low1, high1 = jeffreys_interval(s, n)
    low2, high2 = jeffreys_interval(s + 1, n)
    assert low2 >= low1 - 1e-12
    assert high2 >= high1 - 1e-12


def test_jeffreys_width_shrinks_with_n():
    w10 = np.subtract(*reversed(jeffreys_interval(5, 10)))
    w100 = np.subtract(*reversed(jeffreys_interval(50, 100)))
    w1000 = np.subtract(*reversed(jeffreys_interval(500, 1000)))
    assert w1000 < w100 < w10


def test_empty_campaign_rejected(chain_6dof):
    with pytest.raises(ValueError, match="count must be an integer of at least 1"):
        run_benchmark(chain_6dof, "free", 0, 0)


@pytest.mark.parametrize("count", [2.5, True, 0, -1, "3"])
def test_bad_count_rejected_before_any_instance(chain_6dof, count, monkeypatch):
    """2.5 used to raise TypeError from range() and True to run one instance."""
    monkeypatch.setattr("cidgik.bench.generate", None)  # must not be reached
    monkeypatch.setattr("cidgik.bench.solve_one", None)
    with pytest.raises(ValueError, match="count"):
        run_benchmark(chain_6dof, "free", count, 0, FAST)


@pytest.mark.parametrize("jobs", [0, -1])
def test_nonpositive_jobs_rejected(chain_6dof, jobs, monkeypatch):
    """Such job counts used to run the campaign serially; now no instance or worker starts."""
    monkeypatch.setattr("cidgik.bench.solve_one", None)  # must not be reached
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
    with pytest.raises(ValueError, match="jobs"):
        run_benchmark(chain_6dof, "free", 2, 0, FAST, jobs=jobs)


class SerialPool:
    """Stands in for ProcessPoolExecutor: records its size and maps in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        SerialPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs,count,workers", [(5, 2, 2), (2, 3, 2), (8, 8, 8)])
def test_pool_holds_no_more_workers_than_instances(chain_6dof, jobs, count, workers, monkeypatch):
    """Under fork every worker starts at the first submit, so the pool holds no spare ones."""
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("cidgik.bench.solve_one", lambda robot, env, seed, **kw: {"seed": seed})
    SerialPool.sizes.clear()
    report = run_benchmark(chain_6dof, "free", count, 3, FAST, jobs=jobs)
    assert SerialPool.sizes == [workers]
    assert [row["seed"] for row in report.rows] == list(range(3, 3 + count))


def test_jobs_above_the_cpu_count_rejected(chain_6dof, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)  # must not be reached
    monkeypatch.setattr("cidgik.bench.solve_one", None)
    with pytest.raises(ValueError, match="jobs must be at most the 4 CPUs of this machine, got 5"):
        run_benchmark(chain_6dof, "free", 2, 0, FAST, jobs=5)


@pytest.mark.parametrize("count", [-3, 2.5])
def test_bad_table_obstacles_rejected_before_the_campaign(chain_6dof, count, monkeypatch):
    monkeypatch.setattr("cidgik.bench.solve_one", None)  # must not be reached
    with pytest.raises(ValueError, match="table_obstacles"):
        run_benchmark(chain_6dof, "table", 2, 0, FAST, table_obstacles=count)


TIME_KEYS = ("setup_time_s", "solve_time_s")


def _strip_times(payload):
    for row in payload["rows"]:
        for key in TIME_KEYS:
            row.pop(key)
    payload["aggregate"].pop("p50_solve_time_s")
    payload["aggregate"].pop("p95_solve_time_s")
    return payload


def test_benchmark_reports_are_reproducible(chain_6dof):
    a = run_benchmark(chain_6dof, "free", 3, 42, FAST)
    b = run_benchmark(chain_6dof, "free", 3, 42, FAST)
    ja = _strip_times(json.loads(a.to_json()))
    jb = _strip_times(json.loads(b.to_json()))
    assert ja == jb
    assert a.trials == 3
    agg = a.aggregate()
    assert agg["successes"] == sum(r["verified"] for r in a.rows)
    low, high = agg["jeffreys_95"]
    assert low <= agg["success_rate"] <= high


def test_benchmark_parallel_matches_serial(chain_6dof):
    serial = run_benchmark(chain_6dof, "free", 2, 7, FAST, jobs=1)
    parallel = run_benchmark(chain_6dof, "free", 2, 7, FAST, jobs=2)
    ja = _strip_times(json.loads(serial.to_json()))
    jb = _strip_times(json.loads(parallel.to_json()))
    assert ja == jb


def _raise(*args, **kwargs):
    raise RuntimeError("synthetic failure")


def _raise_generation(*args, **kwargs):
    raise GenerationError("synthetic generation failure")


def test_benchmark_row_failure_capture(chain_6dof, monkeypatch):
    monkeypatch.setattr("cidgik.bench.cidgik_solve", _raise)
    row = solve_one(chain_6dof, "free", 3, FAST)
    assert row["status"] == "error"
    assert not row["verified"]
    assert "synthetic failure" in row["error"]


def test_bench_row_is_the_solve_json_plus_seed_setup_and_error(chain_6dof):
    """A row is the solve's own to_json_dict(), not a hand copy of some of its fields."""
    row = solve_one(chain_6dof, "free", 3, FAST)
    solved = cidgik_solve(generate(chain_6dof, "free", 3).qcqp, FAST).to_json_dict()
    assert row.keys() == {*solved, "seed", "setup_time_s", "error"}
    for key in TIME_KEYS:
        row.pop(key)
        solved.pop(key, None)
    assert row == {**solved, "seed": 3, "error": None}


def test_every_bench_row_has_the_same_keys(chain_6dof, monkeypatch):
    solved = solve_one(chain_6dof, "free", 3, FAST)
    monkeypatch.setattr("cidgik.bench.cidgik_solve", _raise)
    failed = solve_one(chain_6dof, "free", 3, FAST)
    monkeypatch.setattr("cidgik.bench.generate", _raise_generation)
    ungenerated = solve_one(chain_6dof, "free", 3, FAST)
    assert (failed["status"], ungenerated["status"]) == ("error", "generation_error")
    assert solved.keys() == failed.keys() == ungenerated.keys()
    assert solved["verified"] and not failed["verified"] and not ungenerated["verified"]


def _row(status: str, solve_time_s: float, error: str | None = None) -> dict:
    return {
        **CidgikResult(status, IterationTrace(), solve_time=solve_time_s).to_json_dict(),
        "seed": 0,
        "setup_time_s": 0.1,
        "error": error,
    }


def test_aggregate_times_only_rows_that_ran_a_solve():
    """Rows whose generation or solve raised do not enter the solve-time quantiles as 0 s."""
    solved = _row("converged", 2.0)
    broken = [_row("generation_error", 0.0, "e"), _row("error", 0.0, "e")]
    agg = BenchmarkReport("arm", "free", 0, [solved, *broken]).aggregate()
    assert (agg["p50_solve_time_s"], agg["p95_solve_time_s"]) == (2.0, 2.0)
    assert agg["trials"] == 3
    assert agg["statuses"] == {"converged": 1, "generation_error": 1, "error": 1}
    agg = BenchmarkReport("arm", "free", 0, broken).aggregate()
    assert (agg["p50_solve_time_s"], agg["p95_solve_time_s"]) == (None, None)


def test_aggregate_reports_solve_time_quantiles():
    rows = [_row("converged", t) for t in (1.0, 2.0, 3.0, 4.0, 10.0)]
    agg = BenchmarkReport("arm", "free", 0, rows).aggregate()
    assert agg["p50_solve_time_s"] == 3.0
    assert agg["p95_solve_time_s"] == pytest.approx(8.8)
    assert agg["p95_solve_time_s"] != agg["p50_solve_time_s"]
