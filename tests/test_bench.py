import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from cidgik import jeffreys_interval, run_benchmark
from cidgik.bench import BenchmarkReport, InstanceRow, solve_one
from cidgik.iteration import CidgikOptions
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
    with pytest.raises(ValueError):
        jeffreys_interval(1, 2, level=1.0)


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


@pytest.mark.parametrize("count", [-3, 2.5])
def test_bad_table_obstacles_rejected_before_the_campaign(chain_6dof, count, monkeypatch):
    monkeypatch.setattr("cidgik.bench.solve_one", None)  # must not be reached
    with pytest.raises(ValueError, match="table_obstacles"):
        run_benchmark(chain_6dof, "table", 2, 0, FAST, table_obstacles=count)


def _strip_times(payload):
    for row in payload["rows"]:
        row.pop("setup_time_s")
        row.pop("solve_time_s")
    payload["aggregate"].pop("mean_solve_time_s")
    payload["aggregate"].pop("stddev_solve_time_s")
    return payload


def test_benchmark_reports_are_reproducible(chain_6dof):
    a = run_benchmark(chain_6dof, "free", 3, 42, FAST)
    b = run_benchmark(chain_6dof, "free", 3, 42, FAST)
    ja = _strip_times(json.loads(a.to_json()))
    jb = _strip_times(json.loads(b.to_json()))
    assert ja == jb
    assert a.trials == 3
    agg = a.aggregate()
    assert agg["successes"] == sum(r.success for r in a.rows)
    low, high = agg["jeffreys_95"]
    assert low <= agg["success_rate"] <= high


def test_benchmark_parallel_matches_serial(chain_6dof):
    serial = run_benchmark(chain_6dof, "free", 2, 7, FAST, jobs=1)
    parallel = run_benchmark(chain_6dof, "free", 2, 7, FAST, jobs=2)
    ja = _strip_times(json.loads(serial.to_json()))
    jb = _strip_times(json.loads(parallel.to_json()))
    assert ja == jb


def test_benchmark_row_failure_capture(chain_6dof, monkeypatch):
    import cidgik.bench as bench_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(bench_mod, "cidgik_solve", boom)
    row = solve_one(chain_6dof, "free", 3, FAST)
    assert row.status == "error"
    assert not row.success
    assert "synthetic failure" in row.error


def test_aggregate_times_only_rows_that_ran_a_solve():
    """Rows whose generation or solve raised do not enter the solve-time mean as 0 s."""
    solved = InstanceRow(seed=0, status="converged", success=True, setup_time_s=0.1, solve_time_s=2.0)
    broken = [
        InstanceRow(seed=1, status="generation_error", success=False, setup_time_s=0.1, error="e"),
        InstanceRow(seed=2, status="error", success=False, setup_time_s=0.1, error="e"),
    ]
    agg = BenchmarkReport("arm", "free", 0, [solved, *broken], 1e-6).aggregate()
    assert (agg["mean_solve_time_s"], agg["stddev_solve_time_s"]) == (2.0, 0.0)
    assert agg["trials"] == 3
    agg = BenchmarkReport("arm", "free", 0, broken, 1e-6).aggregate()
    assert (agg["mean_solve_time_s"], agg["stddev_solve_time_s"]) == (None, None)


def test_benchmark_csv_shape(chain_6dof):
    report = run_benchmark(chain_6dof, "free", 2, 11, FAST)
    lines = report.to_csv().strip().splitlines()
    assert lines[0].startswith("seed,status,success")
    assert len(lines) == 3
