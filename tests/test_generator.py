import json

import numpy as np
import pytest

from cidgik import (
    GenerationError,
    evaluate,
    generate,
    joint_points,
    lift,
    lift_points,
    penetration,
    run_benchmark,
)
from cidgik.graph import feasible_points
from cidgik.problemio import dumps_problem, save_generated
from cidgik.workspace import Sphere, WorkspaceSpec


def test_free_environment_accepts_immediately(chain_6dof):
    problem = generate(chain_6dof, "free", seed=0)
    assert problem.environment == "free"
    assert problem.qcqp.spheres == []
    assert len(problem.ground_truth) == 6


def test_ground_truth_realizes_instance(chain_6dof):
    problem = generate(chain_6dof, "octahedron", seed=3)
    X = feasible_points(problem.qcqp, problem.ground_truth)
    eq, slack = evaluate(lift(problem.qcqp), lift_points(X))
    assert np.max(np.abs(eq)) < 1e-9
    assert np.min(slack) >= 0.0


def test_same_seed_identical_problem_bytes(chain_6dof):
    def dump(problem):
        ws = WorkspaceSpec(
            spheres=list(problem.qcqp.spheres),
            planes=list(problem.qcqp.planes),
        )
        return dumps_problem(problem.qcqp.robot, problem.qcqp.goals, ws)

    a = generate(chain_6dof, "octahedron", seed=9)
    b = generate(chain_6dof, "octahedron", seed=9)
    assert dump(a) == dump(b)
    assert np.array_equal(a.ground_truth, b.ground_truth)
    c = generate(chain_6dof, "octahedron", seed=10)
    assert not np.array_equal(a.ground_truth, c.ground_truth)


def test_engulfing_sphere_hits_rejection_cap(chain_6dof, monkeypatch):
    import cidgik.generator as gen

    def swallowed(name, robot, table_obstacles=100):
        return WorkspaceSpec(
            spheres=[Sphere(center=np.zeros(3), radius=10.0 * robot.reach)]
        )

    monkeypatch.setattr(gen, "environment", swallowed)
    with pytest.raises(GenerationError, match="too cluttered"):
        generate(chain_6dof, "octahedron", seed=0)


def test_octahedron_ground_truths_collision_free(chain_6dof):
    for seed in range(7, 17):
        p = generate(chain_6dof, "octahedron", seed)
        assert not penetration(joint_points(chain_6dof, p.ground_truth), p.qcqp.spheres) > 0.0


@pytest.mark.parametrize("environment", ["free", "octahedron", "table"])
def test_goals_are_the_ground_truths_table_points(chain_6dof, environment):
    """Ground truths clear every region, and goals are their table points bit for bit."""
    index = chain_6dof.layout.index
    for seed in range(10):
        p = generate(chain_6dof, environment, seed, table_obstacles=25)
        P = joint_points(chain_6dof, p.ground_truth)
        planes = [plane for _, plane in p.qcqp.planes]
        assert penetration(P, p.qcqp.spheres, planes) == 0.0
        for g in p.qcqp.goals:
            position = P[:, index["ee", g.end_effector, "pos"]]
            assert np.array_equal(g.position, position)
            assert np.array_equal(g.direction, P[:, index["ee", g.end_effector, "dir"]] - position)


@pytest.mark.parametrize("seed", [1.5, True, -1, 2**128, "1", None])
def test_bad_seed_rejected(chain_6dof, seed):
    """1.5 and True used to give seed 1's instance, and -1 numpy's Philox error."""
    with pytest.raises(ValueError, match="seed must be an integer"):
        generate(chain_6dof, "free", seed)


def test_every_philox_key_is_a_seed(chain_6dof, tmp_path):
    assert generate(chain_6dof, "free", 2**128 - 1).seed == 2**128 - 1
    a = generate(chain_6dof, "free", np.int64(5))
    assert np.array_equal(a.ground_truth, generate(chain_6dof, "free", 5).ground_truth)
    # a numpy seed is kept as an int, so the sidecar's JSON can hold it
    assert json.loads(save_generated(tmp_path / "p.json", a).read_text())["seed"] == 5


@pytest.mark.parametrize("base_seed,count", [(-1, 2), (2.5, 2), (True, 2), (2**128 - 1, 2)])
def test_campaign_seed_range_checked_before_any_instance(chain_6dof, base_seed, count, monkeypatch):
    monkeypatch.setattr("cidgik.bench.solve_one", None)  # must not be reached
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_benchmark(chain_6dof, "free", count, base_seed, jobs=2)


def test_angles_in_half_open_interval(chain_6dof):
    for seed in range(20):
        p = generate(chain_6dof, "free", seed)
        assert np.all(p.ground_truth > -np.pi)
        assert np.all(p.ground_truth <= np.pi)
