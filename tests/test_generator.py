import numpy as np
import pytest

from cidgik import GenerationError, config_in_collision, evaluate, generate, lift, lift_points
from cidgik.graph import feasible_points
from cidgik.problemio import dumps_problem
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
        assert not config_in_collision(chain_6dof, p.ground_truth, p.qcqp.spheres)


def test_angles_in_half_open_interval(chain_6dof):
    for seed in range(20):
        p = generate(chain_6dof, "free", seed)
        assert np.all(p.ground_truth > -np.pi)
        assert np.all(p.ground_truth <= np.pi)
