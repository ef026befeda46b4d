import json
from pathlib import Path

import numpy as np
import pytest

from cidgik.cli import main
from cidgik.generator import generate
from cidgik.problemio import load_problem, save_generated, save_problem
from cidgik.robots import arm_6dof, planar_two_link
from cidgik import Goal, Sphere, WorkspaceSpec, parse_sdpa


@pytest.fixture()
def toy_problem_file(tmp_path):
    robot = planar_two_link()
    goal = Goal(end_effector=0, position=np.array([1.0, 1.0]))
    ws = WorkspaceSpec(spheres=[Sphere(center=np.array([1.0, 0.0]), radius=0.5)])
    path = tmp_path / "toy.json"
    save_problem(path, robot, [goal], ws)
    return path


def test_solve_command_toy(toy_problem_file, tmp_path, capsys):
    out = tmp_path / "solution.json"
    code = main(["solve", str(toy_problem_file), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "converged"
    assert payload["verified"] is True
    theta = payload["theta"]
    # theta must reproduce the elbow-up solution x = (0, 1)
    robot = planar_two_link()
    from cidgik import forward_kinematics

    poses, frames = forward_kinematics(robot, theta)
    np.testing.assert_allclose(poses[0].position, [1.0, 1.0], atol=1e-6)
    np.testing.assert_allclose(frames.origins[1][:2], [0.0, 1.0], atol=1e-4)


def test_solve_command_unreachable(tmp_path):
    robot = planar_two_link()
    goal = Goal(end_effector=0, position=np.array([5.0, 0.0]))
    path = tmp_path / "far.json"
    save_problem(path, robot, [goal])
    code = main(["solve", str(path), "--solver-iters", "6000"])
    assert code in (1, 2)


def test_solve_command_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["solve", str(path)]) == 3
    assert main(["solve", str(tmp_path / "missing.json")]) == 3


@pytest.mark.parametrize(
    "flags",
    [
        ["--solver-iters", "0"],
        ["--eps", "0"],
        ["--eps", "nan"],
        ["--max-iter", "0"],
        ["--h-tol", "0"],
    ],
)
def test_solve_bad_numeric_flag(toy_problem_file, flags, monkeypatch, capsys):
    monkeypatch.setattr("cidgik.cli.cidgik_solve", None)  # must not be reached
    assert main(["solve", str(toy_problem_file), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "0", "--solver-iters", "6000"],
        ["--n", "2", "--solver-iters", "0"],
        ["--n", "2", "--max-iter", "0"],
    ],
)
def test_bench_bad_numeric_flag(flags, monkeypatch, capsys):
    monkeypatch.setattr("cidgik.cli.run_benchmark", None)  # must not be reached
    robot_path = Path(__file__).parent.parent / "robots" / "arm_6dof.json"
    argv = ["bench", "--robot", str(robot_path), "--env", "free", "--seed", "3", *flags]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_solve_export_only(toy_problem_file, tmp_path):
    out = tmp_path / "toy.dat-s"
    code = main(
        ["solve", str(toy_problem_file), "--solver", "export-only", "--out", str(out)]
    )
    assert code == 0
    instance, _ = parse_sdpa(out.read_text())
    assert instance.side == 3
    assert instance.num_inequalities == 1


def test_gen_and_solve_round_trip(tmp_path):
    robot_path = Path(__file__).parent.parent / "robots" / "arm_6dof.json"
    out = tmp_path / "gen.json"
    code = main(
        ["gen", "--robot", str(robot_path), "--env", "free", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    sidecar = out.with_suffix(".truth.json")
    truth = json.loads(sidecar.read_text())
    assert truth["seed"] == 5
    qcqp = load_problem(out)
    assert qcqp.robot.num_joints == 6
    code = main(["solve", str(out), "--solver-iters", "6000", "--out", str(tmp_path / "s.json")])
    assert code == 0


def test_gen_matches_library_generate(tmp_path):
    robot = arm_6dof()
    problem = generate(robot, "octahedron", seed=12)
    path = tmp_path / "p.json"
    save_generated(path, problem)
    qcqp = load_problem(path)
    assert qcqp.constraint_counts() == problem.qcqp.constraint_counts()
    assert len(qcqp.spheres) == 6


def test_export_sdpa_command(toy_problem_file, tmp_path):
    out = tmp_path / "exported.dat-s"
    code = main(["export-sdpa", str(toy_problem_file), "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("* rank target = 2")


def test_bench_command(tmp_path, capsys):
    robot_path = Path(__file__).parent.parent / "robots" / "arm_6dof.json"
    out = tmp_path / "report.json"
    code = main(
        [
            "bench",
            "--robot",
            str(robot_path),
            "--env",
            "free",
            "--n",
            "2",
            "--seed",
            "3",
            "--solver-iters",
            "6000",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["aggregate"]["trials"] == 2
    printed = capsys.readouterr().out
    assert "Jeffreys" in printed


def test_log_env_var(toy_problem_file, monkeypatch, tmp_path):
    monkeypatch.setenv("CIDGIK_LOG", "debug")
    code = main(["solve", str(toy_problem_file), "--out", str(tmp_path / "o.json")])
    assert code == 0


def test_bench_command_csv(tmp_path):
    robot_path = Path(__file__).parent.parent / "robots" / "arm_6dof.json"
    out = tmp_path / "report.csv"
    code = main(
        [
            "bench",
            "--robot",
            str(robot_path),
            "--env",
            "free",
            "--n",
            "2",
            "--seed",
            "3",
            "--solver-iters",
            "6000",
            "--csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text().startswith("seed,status")
