import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cidgik.cli
from cidgik.cli import main
from cidgik.generator import generate
from cidgik.problemio import load_problem, save_generated, save_problem
from cidgik.robots import arm_6dof, planar_two_link
from cidgik import CidgikOptions, Goal, SolverSettings, Sphere, WorkspaceSpec, parse_sdpa


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
        pytest.param(["--solver-iters", "0"], id="flags0"),
        pytest.param(["--max-iter", "0"], id="flags3"),
    ],
)
def test_solve_bad_numeric_flag(toy_problem_file, flags, monkeypatch, capsys):
    monkeypatch.setattr("cidgik.cli.cidgik_solve", None)  # must not be reached
    assert main(["solve", str(toy_problem_file), *flags]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["solve", "p.json", "--max-iter", "abc"], id="malformed-value"),
        pytest.param(["solve", "p.json", "--eps", "1e-7"], id="unknown-flag"),
        pytest.param(["bench", "--env", "free", "--n", "2", "--seed", "3"], id="missing-flag"),
        pytest.param(["frobnicate"], id="unknown-subcommand"),
    ],
)
def test_rejected_command_line_exits_3(argv, capsys):
    """argparse's own exit code 2 is `solve`'s code for infeasible."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 3
    captured = capsys.readouterr()
    assert any(line.startswith("error: ") for line in captured.err.splitlines())
    assert captured.out == ""


def test_documented_flags_exist(capsys):
    """Every --flag in README's CLI section and in the cli docstring is offered
    by some subcommand's --help, which exits 0."""
    flag = re.compile(r"--[a-z][a-z-]*")
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(flag.findall(section + cidgik.cli.__doc__))
    offered = set()
    for command in ("solve", "bench", "gen", "export-sdpa"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        offered |= set(flag.findall(capsys.readouterr().out))
    assert "--out" in documented
    assert documented <= offered, sorted(documented - offered)


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "0", "--solver-iters", "6000"],
        ["--n", "2", "--solver-iters", "0"],
        ["--n", "2", "--max-iter", "0"],
        ["--n", "2", "--jobs", "0"],
        ["--n", "2", "--jobs", "-1"],
        ["--n", "2", "--table-obstacles", "-3"],
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


@pytest.mark.parametrize("seed,n", [("-1", "2"), (str(2**128 - 2), "3")])
def test_bench_seed_out_of_range_exits_3(seed, n, monkeypatch, capsys):
    """--seed -1 used to end in numpy's Philox traceback with exit 1."""
    monkeypatch.setattr("cidgik.cli.run_benchmark", None)  # must not be reached
    robot_path = Path(__file__).parent.parent / "robots" / "arm_6dof.json"
    argv = ["bench", "--robot", str(robot_path), "--env", "free", "--seed", seed, "--n", n]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: seed must be an integer")
    assert captured.out == ""


def test_bench_jobs_above_the_cpu_count_exits_3(monkeypatch, capsys):
    """--jobs 5000 used to fork 5000 workers for a two-instance campaign."""
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr("cidgik.cli.run_benchmark", None)  # must not be reached
    robot_path = Path(__file__).parent.parent / "robots" / "arm_6dof.json"
    argv = ["bench", "--robot", str(robot_path), "--env", "free", "--seed", "3", "--n", "2",
            "--jobs", "5000"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: jobs must be at most the 2 CPUs")
    assert captured.out == ""


ARM_JSON = Path(__file__).parent.parent / "robots" / "arm_6dof.json"


def _arm_problem() -> dict:
    """A valid problem document: one pose goal at ee 0, a sphere, a plane, an eps."""
    return {
        "robot": str(ARM_JSON),
        "goals": [{"ee": 0, "position": [0.3, 0.2, 0.4], "direction": [0.0, 0.0, 1.0]}],
        "obstacles": [{"center": [2.0, 2.0, 2.0], "radius": 0.3, "sense": "keep_out"}],
        "planes": [{"vertex": 0, "normal": [0.0, 0.0, 1.0], "offset": -5.0, "relation": "above"}],
        "self_collision_eps": 0.01,
    }


def _without_position(doc):
    del doc["goals"][0]["position"]


def _set(*path_and_value):
    *path, key, value = path_and_value

    def mutate(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return mutate


def _inline_robot(doc):
    """Replace the robot path by its document, so robot fields can be mutated."""
    doc["robot"] = json.loads(ARM_JSON.read_text())


def _robot_set(*path_and_value):
    def mutate(doc):
        _inline_robot(doc)
        _set("robot", *path_and_value)(doc)

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _without_position,
        _set("goals", [3]),
        _set("goals", 0, "position", [float("nan"), 0.2, 0.4]),
        _set("obstacles", 0, "center", [float("inf"), 2.0, 2.0]),
        _set("obstacles", 0, "radius", float("nan")),
        _robot_set("joints", [3]),
        _robot_set("end_effectors", [3]),
        _robot_set("joints", 1, "parent", ["j1"]),
        _robot_set("end_effectors", 0, "parent", ["j6"]),
        _robot_set("dimension", 3.0),
    ],
    ids=[
        "goal-without-position", "goal-not-object", "nan-goal", "inf-obstacle", "nan-radius",
        "joint-not-object", "ee-not-object", "joint-parent-list", "ee-parent-list",
        "float-dimension",
    ],
)
def test_solve_bad_problem_exits_3(mutate, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("cidgik.cli.cidgik_solve", None)  # must not be reached
    doc = _arm_problem()
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as Python's json writes them
    assert main(["solve", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(-3.0, 3.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=3),
    st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([float("nan"), "x"])), max_size=4),
    st.just({}),
)
_FIELDS = [
    ("goals",), ("goals", 0), ("goals", 0, "ee"), ("goals", 0, "position"),
    ("goals", 0, "position", 1), ("goals", 0, "direction"), ("obstacles",),
    ("obstacles", 0), ("obstacles", 0, "center"), ("obstacles", 0, "center", 0),
    ("obstacles", 0, "radius"), ("obstacles", 0, "sense"), ("planes", 0, "vertex"),
    ("planes", 0, "normal"), ("planes", 0, "offset"), ("planes", 0, "relation"),
    ("self_collision_eps",),
    # fields of the inline robot document
    ("robot", "dimension"), ("robot", "joints"), ("robot", "joints", 0),
    ("robot", "joints", 1, "name"), ("robot", "joints", 1, "parent"),
    ("robot", "joints", 1, "translation"), ("robot", "joints", 1, "translation", 2),
    ("robot", "joints", 1, "rotation_rpy"), ("robot", "joints", 1, "axis"),
    ("robot", "end_effectors"), ("robot", "end_effectors", 0),
    ("robot", "end_effectors", 0, "parent"), ("robot", "end_effectors", 0, "tip"),
]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(field=st.sampled_from(_FIELDS), value=st.one_of(st.just(...), _JSON_VALUES))
def test_solve_mutated_problem_never_raises(tmp_path_factory, field, value):
    """Any one field replaced (or deleted, for ...) gives an exit code, not a traceback."""
    doc = _arm_problem()
    if field[0] == "robot":
        _inline_robot(doc)
    target = doc
    for step in field[:-1]:
        target = target[step]
    if value is ...:
        del target[field[-1]]
    else:
        target[field[-1]] = value
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "p.json"
    path.write_text(json.dumps(doc))
    argv = ["solve", str(path), "--max-iter", "1", "--solver-iters", "1", "--out", str(directory / "s.json")]
    assert main(argv) in (0, 1, 2, 3)


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


def test_gen_negative_table_obstacles_exits_3(tmp_path, capsys):
    robot_path = Path(__file__).parent.parent / "robots" / "arm_6dof.json"
    out = tmp_path / "gen.json"
    argv = ["gen", "--robot", str(robot_path), "--env", "table", "--seed", "5", "--out", str(out)]
    assert main([*argv, "--table-obstacles", "-3"]) == 3
    assert capsys.readouterr().err.startswith("error: table_obstacles")
    assert not out.exists()


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
    instance, _ = parse_sdpa(out.read_text())
    assert instance.side == 3
    assert instance.num_inequalities == 1


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


@pytest.mark.parametrize(
    "command, unreached",
    [
        (["solve", "{problem}"], "cidgik_solve"),
        (["gen", "--robot", str(ARM_JSON), "--env", "free", "--seed", "5"], "generate"),
        (["export-sdpa", "{problem}"], "lift"),
        (["bench", "--robot", str(ARM_JSON), "--env", "free", "--n", "2", "--seed", "3"],
         "run_benchmark"),
    ],
    ids=["solve", "gen", "export-sdpa", "bench"],
)
def test_unwritable_out_exits_3_before_any_work(
    command, unreached, toy_problem_file, tmp_path, monkeypatch, capsys
):
    """An --out in a missing directory used to end in a FileNotFoundError traceback."""
    monkeypatch.setattr(f"cidgik.cli.{unreached}", None)  # must not be reached
    missing = tmp_path / "missing"
    argv = [arg.format(problem=toy_problem_file) for arg in command]
    assert main([*argv, "--out", str(missing / "x")]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert not missing.exists()


def test_out_that_is_a_directory_exits_3(toy_problem_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("cidgik.cli.cidgik_solve", None)  # must not be reached
    assert main(["solve", str(toy_problem_file), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_failed_write_after_the_solve_exits_3(toy_problem_file, capsys):
    """A write that fails past the directory check is an input error too, not exit 1."""
    assert main(["solve", str(toy_problem_file), "--out", "/dev/full"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


SOLVER_FLAG_COMMANDS = [
    ["solve", "problem.json"],
    ["bench", "--robot", "robot.json", "--env", "free", "--n", "1", "--seed", "0"],
]


@pytest.mark.parametrize("command", SOLVER_FLAG_COMMANDS, ids=["solve", "bench"])
def test_solver_flag_defaults_are_the_option_defaults(command, monkeypatch):
    """--max-iter and --solver-iters read CidgikOptions' and SolverSettings' defaults, not copies."""
    args = cidgik.cli.build_parser().parse_args(command)
    assert cidgik.cli._options(args) == CidgikOptions()
    monkeypatch.setattr(CidgikOptions, "max_iterations", 7)
    monkeypatch.setattr(SolverSettings, "max_iters", 123)
    args = cidgik.cli.build_parser().parse_args(command)
    assert (args.max_iter, args.solver_iters) == (7, 123)
