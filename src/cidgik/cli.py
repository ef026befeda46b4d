"""Command-line interface: solve single problems, run campaigns, generate, export.

Exit codes for `solve`: 0 verified success, 1 no verified configuration (the
pass cap was reached, or the refined configuration failed verify_solution),
2 infeasible, 3 input error (a bad file or an out-of-range flag).  Every
subcommand exits 3 with an `error:` line when argparse rejects the command
line (an unknown flag or subcommand, a missing or malformed value) and when
`--out` cannot be written: its directory is checked with the other inputs,
before any solve or campaign runs, and a write that fails anyway ends the
same way.  Set CIDGIK_LOG to error, info, or debug to control logging
verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .bench import check_campaign, run_benchmark
from .generator import GenerationError, generate
from .iteration import CidgikOptions, cidgik_solve
from .kinematics import RobotError, load_robot
from .lifting import lift
from .problemio import ProblemFormatError, load_problem, save_generated
from .solver import SolverSettings, export_sdpa
from .workspace import ENVIRONMENT_NAMES

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> None:
    level = os.environ.get("CIDGIK_LOG", "error").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.ERROR))


def _options(args) -> CidgikOptions:
    """Options from the solver flags; raises ValueError on an out-of-range value."""
    return CidgikOptions(
        max_iterations=args.max_iter,
        solver=SolverSettings(max_iters=args.solver_iters),
    )


def _check_out(path: str | None) -> None:
    """Raise OSError unless `path` can be created or overwritten as a file."""
    if path is None:
        return
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(f"--out {path} is a directory")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"--out directory {out.parent} does not exist")
    if not os.access(out.parent, os.W_OK):
        raise PermissionError(f"--out directory {out.parent} is not writable")


def _input_error(e: Exception) -> int:
    print(f"error: {e}", file=sys.stderr)
    return 3


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-iter", type=int, default=CidgikOptions.max_iterations, help="convex iteration cap"
    )
    parser.add_argument(
        "--solver-iters", type=int, default=SolverSettings.max_iters,
        help="SDP solver iteration cap",
    )


def cmd_solve(args) -> int:
    try:
        qcqp = load_problem(args.problem)
        options = _options(args)
        _check_out(args.out)
    except (OSError, ProblemFormatError, RobotError, ValueError) as e:
        return _input_error(e)

    result = cidgik_solve(qcqp, options)
    text = json.dumps(result.to_json_dict(), sort_keys=True, indent=2)
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            return _input_error(e)
    else:
        print(text)
    h = result.h if result.h is not None else float("nan")
    print(
        f"{result.status}: h={h:.2e} iterations={result.iterations} "
        f"verified={'yes' if result.verified else 'no'}"
    )
    if result.status == "infeasible":
        return 2
    return 0 if result.verified else 1


def cmd_bench(args) -> int:
    try:
        robot = load_robot(Path(args.robot).read_text())
        options = _options(args)
        check_campaign(
            robot, args.env, args.n, args.seed,
            jobs=args.jobs, table_obstacles=args.table_obstacles,
        )
        _check_out(args.out)
    except (OSError, RobotError, ValueError) as e:
        return _input_error(e)
    report = run_benchmark(
        robot,
        args.env,
        args.n,
        args.seed,
        options,
        jobs=args.jobs,
        table_obstacles=args.table_obstacles,
        robot_name=Path(args.robot).stem,
    )
    agg = report.aggregate()
    low, high = agg["jeffreys_95"]
    p50 = agg["p50_solve_time_s"]
    print(
        f"{args.env}: {agg['successes']}/{agg['trials']} solved "
        f"({100 * agg['success_rate']:.1f}%, 95% Jeffreys [{100 * low:.1f}, {100 * high:.1f}]%), "
        f"p50 solve {'n/a' if p50 is None else f'{p50:.2f}s'}"
    )
    if args.out:
        try:
            Path(args.out).write_text(report.to_json())
        except OSError as e:
            return _input_error(e)
        print(f"wrote {args.out}")
    return 0


def cmd_gen(args) -> int:
    try:
        robot = load_robot(Path(args.robot).read_text())
        _check_out(args.out)
        problem = generate(
            robot, args.env, args.seed, table_obstacles=args.table_obstacles
        )
        sidecar = save_generated(args.out, problem)
    except (OSError, RobotError, GenerationError, ValueError) as e:
        return _input_error(e)
    print(f"wrote {args.out} (ground truth: {sidecar})")
    return 0


def cmd_export_sdpa(args) -> int:
    try:
        qcqp = load_problem(args.problem)
        _check_out(args.out)
        Path(args.out).write_text(export_sdpa(lift(qcqp)))
    except (OSError, ProblemFormatError, RobotError, ValueError) as e:
        return _input_error(e)
    print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exit 3 on a rejected command line, since 2 is `solve`'s infeasible code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cidgik",
        description="Distance-geometric inverse kinematics via rank-driven SDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one problem file")
    p_solve.add_argument("problem", help="problem JSON path")
    _add_solver_flags(p_solve)
    p_solve.add_argument("--out", help="write the solution JSON here")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a seeded benchmark campaign")
    p_bench.add_argument("--robot", required=True, help="robot JSON path")
    p_bench.add_argument("--env", required=True, choices=ENVIRONMENT_NAMES)
    p_bench.add_argument("--n", required=True, type=int, help="instance count")
    p_bench.add_argument("--seed", required=True, type=int)
    p_bench.add_argument(
        "--jobs", type=int, default=1, help="parallel workers, at most the CPU count"
    )
    p_bench.add_argument("--out", help="report path")
    p_bench.add_argument("--table-obstacles", type=int, default=100)
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_gen = sub.add_parser("gen", help="generate one feasible problem file")
    p_gen.add_argument("--robot", required=True)
    p_gen.add_argument("--env", required=True, choices=ENVIRONMENT_NAMES)
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--table-obstacles", type=int, default=100)
    p_gen.set_defaults(func=cmd_gen)

    p_export = sub.add_parser("export-sdpa", help="export a problem as sparse SDPA")
    p_export.add_argument("problem")
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export_sdpa)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
