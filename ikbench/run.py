"""End-to-end benchmark of cidgik on the bundled 6-DOF arm.

    python3 ikbench/run.py --workload arm-octahedron --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The run sets up (import, robot, the run's instances,
warm-up) three times, then solves whole rounds of instances, about
``--seconds`` of them at reference speed, checking each result with
``checker.py``.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics from recorded spans
with ``--trace 1``.  See README.md.
"""

import time

T_START = time.process_time()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: the solver's matrices are small.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Write no bytecode into the checkout (see `import_from_source` for reading).
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ROBOT_JSON = ROOT / "robots" / "arm_6dof.json"
OUT = HERE / "out"

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # instances above the tail; a quarter of a run under 40
# All threads' CPU time over wall time of the measured solves.  One thread
# doing all the work reads just under 1; outside this band the CPU clock
# misses work done elsewhere (other threads count, other processes do not)
# or time spent waiting, and the run's figures are not comparable.
CPU_WALL_BAND = (0.85, 1.15)

# Reference kernel, no cidgik code: 10 rounds of the dense steps (a 13x13
# eigh, the PSD rebuild, a 295 x 341 matvec: the arm's lifted side and the
# table's constraint operator), then 20 rounds of small-vector bookkeeping
# like the solver's residual checks.  The mix tracks the solver's slowdown
# on a busy machine better than either half alone.  KERNEL_NOMINAL_S is its
# median on the machine the README figures come from.
KERNEL_NOMINAL_S = 0.00104
SAMPLE_EVERY_S = 0.02  # wall seconds between kernel samples
MAX_ITERS = 8000  # per solver pass, as in scripts/run_benchmark.py


@dataclass(frozen=True)
class Workload:
    """A mix of instances, drawn per seed from keys screened with screen.py.

    Keys 0 .. screened-1 were each solved once (screen.py).  Those that
    failed, or took three or more convex-iteration passes, are excluded; the
    rest split into instances closed after one pass and after two.  Every
    round takes `per_round` = (one-pass, two-pass) instances, so each run
    holds the same mix whatever its seed.
    """

    environment: str  # cidgik environment preset, or "unreachable"
    table_obstacles: int
    screened: int
    excluded: tuple[int, ...]
    two_pass: tuple[int, ...]
    per_round: tuple[int, int]
    round_s: float  # one round at reference speed
    min_rounds: int  # enough rounds for 40 instances (a tail beyond the quartile), where reachable

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds / self.round_s))

    def keys(self, seed: int, rounds: int, np) -> list[int]:
        """Instance keys of a run: per round, fresh keys of each kind in seeded order."""
        rng = np.random.Generator(np.random.Philox(key=seed))
        two = set(self.two_pass)
        kinds = [
            rng.permutation([k for k in range(self.screened) if k not in two and k not in self.excluded]),
            rng.permutation(sorted(two)),
        ]
        out = []
        for r in range(rounds):
            batch = [
                int(kind[(r * count + i) % len(kind)])
                for kind, count in zip(kinds, self.per_round)
                for i in range(count)
            ]
            out += [batch[i] for i in rng.permutation(len(batch))]
        return out


WORKLOADS = {
    "arm-octahedron": Workload(
        "octahedron", 0, 160, (56,), (13, 20, 26, 96, 97, 131, 154), (20, 1), 17.0, 2
    ),
    "arm-table": Workload(
        "table", 25, 80,
        (4, 20, 21, 29, 36, 43, 46, 55, 63, 65, 71, 72, 74, 76),
        (11, 22, 23, 26, 39, 64, 67, 69, 73, 79), (6, 1), 15.0, 1,
    ),
    "arm-unreachable": Workload(
        "unreachable", 0, 160, (), (22, 53, 79, 104, 119), (23, 1), 13.5, 2
    ),
}

END_TO_END = {
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(eq=False)
class Instance:
    key: int
    qcqp: object
    goals: list  # (end effector, position, direction) for the checker
    spheres: list  # keep-out (center, radius)
    planes: list  # (normal, offset) of n.x >= offset


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build_instance(workload: Workload, robot, key: int, np, ck) -> Instance:
    """Instance `key` of a workload: a generated feasible one, or a far goal."""
    if workload.environment == "unreachable":
        rng = np.random.Generator(np.random.Philox(key=key))
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        goal = ck.Goal(end_effector=0, position=1.5 * robot.reach * direction, direction=direction)
        workspace = ck.WorkspaceSpec()
        qcqp = ck.assemble_qcqp(robot, [goal], workspace)
    else:
        workspace = ck.environment(
            workload.environment, robot, table_obstacles=workload.table_obstacles
        )
        qcqp = ck.generate(
            robot, workload.environment, key, table_obstacles=workload.table_obstacles
        ).qcqp
    planes = []
    for vertex, plane in workspace.planes:
        if vertex is not None or plane.relation != "above":
            raise ValueError("the checker takes half-space planes on every point")
        planes.append((plane.normal, plane.offset))
    return Instance(
        key=key,
        qcqp=qcqp,
        goals=[(g.end_effector, g.position, g.direction) for g in qcqp.goals],
        spheres=[(s.center, s.radius) for s in workspace.spheres if s.sense == "keep_out"],
        planes=planes,
    )


class SpeedMeter:
    """Measures CPU time of some work at reference speed.

    The machine's speed drifts in bursts of a tenth of a second, so one
    kernel timing before an instance does not tell how fast the instance
    ran.  Inside `measure()` a SIGALRM timer times the reference kernel
    every SAMPLE_EVERY_S of wall time; each sample scales the CPU
    interval around it, and the kernel's own time is taken out of the work.
    """

    def __init__(self, np):
        rng = np.random.Generator(np.random.Philox(key=0x5EED))
        B = rng.standard_normal((13, 13))
        self.M = B + B.T
        self.G = rng.standard_normal((295, 341))
        self.w = rng.standard_normal(341)
        self.H = rng.standard_normal((95, 141))
        self.u = rng.standard_normal(141)
        self.v = rng.standard_normal(141)
        self.np = np
        self.samples: list[float] = []
        self.spent = 0.0  # CPU seconds of every sample so far
        self._busy = False

    def work_clock(self) -> float:
        """CPU seconds of the process, all threads, leaving out the kernel samples."""
        return time.process_time() - self.spent

    def kernel_s(self) -> float:
        np, M, G, w, H, u, v = self.np, self.M, self.G, self.w, self.H, self.u, self.v
        t0 = time.process_time()
        acc = 0.0
        for _ in range(10):
            lam, V = np.linalg.eigh(M)
            P = (V * np.maximum(lam, 0.0)) @ V.T
            acc += float(P[0, 0]) + float((G @ w)[0])
        for _ in range(20):
            acc += float(np.max(np.abs(u - v))) + float(np.linalg.norm(np.maximum(u, 0.0) - v))
            acc += float(np.max(np.abs((H @ u) * 1.5))) + float((0.5 * u + v)[0])
        elapsed = time.process_time() - t0
        if not np.isfinite(acc):
            raise RuntimeError("reference kernel produced a non-finite value")
        return elapsed

    def _sample(self, signum=None, frame=None):
        if not self._busy:
            self._busy = True
            try:
                self.samples.append(self.kernel_s())
                self.spent += self.samples[-1]
            finally:
                self._busy = False

    @contextmanager
    def measure(self):
        """Yields a dict that gets cpu_s, kernel_s, samples, sampled_s and solve_s (reference s)."""
        self.samples = []
        out = {}
        previous = signal.signal(signal.SIGALRM, self._sample)
        cpu0 = self.work_clock()
        # A wall-clock timer: while a CPU-time timer (ITIMER_PROF) is armed,
        # Linux reads the process CPU clock only to the scheduler tick (4 ms).
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            cpu_s = self.work_clock() - cpu0
            signal.signal(signal.SIGALRM, previous)
            if not self.samples:
                self._sample()
            speed = statistics.mean(KERNEL_NOMINAL_S / k for k in self.samples)
            out.update(cpu_s=cpu_s, kernel_s=median(self.samples), samples=len(self.samples),
                       sampled_s=sum(self.samples), solve_s=cpu_s * speed)


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> float:
    """Highest order statistic with TAIL_BEYOND values above it, or a quarter of them if fewer."""
    beyond = min(TAIL_BEYOND, len(values) // 4)
    return float(sorted(values)[len(values) - beyond - 1])


class SourceOnlyLoader(importlib.machinery.SourceFileLoader):
    """Compiles a module from its source, never from cached bytecode."""

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        return self.source_to_code(self.get_data(path), path)


def import_from_source(*roots: Path) -> None:
    """Load every module under `roots` with SourceOnlyLoader.

    Set-up time then includes compiling the program and the benchmark's own
    modules, whether or not an earlier test run left `__pycache__` behind.
    Third-party packages still load from their installed bytecode.
    """
    for root in roots:
        for directory in (root, *(p for p in root.rglob("*") if p.is_dir())):
            sys.path_importer_cache[str(directory)] = importlib.machinery.FileFinder(
                str(directory), (SourceOnlyLoader, importlib.machinery.SOURCE_SUFFIXES)
            )


def check(workload, instance, result, rc, checker, lift) -> tuple[bool, str]:
    """(solved, reason); raises checker.CheckError for a wrong claimed result."""
    if workload.environment == "unreachable":
        checker.check_unreachable(rc, instance.goals)
        if result.status == "converged":
            raise checker.CheckError("an unreachable goal was reported converged")
        if result.status != "infeasible" or result.certificate is None:
            return False, f"ended {result.status} without a certificate"
        sdp = lift(instance.qcqp)
        checker.check_certificate(
            result.certificate.y, result.certificate.mu,
            sdp.eq_mats, sdp.eq_rhs, sdp.ineq_mats, sdp.ineq_rhs,
        )
        return True, "certified infeasible"
    if result.status == "infeasible":
        raise checker.CheckError("a generated feasible instance was reported infeasible")
    if result.status != "converged" or result.theta is None:
        return False, f"ended {result.status}"
    checker.check_configuration(rc, result.theta, instance.goals, instance.spheres, instance.planes)
    return True, "converged"


def layer_metrics(spans, rows, generate_s, h_tol) -> dict:
    """Per-layer figures from the spans of the measured instances."""
    factor = {r["key"]: r["factor"] for r in rows}
    n = len(rows)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        if s["instance"] in factor:
            by_name.setdefault(s["name"], []).append(s)

    def total_s(name):
        return sum((s["end"] - s["start"]) * factor[s["instance"]] for s in by_name.get(name, []))

    solves = by_name.get("solve", [])
    iters = sum(s["iters"] for s in solves)
    refines = by_name.get("refine_configuration", [])
    roots = {i for i, s in enumerate(spans) if s["name"] == "cidgik_solve" and s["instance"] in factor}
    child_s = sum(
        (s["end"] - s["start"]) * factor[s["instance"]] for s in spans if s["parent"] in roots
    )
    converged = [r for r in rows if r["status"] == "converged"]
    by_sdp = sum(r["last_pass"] == "optimal" and r["h"] < h_tol for r in converged)
    return {
        "solver.admm_iters": (iters / n, "count"),
        "solver.passes": (len(solves) / n, "count"),
        "solver.us_per_iter": (1e6 * total_s("solve") / iters if iters else 0.0, "us"),
        "solver.solve_s": (total_s("solve") / n, "s"),
        "solver.optimal_share": (
            sum(s["status"] == "optimal" for s in solves) / len(solves) if solves else 0.0,
            "share",
        ),
        "solver.certified": (len({s["instance"] for s in solves if s["certified"]}) / n, "share"),
        "iteration.passes": (sum(r["passes"] for r in rows) / n, "count"),
        "iteration.direction_s": (total_s("direction_matrix") / n, "s"),
        "iteration.excess_rank_s": (total_s("excess_rank") / n, "s"),
        "iteration.refine_s": (total_s("refine_configuration") / n, "s"),
        "iteration.refine_calls": (len(refines) / n, "count"),
        "iteration.refine_accepted_share": (
            sum(s["accepted"] for s in refines) / len(refines) if refines else 0.0,
            "share",
        ),
        "iteration.closed_by_sdp": (by_sdp / n, "share"),
        "iteration.closed_by_refined": ((len(converged) - by_sdp) / n, "share"),
        "iteration.verify_s": (total_s("verify_solution") / n, "s"),
        "iteration.self_s": ((total_s("cidgik_solve") - child_s) / n, "s"),
        "lifting.lift_s": (total_s("lift") / n, "s"),
        "lifting.rows": (sum(s["rows"] for s in by_name.get("lift", [])) / n, "count"),
        "kinematics.reconstruct_s": (total_s("reconstruct_angles") / n, "s"),
        "generator.generate_s": (generate_s, "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "cidgik" / "__init__.py").is_file() or not ROBOT_JSON.is_file():
        print(f"error: run from a cidgik checkout; {SRC / 'cidgik'} or {ROBOT_JSON} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import_from_source(SRC, HERE)
    import numpy as np

    # numpy's import is scaled by the speed measured while the rest imports.
    meter = SpeedMeter(np)
    numpy_s = time.process_time() - T_START
    with meter.measure() as imports:
        import cidgik as ck
        import cidgik.iteration
        from cidgik.lifting import lift

        import checker
        from tracing import Tracer
    import_s = numpy_s * imports["solve_s"] / imports["cpu_s"] + imports["solve_s"]

    if Path(ck.__file__).resolve().parent != SRC / "cidgik":
        print(f"error: imported cidgik from {ck.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    cached = [name for name, module in sys.modules.items()
              if name.split(".")[0] in ("cidgik", "checker", "tracing")
              and not isinstance(module.__spec__.loader, SourceOnlyLoader)]
    if cached:
        print(f"error: not compiled from source: {cached}", file=sys.stderr)
        return 2

    options = ck.CidgikOptions(solver=ck.SolverSettings(max_iters=MAX_ITERS))
    warmup = ck.CidgikOptions(
        max_iterations=2, first_solve_budget=50, solver=ck.SolverSettings(max_iters=50)
    )
    tracer = Tracer(meter.work_clock) if args.trace else None
    if tracer is not None:
        tracer.install(cidgik.iteration)

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    robot_text = ROBOT_JSON.read_text()
    keys = workload.keys(args.seed, workload.rounds(args.seconds), np)
    setup_s, generate_s = [], []
    for rep in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.instance = f"setup-{rep}"
        with meter.measure() as setup:
            robot = ck.load_robot(robot_text)
            rc = checker.RobotChecker(json.loads(robot_text))
            instances = []
            for key in keys:
                with span("generate"):
                    instances.append(build_instance(workload, robot, key, np, ck))
            ck.cidgik_solve(instances[0].qcqp, warmup)
        setup_s.append(setup["solve_s"])
        if tracer is not None:
            generate_cpu = sum(s["end"] - s["start"] for s in tracer.spans
                               if s["instance"] == tracer.instance and s["name"] == "generate")
            generate_s.append(generate_cpu * setup["solve_s"] / setup["cpu_s"] / len(instances))

    rows = []
    correct = True
    for instance in instances:
        row = {"key": instance.key}
        if tracer is not None:
            tracer.instance = instance.key
        wall0 = time.perf_counter()
        try:
            with meter.measure() as timing, span("cidgik_solve"):
                result = ck.cidgik_solve(instance.qcqp, options)
            row.update(timing, wall_s=time.perf_counter() - wall0)
            row.update(status=result.status, passes=result.iterations,
                       last_pass=result.trace.records[-1].solver_status,
                       h=float("nan") if result.h is None else result.h)
            row["ok"], row["reason"] = check(workload, instance, result, rc, checker, lift)
        except checker.CheckError as e:
            correct = False
            row.update(ok=False, reason=f"wrong result: {e}")
        except Exception as e:  # any other error is one failed operation
            row.update(timing, ok=False, reason=f"{type(e).__name__}: {e}")
        row.setdefault("wall_s", time.perf_counter() - wall0)
        row.setdefault("status", "error")
        row.setdefault("passes", 0)
        row["factor"] = row["solve_s"] / row["cpu_s"]
        rows.append(row)

    solve_s = [r["solve_s"] for r in rows]
    wall_s = [r["wall_s"] for r in rows]
    cpu_s = [r["cpu_s"] for r in rows]
    kernel_s = [r["kernel_s"] for r in rows]
    solved = sum(r["ok"] for r in rows)
    failures = [r for r in rows if not r["ok"]]
    cpu_wall = sum(r["cpu_s"] + r["sampled_s"] for r in rows) / sum(wall_s)
    if not CPU_WALL_BAND[0] <= cpu_wall <= CPU_WALL_BAND[1]:
        correct = False
        print(f"warning: CPU / wall time of the solves is {cpu_wall:.3f}, outside "
              f"{CPU_WALL_BAND}: the figures miss work or waiting; correct is false")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rows)} instances, {solved} checked correct")
    print(f"raw solve s: wall p50 {median(wall_s):.4f} tail {tail(wall_s):.4f}, "
          f"cpu p50 {median(cpu_s):.4f} tail {tail(cpu_s):.4f}; "
          f"kernel s: median {median(kernel_s):.6f} (nominal {KERNEL_NOMINAL_S}), "
          f"{sum(r['samples'] for r in rows)} samples; "
          f"cpu/wall {cpu_wall:.3f}; import s {import_s:.3f}")
    for r in failures[:5]:
        print(f"failed instance {r['key']}: {r['reason']}")

    if tracer is None:
        metrics = {
            "solve_s.p50": median(solve_s),
            "solve_s.tail": tail(solve_s),
            "throughput_per_s": solved / sum(solve_s),
            "setup_s": import_s + median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()}
    else:
        print(f"traced solve_s.p50 {median(solve_s):.4f}")
        figures = layer_metrics(tracer.spans, rows, median(generate_s), options.h_tol)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "import_s": import_s, "setup_s": setup_s, "rows": rows,
              "spans": tracer.spans if tracer is not None else []}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=str)
    )
    print(json.dumps({"correct": correct, "attempted": len(rows),
                      "failed": len(rows) - solved, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
