"""Inverse kinematics for redundant revolute robots via distance geometry.

Joint-attached points turn the kinematics into exact pairwise distance
constraints; lifting them gives a semidefinite relaxation whose rank-d
feasible points are exact IK solutions, and convex iteration with a
closed-form rank-direction objective recovers those points.
"""

from .bench import BenchmarkReport, jeffreys_interval, run_benchmark
from .generator import GeneratedProblem, GenerationError, generate
from .graph import (
    DistanceGraph,
    Goal,
    GraphError,
    QcqpInstance,
    assemble_qcqp,
    build_graph,
)
from .iteration import (
    CidgikOptions,
    CidgikResult,
    IterationTrace,
    cidgik_solve,
    direction_matrix,
    excess_rank,
    verify_solution,
)
from .kinematics import (
    Joint,
    Pose,
    RobotError,
    RobotModel,
    forward_kinematics,
    joint_points,
    load_robot,
    reconstruct_angles,
)
from .lifting import (
    SdpInstance,
    build_toy_instance,
    evaluate,
    extract_points,
    lift,
    lift_points,
)
from .problemio import load_problem, save_problem
from .solver import (
    InfeasibilityCertificate,
    SolverSettings,
    SolveResult,
    export_sdpa,
    parse_sdpa,
    solve,
)
from .workspace import (
    AuxPoint,
    Plane,
    Sphere,
    WorkspaceSpec,
    add_aux_point,
    add_self_collision,
    environment,
    penetration,
)

__all__ = [
    "AuxPoint",
    "BenchmarkReport",
    "CidgikOptions",
    "CidgikResult",
    "DistanceGraph",
    "GeneratedProblem",
    "GenerationError",
    "Goal",
    "GraphError",
    "InfeasibilityCertificate",
    "IterationTrace",
    "Joint",
    "Plane",
    "Pose",
    "QcqpInstance",
    "RobotError",
    "RobotModel",
    "SdpInstance",
    "SolveResult",
    "SolverSettings",
    "Sphere",
    "WorkspaceSpec",
    "add_aux_point",
    "add_self_collision",
    "assemble_qcqp",
    "build_graph",
    "build_toy_instance",
    "cidgik_solve",
    "direction_matrix",
    "environment",
    "evaluate",
    "excess_rank",
    "export_sdpa",
    "extract_points",
    "forward_kinematics",
    "generate",
    "jeffreys_interval",
    "joint_points",
    "lift",
    "lift_points",
    "load_problem",
    "load_robot",
    "parse_sdpa",
    "penetration",
    "reconstruct_angles",
    "run_benchmark",
    "save_problem",
    "solve",
    "verify_solution",
]
