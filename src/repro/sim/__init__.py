"""The multiple-tape-library simulator (Sec. 6) and its metrics."""

from .analytic import mounted_response, uncontended_switch_time
from .engine import RequestExecution, simulate_request
from .faults import (
    DriveFailure,
    DriveFaultProcess,
    FaultEscalation,
    FaultInjector,
    FaultSpec,
    RetryPolicy,
    RobotOutage,
    TapeFailure,
    TapeWearProcess,
    TransientFaults,
    known_drive_names,
    known_tape_names,
)
from .queueing import QueuedRequestRecord, QueueingResult, simulate_fcfs_queue
from .metrics import (
    DriveServiceRecord,
    EvaluationResult,
    RequestMetrics,
    WindowStat,
    in_flight_profile,
    sliding_window_stats,
)
from .opensystem import (
    READ_SELECTIONS,
    SCHEDULING_POLICIES,
    OpenSystem,
    OpenSystemResult,
    available_scheduling_policies,
)
from .repair import REPAIR_POLICIES, RepairManager
from .replacement import REPLACEMENT_POLICIES, available_policies, replacement_key
from .scheduling import LibraryPlan, TapeJob, build_library_plan, estimate_job_time
from .seekplanner import (
    DEFAULT_SEEK_PLANNER,
    SEEK_PLANNERS,
    ExactPlanner,
    GreedySweepPlanner,
    SeekPlanner,
    available_seek_planners,
    locate_cost,
    plan_retrieval,
    resolve_seek_planner,
    sweep_cost,
)
from .session import SimulationSession, evaluate_scheme

__all__ = [
    "simulate_request",
    "RequestExecution",
    "QueuedRequestRecord",
    "QueueingResult",
    "simulate_fcfs_queue",
    "OpenSystem",
    "OpenSystemResult",
    "SCHEDULING_POLICIES",
    "READ_SELECTIONS",
    "REPAIR_POLICIES",
    "RepairManager",
    "available_scheduling_policies",
    "FaultSpec",
    "DriveFailure",
    "DriveFaultProcess",
    "RobotOutage",
    "TapeFailure",
    "TapeWearProcess",
    "TransientFaults",
    "RetryPolicy",
    "FaultEscalation",
    "FaultInjector",
    "known_drive_names",
    "known_tape_names",
    "SimulationSession",
    "evaluate_scheme",
    "RequestMetrics",
    "DriveServiceRecord",
    "EvaluationResult",
    "WindowStat",
    "sliding_window_stats",
    "in_flight_profile",
    "TapeJob",
    "LibraryPlan",
    "build_library_plan",
    "estimate_job_time",
    "plan_retrieval",
    "sweep_cost",
    "locate_cost",
    "SeekPlanner",
    "GreedySweepPlanner",
    "ExactPlanner",
    "DEFAULT_SEEK_PLANNER",
    "SEEK_PLANNERS",
    "available_seek_planners",
    "resolve_seek_planner",
    "mounted_response",
    "REPLACEMENT_POLICIES",
    "available_policies",
    "replacement_key",
    "uncontended_switch_time",
]
