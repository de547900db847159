"""repro — reproduction of *Object Placement in Parallel Tape Storage
Systems* (Zhang, He, Du, Lu; ICPP 2006).

The package provides:

* :mod:`repro.placement` — the paper's **parallel batch placement** plus the
  two baselines it compares against (object-probability [11] and
  cluster-probability [20] placement);
* :mod:`repro.sim` — the multiple-tape-library discrete-event simulator and
  the response-time / effective-bandwidth metrics of Sec. 6;
* :mod:`repro.hardware` — drive/robot/library models with the paper's
  Table-1 (IBM LTO-3 / StorageTek L80) constants;
* :mod:`repro.workload` — the Sec.-6 synthetic workload generator;
* :mod:`repro.des` — the underlying SimPy-like event kernel;
* :mod:`repro.experiments` — drivers that regenerate every figure.

Quickstart::

    from repro import (
        SimulationSession, ParallelBatchPlacement, generate_workload,
    )
    from repro.hardware import SystemSpec

    workload = generate_workload(seed=1)
    session = SimulationSession(workload, SystemSpec.table1(),
                                scheme=ParallelBatchPlacement(m=4))
    result = session.evaluate(num_samples=200)
    print(f"effective bandwidth: {result.avg_bandwidth_mb_s:.0f} MB/s")
"""

from .analysis import PairedComparison, bootstrap_ci, compare_paired, metric_ci
from .catalog import LocationIndex, ObjectCatalog, Request, RequestSet, StorageObject
from .model import CostModel, RequestEstimate, SearchResult, optimize_placement
from .hardware import (
    DriveId,
    DriveSpec,
    LibrarySpec,
    ObjectExtent,
    Robot,
    SystemSpec,
    Tape,
    TapeDrive,
    TapeId,
    TapeLibrary,
    TapeSpec,
    TapeSystem,
)
from .placement import (
    ClusterProbabilityPlacement,
    ObjectProbabilityPlacement,
    ParallelBatchPlacement,
    PlacementError,
    PlacementResult,
    PlacementScheme,
    available_schemes,
    make_scheme,
    register_scheme,
)
from .sim import (
    EvaluationResult,
    OpenSystem,
    OpenSystemResult,
    RequestMetrics,
    SimulationSession,
    evaluate_scheme,
    simulate_request,
)
from .workload import (
    Workload,
    WorkloadGenerator,
    WorkloadParams,
    dump_workload,
    generate_workload,
    load_workload,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # analysis
    "bootstrap_ci",
    "metric_ci",
    "compare_paired",
    "PairedComparison",
    # model
    "CostModel",
    "RequestEstimate",
    "SearchResult",
    "optimize_placement",
    # catalog
    "StorageObject",
    "ObjectCatalog",
    "Request",
    "RequestSet",
    "LocationIndex",
    # hardware
    "TapeSpec",
    "DriveSpec",
    "LibrarySpec",
    "SystemSpec",
    "TapeId",
    "DriveId",
    "ObjectExtent",
    "Tape",
    "TapeDrive",
    "Robot",
    "TapeLibrary",
    "TapeSystem",
    # placement
    "PlacementScheme",
    "PlacementResult",
    "PlacementError",
    "ParallelBatchPlacement",
    "ObjectProbabilityPlacement",
    "ClusterProbabilityPlacement",
    "available_schemes",
    "make_scheme",
    "register_scheme",
    # sim
    "SimulationSession",
    "evaluate_scheme",
    "simulate_request",
    "OpenSystem",
    "OpenSystemResult",
    "RequestMetrics",
    "EvaluationResult",
    # workload
    "Workload",
    "WorkloadParams",
    "WorkloadGenerator",
    "generate_workload",
    "dump_workload",
    "load_workload",
]
