"""convergesim: a discrete-event model of an HPC workload manager
co-hosting user-space Kubernetes inside its allocations.

Subsystems: `simkernel` (event loop, RNG streams), `resgraph` (nodes and
nested allocations), `hiersched` (scheduler instances and comparator
architectures), `netmodel` (calibrated network curves), `workloads`
(walltime and benchmark replay, and the network path of each
environment), `mlcore`/`mlserve` (streaming regressors and their service
protocol), `orchestrator`/`reporting` (scenario drivers and
deterministic report emission).
"""

__version__ = "0.1.0"

from .simkernel import Engine
from .resgraph import ClusterSpec, ResourceRequest, build_cluster
from .orchestrator import ScenarioConfig, default_config, run_scenario
from .reporting import ReportBundle, emit_report

__all__ = [
    "Engine",
    "ClusterSpec",
    "ResourceRequest",
    "build_cluster",
    "ScenarioConfig",
    "default_config",
    "run_scenario",
    "ReportBundle",
    "emit_report",
    "__version__",
]
