"""repro — exact and fast throughput evaluation of Cyclo-Static Dataflow.

A full reproduction of *"Optimal and fast throughput evaluation of CSDF"*
(Bodin, Munier-Kordon, Dupont de Dinechin — DAC 2016): the **K-Iter**
algorithm with every substrate it needs, the baselines it is compared
against, and the benchmark harness regenerating the paper's tables.

Quickstart
----------
>>> from repro import sdf, throughput_kiter
>>> g = sdf({"A": 1, "B": 2},
...         [("A", "B", 2, 3, 0), ("B", "A", 3, 2, 6)])
>>> throughput_kiter(g).period is not None
True

See ``README.md`` for the repository map and ``ARCHITECTURE.md`` for the
architecture overview.
"""

from repro.analysis import (
    build_constraint_graph,
    is_consistent,
    is_live,
    repetition_vector,
    repetition_vector_sum,
)
from repro.baselines import (
    throughput_expansion,
    throughput_periodic,
    throughput_symbolic,
)
from repro.buffers import (
    bound_all_buffers,
    bound_buffer,
    throughput_storage_curve,
)
from repro.exceptions import (
    BudgetExceededError,
    DeadlockError,
    InconsistentGraphError,
    ModelError,
    ReproError,
    SolverError,
)
from repro.kperiodic import (
    KIterResult,
    KPeriodicResult,
    KPeriodicSchedule,
    expand_graph,
    min_period_for_k,
    throughput_kiter,
)
from repro.model import (
    Buffer,
    CsdfGraph,
    GraphBuilder,
    Task,
    build_graph,
    csdf,
    hsdf,
    sdf,
)
from repro.scheduling import asap_schedule, render_gantt
from repro.service import (
    JobOutcome,
    ResultCache,
    SolverPool,
    ThroughputJob,
    ThroughputService,
    graph_digest,
)

__version__ = "1.0.0"

__all__ = [
    # model
    "Buffer",
    "CsdfGraph",
    "GraphBuilder",
    "Task",
    "build_graph",
    "csdf",
    "hsdf",
    "sdf",
    # analysis
    "build_constraint_graph",
    "is_consistent",
    "is_live",
    "repetition_vector",
    "repetition_vector_sum",
    # core algorithm
    "KIterResult",
    "KPeriodicResult",
    "KPeriodicSchedule",
    "expand_graph",
    "min_period_for_k",
    "throughput_kiter",
    # baselines
    "throughput_expansion",
    "throughput_periodic",
    "throughput_symbolic",
    # buffers
    "bound_all_buffers",
    "bound_buffer",
    "throughput_storage_curve",
    # scheduling
    "asap_schedule",
    "render_gantt",
    # service layer
    "JobOutcome",
    "ResultCache",
    "SolverPool",
    "ThroughputJob",
    "ThroughputService",
    "graph_digest",
    # errors
    "BudgetExceededError",
    "DeadlockError",
    "InconsistentGraphError",
    "ModelError",
    "ReproError",
    "SolverError",
    "__version__",
]
