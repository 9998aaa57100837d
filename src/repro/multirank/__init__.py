"""Multi-rank scale-out: parallel per-rank execution and cross-rank reduction.

The seed reproduction executed a single simulated rank and synthesised
the rest analytically.  This subsystem runs one
:class:`~repro.workflow.BuiltApp` across N simulated MPI ranks for real:

* :mod:`~repro.multirank.imbalance` — rank-heterogeneous workload
  perturbation (imbalance factor, iteration ramps, straggler injection),
* :mod:`~repro.multirank.backends` — serial and ``multiprocessing``
  executors behind one interface (ranks are embarrassingly parallel),
* :mod:`~repro.multirank.scheduler` — per-rank task construction and
  collection of picklable rank artefacts,
* :mod:`~repro.multirank.reduce` — merged Score-P-style profiles
  (min/max/avg/sum per call path across ranks) and *measured* POP
  metrics with synchronisation-wait attribution,
* :mod:`~repro.multirank.tracing` — per-rank event traces merged into
  one rank-tagged timeline with logical clocks aligned at MPI
  collectives, plus trace-based wait-state and critical-path analyses,
* :mod:`~repro.multirank.dlb` — the LeWI lend/borrow policy closing the
  paper's §VI DLB loop: waiting ranks lend fractional CPU capacity to
  the bottleneck through the DLB C-API, and
  :func:`run_rebalanced` iterates run → measure → rebalance until the
  POP efficiency converges,
* :mod:`~repro.multirank.faults` — deterministic chaos injection
  (:class:`FaultSpec`: crashes, hangs, corrupt payloads, worker death)
  and the per-rank health records the
  :class:`~repro.multirank.backends.SupervisedBackend` produces while
  surviving them (deadlines, integrity checks, retries with backoff,
  pool respawn, graceful degradation via ``degraded="allow"``).

Entry points: :func:`run_multirank` / :func:`run_rebalanced`, or simply
``repro.workflow.run_app(..., ranks=N, imbalance=ImbalanceSpec(...),
dlb=DlbPolicy(...))``.
"""

from repro.multirank.backends import (
    MultiprocessingBackend,
    SerialBackend,
    SupervisedBackend,
    resolve_backend,
)
from repro.multirank.faults import (
    FaultSpec,
    HealthReport,
    RankFaultPlan,
    RankHealth,
    check_rank_result,
)
from repro.multirank.dlb import (
    DlbPolicy,
    LewiStep,
    apply_step,
    make_lewi_agents,
)
from repro.multirank.imbalance import ExplicitFactors, ImbalanceSpec
from repro.multirank.reduce import (
    MergedProfileNode,
    PopReport,
    RankStat,
    build_pop_report,
    flatten_merged,
    merge_profiles,
)
from repro.multirank.scheduler import (
    MultiRankOutcome,
    RankResult,
    RankTask,
    RebalanceIteration,
    RebalanceOutcome,
    RegionSample,
    build_tasks,
    execute_rank,
    run_multirank,
    run_rebalanced,
)
from repro.multirank.tracing import (
    SYNC_OPS,
    CriticalSegment,
    MergedTimeline,
    MergedTrace,
    SyncPoint,
    WaitInterval,
    align_stream,
    compute_alignment,
    merge_rank_traces,
    segment_windows,
    validate_tracing,
)

__all__ = [
    "CriticalSegment",
    "DlbPolicy",
    "ExplicitFactors",
    "FaultSpec",
    "HealthReport",
    "ImbalanceSpec",
    "LewiStep",
    "MergedProfileNode",
    "MergedTimeline",
    "MergedTrace",
    "MultiRankOutcome",
    "MultiprocessingBackend",
    "PopReport",
    "RankFaultPlan",
    "RankHealth",
    "RankResult",
    "RankStat",
    "RankTask",
    "RebalanceIteration",
    "RebalanceOutcome",
    "RegionSample",
    "SYNC_OPS",
    "SerialBackend",
    "SupervisedBackend",
    "SyncPoint",
    "WaitInterval",
    "align_stream",
    "apply_step",
    "build_pop_report",
    "build_tasks",
    "check_rank_result",
    "compute_alignment",
    "execute_rank",
    "flatten_merged",
    "make_lewi_agents",
    "merge_profiles",
    "merge_rank_traces",
    "resolve_backend",
    "run_multirank",
    "run_rebalanced",
    "segment_windows",
    "validate_tracing",
]
