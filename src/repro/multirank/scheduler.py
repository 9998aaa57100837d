"""The rank scheduler: one BuiltApp executed across N simulated ranks.

Each rank is an independent, fully deterministic single-rank execution
(`repro.workflow.run_app`) over the *shared immutable* program, linked
image and call graph — only the rank's :class:`Workload` differs, as
perturbed by the :class:`~repro.multirank.imbalance.ImbalanceSpec`.
Ranks are therefore embarrassingly parallel; the
:mod:`~repro.multirank.backends` decide whether they run in-process or
across a process pool.

The scheduler collects one :class:`RankResult` per rank — the engine's
:class:`~repro.execution.result.RunResult` plus the rank's Score-P
profile (as a plain dict), TALP region samples and (``tracing=True``)
the rank's event-trace blocks, all picklable so the multiprocessing
backend can ship them back — and hands the list to the cross-rank
reducers for the merged profile, the POP report and the merged
rank-tagged timeline (:mod:`repro.multirank.tracing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dyncapi.runtime import process_state
from repro.errors import CapiError, DegradedResultError
from repro.execution.result import RunResult
from repro.execution.workload import Workload
from repro.multirank.faults import (
    FaultSpec,
    HealthReport,
    RankFaultPlan,
    corrupt_result,
    inject_pre_execution,
    load_rank_trace,
)
from repro.multirank.imbalance import ImbalanceSpec
from repro.multirank.reduce import (
    MergedProfileNode,
    PopReport,
    build_pop_report,
    merge_profiles,
)
from repro.multirank.tracing import MergedTrace, merge_rank_blocks
from repro.scorep.tracing import EventBlock
from repro.workflow import RunSettings


@dataclass(frozen=True)
class RegionSample:
    """Picklable snapshot of one TALP monitoring region on one rank."""

    name: str
    visits: int
    elapsed_cycles: float
    mpi_cycles: float
    useful_cycles: float


@dataclass(frozen=True)
class RankTask:
    """Everything one rank's execution needs beyond the BuiltApp."""

    rank: int
    ranks: int
    #: the run's per-process settings, shared by every rank
    settings: RunSettings
    workload: Workload
    #: chaos-injection schedule for this rank (None: run clean)
    fault: RankFaultPlan | None = None
    #: which execution attempt this is (0 = first try); only the
    #: supervised backend ever re-dispatches with attempt > 0
    attempt: int = 0
    #: True when the task runs in a sacrificial worker process — an
    #: injected "die" fault may really ``os._exit``; in-process backends
    #: leave this False and the death degrades to a raised crash
    in_child: bool = False
    #: the supervisor's per-rank deadline (None: unsupervised)
    deadline_seconds: float | None = None


@dataclass(frozen=True)
class RankResult:
    """One rank's execution artefacts (picklable)."""

    rank: int
    result: RunResult
    #: Score-P call-path profile in ``profile_io.to_dict`` form
    profile: dict | None = None
    talp_regions: tuple[RegionSample, ...] = ()
    #: the rank's event-trace blocks (``tracing=True`` + scorep tool);
    #: ``None`` as shipped when the trace went to disk (``trace_dir``),
    #: until the parent reads it in (``faults.load_rank_trace``)
    trace: tuple[EventBlock, ...] | None = None
    #: on-disk location summary (LocationMeta) when ``trace_dir`` was set
    trace_meta: "object | None" = None


@dataclass
class MultiRankOutcome:
    """Aggregated result of one N-rank execution."""

    ranks: int
    #: ImbalanceSpec or ExplicitFactors — whatever perturbed the ranks
    spec: "ImbalanceSpec | object"
    factors: tuple[float, ...]
    backend: str
    per_rank: list[RankResult]
    merged_profile: MergedProfileNode | None
    pop: PopReport
    #: rank-tagged, collective-aligned timeline (``tracing=True`` runs)
    merged_trace: MergedTrace | None = None
    #: ranks that produced no result (retries exhausted under
    #: supervision); non-empty only when ``degraded="allow"``
    missing_ranks: tuple[int, ...] = ()
    #: per-rank supervision records + world coverage
    health: HealthReport | None = None

    @property
    def degraded(self) -> bool:
        """True when the outcome covers only part of the world."""
        return bool(self.missing_ranks)

    @property
    def coverage(self) -> float:
        """Fraction of the world's ranks that produced a result."""
        return (self.ranks - len(self.missing_ranks)) / self.ranks

    @property
    def elapsed_seconds(self) -> float:
        """Synchronised wall time: the slowest rank's ``t_total``.

        Includes startup (``t_init``); the POP report's ``application``
        region deliberately covers only the main phase.  Derived from
        :attr:`bottleneck` so the two can never disagree — both pick the
        slowest rank by exact cycle counts, before any division rounds.
        """
        return self.bottleneck.result.t_total

    @property
    def bottleneck(self) -> RankResult:
        """The rank setting the elapsed time (ties: lowest rank wins)."""
        return max(
            self.per_rank,
            key=lambda r: (r.result.t_init_cycles + r.result.t_app_cycles, -r.rank),
        )


def build_tasks(
    *,
    ranks: int,
    imbalance: ImbalanceSpec,
    workload: Workload | None = None,
    faults: FaultSpec | None = None,
    **settings,
) -> list[RankTask]:
    """One task per rank, workloads perturbed by the imbalance spec.

    Every task carries one :class:`~repro.workflow.RunSettings`, built
    from the ``settings`` keywords.
    """
    run_settings = RunSettings(**settings)
    workloads = imbalance.workloads_for(ranks, workload)
    fault_plan = faults.plan(ranks) if faults is not None else {}
    return [
        RankTask(
            rank=rank,
            ranks=ranks,
            settings=run_settings,
            workload=workloads[rank],
            fault=fault_plan.get(rank),
        )
        for rank in range(ranks)
    ]


def execute_rank(built, task: RankTask) -> RankResult:
    """Run one rank; the unit of work every backend dispatches.

    Chaos injection hooks in here — *inside* the unit of work, exactly
    where a real crash or hang would strike — so crashes/hangs/deaths
    fire before the engine runs and payload corruption afterwards,
    identically on every backend (see :mod:`repro.multirank.faults`).
    """
    from repro.scorep.profile_io import to_dict
    from repro.workflow import run_app

    inject_pre_execution(task)
    outcome = run_app(
        built,
        **vars(task.settings),
        ranks=task.ranks,
        workload=task.workload,
        trace_location=task.rank,
    )
    profile = (
        to_dict(outcome.scorep_profile) if outcome.scorep_profile is not None else None
    )
    regions: tuple[RegionSample, ...] = ()
    if outcome.monitor is not None:
        regions = tuple(
            RegionSample(
                name=region.name,
                visits=region.visits,
                elapsed_cycles=region.elapsed_cycles,
                mpi_cycles=region.mpi_cycles,
                useful_cycles=region.useful_cycles,
            )
            for region in outcome.monitor.regions.values()
        )
    trace: tuple[EventBlock, ...] | None = None
    if outcome.tracer is not None and task.settings.trace_dir is None:
        trace = tuple(outcome.tracer.blocks)
    return corrupt_result(
        task,
        RankResult(
            rank=task.rank,
            result=outcome.result,
            profile=profile,
            talp_regions=regions,
            trace=trace,
            trace_meta=outcome.trace_meta,
        ),
    )


def run_multirank(
    built,
    *,
    ranks: int,
    imbalance: ImbalanceSpec,
    backend: "str | object" = "serial",
    workload: Workload | None = None,
    faults: FaultSpec | None = None,
    degraded: str = "forbid",
    processes: int | None = None,
    **settings,
) -> MultiRankOutcome:
    """Execute ``built`` across ``ranks`` simulated ranks and reduce.

    ``settings`` are :class:`~repro.workflow.RunSettings` keywords
    (``mode``, ``tool``, ``ic``, ``tracing``, ``trace_dir``, ...), the
    same as :func:`~repro.workflow.run_app` takes.

    ``tracing=True`` (scorep tool only) additionally records one event
    trace per rank and merges them into a rank-tagged,
    collective-aligned timeline (``outcome.merged_trace``).

    ``trace_dir=`` (with ``tracing=True``) makes the traces *durable*:
    every rank writes its own OTF2-shaped location file from inside its
    worker (no trace payloads in result pickles), and the parent
    publishes the archive's global definitions plus a ``health.json``
    supervision record once the world completes.  The merged timeline
    is then built from the on-disk streams — bit-identical to the
    in-memory path on every backend.

    ``faults`` injects a deterministic chaos scenario
    (:class:`~repro.multirank.faults.FaultSpec`); surviving it needs a
    :class:`~repro.multirank.backends.SupervisedBackend` — on a raw
    backend an injected crash propagates out of ``map_ranks`` unhandled,
    which is exactly the pre-supervision failure mode, made loud.

    ``degraded`` is the partial-result policy when supervision exhausts
    its retries on some ranks: ``"forbid"`` (default) raises
    :class:`~repro.errors.DegradedResultError`; ``"allow"`` reduces the
    surviving ranks, marks the missing ones in
    ``outcome.missing_ranks``/``outcome.health`` and coverage-annotates
    the POP report.

    The settings are validated up front so a bad configuration fails in
    the caller, not inside a worker process.
    """
    from repro.multirank.backends import resolve_backend

    if ranks < 1:
        raise CapiError(f"ranks must be >= 1, got {ranks}")
    if degraded not in ("forbid", "allow"):
        raise CapiError(
            f"degraded must be 'forbid' or 'allow', got {degraded!r}"
        )
    tasks = build_tasks(
        ranks=ranks,
        imbalance=imbalance,
        workload=workload,
        faults=faults,
        **settings,
    )
    run_settings = tasks[0].settings
    resolved = resolve_backend(backend, processes=processes)
    tracing = run_settings.tracing
    trace_dir = run_settings.trace_dir
    if run_settings.mode != "vanilla":
        # build the start-up state here, before a pool forks, so every
        # rank clones the parent's copy instead of building its own
        process_state(built.linked)
    per_rank = resolved.map_ranks(built, tasks)
    per_rank.sort(key=lambda r: r.rank)

    missing_ranks = tuple(
        sorted(set(range(ranks)) - {r.rank for r in per_rank})
    )
    if missing_ranks:
        if not per_rank:
            raise DegradedResultError(
                f"every rank of the {ranks}-rank world was lost; nothing "
                f"to reduce",
                missing_ranks=missing_ranks,
            )
        if degraded != "allow":
            raise DegradedResultError(
                f"rank(s) {list(missing_ranks)} of the {ranks}-rank world "
                f"produced no result and degraded='forbid'; pass "
                f"degraded='allow' to accept a partial reduction",
                missing_ranks=missing_ranks,
            )
    health = HealthReport(
        ranks=ranks,
        per_rank=getattr(resolved, "last_health", None),
        missing_ranks=missing_ranks,
    )

    merged = merge_profiles([r.profile for r in per_rank])
    pop = build_pop_report(
        per_rank,
        frequency=per_rank[0].result.frequency,
        missing_ranks=missing_ranks,
    )
    merged_trace = None
    if tracing and trace_dir is not None:
        from repro.trace.store import write_definitions, write_health_record

        metaless = [r.rank for r in per_rank if r.trace_meta is None]
        if metaless:
            raise CapiError(
                f"trace_dir={trace_dir!r} but rank(s) {metaless} published "
                f"no location file"
            )
        write_definitions(
            trace_dir,
            world_ranks=ranks,
            locations=[r.trace_meta for r in per_rank],
            frequency=per_rank[0].result.frequency,
            meta={
                "app": getattr(built, "name", ""),
                "config": run_settings.config_name,
                "tool": run_settings.tool,
                "backend": getattr(resolved, "name", type(resolved).__name__),
            },
        )
        write_health_record(trace_dir, health)
    if tracing:
        # the supervised gate read each archived trace in; without it,
        # each is read here, once
        per_rank = [load_rank_trace(r) for r in per_rank]
        traceless = [r.rank for r in per_rank if r.trace is None]
        if traceless:
            # unreachable today (validate_tracing guarantees a tracer on
            # every rank) — but a silent merged_trace=None would hide the
            # missing trace, so fail loudly
            raise CapiError(
                f"tracing=True but rank(s) {traceless} produced no trace"
            )
        # both kinds of world scan, align and merge the ranks' raw blocks
        merged_trace = merge_rank_blocks(
            [r.trace for r in per_rank], rank_ids=[r.rank for r in per_rank]
        )
    return MultiRankOutcome(
        ranks=ranks,
        spec=imbalance,
        factors=imbalance.factors(ranks),
        backend=getattr(resolved, "name", type(resolved).__name__),
        per_rank=per_rank,
        merged_profile=merged,
        pop=pop,
        merged_trace=merged_trace,
        missing_ranks=missing_ranks,
        health=health,
    )


# -- DLB rebalancing driver ---------------------------------------------------


@dataclass(frozen=True)
class RebalanceIteration:
    """One point of the DLB feedback loop's trajectory.

    ``index`` 0 is the unbalanced baseline (all capacities 1.0, no
    step); iteration k > 0 ran the world after applying ``step``.
    """

    index: int
    #: per-rank CPU capacity the iteration ran on
    capacities: tuple[float, ...]
    #: the LeWI transfers that produced these capacities (None at index 0)
    step: "object | None"
    outcome: MultiRankOutcome

    @property
    def pop(self):
        return self.outcome.pop

    @property
    def parallel_efficiency(self) -> float:
        return self.outcome.pop.app.parallel_efficiency

    @property
    def degraded(self) -> bool:
        """True when this iteration measured only part of the world.

        A degraded measurement is unusable for rebalancing decisions —
        its POP metrics describe the survivors, not the world — so the
        loop neither steps from it nor reports it as an improvement.
        """
        return bool(self.outcome.missing_ranks)


@dataclass
class RebalanceOutcome:
    """Full before/after history of one DLB rebalancing loop."""

    policy: "object"
    ranks: int
    #: the imbalance spec of the original, unbalanced world
    spec: ImbalanceSpec
    history: list[RebalanceIteration]
    converged: bool

    @property
    def baseline(self) -> RebalanceIteration:
        """The unbalanced run the loop started from."""
        return self.history[0]

    @property
    def final(self) -> RebalanceIteration:
        """The best iteration by parallel efficiency (ties: earliest).

        Picking the best rather than the last guarantees rebalancing
        never *worsens* the measured POP efficiency: the baseline is in
        the history, so the final PE is at least the unbalanced PE.
        Degraded iterations are never candidates — a PE computed from a
        partial world is not comparable to a full measurement, so a
        rebalance "improvement" is never reported from partial data.
        """
        candidates = [it for it in self.history if not it.degraded]
        if not candidates:
            return self.history[0]
        return max(candidates, key=lambda it: (it.parallel_efficiency, -it.index))

    @property
    def iterations(self) -> int:
        """Number of rebalanced re-runs performed (baseline excluded)."""
        return len(self.history) - 1

    @property
    def improvement(self) -> float:
        """Parallel-efficiency gain of the final state over the baseline."""
        return self.final.parallel_efficiency - self.baseline.parallel_efficiency

    def render(self) -> str:
        lines = [
            "=" * 64,
            f"DLB LeWI rebalancing — {self.ranks} MPI ranks, "
            f"{self.iterations} iteration(s), "
            f"{'converged' if self.converged else 'iteration cap hit'}",
            "=" * 64,
        ]
        for it in self.history:
            m = it.pop.app
            caps = ", ".join(f"{c:.3f}" for c in it.capacities)
            lines.append(
                f"  iter {it.index}: LB {m.load_balance:6.2%}  "
                f"CommEff {m.communication_efficiency:6.2%}  "
                f"PE {m.parallel_efficiency:6.2%}  cpus [{caps}]"
            )
        lines.append(
            f"  final (iter {self.final.index}): "
            f"PE {self.final.parallel_efficiency:6.2%} "
            f"({self.improvement:+.2%} vs unbalanced)"
        )
        return "\n".join(lines)


def run_rebalanced(
    built,
    *,
    ranks: int,
    imbalance: ImbalanceSpec,
    dlb,
    max_iterations: int = 8,
    backend: "str | object" = "serial",
    workload: Workload | None = None,
    faults: FaultSpec | None = None,
    degraded: str = "forbid",
    processes: int | None = None,
    **settings,
) -> RebalanceOutcome:
    """Close the DLB loop: measure, lend/borrow, re-run until balanced.

    Runs the unbalanced world once, then iterates: the LeWI policy
    (``dlb``, a :class:`~repro.multirank.dlb.DlbPolicy`) turns the
    measured per-rank useful times into a lend/borrow step, the step is
    executed through the DLB C-API (one ``DLB_Init``-ed agent per rank
    over a shared CPU pool), and the world re-runs with each rank's
    imbalance factor divided by its new capacity — lending ranks slow
    down, the borrowing bottleneck speeds up, folded into the next
    iteration's ``Workload.root_scale`` exactly like the imbalance
    itself.  Stops when the policy has nothing left to move (capacity
    shift below ``dlb.tolerance``), when parallel efficiency stops
    improving, or after ``max_iterations`` re-runs.

    Everything is deterministic: the same seed reproduces the same
    iteration history, and serial/multiprocessing backends produce
    bit-identical trajectories (the policy only ever sees reducer
    outputs, which are backend-invariant).

    Under ``degraded="allow"`` with lost ranks the loop degrades
    gracefully instead of crashing: a degraded *baseline* yields no
    rebalancing at all (there is no full measurement to step from), and
    a degraded *iteration* ends the loop — its partial measurement is
    recorded in the history but never used to compute the next DLB step
    and never reported as the final/improved state.
    """
    import numpy as np

    from repro.multirank.dlb import apply_step, make_lewi_agents
    from repro.multirank.imbalance import ExplicitFactors
    from repro.simmpi.world import MpiWorld

    if max_iterations < 1:
        raise CapiError(f"max_iterations must be >= 1, got {max_iterations}")
    if settings.get("trace_dir") is not None:
        raise CapiError(
            "trace_dir= cannot be combined with dlb rebalancing: every "
            "iteration re-runs the world and would rewrite the archive"
        )
    common = dict(
        ranks=ranks,
        backend=backend,
        workload=workload,
        faults=faults,
        degraded=degraded,
        processes=processes,
        **settings,
    )
    base_factors = imbalance.factors(ranks)
    current = run_multirank(built, imbalance=imbalance, **common)

    dlb_world = MpiWorld(size=ranks)
    dlb_world.init()
    agents = make_lewi_agents(dlb_world)
    capacities = tuple(agent.PollDROM()[1] for agent in agents)
    history = [
        RebalanceIteration(
            index=0, capacities=capacities, step=None, outcome=current
        )
    ]
    if current.missing_ranks:
        # degraded baseline: a partial measurement cannot seed a
        # lend/borrow step — skip rebalancing entirely rather than
        # redistributing CPUs based on whoever happened to survive
        return RebalanceOutcome(
            policy=dlb,
            ranks=ranks,
            spec=imbalance,
            history=history,
            converged=False,
        )
    converged = False
    for index in range(1, max_iterations + 1):
        useful = np.array(
            [r.result.useful_cycles for r in current.per_rank], dtype=float
        )
        step = dlb.rebalance(useful, capacities)
        if step.is_noop or step.max_shift < dlb.tolerance:
            converged = True
            break
        capacities = apply_step(step, agents)
        spec = ExplicitFactors(
            tuple(
                float(factor / capacity)
                for factor, capacity in zip(base_factors, capacities)
            )
        )
        current = run_multirank(built, imbalance=spec, **common)
        previous_pe = history[-1].parallel_efficiency
        history.append(
            RebalanceIteration(
                index=index, capacities=capacities, step=step, outcome=current
            )
        )
        if current.missing_ranks:
            # degraded re-run: record it for the post-mortem but stop —
            # the next DLB step must not be computed from partial data
            # (and `final` never reports a degraded iteration)
            break
        if current.pop.app.parallel_efficiency <= previous_pe + dlb.tolerance:
            # no further measurable gain — the loop has converged (the
            # final state is the best iteration, so a last overshooting
            # step can never make the reported result worse)
            converged = True
            break
    return RebalanceOutcome(
        policy=dlb,
        ranks=ranks,
        spec=imbalance,
        history=history,
        converged=converged,
    )
