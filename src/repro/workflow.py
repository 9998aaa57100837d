"""End-to-end workflow facade: build, load, instrument, run, measure.

This is the public API most users want: it wires the substrates into
the paper's Fig. 3 pipeline.

* :func:`build_app` — compile + link a :class:`SourceProgram` (and
  construct its MetaCG whole-program call graph).
* :func:`run_app` — execute one configuration: ``vanilla`` (no sleds),
  ``inactive`` (sleds, nothing patched), ``full`` (all sleds patched) or
  an IC-driven selective instrumentation, under the ``none``/``scorep``/
  ``talp`` measurement tool.
* :func:`serve_selection` — stand up a long-lived
  :class:`~repro.service.SelectionService` over one or many built apps:
  their call graphs are admitted into a warm
  :class:`~repro.service.GraphStore` and selection queries from many
  tenants are answered batched (see :mod:`repro.service`).

Each call returns a :class:`RunOutcome` carrying the timing result
(Table II's Tinit/Ttotal), the DynCaPI startup report (§VI-B anomalies)
and the tool artefacts (Score-P profile / TALP report).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

from repro.cg.graph import CallGraph
from repro.cg.merge import build_whole_program_cg
from repro.core.ic import InstrumentationConfig
from repro.dyncapi.handlers import CygProfileDispatcher
from repro.dyncapi.runtime import DynCapi, StartupReport
from repro.dyncapi.scorep_bridge import ScorePBridge
from repro.dyncapi.talp_bridge import TalpBridge
from repro.errors import CapiError
from repro.execution.clock import VirtualClock
from repro.execution.costs import CostModel
from repro.execution.engine import ExecutionEngine
from repro.execution.result import RunResult
from repro.execution.workload import Workload
from repro.program.compiler import Compiler, CompilerConfig
from repro.program.ir import SourceProgram
from repro.program.linker import LinkedProgram, Linker
from repro.program.loader import DynamicLoader
from repro.scorep.measurement import ScorePMeasurement
from repro.scorep.regions import CallTreeNode
from repro.scorep.tracing import TRACE_EVENT_EXTRA, ScorePTracer
from repro.simmpi.comm import SimComm
from repro.simmpi.messages import MessageMatcher
from repro.simmpi.pmpi import PmpiLayer
from repro.simmpi.world import MpiWorld
from repro.talp.dlb import DlbLibrary
from repro.talp.monitor import TalpMonitor
from repro.talp.report import TalpReport, build_report
from repro.xray.runtime import XRayRuntime

if TYPE_CHECKING:  # service imports stay lazy: serving is optional
    from repro.service import SelectionService

Mode = Literal["vanilla", "inactive", "full", "ic"]
Tool = Literal["none", "scorep", "talp"]


@dataclass
class _MpiTraceMarker:
    """PMPI interceptor writing MPI markers into the event trace."""

    tracer: ScorePTracer
    #: stamps ring-matchable message ids onto point-to-point markers so
    #: the wait-state classifier can pair sends with receives
    matcher: MessageMatcher = field(default_factory=MessageMatcher)

    def on_mpi_call(self, op: str, cost_cycles: float) -> float:
        # tracer.mpi() advances the clock by TRACE_EVENT_EXTRA itself,
        # so no additional cycles are reported here (no double charge)
        self.tracer.mpi(op, mid=self.matcher.next_id(op))
        return 0.0

    def estimate_extra(self) -> float:
        """Per-MPI-call overhead estimate for analytic charging.

        Must mirror what the walked path actually costs: every traced
        MPI event advances the clock by ``TRACE_EVENT_EXTRA`` inside
        ``tracer.mpi()``.  Returning 0.0 here (the old behaviour) made
        every overhead prediction built on interceptor estimates
        undercount tracing cost on the analytically charged residual.
        """
        return TRACE_EVENT_EXTRA


@dataclass
class BuiltApp:
    """A compiled + linked application with its whole-program call graph."""

    program: SourceProgram
    linked: LinkedProgram
    graph: CallGraph

    @property
    def name(self) -> str:
        return self.program.name


def build_app(
    program: SourceProgram,
    *,
    xray: bool = True,
    compiler_config: CompilerConfig | None = None,
    graph: CallGraph | None = None,
) -> BuiltApp:
    """Compile and link; ``xray=False`` produces the vanilla build."""
    config = compiler_config or CompilerConfig()
    if not xray:
        from dataclasses import replace

        config = replace(config, xray_instruction_threshold=2**31)
    compiled = Compiler(config).compile(program)
    linked = Linker().link(compiled)
    if graph is None:
        graph = build_whole_program_cg(program)
    return BuiltApp(program=program, linked=linked, graph=graph)


def serve_selection(
    apps: "BuiltApp | Mapping[str, BuiltApp] | Iterable[BuiltApp]",
    **options,
) -> "SelectionService":
    """Start a selection service over one or many built applications.

    Each app's whole-program call graph is admitted into a warm
    :class:`~repro.service.GraphStore` under the app's name (pass a
    mapping to choose keys); the returned
    :class:`~repro.service.SelectionService` answers
    ``(tenant, graph key, spec source)`` queries batched, with results
    bit-identical to one-shot :meth:`~repro.core.capi.Capi.select`
    evaluation.  ``max_bytes`` and ``cache_entries`` go to the store;
    every other option passes straight through to
    :class:`~repro.service.SelectionService` — e.g. ``verify=True`` to
    re-derive every batch sequentially and assert that identity (the
    ``serve --check`` mode), ``shards=4`` for a sharded worker pool,
    ``faults="worker-hang"`` for a supervised chaos drill, or
    ``supervised=False`` for the bare, unsupervised worker.  Close the
    service when done (it is a context manager).
    """
    from repro.service import GraphStore, SelectionService

    if isinstance(apps, BuiltApp):
        keyed = {apps.name: apps}
    elif isinstance(apps, Mapping):
        keyed = dict(apps)
    else:
        keyed = {app.name: app for app in apps}
    if not keyed:
        raise CapiError("serve_selection needs at least one built app")
    store = GraphStore(
        **{
            name: options.pop(name)
            for name in ("max_bytes", "cache_entries")
            if name in options
        }
    )
    service = SelectionService(store, **options)
    for key, app in keyed.items():
        service.admit(key, app.graph)
    return service


@dataclass
class RunOutcome:
    """Everything one configured run produced."""

    result: RunResult
    startup: StartupReport | None = None
    scorep_profile: CallTreeNode | None = None
    talp_report: TalpReport | None = None
    #: the tool bridge (ScorePBridge / TalpBridge / CygProfileDispatcher)
    bridge: object | None = None
    measurement: ScorePMeasurement | None = None
    monitor: TalpMonitor | None = None
    world: MpiWorld | None = None
    #: present when ``tracing=True`` was requested with the scorep tool
    tracer: ScorePTracer | None = None
    #: rank-tagged, collective-aligned timeline (MergedTrace) — set when
    #: ``tracing=True`` was requested on the multi-rank path
    merged_trace: "object | None" = None
    #: multi-rank artefacts — set only when ``imbalance=`` was passed;
    #: ``result`` then carries the bottleneck rank's RunResult, so
    #: ``result.t_total`` is the synchronised elapsed time of the world
    multirank: "object | None" = None
    merged_profile: "object | None" = None
    pop: "object | None" = None
    #: DLB rebalancing history (RebalanceOutcome) — set when ``dlb=`` was
    #: passed; ``multirank``/``pop``/``result`` then describe the *final*
    #: (best) rebalanced iteration
    rebalance: "object | None" = None
    #: per-rank supervision records + world coverage (HealthReport) —
    #: set on the multi-rank path; carries missing-rank information when
    #: the run completed degraded (``degraded="allow"``)
    health: "object | None" = None
    #: summary of the on-disk location file written for this run
    #: (LocationMeta) — set when ``trace_dir=`` was passed on the
    #: single-rank path
    trace_meta: "object | None" = None


@dataclass(frozen=True)
class RunSettings:
    """How every process of one run is configured, validated once.

    :func:`run_app` builds it from its keywords.  On the multi-rank path
    each rank's task carries it, and
    :func:`~repro.multirank.scheduler.execute_rank` hands it back to
    ``run_app`` as keywords.
    """

    mode: Mode = "ic"
    tool: Tool = "none"
    ic: InstrumentationConfig | None = None
    cost_model: CostModel | None = None
    symbol_injection: bool = True
    emulate_talp_bug: bool = True
    talp_bug_threshold: int | None = None
    talp_bug_modulus: int | None = None
    tracing: bool = False
    config_name: str = ""
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if self.mode == "ic" and self.ic is None:
            raise CapiError(
                "mode='ic' requires an instrumentation configuration"
            )
        if self.mode != "ic" and self.ic is not None:
            raise CapiError(f"mode={self.mode!r} does not take an IC")
        if self.tracing:
            from repro.multirank.tracing import validate_tracing

            validate_tracing(self.tool, self.mode)
        if self.trace_dir is not None and not self.tracing:
            raise CapiError("trace_dir= requires tracing=True")


def run_app(
    built: BuiltApp,
    *,
    mode: Mode = "ic",
    tool: Tool = "none",
    ic: InstrumentationConfig | None = None,
    ranks: int = 4,
    workload: Workload | None = None,
    cost_model: CostModel | None = None,
    symbol_injection: bool = True,
    emulate_talp_bug: bool = True,
    talp_bug_threshold: int | None = None,
    talp_bug_modulus: int | None = None,
    tracing: bool = False,
    config_name: str = "",
    imbalance: "object | None" = None,
    backend: "str | object" = "serial",
    processes: int | None = None,
    dlb: "object | None" = None,
    dlb_max_iterations: int = 8,
    faults: "object | None" = None,
    degraded: str = "forbid",
    trace_dir: "str | None" = None,
    trace_location: int | None = None,
) -> RunOutcome:
    """Execute one instrumentation/measurement configuration.

    ``tracing=True`` (scorep tool only) attaches an event tracer next to
    the profile: every region enter/leave and MPI operation lands in
    ``outcome.tracer.blocks`` with timestamps, at extra per-event cost
    (``outcome.tracer.all_events()`` is the event view).

    ``trace_dir=`` (requires ``tracing=True``) persists the event
    stream to an OTF2-shaped archive instead of memory: the tracer
    flushes each full block to a per-location file under ``trace_dir`` (see
    :mod:`repro.trace.store`) and ``outcome.trace_meta`` summarises the
    closed location.  On the single-rank path the event list is then
    only on disk (``outcome.tracer.all_events()`` raises; read it back
    with :func:`repro.trace.store.load_location`).  The default
    ``trace_location=None`` writes a standalone archive, location 0 and
    its global definitions; an int names one rank of a world whose
    scheduler publishes the archive-level tables itself.  On the
    multi-rank path every rank writes its own location file from inside
    its worker — trace payloads never travel through result pickles —
    and the parent publishes definitions plus a ``health.json``
    supervision record.

    Passing ``imbalance=ImbalanceSpec(...)`` switches to the multi-rank
    path (``ImbalanceSpec()`` is a uniform world): the app executes once
    per rank (workloads perturbed by the spec, dispatched through
    ``backend`` — ``"serial"``, ``"multiprocessing"`` or a backend
    instance; without ``imbalance`` the ``backend`` argument has no
    effect) and the outcome carries
    the cross-rank artefacts: ``outcome.merged_profile`` (Score-P-style
    min/max/avg/sum aggregation), ``outcome.pop`` (measured POP metrics)
    and ``outcome.multirank`` (per-rank results).  ``outcome.result`` is
    the bottleneck rank's result, so ``t_total`` reads as the
    synchronised elapsed time.  With ``tracing=True`` each rank records
    its own event trace and the streams are merged into one rank-tagged
    timeline with logical clocks aligned at MPI collectives
    (``outcome.merged_trace``, a
    :class:`~repro.multirank.tracing.MergedTrace`) carrying wait-state
    and critical-path analyses.

    Passing additionally ``dlb=DlbPolicy(...)`` closes the paper's §VI
    DLB loop: the world runs, the LeWI policy lends CPU capacity from
    waiting ranks to the bottleneck, and the world re-runs (at most
    ``dlb_max_iterations`` times) until the POP efficiency converges.
    ``outcome.rebalance`` then carries the full iteration history and
    ``outcome.multirank``/``outcome.pop``/``outcome.result`` describe
    the final (best) rebalanced state.

    Fault tolerance (multi-rank path only): ``faults=`` injects a
    deterministic chaos scenario (a
    :class:`~repro.multirank.faults.FaultSpec` or the name of a preset
    in :data:`repro.apps.FAULT_SCENARIOS`), ``backend="supervised"``
    (or ``"supervised:mp"``) survives it via per-rank deadlines and
    retries, ``degraded=`` ("forbid"/"allow") decides whether lost
    ranks abort the run or yield a coverage-annotated partial result,
    ``processes=`` pins the worker count, and ``outcome.health``
    reports per-rank attempts/outcomes/latencies.
    """
    if dlb is not None and imbalance is None:
        raise CapiError(
            "dlb rebalancing needs the multi-rank path; pass imbalance= "
            "(ImbalanceSpec() for a uniform world)"
        )
    if faults is not None and imbalance is None:
        raise CapiError(
            "fault injection needs the multi-rank path; pass imbalance= "
            "(ImbalanceSpec() for a uniform world)"
        )
    if isinstance(faults, str):
        from repro.apps import fault_scenario

        faults = fault_scenario(faults)
    settings = RunSettings(
        mode=mode,
        tool=tool,
        ic=ic,
        cost_model=cost_model,
        symbol_injection=symbol_injection,
        emulate_talp_bug=emulate_talp_bug,
        talp_bug_threshold=talp_bug_threshold,
        talp_bug_modulus=talp_bug_modulus,
        tracing=tracing,
        config_name=config_name,
        trace_dir=trace_dir,
    )
    if imbalance is not None:
        return _run_app_multirank(
            built,
            settings,
            imbalance=imbalance,
            dlb=dlb,
            dlb_max_iterations=dlb_max_iterations,
            ranks=ranks,
            backend=backend,
            workload=workload,
            faults=faults,
            degraded=degraded,
            processes=processes,
        )

    cm = cost_model or CostModel()
    clock = VirtualClock()
    workload = workload or Workload()
    dyn: DynCapi | None = None
    if mode == "vanilla":
        loader = DynamicLoader()
        loaded = loader.load_program(built.linked)
    else:
        # a fresh process, cloned from what the program keeps: start-up
        # then costs what this run changes, not what the program holds
        dyn = DynCapi.for_program(built.linked, clock=clock, cost_model=cm)
        loader = dyn.loader
        loaded = list(loader.loaded.values())

    world = MpiWorld(size=ranks)
    pmpi = PmpiLayer(SimComm(world))

    outcome = RunOutcome(result=RunResult(built.name, tool, config_name), world=world)
    xray_rt: XRayRuntime | None = None
    startup: StartupReport | None = None
    engine_tool = "none"

    trace_writer = None
    if trace_dir is not None:
        from repro.trace.store import TraceWriter

        trace_writer = TraceWriter(trace_dir, trace_location or 0)

    if dyn is not None:
        xray_rt = dyn.xray
        if mode == "inactive":
            startup = dyn.startup_inactive()
        else:
            tool_init = {
                "none": 0.0,
                "scorep": cm.scorep_init_base,
                "talp": cm.talp_init_base,
            }[tool]
            startup = dyn.startup(
                ic=ic if mode == "ic" else None,
                handler=None,
                tool_init_cycles=tool_init,
            )
            engine_tool = tool
            _install_tool(
                outcome,
                settings,
                dyn=dyn,
                loader=loader,
                clock=clock,
                cm=cm,
                world=world,
                pmpi=pmpi,
                xray_rt=xray_rt,
                trace_writer=trace_writer,
            )

    engine = ExecutionEngine(
        linked=built.linked,
        loaded=loaded,
        tool=engine_tool,
        xray_runtime=xray_rt,
        pmpi=pmpi,
        cost_model=cm,
        workload=workload,
        clock=clock,
        # the tracer charges TRACE_EVENT_EXTRA inside the handler on
        # every patched enter/leave; the analytic residual must match
        handler_extra=(
            TRACE_EVENT_EXTRA
            if tracing and engine_tool == "scorep" and outcome.tracer is not None
            else 0.0
        ),
    )
    result = engine.run(config_name=config_name)
    if xray_rt is not None:
        # __xray_remove_handler at tool exit.  The handler is a bound
        # method of a bridge that holds the runtime; left installed, the
        # cycle would keep this process alive until a full collection.
        xray_rt.set_handler(None)
    result.t_init_cycles = startup.init_cycles if startup else 0.0
    outcome.result = result
    outcome.startup = startup

    if outcome.measurement is not None:
        outcome.measurement.finalize()
        outcome.scorep_profile = outcome.measurement.profile()
    if outcome.tracer is not None and trace_writer is None:
        outcome.tracer.flush()
    elif outcome.tracer is not None:
        meta = outcome.tracer.close_writer()
        outcome.trace_meta = meta
        if trace_location is None:
            from repro.trace.store import write_definitions

            write_definitions(
                trace_dir,
                world_ranks=1,
                locations=[meta],
                frequency=clock.frequency,
                meta={"app": built.name, "config": config_name, "tool": tool},
            )
    if outcome.monitor is not None:
        outcome.monitor.stop_all_open()
        failed_reg = (
            len(outcome.bridge.failed_registrations)
            if isinstance(outcome.bridge, TalpBridge)
            else 0
        )
        outcome.talp_report = build_report(
            outcome.monitor,
            world,
            frequency=clock.frequency,
            failed_registrations=failed_reg,
        )
    return outcome


def _run_app_multirank(
    built: BuiltApp,
    settings: RunSettings,
    *,
    imbalance,
    dlb: "object | None",
    dlb_max_iterations: int,
    **world,
) -> RunOutcome:
    """Dispatch to the multirank subsystem and fold into a RunOutcome.

    ``world`` holds ``run_app``'s multi-rank options, passed on as is.
    """
    from repro.multirank import run_multirank, run_rebalanced

    common = dict(world, **vars(settings))
    rebalance = None
    if dlb is not None:
        rebalance = run_rebalanced(
            built,
            imbalance=imbalance,
            dlb=dlb,
            max_iterations=dlb_max_iterations,
            **common,
        )
        mr = rebalance.final.outcome
    else:
        mr = run_multirank(built, imbalance=imbalance, **common)
    return RunOutcome(
        result=mr.bottleneck.result,
        multirank=mr,
        merged_profile=mr.merged_profile,
        pop=mr.pop,
        merged_trace=mr.merged_trace,
        rebalance=rebalance,
        health=mr.health,
    )


def _install_tool(
    outcome: RunOutcome,
    settings: RunSettings,
    *,
    dyn: DynCapi,
    loader: DynamicLoader,
    clock: VirtualClock,
    cm: CostModel,
    world: MpiWorld,
    pmpi: PmpiLayer,
    xray_rt: XRayRuntime,
    trace_writer: "object | None" = None,
) -> None:
    """Wire the measurement bridge and install it as the XRay handler."""
    tool = settings.tool
    if tool == "scorep":
        measurement = ScorePMeasurement(clock=clock, cost_model=cm)
        tracer = (
            ScorePTracer(clock=clock, writer=trace_writer)
            if settings.tracing
            else None
        )
        bridge = ScorePBridge(
            runtime=xray_rt,
            loader=loader,
            measurement=measurement,
            clock=clock,
            cost_model=cm,
            tracer=tracer,
        )
        if settings.symbol_injection:
            bridge.inject_dso_symbols(dyn.process.symbols)
        pmpi.register(measurement)
        if tracer is not None:
            pmpi.register(_MpiTraceMarker(tracer))
            outcome.tracer = tracer
        xray_rt.set_handler(bridge.handler)
        outcome.bridge = bridge
        outcome.measurement = measurement
    elif tool == "talp":
        monitor = TalpMonitor(
            clock=clock,
            world=world,
            cost_model=cm,
            emulate_region_bug=settings.emulate_talp_bug,
        )
        if settings.talp_bug_threshold is not None:
            monitor.bug_threshold = settings.talp_bug_threshold
        if settings.talp_bug_modulus is not None:
            monitor.bug_modulus = settings.talp_bug_modulus
        bridge = TalpBridge(
            dlb=DlbLibrary(monitor),
            id_names=dyn.id_names,
            clock=clock,
            cost_model=cm,
        )
        pmpi.register(monitor)
        pmpi.on_finalize.append(monitor.stop_all_open)
        xray_rt.set_handler(bridge.handler)
        outcome.bridge = bridge
        outcome.monitor = monitor
    else:
        dispatcher = CygProfileDispatcher(
            runtime=xray_rt, clock=clock, cost_model=cm
        )
        xray_rt.set_handler(dispatcher.handler)
        outcome.bridge = dispatcher
