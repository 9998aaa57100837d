"""The virtual-clock execution engine.

Runs a linked, loaded program by walking its machine-level call tree
from the entry point, charging the virtual clock for every mechanism
along the way:

* function body cost (``base_cost`` — "useful" computation),
* sled traversal: NOP cost when unpatched, trampoline dispatch plus the
  installed handler's cost when patched (the handler itself advances the
  clock, exactly like a real tool steals cycles in-line),
* MPI operations routed through the PMPI layer, and
* static initialisers executed before ``main`` (they fire sleds too —
  this is where the paper's "regions entered before MPI_Init" anomaly
  comes from).

Deep hot loops are bounded by the :class:`~repro.execution.workload.
Workload` caps; capped-off repetitions are charged *analytically* from
a memoised per-function cost closure so the total virtual time still
reflects the full dynamic workload.

The innermost walked-execution loop is memoised: dynamic call targets
(including the deterministic virtual-dispatch hash rotation) are
resolved **once per call site**, and each function's sites are folded
into a per-function record carrying the precomputed ``(walked,
charged)`` workload split.  All caches that depend on sled state
(``_patched_cache``, ``_analytic_memo``) are keyed against the XRay
patch epoch — the patcher's cumulative patch/unpatch counter — so
mid-run repatching by the DynCaPI runtime can never serve stale costs.

What the engine derives from the program alone is kept on the linked
program (:func:`~repro.program.loader.program_cache`) per loaded layout
— object names and bases — and shared by every run over that layout:
the function map, the call-target cache, the once-per-run spine and the
static initialisers.  Per-function records (which also carry the
function's sled addresses) depend on the :class:`Workload`, so only the
most recent workload's are kept, in a single slot: a multi-rank world
gives every rank its own ``root_scale``, and a cache keyed by workload
would grow with every rank.

The walk itself is an explicit work-stack loop (one ``_Frame`` per open
function invocation) rather than Python recursion, so the dynamic call
depth is bounded only by :attr:`Workload.max_depth` — deep wrapper
chains and deep per-rank workloads never hit the interpreter recursion
limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import stable_hash
from repro.errors import ExecutionError
from repro.execution.clock import VirtualClock
from repro.execution.costs import CostModel
from repro.execution.result import RunResult
from repro.execution.workload import Workload
from repro.program.ir import CallKind, SourceProgram, resolve_call_targets
from repro.program.linker import LinkedProgram
from repro.program.loader import LoadedObject, program_cache
from repro.program.machine import FUNCTION_HEADER_BYTES, MachineCallSite, MachineFunction
from repro.simmpi.pmpi import PmpiLayer
from repro.xray.runtime import XRayRuntime
from repro.xray.sled import SLED_BYTES

#: one-shot lifecycle calls: never scaled, never charged analytically
_LIFECYCLE = ("MPI_Init", "MPI_Finalize")


@dataclass
class _AnalyticTotals:
    """Per-invocation cost closure of one function's whole subtree."""

    cycles: float = 0.0
    useful: float = 0.0
    mpi_cycles: float = 0.0
    mpi_calls: int = 0
    entries: int = 0


@dataclass
class _SiteRecord:
    """One machine call site with targets and workload split resolved."""

    __slots__ = ("targets", "n_targets", "walked", "charged", "effective")

    #: dynamic targets, virtual-dispatch rotation already applied
    targets: tuple[str, ...]
    n_targets: int
    #: workload split of the site count (lifecycle sites: count, 0)
    walked: int
    charged: int
    #: scaled repetition count for the analytic path
    effective: int


@dataclass
class _FnRecord:
    """Per-function execution record: everything ``_execute`` touches."""

    __slots__ = ("mf", "name", "base_cost", "is_mpi", "sites", "sleds")

    mf: MachineFunction
    name: str
    base_cost: float
    is_mpi: bool
    #: resolved call sites; sites without targets are dropped up front
    sites: list[_SiteRecord]
    #: absolute (entry, exit) sled addresses; None without sleds
    sleds: tuple[int, int] | None


class _Frame:
    """One open function invocation on the explicit walk stack."""

    __slots__ = ("rec", "child_depth", "sites", "si", "site", "i", "walked", "charged")

    def __init__(self, rec: _FnRecord, child_depth: int, sites: list[_SiteRecord]):
        self.rec = rec
        self.child_depth = child_depth
        #: sites to process (empty when the frame sits at the depth cap)
        self.sites = sites
        self.si = 0
        #: the site currently being expanded (None: fetch the next one)
        self.site: _SiteRecord | None = None
        self.i = 0
        self.walked = 0
        self.charged = 0


_NO_SITES: list[_SiteRecord] = []


class _LayoutTables:
    """What engines derive from one loaded layout of one linked program."""

    __slots__ = (
        "functions", "target_cache", "root_region", "initializers",
        "workload", "records",
    )

    def __init__(self, loaded: list[LoadedObject]) -> None:
        self.functions: dict[str, MachineFunction] = {}
        for lo in loaded:
            self.functions.update(lo.binary.functions)
        #: static initialisers in object-load order (executable first)
        self.initializers = [
            mf.name
            for lo in loaded
            for mf in sorted(lo.binary.functions.values(), key=lambda f: f.offset)
            if mf.is_static_initializer
        ]
        #: (callee, kind, pointer_id) -> rotated target tuple
        self.target_cache: dict[tuple, tuple[str, ...]] = {}
        self.root_region: set[str] | None = None
        #: the single slot: per-function records of ``workload`` only
        self.workload: Workload | None = None
        self.records: dict[str, _FnRecord | None] = {}

    @classmethod
    def of(cls, linked: LinkedProgram, loaded: list[LoadedObject]) -> "_LayoutTables":
        layouts = program_cache(linked).layouts
        key = tuple((lo.binary.name, lo.base) for lo in loaded)
        tables = layouts.get(key)
        if tables is None:
            tables = layouts[key] = cls(loaded)
        return tables

    def records_for(self, workload: Workload) -> dict[str, "_FnRecord | None"]:
        if workload != self.workload:
            self.workload = workload
            self.records = {}
        return self.records


@dataclass
class ExecutionEngine:
    """One configured run of a loaded program."""

    linked: LinkedProgram
    loaded: list[LoadedObject]
    tool: str = "none"
    xray_runtime: XRayRuntime | None = None
    pmpi: PmpiLayer | None = None
    cost_model: CostModel = field(default_factory=CostModel)
    workload: Workload = field(default_factory=Workload)
    clock: VirtualClock = field(default_factory=VirtualClock)
    #: extra per-patched-sled-fire handler cycles the analytic path must
    #: mirror beyond ``cost_model.handler_cost(tool)`` — the walked path
    #: charges these inside the installed handler itself (e.g. the event
    #: tracer's per-event buffer write when tracing is attached)
    handler_extra: float = 0.0

    def __post_init__(self) -> None:
        self._tables = _LayoutTables.of(self.linked, self.loaded)
        self._functions = self._tables.functions
        self._program: SourceProgram = self.linked.compiled.program
        #: (callee, kind, pointer_id) -> rotated target tuple
        self._target_cache = self._tables.target_cache
        #: function name -> _FnRecord (or None for fully-inlined targets)
        self._records = self._tables.records_for(self.workload)
        self._patched_cache: dict[str, bool] = {}
        self._analytic_memo: dict[str, _AnalyticTotals] = {}
        #: XRay patch epoch the sled-state caches were computed under
        self._cache_epoch = self._patch_epoch()
        #: once-per-run spine (root_scale scope), checked on first use
        self._root_region_set: set[str] | None = None
        self._result: RunResult | None = None

    # -- public ---------------------------------------------------------------

    def run(self, *, config_name: str = "") -> RunResult:
        """Execute static initialisers, then ``main``; returns the result."""
        if self._result is not None:
            raise ExecutionError("engine instances are single-use")
        result = RunResult(
            app_name=self._program.name, tool=self.tool, config_name=config_name
        )
        self._result = result
        start = self.clock.now()
        if self.workload.root_scale != 1.0:
            # kept records skip the spine lookup; check (and warn) per run
            self._root_region()
        for name in self._tables.initializers:
            self._execute(name, depth=0)
        entry = self._program.entry
        if entry not in self._functions:
            raise ExecutionError(f"entry function {entry!r} was not emitted")
        self._execute(entry, depth=0)
        result.t_app_cycles = self.clock.now() - start
        if self.pmpi is not None:
            result.mpi_calls += self.pmpi.world.mpi_calls
            result.mpi_cycles += self.pmpi.world.mpi_cycles
        if self.xray_runtime is not None:
            result.patched_functions = self.xray_runtime.patched_count()
            result.patched_sleds = self.xray_runtime.patcher.stats.patched
        return result

    # -- memoised structure ------------------------------------------------------

    def _site_targets(self, site: MachineCallSite) -> tuple[str, ...]:
        """Dynamic targets of a site, deterministically ordered, memoised.

        Virtual sites rotate through the overrider set starting at a
        hash-picked offset so different call sites exercise different
        concrete implementations.  Resolution and rotation depend only
        on the static program, so they are computed once per distinct
        ``(callee, kind, pointer_id)`` and reused for every invocation.
        """
        key = (site.callee, site.kind, site.pointer_id)
        cached = self._target_cache.get(key)
        if cached is not None:
            return cached
        targets = resolve_call_targets(
            self._program,
            _as_ir_site(site),
            include_dynamic_pointers=True,
        )
        if len(targets) > 1:
            offset = stable_hash(f"{site.callee}:{site.pointer_id}") % len(targets)
            targets = targets[offset:] + targets[:offset]
        resolved = tuple(targets)
        self._target_cache[key] = resolved
        return resolved

    def _record_of(self, name: str) -> _FnRecord | None:
        """Per-function execution record, memoised (None: fully inlined)."""
        rec = self._records.get(name)
        if rec is None and name not in self._records:
            rec = self._build_record(name)
            self._records[name] = rec
        return rec

    def _build_record(self, name: str) -> _FnRecord | None:
        mf = self._functions.get(name)
        if mf is None:
            # target was fully inlined: its cost lives in the caller already
            return None
        sites: list[_SiteRecord] = []
        split = self.workload.split
        effective = self.workload.effective_count
        # the one-shot root_scale (rank-dependent iteration counts)
        # applies to sites of the once-per-run spine — but never to
        # spine-internal links (main -> timeLoop), otherwise the factor
        # would compound once per spine edge instead of applying once
        spine: set[str] = (
            self._root_region()
            if self.workload.root_scale != 1.0 and name in self._root_region()
            else set()
        )
        for site in mf.call_sites:
            targets = self._site_targets(site)
            if not targets:
                continue
            root = bool(spine) and not (
                len(targets) == 1 and targets[0] in spine
            )
            if targets[0] in _LIFECYCLE:
                # lifecycle calls are one-shot: never scaled, never charged
                walked, charged = site.count, 0
            else:
                walked, charged = split(site.count, root=root)
            sites.append(
                _SiteRecord(
                    targets=targets,
                    n_targets=len(targets),
                    walked=walked,
                    charged=charged,
                    effective=effective(site.count, root=root),
                )
            )
        return _FnRecord(
            mf=mf,
            name=mf.name,
            base_cost=mf.base_cost,
            is_mpi=mf.is_mpi,
            sites=sites,
            sleds=self._sled_addresses(mf),
        )

    def _sled_addresses(self, mf: MachineFunction) -> tuple[int, int] | None:
        """Absolute (entry, exit) sled addresses of ``mf`` as loaded."""
        if not mf.xray_instrumented:
            return None
        for lo in self.loaded:
            if lo.binary.functions.get(mf.name) is mf:
                start = lo.base + mf.offset
                return (
                    start + FUNCTION_HEADER_BYTES,
                    start + mf.size_bytes - SLED_BYTES,
                )
        return None

    def _root_region(self) -> set[str]:
        """The once-per-run spine: where ``root_scale`` applies.

        The entry function belongs to the spine; so does any function
        whose *only* invocation is one single-target, declared-once
        call site of a spine function (e.g. ``main -> timeLoop``).
        Scaling a spine function's non-spine call-site counts scales
        the application's total iteration count — and therefore its
        work — *linearly*, which is the contract of the per-rank
        imbalance model.  Membership tests the **declared** site count,
        so it is purely static: independent of ``root_scale`` *and* of
        the compounding ``scale`` knob.
        """
        if self._root_region_set is not None:
            return self._root_region_set
        region = self._tables.root_region
        if region is None:
            region = self._tables.root_region = self._spine()
        self._root_region_set = region
        if self.workload.root_scale != 1.0 and not self._spine_has_scalable_site(
            region
        ):
            import warnings

            warnings.warn(
                f"Workload.root_scale={self.workload.root_scale} has no "
                f"effect on {self._program.name!r}: every call site of the "
                f"once-per-run spine is itself a spine link, so no "
                f"iteration count can be scaled (per-rank imbalance will "
                f"report a load balance of 1.0)",
                RuntimeWarning,
                stacklevel=3,
            )
        return region

    def _spine(self) -> set[str]:
        # target -> caller names over every machine call site
        callers: dict[str, list[str]] = {}
        for mf in self._functions.values():
            for site in mf.call_sites:
                for target in self._site_targets(site):
                    callers.setdefault(target, []).append(mf.name)
        region = {self._program.entry}
        frontier = [self._program.entry]
        while frontier:
            mf = self._functions.get(frontier.pop())
            if mf is None:
                continue
            for site in mf.call_sites:
                targets = self._site_targets(site)
                if len(targets) != 1 or site.count != 1:
                    continue
                target = targets[0]
                if target in region:
                    continue
                names = callers.get(target, ())
                if len(names) == 1 and names[0] == mf.name:
                    region.add(target)
                    frontier.append(target)
        return region

    def _spine_has_scalable_site(self, region: set[str]) -> bool:
        """True if any spine call site actually receives ``root_scale``."""
        for fname in region:
            mf = self._functions.get(fname)
            if mf is None:
                continue
            for site in mf.call_sites:
                targets = self._site_targets(site)
                if not targets or targets[0] in _LIFECYCLE:
                    continue
                if len(targets) != 1 or targets[0] not in region:
                    return True
        return False

    # -- execution -------------------------------------------------------------

    def _enter(self, name: str, depth: int) -> _Frame | None:
        """Process one function entry; returns the frame to descend into.

        MPI stubs and fully-inlined targets are handled in place and
        yield no frame, exactly like the leaf cases of the former
        recursive walker.
        """
        rec = self._record_of(name)
        if rec is None:
            return None
        result = self._result
        assert result is not None
        if rec.is_mpi:
            self._mpi_call(rec.mf)
            return None
        result.entry_events += 1
        calls = result.per_function_calls
        calls[name] = calls.get(name, 0) + 1
        self._fire_sled(rec, entry=True)
        base_cost = rec.base_cost
        self.clock.advance(base_cost)
        result.useful_cycles += base_cost
        sites = rec.sites if depth < self.workload.max_depth else _NO_SITES
        return _Frame(rec, depth + 1, sites)

    def _execute(self, name: str, depth: int) -> None:
        """Walk one call tree with an explicit frame stack (no recursion).

        The traversal order, clock charges, event counts and the
        per-site event-budget check are identical to the recursive
        formulation: each site's budget split is decided when the walk
        first reaches the site, its walked repetitions descend in
        order, and the analytic residual is charged after the last one.
        """
        result = self._result
        assert result is not None
        event_budget = self.workload.event_budget
        frame = self._enter(name, depth)
        if frame is None:
            return
        stack = [frame]
        while stack:
            frame = stack[-1]
            site = frame.site
            if site is None:
                if frame.si < len(frame.sites):
                    site = frame.sites[frame.si]
                    frame.si += 1
                    walked = site.walked
                    charged = site.charged
                    if result.entry_events >= event_budget:
                        charged += walked
                        walked = 0
                    frame.site = site
                    frame.walked = walked
                    frame.charged = charged
                    frame.i = 0
                    continue
                result.exit_events += 1
                self._fire_sled(frame.rec, entry=False)
                stack.pop()
                continue
            if frame.i < frame.walked:
                targets = site.targets
                n = site.n_targets
                target = targets[0] if n == 1 else targets[frame.i % n]
                frame.i += 1
                child = self._enter(target, frame.child_depth)
                if child is not None:
                    stack.append(child)
                continue
            if frame.charged > 0:
                self._charge(site.targets[0], frame.charged)
            frame.site = None

    def _mpi_call(self, mf: MachineFunction) -> None:
        result = self._result
        assert result is not None
        if self.pmpi is None:
            # headless run (no MPI world): charge the stub cost only
            self.clock.advance(mf.base_cost)
            return
        cycles = self.pmpi.call(mf.name)
        self.clock.advance(cycles)

    # -- sleds --------------------------------------------------------------------

    def _fire_sled(self, rec: _FnRecord, *, entry: bool) -> None:
        addrs = rec.sleds
        if self.xray_runtime is None or addrs is None:
            return
        fired = self.xray_runtime.fire_sled(addrs[0] if entry else addrs[1])
        if fired:
            self.clock.advance(self.cost_model.patched_dispatch)
        else:
            self.clock.advance(self.cost_model.nop_sled)

    def _patch_epoch(self) -> int:
        """Monotone counter of sled-state changes (patch + unpatch ops)."""
        if self.xray_runtime is None:
            return 0
        stats = self.xray_runtime.patcher.stats
        return stats.patched + stats.unpatched

    def _check_sled_caches(self) -> None:
        """Drop sled-state-derived caches if any sled changed since."""
        epoch = self._patch_epoch()
        if epoch != self._cache_epoch:
            self._patched_cache.clear()
            self._analytic_memo.clear()
            self._cache_epoch = epoch

    def _is_patched(self, name: str) -> bool:
        if self.xray_runtime is None:
            return False
        self._check_sled_caches()
        cached = self._patched_cache.get(name)
        if cached is None:
            rec = self._record_of(name)
            addrs = rec.sleds if rec is not None else None
            cached = bool(
                addrs and self.xray_runtime.patcher.read_sled(addrs[0]) is not None
            )
            self._patched_cache[name] = cached
        return cached

    # -- analytic charging -----------------------------------------------------------

    def _charge(self, name: str, times: int) -> None:
        """Charge ``times`` capped-off invocations of ``name`` analytically."""
        totals = self._analytic(name)
        result = self._result
        assert result is not None
        extra_mpi = self._interceptor_estimate() * totals.mpi_calls * times
        self.clock.advance(times * totals.cycles + extra_mpi)
        result.useful_cycles += times * totals.useful
        result.charged_only_calls += times * totals.entries
        if self.pmpi is not None:
            result.mpi_cycles += times * totals.mpi_cycles
            result.mpi_calls += times * totals.mpi_calls

    def _interceptor_estimate(self) -> float:
        """Current per-MPI-call interceptor overhead (e.g. TALP's)."""
        if self.pmpi is None:
            return 0.0
        return sum(
            interceptor.estimate_extra()
            for interceptor in self.pmpi.interceptors
            if hasattr(interceptor, "estimate_extra")
        )

    def _analytic(self, name: str) -> _AnalyticTotals:
        """Memoised per-invocation subtree cost (cycles/useful/MPI/events).

        Computed iteratively over the call DAG; back edges of recursion
        cycles contribute a single level (consistent with the depth cap
        applied to walked execution).  The memo is keyed to the XRay
        patch epoch: any patch/unpatch since it was filled invalidates
        it wholesale, because patched-sled dispatch costs feed the
        closure.
        """
        self._check_sled_caches()
        memo = self._analytic_memo
        if name in memo:
            return memo[name]
        in_progress: set[str] = set()
        stack: list[tuple[str, int]] = [(name, 0)]
        order: list[str] = []
        while stack:
            fn_name, state = stack.pop()
            if state == 0:
                if fn_name in memo or fn_name in in_progress:
                    continue
                in_progress.add(fn_name)
                stack.append((fn_name, 1))
                rec = self._record_of(fn_name)
                if rec is None or rec.is_mpi:
                    continue
                for site in rec.sites:
                    for target in site.targets:
                        if target not in memo and target not in in_progress:
                            stack.append((target, 0))
            else:
                order.append(fn_name)
        for fn_name in order:
            memo[fn_name] = self._analytic_of(fn_name, memo)
        return memo[name]

    def _analytic_of(
        self, name: str, memo: dict[str, _AnalyticTotals]
    ) -> _AnalyticTotals:
        rec = self._record_of(name)
        totals = _AnalyticTotals()
        if rec is None:
            return totals
        mf = rec.mf
        if rec.is_mpi:
            if self.pmpi is not None:
                cost = self.pmpi.comm.cost_of(mf.name)
                totals.cycles = cost
                totals.mpi_cycles = cost
                totals.mpi_calls = 1
            else:
                totals.cycles = mf.base_cost
            return totals
        totals.entries = 1
        totals.useful = mf.base_cost
        totals.cycles = mf.base_cost
        patched = (
            mf.xray_instrumented
            and self.xray_runtime is not None
            and self._is_patched(name)
        )
        if mf.xray_instrumented and self.xray_runtime is not None:
            if patched:
                per_sled = (
                    self.cost_model.patched_dispatch
                    + self.cost_model.handler_cost(self.tool)
                    + self.handler_extra
                )
            else:
                per_sled = self.cost_model.nop_sled
            totals.cycles += 2 * per_sled
        for site in rec.sites:
            count = site.effective
            if count == 0:
                continue
            sub = memo.get(site.targets[0], _AnalyticTotals())
            totals.cycles += count * sub.cycles
            totals.useful += count * sub.useful
            totals.mpi_cycles += count * sub.mpi_cycles
            totals.mpi_calls += count * sub.mpi_calls
            totals.entries += count * sub.entries
        if patched and self.tool == "talp" and totals.mpi_calls > 0:
            # mirror the walked path: a TALP region whose instance saw
            # MPI pays the POP accounting update on exit
            totals.cycles += self.cost_model.talp_mpi_region_update
        return totals


def _as_ir_site(site: MachineCallSite):
    """Bridge a machine call site back to an IR site for target lookup."""
    from repro.program.ir import CallSite

    return CallSite(
        callee=site.callee,
        kind=site.kind,
        pointer_id=site.pointer_id,
        calls_per_invocation=max(site.count, 0),
    )
