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

**Walk once, replay per run.**  The walk is fixed by the program and the
workload: which functions are entered and in which order, which MPI
operations run and which capped-off repetitions are charged never depend
on sled state, the tool or the clock.  So the engine records the walk
once as a *walk tape* — flat columns of op codes (ENTER, EXIT, MPI,
CHARGE) and operands, with the entry/exit event counts and per-function
calls counted while it is recorded — and every run replays the tape in
one loop.  A NOP sled is charged inline from the patcher's decoded
table; only a patched sled goes through :meth:`XRayRuntime.fire_sled`,
so the handler and the MPI calls add to the clock in exactly the walk's
order.  An analytic charge is priced inline too, from the run's table of
per-invocation subtree totals (``_analytic_memo``, filled on first use
of a name).  Tool code (the handler, PMPI interceptors, init/finalize
callbacks) may patch or unpatch sleds, also by writing their bytes
itself, so the replay re-reads the decoded table after every call out.
The caches that depend on sled state (``_patched_cache``,
``_analytic_memo``) are keyed on the process memory's write count, which
every write to a sled moves, so mid-run repatching can never serve
stale costs.

What the engine derives from the program alone is kept on the linked
program (:func:`~repro.program.loader.program_cache`) per loaded layout
— object names and bases — and shared by every run over that layout:
the function map, the call-target cache (dynamic targets with the
deterministic virtual-dispatch rotation applied), the once-per-run
spine and the static initialisers.  Per-function records (which also
carry the function's sled addresses) and tapes depend on the
:class:`Workload` *except* its ``root_scale``, so a layout keeps them in
one slot keyed on the workload with ``root_scale`` left out: every rank
of a multi-rank world, each with its own ``root_scale``, shares them.
``root_scale`` acts only on the call sites of the spine; an engine
re-splits those from its own workload, and the slot keeps one tape per
*walk shape* — the walked counts of those sites.

The tape is recorded with an explicit stack (no Python recursion), so
the dynamic call depth is bounded only by :attr:`Workload.max_depth`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace

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

#: tape op codes; ENTER and EXIT must stay 0 and 1 (they index the
#: replay's pair of sled columns)
_ENTER, _EXIT, _MPI, _CHARGE = range(4)


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

    __slots__ = ("targets", "n_targets", "count", "walked", "charged", "effective")

    #: dynamic targets, virtual-dispatch rotation already applied
    targets: tuple[str, ...]
    n_targets: int
    #: declared repetitions per invocation of the caller
    count: int
    #: workload split of the site count (lifecycle sites: count, 0)
    walked: int
    charged: int
    #: scaled repetition count for the analytic path
    effective: int


@dataclass
class _FnRecord:
    """Per-function execution record: everything a walk touches."""

    __slots__ = ("mf", "name", "base_cost", "is_mpi", "sites", "sleds")

    mf: MachineFunction
    name: str
    base_cost: float
    is_mpi: bool
    #: resolved call sites; sites without targets are dropped up front
    sites: list[_SiteRecord]
    #: absolute (entry, exit) sled addresses; None without sleds
    sleds: tuple[int, int] | None


class _Tape:
    """One walk shape's call-tree walk, recorded as flat columns.

    ``ops[k]`` is an op code; ``args[k]`` indexes the per-tape function
    columns for ENTER, EXIT and MPI, and the charge columns for CHARGE.
    A *spine charge* is the analytic residual of a call site
    ``root_scale`` acts on: ``charge_times`` holds its count under the
    recording run's ``root_scale``, and a run under another one re-reads
    it from its own records (``spine_charges``: charge index, caller,
    site position, repetitions walked there).
    """

    __slots__ = (
        "ops", "args", "names", "base_costs", "entry_sleds", "exit_sleds",
        "charge_names", "charge_times", "spine_charges", "root_scale",
        "entry_events", "exit_events", "calls", "missing_entry", "_index",
    )

    def __init__(self, root_scale: float) -> None:
        self.ops = array("B")
        self.args = array("i")
        #: per-tape function columns (sled addresses: 0 without sleds)
        self.names: list[str] = []
        self.base_costs: list[float] = []
        self.entry_sleds: list[int] = []
        self.exit_sleds: list[int] = []
        #: charge columns: target name and capped-off repetitions
        self.charge_names: list[str] = []
        self.charge_times = array("q")
        self.spine_charges: list[tuple[int, str, int, int]] = []
        self.root_scale = root_scale
        self.entry_events = 0
        self.exit_events = 0
        #: entries per function, in first-entry order
        self.calls: dict[str, int] = {}
        #: the entry function's name when it was not emitted
        self.missing_entry: str | None = None
        self._index: dict[str, int] | None = {}

    def _function(self, rec: _FnRecord) -> int:
        index = self._index
        fi = index.get(rec.name)
        if fi is None:
            fi = index[rec.name] = len(self.names)
            self.names.append(rec.name)
            self.base_costs.append(rec.base_cost)
            entry, exit_ = rec.sleds or (0, 0)
            self.entry_sleds.append(entry)
            self.exit_sleds.append(exit_)
        return fi

    def enter(self, rec: _FnRecord) -> None:
        self.ops.append(_ENTER)
        self.args.append(self._function(rec))
        self.entry_events += 1
        self.calls[rec.name] = self.calls.get(rec.name, 0) + 1

    def exit(self, rec: _FnRecord) -> None:
        self.ops.append(_EXIT)
        self.args.append(self._function(rec))
        self.exit_events += 1

    def mpi(self, rec: _FnRecord) -> None:
        self.ops.append(_MPI)
        self.args.append(self._function(rec))

    def charge(self, target: str, times: int) -> int:
        self.ops.append(_CHARGE)
        self.args.append(len(self.charge_names))
        self.charge_names.append(target)
        self.charge_times.append(times)
        return len(self.charge_names) - 1

    def seal(self) -> "_Tape":
        """Drop what only recording needs."""
        self._index = None
        return self


class _LayoutTables:
    """What engines derive from one loaded layout of one linked program."""

    __slots__ = (
        "functions", "target_cache", "root_region", "root_sites",
        "initializers", "workload", "records", "tapes",
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
        #: (spine function, site position) of every site root_scale splits
        self.root_sites: tuple[tuple[str, int], ...] | None = None
        #: the single slot: records and tapes of ``workload`` (its
        #: root_scale left out)
        self.workload: Workload | None = None
        self.records: dict[str, _FnRecord | None] = {}
        #: walk shape -> tape
        self.tapes: dict[tuple[int, ...], _Tape] = {}

    @classmethod
    def of(cls, linked: LinkedProgram, loaded: list[LoadedObject]) -> "_LayoutTables":
        layouts = program_cache(linked).layouts
        key = tuple((lo.binary.name, lo.base) for lo in loaded)
        tables = layouts.get(key)
        if tables is None:
            tables = layouts[key] = cls(loaded)
        return tables

    def slot_for(self, workload: Workload) -> None:
        """Point the slot at ``workload`` with its ``root_scale`` left
        out, emptied if it held another workload's."""
        if workload.root_scale != 1.0:
            workload = replace(workload, root_scale=1.0)
        if workload != self.workload:
            self.workload = workload
            self.records = {}
            self.tapes = {}


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
        self._tables.slot_for(self.workload)
        #: function name -> _FnRecord (or None for fully-inlined targets),
        #: split as if ``root_scale`` were 1.0
        self._records = self._tables.records
        #: walk shape -> tape
        self._tapes = self._tables.tapes
        #: spine records re-split under this run's ``root_scale``
        self._scaled: dict[str, _FnRecord] = {}
        if self.workload.root_scale != 1.0:
            self._scaled = self._scaled_spine()
        self._patched_cache: dict[str, bool] = {}
        #: name -> per-invocation subtree totals: the run's price table
        #: for analytic charges
        self._analytic_memo: dict[str, _AnalyticTotals] = {}
        #: the memory's write count the sled-state caches agree with
        self._cache_writes = self._sled_writes()
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
            self._check_root_scale()
        tape = self._tape()
        self._replay(tape)
        if tape.missing_entry is not None:
            raise ExecutionError(f"entry function {tape.missing_entry!r} was not emitted")
        result.entry_events = tape.entry_events
        result.exit_events = tape.exit_events
        result.per_function_calls = dict(tape.calls)
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
        rec = self._scaled.get(name)
        if rec is not None:
            return rec
        rec = self._records.get(name)
        if rec is None and name not in self._records:
            rec = self._build_record(name)
            self._records[name] = rec
        return rec

    def _build_record(self, name: str) -> _FnRecord | None:
        """The record of ``name`` with every site split as if
        ``root_scale`` were 1.0 (see :meth:`_scaled_spine`)."""
        mf = self._functions.get(name)
        if mf is None:
            # target was fully inlined: its cost lives in the caller already
            return None
        sites: list[_SiteRecord] = []
        for site in mf.call_sites:
            targets = self._site_targets(site)
            if targets:
                sites.append(self._site_record(targets, site.count, root=False))
        return _FnRecord(
            mf=mf,
            name=mf.name,
            base_cost=mf.base_cost,
            is_mpi=mf.is_mpi,
            sites=sites,
            sleds=self._sled_addresses(mf),
        )

    def _site_record(
        self, targets: tuple[str, ...], count: int, *, root: bool
    ) -> _SiteRecord:
        if targets[0] in _LIFECYCLE:
            # lifecycle calls are one-shot: never scaled, never charged
            walked, charged = count, 0
        else:
            walked, charged = self.workload.split(count, root=root)
        return _SiteRecord(
            targets=targets,
            n_targets=len(targets),
            count=count,
            walked=walked,
            charged=charged,
            effective=self.workload.effective_count(count, root=root),
        )

    def _scaled_spine(self) -> dict[str, _FnRecord]:
        """The spine's records with this run's ``root_scale`` applied.

        The one-shot ``root_scale`` (rank-dependent iteration counts)
        applies to sites of the once-per-run spine — but never to
        spine-internal links (main -> timeLoop), otherwise the factor
        would compound once per spine edge instead of applying once.
        """
        region = self._root_region()
        scaled = {}
        for name in region:
            rec = self._record_of(name)
            if rec is None:
                continue
            sites = [
                site
                if site.n_targets == 1 and site.targets[0] in region
                else self._site_record(site.targets, site.count, root=True)
                for site in rec.sites
            ]
            scaled[name] = replace(rec, sites=sites)
        return scaled

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

    def _check_root_scale(self) -> None:
        """Warn when this run's ``root_scale`` has nothing to act on."""
        if not self._spine_has_scalable_site(self._root_region()):
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
        region = self._tables.root_region
        if region is None:
            region = self._tables.root_region = self._spine()
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

    def _root_sites(self) -> tuple[tuple[str, int], ...]:
        """(spine function, site position) of every site whose walked
        and charged counts ``root_scale`` changes, in a fixed order."""
        tables = self._tables
        if tables.root_sites is None:
            region = self._root_region()
            found = []
            for name in sorted(region):
                rec = self._record_of(name)
                for pos, site in enumerate(rec.sites if rec is not None else ()):
                    if site.targets[0] in _LIFECYCLE or (
                        site.n_targets == 1 and site.targets[0] in region
                    ):
                        continue
                    found.append((name, pos))
            tables.root_sites = tuple(found)
        return tables.root_sites

    # -- the walk tape -----------------------------------------------------------

    def _tape(self) -> _Tape:
        """This run's tape: the slot's tape of its walk shape, recorded
        on first use."""
        # the walked counts of the sites root_scale splits: runs whose
        # shapes match walk the same tree
        shape = tuple(
            self._record_of(name).sites[pos].walked for name, pos in self._root_sites()
        )
        tape = self._tapes.get(shape)
        if tape is None:
            tape = self._record_tape(frozenset(self._root_sites()))
            self._tapes[shape] = tape
        return tape

    def _record_tape(self, root_sites: frozenset[tuple[str, int]]) -> _Tape:
        """Walk the call tree as a run does and record what it does.

        The traversal order, event counts and the per-site event-budget
        check are the walk's: each site's budget split is decided when
        the walk first reaches the site, its walked repetitions descend
        in order, and the analytic residual is charged after the last
        one.
        """
        tape = _Tape(self.workload.root_scale)
        for name in self._tables.initializers:
            self._record_tree(tape, name, root_sites)
        entry = self._program.entry
        if entry in self._functions:
            self._record_tree(tape, entry, root_sites)
        else:
            tape.missing_entry = entry
        return tape.seal()

    def _record_tree(
        self, tape: _Tape, name: str, root_sites: frozenset[tuple[str, int]]
    ) -> None:
        """Record one call tree from ``name`` at depth 0."""
        budget = self.workload.event_budget
        max_depth = self.workload.max_depth

        def frame(rec: _FnRecord, depth: int):
            # yields the targets to descend into, in walk order
            for pos, site in enumerate(rec.sites if depth < max_depth else ()):
                walked, charged = site.walked, site.charged
                if tape.entry_events >= budget:
                    charged += walked
                    walked = 0
                targets, n = site.targets, site.n_targets
                for i in range(walked):
                    yield targets[0] if n == 1 else targets[i % n]
                if (rec.name, pos) in root_sites:
                    # kept even when 0: another root_scale may charge here
                    index = tape.charge(targets[0], charged)
                    tape.spine_charges.append((index, rec.name, pos, walked))
                elif charged > 0:
                    tape.charge(targets[0], charged)
            tape.exit(rec)

        stack: list = []
        target: str | None = name
        depth = 0
        while True:
            if target is not None:
                rec = self._record_of(target)
                if rec is not None and rec.is_mpi:
                    tape.mpi(rec)
                elif rec is not None:
                    tape.enter(rec)
                    stack.append((frame(rec, depth), depth + 1))
            if not stack:
                return
            walk, depth = stack[-1]
            target = next(walk, None)
            if target is None:
                stack.pop()

    def _replay(self, tape: _Tape) -> None:
        """Run the tape: charge the clock and call out, in walk order."""
        result = self._result
        assert result is not None
        clock = self.clock
        runtime = self.xray_runtime
        pmpi = self.pmpi
        nop = self.cost_model.nop_sled
        dispatch = self.cost_model.patched_dispatch
        names = tape.names
        base_costs = tape.base_costs
        charge_names = tape.charge_names
        charge_times = tape.charge_times
        if self.workload.root_scale != tape.root_scale:
            charge_times = array("q", charge_times)
            for index, caller, pos, walked in tape.spine_charges:
                site = self._record_of(caller).sites[pos]
                charge_times[index] = site.walked + site.charged - walked
        if runtime is None:
            sleds = ([0] * len(names),) * 2
            decoded = registered = refresh = None
        else:
            sleds = (tape.entry_sleds, tape.exit_sleds)
            # both live: the patcher updates the decoded table in place
            # until a write it did not make drops it (re-read after every
            # call out); (de)registration edits the index in place
            registered = runtime.sled_index
            refresh = runtime.decoded
            decoded = refresh()
        # an analytic charge reads the price table while the memory saw
        # no write since it was filled; a subtree that makes MPI calls
        # adds the interceptors' estimate as it stands at the charge
        # (TALP's follows its open regions; the tool registers its
        # interceptors before the run), and without an MPI world a
        # subtree makes none
        prices = self._analytic_memo
        memory = runtime.patcher.memory if runtime is not None else None
        writes = self._cache_writes
        estimators = [] if pmpi is None else [
            i.estimate_extra for i in pmpi.interceptors if hasattr(i, "estimate_extra")
        ]
        cycles = clock.cycles
        useful = result.useful_cycles
        charged_calls = result.charged_only_calls
        mpi_cycles = result.mpi_cycles
        mpi_calls = result.mpi_calls
        for op, arg in zip(tape.ops, tape.args):
            if op <= _EXIT:
                at = sleds[op][arg]
                if not at:
                    pass
                elif at in decoded or at not in registered:
                    # a patched sled, or one no object registered: its bytes
                    clock.cycles = cycles
                    fired = runtime.fire_sled(at)
                    decoded = refresh()
                    cycles = clock.cycles + (dispatch if fired else nop)
                else:
                    cycles += nop
                if op == _ENTER:
                    cost = base_costs[arg]
                    cycles += cost
                    useful += cost
            elif op == _MPI:
                if pmpi is None:
                    # headless run (no MPI world): charge the stub cost only
                    cycles += base_costs[arg]
                    continue
                clock.cycles = cycles
                clock.advance(pmpi.call(names[arg]))
                cycles = clock.cycles
                if refresh is not None:
                    decoded = refresh()
            else:
                times = charge_times[arg]
                if times <= 0:
                    continue
                totals = prices.get(charge_names[arg])
                if totals is None or (memory is not None and memory.writes != writes):
                    totals = self._analytic(charge_names[arg])
                    writes = self._cache_writes
                step = times * totals.cycles
                if totals.mpi_calls:
                    step += sum(e() for e in estimators) * totals.mpi_calls * times
                cycles += step
                useful += times * totals.useful
                charged_calls += times * totals.entries
                mpi_cycles += times * totals.mpi_cycles
                mpi_calls += times * totals.mpi_calls
        clock.cycles = cycles
        result.useful_cycles = useful
        result.charged_only_calls = charged_calls
        result.mpi_cycles = mpi_cycles
        result.mpi_calls = mpi_calls

    # -- sleds --------------------------------------------------------------------

    def _sled_writes(self) -> int:
        """The memory's write count: it moves with every write to a
        sled, whether the patcher made it or not."""
        if self.xray_runtime is None:
            return 0
        return self.xray_runtime.patcher.memory.writes

    def _check_sled_caches(self) -> None:
        """Drop sled-state-derived caches if any byte was written since."""
        writes = self._sled_writes()
        if writes != self._cache_writes:
            self._patched_cache.clear()
            self._analytic_memo.clear()
            self._cache_writes = writes

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

    def _analytic(self, name: str) -> _AnalyticTotals:
        """Memoised per-invocation subtree cost (cycles/useful/MPI/events).

        Computed iteratively over the call DAG; back edges of recursion
        cycles contribute a single level (consistent with the depth cap
        applied to walked execution).  The memo is keyed to the memory's
        write count: any write since it was filled — a patch, an unpatch
        or bytes written behind the patcher's back — invalidates it
        wholesale, because patched-sled dispatch costs feed the closure.
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
