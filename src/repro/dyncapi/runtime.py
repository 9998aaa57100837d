"""The DynCaPI runtime: startup patching according to the IC (paper §IV).

"During runtime, the DynCaPI library is responsible for directing the
dynamic instrumentation.  Patching is done at startup according to the
IC file passed via an environment variable.  DynCaPI also provides an
interface between the XRay events and the measurement tool."

Startup sequence (all charged to the virtual clock → Tinit):

1. initialise the main executable with the XRay runtime,
2. register every loaded DSO through the xray-dso runtime,
3. collect symbols and build the function-id → name mapping
   (cross-checked via ``__xray_function_address``),
4. load and parse the IC (from ``CAPI_FILTER_FILE`` or given directly),
5. patch the sleds of every IC function whose id could be named, and
6. install the measurement bridge as the XRay event handler.

Steps 1–3 depend on the linked program alone, not on the IC.  Their
result is a :class:`ProcessState`: built once per linked program, kept
on it and cloned into every run (:meth:`DynCapi.for_program`), so a
run's start-up costs what the run changes — the IC's sleds — and not
what the program holds.  The virtual clock is charged from the counts
the state carries, in the same amounts and order as doing the work.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.core.ic import IC_ENV_VAR, InstrumentationConfig
from repro.dyncapi.symbols import (
    IdNameMap,
    SymbolTriple,
    build_id_name_map,
    collect_all_symbols,
)
from repro.errors import PatchingError
from repro.execution.clock import VirtualClock
from repro.execution.costs import CostModel
from repro.program.linker import LinkedProgram
from repro.program.loader import DynamicLoader, LoadedObject, program_cache
from repro.xray.dso import XRayDsoRuntime
from repro.xray.ids import PackedId
from repro.xray.runtime import RuntimeSnapshot, XRayRuntime
from repro.xray.trampoline import Handler


@dataclass
class StartupReport:
    """What happened during DynCaPI startup (feeds §VI-B analyses)."""

    patched_functions: int = 0
    patched_sleds: int = 0
    skipped_not_in_ic: int = 0
    #: function ids that could not be named (hidden symbols, §VI-B(a))
    unresolved_ids: int = 0
    #: IC entries naming functions without sleds anywhere (e.g. fully
    #: inlined functions whose symbol survived — the §V-E caveat)
    missing_in_binary: list[str] = field(default_factory=list)
    registered_dsos: int = 0
    init_cycles: float = 0.0


@dataclass(frozen=True)
class ProcessState:
    """What start-up derives from the linked program alone (steps 1–3).

    Immutable or copied when cloned, so no run can change the start-up
    of the next.  :meth:`DynCapi.startup` charges the virtual clock from
    its counts (:attr:`registered_dsos`, :attr:`symbol_count`,
    :attr:`id_count`).
    """

    #: (object name, base) of every loaded object, in load order
    layout: tuple[tuple[str, int], ...]
    #: the XRay registration of every object, nothing patched
    xray: RuntimeSnapshot
    #: DSO name -> object id, as the xray-dso runtime registered them
    dsos: Mapping[str, int]
    #: object name -> its symbol triples (:func:`collect_all_symbols`)
    symbols: Mapping[str, tuple[SymbolTriple, ...]]
    id_names: IdNameMap

    @classmethod
    def build(
        cls, loader: DynamicLoader, xray: XRayRuntime, dso_runtime: XRayDsoRuntime
    ) -> "ProcessState":
        """Register every object ``loader`` holds with the fresh ``xray``
        runtime, collect the symbols and map ids to names."""
        exe: LoadedObject | None = None
        dsos: list[LoadedObject] = []
        for lo in loader.loaded.values():
            if lo.binary.is_dso:
                dsos.append(lo)
            else:
                exe = lo
        if exe is None:
            raise PatchingError("no executable loaded")
        xray.init_main_executable(
            exe.binary.name,
            exe.base,
            list(exe.binary.sled_records),
            dict(exe.binary.function_ids),
        )
        registered = {lo.binary.name: dso_runtime.on_load(lo) for lo in dsos}
        symbols = collect_all_symbols(loader)
        return cls(
            layout=_layout(loader),
            xray=xray.snapshot(),
            dsos=MappingProxyType(registered),
            symbols=MappingProxyType(
                {name: tuple(triples) for name, triples in symbols.items()}
            ),
            id_names=build_id_name_map(xray, symbols),
        )

    @property
    def registered_dsos(self) -> int:
        return len(self.dsos)

    @property
    def symbol_count(self) -> int:
        return sum(len(triples) for triples in self.symbols.values())

    @property
    def id_count(self) -> int:
        return len(self.id_names.names) + self.id_names.unresolved_count


def _layout(loader: DynamicLoader) -> tuple[tuple[str, int], ...]:
    return tuple((name, lo.base) for name, lo in loader.loaded.items())


def process_state(linked: LinkedProgram) -> ProcessState:
    """The start-up state of ``linked``, kept on the program.

    Built on first use, by the start-up of a throwaway process, and
    never changed afterwards; :meth:`DynCapi.for_program` clones it.
    """
    cache = program_cache(linked)
    if cache.startup is None:
        loader = DynamicLoader()
        loader.load_program(linked)
        xray = XRayRuntime(loader.image)
        cache.startup = ProcessState.build(loader, xray, XRayDsoRuntime(xray))
    return cache.startup


@dataclass
class DynCapi:
    """Process-wide DynCaPI state."""

    xray: XRayRuntime
    loader: DynamicLoader
    clock: VirtualClock
    cost_model: CostModel = field(default_factory=CostModel)
    dso_runtime: XRayDsoRuntime = field(init=False)
    id_names: IdNameMap = field(default_factory=IdNameMap)
    #: this process's start-up state: cloned by :meth:`for_program`,
    #: otherwise built by the first start-up
    process: ProcessState | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.dso_runtime = XRayDsoRuntime(self.xray)

    @classmethod
    def for_program(
        cls,
        linked: LinkedProgram,
        *,
        clock: VirtualClock,
        cost_model: CostModel | None = None,
    ) -> "DynCapi":
        """DynCaPI over a fresh process of ``linked``: the program is
        loaded anew and its :func:`process_state` cloned into it."""
        state = process_state(linked)
        loader = DynamicLoader()
        loader.load_program(linked)
        # loading is deterministic: a fresh process lays out like the first
        assert _layout(loader) == state.layout, "process layout changed"
        xray = XRayRuntime.restore(loader.image, state.xray)
        dyn = cls(
            xray=xray, loader=loader, clock=clock, cost_model=cost_model or CostModel()
        )
        dyn.dso_runtime = XRayDsoRuntime(xray, dict(state.dsos))
        dyn.process = state
        return dyn

    # -- startup ------------------------------------------------------------------

    def startup(
        self,
        *,
        ic: InstrumentationConfig | None = None,
        handler: Handler | None = None,
        tool_init_cycles: float = 0.0,
    ) -> StartupReport:
        """Run the full startup sequence; returns the report.

        ``ic=None`` reproduces XRay's legacy mode: patch every sled
        ("xray full" in Table II).  If ``ic`` is None and the
        ``CAPI_FILTER_FILE`` environment variable points at a filter
        file, the IC is loaded from there, mirroring the paper's
        workflow.
        """
        report = StartupReport()
        start = self.clock.now()
        self.clock.advance(tool_init_cycles)

        state = self._process_state()
        self._charge_registration(state, report)
        self._charge_id_map(state, report)

        if ic is None and os.environ.get(IC_ENV_VAR):
            ic = InstrumentationConfig.load_filter(os.environ[IC_ENV_VAR])
        if ic is not None:
            self.clock.advance(self.cost_model.ic_parse_entry * len(ic))

        self._patch(ic, report)
        if handler is not None:
            self.xray.set_handler(handler)
        report.init_cycles = self.clock.now() - start
        return report

    def startup_inactive(self) -> StartupReport:
        """Plain XRay startup: objects register, nothing is patched.

        This is Table II's "xray inactive" configuration: sleds stay
        NOPs, no measurement library is initialised and no symbol
        collection is charged.  The whole point is that this costs
        almost nothing.
        """
        report = StartupReport()
        start = self.clock.now()
        self._charge_registration(self._process_state(), report)
        report.init_cycles = self.clock.now() - start
        return report

    # -- steps -----------------------------------------------------------------------

    def _process_state(self) -> ProcessState:
        """This process's start-up state: the clone :meth:`for_program`
        gave it or, for a DynCaPI built by hand over a fresh loader, built
        here on first use.  Start-up charges the same either way."""
        if self.process is None:
            self.process = ProcessState.build(self.loader, self.xray, self.dso_runtime)
        return self.process

    def _charge_registration(self, state: ProcessState, report: StartupReport) -> None:
        for _ in range(state.registered_dsos):
            self.clock.advance(self.cost_model.dso_register)
            report.registered_dsos += 1

    def _charge_id_map(self, state: ProcessState, report: StartupReport) -> None:
        self.clock.advance(self.cost_model.symbol_collect * state.symbol_count)
        self.id_names = state.id_names
        self.clock.advance(self.cost_model.id_translate * state.id_count)
        report.unresolved_ids = self.id_names.unresolved_count

    def _patch(
        self, ic: InstrumentationConfig | None, report: StartupReport
    ) -> None:
        """Patch the IC's functions (every named function for ``ic=None``)
        in packed-id order.

        Unresolved (hidden) functions have no name, so they can never be
        matched against the IC and are never patched (§VI-B(a)).
        """
        names = self.id_names.names
        if ic is None:
            targets = [p for p in self.xray.packed_ids() if p in names]
        else:
            ids = self.id_names.ids
            targets = sorted(
                (ids[name] for name in ic.functions if name in ids),
                key=PackedId.pack,
            )
            report.skipped_not_in_ic = len(names) - len(targets)
            report.missing_in_binary = sorted(
                name for name in ic.functions if name not in ids
            )
        for packed in targets:
            sleds = self.xray.patch_function(packed)
            report.patched_functions += 1
            report.patched_sleds += sleds
            self.clock.advance(self.cost_model.patch_sled * sleds)

    # -- runtime adjustment (the paper's headline feature) ------------------------------

    def repatch(self, new_ic: InstrumentationConfig) -> StartupReport:
        """Apply a different IC without recompilation or restart.

        Unpatches everything, then patches the new selection — the
        "substantial improvement of turnaround time" of §VII-A/§VIII.
        """
        report = StartupReport()
        start = self.clock.now()
        self.xray.unpatch_all()
        self.clock.advance(self.cost_model.ic_parse_entry * len(new_ic))
        self._patch(new_ic, report)
        report.init_cycles = self.clock.now() - start
        return report

    def dlopen_dso(self, lo: LoadedObject, ic: InstrumentationConfig | None) -> int:
        """Register and patch a DSO loaded after startup (dlopen path)."""
        object_id = self.dso_runtime.on_load(lo)
        self.clock.advance(self.cost_model.dso_register)
        self.id_names = build_id_name_map(self.xray, collect_all_symbols(self.loader))
        for fid in sorted(lo.binary.function_ids):
            packed = PackedId(object_id, fid)
            name = self.id_names.name_of(packed)
            if name is None:
                continue
            if ic is not None and name not in ic:
                continue
            sleds = self.xray.patch_function(packed)
            self.clock.advance(self.cost_model.patch_sled * sleds)
        return object_id
