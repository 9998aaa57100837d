"""DynCaPI → Score-P bridge with symbol injection (paper §V-C.1).

Score-P's generic interface receives addresses and resolves names by
mapping the executable — it "is unable to resolve addresses from shared
objects".  DynCaPI's *symbol injection* examines the virtual memory
layout, loads each object's local symbol addresses (``nm``), translates
them to their mapped location, and supplies the result to the Score-P
runtime, restoring DSO resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dyncapi.symbols import ObjectSymbols
from repro.execution.clock import VirtualClock
from repro.execution.costs import CostModel
from repro.program.loader import DynamicLoader
from repro.scorep.measurement import ScorePMeasurement
from repro.scorep.resolution import AddressResolver
from repro.scorep.tracing import ScorePTracer
from repro.xray.ids import PackedId
from repro.xray.runtime import XRayRuntime
from repro.xray.trampoline import EventType


@dataclass
class ScorePBridge:
    """Adapts XRay events to Score-P region events by address."""

    runtime: XRayRuntime
    loader: DynamicLoader
    measurement: ScorePMeasurement
    clock: VirtualClock
    cost_model: CostModel = field(default_factory=CostModel)
    resolver: AddressResolver | None = None
    #: optional event tracer (Score-P tracing mode)
    tracer: ScorePTracer | None = None
    #: events whose address could not be named (recorded as UNKNOWN@...)
    unresolved_events: int = 0

    def __post_init__(self) -> None:
        if self.resolver is None:
            exe = next(
                lo.binary.name
                for lo in self.loader.loaded.values()
                if not lo.binary.is_dso
            )
            self.resolver = AddressResolver(self.loader, exe)

    # -- symbol injection -------------------------------------------------------

    def inject_dso_symbols(self, symbols: ObjectSymbols) -> int:
        """Feed translated DSO symbol addresses to the resolver.

        ``symbols`` are the per-object triples DynCaPI collected at
        start-up (:attr:`~repro.dyncapi.runtime.ProcessState.symbols`);
        the resolver reads their DSO index, built once per program, in
        place.  Returns the number of injected symbols.  Without this
        call, every DSO event resolves to an UNKNOWN placeholder — the
        pre-injection Score-P behaviour.
        """
        assert self.resolver is not None
        self.resolver.inject_index(symbols.dso_index())
        return sum(len(symbols[name]) for name in symbols.dsos)

    # -- event handler --------------------------------------------------------------

    def handler(self, packed: PackedId, event: EventType) -> None:
        self.clock.advance(self.cost_model.cyg_shim)
        address = self.runtime.function_address(packed)
        assert self.resolver is not None
        name = self.resolver.resolve(address)
        if name is None:
            self.unresolved_events += 1
            name = f"UNKNOWN@{address:#x}"
        if event is EventType.ENTRY:
            self.measurement.region_enter(name)
            if self.tracer is not None:
                self.tracer.enter(name)
        else:
            self.measurement.region_exit(name)
            if self.tracer is not None:
                self.tracer.leave(name)

    def finalize(self) -> None:
        self.measurement.finalize()
