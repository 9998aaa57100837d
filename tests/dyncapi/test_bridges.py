"""Unit tests for the Score-P and TALP DynCaPI bridges."""

import pytest

from repro.core.ic import InstrumentationConfig
from repro.dyncapi.handlers import CygProfileDispatcher
from repro.dyncapi.runtime import DynCapi
from repro.dyncapi.scorep_bridge import ScorePBridge
from repro.dyncapi.talp_bridge import TalpBridge
from repro.execution.clock import VirtualClock
from repro.program.loader import DynamicLoader
from repro.scorep.measurement import ScorePMeasurement
from repro.simmpi.world import MpiWorld
from repro.talp.dlb import DlbLibrary
from repro.talp.monitor import TalpMonitor
from repro.xray.runtime import XRayRuntime
from repro.xray.trampoline import EventType


@pytest.fixture
def started(demo_linked):
    loader = DynamicLoader()
    loader.load_program(demo_linked)
    clock = VirtualClock()
    dyn = DynCapi(xray=XRayRuntime(loader.image), loader=loader, clock=clock)
    dyn.startup(ic=None)
    return dyn, loader, clock


def fire_function(dyn, name):
    packed = dyn.id_names.id_of(name)
    if packed is None:  # hidden functions have no nm-derived mapping
        for candidate in dyn.xray.packed_ids():
            if dyn.xray.function_name(candidate) == name:
                packed = candidate
                break
    obj = dyn.xray.object(packed.object_id)
    for sled in obj.sleds_of(packed.function_id):
        dyn.xray.fire_sled(sled.address)


class TestCygDispatcher:
    def test_addresses_delivered(self, started):
        dyn, loader, clock = started
        seen = []
        dispatcher = CygProfileDispatcher(
            runtime=dyn.xray,
            clock=clock,
            on_enter=lambda addr: seen.append(("in", addr)),
            on_exit=lambda addr: seen.append(("out", addr)),
        )
        dyn.xray.set_handler(dispatcher.handler)
        fire_function(dyn, "kernel")
        assert [k for k, _ in seen] == ["in", "out"]
        addr = seen[0][1]
        assert loader.loaded["demo"].region.contains(addr)
        assert dispatcher.events == 2


class TestScorePBridge:
    def make_bridge(self, started, inject=True):
        dyn, loader, clock = started
        measurement = ScorePMeasurement(clock=clock)
        bridge = ScorePBridge(
            runtime=dyn.xray,
            loader=loader,
            measurement=measurement,
            clock=clock,
        )
        if inject:
            bridge.inject_dso_symbols(dyn.process.symbols)
        dyn.xray.set_handler(bridge.handler)
        return dyn, bridge, measurement

    def test_exe_functions_always_resolve(self, started):
        dyn, bridge, measurement = self.make_bridge(started, inject=False)
        fire_function(dyn, "kernel")
        measurement.finalize()
        assert "kernel" in measurement.profile().children

    def test_dso_functions_need_injection(self, started):
        dyn, bridge, measurement = self.make_bridge(started, inject=False)
        fire_function(dyn, "lib_helper")
        assert bridge.unresolved_events == 2
        measurement.finalize()
        names = set(measurement.profile().children)
        assert any(n.startswith("UNKNOWN@") for n in names)

    def test_injection_restores_dso_names(self, started):
        dyn, bridge, measurement = self.make_bridge(started, inject=True)
        fire_function(dyn, "lib_helper")
        assert bridge.unresolved_events == 0
        measurement.finalize()
        assert "lib_helper" in measurement.profile().children

    def test_injection_count(self, started):
        dyn, bridge, _ = self.make_bridge(started, inject=False)
        count = bridge.inject_dso_symbols(dyn.process.symbols)
        assert count > 0


class TestTalpBridge:
    def make_bridge(self, started, *, init_mpi=True):
        dyn, loader, clock = started
        world = MpiWorld()
        if init_mpi:
            world.init()
        monitor = TalpMonitor(clock=clock, world=world)
        bridge = TalpBridge(
            dlb=DlbLibrary(monitor), id_names=dyn.id_names, clock=clock
        )
        dyn.xray.set_handler(bridge.handler)
        return dyn, bridge, monitor

    def test_regions_registered_lazily(self, started):
        dyn, bridge, monitor = self.make_bridge(started)
        assert bridge.registered_count == 0
        fire_function(dyn, "kernel")
        assert bridge.registered_count == 1
        assert monitor.region_by_name("kernel").visits == 1

    def test_pre_init_entry_not_recorded(self, started):
        dyn, bridge, monitor = self.make_bridge(started, init_mpi=False)
        fire_function(dyn, "kernel")
        assert "kernel" in bridge.failed_registrations
        assert monitor.region_by_name("kernel") is None

    def test_retry_after_mpi_init(self, started):
        dyn, bridge, monitor = self.make_bridge(started, init_mpi=False)
        fire_function(dyn, "kernel")
        monitor.world.init()
        fire_function(dyn, "kernel")
        assert bridge.registered_count == 1
        assert "kernel" not in bridge.failed_registrations

    def test_unnamed_hidden_functions_skipped(self, started):
        """Events for unnameable (hidden) ids are dropped defensively.

        DynCaPI never patches them itself; this simulates a stale id
        map (e.g. after a dlopen raced the mapping rebuild).
        """
        dyn, bridge, monitor = self.make_bridge(started)
        for candidate in dyn.xray.packed_ids():
            if dyn.xray.function_name(candidate) == "lib_hidden":
                if not dyn.xray.is_patched(candidate):
                    dyn.xray.patch_function(candidate)
        fire_function(dyn, "lib_hidden")
        assert bridge.unnamed_events == 2
        assert bridge.registered_count == 0

    def test_region_bug_counted(self, started):
        dyn, bridge, monitor = self.make_bridge(started)
        monitor.bug_threshold = 0
        monitor.bug_modulus = 1  # every region affected
        fire_function(dyn, "kernel")
        assert "kernel" in bridge.failed_entries
