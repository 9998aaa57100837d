"""The start-up state a linked program keeps and every run clones.

Covers what makes cloning safe: the patcher's decoded sled table follows
the bytes (a write it did not make is seen), IC patching through the id
map reports exactly what a walk over every packed id reports, the state
is built once per program, loading writes nothing, and a finished run
is freed by reference counting alone.
"""

import gc
import pickle
import weakref
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dyncapi.runtime as dyncapi_runtime
from repro.core.ic import InstrumentationConfig
from repro.dyncapi.runtime import DynCapi, StartupReport, process_state
from repro.dyncapi.symbols import build_id_name_map, collect_all_symbols
from repro.execution.clock import VirtualClock
from repro.execution.costs import CostModel
from repro.execution.workload import Workload
from repro.multirank import ImbalanceSpec
from repro.program.loader import DynamicLoader, program_cache
from repro.workflow import BuiltApp, build_app, run_app
from repro.xray.dso import XRayDsoRuntime
from repro.xray.ids import PackedId
from repro.xray.runtime import RegisteredObject, XRayRuntime
from repro.xray.sled import SLED_BYTES, UNPATCHED, SledKind, encode_patch
from repro.xray.trampoline import EventType
from tests.conftest import make_demo_builder

WL = Workload(site_cap=3)

#: names the demo app's sleds can be patched under
NAMED = ("kernel", "main", "solve", "wrap1", "wrap2", "lib_helper")
#: hidden DSO functions (sleds, no loader-visible symbol), a fully
#: inlined function, MPI stubs (symbols, no sleds) and unknown names
UNNAMEABLE = ("lib_hidden", "lib_init", "tiny", "MPI_Init", "MPI_Allreduce",
              "no_such_function", "")


@pytest.fixture(scope="module")
def demo_app():
    return build_app(make_demo_builder().build())


def fresh_demo_app():
    return build_app(make_demo_builder().build())


def overwrite(image, address, payload):
    """A direct write to sled bytes, as a debugger (or a bug) makes it."""
    image.mprotect(address, SLED_BYTES, writable=True)
    image.write(address, payload)
    image.mprotect(address, SLED_BYTES, writable=False)


class TestSledTruth:
    """The decoded table serves the events, but the bytes stay the truth."""

    @pytest.fixture
    def dyn(self, demo_app):
        dyn = DynCapi.for_program(demo_app.linked, clock=VirtualClock())
        dyn.startup(ic=None)
        return dyn

    def test_foreign_unpatch_is_seen(self, dyn):
        packed = dyn.id_names.id_of("kernel")
        sled = dyn.xray.object(packed.object_id).sleds_of(packed.function_id)[0]
        before = dyn.xray.patched_count()
        assert dyn.xray.fire_sled(sled.address) is True
        overwrite(dyn.loader.image, sled.address, UNPATCHED)
        assert dyn.xray.fire_sled(sled.address) is False
        assert not dyn.xray.is_patched(packed)
        assert dyn.xray.patched_count() == before - 1

    def test_foreign_patch_is_seen(self, demo_app):
        dyn = DynCapi.for_program(demo_app.linked, clock=VirtualClock())
        dyn.startup(ic=InstrumentationConfig(functions=frozenset({"solve"})))
        events = []
        dyn.xray.set_handler(lambda pid, et: events.append((pid, et)))
        packed = dyn.id_names.id_of("kernel")
        obj = dyn.xray.object(packed.object_id)
        sleds = obj.sleds_of(packed.function_id)
        assert dyn.xray.patched_count() == 1
        for sled in sleds:
            trampoline = (
                obj.entry_trampoline
                if sled.record.kind is SledKind.ENTRY
                else obj.exit_trampoline
            )
            overwrite(
                dyn.loader.image,
                sled.address,
                encode_patch(packed.pack(), trampoline.trampoline_id),
            )
        assert dyn.xray.is_patched(packed)
        assert dyn.xray.patched_count() == 2
        entry = next(s for s in sleds if s.record.kind is SledKind.ENTRY)
        assert dyn.xray.fire_sled(entry.address) is True
        assert events == [(packed, EventType.ENTRY)]

    def test_patcher_keeps_table_in_step_with_its_own_writes(self, dyn):
        """The patcher's own writes never force a re-read."""
        image = dyn.loader.image
        reads = []
        original = image.read
        image.read = lambda address, length: reads.append(address) or original(
            address, length
        )
        dyn.xray.unpatch_all()
        assert dyn.xray.patched_count() == 0
        dyn.xray.patch_all()
        assert dyn.xray.patched_count() == len(dyn.xray.packed_ids())
        assert reads == []

    def test_patched_count_visits_only_patched_functions(self, demo_app, monkeypatch):
        dyn = DynCapi.for_program(demo_app.linked, clock=VirtualClock())
        dyn.startup(ic=InstrumentationConfig(functions=frozenset({"kernel"})))
        visited = []
        original = RegisteredObject.sleds_of

        def counting(self, function_id):
            visited.append((self.object_id, function_id))
            return original(self, function_id)

        monkeypatch.setattr(RegisteredObject, "sleds_of", counting)
        assert dyn.xray.patched_count() == 1
        kernel = dyn.id_names.id_of("kernel")
        assert visited == [(kernel.object_id, kernel.function_id)]


class TestLoading:
    def test_loading_writes_nothing(self, demo_app):
        loader = DynamicLoader()
        objs = loader.load_program(demo_app.linked)
        assert loader.image.mprotect_calls == 0
        assert loader.image.writes == 0
        for lo in objs:
            for record in lo.binary.sled_records:
                address = lo.sled_address(record)
                assert loader.image.read(address, SLED_BYTES) == UNPATCHED

    def test_each_process_maps_its_own_copy(self, demo_app):
        first, second = DynamicLoader(), DynamicLoader()
        first.load_program(demo_app.linked)
        second.load_program(demo_app.linked)
        region = first.loaded["demo"].region
        assert region.data is not second.loaded["demo"].region.data
        assert bytes(region.data) == demo_app.linked.executable.text


class TestBuiltOncePerProgram:
    def test_symbols_and_id_map_built_once(self, monkeypatch):
        app = fresh_demo_app()
        calls = {"symbols": 0, "idmap": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            dyncapi_runtime, "collect_all_symbols",
            counted("symbols", collect_all_symbols),
        )
        monkeypatch.setattr(
            dyncapi_runtime, "build_id_name_map", counted("idmap", build_id_name_map)
        )
        ic = InstrumentationConfig(functions=frozenset({"kernel", "solve"}))
        for tool in ("none", "scorep", "talp", "scorep"):
            run_app(app, mode="ic", tool=tool, ic=ic, workload=WL)
        assert calls == {"symbols": 1, "idmap": 1}

    def test_runs_do_not_change_the_kept_state(self, demo_app):
        state = process_state(demo_app.linked)

        def view():
            snap = state.xray
            return (
                dict(snap.sled_index), dict(snap.patched), dict(state.dsos),
                len(snap.trampolines), snap.next_dso_id,
            )

        kept = view()
        dyn = DynCapi.for_program(demo_app.linked, clock=VirtualClock())
        dyn.startup(ic=None)
        dyn.dso_runtime.on_unload("libdemo.so")
        assert process_state(demo_app.linked) is state
        assert view() == kept
        again = DynCapi.for_program(demo_app.linked, clock=VirtualClock())
        assert again.xray.patched_count() == 0
        assert again.xray.object_id_of("libdemo.so") == 1

    def test_pickling_drops_the_kept_state(self, demo_app):
        """A spawned worker receives the program, not its cache, and
        rebuilds the state on first use."""
        full = run_app(demo_app, mode="full", tool="scorep", workload=WL)
        clone = pickle.loads(pickle.dumps(demo_app.linked))
        assert program_cache(demo_app.linked).startup is not None
        assert program_cache(clone).startup is None
        again = run_app(
            BuiltApp(demo_app.program, clone, demo_app.graph),
            mode="full",
            tool="scorep",
            workload=WL,
        )
        assert again.result.t_total == full.result.t_total
        assert again.startup == full.startup

    def test_parent_builds_state_before_the_pool_forks(self):
        app = fresh_demo_app()
        assert program_cache(app.linked).startup is None
        run_app(
            app,
            mode="ic",
            tool="scorep",
            ic=InstrumentationConfig(functions=frozenset({"kernel"})),
            ranks=2,
            imbalance=ImbalanceSpec(),
            backend="multiprocessing",
            processes=2,
            workload=WL,
        )
        assert program_cache(app.linked).startup is not None


def reference_startup(linked, ic: InstrumentationConfig) -> StartupReport:
    """Start-up as a walk over every packed id, charging as it goes."""
    cm = CostModel()
    clock = VirtualClock()
    report = StartupReport()
    loader = DynamicLoader()
    exe, *dsos = loader.load_program(linked)
    xray = XRayRuntime(loader.image)
    xray.init_main_executable(
        exe.binary.name, exe.base, exe.binary.sled_records, exe.binary.function_ids
    )
    dso_runtime = XRayDsoRuntime(xray)
    for lo in dsos:
        dso_runtime.on_load(lo)
        clock.advance(cm.dso_register)
        report.registered_dsos += 1
    symbols = collect_all_symbols(loader)
    clock.advance(cm.symbol_collect * sum(len(t) for t in symbols.values()))
    id_names = build_id_name_map(xray, symbols)
    clock.advance(cm.id_translate * (len(id_names.names) + len(id_names.unresolved)))
    report.unresolved_ids = len(id_names.unresolved)
    clock.advance(cm.ic_parse_entry * len(ic))
    matched = set()
    for packed in xray.packed_ids():
        name = id_names.name_of(packed)
        if name is None:
            continue
        if name not in ic:
            report.skipped_not_in_ic += 1
            continue
        matched.add(name)
        sleds = xray.patch_function(packed)
        report.patched_functions += 1
        report.patched_sleds += sleds
        clock.advance(cm.patch_sled * sleds)
    report.missing_in_binary = sorted(ic.functions - matched)
    report.init_cycles = clock.now()
    return report


@settings(max_examples=60, deadline=None)
@given(names=st.frozensets(st.sampled_from(NAMED + UNNAMEABLE)))
def test_ic_patching_matches_walk_over_every_packed_id(demo_app, names):
    ic = InstrumentationConfig(functions=names)
    want = asdict(reference_startup(demo_app.linked, ic))
    loader = DynamicLoader()
    loader.load_program(demo_app.linked)
    by_hand = DynCapi(
        xray=XRayRuntime(loader.image), loader=loader, clock=VirtualClock()
    )
    assert asdict(by_hand.startup(ic=ic)) == want
    for _ in range(2):  # clones of the kept state: no run leaks into the next
        dyn = DynCapi.for_program(demo_app.linked, clock=VirtualClock())
        assert asdict(dyn.startup(ic=ic)) == want
        patched = {
            dyn.id_names.name_of(p)
            for p in dyn.xray.packed_ids()
            if dyn.xray.is_patched(p)
        }
        assert patched == names & set(NAMED)
        assert dyn.xray.patched_count() == len(patched)


def test_packed_ids_sort_in_patch_order(demo_app):
    """IC patching sorts by packed id; the full walk goes in the runtime's
    object order — the two agree, so the clock sees the same sequence."""
    dyn = DynCapi.for_program(demo_app.linked, clock=VirtualClock())
    ids = dyn.xray.packed_ids()
    assert ids == sorted(ids, key=PackedId.pack)


@pytest.mark.parametrize("tool", ["none", "scorep"])
def test_dropped_outcome_is_freed_without_the_cyclic_collector(demo_app, tool):
    gc.collect()
    gc.disable()
    try:
        outcome = run_app(demo_app, mode="full", tool=tool, workload=WL)
        runtime = weakref.ref(outcome.bridge.runtime)
        assert runtime() is not None
        del outcome
        assert runtime() is None
    finally:
        gc.enable()
