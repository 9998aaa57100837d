"""Tests for DynCaPI: symbols, id mapping, startup patching, repatch."""

import os

import pytest

from repro.core.ic import IC_ENV_VAR, InstrumentationConfig
from repro.dyncapi.runtime import DynCapi
from repro.dyncapi.symbols import (
    build_id_name_map,
    collect_all_symbols,
    collect_object_symbols,
)
from repro.execution.clock import VirtualClock
from repro.program.loader import DynamicLoader
from repro.xray.runtime import XRayRuntime


@pytest.fixture
def env(demo_linked):
    loader = DynamicLoader()
    loader.load_program(demo_linked)
    clock = VirtualClock()
    xray = XRayRuntime(loader.image)
    return DynCapi(xray=xray, loader=loader, clock=clock), loader, clock


class TestSymbolCollection:
    def test_exe_symbols_include_hidden(self, env):
        dyn, loader, _ = env
        exe = loader.loaded["demo"]
        names = {t.name for t in collect_object_symbols(exe)}
        assert "main" in names

    def test_dso_symbols_exclude_hidden(self, env):
        dyn, loader, _ = env
        dso = loader.loaded["libdemo.so"]
        names = {t.name for t in collect_object_symbols(dso)}
        assert "lib_helper" in names
        assert "lib_hidden" not in names

    def test_addresses_translated_to_load_base(self, env):
        dyn, loader, _ = env
        dso = loader.loaded["libdemo.so"]
        for triple in collect_object_symbols(dso):
            assert dso.region.contains(triple.address)


class TestIdNameMap:
    def test_hidden_dso_functions_unresolved(self, env):
        dyn, loader, _ = env
        report = dyn.startup(ic=None)
        id_map = dyn.id_names
        unresolved_names = set()
        for packed in id_map.unresolved:
            obj = dyn.xray.object(packed.object_id)
            unresolved_names.add(obj.function_names[packed.function_id])
        assert "lib_hidden" in unresolved_names
        assert "lib_init" in unresolved_names
        assert report.unresolved_ids == len(unresolved_names)

    def test_visible_functions_resolve_bidirectionally(self, env):
        dyn, loader, _ = env
        dyn.startup(ic=None)
        packed = dyn.id_names.id_of("lib_helper")
        assert packed is not None
        assert packed.object_id == 1
        assert dyn.id_names.name_of(packed) == "lib_helper"

    def test_standalone_builder(self, env):
        dyn, loader, _ = env
        dyn.startup(ic=None)
        rebuilt = build_id_name_map(dyn.xray, collect_all_symbols(loader))
        assert rebuilt.names == dyn.id_names.names


class TestStartup:
    def test_full_patching(self, env):
        dyn, loader, _ = env
        report = dyn.startup(ic=None)
        assert report.registered_dsos == 1
        # hidden functions cannot be patched (unnameable)
        assert report.patched_functions == len(dyn.id_names.names)
        assert report.patched_sleds == 2 * report.patched_functions

    def test_ic_filtered_patching(self, env):
        dyn, loader, _ = env
        ic = InstrumentationConfig(functions=frozenset({"kernel", "lib_helper"}))
        report = dyn.startup(ic=ic)
        assert report.patched_functions == 2
        assert report.skipped_not_in_ic > 0
        assert dyn.xray.patched_count() == 2

    def test_missing_in_binary_reported(self, env):
        """An IC naming a fully inlined function (or a typo) is flagged."""
        dyn, loader, _ = env
        ic = InstrumentationConfig(functions=frozenset({"tiny", "kernel"}))
        report = dyn.startup(ic=ic)
        assert "tiny" in report.missing_in_binary

    def test_init_cycles_accumulate(self, env):
        dyn, loader, clock = env
        report = dyn.startup(ic=None, tool_init_cycles=12345.0)
        assert report.init_cycles >= 12345.0
        assert clock.cycles == report.init_cycles

    def test_ic_from_environment(self, env, tmp_path):
        dyn, loader, _ = env
        ic = InstrumentationConfig(functions=frozenset({"kernel"}))
        path = tmp_path / "env.filter"
        ic.dump_filter(path)
        os.environ[IC_ENV_VAR] = str(path)
        try:
            report = dyn.startup()
            assert report.patched_functions == 1
        finally:
            del os.environ[IC_ENV_VAR]

    def test_startup_inactive_patches_nothing(self, env):
        dyn, loader, _ = env
        report = dyn.startup_inactive()
        assert report.patched_functions == 0
        assert dyn.xray.patched_count() == 0
        assert report.init_cycles > 0


class TestRepatch:
    def test_repatch_switches_selection_without_rebuild(self, env):
        """The paper's headline: adjust the IC in seconds, no recompile."""
        dyn, loader, _ = env
        dyn.startup(ic=InstrumentationConfig(functions=frozenset({"kernel"})))
        assert dyn.xray.patched_count() == 1
        report = dyn.repatch(InstrumentationConfig(functions=frozenset({"solve", "wrap1"})))
        assert report.patched_functions == 2
        assert dyn.xray.patched_count() == 2
        names_patched = {
            dyn.id_names.name_of(p)
            for p in dyn.xray.packed_ids()
            if dyn.xray.is_patched(p)
        }
        assert names_patched == {"solve", "wrap1"}

    def test_repatch_much_cheaper_than_rebuild(self, env, demo_program):
        from repro.core.static_inst import StaticInstrumenter
        from repro.execution.clock import CYCLES_PER_SECOND

        dyn, loader, clock = env
        dyn.startup(ic=InstrumentationConfig(functions=frozenset({"kernel"})))
        report = dyn.repatch(InstrumentationConfig(functions=frozenset({"solve"})))
        repatch_seconds = report.init_cycles / CYCLES_PER_SECOND
        rebuild_seconds = StaticInstrumenter(
            program=demo_program
        ).rebuild_cost_seconds()
        assert repatch_seconds < rebuild_seconds / 100


class TestDlopen:
    def test_late_loaded_dso_registered_and_patched(self, demo_linked):
        loader = DynamicLoader()
        loader.load(demo_linked.executable)
        clock = VirtualClock()
        dyn = DynCapi(xray=XRayRuntime(loader.image), loader=loader, clock=clock)
        dyn.startup(ic=None)
        before = dyn.xray.patched_count()
        lo = loader.dlopen(demo_linked.dsos[0])
        object_id = dyn.dlopen_dso(lo, None)
        assert object_id == 1
        assert dyn.xray.patched_count() > before
