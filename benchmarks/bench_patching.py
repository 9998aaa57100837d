"""Patching and packed-id microbenchmarks (Tinit mechanics + Fig. 4).

Covers the runtime mechanics behind the Tinit column: sled patching
throughput, startup symbol collection/id mapping, and the packed-id
encoding of Fig. 4.
"""

import pytest

from repro.dyncapi.runtime import DynCapi
from repro.dyncapi.symbols import build_id_name_map, collect_all_symbols
from repro.execution.clock import VirtualClock
from repro.program.loader import DynamicLoader
from repro.xray.ids import PackedId
from repro.xray.runtime import XRayRuntime


@pytest.fixture
def wired_openfoam(openfoam_prepared):
    loader = DynamicLoader()
    loader.load_program(openfoam_prepared.app.linked)
    xray = XRayRuntime(loader.image)
    dyn = DynCapi(xray=xray, loader=loader, clock=VirtualClock())
    return dyn, loader


def test_patch_all_throughput(benchmark, wired_openfoam):
    """Patch every sled of the openfoam build (the 'xray full' Tinit)."""
    dyn, loader = wired_openfoam
    report = dyn.startup_inactive()

    def patch_unpatch():
        n = dyn.xray.patch_all()
        dyn.xray.unpatch_all()
        return n

    sleds = benchmark(patch_unpatch)
    assert sleds == 2 * len(dyn.xray.packed_ids())


def test_id_name_mapping(benchmark, wired_openfoam):
    """Symbol collection + __xray_function_address cross-check."""
    dyn, loader = wired_openfoam
    dyn.startup_inactive()
    id_map = benchmark(
        lambda: build_id_name_map(dyn.xray, collect_all_symbols(loader))
    )
    assert len(id_map.names) > 0
    assert id_map.unresolved_count > 0  # hidden DSO functions


def test_startup_full_sequence(benchmark, openfoam_prepared, openfoam_ics):
    """Complete DynCaPI startup with the mpi IC (one Tinit)."""

    def startup():
        loader = DynamicLoader()
        loader.load_program(openfoam_prepared.app.linked)
        dyn = DynCapi(
            xray=XRayRuntime(loader.image), loader=loader, clock=VirtualClock()
        )
        return dyn.startup(ic=openfoam_ics["mpi"])

    report = benchmark.pedantic(startup, rounds=2, iterations=1)
    assert report.patched_functions > 0
    assert report.init_cycles > 0


def test_packed_id_roundtrip_throughput(benchmark):
    """Fig. 4 encoding: pack/unpack one million ids."""
    ids = [PackedId(i % 256, i % (1 << 24)) for i in range(0, 1 << 16, 7)]

    def roundtrip():
        total = 0
        for pid in ids:
            total += PackedId.unpack(pid.pack()).function_id
        return total

    assert benchmark(roundtrip) > 0


def test_repatch_turnaround(benchmark, openfoam_prepared, openfoam_ics):
    """IC adjustment without recompilation — the headline feature."""
    loader = DynamicLoader()
    loader.load_program(openfoam_prepared.app.linked)
    dyn = DynCapi(
        xray=XRayRuntime(loader.image), loader=loader, clock=VirtualClock()
    )
    dyn.startup(ic=openfoam_ics["mpi"])
    ics = [openfoam_ics["kernels"], openfoam_ics["mpi coarse"]]
    state = {"i": 0}

    def repatch():
        state["i"] += 1
        return dyn.repatch(ics[state["i"] % 2])

    report = benchmark(repatch)
    assert report.patched_functions > 0
