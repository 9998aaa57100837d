"""Virtual-time goldens of run_app: start-up and run, pinned to the bit.

Every value was recorded before start-up state was kept per program and
cloned per run, on a 1,500-node OpenFOAM-like app under
``DEFAULT_WORKLOAD``.  Each case runs twice in one process, so the
second run starts from the cloned state; both must reproduce the
recorded ``t_init``, ``t_total``, entry events, patched sleds and every
:class:`StartupReport` field exactly.  (The perfbench ``refine`` gate
checks the same outputs at 20,000 nodes, but only at full scale.)
"""

import pytest

from repro.apps import PAPER_SPECS, build_openfoam
from repro.core import Capi
from repro.dyncapi.runtime import StartupReport
from repro.experiments.runner import DEFAULT_WORKLOAD, SPEC_ORDER
from repro.workflow import build_app, run_app

#: (spec or mode, tool) -> (t_init, t_total, entry events, patched sleds,
#: start-up report)
GOLDENS = {
    ('mpi', 'scorep'): (
        0.2274341, 2.306634395599876, 7394, 354,
        StartupReport(
            patched_functions=177, patched_sleds=354,
            skipped_not_in_ic=520, unresolved_ids=2,
            missing_in_binary=[
                'u_OpenFOAM_core_00045', 'u_OpenFOAM_core_00341',
                'u_OpenFOAM_core_00369', 'u_meshTools_00081',
            ],
            registered_dsos=6, init_cycles=454868200.0,
        ),
    ),
    ('mpi', 'talp'): (
        0.0574341, 2.5687554255999316, 7394, 354,
        StartupReport(
            patched_functions=177, patched_sleds=354,
            skipped_not_in_ic=520, unresolved_ids=2,
            missing_in_binary=[
                'u_OpenFOAM_core_00045', 'u_OpenFOAM_core_00341',
                'u_OpenFOAM_core_00369', 'u_meshTools_00081',
            ],
            registered_dsos=6, init_cycles=114868200.0,
        ),
    ),
    ('mpi coarse', 'scorep'): (
        0.2212607, 2.163431482099868, 7394, 132,
        StartupReport(
            patched_functions=66, patched_sleds=132,
            skipped_not_in_ic=631, unresolved_ids=2,
            missing_in_binary=['u_OpenFOAM_core_00341'],
            registered_dsos=6, init_cycles=442521400.0,
        ),
    ),
    ('mpi coarse', 'talp'): (
        0.0512607, 2.1575541320999094, 7394, 132,
        StartupReport(
            patched_functions=66, patched_sleds=132,
            skipped_not_in_ic=631, unresolved_ids=2,
            missing_in_binary=['u_OpenFOAM_core_00341'],
            registered_dsos=6, init_cycles=102521400.0,
        ),
    ),
    ('kernels', 'scorep'): (
        0.2193697, 2.0956779732998703, 7394, 64,
        StartupReport(
            patched_functions=32, patched_sleds=64,
            skipped_not_in_ic=665, unresolved_ids=2,
            missing_in_binary=[],
            registered_dsos=6, init_cycles=438739400.0,
        ),
    ),
    ('kernels', 'talp'): (
        0.0493697, 1.9171570932998978, 7394, 64,
        StartupReport(
            patched_functions=32, patched_sleds=64,
            skipped_not_in_ic=665, unresolved_ids=2,
            missing_in_binary=[],
            registered_dsos=6, init_cycles=98739400.0,
        ),
    ),
    ('kernels coarse', 'scorep'): (
        0.2182577, 2.094243322399867, 7394, 24,
        StartupReport(
            patched_functions=12, patched_sleds=24,
            skipped_not_in_ic=685, unresolved_ids=2,
            missing_in_binary=[],
            registered_dsos=6, init_cycles=436515400.0,
        ),
    ),
    ('kernels coarse', 'talp'): (
        0.0482577, 1.906468582399895, 7394, 24,
        StartupReport(
            patched_functions=12, patched_sleds=24,
            skipped_not_in_ic=685, unresolved_ids=2,
            missing_in_binary=[],
            registered_dsos=6, init_cycles=96515400.0,
        ),
    ),
    ('full', 'scorep'): (
        0.2559255, 9.128021448000034, 7394, 1394,
        StartupReport(
            patched_functions=697, patched_sleds=1394,
            skipped_not_in_ic=0, unresolved_ids=2,
            missing_in_binary=[],
            registered_dsos=6, init_cycles=511851000.0,
        ),
    ),
    ('full', 'talp'): (
        0.0859255, 7.12396178800002, 7394, 1394,
        StartupReport(
            patched_functions=697, patched_sleds=1394,
            skipped_not_in_ic=0, unresolved_ids=2,
            missing_in_binary=[],
            registered_dsos=6, init_cycles=171851000.0,
        ),
    ),
    ('inactive', 'none'): (
        0.006, 1.8416345990998986, 7394, 0,
        StartupReport(
            patched_functions=0, patched_sleds=0,
            skipped_not_in_ic=0, unresolved_ids=0,
            missing_in_binary=[],
            registered_dsos=6, init_cycles=12000000.0,
        ),
    ),
}


@pytest.fixture(scope="module")
def foam():
    app = build_app(build_openfoam(target_nodes=1500))
    capi = Capi(graph=app.graph, app_name=app.name)
    ics = {
        name: capi.select(PAPER_SPECS[name], spec_name=name, linked=app.linked).ic
        for name in SPEC_ORDER
    }
    return app, ics


@pytest.mark.parametrize("case", list(GOLDENS), ids="|".join)
def test_virtual_outputs_match_goldens(foam, case):
    app, ics = foam
    spec, tool = case
    mode = spec if spec in ("full", "inactive") else "ic"
    t_init, t_total, entry_events, patched_sleds, report = GOLDENS[case]
    for _ in range(2):
        run = run_app(
            app,
            mode=mode,
            tool=tool,
            ic=ics[spec] if mode == "ic" else None,
            workload=DEFAULT_WORKLOAD,
        )
        assert run.result.t_init == t_init
        assert run.result.t_total == t_total
        assert run.result.entry_events == entry_events
        assert run.startup.patched_sleds == patched_sleds
        assert run.startup == report
