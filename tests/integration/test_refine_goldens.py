"""Virtual outputs of the ``refine`` benchmark at full scale, in tier-1.

``perfbench/expected_refine.json`` pins ``[t_init, t_total, entry
events, patched sleds]`` of every (spec, tool) cycle the ``refine``
workload can draw on its 20,000-node OpenFOAM-like app, but perfbench
checks it only on full-scale runs, never under ``--smoke``.  This module
runs the four paper specs under both tools at that scale and holds them
to the same file, which it only reads.
"""

import json
from pathlib import Path

import pytest

from repro.apps import PAPER_SPECS, build_openfoam
from repro.core import Capi
from repro.experiments.runner import DEFAULT_WORKLOAD, SPEC_ORDER
from repro.workflow import build_app, run_app

EXPECTED_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "expected_refine.json"
#: the ``refine`` workload's app size (``perfbench/provenance.json``)
NODES = 20_000
TOOLS = ("scorep", "talp")


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED_PATH.read_text())


@pytest.fixture(scope="module")
def foam():
    app = build_app(build_openfoam(target_nodes=NODES))
    capi = Capi(graph=app.graph, app_name=app.name)
    ics = {
        name: capi.select(PAPER_SPECS[name], spec_name=name, linked=app.linked).ic
        for name in SPEC_ORDER
    }
    return app, ics


@pytest.mark.parametrize("tool", TOOLS)
@pytest.mark.parametrize("spec", SPEC_ORDER)
def test_paper_spec_matches_expected_refine(foam, expected, spec, tool):
    app, ics = foam
    run = run_app(app, mode="ic", tool=tool, ic=ics[spec], workload=DEFAULT_WORKLOAD)
    virtual = [
        run.result.t_init,
        run.result.t_total,
        run.result.entry_events,
        run.startup.patched_sleds,
    ]
    assert virtual == expected[f"{spec}|{tool}"]
