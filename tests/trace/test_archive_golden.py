"""Archive bytes of a traced world, pinned to the bit.

A traced 4-rank world of a 2,000-node OpenFOAM-like app under the
``mpi`` IC writes one location file per rank.  Their sha256 digests and
each location's event and flush counts in ``definitions.json`` were
recorded when the tracer still buffered event objects and the writer
re-encoded them one by one; the column tracer must write the same bytes
(format version 2), block boundaries included.  Every location spans
three blocks, so the flush boundaries are pinned too.
"""

import hashlib
import json

import pytest

from repro.apps import PAPER_SPECS, build_openfoam
from repro.core import Capi
from repro.experiments.runner import DEFAULT_WORKLOAD
from repro.multirank import ImbalanceSpec
from repro.trace.store import DEFINITIONS_NAME, location_path
from repro.workflow import build_app, run_app

#: rank -> (sha256 of rank-*.evt, events, flushes)
GOLDENS = {
    0: ("ee5a3c6379c830c75982fe9ae7358ed253161fb69584295bc2f67a61adf48c26", 9116, 3),
    1: ("a239f84154b2f4f4e6df5c192adf31493e79c3652afeb2557766e887d8941f83", 9116, 3),
    2: ("8aab9105c88d375b8f344f8730dbd64e13f6797d7322f1d2badfab24f746f042", 9116, 3),
    3: ("20182abcd1e6a42e3f5c0d0fbc74fe8f83442f9aa41337f3e950ab3156d105a6", 9116, 3),
}


@pytest.fixture(scope="module")
def foam():
    app = build_app(build_openfoam(target_nodes=2000))
    capi = Capi(graph=app.graph, app_name=app.name)
    return app, capi.select(PAPER_SPECS["mpi"], spec_name="mpi", linked=app.linked).ic


def test_traced_world_writes_the_recorded_archive(foam, tmp_path):
    app, ic = foam
    run_app(
        app,
        mode="ic",
        tool="scorep",
        ic=ic,
        ranks=4,
        imbalance=ImbalanceSpec(imbalance=0.3, seed=7),
        tracing=True,
        trace_dir=str(tmp_path),
        backend="serial",
        workload=DEFAULT_WORKLOAD,
    )
    definitions = json.loads((tmp_path / DEFINITIONS_NAME).read_text())
    written = {
        loc["rank"]: (
            hashlib.sha256(location_path(tmp_path, loc["rank"]).read_bytes()).hexdigest(),
            loc["events"],
            loc["flushes"],
        )
        for loc in definitions["locations"]
    }
    assert written == GOLDENS
