"""Shared experiment plumbing: app preparation, selection, runs.

Both paper tables operate on the same two applications with the same
four specifications, so the preparation (generate → compile → link →
MetaCG → CaPI selection) is centralised and cached per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.apps import PAPER_SPECS, build_lulesh, build_openfoam
from repro.core.capi import Capi, CapiOutcome
from repro.errors import CapiError
from repro.execution.workload import Workload
from repro.workflow import BuiltApp, RunOutcome, build_app, run_app

#: default per-app call-graph sizes (lulesh is paper scale; openfoam is
#: scaled down — use ``scale='paper'`` to restore 410k nodes)
DEFAULT_SCALES = {"lulesh": 3360, "openfoam": 20_000}
PAPER_SCALES = {"lulesh": 3360, "openfoam": 410_666}

#: Table II workload shaping (bounded walking, analytic residual)
DEFAULT_WORKLOAD = Workload(site_cap=2, event_budget=300_000)

#: row order of both tables
SPEC_ORDER = ("mpi", "mpi coarse", "kernels", "kernels coarse")


@dataclass
class PreparedApp:
    """One application, built in both instrumented and vanilla flavours."""

    name: str
    app: BuiltApp
    vanilla: BuiltApp
    capi: Capi = field(init=False)

    def __post_init__(self) -> None:
        self.capi = Capi(graph=self.app.graph, app_name=self.name)

    def select(self, spec_name: str) -> CapiOutcome:
        return self.capi.select(
            PAPER_SPECS[spec_name], spec_name=spec_name, linked=self.app.linked
        )

    def select_all(self) -> dict[str, CapiOutcome]:
        return {name: self.select(name) for name in SPEC_ORDER}


@lru_cache(maxsize=8)
def prepare_app(name: str, target_nodes: int | None = None) -> PreparedApp:
    """Generate, compile and link one of the two paper applications."""
    if name == "lulesh":
        program = build_lulesh(
            target_nodes=target_nodes or DEFAULT_SCALES["lulesh"]
        )
    elif name == "openfoam":
        program = build_openfoam(
            target_nodes=target_nodes or DEFAULT_SCALES["openfoam"]
        )
    else:
        raise CapiError(f"unknown app {name!r}")
    app = build_app(program)
    vanilla = build_app(program, xray=False, graph=app.graph)
    return PreparedApp(name=name, app=app, vanilla=vanilla)


def run_configuration(
    prepared: PreparedApp,
    *,
    mode: str,
    tool: str = "none",
    ic=None,
    workload: Workload | None = None,
    **kwargs,
) -> RunOutcome:
    """Execute one Table II cell."""
    built = prepared.vanilla if mode == "vanilla" else prepared.app
    return run_app(
        built,
        mode=mode,  # type: ignore[arg-type]
        tool=tool,  # type: ignore[arg-type]
        ic=ic,
        workload=workload or DEFAULT_WORKLOAD,
        **kwargs,
    )
