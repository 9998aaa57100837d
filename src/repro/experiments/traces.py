"""Trace-based multi-rank analysis — the paper's "and tracing" made real.

The paper opens by casting Score-P as "a widely used profiling **and
tracing** infrastructure" (§I).  This harness exercises the trace side
of the reproduction's pipeline end-to-end: run an application across N
ranks with per-rank event tracing (``run_app(..., tracing=True)``),
merge the streams into one rank-tagged timeline with logical clocks
aligned at MPI collectives (:mod:`repro.multirank.tracing`), and render
the two Scalasca-style analyses built on top — per-rank wait states at
collectives and the critical-path walk.

Run with ``python -m repro.experiments.traces``; ``--check`` turns the
run into a consistency smoke test (non-zero exit unless every merged
trace validates clean and its collective-wait attribution agrees with
the profile reducer's ``finalize_wait`` to within one collective
latency), which CI uses.  ``--backend both`` additionally asserts that
the serial and multiprocessing backends produce bit-identical merged
timelines.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

from repro._util import format_table
from repro.experiments.runner import (
    DEFAULT_SCALES,
    DEFAULT_WORKLOAD,
    PreparedApp,
    prepare_app,
)
from repro.multirank.tracing import MergedTrace
from repro.simmpi.comm import SimComm
from repro.simmpi.world import MpiWorld
from repro.workflow import RunOutcome, run_app

#: scenarios the report covers by default (see ``repro.apps.SCENARIOS``)
TRACE_SCENARIOS = ("trace-straggler", "straggler")


def collective_latency(ranks: int) -> float:
    """One synchronizing-collective latency at this world size (cycles).

    The agreement tolerance between the trace's wait attribution and the
    profile reducer's: both measure the same blocking, but the trace
    anchors at the collective *marker* while the reducer differences
    whole application phases, so they may disagree by up to one
    collective traversal.
    """
    return SimComm(MpiWorld(size=max(ranks, 2))).cost_of("MPI_Allreduce")


@dataclass(frozen=True)
class TraceRow:
    """One application × scenario cell of the trace report."""

    app: str
    scenario: str
    ranks: int
    backend: str
    events: int
    sync_points: int
    #: largest per-rank collective wait, from the trace (cycles)
    max_wait_cycles: float
    #: largest |trace wait − reducer wait| over ranks (cycles)
    max_divergence_cycles: float
    #: ranks flagged as waiters (wait > one collective latency)
    flagged_ranks: tuple[int, ...]
    #: the same flag set derived from the reducer's attribution
    reducer_flagged_ranks: tuple[int, ...]
    #: TraceIssue records from MergedTrace.validate() (str() for text)
    validation_problems: tuple
    #: the agreement tolerance the flags were derived under (cycles)
    tolerance_cycles: float

    @property
    def waits_agree(self) -> bool:
        """True when trace and reducer tell the same wait story."""
        return (
            self.flagged_ranks == self.reducer_flagged_ranks
            and self.max_divergence_cycles <= self.tolerance_cycles
        )

    @property
    def consistent(self) -> bool:
        return not self.validation_problems and self.waits_agree


def _flagged(waits: "tuple[float, ...]", tolerance: float) -> tuple[int, ...]:
    return tuple(r for r, w in enumerate(waits) if w > tolerance)


def compute_trace_row(
    prepared: PreparedApp,
    scenario_name: str,
    *,
    ranks: int = 4,
    backend: str = "serial",
    workload=None,
    trace_dir: str | None = None,
) -> tuple[TraceRow, RunOutcome]:
    """Run one traced multi-rank cell and derive its consistency row.

    ``trace_dir=`` persists the per-rank streams to an OTF2-shaped
    archive (the merged timeline is then built from disk).
    """
    from repro.apps import scenario

    outcome = run_app(
        prepared.app,
        mode="ic",
        tool="scorep",
        ic=prepared.select("mpi").ic,
        ranks=ranks,
        imbalance=scenario(scenario_name),
        backend=backend,
        tracing=True,
        workload=workload or DEFAULT_WORKLOAD,
        config_name=f"trace-{scenario_name}",
        trace_dir=trace_dir,
    )
    merged: MergedTrace = outcome.merged_trace
    tolerance = collective_latency(ranks)
    trace_waits = merged.rank_offsets
    reducer_waits = outcome.pop.rank_wait_cycles
    divergence = max(
        (abs(t - p) for t, p in zip(trace_waits, reducer_waits)), default=0.0
    )
    row = TraceRow(
        app=prepared.name,
        scenario=scenario_name,
        ranks=ranks,
        backend=backend,
        events=len(merged.events),
        sync_points=len(merged.sync_points),
        max_wait_cycles=max(trace_waits, default=0.0),
        max_divergence_cycles=divergence,
        flagged_ranks=_flagged(trace_waits, tolerance),
        reducer_flagged_ranks=_flagged(reducer_waits, tolerance),
        validation_problems=tuple(merged.validate()),
        tolerance_cycles=tolerance,
    )
    return row, outcome


def compute_trace_table(
    apps: tuple[str, ...] = ("lulesh",),
    *,
    scenarios: tuple[str, ...] = TRACE_SCENARIOS,
    scales: dict[str, int] | None = None,
    ranks: int = 4,
    backend: str = "serial",
    trace_dir: str | None = None,
) -> list[tuple[TraceRow, RunOutcome]]:
    scales = scales or DEFAULT_SCALES
    cells: list[tuple[TraceRow, RunOutcome]] = []
    for app_name in apps:
        prepared = prepare_app(app_name, scales.get(app_name))
        for scenario_name in scenarios:
            cell_dir = None
            if trace_dir is not None:
                # one archive per cell so backends/scenarios never
                # overwrite each other's location files
                cell_dir = str(
                    Path(trace_dir) / f"{app_name}-{scenario_name}-{backend}"
                )
            cells.append(
                compute_trace_row(
                    prepared,
                    scenario_name,
                    ranks=ranks,
                    backend=backend,
                    trace_dir=cell_dir,
                )
            )
    return cells


def render_trace_table(rows: list[TraceRow]) -> str:
    headers = [
        "app", "scenario", "ranks", "backend",
        "events", "syncs", "max wait", "Δ vs reducer", "waiters", "ok",
    ]
    body = [
        (
            r.app,
            r.scenario,
            str(r.ranks),
            r.backend,
            str(r.events),
            str(r.sync_points),
            f"{r.max_wait_cycles:.0f}",
            f"{r.max_divergence_cycles:.0f}",
            ",".join(map(str, r.flagged_ranks)) or "-",
            "yes" if r.consistent else "NO",
        )
        for r in rows
    ]
    title = (
        "MERGED RANK TRACES — collective-aligned timelines vs. the "
        "profile reducer's wait attribution"
    )
    return format_table(headers, body, title=title)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--app", choices=["lulesh", "openfoam", "both"], default="lulesh"
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="imbalance scenario to trace (repeatable; default "
        f"{', '.join(TRACE_SCENARIOS)})",
    )
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="override the per-app call-graph size (smoke runs use a "
        "few hundred nodes)",
    )
    parser.add_argument(
        "--backend",
        default="serial",
        choices=["serial", "multiprocessing", "auto", "both"],
        help="'both' runs serial AND multiprocessing and asserts "
        "bit-identical merged timelines",
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help="also print each merged trace's wait-state/critical-path view",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every merged trace validates clean and "
        "agrees with the reducer's wait attribution",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="persist each cell's per-rank streams as an OTF2-shaped "
        "archive under DIR/<app>-<scenario>-<backend>; with --check the "
        "streaming merge from disk must be bit-identical to the "
        "in-memory merge",
    )
    parser.add_argument(
        "--wait-states",
        action="store_true",
        help="also print each cell's classified wait states "
        "(late-sender / late-receiver / imbalance-at-collective)",
    )
    args = parser.parse_args(argv)
    apps = ("lulesh", "openfoam") if args.app == "both" else (args.app,)
    scenarios = tuple(args.scenario) if args.scenario else TRACE_SCENARIOS
    scales = None
    if args.nodes is not None:
        scales = {name: args.nodes for name in apps}
    backends = (
        ("serial", "multiprocessing") if args.backend == "both" else (args.backend,)
    )

    cells: list[tuple[TraceRow, RunOutcome]] = []
    mismatched_backends: list[str] = []
    for backend in backends:
        cells_b = compute_trace_table(
            apps, scenarios=scenarios, scales=scales,
            ranks=args.ranks, backend=backend,
            trace_dir=args.trace_dir,
        )
        if backend == backends[0]:
            reference = cells_b
        else:
            for (row_a, out_a), (row_b, out_b) in zip(reference, cells_b):
                if out_a.merged_trace.events != out_b.merged_trace.events:
                    mismatched_backends.append(f"{row_b.app}/{row_b.scenario}")
        cells.extend(cells_b)

    rows = [row for row, _ in cells]
    print(render_trace_table(rows))
    if args.timeline:
        for row, outcome in cells:
            print(f"\n--- {row.app}/{row.scenario} ({row.backend}) ---")
            print(outcome.merged_trace.render())
    if args.wait_states:
        from repro.trace import classify_wait_states, render_wait_state_report

        for row, outcome in cells:
            waits = classify_wait_states(outcome.merged_trace)
            print(f"\n--- {row.app}/{row.scenario} ({row.backend}) ---")
            print(render_wait_state_report(waits))

    # streaming merge from the on-disk archive must reproduce the
    # in-memory timeline exactly — the durable pipeline's core promise
    streaming_mismatches: list[str] = []
    if args.trace_dir is not None:
        from repro.trace import open_merged_trace

        for row, outcome in cells:
            cell_dir = (
                Path(args.trace_dir)
                / f"{row.app}-{row.scenario}-{row.backend}"
            )
            streamed = open_merged_trace(str(cell_dir))
            if list(streamed.events()) != list(outcome.merged_trace.events):
                streaming_mismatches.append(
                    f"{row.app}/{row.scenario} ({row.backend})"
                )
        for cell in streaming_mismatches:
            print(
                f"STREAMING MISMATCH: {cell}: disk-streamed merge differs "
                f"from the in-memory timeline"
            )
        if args.check and not streaming_mismatches:
            print(
                f"STREAMING OK: {len(cells)} archive(s) stream-merge "
                f"bit-identical to the in-memory timelines"
            )

    # the bit-identity promise of --backend both holds with or without
    # --check: a mismatch is always reported and always fails the run
    for cell in mismatched_backends:
        print(
            f"BACKEND MISMATCH: {cell}: serial and multiprocessing "
            f"merged timelines differ"
        )

    if args.check:
        failures: list[str] = []
        for row in rows:
            if row.validation_problems:
                failures.append(
                    f"{row.app}/{row.scenario} ({row.backend}): trace "
                    f"validation: "
                    f"{'; '.join(str(p) for p in row.validation_problems[:3])}"
                )
            if not row.waits_agree:
                failures.append(
                    f"{row.app}/{row.scenario} ({row.backend}): wait "
                    f"attribution diverges from the reducer by "
                    f"{row.max_divergence_cycles:.0f} cycles "
                    f"(flagged {row.flagged_ranks} vs "
                    f"{row.reducer_flagged_ranks})"
                )
        for failure in failures:
            print(f"CHECK FAILED: {failure}")
        if not failures and not mismatched_backends:
            print(
                f"CHECK OK: {len(rows)} merged trace(s) validate clean and "
                f"match the reducer's synchronisation-wait attribution"
            )
        if failures:
            return 1
    return 1 if (mismatched_backends or streaming_mismatches) else 0


if __name__ == "__main__":
    raise SystemExit(main())
