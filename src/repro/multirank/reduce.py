"""Cross-rank reduction: merged Score-P profiles and real POP metrics.

After N per-rank executions the scheduler holds N independent result
sets.  This module folds them into the artefacts an analyst actually
reads:

* :func:`merge_profiles` — one aggregated call-path profile with
  Score-P-style per-node statistics (min/max/avg/sum across ranks, a
  missing call path on some rank counting as zero there, exactly like
  a Cube aggregation over processes);
* :func:`build_pop_report` — the POP hierarchy (parallel efficiency,
  load balance, communication efficiency) computed from *measured*
  per-rank timings, with inter-rank synchronisation wait attributed to
  MPI time via :func:`repro.simmpi.world.finalize_wait`.

All reductions iterate ranks in rank order and children in sorted name
order, so a serial and a multiprocessing execution of the same task
list reduce to bit-identical artefacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro._util import pinned_mean
from repro.errors import CapiError
from repro.execution.clock import CYCLES_PER_SECOND
from repro.simmpi.world import finalize_wait
from repro.talp.pop import PopMetrics, compute_pop_from_ranks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.multirank.scheduler import RankResult


@dataclass(frozen=True)
class RankStat:
    """Cross-rank aggregate of one per-rank quantity."""

    sum: float
    min: float
    max: float
    avg: float

    @classmethod
    def of(cls, values: "np.ndarray | list[float]") -> "RankStat":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise CapiError("need at least one rank")
        return cls(
            sum=float(arr.sum()),
            min=float(arr.min()),
            max=float(arr.max()),
            avg=pinned_mean(arr),
        )


@dataclass
class MergedProfileNode:
    """One call path of the merged profile with cross-rank statistics."""

    name: str
    visits: RankStat
    inclusive_cycles: RankStat
    children: dict[str, "MergedProfileNode"] = field(default_factory=dict)
    #: the per-rank values behind the stats (rank order); kept so flat
    #: views can re-aggregate per rank before taking min/max
    visits_by_rank: tuple[float, ...] = ()
    cycles_by_rank: tuple[float, ...] = ()

    def walk(self) -> Iterator["MergedProfileNode"]:
        """Depth-first iteration over this subtree (self included)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def child(self, name: str) -> "MergedProfileNode":
        return self.children[name]


def _values_of_children(
    per_rank: list[dict], name: str, ranks: int, key: str, default: float
) -> np.ndarray:
    values = np.full(ranks, default, dtype=float)
    for i, children in enumerate(per_rank):
        node = children.get(name)
        if node is not None:
            values[i] = node.get(key, default)
    return values


def merge_profiles(per_rank_profiles: list[dict | None]) -> MergedProfileNode | None:
    """Merge per-rank call-path profiles (``profile_io.to_dict`` form).

    The merged tree spans the union of call paths over all ranks; a
    rank without a given path contributes zero visits/cycles to that
    path's statistics, so ``visits.sum`` is the world-wide visit count
    and ``inclusive_cycles.max`` the bottleneck rank's time — the same
    convention Cube uses when aggregating a Score-P experiment over
    processes.  Returns ``None`` when no rank produced a profile.
    """
    profiles = [p for p in per_rank_profiles if p is not None]
    if not profiles:
        return None
    if len(profiles) != len(per_rank_profiles):
        raise CapiError("either every rank or no rank produces a profile")
    ranks = len(profiles)
    zeros = np.zeros(ranks)
    root = MergedProfileNode(
        name=profiles[0]["name"],
        visits=RankStat.of(zeros),
        inclusive_cycles=RankStat.of(zeros),
        visits_by_rank=tuple(zeros),
        cycles_by_rank=tuple(zeros),
    )
    # (merged node, per-rank child-name -> child-dict maps)
    stack: list[tuple[MergedProfileNode, list[dict]]] = [
        (root, [{c["name"]: c for c in p.get("children", ())} for p in profiles])
    ]
    while stack:
        merged, child_maps = stack.pop()
        names = sorted(set().union(*(m.keys() for m in child_maps)))
        for name in names:
            visits = _values_of_children(child_maps, name, ranks, "visits", 0.0)
            cycles = _values_of_children(
                child_maps, name, ranks, "inclusive_cycles", 0.0
            )
            node = MergedProfileNode(
                name=name,
                visits=RankStat.of(visits),
                inclusive_cycles=RankStat.of(cycles),
                visits_by_rank=tuple(float(v) for v in visits),
                cycles_by_rank=tuple(float(c) for c in cycles),
            )
            merged.children[name] = node
            stack.append(
                (
                    node,
                    [
                        {
                            c["name"]: c
                            for c in child_maps[i].get(name, {}).get("children", ())
                        }
                        if name in child_maps[i]
                        else {}
                        for i in range(ranks)
                    ],
                )
            )
    return root


def flatten_merged(
    root: MergedProfileNode,
) -> dict[str, tuple[RankStat, RankStat]]:
    """Per-region ``(visits, inclusive_cycles)`` stats over call-path sums.

    Each *rank's* profile is flattened first — a region's totals summed
    over every call path it appears in on that rank — and the cross-rank
    statistics are then computed from those per-rank totals.  (Summing
    the merged per-path statistics component-wise instead would be wrong
    for ``min``/``max``: the sum of per-path minima is not the minimum
    of per-rank sums when the rank skew differs between paths.)  Unlike
    :func:`repro.scorep.regions.flatten` no recursion de-duplication is
    attempted.  Only trees produced by :func:`merge_profiles` (which
    populates the per-rank value columns) can be flattened.
    """
    sums: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for node in root.walk():
        if node is root:
            continue
        acc = sums.get(node.name)
        if acc is None:
            sums[node.name] = (
                np.asarray(node.visits_by_rank, dtype=float).copy(),
                np.asarray(node.cycles_by_rank, dtype=float).copy(),
            )
        else:
            visits_acc, cycles_acc = acc
            visits_acc += np.asarray(node.visits_by_rank, dtype=float)
            cycles_acc += np.asarray(node.cycles_by_rank, dtype=float)
    return {
        name: (RankStat.of(visits), RankStat.of(cycles))
        for name, (visits, cycles) in sums.items()
    }


@dataclass
class PopReport:
    """POP efficiency metrics of one multi-rank run.

    ``app`` covers the whole execution (per-rank ``t_total`` and useful
    time from the engine); ``regions`` holds one entry per TALP
    monitoring region when the run used the ``talp`` tool.
    """

    world_size: int
    app: PopMetrics
    regions: list[PopMetrics] = field(default_factory=list)
    #: per-rank synchronisation wait at the closing barrier (cycles)
    rank_wait_cycles: tuple[float, ...] = ()
    #: ranks of the intended world that produced no measurement; all
    #: metrics describe only the surviving ranks when non-empty
    missing_ranks: tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.missing_ranks)

    @property
    def coverage(self) -> float:
        """Fraction of the intended world the metrics actually cover."""
        if self.world_size == 0:
            return 0.0
        return (self.world_size - len(self.missing_ranks)) / self.world_size

    def region(self, name: str) -> PopMetrics | None:
        for m in self.regions:
            if m.region == name:
                return m
        return None

    def render(self) -> str:
        lines = [
            "=" * 64,
            f"POP efficiency — {self.world_size} MPI ranks (measured per rank)",
            "=" * 64,
        ]
        if self.degraded:
            lines.append(
                f"!!! DEGRADED: coverage {self.coverage:.1%} — rank(s) "
                f"{list(self.missing_ranks)} produced no measurement; "
                f"metrics describe the surviving ranks only"
            )
        for m in [self.app, *sorted(self.regions, key=lambda m: -m.elapsed_seconds)]:
            lines += [
                f"### Region: {m.region}",
                f"    Elapsed time              : {m.elapsed_seconds:.6f} s",
                f"    Useful time (avg/max)     : "
                f"{m.avg_useful_seconds:.6f} / {m.max_useful_seconds:.6f} s",
                f"    MPI time (avg, incl wait) : {m.mpi_seconds:.6f} s",
                f"    Load balance              : {m.load_balance:6.2%}",
                f"    Communication efficiency  : {m.communication_efficiency:6.2%}",
                f"    Parallel efficiency       : {m.parallel_efficiency:6.2%}",
            ]
        return "\n".join(lines)


def build_pop_report(
    per_rank: "list[RankResult]",
    *,
    frequency: float = CYCLES_PER_SECOND,
    missing_ranks: "tuple[int, ...]" = (),
) -> PopReport:
    """Compute the POP hierarchy from measured per-rank executions.

    The ``application`` region covers the main phase (``t_app_cycles``)
    — the span real TALP monitors between ``MPI_Init`` and
    ``MPI_Finalize`` — so startup/patching time (``t_init``) does not
    drown communication efficiency.  Instrumentation overhead *inside*
    the run still counts as non-useful time, exactly as it does on real
    hardware.

    ``missing_ranks`` names ranks of the intended world that produced
    no measurement (lost under a ``degraded="allow"`` policy): the
    metrics are then computed from the survivors only, the report's
    ``world_size`` still counts the full world, and the report renders
    with an explicit coverage annotation — a degraded POP table can
    never masquerade as a full one.
    """
    if not per_rank:
        raise CapiError("need at least one rank result")
    totals = np.array([r.result.t_app_cycles for r in per_rank])
    useful = np.array([r.result.useful_cycles for r in per_rank])
    mpi = np.array([float(r.result.mpi_cycles) for r in per_rank])
    waits = finalize_wait(totals)
    elapsed = np.full(len(per_rank), totals.max())
    app = compute_pop_from_ranks(
        "application",
        visits=1,
        useful_cycles=useful,
        elapsed_cycles=elapsed,
        mpi_cycles=mpi + waits,
        frequency=frequency,
    )
    report = PopReport(
        world_size=len(per_rank) + len(missing_ranks),
        app=app,
        rank_wait_cycles=tuple(float(w) for w in waits),
        missing_ranks=tuple(missing_ranks),
    )
    # per-region metrics (talp tool): union of region names over ranks,
    # a rank that never entered a region contributing zeros
    names = sorted({s.name for r in per_rank for s in r.talp_regions})
    for name in names:
        by_rank = [
            next((s for s in r.talp_regions if s.name == name), None)
            for r in per_rank
        ]
        region_elapsed = np.array(
            [s.elapsed_cycles if s else 0.0 for s in by_rank]
        )
        # synchronisation wait is attributed only to ranks that actually
        # entered the region — a rank the region never ran on was not
        # blocked at its trailing collective
        visited = np.array([s is not None for s in by_rank])
        region_wait = np.where(visited, finalize_wait(region_elapsed), 0.0)
        report.regions.append(
            compute_pop_from_ranks(
                name,
                visits=int(sum(s.visits for s in by_rank if s)),
                useful_cycles=np.array(
                    [s.useful_cycles if s else 0.0 for s in by_rank]
                ),
                elapsed_cycles=region_elapsed,
                mpi_cycles=np.array(
                    [s.mpi_cycles if s else 0.0 for s in by_rank]
                )
                + region_wait,
                frequency=frequency,
            )
        )
    return report
