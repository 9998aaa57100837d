"""POP parallel efficiency metrics (paper §III-B, ref [23]).

TALP reports the POP hierarchy for each monitoring region:

* **Load Balance (LB)** — average over ranks of useful compute time
  divided by the maximum: ``avg_r(useful_r) / max_r(useful_r)``.
* **Communication Efficiency (CommEff)** — the fraction of the
  bottleneck rank's elapsed time that is useful:
  ``max_r(useful_r) / elapsed``.
* **Parallel Efficiency (PE)** — ``LB × CommEff``.

Two code paths feed these formulas:

* :func:`compute_pop` — the single-run shortcut: the bottleneck rank is
  executed and the other ranks' useful times are *synthesised* from the
  world's deterministic imbalance factors (the seed behaviour).
* :func:`compute_pop_from_ranks` — the multi-rank path: every rank was
  actually executed (see :mod:`repro.multirank`) and the per-rank
  useful/elapsed/MPI times are real measurements; the region's elapsed
  time is the slowest rank's, because the trailing synchronizing
  collective holds everyone until it arrives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import pinned_mean
from repro.errors import CapiError
from repro.simmpi.world import MpiWorld
from repro.talp.monitor import MonitoringRegion


@dataclass(frozen=True)
class PopMetrics:
    """POP efficiency metrics of one region across the MPI world."""

    region: str
    visits: int
    elapsed_seconds: float
    avg_useful_seconds: float
    max_useful_seconds: float
    mpi_seconds: float

    @property
    def load_balance(self) -> float:
        if self.max_useful_seconds <= 0:
            return 1.0
        return self.avg_useful_seconds / self.max_useful_seconds

    @property
    def communication_efficiency(self) -> float:
        if self.elapsed_seconds <= 0:
            return 1.0
        return min(1.0, self.max_useful_seconds / self.elapsed_seconds)

    @property
    def parallel_efficiency(self) -> float:
        return self.load_balance * self.communication_efficiency


def compute_pop_from_ranks(
    region: str,
    *,
    visits: int,
    useful_cycles: "np.ndarray | list[float]",
    elapsed_cycles: "np.ndarray | list[float]",
    mpi_cycles: "np.ndarray | list[float]",
    frequency: float,
) -> PopMetrics:
    """POP metrics from *measured* per-rank timings (multi-rank path).

    ``elapsed`` is the maximum over ranks — ranks synchronise at the
    region's trailing collective, so the slowest rank sets the region's
    wall time for everyone.  ``mpi_seconds`` reports the cross-rank
    mean, including each rank's share of synchronisation wait if the
    caller folded it in (see :func:`repro.simmpi.world.finalize_wait`).

    When every rank reports the same useful time the average is pinned
    to the maximum exactly, so a uniform workload yields a load balance
    of exactly 1.0 instead of accumulating float summation error.
    """
    useful = np.asarray(useful_cycles, dtype=float)
    elapsed = np.asarray(elapsed_cycles, dtype=float)
    mpi = np.asarray(mpi_cycles, dtype=float)
    if not (useful.size == elapsed.size == mpi.size) or useful.size == 0:
        raise CapiError("per-rank arrays must be non-empty and equal length")
    return PopMetrics(
        region=region,
        visits=visits,
        elapsed_seconds=float(elapsed.max()) / frequency,
        avg_useful_seconds=pinned_mean(useful) / frequency,
        max_useful_seconds=float(useful.max()) / frequency,
        mpi_seconds=pinned_mean(mpi) / frequency,
    )


def compute_pop(
    region: MonitoringRegion, world: MpiWorld, *, frequency: float
) -> PopMetrics:
    """Synthesise cross-rank POP metrics from the bottleneck-rank run."""
    factors = world.compute_factors
    useful = region.useful_cycles
    useful_per_rank = useful * factors
    return PopMetrics(
        region=region.name,
        visits=region.visits,
        elapsed_seconds=region.elapsed_cycles / frequency,
        avg_useful_seconds=float(np.mean(useful_per_rank)) / frequency,
        max_useful_seconds=float(np.max(useful_per_rank)) / frequency,
        mpi_seconds=region.mpi_cycles / frequency,
    )
