"""Simulated MPI operations with a simple latency/bandwidth cost model.

Each operation charges the virtual clock: a fixed software latency plus
a size-dependent transfer term, with collectives paying a ``log2(P)``
tree factor.  The values only matter relative to compute costs; they are
chosen so MPI time is a visible but not dominant fraction of the
synthetic workloads, as in the paper's test cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SimMpiError
from repro.simmpi.world import MpiWorld

#: MPI operation classes with distinct cost behaviour.
POINT_TO_POINT = {"MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv", "MPI_Wait"}
COLLECTIVES = {
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Reduce",
    "MPI_Allreduce",
    "MPI_Gather",
    "MPI_Allgather",
    "MPI_Scatter",
    "MPI_Alltoall",
}
LIFECYCLE = {"MPI_Init", "MPI_Finalize"}

#: collectives with all-to-all completion semantics: no rank leaves the
#: operation before every rank has entered it.  The cross-rank profile
#: reducer uses this classification to attribute inter-rank wait time
#: (fast ranks blocking for the bottleneck) to MPI rather than compute.
SYNCHRONIZING = {"MPI_Barrier", "MPI_Allreduce", "MPI_Allgather", "MPI_Alltoall"}


@dataclass(frozen=True)
class CommCosts:
    """Virtual-cycle costs of the simulated interconnect."""

    latency: float = 600.0
    cycles_per_byte: float = 0.4
    #: per-hop factor for tree-based collectives
    collective_tree_factor: float = 1.0
    query_cost: float = 20.0  # MPI_Comm_rank / size
    lifecycle_cost: float = 5_000.0


class SimComm:
    """Issue simulated MPI operations against a world."""

    def __init__(self, world: MpiWorld, costs: CommCosts | None = None):
        self.world = world
        self.costs = costs or CommCosts()

    def cost_of(self, op: str, *, message_bytes: int = 8192) -> float:
        """Virtual-cycle cost of one MPI operation on the calling rank."""
        c = self.costs
        if op in LIFECYCLE:
            return c.lifecycle_cost
        if op in ("MPI_Comm_rank", "MPI_Comm_size"):
            return c.query_cost
        if op == "MPI_Barrier":
            # a barrier carries no payload: it pays the tree of
            # latencies only, never the bandwidth term
            message_bytes = 0
        transfer = c.latency + message_bytes * c.cycles_per_byte
        if op in COLLECTIVES:
            hops = max(1.0, math.log2(max(self.world.size, 2)))
            return transfer * hops * c.collective_tree_factor
        if op in POINT_TO_POINT:
            return transfer
        raise SimMpiError(f"unknown MPI operation {op!r}")

    def is_synchronizing(self, name: str) -> bool:
        """True for operations no rank can exit before all ranks enter."""
        return name in SYNCHRONIZING
