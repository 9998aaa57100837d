"""Named load-imbalance scenarios for the synthetic applications.

The paper's evaluation apps are bulk-synchronous MPI codes whose real
deployments exhibit characteristic imbalance shapes; these presets make
them expressible in one argument to ``run_app(..., imbalance=...)``:

* ``uniform`` — every rank runs the identical workload (the POP load
  balance of a correct run must be exactly 1.0).
* ``lulesh-imbalanced`` — LULESH-style spatial domain imbalance: the
  Sedov blast wave concentrates work in the subdomains containing the
  shock front, so per-rank element work varies by tens of percent.
* ``openfoam-decomp`` — mesh-decomposition skew: decomposed OpenFOAM
  cases give boundary-layer-heavy partitions more face loops, modelled
  as a moderate jitter plus a linear ramp.
* ``straggler`` — one slow rank (failing node, overloaded NUMA domain)
  running ~60% more iterations than the rest; the classic DLB target.

Two presets exist specifically as DLB rebalancing targets
(``run_app(..., dlb=DlbPolicy(...))``, paper §VI):

* ``straggler-rescue`` — one rank at 2× load: LeWI lends CPU capacity
  from the seven waiting ranks to the straggler until completion times
  equalise (the acceptance scenario for the rebalancing loop).
* ``ramp-flatten`` — a steep linear iteration ramp across ranks, the
  decomposition-gradient shape DLB flattens by shifting capacity from
  the light low ranks toward the heavy tail.

One preset exists specifically for trace-based analysis
(``run_app(..., tracing=True)`` → merged rank-tagged timeline):

* ``trace-straggler`` — one moderately slow rank (1.3×) with no other
  jitter: the clean shape for reading wait states and the critical path
  off a merged timeline — every fast rank shows one crisp wait interval
  at each collective while the straggler owns the critical path, and
  the mild factor keeps per-rank event streams close in length so the
  collective matching is exercised without drowning the report.

Fault presets (:data:`FAULT_SCENARIOS`) are the chaos counterpart, for
``run_app(..., faults=..., backend="supervised")``:

* ``crash-once`` — one rank fails its first attempt and recovers on
  retry (the transient-crash shape a supervisor must absorb for free);
* ``one-hang`` — one rank's first attempt sleeps past the per-rank
  deadline (stuck I/O, livelocked worker) and succeeds when re-run;
* ``crash-hang`` — one crashing rank *and* one hanging rank in the same
  world: the chaos acceptance scenario — all ranks must complete after
  retries, bit-identical to the fault-free run;
* ``corrupt-profile`` / ``corrupt-trace`` — one rank returns a damaged
  payload (NaN'd profile / truncated event trace) once; the integrity
  gate must catch it and the retry must heal it;
* ``worker-death`` — one rank's first attempt kills its worker process
  outright (``os._exit``), taking the pool down with it; the supervisor
  must respawn the pool and finish the world;
* ``rank-loss`` — one rank crashes on *every* attempt: retries exhaust
  and the world completes only under ``degraded="allow"`` (the
  graceful-degradation scenario; ``degraded="forbid"`` must raise).
"""

from __future__ import annotations

from repro.errors import CapiError
from repro.multirank.faults import FaultSpec
from repro.multirank.imbalance import ImbalanceSpec

SCENARIOS: dict[str, ImbalanceSpec] = {
    "uniform": ImbalanceSpec(),
    "lulesh-imbalanced": ImbalanceSpec(imbalance=0.35, seed=23),
    "openfoam-decomp": ImbalanceSpec(imbalance=0.15, ramp=0.25, seed=29),
    "straggler": ImbalanceSpec(stragglers=1, straggler_factor=1.6, seed=31),
    "straggler-rescue": ImbalanceSpec(stragglers=1, straggler_factor=2.0, seed=31),
    "ramp-flatten": ImbalanceSpec(ramp=0.75, seed=37),
    "trace-straggler": ImbalanceSpec(stragglers=1, straggler_factor=1.3, seed=41),
}

FAULT_SCENARIOS: dict[str, FaultSpec] = {
    "crash-once": FaultSpec(crashes=1, crash_times=1, seed=43),
    "one-hang": FaultSpec(hangs=1, hang_times=1, seed=47),
    "crash-hang": FaultSpec(crashes=1, crash_times=1, hangs=1, hang_times=1, seed=53),
    "corrupt-profile": FaultSpec(
        corruptions=1, corrupt_times=1, corrupt_target="profile", seed=59
    ),
    "corrupt-trace": FaultSpec(
        corruptions=1, corrupt_times=1, corrupt_target="trace", seed=61
    ),
    "worker-death": FaultSpec(deaths=1, death_times=1, seed=67),
    # crash_times outlives any sane retry budget: the rank is lost
    "rank-loss": FaultSpec(crashes=1, crash_times=99, seed=71),
}


def scenario(name: str) -> ImbalanceSpec:
    """Look up a named imbalance scenario."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise CapiError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None


def fault_scenario(name: str) -> FaultSpec:
    """Look up a named fault-injection scenario."""
    try:
        return FAULT_SCENARIOS[name]
    except KeyError:
        raise CapiError(
            f"unknown fault scenario {name!r}; "
            f"available: {sorted(FAULT_SCENARIOS)}"
        ) from None
