"""The overhead cost model — calibration of Table II's mechanisms.

Every constant is a virtual-cycle price of one concrete mechanism in the
real system.  The paper's qualitative results emerge from their
*relations*, which are grounded in how the tools work:

* An unpatched sled is a NOP sequence → ``nop_sled`` is near zero
  ("xray inactive" ≈ vanilla).
* A patched sled pays trampoline dispatch (register save + indirect
  call) before the handler runs.
* Score-P's handler builds/walks a call-path tree node and timestamps
  with PAPI-style precision → more expensive per event than TALP's
  region counter update (paper: full instrumentation hurts Score-P
  ~2× more than TALP).
* TALP additionally updates *every open monitoring region* at each MPI
  call through PMPI → its cost grows with the depth of instrumented
  regions enclosing MPI operations (paper: the ``mpi`` IC is *worse*
  under TALP than under Score-P, despite TALP's cheaper handler).
* Patching cost per sled (mprotect + rewrite) and per-function symbol
  resolution during startup drive Tinit, which therefore scales with
  the object count and sled count — seconds for OpenFOAM, far below
  its 50-minute recompile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import CapiError


@dataclass(frozen=True)
class CostModel:
    """Virtual-cycle prices of the instrumentation mechanisms."""

    # -- steady-state event costs ------------------------------------------
    #: cost of flowing through an unpatched NOP sled
    nop_sled: float = 0.3
    #: trampoline dispatch once a sled is patched (register spill + jump)
    patched_dispatch: float = 25.0
    #: Score-P handler: call-path tree walk + metric read, per event
    scorep_event: float = 320.0
    #: TALP handler: region map lookup + counter update, per event
    talp_event: float = 200.0
    #: TALP PMPI wrapper: fixed bookkeeping per MPI call
    talp_pmpi_base: float = 60.0
    #: TALP PMPI bookkeeping per *open region* per MPI call
    talp_mpi_per_open_region: float = 60.0
    #: TALP region-stop POP accounting when MPI occurred inside the
    #: region instance (MPI-time attribution + efficiency counters).
    #: This is the term that makes ICs selected *by MPI reachability*
    #: disproportionately expensive under TALP (§VI-C: TALP's mpi
    #: variants cost more than Score-P's, although its plain handler is
    #: cheaper) — almost every region the mpi IC instruments enclosed
    #: MPI activity, so almost every exit pays the update.
    talp_mpi_region_update: float = 1600.0
    #: Score-P PMPI wrapper cost per MPI call (constant)
    scorep_mpi_wrapper: float = 180.0
    #: generic __cyg_profile_* shim on top of either tool
    cyg_shim: float = 15.0

    # -- startup (Tinit) costs -----------------------------------------------
    #: one-time measurement-library initialisation
    scorep_init_base: float = 0.4e9
    talp_init_base: float = 0.06e9
    #: reading + hashing one symbol during nm-based collection
    symbol_collect: float = 28_000.0
    #: translating one XRay function id via __xray_function_address
    id_translate: float = 3_000.0
    #: patching one sled (mprotect pair + byte rewrite, amortised)
    patch_sled: float = 55_000.0
    #: registering one DSO with the XRay runtime
    dso_register: float = 2.0e6
    #: parsing one IC entry at startup
    ic_parse_entry: float = 1_200.0

    def __post_init__(self) -> None:
        # the engine adds sled and dispatch prices to the clock inline,
        # past VirtualClock.advance's check: a bad price stops here
        for price in fields(self):
            value = getattr(self, price.name)
            if not math.isfinite(value) or value < 0:
                raise CapiError(
                    f"cost model price {price.name}={value!r} must be "
                    f"finite and non-negative"
                )

    # -- conversions -----------------------------------------------------------

    def handler_cost(self, tool: str) -> float:
        """Per-event handler cost for a measurement tool."""
        if tool == "scorep":
            return self.scorep_event + self.cyg_shim
        if tool == "talp":
            return self.talp_event + self.cyg_shim
        if tool == "none":
            return self.cyg_shim
        raise CapiError(f"unknown tool {tool!r}")
