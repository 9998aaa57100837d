"""Run results: the measured quantities behind Table II rows."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.execution.clock import CYCLES_PER_SECOND


@dataclass
class RunResult:
    """Outcome of one simulated application run.

    ``t_init_cycles`` covers everything before ``main`` (XRay sled
    resolution, DynCaPI IC load, symbol collection, patching, tool
    init); ``t_app_cycles`` is the time from entering ``main`` to
    program exit, including instrumentation overhead.
    """

    app_name: str
    tool: str
    config_name: str
    t_init_cycles: float = 0.0
    t_app_cycles: float = 0.0
    frequency: float = CYCLES_PER_SECOND

    entry_events: int = 0
    exit_events: int = 0
    #: events charged analytically (capped repetitions), not walked
    charged_only_calls: int = 0
    mpi_calls: int = 0
    mpi_cycles: float = 0.0
    useful_cycles: float = 0.0
    patched_functions: int = 0
    patched_sleds: int = 0
    per_function_calls: dict[str, int] = field(default_factory=dict)

    @property
    def t_init(self) -> float:
        """Initialisation time in virtual seconds (paper's Tinit)."""
        return self.t_init_cycles / self.frequency

    @property
    def t_total(self) -> float:
        """Total runtime in virtual seconds (paper's Ttotal)."""
        return (self.t_init_cycles + self.t_app_cycles) / self.frequency
