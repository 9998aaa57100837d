"""The virtual clock: deterministic cycle accounting.

All timing in the reproduction is virtual.  The clock counts cycles;
:attr:`VirtualClock.seconds` converts using a nominal frequency so
reports read like the paper's wall-clock tables.  Nothing ever reads
the host's real time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ExecutionError

#: Nominal simulated core frequency used to convert cycles to seconds.
CYCLES_PER_SECOND = 2.0e9


@dataclass
class VirtualClock:
    cycles: float = 0.0
    frequency: float = CYCLES_PER_SECOND

    def advance(self, cycles: float) -> None:
        if cycles < 0:
            raise ExecutionError(f"cannot advance clock by negative {cycles}")
        self.cycles += cycles

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency

    def now(self) -> float:
        """Current timestamp in cycles (for interval measurements)."""
        return self.cycles
