"""The Score-P measurement runtime.

Receives region enter/exit events (from the DynCaPI bridge or a static
instrumenter), maintains the call-path profile, and charges its own
bookkeeping cost to the virtual clock — in-line, the way a real
measurement system steals application cycles.

Runtime filtering is supported with the semantics the paper describes
(§II-B): filtered regions are not recorded, but the probe invocation and
the filter-list check are still paid for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ScorePError
from repro.execution.clock import VirtualClock
from repro.execution.costs import CostModel
from repro.scorep.filter import ScorePFilter
from repro.scorep.regions import CallTreeNode

#: cost of cross-checking the runtime filter list for one event
RUNTIME_FILTER_CHECK = 90.0


@dataclass
class _OpenFrame:
    node: CallTreeNode
    entered_at: float


@dataclass
class ScorePMeasurement:
    """One process-local Score-P measurement session."""

    clock: VirtualClock
    cost_model: CostModel = field(default_factory=CostModel)
    #: optional runtime filter; probes stay active but filtered regions
    #: are not recorded
    runtime_filter: ScorePFilter | None = None
    root: CallTreeNode = field(default_factory=lambda: CallTreeNode("ROOT"))
    total_events: int = 0
    filtered_events: int = 0
    #: regions whose exit arrived without a matching enter (should stay 0)
    unbalanced_exits: int = 0
    mpi_cycles: float = 0.0
    mpi_calls: int = 0
    _stack: list[_OpenFrame] = field(default_factory=list)
    _filtered_depth: int = 0

    # -- events ----------------------------------------------------------------

    def region_enter(self, name: str) -> None:
        self.total_events += 1
        self.clock.advance(self.cost_model.scorep_event)
        if self._is_filtered(name):
            self.filtered_events += 1
            self._filtered_depth += 1
            return
        parent = self._stack[-1].node if self._stack else self.root
        node = parent.child(name)
        node.visits += 1
        self._stack.append(_OpenFrame(node=node, entered_at=self.clock.now()))

    def region_exit(self, name: str) -> None:
        self.total_events += 1
        self.clock.advance(self.cost_model.scorep_event)
        if self._filtered_depth > 0 and self._is_filtered(name):
            self._filtered_depth -= 1
            self.filtered_events += 1
            return
        if not self._stack:
            self.unbalanced_exits += 1
            return
        frame = self._stack[-1]
        if frame.node.name != name:
            # exit does not match the open region: tolerate (tail calls
            # produce this in real XRay) but record the imbalance
            self.unbalanced_exits += 1
            return
        self._stack.pop()
        frame.node.inclusive_cycles += self.clock.now() - frame.entered_at

    # -- PMPI interception -------------------------------------------------------

    def on_mpi_call(self, op: str, cost_cycles: float) -> float:
        """Score-P's PMPI wrapper: constant bookkeeping per MPI call."""
        self.mpi_calls += 1
        self.mpi_cycles += cost_cycles
        return self.cost_model.scorep_mpi_wrapper

    def estimate_extra(self) -> float:
        """Per-MPI-call overhead estimate for analytic charging."""
        return self.cost_model.scorep_mpi_wrapper

    # -- results ---------------------------------------------------------------------

    def finalize(self) -> None:
        """Close out any regions still open at program end."""
        now = self.clock.now()
        while self._stack:
            frame = self._stack.pop()
            frame.node.inclusive_cycles += now - frame.entered_at

    def profile(self) -> CallTreeNode:
        if self._stack:
            raise ScorePError(
                f"profile requested with {len(self._stack)} regions still "
                f"open; call finalize() first"
            )
        return self.root

    # -- internals ----------------------------------------------------------------------

    def _is_filtered(self, name: str) -> bool:
        if self.runtime_filter is None:
            return False
        self.clock.advance(RUNTIME_FILTER_CHECK)
        return not self.runtime_filter.is_included(name)
