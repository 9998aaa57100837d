"""Service health: quarantine circuit breakers and supervision records.

Two concerns live here, both surfaced through
``SelectionService.stats_snapshot()["health"]`` and emitted as
structured :class:`~repro.trace.alerts.Alert` records (the PR 7 JSONL
schema, so the trace watchdog's collectors ingest service incidents
unchanged):

* :class:`QuarantineBreaker` — a per-``(graph key, structural cache
  key)`` circuit breaker.  A spec whose evaluation fails
  ``threshold`` *consecutive* times on one graph is quarantined: further
  requests fail fast with
  :class:`~repro.errors.QuarantinedSpecError` instead of burning a
  worker pass on a known-poison query.  After ``cooldown_seconds`` the
  breaker goes **half-open**: exactly one probe request is let through
  per cooldown window — success closes the breaker (and resets the
  failure count), failure re-opens it.  The clock is injectable so the
  state machine is unit-testable without sleeping.

* :class:`ServiceHealth` — the aggregate supervision record: shard
  restarts (worker death or deadline-wedge depose), rescue and loss
  counters, on top of the bounded :class:`~repro.trace.alerts.AlertLog`
  that the trace watchdog writes through too.

Alert codes (stable, kebab-case, ``service-`` prefixed so watchdog
rules can route on them):

* ``service-shard-death`` — a shard worker thread died; respawned.
* ``service-shard-wedged`` — a shard overran its processing deadline;
  deposed and respawned (the old thread lingers as a zombie until its
  bounded overrun ends).
* ``service-spec-quarantined`` — a structural key tripped the breaker.
* ``service-request-lost`` — a rescued request exhausted its retry
  budget and was failed with a typed error.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ServiceError
from repro.trace.alerts import Alert, AlertLog

#: consecutive evaluation failures of one (graph, key) before it opens
DEFAULT_QUARANTINE_THRESHOLD = 3
#: seconds a breaker stays open before allowing a half-open probe
DEFAULT_QUARANTINE_COOLDOWN = 30.0


@dataclass
class _BreakerState:
    """One quarantined (graph, key)'s live state (under the breaker lock)."""

    failures: int = 0
    state: str = "closed"  # "closed" | "open" | "half_open"
    opened_at: float = 0.0
    #: a probe is in flight; further requests fail fast until it lands
    probing: bool = False
    opened_times: int = 0


class QuarantineBreaker:
    """Per-(graph key, structural key) circuit breaker for poison specs."""

    def __init__(
        self,
        *,
        threshold: int = DEFAULT_QUARANTINE_THRESHOLD,
        cooldown_seconds: float = DEFAULT_QUARANTINE_COOLDOWN,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ServiceError("quarantine threshold must be >= 1")
        if cooldown_seconds < 0.0:
            raise ServiceError("quarantine cooldown must be non-negative")
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        #: only keys with at least one recorded failure have state
        self._states: dict[tuple[str, str], _BreakerState] = {}
        self.opened_total = 0
        self.fast_fails = 0

    def admit(self, graph_key: str, spec_key: str) -> str:
        """Gate one request: ``"ok"`` | ``"probe"`` | ``"fast_fail"``.

        ``"probe"`` is granted to exactly one request per half-open
        window; its outcome must be reported back through
        :meth:`record_success` / :meth:`record_failure`.

        Healthy fast path: the state table only holds keys with at
        least one recorded failure, so when it is empty (the steady
        state of a healthy service) admission is a lock-free truthiness
        check.  The unlocked read is benign: entries are only *added*
        under the lock by a failure that has already been counted, and
        a request racing that first failure would have been admitted
        either way.
        """
        if not self._states:
            return "ok"
        with self._lock:
            state = self._states.get((graph_key, spec_key))
            if state is None or state.state == "closed":
                return "ok"
            if state.state == "open":
                if self._clock() - state.opened_at >= self.cooldown_seconds:
                    state.state = "half_open"
                    state.probing = True
                    return "probe"
                self.fast_fails += 1
                return "fast_fail"
            # half-open: one probe at a time
            if not state.probing:
                state.probing = True
                return "probe"
            self.fast_fails += 1
            return "fast_fail"

    def record_success(self, graph_key: str, spec_key: str) -> None:
        """A (possibly probing) evaluation succeeded: close and forget."""
        if not self._states:  # lock-free healthy fast path (see admit)
            return
        with self._lock:
            self._states.pop((graph_key, spec_key), None)

    def record_failure(self, graph_key: str, spec_key: str) -> bool:
        """An evaluation failed; True when this failure *opened* the breaker.

        A failing half-open probe re-opens immediately (the cooldown
        restarts); a closed key opens once ``threshold`` consecutive
        failures accumulate.
        """
        with self._lock:
            state = self._states.setdefault(
                (graph_key, spec_key), _BreakerState()
            )
            state.failures += 1
            state.probing = False
            if state.state == "closed" and state.failures < self.threshold:
                return False
            opened = state.state != "open"
            state.state = "open"
            state.opened_at = self._clock()
            if opened:
                state.opened_times += 1
                self.opened_total += 1
            return opened

    def is_open(self, graph_key: str, spec_key: str) -> bool:
        with self._lock:
            state = self._states.get((graph_key, spec_key))
            return state is not None and state.state != "closed"

    def snapshot(self) -> dict:
        """Point-in-time breaker table for ``stats_snapshot()``."""
        with self._lock:
            return {
                "threshold": self.threshold,
                "cooldown_seconds": self.cooldown_seconds,
                "opened_total": self.opened_total,
                "fast_fails": self.fast_fails,
                "open": sorted(
                    f"{graph}:{key}"
                    for (graph, key), s in self._states.items()
                    if s.state == "open"
                ),
                "half_open": sorted(
                    f"{graph}:{key}"
                    for (graph, key), s in self._states.items()
                    if s.state == "half_open"
                ),
                "tracked": len(self._states),
            }


class ServiceHealth(AlertLog):
    """Aggregate supervision record of one :class:`SelectionService`.

    Mutations come from the supervisor thread and the worker shards;
    the counters and the alert log share one lock.  With an
    ``alerts_path`` every alert is also appended to that JSONL file,
    the stream the trace watchdog writes.
    """

    def __init__(self, alerts_path: "str | None" = None) -> None:
        super().__init__(alerts_path)
        self.restarts = 0
        #: restarts caused by a deadline overrun (subset of ``restarts``)
        self.wedges = 0
        #: requests taken from a dead/wedged shard (not transient-fault
        #: retries, which ``stats["retried"]`` counts)
        self.rescued = 0
        #: requests failed after exhausting their retry budget
        self.lost = 0

    def record_restart(
        self, shard_index: int, *, wedged: bool, rescued: int, detail: str
    ) -> None:
        with self._lock:
            self.restarts += 1
            if wedged:
                self.wedges += 1
            self.rescued += rescued
        self.emit(
            Alert(
                code="service-shard-wedged" if wedged else "service-shard-death",
                severity="warning",
                rank=shard_index,
                detail=detail,
            )
        )

    def record_lost(self, shard_index: int, detail: str) -> None:
        with self._lock:
            self.lost += 1
        self.emit(
            Alert(
                code="service-request-lost",
                severity="critical",
                rank=shard_index,
                detail=detail,
            )
        )

    def record_quarantine(self, graph_key: str, spec_key: str, detail: str):
        self.emit(
            Alert(
                code="service-spec-quarantined",
                severity="warning",
                region=f"{graph_key}:{spec_key[:48]}",
                detail=detail,
            )
        )

    def counters(self) -> dict:
        with self._lock:
            return {
                "restarts": self.restarts,
                "wedges": self.wedges,
                "rescued": self.rescued,
                "lost": self.lost,
                "alerts": len(self._alerts),
            }
