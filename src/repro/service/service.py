"""Multi-tenant selection service: supervised, sharded admission front door.

The service turns the one-shot pipeline (build → compile → select) into
a long-lived query front door:

* **admission** — :meth:`SelectionService.submit` enqueues a
  ``(tenant, graph key, spec source)`` request and returns a
  :class:`concurrent.futures.Future`.  Admission is bounded
  (``max_in_flight``): past the bound, submitters block — backpressure
  instead of unbounded queue growth.  A client that stops waiting
  cancels its future (``select`` does this on timeout) and the slot is
  reclaimed when the worker next sees the request.
* **sharding** — ``shards=N`` splits the worker into N
  :class:`~repro.service.shard.ServiceShard` threads, each owning a
  disjoint hash-slice of graph keys with its own per-tenant queues and
  adaptive micro-batch window.  A graph's edits stay serialised with
  its evaluations (same key → same shard) while unrelated graphs
  proceed in parallel — and a wedged or crashed shard cannot take its
  siblings down.  The default of one shard preserves the PR 8 single
  worker exactly.
* **supervision** — a supervisor thread heartbeats every shard:
  a dead worker is respawned, a worker that overruns
  ``shard_deadline_seconds`` mid-round is deposed (generation bump; the
  zombie exits on wake) and respawned, and the interrupted round's
  requests are re-enqueued with seeded backoff up to ``max_attempts``
  before failing fast with :class:`~repro.errors.ServiceTimeoutError`.
  Incidents land in a :class:`~repro.service.health.ServiceHealth`
  record — surfaced via ``stats_snapshot()["health"]`` and emitted as
  :class:`~repro.trace.alerts.Alert` records (optionally appended to an
  ``alerts_path`` JSONL file the PR 7 watchdog tooling can ingest).
* **containment** — a failed group evaluation is re-run query by query
  so only the culprit fails, and a spec whose structural key fails
  ``quarantine_threshold`` consecutive times on a graph is quarantined
  behind a circuit breaker (fail fast with
  :class:`~repro.errors.QuarantinedSpecError`, half-open probe after
  ``quarantine_cooldown_seconds``).
* **micro-batching / edits / observability** — as in PR 8: per-tenant
  FIFO queues drained round-robin, an adaptive coalescing window per
  shard, serialised graph edits via :meth:`submit_edit`, and
  :meth:`stats_snapshot` for counters.

Compilation is amortised through a per-service LRU of spec source →
:class:`~repro.core.pipeline.CompiledSpec` (compiled specs are
graph-independent and immutable, so one entry serves every tenant and
every shard); the cache and its hit counters live under the service
lock so concurrent shards never tear them.

Deterministic chaos (seeded compile errors, evaluation crashes, worker
hangs/deaths, cancellation races, poison specs) plugs in via
``faults=`` — a :class:`~repro.service.faults.ServiceFaultSpec` or a
preset name — and requires ``supervised=True``; the chaos acceptance
contract is that every finite schedule heals with answers bit-identical
to a fault-free run.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Callable

from repro.cg.graph import CallGraph
from repro.core.pipeline import CompiledSpec, SelectionResult, compile_spec
from repro.errors import (
    ServiceClosedError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.service.batch import BatchEvaluator
from repro.service.faults import ServiceFaultInjector, resolve_service_faults
from repro.service.health import (
    DEFAULT_QUARANTINE_COOLDOWN,
    DEFAULT_QUARANTINE_THRESHOLD,
    QuarantineBreaker,
    ServiceHealth,
)
from repro.service.shard import ServiceShard, shard_of
from repro.service.store import GraphStore
from repro.supervision import RetryQueue, backoff_delay
from repro.trace.alerts import Alert

#: default micro-batch window: long enough to coalesce a burst of
#: concurrent clients, short enough to stay invisible at human scale
DEFAULT_WINDOW_SECONDS = 0.002
DEFAULT_MAX_BATCH = 64
DEFAULT_MAX_IN_FLIGHT = 1024
DEFAULT_COMPILE_CACHE = 256
#: a worker round (one batch + its edits) overrunning this is wedged
DEFAULT_SHARD_DEADLINE = 10.0
#: supervisor tick: heartbeat checks + due-retry dispatch
DEFAULT_SUPERVISE_INTERVAL = 0.05
#: total attempts per request before the supervisor gives up on it
DEFAULT_MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class ServiceResponse:
    """One answered selection query."""

    selection: SelectionResult
    graph_key: str
    #: graph version the result was computed at (mutations bump it)
    graph_version: int
    tenant: str


@dataclass
class _Request:
    tenant: str
    graph_key: str
    source: str
    spec_name: str
    future: Future
    enqueued_at: float
    #: failed attempts so far (transient faults + supervisor rescues)
    attempts: int = 0
    #: exactly-once completion: whichever path sets ``done`` first owns
    #: the resolution and the single admission-slot release
    lock: threading.Lock = field(default_factory=threading.Lock)
    done: bool = False


@dataclass
class _Edit:
    graph_key: str
    mutate: Callable[[CallGraph], object]
    future: Future
    done: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class ServiceStats:
    """Mutable counters; :meth:`SelectionService.stats_snapshot` reads them."""

    requests: int = 0
    responses: int = 0
    failures: int = 0
    edits: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch_size: int = 0
    deduped: int = 0
    unique_evaluated: int = 0
    cross_hits: int = 0
    compile_hits: int = 0
    compile_misses: int = 0
    #: requests whose future the client cancelled before resolution
    cancelled: int = 0
    #: retries scheduled (transient faults + rescued in-flight work)
    retried: int = 0
    #: group evaluations that failed and were re-run query by query
    contained_groups: int = 0
    #: individual containment re-runs that produced an answer
    isolated_reruns: int = 0
    latency_sum: float = 0.0
    latency_max: float = 0.0
    per_tenant: dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    @property
    def mean_latency(self) -> float:
        return self.latency_sum / self.responses if self.responses else 0.0


class SelectionService:
    """Long-lived, batched, supervised selection service over a GraphStore."""

    def __init__(
        self,
        store: GraphStore | None = None,
        *,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        compile_cache_entries: int = DEFAULT_COMPILE_CACHE,
        verify: bool = False,
        shards: int = 1,
        supervised: bool = True,
        faults: "object | str | None" = None,
        seed: int = 0,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        shard_deadline_seconds: float = DEFAULT_SHARD_DEADLINE,
        supervise_interval: float = DEFAULT_SUPERVISE_INTERVAL,
        quarantine_threshold: int = DEFAULT_QUARANTINE_THRESHOLD,
        quarantine_cooldown_seconds: float = DEFAULT_QUARANTINE_COOLDOWN,
        alerts_path: "str | None" = None,
    ) -> None:
        if max_batch < 1:
            raise ServiceError("max_batch must be at least 1")
        if max_in_flight < 1:
            raise ServiceError("max_in_flight must be at least 1")
        if shards < 1:
            raise ServiceError("shards must be at least 1")
        if max_attempts < 1:
            raise ServiceError("max_attempts must be at least 1")
        if shard_deadline_seconds <= 0.0:
            raise ServiceError("shard_deadline_seconds must be positive")
        if supervise_interval <= 0.0:
            raise ServiceError("supervise_interval must be positive")
        fault_spec = resolve_service_faults(faults)
        if fault_spec is not None and not fault_spec.quiet and not supervised:
            raise ServiceError(
                "fault injection requires supervised=True: an unsupervised "
                "service has no one to heal the faults"
            )
        self.store = store if store is not None else GraphStore()
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self.verify = verify
        self.seed = seed
        self.supervised = supervised
        self.max_attempts = max_attempts
        self.shard_deadline_seconds = shard_deadline_seconds
        self.supervise_interval = supervise_interval
        self._evaluator = BatchEvaluator(verify=verify)
        self._compile_cache: dict[str, CompiledSpec] = {}
        self._compile_cap = compile_cache_entries
        #: guards stats, the compile LRU and the retry queue.  Ordering:
        #: a shard's condition may be held while taking this lock,
        #: never the reverse.
        self._lock = threading.Lock()
        self._in_flight = threading.BoundedSemaphore(max_in_flight)
        self._closing = False
        self._started_at = time.monotonic()
        self.stats = ServiceStats()
        self._health = ServiceHealth(alerts_path)
        self._breaker: QuarantineBreaker | None = (
            QuarantineBreaker(
                threshold=quarantine_threshold,
                cooldown_seconds=quarantine_cooldown_seconds,
            )
            if supervised
            else None
        )
        #: requests waiting out their seeded backoff
        self._retries = RetryQueue()
        #: deposed worker threads still sleeping off a bounded hang
        self._zombies: list[threading.Thread] = []
        self._shards = [ServiceShard(self, i) for i in range(shards)]
        if fault_spec is not None:
            for shard in self._shards:
                shard.injector = ServiceFaultInjector(fault_spec, shard.index)
        for shard in self._shards:
            shard.spawn()
        self._supervisor_stop = threading.Event()
        self._supervisor: threading.Thread | None = None
        if supervised:
            self._supervisor = threading.Thread(
                target=self._supervise,
                name="selection-supervisor",
                daemon=True,
            )
            self._supervisor.start()

    # -- client surface ----------------------------------------------------------

    def admit(self, key: str, graph: CallGraph) -> None:
        """Register a call graph so queries can target it by key."""
        self.store.admit(key, graph)

    def _shard_for(self, graph_key: str) -> ServiceShard:
        return self._shards[shard_of(graph_key, len(self._shards))]

    def submit(
        self,
        graph_key: str,
        spec_source: str,
        *,
        tenant: str = "default",
        spec_name: str = "",
    ) -> "Future[ServiceResponse]":
        """Enqueue one selection query; resolves to a :class:`ServiceResponse`.

        Blocks for admission once ``max_in_flight`` requests are
        pending (backpressure).  Raises :class:`ServiceClosedError`
        after :meth:`close`.  Cancelling the returned future before it
        resolves is honoured: the worker discards the request and
        releases its admission slot.
        """
        if self._closing:
            raise ServiceClosedError("selection service is closed")
        self._in_flight.acquire()
        if self._closing:
            self._in_flight.release()
            raise ServiceClosedError("selection service is closed")
        request = _Request(
            tenant=tenant,
            graph_key=graph_key,
            source=spec_source,
            spec_name=spec_name,
            future=Future(),
            enqueued_at=time.monotonic(),
        )
        with self._lock:
            self.stats.requests += 1
            self.stats.per_tenant[tenant] = (
                self.stats.per_tenant.get(tenant, 0) + 1
            )
        self._shard_for(graph_key).enqueue(request)
        return request.future

    def select(
        self,
        graph_key: str,
        spec_source: str,
        *,
        tenant: str = "default",
        spec_name: str = "",
        timeout: float | None = 30.0,
    ) -> ServiceResponse:
        """Synchronous :meth:`submit`; cancels its request on timeout.

        A timed-out request no longer leaks its ``max_in_flight`` slot:
        the future is cancelled, the worker discards the request at the
        next gather (or the guarded resolution drops the late answer),
        and the slot is released exactly once either way.
        """
        future = self.submit(
            graph_key, spec_source, tenant=tenant, spec_name=spec_name
        )
        try:
            return future.result(timeout=timeout)
        except (FuturesTimeoutError, TimeoutError):
            if future.cancel():
                raise ServiceTimeoutError(
                    f"selection on graph {graph_key!r} timed out after "
                    f"{timeout}s (request cancelled, slot reclaimed)"
                ) from None
            # resolved in the race window between timeout and cancel
            return future.result(timeout=0)

    def submit_edit(
        self, graph_key: str, mutate: Callable[[CallGraph], object]
    ) -> "Future[int]":
        """Apply ``mutate(graph)`` serialised with the graph's evaluation.

        The callable runs in the owning shard's worker thread between
        batches — never concurrently with a batch over that graph.  The
        future resolves to the graph's post-edit version.
        """
        if self._closing:
            raise ServiceClosedError("selection service is closed")
        edit = _Edit(graph_key=graph_key, mutate=mutate, future=Future())
        self._shard_for(graph_key).enqueue_edit(edit)
        return edit.future

    def edit(
        self,
        graph_key: str,
        mutate: Callable[[CallGraph], object],
        *,
        timeout: float | None = 30.0,
    ) -> int:
        return self.submit_edit(graph_key, mutate).result(timeout=timeout)

    def stats_snapshot(self) -> dict:
        """Point-in-time service + store + supervision statistics.

        Per-shard window/queue figures are read without the shards'
        locks — they are single-word reads of floats/ints (atomic in
        CPython), and the snapshot is a monitoring view, not a barrier.
        """
        with self._lock:
            s = self.stats
            elapsed = time.monotonic() - self._started_at
            snapshot = {
                "requests": s.requests,
                "responses": s.responses,
                "failures": s.failures,
                "edits": s.edits,
                "batches": s.batches,
                "mean_batch_size": s.mean_batch_size,
                "max_batch_size": s.max_batch_size,
                "deduped": s.deduped,
                "unique_evaluated": s.unique_evaluated,
                "cross_hits": s.cross_hits,
                "compile_hits": s.compile_hits,
                "compile_misses": s.compile_misses,
                "cancelled": s.cancelled,
                "retried": s.retried,
                "contained_groups": s.contained_groups,
                "isolated_reruns": s.isolated_reruns,
                "mean_latency_seconds": s.mean_latency,
                "max_latency_seconds": s.latency_max,
                "requests_per_second": s.responses / elapsed if elapsed else 0.0,
                "per_tenant": dict(s.per_tenant),
            }
        snapshot["window"] = {
            "configured_seconds": self.window_seconds,
            "current_seconds": self._shards[0]._window,
            "per_shard_seconds": [shard._window for shard in self._shards],
        }
        snapshot["store"] = self.store.stats.as_dict()
        snapshot["uptime_seconds"] = elapsed
        snapshot["health"] = self._health_snapshot()
        return snapshot

    def _health_snapshot(self) -> dict:
        with self._lock:
            self._zombies = [t for t in self._zombies if t.is_alive()]
            zombies = len(self._zombies)
            retry_depth = len(self._retries)
        injected: dict[str, int] = {}
        shards = []
        for shard in self._shards:
            worker = shard.worker
            shards.append(
                {
                    "index": shard.index,
                    "restarts": shard.restarts,
                    "generation": shard.generation,
                    "queued": shard.pending(),
                    "busy": shard.busy_since is not None,
                    "alive": worker is not None and worker.is_alive(),
                }
            )
            if shard.injector is not None:
                for kind, count in shard.injector.injected_so_far().items():
                    injected[kind] = injected.get(kind, 0) + count
        return {
            **self._health.counters(),
            "zombies": zombies,
            "supervised": self.supervised,
            "shard_count": len(self._shards),
            "shards": shards,
            "retry_queue_depth": retry_depth,
            "quarantine": (
                self._breaker.snapshot() if self._breaker is not None else None
            ),
            "injected": injected,
        }

    def health_alerts(self) -> list[Alert]:
        """Structured alerts emitted so far (restart/quarantine/loss)."""
        return self._health.alerts()

    def close(self, timeout: float | None = 30.0) -> None:
        """Stop admission, drain queued work, stop workers + supervisor."""
        with self._lock:
            already = self._closing
            self._closing = True
        # retries still waiting out their backoff are failed, not
        # re-enqueued: a drained shard will never gather them, and a
        # typed failure beats a future that never resolves
        self._dispatch_due_retries(flush=True)
        for shard in self._shards:
            with shard._cond:
                shard._cond.notify_all()
        deadline = time.monotonic() + (timeout if timeout is not None else 0.0)
        for shard in self._shards:
            # the supervisor may swap in replacement workers while we
            # drain, so poll the drained flag instead of one thread
            while not shard.drained:
                worker = shard.worker
                if worker is None:  # pragma: no cover - defensive
                    break
                remaining = deadline - time.monotonic()
                if timeout is not None and remaining <= 0:
                    break
                worker.join(
                    timeout=min(0.05, remaining) if timeout is not None else 0.05
                )
                if not worker.is_alive() and worker is shard.worker:
                    if shard.drained or not self.supervised:
                        break
        if self._supervisor is not None:
            self._supervisor_stop.set()
            self._supervisor.join(timeout=timeout)
        if already:
            return
        for shard in self._shards:
            worker = shard.worker
            if worker is not None and worker.is_alive() and not shard.drained:
                raise ServiceError(
                    f"selection shard {shard.index} failed to stop"
                )

    def __enter__(self) -> "SelectionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- completion (exactly-once, cancellation-safe) ----------------------------

    def _claim(self, request: _Request) -> bool:
        """Atomically claim the right to resolve ``request``.

        The winner must resolve the future (guarded) and release the
        admission slot; every later claimant backs off.  This is what
        makes client cancellation, zombie workers and retry dispatch
        coexist without double-resolution or slot leaks.
        """
        with request.lock:
            if request.done:
                return False
            request.done = True
            return True

    def _discard_cancelled(self, request: _Request) -> bool:
        """Drop a client-cancelled request; True when it must be skipped."""
        if not request.future.cancelled():
            return False
        if self._claim(request):
            self._in_flight.release()
            with self._lock:
                self.stats.cancelled += 1
        return True

    def _finish_response(
        self,
        request: _Request,
        result: SelectionResult,
        graph_key: str,
        graph_version: int,
        now: float,
    ) -> None:
        if not self._claim(request):
            return
        latency = now - request.enqueued_at
        with self._lock:
            self.stats.responses += 1
            self.stats.latency_sum += latency
            self.stats.latency_max = max(self.stats.latency_max, latency)
        try:
            request.future.set_result(
                ServiceResponse(
                    selection=result,
                    graph_key=graph_key,
                    graph_version=graph_version,
                    tenant=request.tenant,
                )
            )
        except InvalidStateError:
            # client cancelled between the gather-time check and now;
            # the answer is dropped but the slot is still released once
            with self._lock:
                self.stats.responses -= 1
                self.stats.latency_sum -= latency
                self.stats.cancelled += 1
        self._in_flight.release()

    def _finish_error(self, request: _Request, exc: BaseException) -> None:
        if not self._claim(request):
            return
        with self._lock:
            self.stats.failures += 1
        try:
            request.future.set_exception(exc)
        except InvalidStateError:
            with self._lock:
                self.stats.failures -= 1
                self.stats.cancelled += 1
        self._in_flight.release()

    def _finish_edit(
        self,
        edit: _Edit,
        *,
        version: "int | None" = None,
        error: "BaseException | None" = None,
    ) -> None:
        with edit.lock:
            if edit.done:
                return
            edit.done = True
        try:
            if error is not None:
                edit.future.set_exception(error)
            else:
                with self._lock:
                    self.stats.edits += 1
                edit.future.set_result(version)
        except InvalidStateError:  # pragma: no cover - client cancelled
            pass

    # -- retry / quarantine plumbing ---------------------------------------------

    def _retry_or_fail(
        self, request: _Request, shard_index: int, exc: BaseException
    ) -> None:
        """Schedule one more attempt, or fail the request for good.

        Used for transient injected faults and for requests rescued
        from a dead/wedged shard.  Retries go through the seeded
        backoff queue; the supervisor dispatches them when due.  On a
        closing, unsupervised, or exhausted service the request fails
        with the triggering error instead.
        """
        if self._discard_cancelled(request):
            return
        request.attempts += 1
        if (
            request.attempts >= self.max_attempts
            or not self.supervised
        ):
            self._health.record_lost(
                shard_index,
                f"request on graph {request.graph_key!r} failed after "
                f"{request.attempts} attempts: {exc}",
            )
            self._finish_error(request, exc)
            return
        with self._lock:
            self.stats.retried += 1
        if self._closing:
            # the backoff queue stops draining into shards at close; the
            # caller is (or just respawned) the shard's worker, so a
            # direct re-enqueue is still gathered before the drain ends
            self._shard_for(request.graph_key).enqueue(request)
            return
        due = time.monotonic() + backoff_delay(
            self.seed, shard_index, request.attempts
        )
        with self._lock:
            self._retries.schedule(due, request)

    def _admit_spec(self, graph_key: str, spec_key: str) -> str:
        if self._breaker is None:
            return "ok"
        return self._breaker.admit(graph_key, spec_key)

    def _record_spec_success(self, graph_key: str, spec_key: str) -> None:
        if self._breaker is not None:
            self._breaker.record_success(graph_key, spec_key)

    def _record_spec_failure(
        self,
        graph_key: str,
        spec_key: str,
        request: _Request,
        exc: BaseException,
    ) -> None:
        """Fail the request; non-service errors strike the quarantine key.

        :class:`ServiceError` subtypes (unknown graph key, closed
        service, …) describe the *service's* state, not the spec's, so
        they never quarantine a spec.
        """
        if self._breaker is not None and not isinstance(exc, ServiceError):
            opened = self._breaker.record_failure(graph_key, spec_key)
            if opened:
                self._health.record_quarantine(
                    graph_key,
                    spec_key,
                    f"opened after {self._breaker.threshold} consecutive "
                    f"failures; last: {exc}",
                )
        self._finish_error(request, exc)

    # -- compile cache (shared across shards, under the service lock) ------------

    def _compile(self, request: _Request) -> CompiledSpec:
        with self._lock:
            compiled = self._compile_cache.pop(request.source, None)
            if compiled is not None:
                self._compile_cache[request.source] = compiled  # LRU touch
                self.stats.compile_hits += 1
                return compiled
        # compile outside the lock: a concurrent duplicate compile is
        # benign (specs are immutable), a serialised one is a stall
        compiled = compile_spec(request.source, spec_name=request.spec_name)
        with self._lock:
            self.stats.compile_misses += 1
            self._compile_cache[request.source] = compiled
            while len(self._compile_cache) > self._compile_cap:
                self._compile_cache.pop(next(iter(self._compile_cache)))
        return compiled

    # -- supervisor --------------------------------------------------------------

    def _supervise(self) -> None:
        while not self._supervisor_stop.wait(self.supervise_interval):
            try:
                self._supervise_once()
            except Exception as exc:  # pragma: no cover - must not die
                self._health.emit(
                    Alert(
                        code="service-supervisor-error",
                        severity="critical",
                        detail=f"supervisor pass failed: {exc!r}",
                    )
                )
        # one final pass so retries that raced close()'s flush still
        # resolve their futures (with a typed error) instead of hanging
        self._dispatch_due_retries(flush=True)

    def _supervise_once(self) -> None:
        self._dispatch_due_retries()
        now = time.monotonic()
        for shard in self._shards:
            self._check_shard(shard, now)

    def _dispatch_due_retries(self, flush: bool = False) -> None:
        with self._lock:
            due = self._retries.pop_due(time.monotonic(), flush=flush)
        for request in due:
            if self._discard_cancelled(request):
                continue
            if flush:
                self._finish_error(
                    request,
                    ServiceTimeoutError(
                        "service closed while the request awaited its retry"
                    ),
                )
            else:
                self._shard_for(request.graph_key).enqueue(request)

    def _check_shard(self, shard: ServiceShard, now: float) -> None:
        """Depose a wedged worker / replace a dead one, rescue its round."""
        rescued_requests: list[_Request] = []
        rescued_edits: list[_Edit] = []
        wedged = False
        with shard._cond:
            worker = shard.worker
            dead = (
                worker is not None
                and not worker.is_alive()
                and not shard.drained
            )
            wedged = (
                not dead
                and shard.busy_since is not None
                and now - shard.busy_since > self.shard_deadline_seconds
            )
            if not dead and not wedged:
                return
            rescued_requests = list(shard.active_batch)
            rescued_edits = list(shard.active_edits)
            shard.active_batch = []
            shard.active_edits = []
            shard.busy_since = None
            shard.restarts += 1
            if wedged and worker is not None:
                with self._lock:
                    self._zombies.append(worker)
        detail = (
            f"round overran the {self.shard_deadline_seconds:.3g}s deadline"
            if wedged
            else "worker thread died mid-service"
        )
        self._health.record_restart(
            shard.index,
            wedged=wedged,
            rescued=len(rescued_requests),
            detail=detail,
        )
        for edit in rescued_edits:
            self._finish_edit(
                edit,
                error=ServiceTimeoutError(
                    f"edit on graph {edit.graph_key!r} was in flight on "
                    f"shard {shard.index} when it {detail}"
                ),
            )
        rescue_error = ServiceTimeoutError(
            f"request was in flight on shard {shard.index} when it {detail}"
        )
        for request in rescued_requests:
            self._retry_or_fail(request, shard.index, rescue_error)
        shard.spawn()  # generation bump deposes any zombie
