"""Parallel execution backends for the rank scheduler.

Ranks are embarrassingly parallel — no shared mutable state, no
cross-rank messages during execution (synchronisation is attributed by
the reducer afterwards) — so the backend interface is a single
``map_ranks(built, tasks)``.

Three implementations ship:

* :class:`SerialBackend` — in-process loop, deterministic and
  dependency-free; the default.
* :class:`MultiprocessingBackend` — a ``multiprocessing`` pool using
  the ``fork`` start method where available.  Fork keeps the parent's
  interpreter state (including the per-process ``str`` hash salt), so
  worker executions are bit-identical to serial in-process runs; the
  BuiltApp is shipped once per worker through the pool initializer
  rather than once per task.  On platforms without ``fork`` the pool
  falls back to the default start method and *warns* that the
  bit-identical guarantee no longer holds (spawned workers draw a fresh
  hash salt).
* :class:`SupervisedBackend` — a fault-tolerant wrapper around either
  of the above: per-rank deadlines, async result collection (submitted
  futures instead of ``pool.map``, so one failure cannot sink the
  batch), payload integrity checks, bounded retry after the seeded
  backoff shared with the selection service (:mod:`repro.supervision`),
  worker respawn after pool death, and a per-rank
  :class:`~repro.multirank.faults.RankHealth` record.

All backends funnel every rank through the same
:func:`~repro.multirank.scheduler.execute_rank`, so they can only
differ in wall-clock time and fault handling, never in healthy-path
results.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import warnings
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial

from repro.errors import CapiError, RankFailedError, RankTimeoutError
from repro.multirank.faults import RankHealth, check_rank_result
from repro.multirank.scheduler import RankResult, RankTask, execute_rank
from repro.supervision import RetryQueue, backoff_delay

#: BuiltApp of the current worker process (set by the pool initializer)
_WORKER_APP = None


def _init_worker(built) -> None:
    global _WORKER_APP
    _WORKER_APP = built


def _run_in_worker(task: RankTask) -> RankResult:
    if _WORKER_APP is None:
        # explicit error (not an assert: must survive ``python -O``) so
        # an uninitialised-worker bug surfaces identically in optimized
        # runs, and carries the rank id for supervision/attribution
        raise CapiError(
            f"pool worker executed rank {task.rank} before the BuiltApp "
            f"initializer ran; the pool must be created with "
            f"initializer=_init_worker"
        )
    return execute_rank(_WORKER_APP, task)


class SerialBackend:
    """Run ranks one after another in the calling process."""

    name = "serial"

    def map_ranks(self, built, tasks: list[RankTask]) -> list[RankResult]:
        return [execute_rank(built, task) for task in tasks]


class MultiprocessingBackend:
    """Run ranks across a process pool (paper-scale sweeps use all cores)."""

    name = "multiprocessing"

    def __init__(self, processes: int | None = None):
        if processes is not None and processes < 1:
            raise CapiError(f"processes must be >= 1, got {processes}")
        self.processes = processes

    def map_ranks(self, built, tasks: list[RankTask]) -> list[RankResult]:
        if not tasks:
            return []
        if len(tasks) == 1:
            # nothing to parallelise; skip the pool entirely
            return [execute_rank(built, tasks[0])]
        ctx = self._context()
        workers = self.processes or min(len(tasks), os.cpu_count() or 1)
        with ctx.Pool(
            processes=min(workers, len(tasks)),
            initializer=_init_worker,
            initargs=(built,),
        ) as pool:
            return pool.map(_run_in_worker, tasks, chunksize=1)

    @staticmethod
    def _context():
        """The pool context: ``fork`` where available, else an explicit,
        *warned-about* fallback.

        The module contract promises bit-identical-to-serial results,
        which relies on forked workers inheriting the parent's
        interpreter state (notably the per-process ``str`` hash salt).
        A spawn/forkserver fallback starts fresh interpreters, so the
        guarantee would silently degrade — make the degradation loud
        instead of quiet.
        """
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        fallback = multiprocessing.get_start_method(allow_none=False)
        warnings.warn(
            f"the 'fork' start method is unavailable on this platform; "
            f"falling back to {fallback!r}.  Spawned workers start fresh "
            f"interpreters (fresh str hash salt), so the "
            f"bit-identical-to-serial guarantee of MultiprocessingBackend "
            f"no longer holds — set PYTHONHASHSEED or use the serial "
            f"backend for reproducible reductions",
            RuntimeWarning,
            stacklevel=3,
        )
        return multiprocessing.get_context()


class _RankState:
    """Mutable per-rank supervision bookkeeping (internal)."""

    __slots__ = ("task", "attempts", "failures", "first_start", "latency")

    def __init__(self, task: RankTask):
        self.task = task
        self.attempts = 0
        self.failures: list[str] = []
        self.first_start: float | None = None
        self.latency = 0.0


class _InlineExecutor(Executor):
    """The serial inner's executor: ``submit`` runs the attempt at once.

    An in-process hang cannot be pre-empted, so an attempt that overran
    its deadline is failed once it returns.
    """

    def submit(self, fn, task: RankTask) -> Future:
        future: Future = Future()
        deadline = task.deadline_seconds
        start = time.monotonic()
        try:
            result = fn(task)
            elapsed = time.monotonic() - start
            if deadline is not None and elapsed > deadline:
                raise RankTimeoutError(
                    f"rank {task.rank} attempt {task.attempt + 1} took "
                    f"{elapsed:.3f}s, past the {deadline:.3f}s deadline",
                    rank=task.rank,
                )
        except Exception as exc:  # noqa: BLE001 — the future carries it
            future.set_exception(exc)
        else:
            future.set_result(result)
        return future


class SupervisedBackend:
    """Fault-tolerant supervisor around the serial or mp backend.

    Every rank attempt runs under a per-rank ``deadline_seconds`` and
    its payload passes the :func:`~repro.multirank.faults.check_rank_result`
    integrity gate before being accepted.  A failed attempt (crash,
    deadline overrun, corrupt payload, worker death) is retried up to
    ``max_attempts`` times after the shared seeded backoff
    (:func:`repro.supervision.backoff_delay`, keyed by rank and
    attempt, so retry schedules reproduce).  Both inners run one loop:
    the pooled one over a process pool, the serial one over an
    in-process executor that runs each attempt as it is submitted, so
    other ranks run while one backs off.  On the pooled path, a hard
    worker death (``BrokenProcessPool``) is survived by respawning the
    executor; only the culprit rank — the one whose injected fault plan
    scheduled the death — is charged a failed attempt, collateral ranks
    are resubmitted at their *same* attempt number so the fault
    schedule stays deterministic.

    ``map_ranks`` returns results for every rank whose retries
    succeeded (possibly a partial set) and records one
    :class:`~repro.multirank.faults.RankHealth` per rank in
    :attr:`last_health`; the degradation *policy* (accept or forbid a
    partial world) belongs to the scheduler, not the backend.
    """

    name = "supervised"

    def __init__(
        self,
        inner: str = "serial",
        *,
        processes: int | None = None,
        deadline_seconds: float | None = 30.0,
        max_attempts: int = 3,
        seed: int = 7,
    ):
        inner_name = inner.lower() if isinstance(inner, str) else None
        if inner_name in ("mp", "multiprocessing", "parallel"):
            self.inner = "multiprocessing"
        elif inner_name == "auto":
            cores = os.cpu_count() or 1
            self.inner = "multiprocessing" if cores > 1 else "serial"
        elif inner_name == "serial":
            self.inner = "serial"
        else:
            raise CapiError(
                f"SupervisedBackend inner must be 'serial', 'mp' or "
                f"'auto', got {inner!r}"
            )
        if processes is not None and processes < 1:
            raise CapiError(f"processes must be >= 1, got {processes}")
        if max_attempts < 1:
            raise CapiError(f"max_attempts must be >= 1, got {max_attempts}")
        if deadline_seconds is not None and deadline_seconds <= 0.0:
            raise CapiError("deadline_seconds must be positive (or None)")
        self.processes = processes
        self.deadline_seconds = deadline_seconds
        self.max_attempts = max_attempts
        self.seed = seed
        #: RankHealth per rank (rank order) of the most recent map_ranks
        self.last_health: tuple[RankHealth, ...] = ()

    def map_ranks(self, built, tasks: list[RankTask]) -> list[RankResult]:
        if not tasks:
            self.last_health = ()
            return []
        pooled = self.inner == "multiprocessing" and len(tasks) > 1
        if pooled:
            workers = min(
                self.processes or min(len(tasks), os.cpu_count() or 1),
                len(tasks),
            )
            run = _run_in_worker
            spawn = partial(
                ProcessPoolExecutor,
                max_workers=workers,
                mp_context=MultiprocessingBackend._context(),
                initializer=_init_worker,
                initargs=(built,),
            )
        else:
            workers = 1
            # bound per call, so a wrapped execute_rank is the one run
            run = partial(execute_rank, built)
            spawn = _InlineExecutor
        return self._supervise(tasks, run, spawn, workers, in_child=pooled)

    def _supervise(
        self, tasks, run, spawn, workers: int, *, in_child: bool
    ) -> list[RankResult]:
        deadline = self.deadline_seconds
        states = {
            task.rank: _RankState(
                replace(task, in_child=in_child, deadline_seconds=deadline)
            )
            for task in tasks
        }
        executor = spawn()

        # Submission is throttled to the true worker count: a future is
        # only handed to the executor when a slot is genuinely free, so
        # its submit time IS its start time and the per-rank deadline
        # clocks execution, never queue wait (an executor's own queue
        # would mark one extra buffered future as running and a rank
        # stuck behind a hung sibling would falsely time out).  A timed
        # out future is abandoned but its worker stays busy until the
        # (bounded) overrun ends — it occupies a slot as a *zombie*
        # until then.
        pending: dict = {}  # our live futures -> (rank, attempt, start)
        zombies: set = set()  # abandoned futures still holding a worker
        ready = deque((task.rank, 0) for task in tasks)  # awaiting a slot
        retries = RetryQueue()  # (rank, attempt) waiting out a backoff
        results: dict[int, RankResult] = {}

        def submit(rank: int, attempt: int) -> None:
            state = states[rank]
            now = time.monotonic()
            if state.first_start is None:
                state.first_start = now
            state.attempts = max(state.attempts, attempt + 1)
            fut = executor.submit(run, replace(state.task, attempt=attempt))
            pending[fut] = (rank, attempt, now)

        def fail(rank: int, attempt: int, exc: Exception) -> None:
            """Charge a failed attempt; queue a retry or declare loss."""
            state = states[rank]
            state.failures.append(
                f"attempt {attempt + 1}: {type(exc).__name__}: {exc}"
            )
            if attempt + 1 < self.max_attempts:
                due = time.monotonic() + backoff_delay(
                    self.seed, rank, attempt + 1
                )
                retries.schedule(due, (rank, attempt + 1))
            else:
                state.latency = time.monotonic() - (state.first_start or 0.0)

        try:
            while pending or zombies or retries or ready:
                ready.extend(retries.pop_due(time.monotonic()))
                while ready and len(pending) + len(zombies) < workers:
                    submit(*ready.popleft())
                if not pending and not zombies:
                    # nothing in flight: only a future retry remains
                    time.sleep(max(0.0, retries.next_due() - time.monotonic()))
                    continue

                next_event = math.inf
                if deadline is not None and pending:
                    next_event = min(
                        start + deadline for (_, _, start) in pending.values()
                    )
                if retries:
                    next_event = min(next_event, retries.next_due())
                timeout = (
                    None
                    if math.isinf(next_event)
                    else max(0.0, next_event - time.monotonic())
                )
                done, _ = futures_wait(
                    set(pending) | zombies,
                    timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )

                broken: list[tuple[int, int]] = []
                pool_broke = False
                for fut in done:
                    if fut in zombies:
                        # a hung worker came back: its stale result (or
                        # error) is discarded, the slot is free again
                        zombies.discard(fut)
                        if isinstance(fut.exception(), BrokenProcessPool):
                            pool_broke = True
                        continue
                    rank, attempt, _start = pending.pop(fut)
                    try:
                        rank_result = check_rank_result(
                            fut.result(),
                            tracing=states[rank].task.settings.tracing,
                        )
                    except BrokenProcessPool:
                        pool_broke = True
                        broken.append((rank, attempt))
                    except Exception as exc:  # noqa: BLE001
                        fail(rank, attempt, exc)
                    else:
                        results[rank] = rank_result
                        state = states[rank]
                        state.latency = time.monotonic() - (
                            state.first_start or 0.0
                        )

                if pool_broke:
                    # the whole pool is gone: every in-flight future is
                    # doomed — respawn and resubmit the survivors
                    for rank, attempt, _start in pending.values():
                        broken.append((rank, attempt))
                    pending.clear()
                    zombies.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = spawn()
                    culprits = {
                        rank
                        for rank, attempt in broken
                        if states[rank].task.fault is not None
                        and states[rank].task.fault.active_kind(attempt)
                        == "die"
                    }
                    if not culprits:
                        # a real (uninjected) death: no way to attribute,
                        # charge everyone a failed attempt (still safe —
                        # at worst innocents burn one retry)
                        culprits = {rank for rank, _ in broken}
                    for rank, attempt in broken:
                        if rank in culprits:
                            fail(
                                rank,
                                attempt,
                                RankFailedError(
                                    f"worker process executing rank {rank} "
                                    f"died (attempt {attempt + 1})",
                                    rank=rank,
                                ),
                            )
                        else:
                            # collateral damage: resubmitted at the SAME
                            # attempt number so the deterministic fault
                            # schedule is unaffected by pool timing
                            ready.append((rank, attempt))

                if deadline is not None:
                    now = time.monotonic()
                    for fut in list(pending):
                        rank, attempt, start = pending[fut]
                        if now - start > deadline and not fut.done():
                            del pending[fut]
                            if not fut.cancel():
                                zombies.add(fut)
                            fail(
                                rank,
                                attempt,
                                RankTimeoutError(
                                    f"rank {rank} attempt {attempt + 1} "
                                    f"exceeded the {deadline:.3f}s deadline",
                                    rank=rank,
                                ),
                            )
        finally:
            executor.shutdown(wait=False)

        self.last_health = tuple(
            RankHealth(
                rank=rank,
                outcome="ok" if rank in results else "lost",
                attempts=state.attempts,
                latency_seconds=state.latency,
                failures=tuple(state.failures),
            )
            for rank, state in sorted(states.items())
        )
        return [results[t.rank] for t in tasks if t.rank in results]


def resolve_backend(
    backend: "str | object", processes: int | None = None
):
    """Accept a backend instance or a spelled-out name.

    Names take an optional ``:N`` worker-count suffix (``"mp:4"``), and
    ``"supervised"`` an optional inner backend (``"supervised:mp"``,
    ``"supervised:mp:4"``).  The ``processes`` kwarg is the programmatic
    spelling of the same knob; passing both (or either with an already
    constructed instance) is a conflict and raises.
    """
    if not isinstance(backend, str):
        if not hasattr(backend, "map_ranks"):
            raise CapiError(f"object {backend!r} is not a rank backend")
        if processes is not None:
            raise CapiError(
                "processes= cannot override an already constructed backend "
                "instance; construct it with the desired worker count"
            )
        return backend

    name, _, suffix = backend.lower().partition(":")
    inner: str | None = None
    suffix_processes: int | None = None
    for part in filter(None, suffix.split(":")):
        if part.isdigit():
            if suffix_processes is not None:
                raise CapiError(f"duplicate worker count in {backend!r}")
            suffix_processes = int(part)
        elif inner is None and name == "supervised":
            inner = part
        else:
            raise CapiError(f"unrecognised backend suffix in {backend!r}")
    if suffix_processes is not None and processes is not None:
        if suffix_processes != processes:
            raise CapiError(
                f"conflicting worker counts: backend={backend!r} but "
                f"processes={processes}"
            )
    processes = processes if processes is not None else suffix_processes

    if name == "serial":
        if processes is not None:
            raise CapiError("the serial backend takes no worker count")
        return SerialBackend()
    if name in ("multiprocessing", "mp", "parallel"):
        return MultiprocessingBackend(processes=processes)
    if name == "supervised":
        return SupervisedBackend(inner or "serial", processes=processes)
    if name == "auto":
        cores = os.cpu_count() or 1
        if cores > 1:
            return MultiprocessingBackend(processes=processes)
        if processes is not None and processes > 1:
            return MultiprocessingBackend(processes=processes)
        return SerialBackend()
    raise CapiError(
        f"unknown rank backend {backend!r}; expected 'serial', "
        f"'multiprocessing', 'supervised' or 'auto'"
    )
