"""Deterministic fault injection for the multi-rank stack.

A measurement campaign only matters if it survives the machine it runs
on: at paper scale (hundreds of ranks, weekly CI sweeps) workers crash,
hang, die and return garbage.  This module is the chaos-testing half of
the fault-tolerance layer: a :class:`FaultSpec` mirrors
:class:`~repro.multirank.imbalance.ImbalanceSpec` — a pure function of
its fields and a seed — and compiles into one
:class:`RankFaultPlan` per afflicted rank, carried on the
:class:`~repro.multirank.scheduler.RankTask` so both backends (and
every retry) see the identical fault schedule.

Four fault kinds are injected inside
:func:`~repro.multirank.scheduler.execute_rank`:

* **crash** — the attempt raises :class:`~repro.errors.InjectedFaultError`;
* **hang** — the attempt sleeps past the supervisor's per-rank deadline
  (bounded: deadline + ``hang_excess_seconds``), then completes — the
  supervisor must detect the overrun and discard the stale result;
* **corrupt** — the attempt completes but its payload is damaged
  (NaN'd profile cycles or a truncated event trace); the supervisor's
  :func:`check_rank_result` integrity gate must catch it;
* **die** — the worker process exits hard (``os._exit``), killing the
  pool; on an in-process backend the death degrades to a crash so both
  backends see the same failed-attempt count.

Faults are *attempt-scheduled*: a plan with ``crash_attempts=1`` fails
exactly the first attempt and succeeds on the retry, which is what
makes the chaos acceptance test ("crash-once world completes
bit-identical to the fault-free run") meaningful.  Disruptive kinds are
serialised per rank (die, then crash, then hang), corruption overlaps
the tail — see :meth:`RankFaultPlan.active_kind`.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace

from repro._util import rng_for
from repro.errors import InjectedFaultError, RankFailedError, SimMpiError

#: fault kinds in injection priority order
FAULT_KINDS = ("die", "crash", "hang", "corrupt")


@dataclass(frozen=True)
class RankFaultPlan:
    """The compiled fault schedule of one rank (picklable, immutable).

    ``*_attempts`` counts how many of the rank's earliest attempts each
    kind afflicts.  Disruptive kinds are serialised: attempts
    ``[0, die)`` die, ``[die, die+crash)`` crash, ``[.., +hang)`` hang;
    corruption afflicts the ``corrupt_attempts`` attempts after the
    disruptive window.  An attempt past every window runs clean, so any
    finite schedule is recoverable by a supervisor with enough retries.
    """

    rank: int
    die_attempts: int = 0
    crash_attempts: int = 0
    hang_attempts: int = 0
    corrupt_attempts: int = 0
    corrupt_target: str = "profile"
    #: how far past the supervisor deadline a hung attempt sleeps
    hang_excess_seconds: float = 0.4

    def active_kind(self, attempt: int) -> str | None:
        """The fault kind afflicting ``attempt``, or None (clean run)."""
        edge = self.die_attempts
        if attempt < edge:
            return "die"
        edge += self.crash_attempts
        if attempt < edge:
            return "crash"
        edge += self.hang_attempts
        if attempt < edge:
            return "hang"
        if attempt < edge + self.corrupt_attempts:
            return "corrupt"
        return None


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic per-rank fault assignment, mirroring ImbalanceSpec.

    ``crashes``/``hangs``/``corruptions``/``deaths`` count the ranks
    afflicted by each kind; ``*_times`` how many consecutive early
    attempts each afflicted rank fails that way (``crash_times=99``
    outlives any sane retry budget — the rank-loss scenario).  Afflicted
    ranks are drawn from one seeded permutation, so distinct kinds land
    on distinct ranks while the world is big enough and the whole plan
    is reproducible across runs, machines and backends.
    """

    seed: int = 7
    crashes: int = 0
    crash_times: int = 1
    hangs: int = 0
    hang_times: int = 1
    hang_excess_seconds: float = 0.4
    corruptions: int = 0
    corrupt_times: int = 1
    corrupt_target: str = "profile"
    deaths: int = 0
    death_times: int = 1

    def __post_init__(self) -> None:
        for name in ("crashes", "hangs", "corruptions", "deaths"):
            if getattr(self, name) < 0:
                raise SimMpiError(f"{name} must be non-negative")
        for name in ("crash_times", "hang_times", "corrupt_times", "death_times"):
            if getattr(self, name) < 1:
                raise SimMpiError(f"{name} must be >= 1")
        if self.corrupt_target not in ("profile", "trace"):
            raise SimMpiError(
                f"corrupt_target must be 'profile' or 'trace', "
                f"got {self.corrupt_target!r}"
            )
        if self.hang_excess_seconds <= 0.0:
            raise SimMpiError("hang_excess_seconds must be positive")

    @property
    def quiet(self) -> bool:
        """True when the spec injects nothing at all."""
        return (
            self.crashes == 0
            and self.hangs == 0
            and self.corruptions == 0
            and self.deaths == 0
        )

    def plan(self, size: int) -> dict[int, RankFaultPlan]:
        """Per-rank fault plans, deterministic in ``seed`` and ``size``.

        Ranks are consumed from one seeded permutation in fixed kind
        order (deaths, crashes, hangs, corruptions); when the spec asks
        for more faults than there are ranks the permutation wraps and
        ranks accumulate several kinds, still deterministically.
        """
        if size < 1:
            raise SimMpiError(f"world size must be >= 1, got {size}")
        if self.quiet:
            return {}
        perm = [int(r) for r in rng_for(self.seed, "multirank-faults", size).permutation(size)]
        cursor = 0

        def take() -> int:
            nonlocal cursor
            rank = perm[cursor % size]
            cursor += 1
            return rank

        counts: dict[int, dict[str, int]] = {}
        for kind, ranks, times in (
            ("die", self.deaths, self.death_times),
            ("crash", self.crashes, self.crash_times),
            ("hang", self.hangs, self.hang_times),
            ("corrupt", self.corruptions, self.corrupt_times),
        ):
            for _ in range(ranks):
                counts.setdefault(take(), {})[kind] = times
        return {
            rank: RankFaultPlan(
                rank=rank,
                die_attempts=kinds.get("die", 0),
                crash_attempts=kinds.get("crash", 0),
                hang_attempts=kinds.get("hang", 0),
                corrupt_attempts=kinds.get("corrupt", 0),
                corrupt_target=self.corrupt_target,
                hang_excess_seconds=self.hang_excess_seconds,
            )
            for rank, kinds in sorted(counts.items())
        }


# -- injection (called from execute_rank) -----------------------------------


def inject_pre_execution(task) -> None:
    """Fire the disruptive fault (if any) scheduled for this attempt.

    ``die`` only truly exits when the task runs in a sacrificial child
    process (``task.in_child``, set by the pooled supervisor path); on
    an in-process backend it degrades to a crash so the failed-attempt
    accounting — and therefore the retry schedule and the final results
    — stay identical across backends.
    """
    plan: RankFaultPlan | None = task.fault
    if plan is None:
        return
    kind = plan.active_kind(task.attempt)
    if kind == "die":
        if task.in_child:
            os._exit(3)
        raise RankFailedError(
            f"injected worker death on rank {task.rank} attempt "
            f"{task.attempt} (degraded to a crash on an in-process backend)",
            rank=task.rank,
        )
    if kind == "crash":
        raise InjectedFaultError(
            f"injected crash on rank {task.rank} attempt {task.attempt}",
            rank=task.rank,
        )
    if kind == "hang":
        # bounded sleep past the supervisor's per-rank deadline: long
        # enough to be declared hung, short enough to free the worker
        time.sleep((task.deadline_seconds or 0.0) + plan.hang_excess_seconds)


def corrupt_result(task, result):
    """Damage the attempt's payload if a corrupt fault is scheduled.

    * ``profile`` — the root call path's inclusive cycles become NaN
      (a torn shared-memory read / truncated pickle shape);
    * ``trace`` — the event stream loses its tail, dropping the final
      ``MPI_Finalize`` marker and leaving regions unclosed.  With an
      on-disk trace (``trace_dir``) the published location file itself
      is byte-truncated — a half-written archive, exactly what a real
      mid-write crash leaves behind.

    Both damages are exactly what :func:`check_rank_result` screens
    for, so the supervisor retries instead of poisoning the reduction.
    """
    from repro.scorep.tracing import EventBlock

    plan: RankFaultPlan | None = task.fault
    if plan is None or plan.active_kind(task.attempt) != "corrupt":
        return result
    if plan.corrupt_target == "profile" and result.profile is not None:
        profile = dict(result.profile)
        profile["inclusive_cycles"] = float("nan")
        return replace(result, profile=profile)
    if plan.corrupt_target == "trace" and result.trace:
        keep = sum(len(block.t) for block in result.trace) // 2
        head = []
        for block in result.trace:
            if keep > 0:
                head.append(EventBlock(*(col[:keep] for col in block[:4]), block.names))
            keep -= len(block.t)
        return replace(result, trace=tuple(head))
    if plan.corrupt_target == "trace" and result.trace_meta is not None:
        from pathlib import Path

        path = Path(result.trace_meta.path)
        if path.exists():
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
    return result


# -- payload integrity (the supervisor's acceptance gate) -------------------


def _walk_profile(node: dict):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(current.get("children", ()))


def load_rank_trace(result):
    """The result with its trace as blocks: a rank that archived its
    trace ships only ``trace_meta``, so its location file is read in
    here, once, by the strict reader, which raises
    :class:`~repro.trace.store.TraceStoreError` on damage.  Any other
    result is returned as is."""
    from repro.trace.store import iter_location_blocks

    if result.trace is not None or result.trace_meta is None:
        return result
    return replace(
        result,
        trace=tuple(iter_location_blocks(result.trace_meta.path, strict=True)),
    )


def check_rank_result(result, *, tracing: bool = False):
    """Reject corrupt rank payloads before they reach the reducers.

    Raises :class:`~repro.errors.RankFailedError` when the engine
    timings or the profile carry non-finite values, or when a requested
    trace is missing, unreadable, loses its closing ``MPI_Finalize``
    marker (truncation) or fails the single-stream nesting checks.  A
    payload passing this gate is safe to merge — the reducers never see
    NaNs or half a timeline.

    Returns the result, with a traced rank's archived trace read in
    (:func:`load_rank_trace`): the blocks the gate walked are the ones
    the merge takes.
    """
    timings = (
        result.result.t_init_cycles,
        result.result.t_app_cycles,
        result.result.useful_cycles,
        float(result.result.mpi_cycles),
    )
    if not all(math.isfinite(v) for v in timings):
        raise RankFailedError(
            f"rank {result.rank} returned non-finite timings {timings}",
            rank=result.rank,
        )
    if result.profile is not None:
        for node in _walk_profile(result.profile):
            cycles = node.get("inclusive_cycles", 0.0)
            visits = node.get("visits", 0)
            if not (math.isfinite(cycles) and math.isfinite(visits)):
                raise RankFailedError(
                    f"rank {result.rank} returned a corrupt profile "
                    f"(non-finite stats at call path {node.get('name')!r})",
                    rank=result.rank,
                )
    if tracing:
        from repro.scorep.tracing import walk_stream
        from repro.trace.store import TraceStoreError

        try:
            # byte truncation — the disk flavour of the corrupt fault —
            # fails the strict read
            result = load_rank_trace(result)
        except TraceStoreError as exc:
            raise RankFailedError(
                f"rank {result.rank} published an unreadable location "
                f"file: {exc}",
                rank=result.rank,
            ) from exc
        walk = walk_stream(result.trace or ())
        if not walk.count:
            raise RankFailedError(
                f"rank {result.rank} returned no event trace although "
                f"tracing was requested",
                rank=result.rank,
            )
        if not any(marker[0] == "MPI_Finalize" for marker in walk.markers):
            raise RankFailedError(
                f"rank {result.rank} returned a truncated event trace "
                f"(no MPI_Finalize marker)",
                rank=result.rank,
            )
        problems = walk.issues
        if problems:
            raise RankFailedError(
                f"rank {result.rank} returned an inconsistent event trace: "
                f"{problems[0]} (+{len(problems) - 1} more)"
                if len(problems) > 1
                else f"rank {result.rank} returned an inconsistent event "
                f"trace: {problems[0]}",
                rank=result.rank,
            )
    return result


# -- health records ---------------------------------------------------------


@dataclass(frozen=True)
class RankHealth:
    """Supervision record of one rank's execution (picklable)."""

    rank: int
    #: "ok" — a valid result was collected; "lost" — retries exhausted
    outcome: str
    #: attempts made (1 = clean first try)
    attempts: int
    #: wall-clock spent on this rank across all attempts (not
    #: deterministic — backoff, pool scheduling and real time feed in)
    latency_seconds: float
    #: one line per failed attempt: "attempt N: Error: ..."
    failures: tuple[str, ...] = ()

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    @property
    def lost(self) -> bool:
        return self.outcome != "ok"


@dataclass(frozen=True)
class HealthReport:
    """World-level health of one multi-rank execution."""

    ranks: int
    #: per-rank supervision records (rank order); None when the run
    #: used an unsupervised backend (no health instrumentation)
    per_rank: tuple[RankHealth, ...] | None
    missing_ranks: tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        return bool(self.missing_ranks)

    @property
    def coverage(self) -> float:
        """Fraction of the world that produced a result."""
        if self.ranks == 0:
            return 0.0
        return (self.ranks - len(self.missing_ranks)) / self.ranks

    @property
    def retried_ranks(self) -> tuple[int, ...]:
        if self.per_rank is None:
            return ()
        return tuple(h.rank for h in self.per_rank if h.retried and not h.lost)

    @property
    def lost_ranks(self) -> tuple[int, ...]:
        if self.per_rank is None:
            return self.missing_ranks
        return tuple(h.rank for h in self.per_rank if h.lost)

    def render(self) -> str:
        lines = [
            f"rank health — {self.ranks} ranks, coverage {self.coverage:.1%}"
            + (" (DEGRADED)" if self.degraded else ""),
        ]
        if self.per_rank is None:
            lines.append("  (unsupervised backend: no per-rank records)")
            return "\n".join(lines)
        for h in self.per_rank:
            state = h.outcome if not h.retried else f"{h.outcome} after retry"
            lines.append(
                f"  rank {h.rank}: {state}, {h.attempts} attempt(s), "
                f"{h.latency_seconds:.3f}s"
            )
            lines.extend(f"    {failure}" for failure in h.failures)
        return "\n".join(lines)
