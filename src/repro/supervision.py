"""Retry machinery shared by the rank and the selection-service supervisors.

:class:`~repro.multirank.backends.SupervisedBackend` and
:class:`~repro.service.SelectionService` retry the same way: a failed
attempt waits out a seeded, jittered, capped exponential backoff in a
due-ordered queue, then runs again.  Fault specs and health records
stay with each domain.
"""

from __future__ import annotations

import heapq
import itertools

from repro._util import rng_for

#: first-retry backoff; doubles per attempt, jittered, capped
BACKOFF_BASE_SECONDS = 0.01
BACKOFF_CAP_SECONDS = 0.25


def backoff_delay(seed: int, unit: object, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of ``unit``.

    The base doubles per retry up to :data:`BACKOFF_CAP_SECONDS`; the
    delay is a jittered fraction in [½, 1] of it, drawn from a
    ``(seed, unit, attempt)``-keyed stream.  Two runs of the same chaos
    scenario back off identically, while concurrent retries of
    different units (ranks, shards) decorrelate.
    """
    base = min(BACKOFF_CAP_SECONDS, BACKOFF_BASE_SECONDS * 2 ** (attempt - 1))
    jitter = rng_for(seed, "backoff", unit, attempt).random()
    return base * (0.5 + 0.5 * jitter)


class RetryQueue:
    """Retries ordered by due time; first in, first out among equal times.

    Not thread-safe: a queue shared between threads is guarded by its
    owner's lock.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, object]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, due: float, item: object) -> None:
        heapq.heappush(self._heap, (due, next(self._seq), item))

    def next_due(self) -> float | None:
        """Due time of the earliest retry, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now: float, *, flush: bool = False) -> list:
        """Remove and return the items due by ``now`` (all on ``flush``)."""
        due = []
        while self._heap and (flush or self._heap[0][0] <= now):
            due.append(heapq.heappop(self._heap)[2])
        return due
