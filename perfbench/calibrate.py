"""Host-speed reference: a fixed kernel timed between measured operations.

On a shared host the same work can take a third longer from one minute
to the next, because other tenants change how fast memory-bound Python
runs.  Each workload therefore pauses between the operations it times
and runs a fixed pure-Python kernel (build a 150,000-entry dict of
tuples, then read a third of it back) on the same processor.  A time
*at reference speed* is the measured time scaled by ``nominal /
reference``, ``nominal`` being the kernel time fixed in
``provenance.json``.

``reference`` is either the median of every kernel time sampled in the
run (:meth:`Calibrator.scale`) or the mean of the samples just before
and just after one operation (:meth:`Calibrator.pair`).  Pairing follows
slow spells shorter than a run, but a single sample varies by about 15%
on a quiet host, so it only pays where the operation runs the way the
kernel does: in one thread, interpreted Python, many times per run.

The kernel uses only its own data and runs with the cyclic collector
off, so the program's heap does not enter its time.  A kernel in a
separate process tracked the program's speed much worse: on two vCPUs it
often runs on the other one.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

KERNEL_KEYS = 150_000
#: kernel runs made when the calibrator is created, so its data is warm
WARMUP_RUNS = 3


def kernel(keys: list[int]) -> int:
    table = {}
    for key in keys:
        table[key] = (key, key + 1)
    total = 0
    for key in keys[::3]:
        total += table[key][1]
    return total


class Calibrator:
    """Reference samples of one benchmark run."""

    def __init__(self, nominal_s: float) -> None:
        self.nominal_s = nominal_s
        #: every kernel time sampled, in order
        self.samples: list[float] = []
        rng = random.Random(0)
        self._keys = [rng.randrange(1 << 30) for _ in range(KERNEL_KEYS)]
        for _ in range(WARMUP_RUNS):
            kernel(self._keys)

    def sample(self, runs: int = 1) -> float:
        """Run the kernel ``runs`` times and keep each time; returns
        their median."""
        enabled = gc.isenabled()
        gc.disable()
        times = []
        try:
            for _ in range(runs):
                start = time.perf_counter()
                kernel(self._keys)
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples += times
        return statistics.median(times)

    def pair(self, before: float, after: float) -> float:
        """Factor taking the time of an operation run between the samples
        ``before`` and ``after`` to reference speed."""
        return self.nominal_s / ((before + after) / 2.0)

    def scale(self) -> float:
        """Factor taking a time measured in this run to reference speed:
        below 1 when the host ran slow."""
        return self.nominal_s / statistics.median(self.samples)
