"""Helpers shared by the workloads: statistics, resources, provenance."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROVENANCE = json.loads((HERE / "provenance.json").read_text())


def workload_params(name: str, smoke: bool) -> dict:
    """Fixed inputs of one workload; smoke mode overlays its tiny sizes."""
    params = dict(PROVENANCE["workloads"][name]["params"])
    if smoke:
        params.update(PROVENANCE["workloads"][name]["smoke"])
    return params


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``inf`` entries are failed operations)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values, q: float) -> int:
    """How many samples lie above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def timing(values, scale: float = 1.0) -> dict:
    """Median plus the highest of p99/p90/p75 with ten samples beyond it."""
    out = {"n": len(values), "p50": median(values) * scale}
    for q in (99, 90, 75):
        if beyond(values, q) >= 10:
            out[f"p{q}"] = percentile(values, q) * scale
            break
    return out


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def stamp() -> dict:
    """Machine and toolchain the result was measured on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }
