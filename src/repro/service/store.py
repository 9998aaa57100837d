"""Warm call-graph store: keyed snapshots + bound cross-run caches.

The selection service holds many call graphs *warm*: for each admitted
graph the store keeps the frozen :class:`~repro.cg.csr.CsrSnapshot` of
its current version together with one
:class:`~repro.core.selectors.base.CrossRunCache` bound to that graph —
the pair every query over the graph evaluates against
(:func:`repro.core.pipeline.evaluate_compiled`).

* **Version-keyed invalidation** — :meth:`GraphStore.entry` re-checks
  the graph's mutation ``version`` on every access; a bumped version
  rebuilds the snapshot and the bound cache drops its results wholesale
  on next bind (the :class:`CrossRunCache` contract).  Other graphs'
  warm state is untouched: one tenant editing its graph never
  invalidates a neighbour's cache.
* **LRU eviction by bytes** — warm entries are kept in recency order
  and evicted least-recently-used once the summed snapshot bytes exceed
  ``max_bytes``.  Eviction releases the store's references (snapshot +
  result cache); the graph itself stays admitted and re-warms cold — by
  selector purity, with bit-identical results — on next access.  (The
  graph object additionally caches its latest snapshot internally; the
  store budget governs service-held state.)

The store serves *concurrent* evaluation traffic: the selection
service's worker shards each own a disjoint slice of graph keys and hit
the store in parallel.  Warm hits and all bookkeeping run under one
global lock; the expensive build path (snapshot + cache bind) runs
under a *per-key* build lock with the global lock released, so one
shard's big cold build never stalls its siblings' warm hits.  Per-graph
consistency needs no store-level help: a graph's edits and evaluations
are serialised by its owning shard (a graph object admitted under two
different keys would break that premise and is unsupported).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.cg.csr import CsrSnapshot
from repro.cg.graph import CallGraph
from repro.core.selectors.base import DEFAULT_CACHE_ENTRIES, CrossRunCache
from repro.errors import ServiceError

#: default warm-set budget: at int32 CSR widths this holds dozens of
#: 10^5-node graphs — far above the test/bench scale, so eviction only
#: engages when explicitly configured tighter
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass
class StoreStats:
    """Counters describing warm-store effectiveness."""

    admitted: int = 0
    #: accesses served by a warm, version-current entry
    warm_hits: int = 0
    #: accesses that (re)built a snapshot: cold admits, re-admissions
    #: after eviction, and version-bump invalidations
    cold_builds: int = 0
    #: subset of ``cold_builds`` caused by a graph mutation
    invalidations: int = 0
    #: subset of ``invalidations`` where the snapshot was repaired
    #: through the mutation journal instead of rebuilt from scratch
    delta_refreshes: int = 0
    #: cross-run results that survived delta-based invalidations
    cache_retained: int = 0
    #: cross-run results dropped by delta-based invalidations
    cache_dropped: int = 0
    #: warm entries dropped by the byte-budget LRU
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.warm_hits + self.cold_builds
        return self.warm_hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "warm_hits": self.warm_hits,
            "cold_builds": self.cold_builds,
            "invalidations": self.invalidations,
            "delta_refreshes": self.delta_refreshes,
            "cache_retained": self.cache_retained,
            "cache_dropped": self.cache_dropped,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass
class GraphEntry:
    """One warm graph: snapshot + bound cross-run cache at one version."""

    key: str
    graph: CallGraph
    snapshot: CsrSnapshot
    cache: CrossRunCache
    version: int

    @property
    def nbytes(self) -> int:
        return self.snapshot.nbytes


class GraphStore:
    """Keyed store of warm call graphs for the selection service."""

    def __init__(
        self,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
    ) -> None:
        if max_bytes < 1:
            raise ServiceError("max_bytes must be positive")
        if cache_entries < 1:
            raise ServiceError("cache_entries must be at least 1")
        self.max_bytes = max_bytes
        self.cache_entries = cache_entries
        self._graphs: dict[str, CallGraph] = {}
        #: warm entries in recency order (oldest first — dict order)
        self._warm: dict[str, GraphEntry] = {}
        self._lock = threading.RLock()
        #: per-key build serialisation: cold builds drop the global
        #: lock, so two shards racing different keys build in parallel
        #: while two racing the *same* key build exactly once
        self._build_locks: dict[str, threading.Lock] = {}
        self.stats = StoreStats()

    # -- admission ---------------------------------------------------------------

    def admit(self, key: str, graph: CallGraph) -> None:
        """Register ``graph`` under ``key`` (idempotent for same object).

        Re-admitting a different graph under an existing key replaces it
        and drops any warm state of the old graph.
        """
        with self._lock:
            previous = self._graphs.get(key)
            if previous is graph:
                return
            if previous is not None:
                self._warm.pop(key, None)
            self._graphs[key] = graph
            self.stats.admitted += 1

    def graph(self, key: str) -> CallGraph:
        with self._lock:
            try:
                return self._graphs[key]
            except KeyError:
                raise ServiceError(
                    f"unknown graph key {key!r}; admitted: {sorted(self._graphs)}"
                ) from None

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._graphs)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._graphs

    def __len__(self) -> int:
        with self._lock:
            return len(self._graphs)

    # -- warm access -------------------------------------------------------------

    def entry(self, key: str) -> GraphEntry:
        """The warm ``(snapshot, cache)`` entry for ``key``'s current version.

        Warm and current → LRU-touched and returned.  Stale (graph
        mutated) → snapshot refreshed through the mutation journal when
        it can answer (falling back to a from-scratch rebuild), and the
        same cache object re-bound — it consults the same journal to
        keep results the delta provably left alone.  Absent (cold or
        previously evicted) → built fresh.  Either build path runs
        byte-budget eviction afterwards, and ``StoreStats`` reports how
        much warmth survived (``delta_refreshes``, ``cache_retained`` /
        ``cache_dropped``).
        """
        entry = self._warm_hit(key)
        if entry is not None:
            return entry
        with self._lock:
            build_lock = self._build_locks.setdefault(key, threading.Lock())
        with build_lock:
            # re-check: the shard we queued behind may have built it
            entry = self._warm_hit(key)
            if entry is not None:
                return entry
            with self._lock:
                graph = self.graph(key)
                stale = self._warm.pop(key, None)
                if stale is not None:
                    self.stats.invalidations += 1
                    cache = stale.cache  # keeps identity across re-binds
                else:
                    cache = CrossRunCache(self.cache_entries)
            retained, dropped = cache.retained, cache.dropped
            # bind (delta-aware retention while the journal still
            # covers the stale version) and snapshot outside the global
            # lock: the expensive part of a cold build must not stall
            # other shards' warm hits
            cache.store_for(graph)
            snapshot = graph.csr()
            with self._lock:
                self.stats.cache_retained += cache.retained - retained
                self.stats.cache_dropped += cache.dropped - dropped
                if stale is not None and snapshot.refreshed_from is not None:
                    self.stats.delta_refreshes += 1
                entry = GraphEntry(
                    key=key,
                    graph=graph,
                    snapshot=snapshot,
                    cache=cache,
                    version=graph.version,
                )
                self.stats.cold_builds += 1
                self._warm[key] = entry
                self._evict()
                return entry

    def _warm_hit(self, key: str) -> GraphEntry | None:
        """LRU-touch and return the warm, version-current entry, if any."""
        with self._lock:
            graph = self.graph(key)
            entry = self._warm.get(key)
            if entry is not None and entry.version == graph.version:
                self._warm.pop(key)
                self._warm[key] = entry  # re-insert: most recently used
                self.stats.warm_hits += 1
                return entry
            return None

    def peek(self, key: str) -> GraphEntry | None:
        """The warm entry if present — no LRU touch, no build (tests)."""
        with self._lock:
            return self._warm.get(key)

    def warm_keys(self) -> list[str]:
        """Warm keys in LRU order (least recently used first)."""
        with self._lock:
            return list(self._warm)

    def total_bytes(self) -> int:
        with self._lock:
            return sum(entry.nbytes for entry in self._warm.values())

    def _evict(self) -> None:
        # never evict the most recently used entry: a single oversized
        # graph must still be servable
        while len(self._warm) > 1 and (
            sum(entry.nbytes for entry in self._warm.values()) > self.max_bytes
        ):
            self._warm.pop(next(iter(self._warm)))
            self.stats.evictions += 1
