"""OTF2-shaped on-disk trace store.

An OTF2 archive is a directory of per-*location* event files (one per
rank/thread) plus global definition tables (region names, location
ids, clock properties).  We mirror that shape:

    <trace_dir>/
        definitions.json     global tables: ranks, regions, clock, meta
        rank-00000.evt       location 0 event stream (binary blocks)
        rank-00001.evt       location 1 event stream
        health.json          optional supervision record (fault PRs)

Each ``.evt`` file is binary and little-endian, like OTF2's event files
(grammar and checks in ``docs/observability.md``):

    header   magic "RTRC", u4 format version, u4 location id
    block*   "B", u4 new names, u4 events,
             new names: u2 byte length + UTF-8 each, interned at first use,
             events: fixed-width records of :data:`RECORD`
             (u1 kind, u4 region id, f8 timestamp, i8 message id or -1)
    footer   "F", u8 event count

The writer emits one block per flush, and a block defines the region
names it uses first, so the intact prefix of a truncated file stays
readable.  Timestamps are the raw IEEE doubles, so a round trip is
bit-exact.  The footer doubles as a truncation detector: a crashed or
corrupted writer leaves no footer (or a count that disagrees), which
strict readers surface as :class:`TraceStoreError` and the watchdog
turns into a ``trace-truncated`` alert.

Writers are crash-consistent: they stream to a pid-suffixed ``.wip``
file and ``os.replace`` it into place on close.  That also makes the
zombie-worker race benign — a hung attempt the supervisor abandoned
may finish late and publish concurrently with its retry, but both
produce identical deterministic content and each replace is atomic,
so last-wins never exposes a torn file.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Generator, Iterable, Iterator

import numpy as np

from repro.errors import CapiError
from repro.scorep.tracing import EVENT_KINDS, EventBlock, TraceEvent

FORMAT_VERSION = 2

MAGIC = b"RTRC"
#: magic, format version, location id
HEADER = struct.Struct("<4sII")
#: block tag, number of names the block defines, number of its events
BLOCK = struct.Struct("<cII")
#: byte length of one UTF-8 region name
NAME_LEN = struct.Struct("<H")
#: footer tag, event count
FOOTER = struct.Struct("<cQ")
BLOCK_TAG = b"B"
FOOTER_TAG = b"F"
#: one event: kind code (:data:`~repro.scorep.tracing.EVENT_KINDS`),
#: region id, raw IEEE double timestamp, message id (-1 for none)
RECORD = np.dtype([("kind", "<u1"), ("region", "<u4"), ("t", "<f8"), ("mid", "<i8")])

DEFINITIONS_NAME = "definitions.json"
HEALTH_NAME = "health.json"


class TraceStoreError(CapiError):
    """Raised for malformed, truncated, or missing on-disk traces."""


def location_path(trace_dir: str | Path, rank: int) -> Path:
    return Path(trace_dir) / f"rank-{rank:05d}.evt"


def discover_ranks(trace_dir: str | Path) -> list[int]:
    """Ranks with a published location file, ascending."""
    ranks = []
    for entry in Path(trace_dir).glob("rank-*.evt"):
        stem = entry.stem[len("rank-"):]
        if stem.isdigit():
            ranks.append(int(stem))
    return sorted(ranks)


# -- location writer -------------------------------------------------------------


@dataclass(frozen=True)
class LocationMeta:
    """Summary of one closed location file (picklable across workers)."""

    rank: int
    path: str
    events: int
    flushes: int
    regions: tuple[str, ...]


class TraceWriter:
    """Append-only writer for one location's event stream.

    Holds no events: each :meth:`flush` encodes one
    :class:`~repro.scorep.tracing.EventBlock` as one block of the file,
    so tracer memory stays O(block) regardless of trace length.
    Satisfies the duck-type ``ScorePTracer.writer`` expects:
    ``flush(block)`` and ``close() -> LocationMeta``.
    """

    def __init__(self, trace_dir: str | Path, rank: int) -> None:
        if rank < 0:
            raise TraceStoreError(f"location rank must be >= 0, got {rank}")
        self.trace_dir = Path(trace_dir)
        self.rank = rank
        self.path = location_path(self.trace_dir, rank)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        # pid suffix: an abandoned zombie attempt and its retry may
        # write concurrently; distinct wip names keep them from
        # clobbering each other mid-stream
        self._wip = self.path.with_name(f"{self.path.name}.wip-{os.getpid()}")
        self._fh = open(self._wip, "wb")
        self._fh.write(HEADER.pack(MAGIC, FORMAT_VERSION, rank))
        #: file region id of each name defined so far
        self._regions: dict[str, int] = {}
        self.events_written = 0
        self.flushes = 0
        self.closed = False

    def flush(self, block: EventBlock) -> None:
        """Write one block: map its names to file ids, define the names
        the file has not seen (in order of first use), check the records,
        then encode and write them."""
        if self.closed:
            raise TraceStoreError(f"writer for rank {self.rank} already closed")
        if not len(block.t):
            return
        if (
            (block.kind >= len(EVENT_KINDS)).any()
            or (block.region >= len(block.names)).any()
            or (block.mid < -1).any()
        ):
            raise TraceStoreError(
                f"bad record in block {self.flushes} of rank {self.rank}: "
                f"a kind code, region id or message id (-1 for none) is "
                f"out of range"
            )
        regions = self._regions
        ids = np.array([regions.get(name, -1) for name in block.names], dtype=np.int64)
        used, first = np.unique(block.region, return_index=True)
        fresh = ids[used] < 0
        new = used[fresh][np.argsort(first[fresh])].tolist()
        new_names = [block.names[region].encode("utf-8") for region in new]
        for name in new_names:
            if len(name) > 0xFFFF:
                raise TraceStoreError(
                    f"region name of {len(name)} bytes exceeds the "
                    f"{0xFFFF}-byte limit: {name[:40]!r}..."
                )
        for region in new:
            ids[region] = regions[block.names[region]] = len(regions)
        records = np.empty(len(block.t), dtype=RECORD)
        records["kind"] = block.kind
        records["region"] = ids[block.region]
        records["t"] = block.t
        records["mid"] = block.mid
        self._fh.write(
            b"".join(
                [
                    BLOCK.pack(BLOCK_TAG, len(new_names), len(records)),
                    *(NAME_LEN.pack(len(name)) + name for name in new_names),
                    records.tobytes(),
                ]
            )
        )
        self.events_written += len(records)
        self.flushes += 1

    def close(self) -> LocationMeta:
        """Write the footer and publish the file."""
        if self.closed:
            raise TraceStoreError(f"writer for rank {self.rank} already closed")
        self._fh.write(FOOTER.pack(FOOTER_TAG, self.events_written))
        self._fh.close()
        os.replace(self._wip, self.path)
        self.closed = True
        return LocationMeta(
            rank=self.rank,
            path=str(self.path),
            events=self.events_written,
            flushes=self.flushes,
            regions=tuple(self._regions),
        )

    def abort(self) -> None:
        """Discard the in-progress file without publishing it."""
        if not self.closed:
            self._fh.close()
            self._wip.unlink(missing_ok=True)
            self.closed = True


# -- location readers ------------------------------------------------------------


def iter_location_blocks(
    path: str | Path, *, strict: bool = True
) -> Iterator[EventBlock]:
    """Stream one location file back a block at a time, as columns.

    Reads one block at a time, so memory stays O(block) in trace length;
    a block's columns are views of the bytes just read.  Each block is
    checked whole: kind codes, defined region ids, finite timestamps and
    message ids.  Damage — a truncated block or name table, a bad
    record, tag or name, a missing or mismatched footer, bytes after
    the footer — ends the stream after the intact prefix (a truncated
    block still yields its whole records).  ``strict=True`` then raises
    :class:`TraceStoreError`, so callers can salvage the prefix by
    catching it; ``strict=False`` stops quietly.  A file that is missing
    or has a wrong magic or format version raises in both modes.
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except FileNotFoundError as exc:
        raise TraceStoreError(f"missing location file {path}") from exc
    with fh:
        problem = yield from _read_blocks(fh, path)
    if problem is not None and strict:
        raise TraceStoreError(f"{path}: {problem}")


def _read_blocks(
    fh: BinaryIO, path: Path
) -> Generator[EventBlock, None, "str | None"]:
    """Yield the intact blocks of an open location file; return the
    damage that ended the stream, or ``None`` for a clean footer."""
    size = os.fstat(fh.fileno()).st_size
    head = fh.read(HEADER.size)
    if len(head) < HEADER.size:
        return "missing header (truncated write?)"
    magic, version, _rank = HEADER.unpack(head)
    if magic != MAGIC:
        raise TraceStoreError(f"{path}: not a location file (magic {magic!r})")
    if version != FORMAT_VERSION:
        raise TraceStoreError(f"{path}: unsupported format version {version}")
    names: list[str] = []
    count = 0
    while True:
        tag = fh.read(1)
        if not tag:
            return f"missing footer (truncated write?) after {count} event(s)"
        if tag == FOOTER_TAG:
            rest = fh.read(FOOTER.size - 1)
            if len(rest) < FOOTER.size - 1:
                return f"truncated footer after {count} event(s)"
            _, declared = FOOTER.unpack(tag + rest)
            if declared != count:
                return f"footer declares {declared} event(s) but {count} were read"
            if fh.read(1):
                return "bytes after the footer"
            return None
        if tag != BLOCK_TAG:
            return f"bad block tag {tag!r} after {count} event(s)"
        rest = fh.read(BLOCK.size - 1)
        if len(rest) < BLOCK.size - 1:
            return f"truncated block header after {count} event(s)"
        _, n_names, n_events = BLOCK.unpack(tag + rest)
        problem = _read_names(fh, n_names, names, size)
        if problem is not None:
            return problem
        # never ask for more than the file holds: a damaged count must
        # not allocate a huge buffer
        data = fh.read(min(n_events * RECORD.itemsize, size - fh.tell()))
        whole = len(data) // RECORD.itemsize
        records = np.frombuffer(data, dtype=RECORD, count=whole)
        bad = (
            (records["kind"] >= len(EVENT_KINDS))
            | (records["region"] >= len(names))
            | ~np.isfinite(records["t"])
            | (records["mid"] < -1)
        )
        problem = None
        if bad.any():
            first = int(bad.argmax())
            k, r, t, m = records[first].item()
            problem = (
                f"event {count + first}: bad record (kind {k}, region {r}, "
                f"timestamp {t!r}, mid {m})"
            )
            records = records[:first]
        elif whole < n_events:
            problem = f"truncated block: {whole} of {n_events} event(s) after {count}"
        if len(records):
            count += len(records)
            yield EventBlock(
                records["kind"], records["region"], records["t"], records["mid"], names
            )
        if problem is not None:
            return problem


def _read_names(
    fh: BinaryIO, n_names: int, names: list[str], size: int
) -> "str | None":
    """Append a block's region names to ``names``; the damage, if any."""
    if n_names * NAME_LEN.size > size - fh.tell():
        return f"truncated definitions: {n_names} region name(s) declared"
    for _ in range(n_names):
        head = fh.read(NAME_LEN.size)
        length = NAME_LEN.unpack(head)[0] if len(head) == NAME_LEN.size else -1
        raw = fh.read(max(length, 0))
        if len(raw) != length:
            return f"truncated definitions after {len(names)} region name(s)"
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            return f"undecodable region name {raw[:40]!r}"
    return None


def load_location(
    trace_dir: str | Path, rank: int, *, strict: bool = True
) -> list[TraceEvent]:
    """One location's events as :class:`TraceEvent` objects, read through
    :func:`iter_location_blocks` under its damage rules."""
    path = location_path(trace_dir, rank)
    return [
        event
        for block in iter_location_blocks(path, strict=strict)
        for event in block.events()
    ]


# -- global definitions ----------------------------------------------------------


@dataclass(frozen=True)
class TraceDefinitions:
    """Global definition tables for one archive (OTF2 GlobalDefs)."""

    world_ranks: int
    locations: tuple[int, ...]
    events_per_location: tuple[int, ...]
    frequency: float
    meta: dict = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        return len(self.locations) < self.world_ranks


def _atomic_write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(f"{path.name}.wip-{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def write_definitions(
    trace_dir: str | Path,
    *,
    world_ranks: int,
    locations: Iterable[LocationMeta],
    frequency: float,
    meta: dict | None = None,
) -> Path:
    """Publish the archive's global definitions file (atomic)."""
    locations = sorted(locations, key=lambda m: m.rank)
    path = Path(trace_dir) / DEFINITIONS_NAME
    payload = {
        "format_version": FORMAT_VERSION,
        "world_ranks": world_ranks,
        "locations": [
            {
                "rank": m.rank,
                "file": Path(m.path).name,
                "events": m.events,
                "flushes": m.flushes,
                "regions": list(m.regions),
            }
            for m in locations
        ],
        "clock": {"frequency": frequency, "unit": "cycles"},
        "meta": dict(meta or {}),
    }
    _atomic_write_json(path, payload)
    return path


def read_definitions(trace_dir: str | Path) -> TraceDefinitions:
    path = Path(trace_dir) / DEFINITIONS_NAME
    if not path.exists():
        raise TraceStoreError(f"missing {DEFINITIONS_NAME} in {trace_dir}")
    payload = read_json_object(path, "definitions")
    if payload.get("format_version") != FORMAT_VERSION:
        raise TraceStoreError(
            f"{path}: unsupported format version "
            f"{payload.get('format_version')!r}"
        )
    try:
        locations = [(loc["rank"], loc["events"]) for loc in payload.get("locations", [])]
        defs = TraceDefinitions(
            world_ranks=payload["world_ranks"],
            locations=tuple(rank for rank, _ in locations),
            events_per_location=tuple(events for _, events in locations),
            frequency=payload.get("clock", {}).get("frequency", 0.0),
            meta=payload.get("meta", {}),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise TraceStoreError(f"{path}: malformed definitions ({exc!r})") from exc
    _check_types(
        path,
        "definitions",
        [
            (defs.world_ranks, int),
            *((n, int) for n in defs.locations + defs.events_per_location),
            (defs.frequency, (int, float)),
            (defs.meta, dict),
        ],
    )
    return defs


def read_json_object(path: Path, what: str) -> dict:
    """The JSON object in ``path``; undecodable bytes or JSON, or any
    other JSON value, raise :class:`TraceStoreError` naming ``what``."""
    try:
        payload = json.loads(path.read_text())
    except ValueError as exc:  # undecodable JSON or UTF-8
        raise TraceStoreError(f"{path}: undecodable {what}") from exc
    if not isinstance(payload, dict):
        raise TraceStoreError(f"{path}: malformed {what}: not a JSON object")
    return payload


def _check_types(path: Path, what: str, checks: Iterable[tuple]) -> None:
    """Reject a JSON record whose fields have the wrong types."""
    for value, kind in checks:
        if not isinstance(value, kind):
            raise TraceStoreError(
                f"{path}: malformed {what}: {value!r} is not {kind}"
            )


# -- supervision record ----------------------------------------------------------


def write_health_record(
    trace_dir: str | Path, health, *, extra: dict | None = None
) -> Path:
    """Persist a :class:`~repro.multirank.faults.HealthReport` next to
    the trace so the watchdog can alert on retries/losses after the
    run is gone."""
    per_rank = None
    if health.per_rank is not None:
        per_rank = [
            {
                "rank": h.rank,
                "outcome": h.outcome,
                "attempts": h.attempts,
                "latency_seconds": h.latency_seconds,
                "failures": list(h.failures),
            }
            for h in health.per_rank
        ]
    payload = {
        "ranks": health.ranks,
        "missing_ranks": list(health.missing_ranks),
        "per_rank": per_rank,
        **(extra or {}),
    }
    path = Path(trace_dir) / HEALTH_NAME
    _atomic_write_json(path, payload)
    return path


def read_health_record(trace_dir: str | Path):
    """Load ``health.json`` back into a ``HealthReport`` (or ``None``)."""
    path = Path(trace_dir) / HEALTH_NAME
    if not path.exists():
        return None
    from repro.multirank.faults import HealthReport, RankHealth

    payload = read_json_object(path, "health record")
    try:
        per_rank = payload.get("per_rank")
        if per_rank is not None:
            per_rank = tuple(
                RankHealth(
                    rank=h["rank"],
                    outcome=h["outcome"],
                    attempts=h["attempts"],
                    latency_seconds=h["latency_seconds"],
                    failures=tuple(h.get("failures", ())),
                )
                for h in per_rank
            )
        health = HealthReport(
            ranks=payload["ranks"],
            per_rank=per_rank,
            missing_ranks=tuple(payload.get("missing_ranks", ())),
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise TraceStoreError(f"{path}: malformed health record ({exc!r})") from exc
    _check_types(
        path,
        "health record",
        [
            (health.ranks, int),
            *((rank, int) for rank in health.missing_ranks),
            *(
                check
                for h in health.per_rank or ()
                for check in (
                    (h.rank, int),
                    (h.outcome, str),
                    (h.attempts, int),
                    (h.latency_seconds, (int, float)),
                    *((failure, str) for failure in h.failures),
                )
            ),
        ],
    )
    return health
