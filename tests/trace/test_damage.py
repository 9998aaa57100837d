"""Damaged archives: any truncation or replaced byte yields typed errors
or alerts, never a crash.

A small published archive (two ranks, several blocks each, definitions
and a health record) is damaged one way per example: a location file
cut at any length, or any one byte of any file replaced.  Strict and
lenient location reads and the JSON readers raise nothing but
:class:`TraceStoreError`, and the watchdog's ``scan_run`` returns.
Damage to the parts of a location file that frame its content — magic,
version, block tags, footer — and any truncation always alert.
"""

import functools
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multirank.faults import HealthReport, RankHealth
from repro.trace import (
    TraceStoreError,
    discover_ranks,
    load_location,
    read_definitions,
    read_health_record,
    scan_run,
    write_health_record,
)
from repro.trace.store import BLOCK, FOOTER, HEADER, NAME_LEN, RECORD
from tests.trace.conftest import E, L, M, ev, write_archive


def _streams():
    streams = {}
    for rank in range(2):
        skew = rank * 3.0
        streams[rank] = [
            ev(M, "MPI_Init", 1.0 + skew),
            ev(E, "main", 2.0 + skew),
            ev(M, "MPI_Isend", 3.0 + skew, mid=0),
            ev(M, "MPI_Irecv", 4.0 + skew, mid=0),
            ev(M, "MPI_Allreduce", 10.0 + skew),
            ev(L, "main", 12.0 + skew),
            ev(M, "MPI_Finalize", 13.0 + skew),
        ]
    return streams


@functools.cache
def pristine() -> dict[str, bytes]:
    """Every file of a healthy archive, by name."""
    with tempfile.TemporaryDirectory() as td:
        write_archive(Path(td), _streams(), buffer_events=3)
        write_health_record(
            td,
            HealthReport(
                ranks=2,
                per_rank=tuple(
                    RankHealth(rank=r, outcome="ok", attempts=1, latency_seconds=0.5)
                    for r in range(2)
                ),
            ),
        )
        assert scan_run(td) == []
        return {p.name: p.read_bytes() for p in sorted(Path(td).iterdir())}


def framing_offsets(data: bytes) -> set[int]:
    """Byte offsets of a location file's magic, version, block tags and
    footer."""
    offsets = set(range(HEADER.size - 4))  # all but the location id
    off = HEADER.size
    while data[off : off + 1] == b"B":
        offsets.add(off)
        _, n_names, n_events = BLOCK.unpack_from(data, off)
        off += BLOCK.size
        for _ in range(n_names):
            off += NAME_LEN.size + NAME_LEN.unpack_from(data, off)[0]
        off += n_events * RECORD.itemsize
    assert off + FOOTER.size == len(data)
    return offsets | set(range(off, len(data)))


#: replacement bytes that keep a JSON record parseable more often
JSON_BYTES = list(b'0123456789-.eE"{}[],: ')


@st.composite
def damaged_archive(draw):
    files = pristine()
    name = draw(st.sampled_from(sorted(files)))
    data = files[name]
    if name.endswith(".evt") and draw(st.booleans()):
        cut = draw(st.integers(0, len(data) - 1))
        return name, data[:cut], True
    pos = draw(st.integers(0, len(data) - 1))
    damaged = bytearray(data)
    damaged[pos] = draw(
        st.one_of(st.integers(0, 255), st.sampled_from(JSON_BYTES)).filter(
            lambda byte: byte != data[pos]
        )
    )
    framing = name.endswith(".evt") and pos in framing_offsets(data)
    return name, bytes(damaged), framing


def _typed_only(read, *args, **kwargs) -> None:
    try:
        read(*args, **kwargs)
    except TraceStoreError:
        pass


@settings(max_examples=300, deadline=None)
@given(damaged_archive())
def test_damage_yields_typed_errors_and_alerts(case):
    name, data, must_alert = case
    with tempfile.TemporaryDirectory() as td:
        for file_name, content in pristine().items():
            (Path(td) / file_name).write_bytes(content)
        (Path(td) / name).write_bytes(data)
        for rank in discover_ranks(td):
            for strict in (True, False):
                _typed_only(load_location, td, rank, strict=strict)
        _typed_only(read_definitions, td)
        _typed_only(read_health_record, td)
        alerts = scan_run(td)
    if must_alert:
        assert alerts, f"no alert for damage to {name}"


def test_framing_offsets_cover_every_block():
    data = pristine()["rank-00000.evt"]
    tags = [off for off in framing_offsets(data) if data[off : off + 1] == b"B"]
    assert len(tags) == 3  # 7 events in blocks of 3
