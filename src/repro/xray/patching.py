"""Sled patching: the runtime byte-rewriting machinery.

Patching follows the exact sequence the paper describes (§V-A): first
``mprotect`` flips the sled's pages to copy-on-write writable, then the
NOP sequence is replaced by the jump encoding, then protection is
restored.  Unpatching restores the NOPs.  All byte traffic goes through
the page-protected memory model, so a missing ``mprotect`` faults.

The sleds start as the NOPs the loaded text carries; loading writes
nothing.  Reading and decoding a sled's bytes on every event would cost
more than the event, so the patcher keeps a *decoded table* of the
patched sleds.  Its own writes update the table.  The bytes stay the
truth: the table also records the memory's write count it agrees with,
and any write the patcher did not make drops it, so the next query
re-reads the bytes (:meth:`SledPatcher.sync`).
"""

from __future__ import annotations

from collections.abc import Collection, Container, Mapping
from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import PatchingError, SegmentationFault
from repro.xray.sled import (
    SLED_BYTES,
    UNPATCHED,
    decode_patch,
    encode_patch,
)


class Memory(Protocol):
    """The slice of the process-image API patching needs."""

    #: successful writes so far (see :attr:`ProcessImage.writes`)
    writes: int

    def read(self, address: int, length: int) -> bytes: ...

    def write(self, address: int, payload: bytes) -> None: ...

    def mprotect(self, start: int, length: int, *, writable: bool) -> None: ...


@dataclass
class PatchStats:
    """Counters feeding the Tinit cost model."""

    patched: int = 0
    unpatched: int = 0
    mprotect_calls: int = 0


@dataclass
class SledPatcher:
    """Patch/unpatch individual sleds in a process image."""

    memory: Memory
    stats: PatchStats = field(default_factory=PatchStats)
    #: the decoded table: address -> (function id, trampoline id) of
    #: every patched sled among the addresses last synced
    _patched: dict[int, tuple[int, int]] = field(default_factory=dict, repr=False)
    #: the sled addresses the table covers
    _covered: Container[int] = field(default=frozenset(), repr=False)
    #: ``memory.writes`` the table agrees with (None: no table)
    _writes: int | None = field(default=None, repr=False)

    def patch(self, address: int, function_id: int, trampoline_id: int) -> None:
        """Overwrite the NOP sled at ``address`` with a trampoline jump."""
        if self.read_sled(address) is not None:
            raise PatchingError(f"sled at {address:#x} is already patched")
        self._protected_write(
            address, encode_patch(function_id, trampoline_id),
            (function_id, trampoline_id),
        )
        self.stats.patched += 1

    def unpatch(self, address: int) -> None:
        """Restore the original NOP sequence."""
        if self.read_sled(address) is None:
            raise PatchingError(f"sled at {address:#x} is not patched")
        self._protected_write(address, UNPATCHED, None)
        self.stats.unpatched += 1

    def read_sled(self, address: int) -> tuple[int, int] | None:
        """Decoded (function id, trampoline id), or ``None`` if unpatched.

        Answered from the decoded table while it agrees with the memory
        and covers ``address``; otherwise from the bytes.
        """
        table = self.table()
        if table is not None and address in self._covered:
            return table.get(address)
        return self._decode(address)

    # -- the decoded table ------------------------------------------------------

    def table(self) -> dict[int, tuple[int, int]] | None:
        """The decoded table, or None if a write since it was built (or
        the lack of any sync) means it may no longer match the bytes."""
        return self._patched if self._writes == self.memory.writes else None

    def sync(self, addresses: Collection[int]) -> dict[int, tuple[int, int]]:
        """The decoded table over the sleds at ``addresses``, re-read from
        the bytes if it was dropped.  The caller drops the table
        (:meth:`drop_table`) whenever that set of sleds changes."""
        if self._writes == self.memory.writes:
            return self._patched
        table = {}
        for address in addresses:
            decoded = self._decode(address)
            if decoded is not None:
                table[address] = decoded
        self.adopt(table, addresses)
        return self._patched

    def adopt(
        self, table: Mapping[int, tuple[int, int]], addresses: Container[int]
    ) -> None:
        """Take ``table`` as the decoded state of the sleds at ``addresses``
        as the memory holds them now — for a memory freshly loaded with
        the bytes ``table`` was read from."""
        self._patched = dict(table)
        self._covered = addresses
        self._writes = self.memory.writes

    def drop_table(self) -> None:
        """Forget the table (the set of sleds changed); the next
        :meth:`sync` re-reads the bytes."""
        self._writes = None

    # -- internals ------------------------------------------------------------

    def _decode(self, address: int) -> tuple[int, int] | None:
        """The sled at ``address`` decoded from its bytes."""
        try:
            blob = self.memory.read(address, SLED_BYTES)
        except SegmentationFault as exc:
            raise PatchingError(f"sled read failed: {exc}") from exc
        try:
            return decode_patch(blob)
        except PatchingError as exc:
            raise PatchingError(f"sled at {address:#x}: {exc}") from exc

    def _protected_write(
        self, address: int, payload: bytes, decoded: tuple[int, int] | None
    ) -> None:
        """The mprotect → write → mprotect dance from the paper.

        A table that agreed with the memory before the write is updated
        with ``decoded`` and keeps agreeing after it.
        """
        in_sync = self.table() is not None
        self.memory.mprotect(address, SLED_BYTES, writable=True)
        self.stats.mprotect_calls += 1
        try:
            self.memory.write(address, payload)
        finally:
            self.memory.mprotect(address, SLED_BYTES, writable=False)
            self.stats.mprotect_calls += 1
        if not in_sync:
            return
        if address in self._covered:
            if decoded is None:
                self._patched.pop(address, None)
            else:
                self._patched[address] = decoded
        self._writes = self.memory.writes
