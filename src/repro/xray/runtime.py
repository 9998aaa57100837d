"""The XRay runtime (``xray-rt``) with the paper's multi-object extension.

Responsibilities, mirroring ``compiler-rt``'s XRay runtime plus the
paper's additions:

* resolve sled addresses of the main executable at startup,
* let :mod:`repro.xray.dso` register/deregister DSO sled tables with
  their object-local trampolines,
* hand out packed ids (Fig. 4) and translate between ids, names and
  addresses (``__xray_function_address`` analogue),
* patch/unpatch sleds individually, per object, or globally, and
* route sled events through the containing object's trampolines to the
  installed handler.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator

from repro.errors import ObjectRegistrationError, PatchingError, XRayError
from repro.xray.ids import (
    MAIN_EXECUTABLE_OBJECT_ID,
    MAX_FUNCTION_ID,
    MAX_OBJECT_ID,
    PackedId,
)
from repro.xray.patching import Memory, SledPatcher
from repro.xray.sled import SledKind, SledRecord
from repro.xray.trampoline import (
    EventType,
    Handler,
    Trampoline,
    TrampolineTable,
)


@dataclass(frozen=True, slots=True)
class SledEntry:
    """One sled resolved to its absolute address (made on demand)."""

    record: SledRecord
    address: int


@dataclass(frozen=True, slots=True)
class RegisteredObject:
    """Bookkeeping for one patchable object known to the runtime.

    Immutable, so every process cloned from one registration
    (:meth:`XRayRuntime.restore`) can share it.
    """

    object_id: int
    name: str
    base: int
    relocated: bool
    #: the object's sled table, ordered by function id
    records: tuple[SledRecord, ...]
    entry_trampoline: Trampoline
    exit_trampoline: Trampoline
    #: object-local function id -> name (from the object's id table)
    function_names: Mapping[int, str]
    #: object-local function id -> absolute entry address
    function_addresses: Mapping[int, int]
    #: the function id of each of ``records``: a 4-byte-a-sled index
    #: that :meth:`sleds_of` bisects (patch/is_patched hot path)
    _fids: array = field(repr=False)

    @property
    def sleds(self) -> tuple[SledEntry, ...]:
        return self._resolve(self.records)

    def sleds_of(self, function_id: int) -> tuple[SledEntry, ...]:
        start = bisect_left(self._fids, function_id)
        stop = bisect_right(self._fids, function_id, start)
        return self._resolve(self.records[start:stop])

    def _resolve(self, records: tuple[SledRecord, ...]) -> tuple[SledEntry, ...]:
        base = self.base
        return tuple(SledEntry(record, base + record.offset) for record in records)


@dataclass(frozen=True)
class RuntimeSnapshot:
    """A runtime's registration and decoded sled table, without its memory.

    :meth:`XRayRuntime.restore` copies it into a runtime over a fresh
    load of the same program; nothing a restored runtime does reaches
    back into the snapshot.
    """

    objects: tuple[RegisteredObject, ...]
    next_dso_id: int
    trampolines: TrampolineTable
    #: sled address -> its record, over every registered object
    sled_index: Mapping[int, SledRecord]
    #: the patcher's decoded table (empty unless something was patched)
    patched: Mapping[int, tuple[int, int]]


class XRayRuntime:
    """Process-wide XRay state: objects, trampolines, handler, patcher."""

    def __init__(self, memory: Memory):
        self.patcher = SledPatcher(memory)
        self.trampolines = TrampolineTable()
        self._objects: dict[int, RegisteredObject] = {}
        self._object_ids_by_name: dict[str, int] = {}
        self._handler: Handler | None = None
        self._next_dso_id = 1
        #: address -> sled record reverse index for event dispatch
        self._sled_index: dict[int, SledRecord] = {}
        #: (base, object id) of every registered object, sorted
        self._bases: list[tuple[int, int]] = []

    # -- cloning ------------------------------------------------------------------

    def snapshot(self) -> RuntimeSnapshot:
        """This runtime's registration and decoded sled table (the sleds
        are read once, here, if the table is not current)."""
        return RuntimeSnapshot(
            objects=tuple(self._objects.values()),
            next_dso_id=self._next_dso_id,
            trampolines=self.trampolines.copy(),
            sled_index=MappingProxyType(dict(self._sled_index)),
            patched=MappingProxyType(dict(self.decoded())),
        )

    @classmethod
    def restore(cls, memory: Memory, snapshot: RuntimeSnapshot) -> "XRayRuntime":
        """A runtime over ``memory`` registered as ``snapshot`` records.

        ``memory`` must hold at every sled the bytes the snapshotted
        runtime's memory held — a fresh load of the same program — so
        the patcher adopts the snapshot's decoded table instead of
        reading every sled.  No handler is installed.
        """
        runtime = cls(memory)
        runtime.trampolines = snapshot.trampolines.copy()
        runtime._next_dso_id = snapshot.next_dso_id
        for obj in snapshot.objects:
            runtime._objects[obj.object_id] = obj
            runtime._object_ids_by_name[obj.name] = obj.object_id
            insort(runtime._bases, (obj.base, obj.object_id))
        runtime._sled_index = snapshot.sled_index.copy()
        runtime.patcher.adopt(snapshot.patched, runtime._sled_index)
        return runtime

    # -- object registration (the paper's new API surface) ---------------------

    def init_main_executable(
        self,
        name: str,
        base: int,
        sled_records: list[SledRecord],
        function_names: dict[int, str],
    ) -> RegisteredObject:
        """Startup registration of the executable; always object id 0.

        Keeping the executable at object id 0 makes its packed ids equal
        its plain function ids — the backwards-compatibility property
        the paper calls out.
        """
        if MAIN_EXECUTABLE_OBJECT_ID in self._objects:
            raise ObjectRegistrationError("main executable already initialised")
        entry, exit_ = self.trampolines.create_pair(name, pic=False)
        return self._register(
            MAIN_EXECUTABLE_OBJECT_ID,
            name,
            base,
            relocated=False,
            sled_records=sled_records,
            function_names=function_names,
            trampolines=(entry, exit_),
        )

    def register_dso(
        self,
        name: str,
        base: int,
        sled_records: list[SledRecord],
        function_names: dict[int, str],
        trampolines: tuple[Trampoline, Trampoline],
    ) -> int:
        """Register a loaded DSO; returns its assigned object id (1..255)."""
        if name in self._object_ids_by_name:
            raise ObjectRegistrationError(f"object {name!r} already registered")
        if self._next_dso_id > MAX_OBJECT_ID:
            raise ObjectRegistrationError(
                f"cannot register more than {MAX_OBJECT_ID} DSOs "
                f"(8-bit object id exhausted)"
            )
        object_id = self._next_dso_id
        self._next_dso_id += 1
        self._register(
            object_id,
            name,
            base,
            relocated=True,
            sled_records=sled_records,
            function_names=function_names,
            trampolines=trampolines,
        )
        return object_id

    def deregister_object(self, object_id: int) -> None:
        """Remove a DSO on ``dlclose``; its sleds become unknown."""
        if object_id == MAIN_EXECUTABLE_OBJECT_ID:
            raise ObjectRegistrationError("cannot deregister the main executable")
        obj = self._objects.pop(object_id, None)
        if obj is None:
            raise ObjectRegistrationError(f"object id {object_id} is not registered")
        del self._object_ids_by_name[obj.name]
        self.trampolines.remove_object(obj.name)
        for record in obj.records:
            self._sled_index.pop(obj.base + record.offset, None)
        self._bases.remove((obj.base, object_id))
        self.patcher.drop_table()

    def _register(
        self,
        object_id: int,
        name: str,
        base: int,
        *,
        relocated: bool,
        sled_records: list[SledRecord],
        function_names: dict[int, str],
        trampolines: tuple[Trampoline, Trampoline],
    ) -> RegisteredObject:
        for fid in function_names:
            if fid > MAX_FUNCTION_ID:
                raise ObjectRegistrationError(
                    f"function id {fid} in {name!r} exceeds 24-bit limit"
                )
        records = tuple(sorted(sled_records, key=lambda rec: rec.function_id))
        addresses = [base + rec.offset for rec in records]
        obj = RegisteredObject(
            object_id=object_id,
            name=name,
            base=base,
            relocated=relocated,
            records=records,
            entry_trampoline=trampolines[0],
            exit_trampoline=trampolines[1],
            function_names=MappingProxyType(dict(function_names)),
            function_addresses=MappingProxyType(
                {
                    rec.function_id: address
                    for rec, address in zip(records, addresses)
                    if rec.kind is SledKind.ENTRY
                }
            ),
            _fids=array("i", (rec.function_id for rec in records)),
        )
        self._objects[object_id] = obj
        self._object_ids_by_name[name] = object_id
        self._sled_index.update(zip(addresses, records))
        insort(self._bases, (base, object_id))
        self.patcher.drop_table()
        return obj

    # -- queries ----------------------------------------------------------------

    def objects(self) -> Iterator[RegisteredObject]:
        return iter(self._objects.values())

    def _object_at(self, address: int) -> RegisteredObject:
        """The registered object a registered sled address belongs to:
        objects never overlap, so it is the one based last below it."""
        pos = bisect_right(self._bases, (address, MAX_OBJECT_ID + 1)) - 1
        return self._objects[self._bases[pos][1]]

    def object(self, object_id: int) -> RegisteredObject:
        try:
            return self._objects[object_id]
        except KeyError:
            raise XRayError(f"unknown object id {object_id}") from None

    def object_id_of(self, name: str) -> int:
        try:
            return self._object_ids_by_name[name]
        except KeyError:
            raise XRayError(f"object {name!r} is not registered") from None

    def function_address(self, packed: PackedId) -> int:
        """``__xray_function_address`` for packed ids.

        DynCaPI cross-checks this against its nm-derived symbol map to
        translate function ids to names.
        """
        obj = self.object(packed.object_id)
        try:
            return obj.function_addresses[packed.function_id]
        except KeyError:
            raise XRayError(
                f"object {obj.name!r} has no function id {packed.function_id}"
            ) from None

    def function_name(self, packed: PackedId) -> str | None:
        """Name from the object's id table (None for unknown ids)."""
        obj = self.object(packed.object_id)
        return obj.function_names.get(packed.function_id)

    def packed_ids(self) -> list[PackedId]:
        """All patchable functions across all registered objects."""
        out = []
        for obj in self._objects.values():
            out.extend(PackedId(obj.object_id, fid) for fid in sorted(obj.function_names))
        return out

    # -- handler ------------------------------------------------------------------

    def set_handler(self, handler: Handler | None) -> None:
        """``__xray_set_handler``: install/remove the event handler."""
        self._handler = handler

    @property
    def handler(self) -> Handler | None:
        return self._handler

    # -- patching -------------------------------------------------------------------

    def patch_function(self, packed: PackedId) -> int:
        """Patch all sleds of one function; returns the sled count."""
        obj = self.object(packed.object_id)
        sleds = obj.sleds_of(packed.function_id)
        if not sleds:
            raise PatchingError(
                f"function id {packed.function_id} of {obj.name!r} has no sleds"
            )
        for sled in sleds:
            tramp = (
                obj.entry_trampoline
                if sled.record.kind is SledKind.ENTRY
                else obj.exit_trampoline
            )
            self.patcher.patch(sled.address, packed.pack(), tramp.trampoline_id)
        return len(sleds)

    def unpatch_function(self, packed: PackedId) -> int:
        obj = self.object(packed.object_id)
        sleds = obj.sleds_of(packed.function_id)
        for sled in sleds:
            self.patcher.unpatch(sled.address)
        return len(sleds)

    def patch_object(self, object_id: int) -> int:
        """Patch every sled of one object (per-object startup patching)."""
        obj = self.object(object_id)
        count = 0
        for fid in sorted(obj.function_names):
            count += self.patch_function(PackedId(object_id, fid))
        return count

    def patch_all(self) -> int:
        """The legacy "patch everything at startup" mode."""
        return sum(self.patch_object(oid) for oid in sorted(self._objects))

    def unpatch_all(self) -> int:
        """Restore NOPs everywhere; idempotent like ``__xray_unpatch``."""
        count = 0
        for oid, obj in sorted(self._objects.items()):
            for fid in sorted(obj.function_names):
                packed = PackedId(oid, fid)
                if self.is_patched(packed):
                    count += self.unpatch_function(packed)
        return count

    def is_patched(self, packed: PackedId) -> bool:
        obj = self.object(packed.object_id)
        sleds = obj.sleds_of(packed.function_id)
        table = self.decoded()
        return bool(sleds) and all(s.address in table for s in sleds)

    def patched_count(self) -> int:
        """Functions with every sled patched, counted from the decoded
        table: the work follows the patched sleds, not the program."""
        per_function = Counter(
            (self._object_at(address).object_id, self._sled_index[address].function_id)
            for address in self.decoded()
        )
        return sum(
            1
            for (object_id, fid), patched in per_function.items()
            if fid in self._objects[object_id].function_names
            and patched == len(self._objects[object_id].sleds_of(fid))
        )

    def decoded(self) -> dict[int, tuple[int, int]]:
        """The patcher's decoded table over every registered sled: the
        patcher updates it in place, and a write it did not make (or a
        (de)registration) makes the next call re-read the bytes."""
        return self.patcher.sync(self._sled_index)

    @property
    def sled_index(self) -> Mapping[int, SledRecord]:
        """Sled address -> record of every registered sled; registration
        and deregistration edit it in place."""
        return self._sled_index

    # -- event dispatch ----------------------------------------------------------------

    def fire_sled(self, address: int) -> bool:
        """Execute the sled at ``address``.

        Called by the execution engine whenever control flow passes an
        instrumentation point.  Reads the sled's state from the decoded
        table, which follows its bytes (:mod:`repro.xray.patching`): an
        unpatched sled is a NOP (returns False); a patched sled routes
        through its trampoline to the handler (returns True).  A sled no
        object registered is read from its bytes.
        """
        decoded = self.patcher.sync(self._sled_index).get(address)
        if decoded is None:
            if address in self._sled_index or self.patcher.read_sled(address) is None:
                return False
            raise XRayError(f"patched sled at {address:#x} belongs to no object")
        packed_value, trampoline_id = decoded
        obj = self._object_at(address)
        trampoline = self.trampolines.get(trampoline_id)
        trampoline.invoke(
            self._handler, PackedId.unpack(packed_value), relocated=obj.relocated
        )
        return True
