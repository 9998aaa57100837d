"""XRay trampolines, including the position-independence fix for DSOs.

A patched sled jumps to a trampoline that saves registers and calls the
installed event handler.  The trampolines linked into a DSO must address
the handler symbol relative to the global offset table (``-fPIC``
style): a DSO is mapped at an arbitrary base, so the absolute-address
load used in the main executable's trampolines would dereference
garbage after relocation.  We model that failure explicitly: invoking a
non-PIC trampoline from a relocated object raises
:class:`~repro.errors.TrampolineRelocationError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import TrampolineRelocationError
from repro.xray.ids import PackedId


class EventType(enum.Enum):
    """XRay event handler event types (``XRayEntryType``)."""

    ENTRY = "entry"
    EXIT = "exit"
    TAIL = "tail"


#: Signature of an installed XRay event handler: ``handler(packed_id,
#: event_type)`` — mirroring ``void (*)(int32_t, XRayEntryType)``.
Handler = Callable[[PackedId, EventType], None]


@dataclass
class Trampoline:
    """One trampoline function linked into an object.

    ``pic`` records how the handler symbol is addressed: via the GOT
    (position-independent) or absolutely.
    """

    trampoline_id: int
    object_name: str
    event_type: EventType
    pic: bool

    def invoke(
        self,
        handler: Handler | None,
        packed_id: PackedId,
        *,
        relocated: bool,
    ) -> None:
        """Dispatch a sled event through this trampoline.

        ``relocated`` is true when the containing object was mapped away
        from its preferred base (always true for DSOs).
        """
        if relocated and not self.pic:
            raise TrampolineRelocationError(
                f"non-PIC trampoline {self.trampoline_id} of "
                f"{self.object_name!r} invoked after relocation; rebuild "
                f"the DSO with -fPIC (GOT-relative handler addressing)"
            )
        if handler is not None:
            handler(packed_id, self.event_type)


@dataclass
class TrampolineTable:
    """Process-wide registry mapping trampoline ids to trampolines.

    Each registered object contributes a local (entry, exit) pair; the
    patcher encodes the pair's ids into that object's sleds so events
    always route through the object's *own* trampolines, as required for
    DSOs (paper §V-B.2).
    """

    _table: dict[int, Trampoline] = field(default_factory=dict)
    _next_id: int = 0

    def create_pair(self, object_name: str, *, pic: bool) -> tuple[Trampoline, Trampoline]:
        entry = Trampoline(self._next_id, object_name, EventType.ENTRY, pic)
        exit_ = Trampoline(self._next_id + 1, object_name, EventType.EXIT, pic)
        self._table[entry.trampoline_id] = entry
        self._table[exit_.trampoline_id] = exit_
        self._next_id += 2
        return entry, exit_

    def remove_object(self, object_name: str) -> None:
        for tid in [t.trampoline_id for t in self._table.values() if t.object_name == object_name]:
            del self._table[tid]

    def get(self, trampoline_id: int) -> Trampoline:
        return self._table[trampoline_id]

    def copy(self) -> "TrampolineTable":
        """An independent table sharing the (never mutated) trampolines."""
        return TrampolineTable(dict(self._table), self._next_id)

    def __len__(self) -> int:
        return len(self._table)
