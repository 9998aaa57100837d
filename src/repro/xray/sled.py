"""XRay sleds: placeholder NOP regions and their byte-level encoding.

At compile time the XRay machine pass reserves ``SLED_BYTES`` of NOPs at
each function entry and exit.  At runtime, patching overwrites the NOPs
with a jump to a trampoline, encoding the sled's function id.  We model
the bytes literally so tests can assert that patch→unpatch restores the
original image and that writes without ``mprotect`` fault.

This module is intentionally import-light (no dependency on the program
package) because both the linker and the XRay runtime need it.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.errors import PatchingError

#: Size of one sled in bytes.  Real x86-64 XRay reserves 11 bytes (a
#: 2-byte short jump + 9 bytes of NOP); we round up to 12 so the patched
#: encoding below packs evenly.
SLED_BYTES = 12

#: The unpatched sled content: architecture NOPs.
NOP = 0x90
UNPATCHED = bytes([NOP]) * SLED_BYTES

#: Patched sled magic (stands in for `mov r10d, <id>; call <trampoline>`).
PATCH_MAGIC = 0xE9


class SledKind(enum.Enum):
    ENTRY = 0
    EXIT = 1
    #: Tail-call exits exist in real XRay; modelled for completeness.
    TAIL_EXIT = 2


@dataclass(frozen=True)
class SledRecord:
    """One entry of an object's XRay sled table (``xray_instr_map``).

    ``offset`` is object-relative; the loader adds the object's base
    address.  ``function_id`` is the object-local 1-based id.
    """

    offset: int
    kind: SledKind
    function_name: str
    function_id: int


def encode_patch(function_id: int, trampoline_id: int) -> bytes:
    """The byte sequence written into a patched sled.

    Layout: magic byte, sled kind padding byte, u32 function id,
    u32 trampoline id, 2 NOP pad bytes == 12 bytes total.
    """
    return (
        struct.pack("<BBII", PATCH_MAGIC, 0, function_id, trampoline_id)
        + bytes([NOP, NOP])
    )


def decode_patch(blob: bytes) -> tuple[int, int] | None:
    """Inverse of :func:`encode_patch`; ``None`` if the sled is unpatched.

    Raises :class:`PatchingError` for a blob that is neither.
    """
    if len(blob) != SLED_BYTES:
        raise PatchingError(f"sled blob must be {SLED_BYTES} bytes, got {len(blob)}")
    if blob == UNPATCHED:
        return None
    magic, _pad, function_id, trampoline_id = struct.unpack("<BBII", blob[:10])
    if magic != PATCH_MAGIC:
        raise PatchingError("corrupt sled content")
    return function_id, trampoline_id


def is_patched(blob: bytes) -> bool:
    return decode_patch(blob) is not None
