"""Packed object/function ids — the paper's Fig. 4.

The original XRay identified functions by a 32-bit id unique to the main
executable.  To support DSOs, the id space is split: the top 8 bits hold
an object id (0 = main executable, 1..255 = registered DSOs) and the low
24 bits the object-local function id.  The packed id of a main-
executable function therefore equals its plain function id, which keeps
the extended runtime backwards compatible.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PackedIdError

OBJECT_BITS = 8
FUNCTION_BITS = 24

#: Object id of the main executable.
MAIN_EXECUTABLE_OBJECT_ID = 0

#: Ids 1..255 are available for DSOs — "allowing the registration of up
#: to 255 DSOs" (paper §V-B.1).
MAX_OBJECT_ID = (1 << OBJECT_BITS) - 1
MAX_DSOS = MAX_OBJECT_ID

#: "This reduces the upper limit of potentially instrumented functions
#: to ~16.7 million" — per object.
MAX_FUNCTION_ID = (1 << FUNCTION_BITS) - 1


@dataclass(frozen=True, slots=True)
class PackedId:
    """An (object id, function id) pair with its 32-bit packed encoding."""

    object_id: int
    function_id: int

    def __post_init__(self) -> None:
        if not 0 <= self.object_id <= MAX_OBJECT_ID:
            raise PackedIdError(
                f"object id {self.object_id} outside [0, {MAX_OBJECT_ID}]"
            )
        if not 0 <= self.function_id <= MAX_FUNCTION_ID:
            raise PackedIdError(
                f"function id {self.function_id} outside [0, {MAX_FUNCTION_ID}]"
            )

    def pack(self) -> int:
        return (self.object_id << FUNCTION_BITS) | self.function_id

    @classmethod
    def unpack(cls, value: int) -> "PackedId":
        if not 0 <= value < (1 << (OBJECT_BITS + FUNCTION_BITS)):
            raise PackedIdError(f"packed id {value:#x} does not fit in 32 bits")
        return cls(value >> FUNCTION_BITS, value & MAX_FUNCTION_ID)

    @property
    def is_main_executable(self) -> bool:
        return self.object_id == MAIN_EXECUTABLE_OBJECT_ID

    def __int__(self) -> int:
        return self.pack()

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return f"obj{self.object_id}:fn{self.function_id}"
