"""Binary objects: symbol tables, sled tables, and object metadata.

A :class:`BinaryObject` stands in for an ELF executable or shared
object.  It exposes the two views DynCaPI actually consults:

* the *full* symbol table (what ``nm`` prints on the object file), and
* the *dynamic* symbol table (what the loader exposes), which omits
  hidden-visibility symbols — the source of the paper's 1,444
  unresolvable OpenFOAM functions.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import LinkError
from repro.program.ir import Visibility
from repro.program.machine import MachineFunction
from repro.xray.sled import SLED_BYTES, UNPATCHED


class ObjectKind(enum.Enum):
    EXECUTABLE = "exec"
    SHARED_OBJECT = "dso"


@dataclass(frozen=True)
class Symbol:
    """One function symbol: name, object-relative offset, size, visibility."""

    name: str
    offset: int
    size: int
    visibility: Visibility = Visibility.DEFAULT

    @property
    def hidden(self) -> bool:
        return self.visibility is Visibility.HIDDEN


class SymbolTable:
    """Name- and offset-indexed symbol lookup.

    ``at_offset`` is on the measurement hot path (one address→name query
    per instrumentation event), so it bisects a sorted offset index that
    is rebuilt lazily after mutations.  Function extents laid out by the
    linker never overlap, so the covering symbol (if any) is always the
    one with the greatest offset at or below the query.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, Symbol] = {}
        self._offset_index: tuple[list[int], list[Symbol]] | None = None

    def add(self, symbol: Symbol) -> None:
        if symbol.name in self._by_name:
            raise LinkError(f"duplicate symbol {symbol.name!r}")
        self._by_name[symbol.name] = symbol
        self._offset_index = None

    def lookup(self, name: str) -> Symbol | None:
        return self._by_name.get(name)

    def at_offset(self, offset: int) -> Symbol | None:
        """Symbol whose ``[offset, offset+size)`` covers the address."""
        index = self._offset_index
        if index is None:
            ordered = sorted(self._by_name.values(), key=lambda s: s.offset)
            index = ([s.offset for s in ordered], ordered)
            self._offset_index = index
        offsets, ordered = index
        pos = bisect_right(offsets, offset) - 1
        if pos >= 0:
            sym = ordered[pos]
            if offset < sym.offset + sym.size:
                return sym
        return None

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name


@dataclass
class BinaryObject:
    """An executable or DSO produced by the linker.

    ``sled_records`` live in :mod:`repro.xray.sled`; the object also
    carries whether its trampolines were built position-independent —
    the crux of the paper's xray-dso change.
    """

    name: str
    kind: ObjectKind
    functions: dict[str, MachineFunction] = field(default_factory=dict)
    symtab: SymbolTable = field(default_factory=SymbolTable)
    #: XRay sled table (offsets are object-relative); see xray.sled.
    sled_records: list = field(default_factory=list)
    #: Local XRay function id -> function name (ids are 1-based and
    #: assigned in layout order, unique *within* this object only).
    function_ids: dict[int, str] = field(default_factory=dict)
    pic: bool = True
    image_size: int = 0
    _text: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_dso(self) -> bool:
        return self.kind is ObjectKind.SHARED_OBJECT

    @property
    def text(self) -> bytes:
        """The object's text image as the file holds it: ``image_size``
        bytes with every sled's NOPs in place (the compiler emits them,
        so nothing at load time has to).  Rendered once, on first use —
        linking alone never needs it."""
        if self._text is None:
            image = bytearray(self.image_size)
            for record in self.sled_records:
                image[record.offset : record.offset + SLED_BYTES] = UNPATCHED
            self._text = bytes(image)
        return self._text

    def dynamic_symbols(self) -> list[Symbol]:
        """Loader-visible symbols (hidden visibility filtered out)."""
        return [s for s in self.symtab if not s.hidden]

    def nm_symbols(self) -> list[Symbol]:
        """All symbols, as the ``nm`` binary utility would list them.

        This is the view DynCaPI's symbol-injection workaround uses: it
        runs ``nm`` on the on-disk object, which sees hidden symbols
        too.
        """
        return sorted(self.symtab, key=lambda s: s.offset)

    def hidden_function_names(self) -> set[str]:
        return {s.name for s in self.symtab if s.hidden}
