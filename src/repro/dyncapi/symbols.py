"""Symbol collection and XRay-id→name mapping (paper §V-C.1, §VI-B(a)).

DynCaPI must translate XRay function ids into names to match them
against the IC.  The paper's method: collect symbol addresses per object
(``nm`` on the object file), translate them by the object's load address
(from the process memory map), then cross-check against
``__xray_function_address``.

Hidden-visibility symbols in DSOs defeat this: they are not present in
the loader-visible (dynamic) symbol table, so their ids cannot be
named — the 1,444 unresolvable OpenFOAM functions.  The main executable
is exempt (its on-disk symbol table is fully readable).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.program.loader import DynamicLoader, LoadedObject
from repro.scorep.resolution import SymbolIndex
from repro.xray.ids import PackedId
from repro.xray.runtime import XRayRuntime


@dataclass(frozen=True, slots=True)
class SymbolTriple:
    name: str
    address: int
    size: int


def collect_object_symbols(lo: LoadedObject) -> list[SymbolTriple]:
    """nm-style collection translated to runtime addresses.

    For DSOs only dynamic (non-hidden) symbols are usable; for the
    executable the full symbol table is readable from disk.
    """
    binary = lo.binary
    symbols = binary.nm_symbols() if not binary.is_dso else binary.dynamic_symbols()
    return [
        SymbolTriple(sym.name, lo.base + sym.offset, sym.size) for sym in symbols
    ]


def collect_all_symbols(loader: DynamicLoader) -> dict[str, list[SymbolTriple]]:
    """Per-object symbol triples for every loaded object."""
    return {
        name: collect_object_symbols(lo) for name, lo in loader.loaded.items()
    }


class ObjectSymbols(Mapping[str, tuple[SymbolTriple, ...]]):
    """Object name -> its symbol triples, as start-up collected them.

    Read-only, so every run of a program shares one, and with it the
    index Score-P's resolver reads the DSOs' triples from (symbol
    injection, §V-C.1), built on first use.
    """

    __slots__ = ("_triples", "dsos", "_index")

    def __init__(
        self, triples: Mapping[str, Sequence[SymbolTriple]], dsos: Iterable[str]
    ) -> None:
        self._triples = {name: tuple(ts) for name, ts in triples.items()}
        #: the DSOs' names, in load order
        self.dsos = tuple(dsos)
        self._index: SymbolIndex | None = None

    def __getitem__(self, name: str) -> tuple[SymbolTriple, ...]:
        return self._triples[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def dso_index(self) -> SymbolIndex:
        """The resolver's index over every DSO's triples (a later DSO's
        symbol at an address wins)."""
        if self._index is None:
            self._index = SymbolIndex.build(
                {t.address: (t.name, t.size) for name in self.dsos for t in self[name]}
            )
        return self._index


@dataclass(frozen=True)
class IdNameMap:
    """Bidirectional packed-id ↔ name mapping with unresolved tracking.

    Immutable, so every process cloned from one program shares it.
    """

    names: Mapping[PackedId, str] = field(default_factory=dict)
    ids: Mapping[str, PackedId] = field(default_factory=dict)
    #: packed ids whose sled address matched no collected symbol
    unresolved: tuple[PackedId, ...] = ()

    def name_of(self, packed: PackedId) -> str | None:
        return self.names.get(packed)

    def id_of(self, name: str) -> PackedId | None:
        return self.ids.get(name)

    @property
    def unresolved_count(self) -> int:
        return len(self.unresolved)


def build_id_name_map(
    runtime: XRayRuntime, symbols: Mapping[str, Sequence[SymbolTriple]]
) -> IdNameMap:
    """Cross-check XRay function addresses against collected symbols.

    For every registered object and function id, query
    ``__xray_function_address`` and find the covering symbol among the
    object's triples in ``symbols`` (:func:`collect_all_symbols`).
    Functions without a matching symbol (hidden in a DSO) land in
    ``unresolved``.
    """
    names: dict[PackedId, str] = {}
    ids: dict[str, PackedId] = {}
    unresolved: list[PackedId] = []
    for obj in runtime.objects():
        triples = sorted(symbols.get(obj.name, ()), key=lambda t: t.address)
        starts = [t.address for t in triples]
        for fid in sorted(obj.function_names):
            packed = PackedId(obj.object_id, fid)
            address = runtime.function_address(packed)
            pos = bisect_right(starts, address) - 1
            symbol = triples[pos] if pos >= 0 else None
            if symbol is None or address >= symbol.address + max(symbol.size, 1):
                unresolved.append(packed)
                continue
            names[packed] = symbol.name
            ids[symbol.name] = packed
    # start-up matches the IC by name, so a name must never stand for two ids
    assert len(ids) == len(names), "function names and ids must map one to one"
    return IdNameMap(
        names=MappingProxyType(names),
        ids=MappingProxyType(ids),
        unresolved=tuple(unresolved),
    )
