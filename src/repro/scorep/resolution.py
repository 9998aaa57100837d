"""Address→name resolution for the generic compiler interface.

With ``-finstrument-functions``-style instrumentation, Score-P only
receives function *addresses* and must resolve names itself by mapping
the executable binary.  The paper's key limitation (§V-C.1): "Score-P is
unable to resolve addresses from shared objects" this way.  DynCaPI's
symbol-injection workaround supplies translated symbol addresses for
every loaded DSO, restoring resolution.

Resolution sits on the execution engine's per-event hot path (one query
per region enter/exit), so lookups are memoised per address and the
injected-symbol ranges are bisected over a sorted index instead of
scanned linearly.  :meth:`inject_symbols` invalidates both.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from repro.program.loader import DynamicLoader

#: cache-miss sentinel (``None`` is a valid cached result)
_MISS = object()


@dataclass
class AddressResolver:
    """Resolve instruction addresses to function names.

    Out of the box only the main executable's symbols are known.
    :meth:`inject_symbols` adds externally supplied (name, absolute
    address, size) triples — the DynCaPI symbol-injection path.
    """

    loader: DynamicLoader
    executable_name: str
    #: absolute address -> (name, size), indexed lazily for lookup
    _injected: dict[int, tuple[str, int]] = field(default_factory=dict)
    unresolved_queries: int = 0
    resolved_queries: int = 0
    #: address -> name-or-None memo (hot path: sled addresses repeat)
    _memo: dict[int, str | None] = field(default_factory=dict, repr=False)
    #: sorted (start, end, name) index over ``_injected``
    _index: tuple[list[int], list[tuple[int, str]]] | None = field(
        default=None, repr=False
    )

    def resolve(self, address: int) -> str | None:
        """Name covering ``address``, or None (counted) if unknown."""
        name = self._memo.get(address, _MISS)
        if name is _MISS:
            name = self._resolve_uncached(address)
            self._memo[address] = name
        if name is None:
            self.unresolved_queries += 1
        else:
            self.resolved_queries += 1
        return name

    def _resolve_uncached(self, address: int) -> str | None:
        exe = self.loader.loaded.get(self.executable_name)
        if exe is not None and exe.region.contains(address):
            sym = exe.binary.symtab.at_offset(address - exe.base)
            if sym is not None:
                return sym.name
        starts, payloads = self._injected_index()
        pos = bisect_right(starts, address) - 1
        if pos >= 0:
            end, name = payloads[pos]
            if address < end:
                return name
        return None

    def _injected_index(self) -> tuple[list[int], list[tuple[int, str]]]:
        index = self._index
        if index is None:
            starts = sorted(self._injected)
            payloads = []
            for start in starts:
                name, size = self._injected[start]
                payloads.append((start + max(size, 1), name))
            index = (starts, payloads)
            self._index = index
        return index

    def inject_symbols(self, triples: list[tuple[str, int, int]]) -> None:
        """Add (name, absolute address, size) entries from DynCaPI."""
        for name, addr, size in triples:
            self._injected[addr] = (name, size)
        self._index = None
        self._memo.clear()
