"""Address→name resolution for the generic compiler interface.

With ``-finstrument-functions``-style instrumentation, Score-P only
receives function *addresses* and must resolve names itself by mapping
the executable binary.  The paper's key limitation (§V-C.1): "Score-P is
unable to resolve addresses from shared objects" this way.  DynCaPI's
symbol-injection workaround supplies translated symbol addresses for
every loaded DSO, restoring resolution.

Resolution sits on the execution engine's per-event hot path (one query
per region enter/exit), so lookups are memoised per address and the
injected symbols are bisected over a sorted :class:`SymbolIndex` instead
of scanned linearly.  An index is read-only once built, so the index of
a program's DSO symbols is built once and read in place by the resolver
of every run (:meth:`AddressResolver.inject_index`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.program.loader import DynamicLoader

#: cache-miss sentinel (``None`` is a valid cached result)
_MISS = object()


@dataclass(frozen=True)
class SymbolIndex:
    """Injected symbols by start address, sorted for bisection.

    Read-only, so any number of resolvers can share one.
    """

    #: sorted start addresses, and the (end, name) of each
    starts: tuple[int, ...] = ()
    payloads: tuple[tuple[int, str], ...] = ()

    @classmethod
    def build(cls, symbols: Mapping[int, tuple[str, int]]) -> "SymbolIndex":
        """The index over ``symbols`` (absolute address -> (name, size))."""
        starts = sorted(symbols)
        payloads = []
        for start in starts:
            name, size = symbols[start]
            payloads.append((start + max(size, 1), name))
        return cls(tuple(starts), tuple(payloads))

    def lookup(self, address: int) -> str | None:
        """Name of the symbol covering ``address``, or None."""
        pos = bisect_right(self.starts, address) - 1
        if pos >= 0:
            end, name = self.payloads[pos]
            if address < end:
                return name
        return None


@dataclass
class AddressResolver:
    """Resolve instruction addresses to function names.

    Out of the box only the main executable's symbols are known.
    :meth:`inject_index` adds externally supplied symbols — the DynCaPI
    symbol-injection path.
    """

    loader: DynamicLoader
    executable_name: str
    #: the injected symbols (shared with other resolvers, never changed)
    _injected: SymbolIndex = field(default_factory=SymbolIndex)
    unresolved_queries: int = 0
    resolved_queries: int = 0
    #: address -> name-or-None memo (hot path: sled addresses repeat)
    _memo: dict[int, str | None] = field(default_factory=dict, repr=False)

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
        return self._injected.lookup(address)

    def inject_index(self, index: SymbolIndex) -> None:
        """Resolve DSO addresses through ``index``, read in place."""
        self._injected = index
        self._memo.clear()
