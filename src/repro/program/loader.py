"""Dynamic loader: map linked objects into a process image.

Models the parts of ``ld.so`` the paper's xray-dso extension interacts
with: base-address assignment (DSOs are relocated away from their
preferred base) and ``dlopen``/``dlclose`` for runtime (un)loading.
Loading maps a copy of each object's text image, which already carries
its sleds' NOP bytes as an ELF file does (:attr:`BinaryObject.text`), so
patching operates on real page-protected memory and loading itself
writes nothing and calls no ``mprotect``.

:func:`program_cache` keeps what runs derive from a linked program alone
on the program itself, so a run clones it instead of rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LoaderError
from repro.program.binary import BinaryObject
from repro.program.linker import LinkedProgram
from repro.program.memory import MappedRegion, ProcessImage


@dataclass
class LoadedObject:
    """A binary object mapped at a concrete base address."""

    binary: BinaryObject
    region: MappedRegion

    @property
    def base(self) -> int:
        return self.region.base

    @property
    def relocated(self) -> bool:
        """True when the object was not mapped at its preferred base.

        Executables are linked non-PIC at a fixed address; DSOs are
        always relocated, which is why their trampolines must be
        position independent (paper §V-B.2).
        """
        return self.binary.is_dso

    def sled_address(self, record) -> int:
        return self.base + record.offset


@dataclass
class DynamicLoader:
    """Maps objects into a :class:`ProcessImage` and tracks liveness."""

    image: ProcessImage = field(default_factory=ProcessImage)
    loaded: dict[str, LoadedObject] = field(default_factory=dict)

    def load(self, binary: BinaryObject) -> LoadedObject:
        if binary.name in self.loaded:
            raise LoaderError(f"object {binary.name!r} already loaded")
        region = self.image.map_region(binary.name, binary.image_size)
        region.data[:] = binary.text
        lo = LoadedObject(binary=binary, region=region)
        self.loaded[binary.name] = lo
        return lo

    def dlopen(self, binary: BinaryObject) -> LoadedObject:
        """Runtime loading of a DSO (identical mapping path)."""
        if not binary.is_dso:
            raise LoaderError("dlopen target must be a shared object")
        return self.load(binary)

    def dlclose(self, name: str) -> None:
        lo = self.loaded.pop(name, None)
        if lo is None:
            raise LoaderError(f"object {name!r} is not loaded")
        self.image.unmap(lo.region)

    def load_program(self, linked: LinkedProgram) -> list[LoadedObject]:
        """Map the executable and all link-time DSO dependencies."""
        objs = [self.load(linked.executable)]
        objs.extend(self.load(dso) for dso in linked.dsos)
        return objs

    def object_containing(self, address: int) -> LoadedObject:
        for lo in self.loaded.values():
            if lo.region.contains(address):
                return lo
        raise LoaderError(f"no loaded object contains address {address:#x}")


class ProgramCache:
    """What runs derive from one linked program alone, kept on it.

    ``startup`` holds DynCaPI's start-up state
    (:class:`repro.dyncapi.runtime.ProcessState`) and ``layouts`` the
    execution engine's tables per loaded layout.  Both are built on
    first use.  Pickling drops them, so a spawned worker rebuilds them
    instead of receiving them; a forked one inherits them.
    """

    __slots__ = ("startup", "layouts")

    def __init__(self) -> None:
        self.startup = None
        self.layouts: dict = {}

    def __reduce__(self):
        return (ProgramCache, ())


def program_cache(linked: LinkedProgram) -> ProgramCache:
    """The :class:`ProgramCache` of ``linked`` (created empty on first use)."""
    cache = linked.__dict__.get("_cache")
    if cache is None:
        cache = linked.__dict__["_cache"] = ProgramCache()
    return cache
