"""Simulated process address space with page-level protection.

XRay's patching relies on ``mprotect``: text pages containing sleds are
flipped to copy-on-write writable, the NOP bytes are rewritten, and the
pages are flipped back.  This module models exactly that — a write to a
non-writable page raises :class:`~repro.errors.SegmentationFault`, so a
patching implementation that forgets the ``mprotect`` dance fails the
same way it would on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LoaderError, SegmentationFault

PAGE_SIZE = 4096


def page_of(address: int) -> int:
    return address // PAGE_SIZE


def page_range(start: int, length: int) -> range:
    """Indices of all pages overlapping ``[start, start+length)``."""
    if length <= 0:
        return range(0)
    return range(page_of(start), page_of(start + length - 1) + 1)


@dataclass
class MappedRegion:
    """A contiguous mapping (one loaded object's text image)."""

    name: str
    base: int
    data: bytearray

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


@dataclass
class ProcessImage:
    """The virtual address space of one simulated process.

    Regions are mapped page-aligned by a bump allocator; page protection
    is tracked per page index.  Text pages start read-only+executable,
    matching how a real loader maps ``.text``.
    """

    regions: list[MappedRegion] = field(default_factory=list)
    _writable_pages: set[int] = field(default_factory=set)
    _next_base: int = 0x400000  # conventional ELF load address
    #: Statistics: mprotect invocations (patching cost model input).
    mprotect_calls: int = 0
    #: Successful ``write`` calls so far.  A reader that keeps decoded
    #: bytes (the sled patcher's table) compares it with the count it
    #: last saw to notice writes it did not make itself.
    writes: int = 0

    # -- mapping --------------------------------------------------------------

    def map_region(self, name: str, size: int) -> MappedRegion:
        """Map ``size`` zeroed bytes at the next free page-aligned base."""
        if size <= 0:
            raise LoaderError(f"cannot map empty region {name!r}")
        base = self._next_base
        region = MappedRegion(name=name, base=base, data=bytearray(size))
        self.regions.append(region)
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        # one guard page between mappings
        self._next_base = base + (pages + 1) * PAGE_SIZE
        return region

    def unmap(self, region: MappedRegion) -> None:
        if region not in self.regions:
            raise LoaderError(f"region {region.name!r} is not mapped")
        self.regions.remove(region)
        for page in page_range(region.base, len(region.data)):
            self._writable_pages.discard(page)

    def region_at(self, address: int) -> MappedRegion:
        for region in self.regions:
            if region.contains(address):
                return region
        raise SegmentationFault(f"access to unmapped address {address:#x}")

    # -- protection -----------------------------------------------------------

    def mprotect(self, start: int, length: int, *, writable: bool) -> None:
        """Change protection of all pages overlapping the range.

        Like the real syscall this is page-granular: protecting a single
        sled makes its whole page writable.
        """
        self.region_at(start)  # fault on unmapped ranges, like the syscall
        self.mprotect_calls += 1
        for page in page_range(start, length):
            if writable:
                self._writable_pages.add(page)
            else:
                self._writable_pages.discard(page)

    def is_writable(self, address: int) -> bool:
        return page_of(address) in self._writable_pages

    # -- access ---------------------------------------------------------------

    def read(self, address: int, length: int) -> bytes:
        region = self.region_at(address)
        if address + length > region.end:
            raise SegmentationFault(
                f"read of {length} bytes at {address:#x} crosses region end"
            )
        offset = address - region.base
        return bytes(region.data[offset : offset + length])

    def write(self, address: int, payload: bytes) -> None:
        """Write bytes, enforcing page protection."""
        region = self.region_at(address)
        if address + len(payload) > region.end:
            raise SegmentationFault(
                f"write of {len(payload)} bytes at {address:#x} crosses region end"
            )
        for page in page_range(address, len(payload)):
            if page not in self._writable_pages:
                raise SegmentationFault(
                    f"write to non-writable page at {address:#x} "
                    f"(did you forget mprotect?)"
                )
        offset = address - region.base
        region.data[offset : offset + len(payload)] = payload
        self.writes += 1
