"""Score-P call-path profile data structures.

Score-P organises measurements as a call tree: one node per unique call
path, carrying visit counts and inclusive time.  Exclusive time is
derived on demand (inclusive minus children).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class CallTreeNode:
    """One call-path node (region name in the context of its parent)."""

    name: str
    parent: "CallTreeNode | None" = None
    children: dict[str, "CallTreeNode"] = field(default_factory=dict)
    visits: int = 0
    inclusive_cycles: float = 0.0

    def child(self, name: str) -> "CallTreeNode":
        node = self.children.get(name)
        if node is None:
            node = CallTreeNode(name=name, parent=self)
            self.children[name] = node
        return node

    @property
    def exclusive_cycles(self) -> float:
        return self.inclusive_cycles - sum(
            c.inclusive_cycles for c in self.children.values()
        )

    def walk(self) -> Iterator["CallTreeNode"]:
        """Depth-first iteration over this subtree (self included)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def path(self) -> str:
        parts = []
        node: CallTreeNode | None = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))


@dataclass
class FlatRegion:
    """Aggregated per-region view (summed over call paths)."""

    name: str
    visits: int = 0
    inclusive_cycles: float = 0.0


def flatten(root: CallTreeNode) -> dict[str, FlatRegion]:
    """Aggregate a call tree into per-region totals.

    Inclusive times of recursive appearances would double count, so a
    region's inclusive time is only accumulated from call-path nodes
    whose ancestors do not already contain the region.
    """
    flat: dict[str, FlatRegion] = {}

    def ancestors(node: CallTreeNode) -> set[str]:
        names = set()
        cur = node.parent
        while cur is not None:
            names.add(cur.name)
            cur = cur.parent
        return names

    for node in root.walk():
        if node is root:
            continue
        region = flat.setdefault(node.name, FlatRegion(node.name))
        region.visits += node.visits
        if node.name not in ancestors(node):
            region.inclusive_cycles += node.inclusive_cycles
    return flat
