"""Union-find (disjoint set) with path compression and union by size."""

from __future__ import annotations

from typing import Dict, List


class UnionFind:
    """Disjoint-set forest over dense integer ids."""

    def __init__(self) -> None:
        self.parent: List[int] = []
        self.size: List[int] = []

    def make_set(self) -> int:
        """Create a new singleton set; returns its id."""
        idx = len(self.parent)
        self.parent.append(idx)
        self.size.append(1)
        return idx

    def find(self, x: int) -> int:
        """Find the canonical representative of ``x`` (with path compression)."""
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def in_same_set(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` have the same representative."""
        return self.find(a) == self.find(b)

    def __len__(self) -> int:
        return len(self.parent)

    def num_sets(self) -> int:
        """Number of disjoint sets (a full scan)."""
        return sum(1 for i, p in enumerate(self.parent) if i == self.find(i))
