"""Union-find (disjoint set) with path compression and union by size.

Most ids a hot loop looks up are already roots, so the e-graph's kernels
read :attr:`UnionFind.parent` directly and call :meth:`UnionFind.find` only
off the root fast path: ``x if parent[x] == x else find(x)``.
"""

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
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the surviving root."""
        parent = self.parent
        ra = a if parent[a] == a else self.find(a)
        rb = b if parent[b] == b else self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
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
