"""Undirected graphs and the pure graph predicates used across the package.

Nodes are integers 0..node_count-1 internally; human-readable labels are
attached only at serialization boundaries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DataError

Edge = tuple[int, int]


def _norm_edge(a: int, b: int) -> Edge:
    if a == b:
        raise DataError(f"self-loop on node {a}")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph; immutable after construction.  `edges` may
    be any iterable of node pairs and is stored as a frozenset of (low,
    high) tuples, whose iteration order is no part of the graph: code that
    draws or writes per edge goes over `sorted(edges)`."""

    node_count: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.node_count < 1:
            raise DataError("graph needs at least one node")
        norm = frozenset(_norm_edge(a, b) for a, b in self.edges)
        object.__setattr__(self, "edges", norm)
        for a, b in norm:
            if not (0 <= a < self.node_count and 0 <= b < self.node_count):
                raise DataError(f"edge ({a},{b}) outside [0,{self.node_count})")

    @classmethod
    def chain(cls, n: int) -> "UndirectedGraph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor set of every node, built once per graph; read-only."""
        adj: list[set[int]] = [set() for _ in range(self.node_count)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(map(frozenset, adj))

    def neighbors(self, i: int) -> frozenset[int]:
        self._check_node(i)
        return self.adjacency[i]

    def _check_node(self, i: int) -> None:
        if not 0 <= i < self.node_count:
            raise DataError(f"node {i} outside [0,{self.node_count})")


def is_tree(g: UndirectedGraph) -> bool:
    """Exactly node_count-1 edges and one connected component."""
    return len(g.edges) == g.node_count - 1 and len(connected_components(g)) == 1


def neighborhood_is_clique(g: UndirectedGraph, i: int) -> bool:
    """True iff every pair of i's neighbors is adjacent in g."""
    nbrs, adj = sorted(g.neighbors(i)), g.adjacency
    return all(b in adj[a] for k, a in enumerate(nbrs) for b in nbrs[k + 1:])


def connected_components(g: UndirectedGraph, within: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Maximal connected node sets, ordered by smallest member.

    `within` restricts both the nodes considered and the paths allowed.
    """
    nodes = sorted(within) if within is not None else range(g.node_count)
    allowed = set(nodes)
    adj = g.adjacency
    out: list[frozenset[int]] = []
    visited: set[int] = set()
    for s in nodes:
        if s in visited:
            continue
        comp = {s}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w in allowed and w not in comp:
                    comp.add(w)
                    queue.append(w)
        visited |= comp
        out.append(frozenset(comp))
    return out


# ---------------------------------------------------------------------------
# serialization

def graph_to_dot(
    g: UndirectedGraph,
    labels: Sequence[str],
    node_colors: dict[int, str] | None = None,
    edge_colors: dict[Edge, str] | None = None,
    name: str = "g",
) -> str:
    node_colors = node_colors or {}
    edge_colors = edge_colors or {}
    lines = [f"graph {name} {{"]
    for i, lab in enumerate(labels):
        attrs = f' [style=filled, fillcolor="{node_colors[i]}"]' if i in node_colors else ""
        lines.append(f'  "{lab}"{attrs};')
    for a, b in sorted(g.edges):
        attrs = f' [color="{edge_colors[(a, b)]}"]' if (a, b) in edge_colors else ""
        lines.append(f'  "{labels[a]}" -- "{labels[b]}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"
