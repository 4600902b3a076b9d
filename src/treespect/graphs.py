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
    """Simple undirected graph; immutable after construction."""

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
    def from_edges(cls, node_count: int, edges: Iterable[Sequence[int]]) -> "UndirectedGraph":
        return cls(node_count, frozenset(_norm_edge(a, b) for a, b in edges))

    @classmethod
    def chain(cls, n: int) -> "UndirectedGraph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @cached_property
    def _adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbor set of every node, built once per graph; read-only."""
        adj: list[set[int]] = [set() for _ in range(self.node_count)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(map(frozenset, adj))

    def has_edge(self, a: int, b: int) -> bool:
        return a != b and 0 <= a < self.node_count and b in self._adjacency[a]

    def adjacency(self) -> tuple[frozenset[int], ...]:
        return self._adjacency

    def neighbors(self, i: int) -> frozenset[int]:
        self._check_node(i)
        return self._adjacency[i]

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def leaves(self) -> frozenset[int]:
        adj = self.adjacency()
        return frozenset(i for i in range(self.node_count) if len(adj[i]) == 1)

    def _check_node(self, i: int) -> None:
        if not 0 <= i < self.node_count:
            raise DataError(f"node {i} outside [0,{self.node_count})")


def bfs_distances(g: UndirectedGraph, source: int) -> list[int]:
    """Shortest-path hop counts from source; -1 for unreachable nodes."""
    g._check_node(source)
    adj = g.adjacency()
    dist = [-1] * g.node_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_tree(g: UndirectedGraph) -> bool:
    """Connected with exactly node_count-1 edges."""
    if len(g.edges) != g.node_count - 1:
        return False
    return all(d >= 0 for d in bfs_distances(g, 0))


def neighborhood_is_clique(g: UndirectedGraph, i: int) -> bool:
    """True iff every pair of i's neighbors is adjacent in g."""
    nbrs = sorted(g.neighbors(i))
    return all(g.has_edge(a, b) for k, a in enumerate(nbrs) for b in nbrs[k + 1:])


def connected_components(g: UndirectedGraph, within: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Maximal connected node sets, ordered by smallest member.

    `within` restricts both the nodes considered and the paths allowed.
    """
    nodes = sorted(within) if within is not None else range(g.node_count)
    allowed = set(nodes)
    adj = g.adjacency()
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

def sorted_edges(g: UndirectedGraph) -> list[Edge]:
    return sorted(g.edges)


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
    for a, b in sorted_edges(g):
        attrs = f' [color="{edge_colors[(a, b)]}"]' if (a, b) in edge_colors else ""
        lines.append(f'  "{labels[a]}" -- "{labels[b]}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"
