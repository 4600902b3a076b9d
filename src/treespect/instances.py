"""Random radial-system instances whose corruptions satisfy the 3-hop
placement rule.

The sampler is constructive: corrupt nodes are laid out on a backbone path
with gaps of at least three hops and at least three hops of slack before
the first and after the last, then the remaining nodes are attached as
pendant chains long enough that no new leaf lands within two hops of a
corrupt node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corruption import CorruptionSpec
from .errors import DataError
from .graphs import UndirectedGraph
from .ltisim import GenerativeModel, spectral_radius

# Unused here, but benchmark/layers.py wraps these five names in this module.
from .detection import phase_nonconstancy_score  # noqa: F401
from .oracles import (  # noqa: F401
    analytic_corrupted_psd,
    analytic_signatures,
    woodbury_chain_inverse,
)
from .spectral import marginal_inverse_psd  # noqa: F401

TARGET_RADIUS = 0.8


@dataclass(frozen=True)
class Instance:
    """A generated system, its corruption specs, and ground-truth sets."""

    model: GenerativeModel
    specs: tuple[CorruptionSpec, ...]

    @property
    def corrupt(self) -> frozenset[int]:
        return frozenset(s.node for s in self.specs)

    @property
    def topology(self) -> UndirectedGraph:
        return self.model.topology


def tree_with_deep_nodes(
    rng: np.random.Generator, n: int, k: int
) -> tuple[UndirectedGraph, tuple[int, ...]]:
    """Tree on n nodes with k marked nodes >= 3 hops from all leaves and
    from each other."""
    if k < 0:
        raise DataError("need k >= 0 marked nodes")
    min_nodes = 3 * k + 4 if k else (4 if n >= 4 else n)
    if n < min_nodes:
        raise DataError(f"{n} nodes cannot host {k} deep nodes (need >= {min_nodes})")
    if k == 0:
        # any non-star tree keeps every interior node two hops from somewhere
        if n <= 3:
            return UndirectedGraph.chain(n), ()
        while True:
            edges = []
            for v in range(1, n):
                edges.append((v, int(rng.integers(0, v))))
            tree = UndirectedGraph.from_edges(n, edges)
            if max(tree.degree(i) for i in range(n)) < n - 1:
                return tree, ()

    positions = [int(rng.integers(3, 5))]
    for _ in range(k - 1):
        positions.append(positions[-1] + int(rng.integers(3, 5)))
    length = positions[-1] + int(rng.integers(3, 5))
    if length + 1 > n:  # over budget: shrink gaps to the 3-hop minimum
        positions = [3 + 3 * i for i in range(k)]
        length = positions[-1] + 3

    marked = tuple(positions)
    # hop distance to the nearest marked node: |v - m| on the backbone; a
    # pendant chain leaves every existing distance as it is and counts up
    # from its anchor, so no graph is rebuilt while the tree grows
    dist_to_marked = [min(abs(v - m) for m in marked) for v in range(length + 1)]
    adj_edges = [(i, i + 1) for i in range(length)]
    # grow pendant chains until the node budget is used
    while len(dist_to_marked) < n:
        next_node = len(dist_to_marked)
        budget = n - next_node
        candidates = [v for v, d in enumerate(dist_to_marked) if max(0, 3 - d) <= budget]
        w = int(rng.choice(candidates))
        need = max(1, 3 - dist_to_marked[w])
        ell = int(rng.integers(need, min(3, budget) + 1))
        prev = w
        for _ in range(ell):
            adj_edges.append((prev, next_node))
            dist_to_marked.append(dist_to_marked[prev] + 1)
            prev = next_node
            next_node += 1
    tree = UndirectedGraph.from_edges(n, adj_edges)
    return tree, marked


def draw_model(rng: np.random.Generator, tree: UndirectedGraph) -> GenerativeModel:
    """Random couplings on the tree, no self dynamics, rescaled to a fixed
    spectral radius."""
    n = tree.node_count
    coupling = {}
    for a, b in tree.edges:
        coupling[(a, b)] = float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))
        coupling[(b, a)] = float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))
    dyn = ((0.0,),) * n
    sigma = rng.uniform(0.5, 2.0, size=n)

    rho = spectral_radius(tree, coupling, dyn)
    scale = TARGET_RADIUS / max(rho, TARGET_RADIUS)
    coupling = {key: v * scale for key, v in coupling.items()}
    return GenerativeModel(tree, coupling, dyn, sigma)


def draw_delay_spec(rng: np.random.Generator, node: int) -> CorruptionSpec:
    shift = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
    return CorruptionSpec(
        node=node, kind="random_delay", p=float(rng.uniform(0.6, 0.85)), t1=shift, t2=0
    )


def random_instance(rng: np.random.Generator, n: int, k: int) -> Instance:
    """Assumption-satisfying instance from one draw: a tree with k corrupt
    nodes at least three hops from the leaves and from each other, random
    coefficients on it, and a random delay on each corrupt node."""
    tree, marked = tree_with_deep_nodes(rng, n, k)
    model = draw_model(rng, tree)
    return Instance(model, tuple(draw_delay_spec(rng, v) for v in marked))


def adversarial_instance(rng: np.random.Generator, n: int) -> Instance:
    """Deliberate assumption violation: two corrupt nodes two hops apart.

    Used for negative-control sweeps; recovery guarantees do not apply and
    the pipeline is expected to surface diagnostics instead of succeeding.
    """
    n = max(n, 9)
    tree, _ = tree_with_deep_nodes(rng, n, 1)
    model = draw_model(rng, tree)
    # the backbone guarantees nodes 3 and 5 exist and sit two hops apart
    specs = (draw_delay_spec(rng, 3), draw_delay_spec(rng, 5))
    return Instance(model, specs)

