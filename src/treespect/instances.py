"""Random radial-system instances whose corruptions satisfy the 3-hop
placement rule, plus the bundled 7-node chain demo system.

The sampler is constructive: corrupt nodes are laid out on a backbone path
with gaps of at least three hops and at least three hops of slack before
the first and after the last, then the remaining nodes are attached as
pendant chains long enough that no new leaf lands within two hops of a
corrupt node.  Coefficient draws are rejected when any decision margin
(edge magnitude or phase constancy separation) is too thin: those are
exactly the measure-zero-in-theory parameter sets where the support /
phase dichotomies degenerate, fattened by the finite thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corruption import CorruptionSpec
from .detection import (
    ANALYTIC_DECISION,
    EdgeDecisionParams,
    normalized_magnitude_scores,
    phase_nonconstancy_score,
)
from .errors import DataError
from .graphs import (
    UndirectedGraph,
    bfs_distances,
    moral_graph,
    perturbed_graph,
)
from .ltisim import GenerativeModel, spectral_radius
# analytic_corrupted_psd stays importable here: benchmark/layers.py wraps it
from .oracles import (  # noqa: F401
    analytic_corrupted_psd,
    analytic_signatures,
    woodbury_chain_inverse,
)
from .spectral import FrequencyGrid, marginal_inverse_psd

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
    next_node = length + 1
    # grow pendant chains until the node budget is used
    adj_edges = [(i, i + 1) for i in range(length)]
    while next_node < n:
        current = UndirectedGraph.from_edges(n, adj_edges)
        dist_to_marked = np.full(n, 10**9)
        for m in marked:
            dist_to_marked = np.minimum(dist_to_marked, bfs_distances(current, m))
        existing = [v for v in range(next_node)]
        budget = n - next_node
        candidates = [v for v in existing if max(0, 3 - int(dist_to_marked[v])) <= budget]
        w = int(rng.choice(candidates))
        need = max(1, 3 - int(dist_to_marked[w]))
        ell = int(rng.integers(need, min(3, budget) + 1))
        prev = w
        for _ in range(ell):
            adj_edges.append((prev, next_node))
            prev = next_node
            next_node += 1
    tree = UndirectedGraph.from_edges(n, adj_edges)
    return tree, marked


def draw_model(rng: np.random.Generator, tree: UndirectedGraph, ar: bool = False) -> GenerativeModel:
    """Random coefficients on the tree, rescaled to a fixed spectral radius."""
    n = tree.node_count
    coupling = {}
    for a, b in tree.edges:
        coupling[(a, b)] = float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))
        coupling[(b, a)] = float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))
    dyn = tuple(
        (float(rng.uniform(-0.4, 0.4)),) if ar else (0.0,) for _ in range(n)
    )
    sigma = rng.uniform(0.5, 2.0, size=n)

    rho = spectral_radius(tree, coupling, dyn)
    scale = TARGET_RADIUS / max(rho, TARGET_RADIUS)
    coupling = {key: v * scale for key, v in coupling.items()}
    dyn = tuple(tuple(a * scale for a in c) for c in dyn)
    return GenerativeModel(tree, coupling, dyn, sigma)


def draw_delay_spec(rng: np.random.Generator, node: int) -> CorruptionSpec:
    shift = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
    return CorruptionSpec(
        node=node, kind="random_delay", p=float(rng.uniform(0.6, 0.85)), t1=shift, t2=0
    )


# margin floors separating structural zeros / constant phases from live
# entries on exactly-computed spectra
EDGE_FLOOR = 1e-4
ZERO_CEIL = 1e-8
CONSTANT_CEIL = 1e-6
NONCONSTANT_FLOOR = 0.15


def _margins_ok(
    instance: Instance,
    grid: FrequencyGrid,
    params: EdgeDecisionParams,
    edge_floor: float = EDGE_FLOOR,
) -> bool:
    """Reject coefficient draws whose analytic decision margins are thin.

    Perturbed-graph edges (full and marginal) must sit well above rounding
    noise while absent entries stay at it, and every edge entry must be
    either analytically real (constant phase, scores ~1e-8) or clearly
    non-constant.  Near-misses are the fattened version of the pathological
    parameter cancellations excluded by the identifiability theory.
    """
    model = instance.model
    n = model.n_nodes
    sigs = analytic_signatures(model, instance.specs, grid)
    inv, _ = woodbury_chain_inverse(model, sigs, grid)
    truth = perturbed_graph(moral_graph(model.topology), instance.corrupt)
    scores = normalized_magnitude_scores(inv)
    for i in range(n):
        for j in range(i + 1, n):
            if truth.has_edge(i, j):
                if scores[i, j] < edge_floor:
                    return False
            elif scores[i, j] > ZERO_CEIL:
                return False
    for i, j in truth.edges:
        entry = inv.entry(i, j)
        is_real = np.abs(entry.imag).max() <= 1e-10 * np.abs(entry).max()
        score = phase_nonconstancy_score(inv, i, j, params)
        if is_real:
            if score > CONSTANT_CEIL:
                return False
        elif score < NONCONSTANT_FLOOR:
            return False
    if instance.corrupt:
        observed = sorted(set(range(n)) - instance.corrupt)
        marg = marginal_inverse_psd(inv, observed)
        mscores = normalized_magnitude_scores(marg)
        for a in range(len(observed)):
            for b in range(a + 1, len(observed)):
                if truth.has_edge(observed[a], observed[b]):
                    if mscores[a, b] < edge_floor:
                        return False
                elif mscores[a, b] > ZERO_CEIL:
                    return False
    return True


def random_instance(
    rng: np.random.Generator,
    n: int,
    k: int,
    grid: FrequencyGrid | None = None,
    params: EdgeDecisionParams | None = None,
    ar: bool = False,
    max_tries: int = 200,
    edge_floor: float = EDGE_FLOOR,
) -> Instance:
    """Assumption-satisfying instance with comfortable decision margins.

    `edge_floor` sets the weakest normalized edge magnitude accepted; the
    permissive default suits exact-spectra studies, while finite-sample
    sweeps should pass a floor above their detection threshold.
    """
    grid = grid or FrequencyGrid.welch_bins(256)
    params = params or ANALYTIC_DECISION
    for attempt in range(max_tries):
        tree, marked = tree_with_deep_nodes(rng, n, k)
        model = draw_model(rng, tree, ar=ar)
        specs = tuple(draw_delay_spec(rng, v) for v in marked)
        inst = Instance(model, specs)
        if _margins_ok(inst, grid, params, edge_floor):
            return inst
    raise DataError(f"no acceptable coefficient draw after {max_tries} tries")


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


# ---------------------------------------------------------------------------
# the bundled 7-node chain demo system

def chain7_model() -> GenerativeModel:
    """The 7-node bidirectional chain used by the demo experiment."""
    b = {
        (0, 1): 0.5,
        (1, 0): 0.36, (1, 2): 0.6,
        (2, 1): 0.95, (2, 3): -1.7,
        (3, 2): 0.51, (3, 4): 0.55,
        (4, 3): 1.5, (4, 5): 0.6,
        (5, 4): 0.7, (5, 6): 0.5,
        (6, 5): 0.65,
    }
    return GenerativeModel(
        UndirectedGraph.chain(7),
        b,
        (((0.0,),) * 7),
        np.ones(7),
        tuple(str(i + 1) for i in range(7)),
    )


def chain7_corruption() -> tuple[CorruptionSpec, ...]:
    """Random delay on node 4: two samples late with probability 0.7."""
    return (CorruptionSpec(node=3, kind="random_delay", p=0.7, t1=-2, t2=0),)
