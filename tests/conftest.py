from collections import deque

import numpy as np
import pytest
from scipy.signal import lfilter

from treespect.config import bundled_config_path, load_config
from treespect.corruption import CorruptionSignature
from treespect.errors import DataError
from treespect.graphs import UndirectedGraph, bfs_distances, is_tree
from treespect.instances import TARGET_RADIUS
from treespect.ltisim import GenerativeModel, analytic_inverse_psd, spectral_radius
from treespect.oracles import H_FLOOR, woodbury_chain_inverse
from treespect.panel import TimeSeriesPanel, panel_header
from treespect.spectral import COND_CAP, WelchParams, estimate_cpsd, hermitize


def chain7():
    """The bundled 7-node chain system: `(model, corruption specs)` of the
    `chain7` config."""
    cfg = load_config(bundled_config_path("chain7"))
    return cfg.model, cfg.corruption


def prufer_tree(seq: list[int], n: int) -> UndirectedGraph:
    """Decode a Prüfer sequence (length n-2, entries in [0,n)) into a tree."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    return UndirectedGraph.from_edges(n, edges)


def random_tree(rng: np.random.Generator, n: int) -> UndirectedGraph:
    if n == 1:
        return UndirectedGraph(1)
    if n == 2:
        return UndirectedGraph.from_edges(2, [(0, 1)])
    seq = [int(x) for x in rng.integers(0, n, size=n - 2)]
    return prufer_tree(seq, n)


def draw_ar_model(rng: np.random.Generator, tree: UndirectedGraph, ar: bool = True) -> GenerativeModel:
    """A random model drawn as `instances.draw_model` draws one, plus, if
    `ar`, a self term U(-0.4, 0.4) on every node, drawn after the couplings;
    with `ar` false it is `draw_model`'s model."""
    n = tree.node_count
    coupling = {}
    for a, b in tree.edges:
        coupling[(a, b)] = float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))
        coupling[(b, a)] = float(rng.uniform(0.3, 1.0) * rng.choice([-1.0, 1.0]))
    dyn = tuple((float(rng.uniform(-0.4, 0.4)),) if ar else (0.0,) for _ in range(n))
    sigma = rng.uniform(0.5, 2.0, size=n)
    scale = TARGET_RADIUS / max(spectral_radius(tree, coupling, dyn), TARGET_RADIUS)
    coupling = {key: v * scale for key, v in coupling.items()}
    dyn = tuple(tuple(a * scale for a in c) for c in dyn)
    return GenerativeModel(tree, coupling, dyn, sigma)


def n_hop_neighbors(g: UndirectedGraph, i: int, n: int) -> frozenset[int]:
    """Nodes at shortest-path distance exactly n from i."""
    if n < 1:
        raise DataError("hop count must be positive")
    dist = bfs_distances(g, i)
    return frozenset(j for j, d in enumerate(dist) if d == n)


def moral_graph(topology: UndirectedGraph) -> UndirectedGraph:
    """Tree edges plus an edge between every 2-hop pair."""
    if not is_tree(topology):
        raise DataError("moral graph construction requires a tree")
    extra = set(topology.edges)
    for i in range(topology.node_count):
        for j in n_hop_neighbors(topology, i, 2):
            if i < j:
                extra.add((i, j))
    return UndirectedGraph(topology.node_count, frozenset(extra))


def perturbed_graph(moral: UndirectedGraph, corrupt: frozenset[int] | set[int]) -> UndirectedGraph:
    """Moral graph plus edges between nodes joined by all-corrupt paths.

    Computed by contraction: each maximal corrupt set that is connected in
    the moral graph, together with its moral neighborhood, becomes a clique.
    Equivalent to enumerating moral paths whose interior nodes are all
    corrupt, but linear instead of exponential.
    """
    corrupt = frozenset(corrupt)
    for v in corrupt:
        moral._check_node(v)
    adj = moral.adjacency()
    edges = set(moral.edges)
    seen: set[int] = set()
    for start in sorted(corrupt):
        if start in seen:
            continue
        # flood the corrupt-connected region containing `start`
        region = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w in corrupt and w not in region:
                    region.add(w)
                    queue.append(w)
        seen |= region
        boundary = set().union(*(adj[v] for v in region)) - region
        clique = sorted(region | boundary)
        for a_idx, a in enumerate(clique):
            for b in clique[a_idx + 1:]:
                edges.add((a, b))
    return UndirectedGraph(moral.node_count, frozenset(edges))


def one_step_inverse(model, sigs, node, grid):
    """psi_1: the chain inverse after absorbing only `node`'s additive term.

    Every other signature keeps its response h but gets d = 0, which makes
    its downdate a no-op.
    """
    zeroed = {
        v: sig if v == node else CorruptionSignature(grid, sig.h, np.zeros(grid.size))
        for v, sig in sigs.items()
    }
    return woodbury_chain_inverse(model, zeroed, grid)[0]


def reference_inverse(s):
    """Values and flags of `s.inverse` with `eigvalsh` on every bin: flag a
    2-norm condition number over `COND_CAP` or not finite, invert with the
    identity in the flagged bins, Hermitize, and NaN the flagged bins."""
    mats = hermitize(s.values.copy())
    lam = np.abs(np.linalg.eigvalsh(mats))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = lam.max(axis=1) / lam.min(axis=1)
    flagged = s.flagged | ~np.isfinite(cond) | (cond > COND_CAP)
    mats[flagged] = np.eye(s.n_nodes)
    inv = hermitize(np.linalg.inv(mats))
    inv[flagged] = np.nan
    return inv, flagged


def reference_woodbury(model, signatures, grid):
    """Values and flags of `woodbury_chain_inverse` with every downdate
    written over the whole N x N matrix of every bin."""
    h = np.ones((grid.size, model.n_nodes), dtype=np.complex128)
    d = np.zeros((grid.size, model.n_nodes))
    for v, sig in signatures.items():
        h[:, v], d[:, v] = sig.h, sig.d
    flagged = np.abs(h).min(axis=1) < H_FLOOR
    h_safe = np.where(np.abs(h) < H_FLOOR, 1.0, h)
    inv = analytic_inverse_psd(model, grid).values
    inv /= np.conj(h_safe[:, :, None]) * h_safe[:, None, :]
    inv[flagged] = np.nan
    for v in sorted(signatures):
        denom = 1.0 + d[:, v] * np.where(flagged, 0.0, inv[:, v, v])
        bad = np.abs(denom) < 1e-12
        flagged = flagged | bad
        inv[bad] = np.nan
        gain = d[:, v] / np.where(bad, 1.0, denom)
        col = np.where(flagged[:, None], 0.0, gain[:, None] * inv[:, :, v])
        inv -= col[:, :, None] * inv[:, None, v, :]
    return inv, flagged


def panel_copy(panel: TimeSeriesPanel) -> TimeSeriesPanel:
    """`panel` with its own copy of the samples, for a test that reads the
    clean samples after `apply_corruption` rewrites channels in place."""
    return TimeSeriesPanel(panel.data.copy(), panel.labels)


def rtsp_file(panel: TimeSeriesPanel) -> bytes:
    """The bytes of `panel`'s RTSP file: the header, then the samples as
    little-endian float64, one row per channel."""
    data = np.ascontiguousarray(panel.data, dtype="<f8")
    return panel_header(panel.n_channels, panel.n_samples, panel.labels) + data.tobytes()


def whole_channel_corruption(x: np.ndarray, spec, rng: np.random.Generator) -> np.ndarray:
    """Channel `x` corrupted by `spec`, computed over the whole record at
    once: the reference for the block-by-block corrupters."""
    t = x.size
    if spec.kind == "random_delay":
        idx = np.where(rng.random(t) < spec.p, spec.t1, spec.t2) + np.arange(t)
        return x[np.clip(idx, 0, t - 1)]
    if spec.kind == "packet_drop":
        kept = rng.random(t) < spec.p
        kept[0] = True
        return x[np.maximum.accumulate(np.where(kept, np.arange(t), 0))]
    out = lfilter(np.asarray(spec.taps), [1.0], x)
    if spec.noise_variance > 0:
        out = out + np.sqrt(spec.noise_variance) * rng.standard_normal(t)
    return out


def estimate_signature(
    clean: np.ndarray, corrupt: np.ndarray, params: WelchParams
) -> CorruptionSignature:
    """Estimate (h, d) of one corrupted channel from paired observations.

    h = est Phi_ux / est Phi_xx, and d = est Phi_uu - |h|^2 est Phi_xx
    floored at zero (the theory guarantees d >= 0; only estimation noise
    can push it below).
    """
    pair = TimeSeriesPanel(np.vstack([clean, corrupt]), ["x", "u"])
    spec = estimate_cpsd(pair, params)
    phi_xx = spec.entry(0, 0).real
    assert phi_xx.min() > 1e-12 * phi_xx.max(), "clean-channel spectrum vanishes"
    h = spec.entry(1, 0) / phi_xx
    d = np.maximum(spec.entry(1, 1).real - np.abs(h) ** 2 * phi_xx, 0.0)
    return CorruptionSignature(spec.grid, h, d)


def multiplicity(grid):
    """How often each bin of `grid` occurs in the two-sided spectrum on
    (-pi, pi]: once at omega = 0 and omega = pi, twice (as +-omega)
    elsewhere."""
    m = np.full(grid.size, 2)
    m[[0, -1]] = 1
    return m


def two_sided(s):
    """Frequencies, values and flags of the half spectrum `s` mirrored by
    conjugation onto the two-sided grid (-pi, pi]."""
    h = s.grid.size - 1
    w = s.grid.frequencies
    return (
        np.concatenate([-w[h - 1:0:-1], w]),
        np.concatenate([np.conj(s.values[h - 1:0:-1]), s.values]),
        np.concatenate([s.flagged[h - 1:0:-1], s.flagged]),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
