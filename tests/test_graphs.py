import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treespect.errors import DataError
from treespect.graphs import (
    UndirectedGraph,
    connected_components,
    graph_to_dot,
    is_tree,
    neighborhood_is_clique,
)

from conftest import (
    bfs_distances,
    leaves,
    moral_graph,
    n_hop_neighbors,
    perturbed_graph,
    random_tree,
)

CHAIN7 = UndirectedGraph.chain(7)
# 0-indexed moral graph of the 7-chain: chain edges plus every 2-hop pair
CHAIN7_MORAL_EDGES = frozenset(
    [(i, i + 1) for i in range(6)] + [(i, i + 2) for i in range(5)]
)
# figure "perturbed graph with node 4 corrupt" in 0-indexed form
CHAIN7_PERTURBED_EDGES = CHAIN7_MORAL_EDGES | {(1, 4), (1, 5), (2, 5)}


# ---------------------------------------------------------------------------
# brute-force oracles

def all_simple_paths(g: UndirectedGraph, a: int, b: int):
    adj = g.adjacency
    stack = [(a, [a])]
    while stack:
        v, path = stack.pop()
        if v == b:
            yield path
            continue
        for w in adj[v]:
            if w not in path:
                stack.append((w, path + [w]))


def perturbed_by_path_enumeration(moral, corrupt):
    edges = set(moral.edges)
    for a in range(moral.node_count):
        for b in range(a + 1, moral.node_count):
            for path in all_simple_paths(moral, a, b):
                if all(v in corrupt for v in path[1:-1]):
                    edges.add((a, b))
                    break
    return UndirectedGraph(moral.node_count, frozenset(edges))


# ---------------------------------------------------------------------------
# n_hop_neighbors / is_tree

def test_chain_hops_match_figure():
    assert n_hop_neighbors(CHAIN7, 3, 1) == {2, 4}
    assert n_hop_neighbors(CHAIN7, 0, 2) == {2}


def test_hops_of_isolated_node_empty():
    g = UndirectedGraph(4, [(1, 2), (2, 3)])
    assert n_hop_neighbors(g, 0, 1) == frozenset()
    assert n_hop_neighbors(g, 0, 3) == frozenset()


def test_hop_errors():
    with pytest.raises(DataError):
        n_hop_neighbors(CHAIN7, 9, 1)
    with pytest.raises(DataError):
        n_hop_neighbors(CHAIN7, 0, 0)


def test_is_tree():
    assert is_tree(CHAIN7)
    assert not is_tree(UndirectedGraph(7, list(CHAIN7.edges) + [(0, 6)]))
    assert is_tree(UndirectedGraph(1))
    assert not is_tree(UndirectedGraph(3))  # disconnected
    # n - 1 edges, but a cycle and an isolated node
    assert not is_tree(UndirectedGraph(4, [(0, 1), (1, 2), (0, 2)]))


def test_adjacency_is_built_once_and_matches_the_edges():
    g = random_tree(np.random.default_rng(4), 30)
    adj = g.adjacency
    assert g.adjacency is adj
    assert all(isinstance(s, frozenset) for s in adj) and len(adj) == 30
    for i in range(30):
        assert g.neighbors(i) is adj[i]
        assert len(adj[i]) == sum(i in e for e in g.edges)
        for j in range(30):
            assert (j in adj[i]) == ((min(i, j), max(i, j)) in g.edges)
    with pytest.raises(DataError):
        g.neighbors(30)


def test_no_self_loops():
    with pytest.raises(DataError):
        UndirectedGraph(3, [(1, 1)])


# ---------------------------------------------------------------------------
# moral graph

def test_chain7_moral_graph_matches_figure():
    assert moral_graph(CHAIN7).edges == CHAIN7_MORAL_EDGES


def test_two_node_moral_graph_unchanged():
    g = UndirectedGraph(2, [(0, 1)])
    assert moral_graph(g).edges == g.edges


def test_star_moral_graph_is_complete():
    star = UndirectedGraph(5, [(0, i) for i in range(1, 5)])
    expected = frozenset(
        (a, b) for a in range(5) for b in range(a + 1, 5)
    )  # enumerated by hand: star edges plus all leaf pairs
    assert moral_graph(star).edges == expected


def test_moral_graph_rejects_non_tree():
    with pytest.raises(DataError):
        moral_graph(UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)]))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 20), st.integers(0, 2**32 - 1))
def test_moral_edges_are_within_two_hops(n, seed):
    tree = random_tree(np.random.default_rng(seed), n)
    m = moral_graph(tree)
    assert tree.edges <= m.edges
    for a, b in m.edges:
        assert bfs_distances(tree, a)[b] <= 2


# ---------------------------------------------------------------------------
# perturbed graph

def test_chain7_perturbed_matches_figure():
    m = UndirectedGraph(7, CHAIN7_MORAL_EDGES)
    assert perturbed_graph(m, {3}).edges == CHAIN7_PERTURBED_EDGES


def test_perturbed_empty_corrupt_is_identity():
    m = UndirectedGraph(7, CHAIN7_MORAL_EDGES)
    assert perturbed_graph(m, frozenset()).edges == m.edges


def test_chain7_perturbed_corrupt_node2():
    # brute-force path enumeration gives moral plus the single new pair 0-3
    m = UndirectedGraph(7, CHAIN7_MORAL_EDGES)
    assert perturbed_graph(m, {1}).edges == CHAIN7_MORAL_EDGES | {(0, 3)}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_perturbed_agrees_with_path_enumeration(n, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, max(1, n * (n - 1) // 3)))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = [pairs[i] for i in rng.choice(len(pairs), size=min(k, len(pairs)), replace=False)]
    g = UndirectedGraph(n, chosen)
    corrupt = frozenset(int(v) for v in rng.choice(n, size=int(rng.integers(0, n)), replace=False))
    assert perturbed_graph(g, corrupt).edges == perturbed_by_path_enumeration(g, corrupt).edges


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 14), st.integers(0, 2**32 - 1))
def test_perturbed_monotone_in_corrupt_set(n, seed):
    rng = np.random.default_rng(seed)
    m = moral_graph(random_tree(rng, n))
    all_nodes = list(range(n))
    small = frozenset(int(v) for v in rng.choice(all_nodes, size=n // 3, replace=False))
    big = small | {int(rng.integers(0, n))}
    assert perturbed_graph(m, small).edges <= perturbed_graph(m, big).edges


# ---------------------------------------------------------------------------
# cliques / components

def test_clique_neighborhoods_in_perturbed_chain():
    gu = UndirectedGraph(7, CHAIN7_PERTURBED_EDGES)
    assert neighborhood_is_clique(gu, 3)
    assert not neighborhood_is_clique(gu, 2)
    assert {i for i in range(7) if neighborhood_is_clique(gu, i)} == {0, 3, 6}


def test_clique_neighborhoods_are_exactly_leaves_and_corrupt():
    # across random deep-corruption trees, the clique-neighborhood nodes of
    # the perturbed graph are precisely the leaves plus the corrupt set
    from treespect.instances import tree_with_deep_nodes

    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(7, 21))
        k = int(rng.integers(1, min(3, (n - 4) // 3) + 1))
        tree, marked = tree_with_deep_nodes(rng, n, k)
        gu = perturbed_graph(moral_graph(tree), frozenset(marked))
        found = {i for i in range(n) if neighborhood_is_clique(gu, i)}
        assert found == leaves(tree) | set(marked)


def test_single_neighbor_is_clique():
    g = UndirectedGraph(3, [(0, 1), (1, 2)])
    assert neighborhood_is_clique(g, 0)
    assert not neighborhood_is_clique(g, 1)


def test_components_of_pruned_graph():
    g = UndirectedGraph(7, [(0, 1), (1, 2), (4, 5), (5, 6)])
    comps = connected_components(g, within={0, 1, 2, 4, 5, 6})
    assert comps == [frozenset({0, 1, 2}), frozenset({4, 5, 6})]


def test_components_trivial_cases():
    assert connected_components(CHAIN7) == [frozenset(range(7))]
    assert connected_components(UndirectedGraph(3)) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]


# ---------------------------------------------------------------------------
# serialization

def test_dot_output_canonical_order():
    g = UndirectedGraph(3, [(1, 2), (0, 1)])
    dot = graph_to_dot(g, ["a", "b", "c"])
    assert dot.index('"a" -- "b"') < dot.index('"b" -- "c"')
