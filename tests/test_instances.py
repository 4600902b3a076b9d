import numpy as np
import pytest

from treespect import instances
from treespect.errors import DataError
from treespect.graphs import bfs_distances, is_tree
from treespect.instances import (
    Instance,
    adversarial_instance,
    draw_model,
    random_instance,
    tree_with_deep_nodes,
)
from treespect.ltisim import spectral_radius

from conftest import chain7


def min_leaf_distance(tree, node):
    dist = bfs_distances(tree, node)
    return min(dist[leaf] for leaf in tree.leaves())


def test_deep_nodes_satisfy_placement_rule(rng):
    for _ in range(100):
        n = int(rng.integers(7, 21))
        k = int(rng.integers(1, min(3, (n - 4) // 3) + 1))
        tree, marked = tree_with_deep_nodes(rng, n, k)
        assert is_tree(tree) and tree.node_count == n
        assert len(marked) == k
        for v in marked:
            assert min_leaf_distance(tree, v) >= 3
        for i, a in enumerate(marked):
            dist = bfs_distances(tree, a)
            for b in marked[i + 1:]:
                assert dist[b] >= 3


def test_corruption_free_trees_are_never_stars(rng):
    for _ in range(50):
        n = int(rng.integers(4, 15))
        tree, marked = tree_with_deep_nodes(rng, n, 0)
        assert marked == ()
        assert max(tree.degree(i) for i in range(n)) < n - 1


def test_too_small_budget_rejected(rng):
    with pytest.raises(DataError):
        tree_with_deep_nodes(rng, 6, 1)
    with pytest.raises(DataError):
        tree_with_deep_nodes(rng, 9, 2)


def test_drawn_models_are_stable(rng):
    for _ in range(20):
        tree, _ = tree_with_deep_nodes(rng, int(rng.integers(5, 12)), 0)
        model = draw_model(rng, tree)
        assert spectral_radius(model.topology, model.coupling, model.self_dynamics) < 0.9
        assert all(v != 0 for v in model.coupling.values())


def test_random_instance_contract(rng):
    inst = random_instance(rng, 10, 2)
    assert len(inst.corrupt) == 2
    for spec in inst.specs:
        assert spec.kind == "random_delay"
        assert (spec.t1, spec.t2) != (0, 0)
        assert 0.5 < spec.p <= 1.0


def test_random_instance_draws_coefficients_once(monkeypatch):
    draws = []

    def counted(*args, **kwargs):
        draws.append(1)
        return draw_model(*args, **kwargs)

    monkeypatch.setattr(instances, "draw_model", counted)
    rng = np.random.default_rng(0)
    for _ in range(12):
        random_instance(rng, 40, 8)
    assert len(draws) == 12


def test_adversarial_instance_violates_spacing(rng):
    inst = adversarial_instance(rng, 9)
    corrupt = sorted(inst.corrupt)
    assert len(corrupt) == 2
    assert bfs_distances(inst.topology, corrupt[0])[corrupt[1]] == 2


def test_bundled_chain_definition():
    model, (spec,) = chain7()
    assert model.labels == tuple(str(i + 1) for i in range(7))
    assert model.topology.edges == frozenset((i, i + 1) for i in range(6))
    assert model.coupling[(2, 3)] == -1.7
    assert model.coupling[(4, 3)] == 1.5
    rho = spectral_radius(model.topology, model.coupling, model.self_dynamics)
    assert rho == pytest.approx(0.8556, abs=1e-4)
    assert (spec.node, spec.p, spec.t1, spec.t2) == (3, 0.7, -2, 0)


def test_instance_properties():
    inst = Instance(*chain7())
    assert inst.corrupt == {3}
    assert inst.topology is inst.model.topology
