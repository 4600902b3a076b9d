import json

import numpy as np
import pytest

from scipy.special import gammainccinv
from scipy.stats import binom

from treespect.detection import (
    ALPHA,
    ANALYTIC_DECISION,
    EdgeDecisionParams,
    band_statistics,
    detect,
    gamma_quantile,
    phase_nonconstancy_score,
    report_to_dot,
    report_to_json,
    support_graph,
)
from treespect.errors import NumericalError
from treespect.graphs import UndirectedGraph
from treespect.instances import random_instance
from treespect.ltisim import GenerativeModel, analytic_inverse_psd
from treespect.oracles import analytic_corrupted_psd, analytic_signatures
from treespect.panel import TimeSeriesPanel
from treespect.spectral import (
    BAND_EDGE_BINS,
    FrequencyGrid,
    SpectralMatrix,
    estimate_cpsd,
    invert_spectrum,
)
from treespect.streams import apply_corruption, simulate

from conftest import chain7, leaves, moral_graph, perturbed_graph, two_sided

GRID = FrequencyGrid.welch_bins(256)

CHAIN7_MORAL = frozenset([(i, i + 1) for i in range(6)] + [(i, i + 2) for i in range(5)])
CHAIN7_PERTURBED = CHAIN7_MORAL | {(1, 4), (1, 5), (2, 5)}


@pytest.fixture(scope="module")
def chain_inverse():
    model, specs = chain7()
    sigs = analytic_signatures(model, specs, GRID)
    return invert_spectrum(analytic_corrupted_psd(model, sigs, GRID))


@pytest.fixture(scope="module")
def clean_chain_inverse():
    model, _ = chain7()
    return analytic_inverse_psd(model, GRID)


# ---------------------------------------------------------------------------
# support graph

def test_corrupted_support_is_perturbed_graph(chain_inverse):
    support, _, _ = support_graph(chain_inverse, ANALYTIC_DECISION)
    assert support.edges == CHAIN7_PERTURBED


def test_clean_support_is_moral_graph(clean_chain_inverse):
    support, _, _ = support_graph(clean_chain_inverse, ANALYTIC_DECISION)
    assert support.edges == CHAIN7_MORAL


def test_diagonal_spectrum_gives_edgeless_graph():
    vals = np.einsum("f,ij->fij", np.linspace(1, 2, GRID.size), np.eye(3)).astype(complex)
    s = SpectralMatrix(GRID, vals, ["a", "b", "c"])
    assert support_graph(s, ANALYTIC_DECISION)[0].edges == frozenset()


def test_raising_threshold_never_adds_edges(welch_chain_inverse):
    # fewer segments, a larger null mean, a higher band threshold
    few, many = EdgeDecisionParams(40), EdgeDecisionParams(4000)
    cuts = [d.thresholds(welch_chain_inverse)["band"] for d in (few, many)]
    assert cuts[0] > cuts[1]
    lo, _, _ = support_graph(welch_chain_inverse, many)
    hi, _, _ = support_graph(welch_chain_inverse, few)
    assert hi.edges <= lo.edges
    stats = band_statistics(welch_chain_inverse)
    assert np.allclose(np.diag(stats), 1.0)
    assert stats.max() <= 1.0 + 1e-9


def test_support_matches_graph_construction_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(7, 16))
        k = int(rng.integers(1, min(3, (n - 4) // 3) + 1))
        inst = random_instance(rng, n, k)
        sigs = analytic_signatures(inst.model, inst.specs, GRID)
        inv = invert_spectrum(analytic_corrupted_psd(inst.model, sigs, GRID))
        support, _, _ = support_graph(inv, ANALYTIC_DECISION)
        truth = perturbed_graph(moral_graph(inst.topology), inst.corrupt)
        assert support.edges == truth.edges


# ---------------------------------------------------------------------------
# phase scores

def test_phase_scores_separate_edge_kinds(chain_inverse):
    cut = ANALYTIC_DECISION.thresholds(chain_inverse)["phase"]
    # leaf to its 2-hop kin: a real entry, W at rounding level
    assert phase_nonconstancy_score(chain_inverse, 0, 2, ANALYTIC_DECISION) < 1e-9 * cut
    # leaf true edge: clearly rotating phase
    assert phase_nonconstancy_score(chain_inverse, 0, 1, ANALYTIC_DECISION) > 1e9 * cut


def test_negative_real_constant_scores_zero():
    vals = np.zeros((GRID.size, 2, 2), dtype=complex)
    vals[:, 0, 0] = vals[:, 1, 1] = 2.0
    vals[:, 0, 1] = vals[:, 1, 0] = -0.5 * np.linspace(1.0, 1.5, GRID.size)
    s = SpectralMatrix(GRID, vals, ["a", "b"])
    assert phase_nonconstancy_score(s, 0, 1, EdgeDecisionParams(100)) == 0.0


def _two_sided_statistics(inv, i, j, decision):
    """Band mean of |rho|^2 and W as defined on the two-sided grid (-pi, pi],
    from the half spectrum mirrored by conjugation; each interior bin
    occurs there twice, as +-omega."""
    w, values, flagged = two_sided(inv)
    margin = BAND_EDGE_BINS * 2 * np.pi / inv.grid.segment_length + 1e-12
    interior = (np.abs(w) > margin) & (np.abs(w) < np.pi - margin)
    use = ~flagged & interior
    rho = values[use, i, j] / np.sqrt(values[use, i, i].real * values[use, j, j].real)
    d = decision.dof(inv.n_nodes)
    w_stat = np.sum(rho.imag**2 / ((1 - np.abs(rho) ** 2) / (2 * d))) / 2
    return np.mean(np.abs(rho) ** 2), w_stat


@pytest.fixture(scope="module")
def welch_chain_inverse():
    model, specs = chain7()
    panel = apply_corruption(simulate(model, 200_000, seed=3), specs, seed=3)
    return invert_spectrum(estimate_cpsd(panel, FrequencyGrid(segment_length=256)))


WELCH_DECISION = EdgeDecisionParams(FrequencyGrid(segment_length=256).segment_count(200_000))


@pytest.mark.parametrize("source", ["welch", "analytic", "analytic_flagged"])
def test_statistics_equal_their_two_sided_definitions(source, chain_inverse, welch_chain_inverse):
    if source == "welch":
        inv, decision = welch_chain_inverse, WELCH_DECISION
    else:
        inv, decision = chain_inverse, ANALYTIC_DECISION
    if source == "analytic_flagged":  # flags at 0, pi and one interior bin
        flagged = np.zeros(GRID.size, dtype=bool)
        flagged[[0, 40, GRID.size - 1]] = True
        inv = SpectralMatrix(GRID, inv.values, inv.labels, flagged)
    stats = band_statistics(inv)
    for i in range(inv.n_nodes):
        for j in range(i + 1, inv.n_nodes):
            band, w = _two_sided_statistics(inv, i, j, decision)
            assert stats[i, j] == pytest.approx(band, rel=1e-12, abs=1e-300)
            assert stats[j, i] == pytest.approx(stats[i, j], rel=1e-12, abs=1e-300)
            score = phase_nonconstancy_score(inv, i, j, decision)
            assert score == pytest.approx(w, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize("shape", [8.6, 88.0])
@pytest.mark.parametrize("tail", [1e-3, 1e-5, 1e-7, 1e-9])
def test_wilson_hilferty_quantile_is_close_and_never_below_the_exact_one(shape, tail):
    exact = gammainccinv(shape, tail)
    approx = gamma_quantile(shape, 1.0, tail)
    assert approx >= exact
    assert approx <= exact * (1 + 3e-2)
    # the scale enters as a factor
    assert gamma_quantile(shape, 2.8, tail) == pytest.approx(2.8 * approx, rel=1e-14)


def test_white_noise_exceedances_stay_within_a_binomial_bound_of_alpha():
    # 2 x 2 blocks of independent white channels: with one pair per block
    # each test runs at level ALPHA, and a block's Welch estimate is the
    # block of the whole panel's estimate.  K = 400 segments, under the
    # K = 780 of 10^5 samples at L = 256; at K = 40 W exceeds its cut about
    # twice as often as ALPHA, its per-bin terms being t- rather than
    # chi-square-distributed
    rng = np.random.default_rng(2024)
    welch = FrequencyGrid(segment_length=64)
    samples, channels, panels = 400 * 32 + 32, 64, 50
    decision = EdgeDecisionParams(welch.segment_count(samples))
    band_hits = w_hits = tests = 0
    for _ in range(panels):
        panel = TimeSeriesPanel(rng.standard_normal((channels, samples)), range(channels))
        psd = estimate_cpsd(panel, welch)
        for a in range(0, channels, 2):
            block = SpectralMatrix(psd.grid, psd.values[:, a:a + 2, a:a + 2], ["x", "y"])
            inv = invert_spectrum(block)
            cut = decision.thresholds(inv)
            band_hits += band_statistics(inv)[0, 1] >= cut["band"]
            w_hits += phase_nonconstancy_score(inv, 0, 1, decision) >= cut["phase"]
            tests += 1
    lo, hi = binom.ppf(1e-4, tests, ALPHA), binom.isf(1e-4, tests, ALPHA)
    assert lo <= band_hits <= hi, (band_hits, tests)
    assert lo <= w_hits <= hi, (w_hits, tests)


def test_too_few_segments_for_the_matrix_is_a_numerical_error(chain_inverse):
    # K_eff = 18 * 64 / 151 = 7.6 segments leave no degrees of freedom for
    # the partial coherence of a pair among 10 nodes
    assert EdgeDecisionParams(8).dof(7) > 0
    with pytest.raises(NumericalError):
        EdgeDecisionParams(8).dof(10)


# ---------------------------------------------------------------------------
# detect

def test_detect_on_corrupted_chain(chain_inverse):
    report = detect(chain_inverse, ANALYTIC_DECISION)
    assert report.candidates == {0, 3, 6}
    assert report.corrupt == {3}
    assert report.leaves == {0, 6}
    assert report.leaf_edges == {(0, 1), (5, 6)}
    assert report.diagnostics == ()
    assert report.observed == {0, 1, 2, 4, 5, 6}
    # every corrupt-node edge rotated, and the evidence records it
    assert all(v == "nonconstant" for _, _, v in report.evidence[3])


def test_detect_on_clean_chain(clean_chain_inverse):
    report = detect(clean_chain_inverse, ANALYTIC_DECISION)
    assert report.corrupt == frozenset()
    assert report.leaves == {0, 6}
    assert report.leaf_edges == {(0, 1), (5, 6)}


def test_detect_two_node_system():
    model = GenerativeModel(
        UndirectedGraph(2, [(0, 1)]),
        {(0, 1): 0.5, (1, 0): 0.4},
        ((0.0,), (0.0,)),
        np.ones(2),
    )
    report = detect(analytic_inverse_psd(model, GRID), ANALYTIC_DECISION)
    assert report.corrupt == frozenset()
    assert report.leaves == {0, 1}
    assert report.leaf_edges == {(0, 1)}


def test_detect_recovers_corrupt_and_leaves_on_random_instances():
    rng = np.random.default_rng(57)
    for _ in range(10):
        n = int(rng.integers(7, 16))
        k = int(rng.integers(1, min(3, (n - 4) // 3) + 1))
        inst = random_instance(rng, n, k)
        sigs = analytic_signatures(inst.model, inst.specs, GRID)
        inv = invert_spectrum(analytic_corrupted_psd(inst.model, sigs, GRID))
        report = detect(inv, ANALYTIC_DECISION)
        assert report.corrupt == inst.corrupt
        assert report.leaves == leaves(inst.topology)
        assert report.diagnostics == ()
        # report invariants
        assert report.corrupt | report.leaves == report.candidates
        assert not report.corrupt & report.leaves
        assert report.leaf_edges <= report.support_graph.edges
        per_leaf = {leaf: [e for e in report.leaf_edges if leaf in e] for leaf in report.leaves}
        assert all(len(v) == 1 for v in per_leaf.values())


def test_detect_is_permutation_equivariant():
    model, (spec,) = chain7()
    perm = [3, 0, 5, 1, 6, 2, 4]  # image of each original node
    inv_perm = np.argsort(perm)
    edges = [(perm[a], perm[b]) for a, b in model.topology.edges]
    permuted = GenerativeModel(
        UndirectedGraph(7, edges),
        {(perm[a], perm[b]): v for (a, b), v in model.coupling.items()},
        tuple(model.self_dynamics[inv_perm[i]] for i in range(7)),
        model.noise_variance[inv_perm],
        tuple(model.labels[inv_perm[i]] for i in range(7)),
    )
    base = detect(
        invert_spectrum(
            analytic_corrupted_psd(
                model, analytic_signatures(model, [spec], GRID), GRID
            )
        ),
        ANALYTIC_DECISION,
    )
    pspec = type(spec)(node=perm[spec.node], kind=spec.kind, p=spec.p, t1=spec.t1, t2=spec.t2)
    mapped = detect(
        invert_spectrum(
            analytic_corrupted_psd(
                permuted, analytic_signatures(permuted, [pspec], GRID), GRID
            )
        ),
        ANALYTIC_DECISION,
    )
    assert mapped.corrupt == {perm[i] for i in base.corrupt}
    assert mapped.leaves == {perm[i] for i in base.leaves}
    assert mapped.leaf_edges == {
        (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in base.leaf_edges
    }


def test_candidate_without_nonconstant_edge_raises_diagnostic():
    # constant-phase everywhere: both nodes are clique candidates yet have
    # no rotating edge, which the theory forbids; must surface, not guess
    vals = np.zeros((GRID.size, 2, 2), dtype=complex)
    vals[:, 0, 0] = vals[:, 1, 1] = 1.0
    vals[:, 0, 1] = vals[:, 1, 0] = 0.4
    s = SpectralMatrix(GRID, vals, ["a", "b"])
    report = detect(s, ANALYTIC_DECISION)
    assert report.corrupt == frozenset() and report.leaves == frozenset()
    assert {d.kind for d in report.diagnostics} == {"candidate_without_nonconstant_edge"}


# ---------------------------------------------------------------------------
# export

def test_report_serialization(chain_inverse):
    report = detect(chain_inverse, ANALYTIC_DECISION)
    payload = json.loads(report_to_json(report))
    assert payload["corrupt"] == ["4"]
    assert payload["leaf_edges"] == [["1", "2"], ["6", "7"]]
    assert payload["evidence"]["4"][0]["verdict"] == "nonconstant"
    # each decision with its statistic and its margin against the stated threshold
    cut = payload["thresholds"]
    assert cut == report.thresholds == ANALYTIC_DECISION.thresholds(chain_inverse)
    for e in payload["support_edges"]:
        assert e["margin"] == e["band"] / cut["band"] >= 1
    for rows in payload["evidence"].values():
        for row in rows:
            assert row["margin"] == row["w"] / cut["phase"]
            assert (row["margin"] >= 1) == (row["verdict"] == "nonconstant")
    dot = report_to_dot(report)
    assert '"4" [style=filled, fillcolor="tomato"]' in dot

