import json

import numpy as np
import pytest

from treespect.detection import (
    ANALYTIC_DECISION,
    MAGNITUDE_FLOOR_QUANTILE,
    EdgeDecisionParams,
    detect,
    infer_support_graph,
    normalized_magnitude_scores,
    phase_nonconstancy_score,
    report_to_dot,
    report_to_json,
)
from treespect.errors import DataError
from treespect.graphs import UndirectedGraph
from treespect.instances import chain7_corruption, chain7_model, random_instance
from treespect.ltisim import GenerativeModel, analytic_inverse_psd
from treespect.oracles import analytic_corrupted_psd, analytic_signatures
from treespect.spectral import (
    BAND_EDGE_BINS,
    FrequencyGrid,
    SpectralMatrix,
    WelchParams,
    estimate_cpsd,
    invert_spectrum,
)
from treespect.streams import apply_corruption, simulate

from conftest import moral_graph, perturbed_graph, two_sided

GRID = FrequencyGrid.welch_bins(256)

CHAIN7_MORAL = frozenset([(i, i + 1) for i in range(6)] + [(i, i + 2) for i in range(5)])
CHAIN7_PERTURBED = CHAIN7_MORAL | {(1, 4), (1, 5), (2, 5)}


@pytest.fixture(scope="module")
def chain_inverse():
    model = chain7_model()
    sigs = analytic_signatures(model, chain7_corruption(), GRID)
    return invert_spectrum(analytic_corrupted_psd(model, sigs, GRID))


@pytest.fixture(scope="module")
def clean_chain_inverse():
    return analytic_inverse_psd(chain7_model(), GRID)


# ---------------------------------------------------------------------------
# support graph

def test_corrupted_support_is_perturbed_graph(chain_inverse):
    support = infer_support_graph(chain_inverse, ANALYTIC_DECISION)
    assert support.edges == CHAIN7_PERTURBED


def test_clean_support_is_moral_graph(clean_chain_inverse):
    support = infer_support_graph(clean_chain_inverse, ANALYTIC_DECISION)
    assert support.edges == CHAIN7_MORAL


def test_diagonal_spectrum_gives_edgeless_graph():
    vals = np.einsum("f,ij->fij", np.linspace(1, 2, GRID.size), np.eye(3)).astype(complex)
    s = SpectralMatrix(GRID, vals, ["a", "b", "c"])
    assert infer_support_graph(s, ANALYTIC_DECISION).edges == frozenset()


def test_raising_threshold_never_adds_edges(chain_inverse):
    scores = normalized_magnitude_scores(chain_inverse)
    lo = infer_support_graph(chain_inverse, EdgeDecisionParams(magnitude_threshold=0.02))
    hi = infer_support_graph(chain_inverse, EdgeDecisionParams(magnitude_threshold=0.2))
    assert hi.edges <= lo.edges
    assert scores.max() <= 1.0 + 1e-9


def test_support_matches_graph_construction_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(7, 16))
        k = int(rng.integers(1, min(3, (n - 4) // 3) + 1))
        inst = random_instance(rng, n, k)
        sigs = analytic_signatures(inst.model, inst.specs, GRID)
        inv = invert_spectrum(analytic_corrupted_psd(inst.model, sigs, GRID))
        support = infer_support_graph(inv, ANALYTIC_DECISION)
        truth = perturbed_graph(moral_graph(inst.topology), inst.corrupt)
        assert support.edges == truth.edges


# ---------------------------------------------------------------------------
# phase scores

def test_phase_scores_separate_edge_kinds(chain_inverse):
    # leaf to its 2-hop kin: exactly-zero phase
    assert phase_nonconstancy_score(chain_inverse, 0, 2) < 1e-6
    # leaf true edge: clearly rotating phase
    assert phase_nonconstancy_score(chain_inverse, 0, 1) > 0.1


def test_negative_real_constant_scores_zero():
    vals = np.zeros((GRID.size, 2, 2), dtype=complex)
    vals[:, 0, 0] = vals[:, 1, 1] = 2.0
    vals[:, 0, 1] = vals[:, 1, 0] = -0.5 * np.linspace(1.0, 1.5, GRID.size)
    s = SpectralMatrix(GRID, vals, ["a", "b"])
    assert phase_nonconstancy_score(s, 0, 1) < 1e-9


def _two_sided_floor_and_resultant(inv, i, j):
    """Magnitude floor and phase resultant as defined on the two-sided grid
    (-pi, pi], from the half spectrum mirrored by conjugation."""
    w, values, flagged = two_sided(inv)
    entry, usable = values[:, i, j], ~flagged
    mag = np.abs(entry)
    floor = np.quantile(mag[usable], MAGNITUDE_FLOOR_QUANTILE)
    margin = BAND_EDGE_BINS * 2 * np.pi / inv.grid.segment_length + 1e-12
    interior = (np.abs(w) > margin) & (np.abs(w) < np.pi - margin)
    admissible = usable & interior & (mag >= floor)
    wt = mag[admissible]
    resultant = np.abs(np.sum(wt * np.exp(1j * np.angle(entry[admissible])))) / wt.sum()
    return floor, min(resultant, 1.0)


@pytest.fixture(scope="module")
def welch_chain_inverse():
    model = chain7_model()
    panel = apply_corruption(simulate(model, 200_000, seed=3), chain7_corruption(), seed=3)
    return invert_spectrum(estimate_cpsd(panel, WelchParams(segment_length=256)))


@pytest.mark.parametrize("source", ["welch", "analytic", "analytic_flagged"])
def test_half_grid_score_equals_two_sided_formula(source, chain_inverse, welch_chain_inverse):
    if source == "welch":
        inv, params = welch_chain_inverse, EdgeDecisionParams()
    else:
        inv, params = chain_inverse, ANALYTIC_DECISION
    if source == "analytic_flagged":  # flags at 0, pi and one interior bin
        flagged = np.zeros(GRID.size, dtype=bool)
        flagged[[0, 40, GRID.size - 1]] = True
        inv = SpectralMatrix(GRID, inv.values, inv.labels, flagged)
    usable = ~inv.flagged
    mult = inv.grid.multiplicity
    for i, j in sorted(detect(inv, params).support_graph.edges):
        floor, resultant = _two_sided_floor_and_resultant(inv, i, j)
        mag = np.abs(inv.entry(i, j))
        half_floor = np.quantile(np.repeat(mag[usable], mult[usable]), MAGNITUDE_FLOOR_QUANTILE)
        assert half_floor == floor
        score = phase_nonconstancy_score(inv, i, j)
        # the resultant lives in [0, 1]; the score sqrt(-2 log R) amplifies
        # rounding where R sits within rounding noise of 0 or 1
        assert np.exp(-score**2 / 2) == pytest.approx(resultant, rel=1e-12, abs=1e-12)
        if 1e-9 < resultant < 1 - 1e-9:
            old = np.sqrt(-2.0 * np.log(resultant))
            assert score == pytest.approx(old, rel=1e-12, abs=1e-12)


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
        UndirectedGraph.from_edges(2, [(0, 1)]),
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
        assert report.leaves == inst.topology.leaves()
        assert report.diagnostics == ()
        # report invariants
        assert report.corrupt | report.leaves == report.candidates
        assert not report.corrupt & report.leaves
        assert report.leaf_edges <= report.support_graph.edges
        per_leaf = {leaf: [e for e in report.leaf_edges if leaf in e] for leaf in report.leaves}
        assert all(len(v) == 1 for v in per_leaf.values())


def test_detect_is_permutation_equivariant():
    model = chain7_model()
    perm = [3, 0, 5, 1, 6, 2, 4]  # image of each original node
    inv_perm = np.argsort(perm)
    edges = [(perm[a], perm[b]) for a, b in model.topology.edges]
    permuted = GenerativeModel(
        UndirectedGraph.from_edges(7, edges),
        {(perm[a], perm[b]): v for (a, b), v in model.coupling.items()},
        tuple(model.self_dynamics[inv_perm[i]] for i in range(7)),
        model.noise_variance[inv_perm],
        tuple(model.labels[inv_perm[i]] for i in range(7)),
    )
    spec = chain7_corruption()[0]
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
    # per-edge magnitude scores recorded for audit
    assert all(e["magnitude_score"] > 0 for e in payload["support_edges"])
    dot = report_to_dot(report)
    assert '"4" [style=filled, fillcolor="tomato"]' in dot


def test_report_roundtrip(chain_inverse):
    from treespect.detection import report_from_dict, report_to_dict

    report = detect(chain_inverse, ANALYTIC_DECISION)
    back = report_from_dict(report_to_dict(report), report.labels)
    assert back.support_graph.edges == report.support_graph.edges
    assert back.corrupt == report.corrupt
    assert back.leaves == report.leaves
    assert back.leaf_edges == report.leaf_edges
    assert back.evidence == report.evidence
    assert back.edge_scores == pytest.approx(report.edge_scores)


def test_degenerate_params_rejected():
    with pytest.raises(DataError):
        EdgeDecisionParams(magnitude_threshold=0.0)
