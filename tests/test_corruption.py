import numpy as np
import pytest

from treespect.corruption import CorruptionSpec, CorruptionSignature, analytic_signature
from treespect.errors import DataError
from treespect.spectral import FrequencyGrid
from treespect.streams import apply_corruption, simulate

from conftest import chain7, estimate_signature, panel_copy

WELCH = FrequencyGrid(segment_length=256)


@pytest.fixture(scope="module")
def chain_panel():
    model, _ = chain7()
    return simulate(model, 300_000, seed=11)


# ---------------------------------------------------------------------------
# spec validation

def test_spec_validation():
    with pytest.raises(DataError):
        CorruptionSpec(node=0, kind="bogus")
    with pytest.raises(DataError):
        CorruptionSpec(node=0, kind="random_delay", p=0.5, t1=0, t2=0)
    for t1, t2 in ((-2.5, 0), (-2, None), (True, 0), ("-2", 0), (-2, 0.0)):
        with pytest.raises(DataError, match="integer shifts"):
            CorruptionSpec(node=0, kind="random_delay", p=0.5, t1=t1, t2=t2)
    with pytest.raises(DataError):
        CorruptionSpec(node=0, kind="packet_drop", p=0.0)
    with pytest.raises(DataError):
        CorruptionSpec(node=0, kind="noisy_filter", taps=(), noise_variance=0.1)


def test_spec_dict_roundtrip():
    spec = CorruptionSpec(node=3, kind="random_delay", p=0.7, t1=-2, t2=0)
    labels = [str(i + 1) for i in range(7)]
    payload = spec.to_dict(labels)
    assert payload["node"] == "4"
    assert CorruptionSpec.from_dict(payload, labels) == spec


# ---------------------------------------------------------------------------
# applying corruption

def test_none_and_degenerate_drop_are_identity(chain_panel):
    specs = [CorruptionSpec(node=i, kind="none") for i in range(3)]
    out = apply_corruption(panel_copy(chain_panel), specs, seed=5)
    np.testing.assert_array_equal(out.data, chain_panel.data)
    out = apply_corruption(
        panel_copy(chain_panel), [CorruptionSpec(node=2, kind="packet_drop", p=1.0)], seed=5
    )
    np.testing.assert_array_equal(out.data, chain_panel.data)


def test_delay_realizes_shift_mixture(chain_panel):
    _, (spec,) = chain7()
    out = apply_corruption(panel_copy(chain_panel), [spec], seed=7)
    x, u = chain_panel.data[3], out.data[3]
    t = np.arange(2, x.size)
    shifted = np.isclose(u[t], x[t - 2])
    stayed = np.isclose(u[t], x[t])
    assert np.all(shifted | stayed)
    assert abs(shifted.mean() - 0.7) < 0.01


def test_packet_drop_holds_last_value(chain_panel):
    spec = CorruptionSpec(node=1, kind="packet_drop", p=0.5)
    out = apply_corruption(panel_copy(chain_panel), [spec], seed=13)
    x, u = chain_panel.data[1], out.data[1]
    assert u[0] == x[0]
    held_or_fresh = np.isclose(u[1:], x[1:]) | np.isclose(u[1:], u[:-1])
    assert np.all(held_or_fresh)


def test_uncorrupted_channels_untouched(chain_panel):
    _, specs = chain7()
    out = apply_corruption(panel_copy(chain_panel), list(specs), seed=3)
    for i in range(7):
        if i != 3:
            np.testing.assert_array_equal(out.data[i], chain_panel.data[i])


def test_corruption_deterministic_and_per_node_streams(chain_panel):
    specs = [
        CorruptionSpec(node=1, kind="packet_drop", p=0.8),
        CorruptionSpec(node=3, kind="random_delay", p=0.7, t1=-2, t2=0),
    ]
    a = apply_corruption(panel_copy(chain_panel), specs, seed=21)
    b = apply_corruption(panel_copy(chain_panel), specs, seed=21)
    np.testing.assert_array_equal(a.data, b.data)
    # dropping one spec must not change the other node's stream
    c = apply_corruption(panel_copy(chain_panel), specs[1:], seed=21)
    np.testing.assert_array_equal(c.data[3], a.data[3])


def test_apply_rejects_bad_nodes(chain_panel):
    with pytest.raises(DataError):
        apply_corruption(chain_panel, [CorruptionSpec(node=9, kind="none")], seed=0)
    with pytest.raises(DataError):
        apply_corruption(
            chain_panel,
            [CorruptionSpec(node=1, kind="none"), CorruptionSpec(node=1, kind="none")],
            seed=0,
        )


def test_apply_rewrites_listed_channels_in_place(chain_panel):
    panel = panel_copy(chain_panel)
    _, (spec,) = chain7()
    specs = [CorruptionSpec(node=1, kind="packet_drop", p=0.8), spec]
    assert apply_corruption(panel, specs, seed=3) is panel
    for i in range(7):
        same = panel.data[i].tobytes() == chain_panel.data[i].tobytes()
        assert same == (i not in (1, 3)), i


@pytest.mark.parametrize("bad", [
    CorruptionSpec(node=7, kind="none"),
    CorruptionSpec(node=1, kind="random_delay", p=0.7, t1=-2, t2=0),
], ids=["out-of-range", "duplicate"])
def test_rejected_specs_leave_the_panel_unchanged(chain_panel, bad):
    # the valid spec comes first: no channel may be written before every
    # spec is checked
    panel = panel_copy(chain_panel)
    with pytest.raises(DataError):
        apply_corruption(panel, [CorruptionSpec(node=1, kind="packet_drop", p=0.8), bad], seed=0)
    assert panel.data.tobytes() == chain_panel.data.tobytes()


def test_overflowing_filter_raises(chain_panel):
    spec = CorruptionSpec(node=2, kind="noisy_filter", taps=(1e308, 1e308), noise_variance=0.0)
    panel = panel_copy(chain_panel)
    with pytest.raises(DataError, match="non-finite"):
        apply_corruption(panel, [spec], seed=0)
    assert np.all(np.isfinite(panel.data))


# ---------------------------------------------------------------------------
# signatures

def test_trivial_signature_for_clean_channel(chain_panel):
    sig = estimate_signature(chain_panel.data[2], chain_panel.data[2], WELCH)
    assert np.abs(sig.h - 1.0).max() < 1e-9
    assert sig.d.max() < 1e-9


def test_delay_signature_matches_monte_carlo(chain_panel):
    # the analytic mixture response is validated against the empirical
    # estimate, which is the ground truth here
    model, (spec,) = chain7()
    out = apply_corruption(panel_copy(chain_panel), [spec], seed=31)
    est = estimate_signature(chain_panel.data[3], out.data[3], WELCH)
    ana = analytic_signature(spec, est.grid, model)
    assert np.abs(est.h - ana.h).max() < 0.12
    assert np.abs(est.d - ana.d).max() < 0.12
    # additive level frozen from the companion Lyapunov solve
    assert ana.d[0] == pytest.approx(0.710304008573241, abs=1e-9)


def test_filter_signature_matches_fir_response(chain_panel):
    spec = CorruptionSpec(
        node=2, kind="noisy_filter", taps=(1.0, -0.4, 0.2), noise_variance=0.3
    )
    out = apply_corruption(panel_copy(chain_panel), [spec], seed=17)
    est = estimate_signature(chain_panel.data[2], out.data[2], WELCH)
    ana = analytic_signature(spec, est.grid, chain7()[0])
    assert (np.abs(est.h - ana.h) / np.abs(ana.h)).max() < 0.05
    assert np.abs(est.d - 0.3).max() < 0.05


def test_estimated_d_nonnegative_for_all_kinds(chain_panel):
    specs = [
        CorruptionSpec(node=1, kind="packet_drop", p=0.8),
        CorruptionSpec(node=3, kind="random_delay", p=0.7, t1=-2, t2=0),
        CorruptionSpec(node=5, kind="noisy_filter", taps=(0.9, 0.3), noise_variance=0.2),
    ]
    out = apply_corruption(panel_copy(chain_panel), specs, seed=41)
    for spec in specs:
        sig = estimate_signature(chain_panel.data[spec.node], out.data[spec.node], WELCH)
        assert sig.d.min() >= 0.0


def test_different_seeds_same_signature(chain_panel):
    _, (spec,) = chain7()
    a = apply_corruption(panel_copy(chain_panel), [spec], seed=1)
    b = apply_corruption(panel_copy(chain_panel), [spec], seed=2)
    assert not np.array_equal(a.data[3], b.data[3])
    sa = estimate_signature(chain_panel.data[3], a.data[3], WELCH)
    sb = estimate_signature(chain_panel.data[3], b.data[3], WELCH)
    assert np.abs(sa.h - sb.h).max() < 0.15
    assert np.abs(sa.d - sb.d).max() < 0.15


def test_signature_validation_and_csv():
    grid = FrequencyGrid.welch_bins(16)
    with pytest.raises(DataError):
        CorruptionSignature(grid, np.ones(grid.size), -np.ones(grid.size))
    sig = CorruptionSignature(grid, np.ones(grid.size), np.zeros(grid.size))
    assert sig.h.dtype == np.complex128 and sig.d.dtype == np.float64
