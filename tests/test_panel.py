import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treespect.errors import DataError
from treespect.panel import TimeSeriesPanel, load_panel, save_panel


def make_panel(n=3, t=50, seed=0):
    rng = np.random.default_rng(seed)
    return TimeSeriesPanel(rng.standard_normal((n, t)), [f"n{i}" for i in range(n)])


def test_validation():
    with pytest.raises(DataError):
        TimeSeriesPanel(np.zeros((1, 10)), ["a"])
    with pytest.raises(DataError):
        TimeSeriesPanel(np.full((2, 4), np.nan), ["a", "b"])
    with pytest.raises(DataError):
        TimeSeriesPanel(np.zeros((2, 4)), ["a", "a"])


def test_roundtrip(tmp_path):
    panel = make_panel()
    path = save_panel(panel, tmp_path / "p.bin")
    back = load_panel(path)
    assert back.labels == panel.labels
    np.testing.assert_allclose(back.data, panel.data, rtol=0, atol=0)


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 5), st.integers(1, 20)),
        elements=st.floats(-1e12, 1e12, allow_nan=False, width=64),
    )
)
def test_binary_roundtrip_bit_exact(tmp_path_factory, data):
    panel = TimeSeriesPanel(data, [f"c{i}" for i in range(data.shape[0])])
    path = tmp_path_factory.mktemp("panels") / "p.bin"
    save_panel(panel, path)
    back = load_panel(path)
    assert np.array_equal(back.data, panel.data)


def test_binary_io_copies_at_most_once(tmp_path):
    # saving streams the array's own buffer; loading fills one preallocated
    # array, plus the 1/8-size finiteness mask of the panel check
    panel = TimeSeriesPanel(np.ones((7, 10**6)), [f"n{i}" for i in range(7)])
    path = tmp_path / "p.bin"
    tracemalloc.start()
    try:
        save_panel(panel, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = load_panel(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.data, panel.data)
    assert save_peak < 0.25 * panel.data.nbytes
    assert load_peak < 1.25 * panel.data.nbytes
