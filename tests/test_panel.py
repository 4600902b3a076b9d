import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from treespect.config import HASH_CHUNK, sha256_file, sha256_parts
from treespect.errors import DataError
from treespect.panel import (
    PanelReader,
    PanelWriter,
    TimeSeriesPanel,
    load_panel,
    panel_bytes,
    save_panel,
)


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


@pytest.mark.parametrize("order", ["C", "F"])
def test_panel_bytes_are_the_file(tmp_path, order):
    # a Fortran-ordered panel is laid out row-major on the way out
    panel = make_panel(n=4, t=1000)
    panel = TimeSeriesPanel(np.asarray(panel.data, order=order), panel.labels)
    blob = save_panel(panel, tmp_path / "p.bin").read_bytes()
    assert b"".join(panel_bytes(panel)) == blob
    assert sha256_parts(panel_bytes(panel)) == hashlib.sha256(blob).hexdigest()


def test_sha256_file_reads_through_one_buffer(tmp_path):
    # a size that is not a whole number of chunks, hashed in ~1 chunk of memory
    blob = np.random.default_rng(0).bytes(5 * HASH_CHUNK + 12345)
    path = tmp_path / "blob.bin"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        digest = sha256_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(blob).hexdigest()
    assert peak < 1.5 * HASH_CHUNK


def test_writer_blocks_and_reader_spans_match_the_whole_panel(tmp_path):
    panel = make_panel(n=3, t=1_001)
    path = tmp_path / "p.bin"
    with PanelWriter(path, panel.labels, panel.n_samples) as writer:
        for lo in range(0, panel.n_samples, 300):
            writer.put(lo, panel.data[:, lo:lo + 300])
    assert path.read_bytes() == b"".join(panel_bytes(panel))
    with PanelReader(path) as reader:
        assert reader.labels == panel.labels
        assert np.array_equal(reader.row(1, 17, 900), panel.data[1, 17:900])
        assert np.array_equal(reader.read(250, 750, np.empty((3, 600))), panel.data[:, 250:750])


def test_failed_writer_leaves_no_file(tmp_path):
    panel = make_panel(n=2, t=100)
    path = tmp_path / "p.bin"
    with pytest.raises(ValueError):
        with PanelWriter(path, panel.labels, 100) as writer:
            writer.put(0, panel.data[:, :50])
            raise ValueError("stage failed")
    with pytest.raises(RuntimeError, match="never written"):
        with PanelWriter(path, panel.labels, 100) as writer:
            writer.put(0, panel.data[:, :50])
    assert list(tmp_path.iterdir()) == []
