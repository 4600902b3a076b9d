"""Multi-channel time-series container and its RTSP file format.

An RTSP file is a header (magic, shape, sample interval and a JSON label
blob) followed by the samples as little-endian float64, channel-major: one
row per channel.  `PanelWriter` writes one block by block and
`PanelReader` reads row spans of one, so a stage that streams its samples
never holds a whole panel; `save_panel` and `load_panel` move a whole
in-memory `TimeSeriesPanel`.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .errors import DataError

PANEL_MAGIC = b"RTSP"
# the header's f8 slot; spectra assume a unit sample interval
SAMPLE_INTERVAL = 1.0
CHECK_SPAN = 1 << 16  # samples per finiteness check of a read, so its mask stays small


def check_layout(n: int, t: int, labels: Sequence[str]) -> tuple[str, ...]:
    """The labels as strings, if `n` channels of `t` samples named by
    `labels` make a panel; else a DataError."""
    labels = tuple(str(x) for x in labels)
    if n < 2 or t < 1:
        raise DataError(f"panel needs >=2 channels and >=1 sample, got {n}x{t}")
    if len(labels) != n:
        raise DataError("label count does not match channel count")
    if len(set(labels)) != n:
        raise DataError("duplicate channel labels")
    return labels


@dataclass(frozen=True)
class TimeSeriesPanel:
    """N-channel, T-sample real signal matrix, channel-major."""

    data: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 2:
            raise DataError("panel data must be 2-D (channels x samples)")
        object.__setattr__(self, "labels", check_layout(*data.shape, self.labels))
        if not np.all(np.isfinite(data)):
            raise DataError("panel contains non-finite samples")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def row(self, i: int, lo: int = 0, hi: int | None = None, out=None) -> np.ndarray:
        """Samples lo..hi of channel `i`, a view; `out` is not needed."""
        return self.data[i, lo:hi]

    def read(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Samples lo..hi of every channel, a view; `out` is not needed."""
        return self.data[:, lo:hi]


def _bytes_left(fh: BinaryIO) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def read_exact(fh: BinaryIO, size: int, path: str | Path) -> bytes:
    """The next `size` bytes of a binary artifact; a file too short for the
    sizes its header declares is a DataError."""
    remaining = _bytes_left(fh)
    if size > remaining:
        raise DataError(f"{path}: truncated, {size} bytes declared but {remaining} left")
    return fh.read(size)


def expect_payload(fh: BinaryIO, size: int, path: str | Path) -> None:
    """Check that exactly `size` bytes, the declared payload, are left in a
    binary artifact; a shorter file or trailing bytes are a DataError."""
    remaining = _bytes_left(fh)
    if size > remaining:
        raise DataError(f"{path}: truncated, {size} bytes declared but {remaining} left")
    if size < remaining:
        raise DataError(f"{path}: {remaining - size} trailing bytes past the declared payload")


def read_labels(fh: BinaryIO, size: int, path: str | Path) -> list[str]:
    """The JSON label list of a binary artifact; a blob that does not parse
    as a list of strings is a DataError."""
    try:
        labels = json.loads(read_exact(fh, size, path).decode())
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise DataError(f"{path}: corrupt label blob ({exc})") from exc
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise DataError(f"{path}: label blob is not a list of strings")
    return labels


def panel_header(n: int, t: int, labels: Sequence[str]) -> bytes:
    """The RTSP header of an n x t panel: magic, shape, the sample interval
    (always 1.0) and the JSON label blob."""
    blob = json.dumps(list(labels)).encode()
    return PANEL_MAGIC + struct.pack("<QQdI", n, t, SAMPLE_INTERVAL, len(blob)) + blob


def panel_bytes(panel: TimeSeriesPanel) -> tuple[bytes, memoryview]:
    """The RTSP file of `panel` in two parts: the header, then a view of
    the little-endian float64 samples row-major (one row per channel).
    `save_panel` writes exactly these parts, so their SHA-256 is the
    file's."""
    data = np.ascontiguousarray(panel.data, dtype="<f8")
    header = panel_header(panel.n_channels, panel.n_samples, panel.labels)
    return header, memoryview(data).cast("B")


def save_panel(panel: TimeSeriesPanel, path: str | Path) -> Path:
    """Write `panel` as an RTSP file (see `panel_bytes`).  Returns the path."""
    path = Path(path)
    with path.open("wb") as fh:
        for part in panel_bytes(panel):
            fh.write(part)
    return path


def load_panel(path: str | Path) -> TimeSeriesPanel:
    with PanelReader(path) as reader:
        return TimeSeriesPanel(reader.read(0, reader.n_samples), reader.labels)


class PanelReader:
    """An RTSP file opened for reading spans of its rows.

    Opening checks everything `load_panel` checks: the magic, the sample
    interval, the labels, and that the file holds exactly the declared
    samples.  Every read refuses a span holding a non-finite sample with a
    DataError.  Reads are positional, so threads may share one reader.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        fh = self.path.open("rb", buffering=0)
        try:
            magic = fh.read(4)
            if magic != PANEL_MAGIC:
                raise DataError(f"{path}: not a panel file (bad magic {magic!r})")
            n, t, dt, blob_len = struct.unpack("<QQdI", read_exact(fh, 28, path))
            if dt != SAMPLE_INTERVAL:
                raise DataError(f"{path}: sample interval {dt!r}, not {SAMPLE_INTERVAL}")
            labels = read_labels(fh, blob_len, path)
            expect_payload(fh, n * t * 8, path)
            self.labels = check_layout(n, t, labels)
        except BaseException:
            fh.close()
            raise
        self._fh = fh
        self._start = fh.tell()
        self.n_channels, self.n_samples = n, t

    def __enter__(self) -> "PanelReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _fill(self, out: np.ndarray, i: int, lo: int) -> None:
        view = memoryview(out).cast("B")
        offset = self._start + (i * self.n_samples + lo) * 8
        while view:
            got = os.preadv(self._fh.fileno(), [view], offset)
            if not got:
                raise DataError(f"{self.path}: truncated while it was read")
            view, offset = view[got:], offset + got
        for a in range(0, out.size, CHECK_SPAN):
            if not np.isfinite(out[a:a + CHECK_SPAN]).all():
                raise DataError(f"{self.path}: channel {i} has non-finite samples")

    def row(self, i: int, lo: int = 0, hi: int | None = None, out=None) -> np.ndarray:
        """Samples lo..hi of channel `i`, read into the leading entries of
        `out` (a contiguous float64 buffer; a new array if None)."""
        hi = self.n_samples if hi is None else hi
        out = np.empty(hi - lo, dtype="<f8") if out is None else out[:hi - lo]
        self._fill(out, i, lo)
        return out

    def read(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """Samples lo..hi of every channel, read into the leading columns
        of `out` (a C-contiguous N x >= hi-lo float64 buffer; a new array
        if None) and returned as a view of them."""
        if out is None:
            out = np.empty((self.n_channels, hi - lo), dtype="<f8")
        for i in range(self.n_channels):
            self._fill(out[i, :hi - lo], i, lo)
        return out[:, :hi - lo]


class PanelWriter:
    """An RTSP file written block by block, at any row offsets.

    The header is written on opening.  The samples go to `<path>.part`,
    which replaces `path` when the `with` block ends without an error and
    every sample was written; otherwise it is removed, so a failed writer
    leaves no partial file.
    """

    def __init__(self, path: str | Path, labels: Sequence[str], n_samples: int):
        self.path = Path(path)
        self.labels = check_layout(len(labels), n_samples, labels)
        self.n_samples = n_samples
        self.header = panel_header(len(labels), n_samples, self.labels)
        self._part = self.path.with_name(self.path.name + ".part")
        self._fh = self._part.open("wb", buffering=0)
        self._fh.write(self.header)
        self._left = len(labels) * n_samples * 8  # sample bytes not yet written

    def __enter__(self) -> "PanelWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._fh.close()
        if exc_type is None and not self._left:
            os.replace(self._part, self.path)
            return
        self._part.unlink(missing_ok=True)
        if exc_type is None:
            raise RuntimeError(f"{self.path}: {self._left} sample bytes never written")

    def write(self, i: int, lo: int, samples: np.ndarray) -> None:
        """Write `samples` as samples lo.. of channel `i`."""
        view = memoryview(np.ascontiguousarray(samples, dtype="<f8")).cast("B")
        offset = len(self.header) + (i * self.n_samples + lo) * 8
        self._left -= len(view)
        while view:
            done = os.pwrite(self._fh.fileno(), view, offset)
            view, offset = view[done:], offset + done

    def put(self, lo: int, block: np.ndarray) -> None:
        """Write `block`, an N x m array, as samples lo..lo+m of every channel."""
        for i, samples in enumerate(block):
            self.write(i, lo, samples)
