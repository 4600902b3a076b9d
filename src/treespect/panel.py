"""Multi-channel time-series container and its RTSP file format."""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import DataError

PANEL_MAGIC = b"RTSP"
# the header's f8 slot; spectra assume a unit sample interval
SAMPLE_INTERVAL = 1.0


@dataclass(frozen=True)
class TimeSeriesPanel:
    """N-channel, T-sample real signal matrix, channel-major."""

    data: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if data.ndim != 2:
            raise DataError("panel data must be 2-D (channels x samples)")
        n, t = data.shape
        if n < 2 or t < 1:
            raise DataError(f"panel needs >=2 channels and >=1 sample, got {n}x{t}")
        if len(self.labels) != n:
            raise DataError("label count does not match channel count")
        if len(set(self.labels)) != n:
            raise DataError("duplicate channel labels")
        if not np.all(np.isfinite(data)):
            raise DataError("panel contains non-finite samples")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


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


def panel_bytes(panel: TimeSeriesPanel) -> tuple[bytes, memoryview]:
    """The RTSP file of `panel` in two parts: the header (magic, shape, the
    sample interval, always 1.0, and the JSON label blob), then a view of
    the little-endian float64 samples row-major (one row per channel).
    `save_panel` writes exactly these parts, so their SHA-256 is the
    file's."""
    blob = json.dumps(list(panel.labels)).encode()
    shape = struct.pack("<QQdI", panel.n_channels, panel.n_samples, SAMPLE_INTERVAL, len(blob))
    data = np.ascontiguousarray(panel.data, dtype="<f8")
    return PANEL_MAGIC + shape + blob, memoryview(data).cast("B")


def save_panel(panel: TimeSeriesPanel, path: str | Path) -> Path:
    """Write `panel` as an RTSP file (see `panel_bytes`).  Returns the path."""
    path = Path(path)
    with path.open("wb") as fh:
        for part in panel_bytes(panel):
            fh.write(part)
    return path


def load_panel(path: str | Path) -> TimeSeriesPanel:
    with Path(path).open("rb") as fh:
        magic = fh.read(4)
        if magic != PANEL_MAGIC:
            raise DataError(f"{path}: not a panel file (bad magic {magic!r})")
        n, t, dt, blob_len = struct.unpack("<QQdI", read_exact(fh, 28, path))
        if dt != SAMPLE_INTERVAL:
            raise DataError(f"{path}: sample interval {dt!r}, not {SAMPLE_INTERVAL}")
        labels = read_labels(fh, blob_len, path)
        expect_payload(fh, n * t * 8, path)
        data = np.empty((n, t), dtype="<f8")
        fh.readinto(memoryview(data).cast("B"))
    return TimeSeriesPanel(data, labels)
