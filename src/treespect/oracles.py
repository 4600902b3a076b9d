"""Analytic spectra of corrupted networks.

Given per-node signatures (h, d), the corrupted PSD is

    Phi_uu = H Phi_xx H* + diag(d),   H = diag(h).

Its inverse is built without any dense inversion: rescale the entrywise
clean inverse by 1/(conj(h_i) h_j), then absorb each node's additive term
with one Woodbury rank-one downdate.  The intermediate inverses are the
quantities the detection proofs reason about, so they are returned too.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .corruption import CorruptionSignature, CorruptionSpec, analytic_signature
from .errors import DataError, NumericalError
from .ltisim import GenerativeModel, analytic_inverse_psd, analytic_psd
from .spectral import FrequencyGrid, SpectralMatrix

H_FLOOR = 1e-8


def analytic_signatures(
    model: GenerativeModel, specs: Sequence[CorruptionSpec], grid: FrequencyGrid
) -> dict[int, CorruptionSignature]:
    """Closed-form signatures for every spec that admits one."""
    return {s.node: analytic_signature(s, grid, model) for s in specs if s.kind != "none"}


def _signature_arrays(
    n: int, grid: FrequencyGrid, signatures: Mapping[int, CorruptionSignature]
) -> tuple[np.ndarray, np.ndarray]:
    h = np.ones((grid.size, n), dtype=np.complex128)
    d = np.zeros((grid.size, n))
    for node, sig in signatures.items():
        if not 0 <= node < n:
            raise DataError(f"signature references invalid node {node}")
        if not sig.grid.close_to(grid):
            raise DataError("signature grid does not match requested grid")
        h[:, node] = sig.h
        d[:, node] = sig.d
    return h, d


def analytic_corrupted_psd(
    model: GenerativeModel,
    signatures: Mapping[int, CorruptionSignature],
    grid: FrequencyGrid,
) -> SpectralMatrix:
    """H Phi_xx H* plus the additive diagonal, exactly."""
    h, d = _signature_arrays(model.n_nodes, grid, signatures)
    psd = analytic_psd(model, grid)
    vals = h[:, :, None] * psd.values * np.conj(h[:, None, :])
    vals[:, range(model.n_nodes), range(model.n_nodes)] += d
    return SpectralMatrix(grid, vals, model.labels)


def woodbury_chain_inverse(
    model: GenerativeModel,
    signatures: Mapping[int, CorruptionSignature],
    grid: FrequencyGrid,
    order: Sequence[int] | None = None,
) -> tuple[SpectralMatrix, list[tuple[int, SpectralMatrix]]]:
    """Inverse corrupted PSD via the rank-one update chain.

    Step 0 rescales the entrywise clean inverse by the multiplicative
    responses; every node in `order` (default: all signature nodes, sorted)
    then contributes one downdate

        inv <- inv - inv e_v e_v^T inv * d_v / (1 + d_v inv(v,v)),

    written in the form that stays finite when d_v = 0.  Frequencies where
    a response vanishes or the downdate denominator hits zero are flagged.
    Returns the final inverse and the per-step intermediates in order.
    """
    n = model.n_nodes
    h, d = _signature_arrays(n, grid, signatures)
    if order is None:
        order = sorted(signatures)
    else:
        order = list(order)
        if sorted(order) != sorted(signatures):
            raise DataError("order must list exactly the signature nodes")

    flagged = np.abs(h).min(axis=1) < H_FLOOR
    clean_inv = analytic_inverse_psd(model, grid)
    h_safe = np.where(np.abs(h) < H_FLOOR, 1.0, h)
    inv = clean_inv.values / (np.conj(h_safe[:, :, None]) * h_safe[:, None, :])
    inv[flagged] = np.nan

    steps: list[tuple[int, SpectralMatrix]] = []
    for v in order:
        denom = 1.0 + d[:, v] * np.where(flagged, 0.0, inv[:, v, v])
        bad = np.abs(denom) < 1e-12
        if bad.any():
            flagged = flagged | bad
            inv[bad] = np.nan
            denom = np.where(bad, 1.0, denom)
        gain = d[:, v] / denom
        col = np.where(flagged[:, None], 0.0, gain[:, None] * inv[:, :, v])
        inv -= col[:, :, None] * inv[:, None, v, :]
        steps.append((v, SpectralMatrix(grid, inv.copy(), model.labels, flagged.copy())))
    if flagged.all():
        raise NumericalError("corrupted inverse undefined on the whole grid")
    final = SpectralMatrix(grid, inv, model.labels, flagged)
    return final, steps
