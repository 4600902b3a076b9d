"""Analytic spectra of corrupted networks.

Given per-node signatures (h, d), the corrupted PSD is

    Phi_uu = H Phi_xx H* + diag(d),   H = diag(h).

Its inverse is built without any dense inversion: rescale the exact
clean inverse by 1/(conj(h_i) h_j), then absorb each node's additive term
with one Woodbury rank-one downdate, in place.  A downdate at v changes
only entries whose row and column both lie where column v or row v of the
working inverse is nonzero; on a tree that is v's two-hop ball, so each
downdate is written on that block alone.  The detection proofs
reason about the intermediate inverses; a zero additive term makes its
downdate a no-op, so the inverse after absorbing only node v is the chain
run on signatures whose d is zero everywhere except at v.
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
        if sig.grid != grid:
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
) -> tuple[SpectralMatrix, tuple[int, ...]]:
    """Inverse corrupted PSD via the rank-one update chain.

    Step 0 rescales the exact clean inverse by the multiplicative
    responses; every signature node, in sorted order, then contributes one
    downdate

        inv <- inv - inv e_v e_v^T inv * d_v / (1 + d_v inv(v,v)),

    written in the form that stays finite when d_v = 0.  It is applied
    only on idx x idx, idx being the nodes where the column or row v of an
    unflagged bin is nonzero: every other entry would have ±0 subtracted,
    so the values do not change (only the sign of a zero may), with or
    without three hops between corrupt nodes.  Frequencies where a
    response vanishes or the downdate denominator hits zero are flagged.
    Returns the final inverse and the nodes absorbed, in order.
    """
    n = model.n_nodes
    h, d = _signature_arrays(n, grid, signatures)
    order = tuple(sorted(signatures))

    flagged = np.abs(h).min(axis=1) < H_FLOOR
    h_safe = np.where(np.abs(h) < H_FLOOR, 1.0, h)
    inv = analytic_inverse_psd(model, grid).values
    inv /= np.conj(h_safe[:, :, None]) * h_safe[:, None, :]
    inv[flagged] = np.nan

    for v in order:
        denom = 1.0 + d[:, v] * np.where(flagged, 0.0, inv[:, v, v])
        bad = np.abs(denom) < 1e-12
        if bad.any():
            flagged = flagged | bad
            inv[bad] = np.nan
            denom = np.where(bad, 1.0, denom)
        gain = d[:, v] / denom
        col = np.where(flagged[:, None], 0.0, gain[:, None] * inv[:, :, v])
        idx = np.flatnonzero((col != 0).any(axis=0) | (inv[~flagged, v] != 0).any(axis=0))
        inv[:, idx[:, None], idx] -= col[:, idx, None] * inv[:, None, v, idx]
    if flagged.all():
        raise NumericalError("corrupted inverse undefined on the whole grid")
    return SpectralMatrix(grid, inv, model.labels, flagged), order
