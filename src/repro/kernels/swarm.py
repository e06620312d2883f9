"""Whole-swarm PSO kernels (paper Eqs. 1–2) with bit-exact semantics.

The swarm update is elementwise arithmetic, so its vectorized and
per-particle forms produce *bit-identical* trajectories — unlike the
matrix-product kernels, no tolerance is needed.  The same holds for the
discrete-PSO helpers: :func:`decode_indices_batch` gathers from a
padded lookup table (the exact floats of the per-row reference decode),
and :func:`sample_distribution_swarm` replays the reference sampling
loop's RNG stream exactly — a single ``rng.random((n, s, d))`` draw
consumes the PCG64 stream in the same order as the nested scalar
``rng.choice`` calls, and ``searchsorted`` on the row-wise CDF
reproduces ``Generator.choice(c, p=...)`` decision-for-decision.

The per-particle loops these kernels replaced live in
:mod:`repro.kernels.reference`, where the equivalence suite and the
speedup benchmark use them as oracles.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "velocity_update",
    "reflect_box",
    "decode_indices_batch",
    "build_decode_table",
    "sample_distribution_swarm",
]


def velocity_update(v: np.ndarray, x: np.ndarray, pbest: np.ndarray,
                    social: np.ndarray, w: np.ndarray,
                    beta1: np.ndarray, beta2: np.ndarray,
                    alpha1: float, alpha2: float) -> np.ndarray:
    """Eq. 2 for the whole swarm:
    ``v' = w v + a1 b1 (pbest - x) + a2 b2 (social - x)``.

    ``w`` is ``(n, 1)`` (per-particle inertia); everything else is
    ``(n, d)``.  Elementwise, so it matches the per-particle loop
    bit-for-bit.
    """
    return (w * v
            + alpha1 * beta1 * (pbest - x)
            + alpha2 * beta2 * (social - x))


def reflect_box(x: np.ndarray, v: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 1 wall handling: clamp positions to the box and zero the
    offending velocity components.  Returns ``(x, v)``."""
    below = x < lo
    above = x > hi
    x = np.where(below, lo, x)
    x = np.where(above, hi, x)
    v = np.where(below | above, 0.0, v)
    return x, v


def build_decode_table(values: Sequence[Sequence[float]]) -> np.ndarray:
    """Padded per-coordinate lookup table ``(d, max_card)`` for
    :func:`decode_indices_batch`; unused slots repeat the last value so
    out-of-range indices can never read garbage."""
    d = len(values)
    width = max((len(row) for row in values), default=0)
    table = np.zeros((d, max(width, 1)))
    for j, row in enumerate(values):
        table[j, : len(row)] = row
        table[j, len(row):] = row[-1]
    return table


def decode_indices_batch(table: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Decode an ``(n, d)`` integer index matrix to values in one gather."""
    idx = np.asarray(idx, dtype=np.intp)
    return table[np.arange(table.shape[0])[None, :], idx]


def sample_distribution_swarm(logits: List[np.ndarray], samples: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Sample ``(n, samples, d)`` coordinate indices from per-particle
    categorical distributions (distribution-based discrete PSO).

    ``logits[j]`` is the ``(n, card_j)`` logit block of coordinate ``j``.
    The vectorized path draws all uniforms in one ``rng.random`` call —
    the identical PCG64 stream the reference's nested
    ``rng.choice(c, p=softmax(z))`` calls consume — and reproduces
    ``Generator.choice``'s CDF inversion exactly, so seeded trajectories
    match the nested loop bit-for-bit.
    """
    n = logits[0].shape[0] if logits else 0
    d = len(logits)
    u = rng.random((n, samples, d))
    idx = np.zeros((n, samples, d), dtype=np.intp)
    for j, block in enumerate(logits):
        z = block - block.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)  # numlint: disable=NL002 -- max-shifted logits: one term is exp(0)=1, so the sum is >= 1
        cdf = np.cumsum(p, axis=1)
        cdf /= cdf[:, -1:]  # numlint: disable=NL002 -- final cumulative mass of a normalized distribution is 1
        # Generator.choice inversion: index = #(cdf entries <= u), i.e.
        # searchsorted(cdf, u, side='right'); clip is defensive only
        counts = np.sum(cdf[:, None, :] <= u[:, :, j, None], axis=2)
        idx[:, :, j] = np.minimum(counts, block.shape[1] - 1)
    return idx
