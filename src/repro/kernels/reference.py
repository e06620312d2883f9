"""Reference loops: the executable specification of every kernel.

Each function here is the original scalar-at-a-time form of a kernel in
:mod:`repro.kernels` (or of the CROWN recursion and SDP projection the
kernels replaced).  Production code runs only the vectorized kernels;
these loops exist so the equivalence suite
(``tests/test_kernels_equivalence.py``) can check the fast path against
them and ``benchmarks/bench_kernels.py`` can time it against them.  No
module under ``repro`` imports this one.

Equivalence contract: elementwise kernels and the RNG-replaying sampler
are bit-identical to their oracle; matrix contractions agree to
round-off, because matrix products reassociate sums.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.kernels.gram import apply_adjoint, apply_operator
from repro.linalg.matrix_utils import frobenius_inner
from repro.linalg.psd import symmetrize
from repro.nn.network import Sequential
from repro.verify.linear_bounds import _backward_bound, extract_affine_relu_stack

__all__ = [
    "gram_matrix_reference",
    "apply_operator_reference",
    "apply_adjoint_reference",
    "apply_operator_batch_reference",
    "apply_adjoint_batch_reference",
    "quad_gradient_batch_reference",
    "affine_projection_reference",
    "crown_preactivation_reference",
    "velocity_update_reference",
    "reflect_box_reference",
    "decode_indices_reference",
    "sample_distribution_swarm_reference",
]


# ---------------------------------------------------------------------------
# SDP constraint algebra (repro.kernels.gram, repro.convex.sdp)
# ---------------------------------------------------------------------------


def gram_matrix_reference(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The original scalar Gram assembly — the equivalence baseline."""
    m = len(mats)
    gram = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            gram[i, j] = gram[j, i] = frobenius_inner(mats[i], mats[j])
    return gram


def apply_operator_reference(mats: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Per-constraint loop form of :func:`~repro.kernels.gram.apply_operator`."""
    return np.array([np.sum(m * x) for m in mats]) if len(mats) else np.zeros(0)


def apply_adjoint_reference(coeffs: np.ndarray,
                            mats: Sequence[np.ndarray]) -> np.ndarray:
    """Accumulation-loop form of :func:`~repro.kernels.gram.apply_adjoint`."""
    mats = list(mats)
    if not mats:
        raise ValueError("apply_adjoint_reference needs at least one matrix")
    out = np.zeros_like(np.asarray(mats[0], dtype=np.float64))
    for c, m in zip(coeffs, mats):
        out += c * m
    return out


def apply_operator_batch_reference(stacks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-problem loop form of :func:`~repro.kernels.gram.apply_operator_batch`."""
    stacks = np.asarray(stacks, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    b, k = stacks.shape[0], stacks.shape[1]
    out = np.zeros((b, k))
    for bi in range(b):
        out[bi] = apply_operator(stacks[bi], x[bi])
    return out


def apply_adjoint_batch_reference(coeffs: np.ndarray, stacks: np.ndarray) -> np.ndarray:
    """Per-problem loop form of :func:`~repro.kernels.gram.apply_adjoint_batch`."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    stacks = np.asarray(stacks, dtype=np.float64)
    out = np.zeros((stacks.shape[0], stacks.shape[2], stacks.shape[3]))
    for bi in range(stacks.shape[0]):
        out[bi] = apply_adjoint(coeffs[bi], stacks[bi])
    return out


def quad_gradient_batch_reference(p: np.ndarray, x: np.ndarray,
                                  q: np.ndarray) -> np.ndarray:
    """Per-problem loop form of :func:`~repro.kernels.gram.quad_gradient_batch`."""
    p = np.asarray(p, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    out = np.zeros_like(q)
    for bi in range(p.shape[0]):
        out[bi] = np.einsum("ij,j->i", p[bi], x[bi]) + q[bi]
    return out


def affine_projection_reference(mats: Sequence[np.ndarray], rhs: np.ndarray,
                                x: np.ndarray) -> np.ndarray:
    """``min ||Y - X||_F s.t. <A_i, Y> = b_i`` with the ``O(m^2)`` scalar
    Gram assembly and one constraint at a time — the loop form of
    constructing :class:`~repro.convex.sdp.AffineSubspaceProjector` and
    calling its ``project``."""
    mats = [symmetrize(m) for m in mats]
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    x = symmetrize(x)
    if not mats:
        return x
    gram_pinv = np.linalg.pinv(gram_matrix_reference(mats))
    vals = np.array([np.sum(m * x) for m in mats])
    lam = gram_pinv @ (vals - rhs)
    out = x.copy()
    for li, m in zip(lam, mats):
        out -= li * m
    return out


# ---------------------------------------------------------------------------
# CROWN pre-activation bounds (repro.kernels.propagation)
# ---------------------------------------------------------------------------


def crown_preactivation_reference(net: Sequential, x_lo: np.ndarray, x_hi: np.ndarray
                                  ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-neuron CROWN recursion: ``2m`` independent backward passes for
    a stage with ``m`` outputs — the loop form of
    :func:`~repro.kernels.propagation.crown_preactivation_fast`, with the
    same signature."""
    x_lo = np.asarray(x_lo, dtype=np.float64).ravel()
    x_hi = np.asarray(x_hi, dtype=np.float64).ravel()
    stages = extract_affine_relu_stack(net)
    pre: List[Tuple[np.ndarray, np.ndarray]] = []
    for k, stage in enumerate(stages):
        n_out = stage.b.size
        lo = np.empty(n_out)
        hi = np.empty(n_out)
        for j in range(n_out):
            e = np.zeros(n_out)
            e[j] = 1.0
            lo[j] = _backward_bound(stages, pre, k, e, 0.0, x_lo, x_hi)
            hi[j] = -_backward_bound(stages, pre, k, -e, 0.0, x_lo, x_hi)
        pre.append((lo, hi))
    return pre


# ---------------------------------------------------------------------------
# PSO swarm updates (repro.kernels.swarm)
# ---------------------------------------------------------------------------


def velocity_update_reference(v: np.ndarray, x: np.ndarray, pbest: np.ndarray,
                              social: np.ndarray, w: np.ndarray,
                              beta1: np.ndarray, beta2: np.ndarray,
                              alpha1: float, alpha2: float) -> np.ndarray:
    """Per-particle loop form of Eq. 2 — the equivalence baseline."""
    out = np.empty_like(v)
    for i in range(v.shape[0]):
        out[i] = (w[i] * v[i]
                  + alpha1 * beta1[i] * (pbest[i] - x[i])
                  + alpha2 * beta2[i] * (social[i] - x[i]))
    return out


def reflect_box_reference(x: np.ndarray, v: np.ndarray, lo: np.ndarray,
                          hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-particle loop form of the wall reflection."""
    x = x.copy()
    v = v.copy()
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            if x[i, j] < lo[j]:
                x[i, j] = lo[j]
                v[i, j] = 0.0
            elif x[i, j] > hi[j]:
                x[i, j] = hi[j]
                v[i, j] = 0.0
    return x, v


def decode_indices_reference(values: Sequence[Sequence[float]],
                             idx: np.ndarray) -> np.ndarray:
    """Row-at-a-time decode — the equivalence baseline."""
    return np.array([
        [values[j][int(i)] for j, i in enumerate(row)] for row in idx
    ], dtype=np.float64)


def sample_distribution_swarm_reference(logits: List[np.ndarray], samples: int,
                                        rng: np.random.Generator) -> np.ndarray:
    """The original nested sampling loops (particle → sample → coordinate),
    one ``rng.choice`` per coordinate — the equivalence baseline."""
    n = logits[0].shape[0] if logits else 0
    d = len(logits)
    idx = np.zeros((n, samples, d), dtype=np.intp)
    for i in range(n):
        for s in range(samples):
            for j, block in enumerate(logits):
                z = block[i]
                z = z - z.max()
                p = np.exp(z)
                p /= p.sum()  # numlint: disable=NL002 -- max-shifted logits: one term is exp(0)=1, so the sum is >= 1
                idx[i, s, j] = rng.choice(block.shape[1], p=p)
    return idx
