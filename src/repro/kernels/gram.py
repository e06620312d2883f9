"""Stacked-tensor kernels for the SDP constraint operator.

The ADMM SDP solver (paper Eqs. 8–10) spends its inner loop applying the
constraint operator ``A : X -> (<A_i, X>)_i`` and its adjoint
``A^* : lam -> sum_i lam_i A_i``, and its setup assembling the Gram
matrix ``G_ij = <A_i, A_j>``.  The reference loops
(:mod:`repro.kernels.reference`) walk the constraint list in Python —
``O(m^2)`` matrix products for the Gram and ``O(m)`` per projection.
These kernels hold the constraints as one
``(m, n, n)`` stack and express every operation as a single ``einsum``
contraction, which is the whole-batch BLAS-backed form.

All functions accept an optional ``out`` buffer so the ADMM iteration
loop can stay allocation-free (see :mod:`repro.kernels.workspace`).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.linalg.psd import symmetrize

__all__ = [
    "stack_symmetric",
    "gram_matrix",
    "apply_operator",
    "apply_adjoint",
    "apply_operator_batch",
    "apply_adjoint_batch",
    "quad_gradient_batch",
    "quad_value_batch",
    "outer_product_batch",
]


def stack_symmetric(mats: Sequence[np.ndarray], n: Optional[int] = None) -> np.ndarray:
    """Symmetrized constraint matrices as one ``(m, n, n)`` stack.

    ``n`` disambiguates the matrix size when ``mats`` is empty (so the
    degenerate unconstrained problem still round-trips through the
    stacked kernels).
    """
    if len(mats):
        return np.stack([symmetrize(m) for m in mats]).astype(np.float64, copy=False)
    side = 0 if n is None else int(n)
    return np.zeros((0, side, side))


def gram_matrix(stack: np.ndarray) -> np.ndarray:
    """Gram matrix ``G_ab = <A_a, A_b>`` of a constraint stack, in one
    ``einsum`` contraction instead of ``O(m^2)`` Python-loop products."""
    stack = np.asarray(stack, dtype=np.float64)
    m = stack.shape[0]
    if m == 0:
        return np.zeros((0, 0))
    flat = stack.reshape(m, -1)
    return flat @ flat.T


def apply_operator(stack: np.ndarray, x: np.ndarray,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Constraint operator ``(<A_i, X>)_i`` as one contraction."""
    return np.einsum("kij,ij->k", stack, x, out=out)


def apply_adjoint(coeffs: np.ndarray, stack: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Adjoint ``sum_k coeffs_k A_k`` as one contraction."""
    return np.einsum("k,kij->ij", coeffs, stack, out=out)


# ---------------------------------------------------------------------------
# batched forms — one leading problem axis, used by repro.convex.firstorder
# to drive a whole stack of small solves with single contractions.  The
# einsum calls run with the default ``optimize=False`` path on purpose:
# its fixed-order accumulation makes row ``b`` of a batched call
# bit-identical to the same contraction on the ``b``-th problem alone,
# which is the batched-vs-loop determinism contract the firstorder
# equivalence tests pin.
# ---------------------------------------------------------------------------


def apply_operator_batch(stacks: np.ndarray, x: np.ndarray,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-problem constraint operator ``(<A_bi, X_b>)_i``.

    ``stacks`` has shape ``(B, k, n, n)`` and ``x`` shape ``(B, n, n)``;
    the result is ``(B, k)``.
    """
    return np.einsum("bkij,bij->bk", stacks, x, out=out)


def apply_adjoint_batch(coeffs: np.ndarray, stacks: np.ndarray,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-problem adjoint ``sum_k coeffs_bk A_bk`` — ``(B, n, n)``."""
    return np.einsum("bk,bkij->bij", coeffs, stacks, out=out)


def quad_gradient_batch(p: np.ndarray, x: np.ndarray, q: np.ndarray,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched quadratic-form gradient ``P_b x_b + q_b`` — ``(B, n)``."""
    out = np.einsum("bij,bj->bi", p, x, out=out)
    out += q
    return out


def quad_value_batch(p: np.ndarray, x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Batched quadratic value ``0.5 x_b^T P_b x_b + q_b^T x_b`` — ``(B,)``."""
    px = np.einsum("bij,bj->bi", p, x)
    return 0.5 * np.einsum("bi,bi->b", x, px) + np.einsum("bi,bi->b", q, x)


def outer_product_batch(v: np.ndarray) -> np.ndarray:
    """Batched Gram factorization product ``V_b V_b^T`` for ``(B, n, r)``
    factors — the Burer–Monteiro lift ``X = V V^T``."""
    return np.einsum("bir,bjr->bij", v, v)
