"""Batched projected/accelerated gradient solvers (FISTA with restart).

The QP-shaped rungs of the relaxation chain are box-constrained convex
quadratics ``min 0.5 x^T P x + q^T x  s.t.  lo <= x <= hi``.  Bunel et
al. (arXiv:2010.14322) observe that this problem class needs no interior
point: a projected accelerated gradient method (Nesterov momentum with
the O'Donoghue–Candès adaptive restart) converges at ``O(1/k^2)`` and
every iteration is a single matrix–vector product plus a clip — which
vectorizes over a whole *stack* of problems as one batched contraction
(:func:`repro.kernels.gram.quad_gradient_batch`).

Every answer is **certified** before it is returned: from the final
gradient ``g = P x + q`` we build exact KKT multipliers
``lam = max(g, 0)`` / ``mu = max(-g, 0)`` (stationarity then holds by
construction wherever the box is finite) and evaluate the Lagrangian
dual in closed form,

    d(lam, mu) = -0.5 x^T P x + lam^T lo - mu^T hi,

so ``gap = primal - dual`` is a sound duality-gap bound by weak duality.
An answer whose relative gap exceeds ``cert_tol`` is *not certified*;
:func:`box_qp_fista` raises :class:`~repro.exceptions.CertificationError`
instead of returning it, so a fallback ladder descends to the exact rung
rather than serving a wrong answer.

Determinism contract: both the single-problem and the batched entry
points route through the same fixed-order einsum kernels, and finished
problems are frozen by a convergence mask, so the trajectory of problem
``b`` in a batch of 256 is bit-identical to solving it alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.convex.problem import Solution
from repro.exceptions import CertificationError, DimensionError
from repro.kernels.gram import quad_gradient_batch
from repro.obs import current_span, profiled
from repro.resilience.budget import Budget

__all__ = ["BatchQPResult", "box_qp_fista_batch", "box_qp_fista"]


@dataclass(frozen=True)
class BatchQPResult:
    """Outcome of one batched box-QP solve, with per-problem certificates.

    ``certified[b]`` is True only when problem ``b`` converged *and* its
    closed-form duality gap is within tolerance — the only answers the
    fast path is allowed to serve.
    """

    x: np.ndarray            # (B, n) final (always box-feasible) iterates
    objective: np.ndarray    # (B,) primal objectives 0.5 x'Px + q'x
    dual_bound: np.ndarray   # (B,) closed-form Lagrangian dual values
    gap: np.ndarray          # (B,) primal - dual (>= 0 up to round-off)
    iterations: np.ndarray   # (B,) iterations until frozen
    converged: np.ndarray    # (B,) bool
    certified: np.ndarray    # (B,) bool

    @property
    def n_uncertified(self) -> int:
        return int(np.sum(~self.certified))


@profiled("convex.firstorder.box_qp_batch")
def box_qp_fista_batch(
    p: np.ndarray,
    q: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    x0: Optional[np.ndarray] = None,
    max_iter: int = 500,
    tol: float = 1e-9,
    cert_tol: float = 1e-6,
    budget: Optional[Budget] = None,
) -> BatchQPResult:
    """Solve ``B`` box QPs at once by FISTA with adaptive restart.

    ``p`` is ``(B, n, n)`` (each slice PSD — convex instances only),
    ``q`` is ``(B, n)``, ``lo``/``hi`` broadcast to ``(B, n)`` (entries
    may be infinite; certification then requires the matching multiplier
    to vanish).  ``x0`` warm-starts the iteration (clipped into the box).
    A cooperative ``budget`` is charged one unit per batched sweep.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 3 or q.ndim != 2 or p.shape[:2] != (q.shape[0], q.shape[1]):
        raise DimensionError(f"expected p (B,n,n) and q (B,n); got {p.shape} / {q.shape}")
    nb, n = q.shape
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), (nb, n)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), (nb, n)).copy()

    # one-time per-problem Lipschitz constants (batched eigh applies the
    # same LAPACK routine per slice, so L_b is batch-size independent)
    if n:
        lips = np.maximum(np.abs(np.linalg.eigvalsh(p)).max(axis=1), 1e-12)
    else:
        lips = np.ones(nb)
    step = (1.0 / lips)[:, None]

    x = np.clip(np.zeros((nb, n)) if x0 is None
                else np.asarray(x0, dtype=np.float64).reshape(nb, n), lo, hi)
    y = x.copy()
    t = np.ones(nb)
    active = np.ones(nb, dtype=bool)
    iterations = np.zeros(nb, dtype=np.int64)

    for _ in range(max_iter):
        if budget is not None:
            budget.spend(1, context="box_qp_fista_batch")
        if not np.any(active):
            break
        g = quad_gradient_batch(p, y, q)
        x_new = np.clip(y - step * g, lo, hi)
        diff = x_new - x
        # O'Donoghue–Candès restart: momentum fights the descent direction
        restart = np.einsum("bi,bi->b", y - x_new, diff) > 0.0
        t_cur = np.where(restart, 1.0, t)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_cur * t_cur))
        beta = ((t_cur - 1.0) / t_next)[:, None]
        y_new = x_new + beta * diff
        # freeze finished problems so trajectories are batch-independent
        moved = np.max(np.abs(diff), axis=1, initial=0.0)
        scale = 1.0 + np.max(np.abs(x_new), axis=1, initial=0.0)
        done = moved <= tol * scale
        upd = active[:, None]
        x = np.where(upd, x_new, x)
        y = np.where(upd, y_new, y)
        t = np.where(active, t_next, t)
        iterations = iterations + active
        active = active & ~done

    converged = ~active
    # --- closed-form duality-gap certification -------------------------
    g = quad_gradient_batch(p, x, q)
    fin_lo = np.isfinite(lo)
    fin_hi = np.isfinite(hi)
    lam = np.where(fin_lo, np.maximum(g, 0.0), 0.0)
    mu = np.where(fin_hi, np.maximum(-g, 0.0), 0.0)
    # stationarity residual is nonzero only where an infinite bound
    # suppressed its multiplier — the dual is then not finitely evaluable
    stat = np.max(np.abs(g - lam + mu), axis=1) if n else np.zeros(nb)
    px = np.einsum("bij,bj->bi", p, x)
    xpx = np.einsum("bi,bi->b", x, px)
    primal = 0.5 * xpx + np.einsum("bi,bi->b", q, x)
    dual = (-0.5 * xpx
            + np.einsum("bi,bi->b", lam, np.where(fin_lo, lo, 0.0))
            - np.einsum("bi,bi->b", mu, np.where(fin_hi, hi, 0.0)))
    pscale = 1.0 + np.abs(primal)
    dual = np.where(stat <= 1e-9 * pscale, dual, -np.inf)
    gap = primal - dual
    certified = (converged & np.isfinite(primal) & np.isfinite(dual)
                 & (gap <= cert_tol * pscale))
    current_span().set(batch=nb, converged=int(np.sum(converged)),
                       certified=int(np.sum(certified)))
    return BatchQPResult(x=x, objective=primal, dual_bound=dual, gap=gap,
                         iterations=iterations, converged=converged,
                         certified=certified)


def box_qp_fista(
    p: np.ndarray,
    q: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    x0: Optional[np.ndarray] = None,
    max_iter: int = 500,
    tol: float = 1e-9,
    cert_tol: float = 1e-6,
    certify: bool = True,
    budget: Optional[Budget] = None,
) -> Solution:
    """Single-problem form of :func:`box_qp_fista_batch` (a batch of one,
    so the trajectory is bit-identical to the batched solve).

    With ``certify=True`` (default) an uncertified answer raises
    :class:`~repro.exceptions.CertificationError` carrying the best
    iterate (``err.iterate``) for warm-start carry-down.
    """
    q1 = np.asarray(q, dtype=np.float64).ravel()
    n = q1.size
    res = box_qp_fista_batch(
        np.asarray(p, dtype=np.float64).reshape(1, n, n), q1[None, :],
        np.broadcast_to(np.asarray(lo, dtype=np.float64), (n,))[None, :],
        np.broadcast_to(np.asarray(hi, dtype=np.float64), (n,))[None, :],
        x0=None if x0 is None else np.asarray(x0, dtype=np.float64).reshape(1, n),
        max_iter=max_iter, tol=tol, cert_tol=cert_tol,
        budget=budget,
    )
    if certify and not bool(res.certified[0]):
        raise CertificationError(
            f"box QP answer not certified (gap {float(res.gap[0]):.3e}, "
            f"converged={bool(res.converged[0])})",
            iterations=int(res.iterations[0]),
            residual=float(res.gap[0]),
            iterate=res.x[0].copy(),
        )
    return Solution(x=res.x[0], objective=float(res.objective[0]),
                    iterations=int(res.iterations[0]),
                    converged=bool(res.converged[0]), status="firstorder")
