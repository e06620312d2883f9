"""Semidefinite programming by ADMM splitting.

The paper's Eq. 10 reformulates the trace-minimization problem as an SDP
and notes that "numerous SDP solvers (e.g., SDPT3 ...) [are] available".
Offline and from scratch, we implement the standard two-block ADMM for
SDPs in the form

    min <C, X>   s.t.  <A_i, X> = b_i,   <B_j, X> <= d_j,   X >= 0.

Inequalities carry scalar slacks ``s_j >= 0`` that live in the cone block
alongside the PSD projection, so the iteration stays a clean two-block
splitting:

* (X, s)-update: joint Euclidean projection of ``(Z - U - C/rho, t - v)``
  onto the affine subspace ``{A(X) = b, B(X) + s = d}`` (a precomputed
  small solve);
* (Z, t)-update: PSD projection of ``X + U`` and clipping of ``s + v``
  to the nonnegative orthant;
* scaled dual ascent on both blocks.

The constraint algebra runs on :mod:`repro.kernels.gram` — constraints
held as one ``(m, n, n)`` stack, the Gram matrix and every operator
application a single contraction — and the iteration loop works in a
preallocated :class:`~repro.kernels.workspace.SDPWorkspace`, so a sweep
performs no Python-level allocation beyond the unavoidable LAPACK calls.
The original per-constraint loops survive as a test oracle in
:mod:`repro.kernels.reference`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.convex.problem import SDPProblem, Solution
from repro.kernels.gram import (
    apply_adjoint,
    apply_operator,
    gram_matrix,
    stack_symmetric,
)
from repro.kernels.workspace import SDPWorkspace
from repro.linalg.matrix_utils import frobenius_inner
from repro.linalg.psd import project_psd, symmetrize
from repro.obs import current_span, profiled, record_solver_outcome
from repro.resilience.budget import Budget

__all__ = ["solve_sdp", "solve_sdp_general", "AffineSubspaceProjector"]


class AffineSubspaceProjector:
    """Euclidean projection onto ``{X symmetric : <A_i, X> = b_i}``.

    Precomputes the Gram matrix of the constraint operators so repeated
    projections inside ADMM cost a single small solve plus one matrix
    combination; the Gram and the operator/adjoint are stacked
    contractions over the ``(m, n, n)`` constraint stack.
    """

    def __init__(self, mats: list[np.ndarray], rhs: np.ndarray):
        self.stack = stack_symmetric(mats)
        self.rhs = np.asarray(rhs, dtype=np.float64).ravel()
        self.m = self.stack.shape[0]
        # pseudo-inverse tolerates linearly dependent constraints
        self._gram_pinv = (np.linalg.pinv(gram_matrix(self.stack)) if self.m
                           else np.zeros((0, 0)))

    def project(self, x: np.ndarray) -> np.ndarray:
        """min ||Y - X||_F s.t. <A_i, Y> = b_i."""
        x = symmetrize(x)
        if not self.m:
            return x
        lam = self._gram_pinv @ (apply_operator(self.stack, x) - self.rhs)
        return x - apply_adjoint(lam, self.stack)

    def residual(self, x: np.ndarray) -> float:
        if not self.m:
            return 0.0
        vals = apply_operator(self.stack, np.asarray(x, dtype=np.float64))
        return float(np.max(np.abs(vals - self.rhs)))


class _SlackAffineProjector:
    """Projection of ``(X, s)`` onto ``{A(X) = b, B(X) + s = d}``.

    Equality rows contribute their Gram entries; inequality rows carry a
    slack that adds an identity to their Gram block.  ``project_into``
    is allocation-free — it writes into the caller's
    :class:`~repro.kernels.workspace.SDPWorkspace` buffers.
    """

    def __init__(
        self,
        eq_mats: list[np.ndarray],
        eq_rhs: np.ndarray,
        ineq_mats: list[np.ndarray],
        ineq_rhs: np.ndarray,
    ):
        self.rhs = np.concatenate(
            [np.asarray(eq_rhs, dtype=np.float64).ravel(), np.asarray(ineq_rhs, dtype=np.float64).ravel()]
        )
        self.n_eq = len(eq_mats)
        self.n_ineq = len(ineq_mats)
        k = self.n_eq + self.n_ineq
        self.stack = stack_symmetric(list(eq_mats) + list(ineq_mats))
        gram = gram_matrix(self.stack)
        # slacks add identity on the inequality block
        for j in range(self.n_eq, k):
            gram[j, j] += 1.0
        self._gram_pinv = np.linalg.pinv(gram) if k else np.zeros((0, 0))

    def project_into(self, x_in: np.ndarray, s_in: np.ndarray,
                     ws: SDPWorkspace) -> None:
        """Project ``(x_in, s_in)`` writing the result into ``ws.x`` /
        ``ws.s`` using only workspace scratch."""
        np.add(x_in, x_in.T, out=ws.x)
        ws.x *= 0.5
        k = self.n_eq + self.n_ineq
        if k == 0:
            ws.s[...] = s_in
            return
        apply_operator(self.stack, ws.x, out=ws.vals)
        ws.vals[self.n_eq:] += s_in
        ws.vals -= self.rhs
        np.matmul(self._gram_pinv, ws.vals, out=ws.lam)
        apply_adjoint(ws.lam, self.stack, out=ws.corr)
        ws.x -= ws.corr
        np.subtract(s_in, ws.lam[self.n_eq:], out=ws.s)


@profiled("convex.sdp.solve")
def solve_sdp_general(
    c: np.ndarray,
    eq_mats: list[np.ndarray],
    eq_rhs: np.ndarray,
    ineq_mats: list[np.ndarray] | None = None,
    ineq_rhs: np.ndarray | None = None,
    rho: float = 1.0,
    max_iter: int = 8000,
    tol: float = 1e-7,
    raise_on_failure: bool = False,
    strict: bool = False,
    budget: Optional[Budget] = None,
    warm_start: Optional[np.ndarray] = None,
) -> Solution:
    """Solve ``min <C, X>`` s.t. ``<A_i,X> = b_i``, ``<B_j,X> <= d_j``,
    ``X >= 0`` by two-block ADMM with slack variables.

    Non-convergence follows the ``convex/`` convention: lenient by
    default; ``strict=True`` (or the older ``raise_on_failure``) raises
    :class:`ConvergenceError`.  A cooperative ``budget`` is charged one
    unit per ADMM sweep.  ``warm_start`` seeds both splitting blocks
    with a primal matrix ``X0`` (``(n, n)``, e.g. a failed faster rung's
    best iterate); mismatched shapes are ignored so ladders can hand
    down whatever they have.
    """
    if rho <= 0.0:
        raise ConfigurationError("ADMM penalty rho must be positive")
    strict = strict or raise_on_failure
    c = symmetrize(np.asarray(c, dtype=np.float64))
    n = c.shape[0]
    ineq_mats = ineq_mats or []
    ineq_rhs = np.zeros(len(ineq_mats)) if ineq_rhs is None else np.asarray(ineq_rhs, dtype=np.float64).ravel()
    projector = _SlackAffineProjector(
        eq_mats, np.asarray(eq_rhs, dtype=np.float64).ravel(), ineq_mats, ineq_rhs,
    )
    m_ineq = len(ineq_mats)

    ws = SDPWorkspace(n=n, k=len(eq_mats) + m_ineq, m_ineq=m_ineq)
    if warm_start is not None:
        x0 = np.asarray(warm_start, dtype=np.float64)
        if x0.shape == (n, n) and np.all(np.isfinite(x0)):
            ws.x[...] = symmetrize(x0)
            ws.z[...] = ws.x
    c_over_rho = c / rho
    scale = max(1.0, float(np.linalg.norm(c)))
    prim_res = np.inf
    for it in range(1, max_iter + 1):
        if budget is not None:
            budget.spend(1, context="solve_sdp_general")
        # (X, s)-update: project (z - u - c/rho, t - v) without allocating
        np.subtract(ws.z, ws.u, out=ws.mat_in)
        ws.mat_in -= c_over_rho
        np.subtract(ws.t, ws.v, out=ws.vec_in)
        projector.project_into(ws.mat_in, ws.vec_in, ws)
        # (Z, t)-update: cone projections (eigh allocates internally)
        np.add(ws.x, ws.u, out=ws.mat_tmp)
        z_new = project_psd(ws.mat_tmp)
        t_new = np.maximum(ws.s + ws.v, 0.0)
        np.subtract(z_new, ws.z, out=ws.mat_tmp)
        dual_res = (
            rho
            * (float(np.linalg.norm(ws.mat_tmp)) + float(np.linalg.norm(t_new - ws.t)))
            / scale
        )
        ws.z[...] = z_new
        ws.t[...] = t_new
        # scaled dual ascent
        ws.u += ws.x
        ws.u -= ws.z
        ws.v += ws.s
        ws.v -= ws.t
        np.subtract(ws.x, ws.z, out=ws.mat_tmp)
        prim_res = (
            float(np.linalg.norm(ws.mat_tmp)) + float(np.linalg.norm(ws.s - ws.t))
        ) / max(1.0, float(np.linalg.norm(ws.x)))
        if prim_res <= tol and dual_res <= tol:
            current_span().set(iterations=it, converged=True, residual=prim_res)
            record_solver_outcome("sdp", it, True, residual=prim_res)
            return Solution(
                x=ws.z.copy(), objective=frobenius_inner(c, ws.z),
                iterations=it, converged=True,
            )
    current_span().set(iterations=max_iter, converged=False,
                       residual=float(prim_res))
    record_solver_outcome("sdp", max_iter, False, residual=float(prim_res))
    if strict:
        raise ConvergenceError("SDP ADMM did not converge", iterations=max_iter, residual=prim_res)
    return Solution(
        x=ws.z.copy(),
        objective=frobenius_inner(c, ws.z),
        iterations=max_iter,
        converged=False,
        status="max_iter",
    )


def solve_sdp(
    problem: SDPProblem,
    rho: float = 1.0,
    max_iter: int = 5000,
    tol: float = 1e-7,
    raise_on_failure: bool = False,
    strict: bool = False,
    budget: Optional[Budget] = None,
    warm_start: Optional[np.ndarray] = None,
) -> Solution:
    """Solve a standard-form (equality-constrained) :class:`SDPProblem`."""
    return solve_sdp_general(
        problem.c,
        problem.constraint_mats,
        problem.constraint_rhs,
        rho=rho,
        max_iter=max_iter,
        tol=tol,
        strict=strict or raise_on_failure,
        budget=budget,
        warm_start=warm_start,
    )
