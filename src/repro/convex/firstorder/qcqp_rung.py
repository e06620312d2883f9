"""The firstorder rung of the QCQP degradation ladder.

Runs the same Shor lifting as the ``sdp`` rung (paper Eq. 7 -> Eq. 10)
but solves the lifted SDP with the Burer–Monteiro factorization instead
of interior point / ADMM, recovers a candidate from the dominant factor
column, projects it back onto the equality manifold (the
feasibility-projection pattern of Wang et al., arXiv:2407.03668), and
only returns when the whole pipeline *certifies*: the SDP solve must
carry its dual certificate and the recovered point must be feasible.
Anything less raises :class:`~repro.exceptions.CertificationError` so
:func:`repro.convex.qcqp.solve_qcqp_resilient` descends to the exact
barrier rung instead of serving a wrong answer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.convex.firstorder.burer_monteiro import solve_sdp_firstorder
from repro.convex.problem import QCQPProblem, Solution
from repro.exceptions import CertificationError
from repro.obs import current_span, profiled
from repro.resilience.budget import Budget

__all__ = ["solve_qcqp_firstorder"]


@profiled("convex.firstorder.qcqp")
def solve_qcqp_firstorder(
    problem: QCQPProblem,
    budget: Optional[Budget] = None,
    warm_start: Optional[np.ndarray] = None,
    feas_tol: float = 1e-5,
    cert_tol: float = 1e-3,
    max_iter: int = 2000,
    seed: int = 0,
) -> Solution:
    """Certified first-order solve of a (possibly nonconvex) QCQP.

    ``warm_start`` accepts either the previous rung's lifted matrix
    (``(n+1, n+1)``, e.g. the failed SDP rung's iterate) or a primal
    point (``(n,)``) — anything else is ignored, so the ladder can hand
    down whatever its last rung produced without shape bookkeeping.
    """
    from repro.convex.qcqp import _lift  # local: avoids a module cycle

    n = problem.dim
    obj = _lift(problem.objective.p, problem.objective.q, problem.objective.r, n)
    eq_mats = []
    eq_rhs = []
    e00 = np.zeros((n + 1, n + 1))
    e00[0, 0] = 1.0
    eq_mats.append(e00)
    eq_rhs.append(1.0)
    if problem.a is not None:
        for i in range(problem.a.shape[0]):
            m = np.zeros((n + 1, n + 1))
            m[0, 1:] = 0.5 * problem.a[i]
            m[1:, 0] = 0.5 * problem.a[i]
            eq_mats.append(m)
            eq_rhs.append(float(problem.b[i]))
    ineq_mats = [_lift(c.p, c.q, c.r, n) for c in problem.constraints]
    ineq_rhs = np.zeros(len(ineq_mats))

    lifted_ws = None
    if warm_start is not None:
        ws = np.asarray(warm_start, dtype=np.float64)
        if ws.shape == (n + 1, n + 1):
            lifted_ws = ws
        elif ws.shape == (n,):
            vec = np.concatenate([[1.0], ws])
            lifted_ws = np.outer(vec, vec)

    sol = solve_sdp_firstorder(
        obj, eq_mats, np.asarray(eq_rhs), ineq_mats or None,
        ineq_rhs if len(ineq_mats) else None,
        warm_start=lifted_ws, max_iter=max_iter, cert_tol=cert_tol,
        seed=seed, budget=budget,
    )
    lifted = sol.x
    # rank-1 recovery from the dominant eigenvector of the certified lift
    w, vecs = np.linalg.eigh(lifted)
    vec = vecs[:, -1] * np.sqrt(max(float(w[-1]), 0.0))
    x_rec = vec[1:] / vec[0] if abs(vec[0]) > 1e-9 else lifted[1:, 0]
    # feasibility projection: restore the equality manifold exactly
    if problem.a is not None:
        x_rec = x_rec + np.linalg.pinv(problem.a) @ (problem.b - problem.a @ x_rec)
    if not (np.all(np.isfinite(x_rec)) and problem.is_feasible(x_rec, tol=feas_tol)):
        raise CertificationError(
            "firstorder recovery is infeasible after projection",
            iterations=sol.iterations,
            iterate=x_rec,
        )
    objective = problem.objective.value(x_rec)
    gap = objective - sol.objective  # recovered value vs certified SDP bound
    current_span().set(iterations=sol.iterations, relaxation_gap=float(gap))
    return Solution(x=x_rec, objective=objective, iterations=sol.iterations,
                    converged=True, status="firstorder")
