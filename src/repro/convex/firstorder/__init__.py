"""First-order fast path for the relaxation chain.

The paper's Eq. 8–10 rank -> trace -> SDP chain and the verification LPs
are stagewise convex programs; every rung of the production ladders used
to pay interior-point or per-iteration eigendecomposition costs even for
the thousands of small, near-identical solves the serving layer
generates.  This package is the gradient-only backend:

* :mod:`~repro.convex.firstorder.gradient` — batched projected FISTA
  (Nesterov momentum + adaptive restart) for the box-QP shaped rungs,
  certified by a closed-form Lagrangian duality gap;
* :mod:`~repro.convex.firstorder.burer_monteiro` — the low-rank
  ``X = V V^T`` factorization solver for the SDP rung, gradient steps on
  ``V`` with rank escalation on stall and an end-of-solve dual
  certificate (no eigendecomposition inside the loop);
* :mod:`~repro.convex.firstorder.qcqp_rung` — the certified
  Shor-lift-solve-recover-project pipeline slotted between the ``sdp``
  and barrier rungs of :func:`repro.convex.qcqp.solve_qcqp_resilient`.

Everything runs on the :mod:`repro.kernels` vectorized kernels and
answers either *certified* or not at all
(:class:`~repro.exceptions.CertificationError`), so fallback ladders
degrade honestly instead of returning a fast wrong answer.
"""

from repro.convex.firstorder.burer_monteiro import (
    BatchSDPResult,
    solve_sdp_firstorder,
    solve_sdp_firstorder_batch,
)
from repro.convex.firstorder.gradient import (
    BatchQPResult,
    box_qp_fista,
    box_qp_fista_batch,
)
from repro.convex.firstorder.qcqp_rung import solve_qcqp_firstorder

__all__ = [
    "BatchQPResult",
    "BatchSDPResult",
    "box_qp_fista",
    "box_qp_fista_batch",
    "solve_qcqp_firstorder",
    "solve_sdp_firstorder",
    "solve_sdp_firstorder_batch",
]
