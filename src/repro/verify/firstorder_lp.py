"""First-order fast path for the LP verifier: projected dual ascent.

Grade ``LINEAR``, bounding the *same* triangle-relaxation polytope as
:func:`repro.verify.lp_relax.lp_margin_lower_bound` (both build their LP
with :func:`repro.verify.lp_relax.build_margin_lp`) but without a
simplex: for any multipliers ``(y, z >= 0)`` the Lagrangian box
minimization is closed-form, so every iterate of projected supergradient
ascent is a *sound* lower bound by weak duality.  The method can
therefore stop any time and still answer honestly — it only sharpens.

Certification gate: the returned bound must be finite and no looser than
the interval (IBP) bound minus a slack — a first-order answer that lost
to the cheapest rung in the ladder is rejected with
:class:`~repro.exceptions.CertificationError` so the ladder descends to
a tighter method instead of serving a gratuitously weak bound.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import CertificationError
from repro.nn.network import Sequential
from repro.obs import current_span, profiled, record_solver_outcome
from repro.resilience.budget import Budget
from repro.verify.interval import ibp_margin_lower_bound
from repro.verify.lp_relax import build_margin_lp

__all__ = ["firstorder_margin_lower_bound"]


@profiled("verify.firstorder_lp")
def firstorder_margin_lower_bound(
    net: Sequential,
    x0: np.ndarray,
    eps: float,
    c: np.ndarray,
    d: float = 0.0,
    bounds_method: str = "crown",
    max_iter: int = 400,
    patience: int = 60,
    cert_slack: float = 1e-6,
    budget: Optional[Budget] = None,
) -> float:
    """Sound lower bound on ``min over ball of c^T f(x) + d`` by
    projected supergradient ascent on the triangle-LP dual.

    For the LP ``min c^T v  s.t.  A v = b, G v <= h, lo <= v <= hi``
    (every variable compact via ``tight_boxes``) the dual function

    ``g(y, z) = -y^T b - z^T h + sum_j min_{v_j in [lo_j, hi_j]} r_j v_j``

    with reduced cost ``r = c + A^T y + G^T z`` is concave and evaluable
    in one mat-vec sweep; its value lower-bounds the LP optimum — hence
    the true margin — for *every* ``(y, z >= 0)``.  Normalized
    diminishing-step ascent keeps the best value seen and stops early
    after ``patience`` iterations without improvement.  A cooperative
    ``budget`` is charged one unit per iteration.

    Raises :class:`CertificationError` when the bound is non-finite or
    loses to the IBP bound by more than ``cert_slack``.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    c = np.asarray(c, dtype=np.float64).ravel()
    lp = build_margin_lp(net, x0, eps, c, bounds_method=bounds_method,
                         tight_boxes=True)

    a, b = lp.a, lp.b
    g = lp.g if lp.g is not None else np.zeros((0, lp.c.size))
    h = lp.h if lp.h is not None else np.zeros(0)
    lo, hi, cvec = lp.lo, lp.hi, lp.c
    at, gt = np.ascontiguousarray(a.T), np.ascontiguousarray(g.T)
    mid = 0.5 * (lo + hi)

    y = np.zeros(b.size)
    z = np.zeros(h.size)
    best = -np.inf
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        if budget is not None:
            budget.spend(1, context="firstorder_lp")
        r = cvec + at @ y + gt @ z
        v = np.where(r > 0.0, lo, np.where(r < 0.0, hi, mid))
        gval = float(r @ v) - float(y @ b) - float(z @ h)
        if not np.isfinite(best) or gval > best + 1e-12 * (1.0 + abs(best)):
            best = gval
            stall = 0
        else:
            stall += 1
            if stall >= patience:
                break
        gy = a @ v - b
        gz = g @ v - h
        norm = float(np.sqrt(gy @ gy + gz @ gz))
        step = 1.0 / max(norm * np.sqrt(it), 1e-12)
        y = y + step * gy
        z = np.maximum(0.0, z + step * gz)

    bound = best + d
    floor = ibp_margin_lower_bound(net, x0, eps, c, d)
    certified = bool(np.isfinite(bound) and bound >= floor - cert_slack)
    current_span().set(iterations=it, converged=certified,
                       margin=float(bound), ibp_floor=float(floor))
    record_solver_outcome("firstorder_lp", it, certified)
    if not certified:
        raise CertificationError(
            "first-order LP dual bound is uncertified "
            f"(bound {bound:.6e} vs IBP floor {floor:.6e})",
            iterations=it,
            residual=float(floor - bound) if np.isfinite(bound) else np.inf,
        )
    return float(bound)
