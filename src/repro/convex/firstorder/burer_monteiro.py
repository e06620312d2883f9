"""Low-rank Burer–Monteiro factorization solver for the SDP rung.

Instead of projecting onto the PSD cone with a per-iteration
eigendecomposition (the ADMM rung's dominant cost), the SDP

    min <C, X>  s.t.  <A_i, X> = b_i,  <B_j, X> <= d_j,  X >= 0

is factored ``X = V V^T`` with ``V`` an ``n x r`` matrix, ``r << n``, and
solved by an augmented-Lagrangian method taking plain gradient steps on
``V`` (SDPLR; Burer & Monteiro 2003).  PSD-ness holds *by construction*,
so the iteration is eigendecomposition-free.  When the factorization
rank is too small the method stalls on a spurious stationary point; the
solver then **escalates the rank** by activating one more (seeded,
per-problem) column of ``V`` — zero columns have identically zero
gradient, so inactive columns cost nothing and activating one never
disturbs another problem's trajectory in a batch.

Certification: the final augmented-Lagrangian multiplier estimates
``(y, z >= 0)`` give the dual slack matrix ``S = C - A*(y) + B*(z)``.
For any such pair, ``b^T y - d^T z`` lower-bounds the SDP optimum
whenever ``S >= 0`` (weak duality), so the answer is certified only when
the primal residuals, the duality gap *and* ``lambda_min(S)`` are within
tolerance (one batched ``eigvalsh`` at the very end — never inside the
loop).  With a caller-supplied ``trace_ub`` on the optimal ``tr(X)`` a
slightly indefinite slack is corrected by ``lambda_min(S) * trace_ub``
instead of rejected.  Uncertified answers raise
:class:`~repro.exceptions.CertificationError` so the ladder descends.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.convex.problem import Solution
from repro.exceptions import CertificationError, ConfigurationError, DimensionError
from repro.kernels.gram import (
    apply_adjoint_batch,
    apply_operator_batch,
    outer_product_batch,
    stack_symmetric,
)
from repro.obs import current_span, profiled
from repro.parallel.executor import derive_seed
from repro.resilience.budget import Budget

__all__ = ["BatchSDPResult", "solve_sdp_firstorder_batch", "solve_sdp_firstorder"]

#: Armijo sufficient-decrease constant, step halving factor, and the
#: non-monotone window (Grippo et al.) that lets Barzilai–Borwein steps
#: overshoot locally without losing global decrease
_ARMIJO = 1e-4
_STEP_DOWN = 0.5
_NM_WINDOW = 8
#: inner iterations without an outer event before one is forced
_STALL_WINDOW = 300


@dataclass(frozen=True)
class BatchSDPResult:
    """Outcome of one batched Burer–Monteiro solve with certificates."""

    x: np.ndarray             # (B, n, n) factored primal X = V V^T
    v: np.ndarray             # (B, n, r_max) final factors
    objective: np.ndarray     # (B,) <C, X>
    dual_bound: np.ndarray    # (B,) certified lower bounds (-inf if none)
    gap: np.ndarray           # (B,) objective - dual_bound
    eq_residual: np.ndarray   # (B,) max |<A_i,X> - b_i|
    ineq_violation: np.ndarray  # (B,) max(<B_j,X> - d_j, 0)
    min_dual_eig: np.ndarray  # (B,) lambda_min of the dual slack S
    rank: np.ndarray          # (B,) active factorization ranks
    iterations: np.ndarray    # (B,)
    converged: np.ndarray     # (B,) bool
    certified: np.ndarray     # (B,) bool

    @property
    def n_uncertified(self) -> int:
        return int(np.sum(~self.certified))


def _merit(cmats, eq_stacks, eq_rhs, ineq_stacks, ineq_rhs, y, z, sigma, v):
    """Augmented-Lagrangian value, residuals and the multiplier shifts."""
    x = outer_product_batch(v)
    eqr = apply_operator_batch(eq_stacks, x) - eq_rhs
    iv = apply_operator_batch(ineq_stacks, x) - ineq_rhs
    zhat = np.maximum(0.0, z + sigma[:, None] * iv)
    obj = np.einsum("bij,bij->b", cmats, x)
    phi = (obj
           - np.einsum("bk,bk->b", y, eqr)
           + 0.5 * sigma * np.einsum("bk,bk->b", eqr, eqr)
           + (0.5 / np.maximum(sigma, 1e-30))
           * (np.einsum("bk,bk->b", zhat, zhat)
              - np.einsum("bk,bk->b", z, z)))
    return x, eqr, iv, zhat, obj, phi


@profiled("convex.firstorder.bm_sdp_batch")
def solve_sdp_firstorder_batch(
    c: np.ndarray,
    eq_stacks: np.ndarray,
    eq_rhs: np.ndarray,
    ineq_stacks: Optional[np.ndarray] = None,
    ineq_rhs: Optional[np.ndarray] = None,
    rank: int = 2,
    max_rank: Optional[int] = None,
    max_iter: int = 2000,
    inner_tol: float = 1e-6,
    feas_tol: float = 1e-6,
    cert_tol: float = 1e-4,
    sigma0: float = 2.0,
    seed: int = 0,
    trace_ub: Optional[float] = None,
    v0: Optional[np.ndarray] = None,
    budget: Optional[Budget] = None,
) -> BatchSDPResult:
    """Solve ``B`` small SDPs at once by batched Burer–Monteiro.

    ``c`` is ``(B, n, n)``; ``eq_stacks`` ``(B, k_e, n, n)`` with rhs
    ``(B, k_e)`` and likewise for the inequalities.  All problems in a
    batch share ``(n, k_e, k_i)`` — ragged batches belong in separate
    calls.  ``v0`` (``(B, n, r0)``) warm-starts the factors; otherwise
    each problem draws its initial (and rank-escalation) factor columns
    from a seed derived from its own *content*, so the trajectory of one
    problem never depends on its batch position or on what else shares
    the batch.  A cooperative ``budget`` is charged one unit per batched
    sweep.
    """
    if sigma0 <= 0.0:
        raise ConfigurationError("sigma0 must be positive (it divides the "
                                 "omega/eta gate tethers)")
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 3 or c.shape[1] != c.shape[2]:
        raise DimensionError(f"expected c of shape (B, n, n); got {c.shape}")
    nb, n = c.shape[0], c.shape[1]
    c = 0.5 * (c + np.transpose(c, (0, 2, 1)))
    eq_stacks = np.asarray(eq_stacks, dtype=np.float64).reshape(nb, -1, n, n)
    eq_rhs = np.asarray(eq_rhs, dtype=np.float64).reshape(nb, -1)
    if ineq_stacks is None:
        ineq_stacks = np.zeros((nb, 0, n, n))
        ineq_rhs = np.zeros((nb, 0))
    else:
        ineq_stacks = np.asarray(ineq_stacks, dtype=np.float64).reshape(nb, -1, n, n)
        ineq_rhs = np.asarray(ineq_rhs, dtype=np.float64).reshape(nb, -1)

    r_max = n if max_rank is None else max(1, min(int(max_rank), n))
    # floor the starting rank at the Barvinok–Pataki bound: an extreme
    # optimal X can need rank r with r(r+1)/2 >= m, and starting below
    # it makes spurious stationary points generic rather than rare
    m_total = eq_rhs.shape[1] + ineq_rhs.shape[1]
    r_pataki = int(np.ceil((np.sqrt(8.0 * m_total + 1.0) - 1.0) / 2.0))
    r0 = max(1, min(max(int(rank), r_pataki), r_max))
    # per-problem seeded init columns keyed by problem *content*, not
    # batch position: initializing or escalating problem b injects the
    # same values whether it is solved alone or inside any batch
    stored = np.empty((nb, n, r_max))
    for b in range(nb):
        if budget is not None:
            budget.spend(1, context="solve_sdp_firstorder_batch.seed")
        h = hashlib.sha256()
        for arr in (c[b], eq_stacks[b], eq_rhs[b], ineq_stacks[b], ineq_rhs[b]):
            h.update(np.ascontiguousarray(arr).tobytes())
        content = int.from_bytes(h.digest()[:8], "little")
        rng = np.random.default_rng(derive_seed(seed, content, "firstorder.bm"))
        stored[b] = rng.standard_normal((n, r_max)) / np.sqrt(max(n, 1))
    v = np.zeros((nb, n, r_max))
    ranks = np.full(nb, r0, dtype=np.int64)
    if v0 is not None:
        v0 = np.asarray(v0, dtype=np.float64).reshape(nb, n, -1)
        rw = min(v0.shape[2], r_max)
        v[:, :, :rw] = v0[:, :, :rw]
        ranks[:] = max(r0, rw)
    else:
        v[:, :, :r0] = stored[:, :, :r0]

    y = np.zeros((nb, eq_rhs.shape[1]))
    z = np.zeros((nb, ineq_rhs.shape[1]))
    sigma = np.full(nb, float(sigma0))
    cnorm = np.sqrt(np.einsum("bij,bij->b", c, c))
    step = 0.1 / (1.0 + cnorm)
    # safeguarded augmented-Lagrangian schedule (Conn–Gould–Toint):
    # omega gates the inner gradient, eta_feas gates whether a finished
    # inner solve is allowed to update the multipliers at all
    omega = np.full(nb, 1.0 / max(float(sigma0), 1e-30))
    eta_feas = np.full(nb, 1.0 / max(float(sigma0), 1e-30) ** 0.1)
    rhs_scale = 1.0 + np.maximum(
        np.max(np.abs(eq_rhs), axis=1, initial=0.0),
        np.max(np.abs(ineq_rhs), axis=1, initial=0.0))
    noimp = np.zeros(nb, dtype=np.int64)
    stall = np.zeros(nb, dtype=np.int64)
    active = np.ones(nb, dtype=bool)
    iterations = np.zeros(nb, dtype=np.int64)
    # Barzilai–Borwein memory (valid only between multiplier updates)
    prev_v = np.zeros_like(v)
    prev_g = np.zeros_like(v)
    have_bb = np.zeros(nb, dtype=bool)
    phi_ring = np.full((nb, _NM_WINDOW), np.inf)

    # cached merit state at the current v (one fresh merit evaluation per
    # iteration: the trial's; accepted trials *become* the cached state)
    x, eqr, iv, zhat, obj, phi = _merit(
        c, eq_stacks, eq_rhs, ineq_stacks, ineq_rhs, y, z, sigma, v)

    for it in range(max_iter):
        if budget is not None:
            budget.spend(1, context="solve_sdp_firstorder_batch")
        if not np.any(active):
            break
        yhat = y - sigma[:, None] * eqr
        s = (c - apply_adjoint_batch(yhat, eq_stacks)
             + apply_adjoint_batch(zhat, ineq_stacks))
        g = 2.0 * np.einsum("bij,bjr->bir", s, v)
        gnorm2 = np.einsum("bir,bir->b", g, g)
        gnorm = np.sqrt(gnorm2)
        vscale = 1.0 + np.einsum("bir,bir->b", v, v)

        # spectral (BB1) step, safeguarded into [1e-10, 1e6]
        if np.any(have_bb):
            sk = v - prev_v
            yk = g - prev_g
            sy = np.einsum("bir,bir->b", sk, yk)
            ss = np.einsum("bir,bir->b", sk, sk)
            bb = ss / np.where(np.abs(sy) > 1e-300, sy, 1e-300)
            ok = have_bb & (sy > 1e-14 * np.sqrt(ss * np.einsum("bir,bir->b", yk, yk) + 1e-300))
            step = np.where(ok, np.clip(bb, 1e-10, 1e6), step)

        trial = v - step[:, None, None] * g
        tx, teqr, tiv, tzhat, tobj, phi_t = _merit(
            c, eq_stacks, eq_rhs, ineq_stacks, ineq_rhs, y, z, sigma, trial)
        ref_phi = np.maximum(np.max(phi_ring, axis=1), phi)
        accept = phi_t <= ref_phi - _ARMIJO * step * gnorm2
        move = active & accept
        prev_v = np.where(move[:, None, None], v, prev_v)
        prev_g = np.where(move[:, None, None], g, prev_g)
        # BB only ever fires right after an accepted move; a rejection
        # must keep its halved step until the line search succeeds again
        have_bb = move
        m3 = move[:, None, None]
        v = np.where(m3, trial, v)
        x = np.where(m3, tx, x)
        eqr = np.where(move[:, None], teqr, eqr)
        iv = np.where(move[:, None], tiv, iv)
        zhat = np.where(move[:, None], tzhat, zhat)
        obj = np.where(move, tobj, obj)
        phi = np.where(move, phi_t, phi)
        step = np.where(active & ~accept, step * _STEP_DOWN, step)
        phi_ring[:, it % _NM_WINDOW] = phi
        iterations = iterations + active

        # inner problem solved to the current gate -> outer update.
        # gnorm here is the gradient at the *pre-step* iterate, matching
        # the (yhat, zhat) shifts a multiplier update would promote.  A
        # problem whose inner solve stalls past the window is *forced*
        # into a (never-good) outer event so sigma/rank can still move.
        stall = stall + active
        conv_inner = active & (gnorm <= np.maximum(omega, inner_tol) * vscale)
        forced = active & (stall >= _STALL_WINDOW) & ~conv_inner
        inner_done = conv_inner | forced
        if np.any(inner_done):
            feas = np.maximum(np.max(np.abs(eqr), axis=1, initial=0.0),
                              np.max(np.maximum(iv, 0.0), axis=1, initial=0.0))
            stall = np.where(inner_done, 0, stall)
            # feasibility met its sigma-tied gate: promote the shifts to
            # multipliers and tighten both gates (sigma unchanged)
            good = conv_inner & (feas <= eta_feas * rhs_scale)
            y = np.where(good[:, None], y - sigma[:, None] * eqr, y)
            z = np.where(good[:, None],
                         np.maximum(0.0, z + sigma[:, None] * iv), z)
            omega = np.where(good, omega / sigma, omega)
            eta_feas = np.where(good,
                                eta_feas / np.maximum(sigma, 1e-30) ** 0.9,
                                eta_feas)
            noimp = np.where(good, 0, noimp)
            # feasibility missed the gate: keep the multipliers (a sloppy
            # update would poison them), raise sigma, re-tether the gates
            bad = inner_done & ~good
            # the clip pins sigma inside [sigma0, 1e4] for every branch,
            # keeping every 1/sigma tether finite
            sigma = np.clip(np.where(bad, sigma * 4.0, sigma),
                            float(sigma0), 1e4)
            noimp = np.where(bad, noimp + 1, noimp)
            omega = np.where(bad, 1.0 / sigma, omega)
            eta_feas = np.where(bad, 1.0 / np.maximum(sigma, 1e-30) ** 0.1,
                                eta_feas)
            # persistently stalled while infeasible -> escalate the rank
            esc = bad & (noimp >= 2) & (ranks < r_max)
            idx = np.nonzero(esc)[0]
            if idx.size:
                v[idx, :, ranks[idx]] = stored[idx, :, ranks[idx]]
                ranks[idx] += 1
                noimp[idx] = 0
            # outer change invalidates the BB memory; restart the step
            # conservatively (the AL gradient stiffens with sigma)
            have_bb = have_bb & ~inner_done
            step = np.where(inner_done,
                            0.1 / ((1.0 + cnorm) * (1.0 + np.sqrt(sigma))),
                            step)
            # stop on a *cheap* certificate estimate (no eigh in-loop):
            # the updated multipliers give the dual value directly, and
            # both gates sit well inside the final certification gates
            dual_est = (np.einsum("bk,bk->b", eq_rhs, y)
                        - np.einsum("bk,bk->b", ineq_rhs, z))
            gap_ok = np.abs(obj - dual_est) <= cert_tol * (1.0 + np.abs(obj))
            done = good & (feas <= 5.0 * feas_tol * rhs_scale) \
                & ((gnorm <= inner_tol * vscale) | gap_ok)
            active = active & ~done
            # refresh the stale cached state: escalated rows changed v
            # (full recompute), the rest only changed multipliers
            # (closed-form refresh from the cached residuals)
            if idx.size:
                rx, reqr, riv, rzhat, robj, rphi = _merit(
                    c, eq_stacks, eq_rhs, ineq_stacks, ineq_rhs,
                    y, z, sigma, v)
                e3 = esc[:, None, None]
                x = np.where(e3, rx, x)
                eqr = np.where(esc[:, None], reqr, eqr)
                iv = np.where(esc[:, None], riv, iv)
                obj = np.where(esc, robj, obj)
            zh = np.maximum(0.0, z + sigma[:, None] * iv)
            ph = (obj
                  - np.einsum("bk,bk->b", y, eqr)
                  + 0.5 * sigma * np.einsum("bk,bk->b", eqr, eqr)
                  + (0.5 / sigma) * (np.einsum("bk,bk->b", zh, zh)
                                     - np.einsum("bk,bk->b", z, z)))
            zhat = np.where(inner_done[:, None], zh, zhat)
            phi = np.where(inner_done, ph, phi)
            # the refreshed merit is the only valid non-monotone
            # reference after an outer change — never +inf, which would
            # blind the line search to a divergent first step
            phi_ring = np.where(inner_done[:, None], phi[:, None], phi_ring)

    converged = ~active
    # --- dual certification (single batched eigh, outside the loop;
    # the cached merit state is current for the final iterate) ----------
    yhat = y - sigma[:, None] * eqr
    s = (c - apply_adjoint_batch(yhat, eq_stacks)
         + apply_adjoint_batch(zhat, ineq_stacks))
    s = 0.5 * (s + np.transpose(s, (0, 2, 1)))
    min_eig = (np.linalg.eigvalsh(s)[:, 0] if n
               else np.zeros(nb))
    eq_res = np.max(np.abs(eqr), axis=1, initial=0.0)
    ineq_vio = np.max(np.maximum(iv, 0.0), axis=1, initial=0.0)
    dual = (np.einsum("bk,bk->b", eq_rhs, yhat)
            - np.einsum("bk,bk->b", ineq_rhs, zhat))
    s_scale = 1.0 + cnorm
    if trace_ub is not None:
        dual = dual + np.minimum(min_eig, 0.0) * float(trace_ub)
        psd_ok = np.ones(nb, dtype=bool)
    else:
        psd_ok = min_eig >= -cert_tol * s_scale
        dual = np.where(psd_ok, dual, -np.inf)
    gap = obj - dual
    pscale = 1.0 + np.abs(obj)
    certified = (converged & psd_ok
                 & (eq_res <= feas_tol * rhs_scale * 10.0)
                 & (ineq_vio <= feas_tol * rhs_scale * 10.0)
                 & np.isfinite(gap) & (gap <= cert_tol * pscale * 10.0))
    current_span().set(batch=nb, converged=int(np.sum(converged)),
                       certified=int(np.sum(certified)),
                       max_rank=int(np.max(ranks, initial=0)))
    return BatchSDPResult(
        x=x, v=v, objective=obj, dual_bound=dual, gap=gap,
        eq_residual=eq_res, ineq_violation=ineq_vio, min_dual_eig=min_eig,
        rank=ranks, iterations=iterations, converged=converged,
        certified=certified)


def solve_sdp_firstorder(
    c: np.ndarray,
    eq_mats: Sequence[np.ndarray],
    eq_rhs: np.ndarray,
    ineq_mats: Optional[Sequence[np.ndarray]] = None,
    ineq_rhs: Optional[np.ndarray] = None,
    certify: bool = True,
    warm_start: Optional[np.ndarray] = None,
    **kwargs,
) -> Solution:
    """Single-problem Burer–Monteiro solve (a batch of one).

    ``warm_start`` accepts a primal matrix ``X0`` (``(n, n)``); its
    leading eigenpairs seed the factor ``V`` — the one eigendecomposition
    happens before the loop, not inside it.  Remaining keyword arguments
    go to :func:`solve_sdp_firstorder_batch`.  With ``certify=True`` an
    uncertified answer raises
    :class:`~repro.exceptions.CertificationError` carrying the primal
    iterate for warm-start carry-down.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    eq_stack = stack_symmetric(list(eq_mats), n=n)[None]
    eq_b = np.asarray(eq_rhs, dtype=np.float64).ravel()[None]
    ineq_stack = None
    ineq_d = None
    if ineq_mats is not None and len(ineq_mats):
        ineq_stack = stack_symmetric(list(ineq_mats), n=n)[None]
        ineq_d = (np.zeros(len(ineq_mats)) if ineq_rhs is None
                  else np.asarray(ineq_rhs, dtype=np.float64).ravel())[None]
    v0 = None
    if warm_start is not None:
        x0 = np.asarray(warm_start, dtype=np.float64)
        if x0.shape == (n, n):
            w, vecs = np.linalg.eigh(0.5 * (x0 + x0.T))
            r = max(1, int(kwargs.get("rank", 2)))
            cols = vecs[:, ::-1][:, :r] * np.sqrt(np.maximum(w[::-1][:r], 0.0))
            v0 = cols[None]
    res = solve_sdp_firstorder_batch(
        c[None], eq_stack, eq_b, ineq_stack, ineq_d, v0=v0, **kwargs)
    if certify and not bool(res.certified[0]):
        raise CertificationError(
            "Burer–Monteiro answer not certified "
            f"(gap {float(res.gap[0]):.3e}, eq residual "
            f"{float(res.eq_residual[0]):.3e}, min dual eig "
            f"{float(res.min_dual_eig[0]):.3e})",
            iterations=int(res.iterations[0]),
            residual=float(res.eq_residual[0]),
            iterate=res.x[0].copy(),
        )
    return Solution(x=res.x[0], objective=float(res.objective[0]),
                    iterations=int(res.iterations[0]),
                    converged=bool(res.converged[0]), status="firstorder")
