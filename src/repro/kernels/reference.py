"""Reference loops: the executable specification of every kernel.

Each function here is the original scalar-at-a-time form of a kernel in
:mod:`repro.kernels` (or of the CROWN recursion, SDP projection and
simplex LP the fast paths replaced).  Production code runs only the
fast paths; these loops exist so the equivalence suites
(``tests/test_kernels_equivalence.py``, ``tests/test_lp_oracle.py``)
can check the fast path against them and ``benchmarks/bench_kernels.py``
can time it against them.  No module under ``repro`` imports this one.

Equivalence contract: elementwise kernels, the RNG-replaying sampler and
the simplex LP are bit-identical to their oracle; matrix contractions
agree to round-off, because matrix products reassociate sums.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.convex.problem import LPProblem, Solution
from repro.exceptions import ConvergenceError, InfeasibleError, UnboundedError
from repro.kernels.gram import apply_adjoint, apply_operator
from repro.kernels.propagation import extract_affine_stages
from repro.linalg.matrix_utils import frobenius_inner
from repro.linalg.psd import symmetrize
from repro.nn.network import Sequential
from repro.qos.rra import RRAProblem, RRAResult
from repro.verify.linear_bounds import _backward_bound

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
    "simplex_standard_form_reference",
    "solve_lp_reference",
    "solve_rra_greedy_reference",
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
    stages = extract_affine_stages(net)
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


# ---------------------------------------------------------------------------
# Simplex LP (repro.convex.lp)
# ---------------------------------------------------------------------------

_EPS = 1e-9


def simplex_standard_form_reference(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int = 10000
) -> tuple[np.ndarray, float]:
    """Row-by-row two-phase simplex (list basis, ``min``-over-candidates
    ratio test, ``np.outer`` elimination) — the equivalence baseline of
    :func:`repro.convex.lp.simplex_standard_form`.

    Returns ``(x, objective)``.  Raises :class:`InfeasibleError` or
    :class:`UnboundedError` accordingly.
    """
    a = np.asarray(a, dtype=np.float64).copy()
    b = np.asarray(b, dtype=np.float64).ravel().copy()
    c = np.asarray(c, dtype=np.float64).ravel().copy()
    m, n = a.shape
    # make rhs nonnegative
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: add artificial variables
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    # phase-1 objective: minimize sum of artificials
    tableau[m, n : n + m] = 1.0
    # a row holding a unit column of A (its own slack where b_i >= 0)
    # starts with the last such column basic, every other row on its
    # artificial
    basis = list(range(n, n + m))
    for j in range(n):
        rows = np.nonzero(a[:, j])[0]
        if rows.size == 1 and a[rows[0], j] == 1.0:  # numlint: disable=NL001 -- a unit column holds exactly 1.0
            basis[rows[0]] = j
    # price out the artificials that start in the basis
    artificial = [i for i in range(m) if basis[i] >= n]
    tableau[m, :] -= tableau[artificial, :].sum(axis=0)

    def pivot(t: np.ndarray, basis: list[int], allowed_cols: int, max_iter: int) -> None:
        """Dantzig pricing for speed, switching to Bland's anti-cycling
        rule whenever the objective stalls (degenerate pivots)."""
        rows = t.shape[0] - 1
        stall = 0
        last_obj = t[rows, -1]
        for _ in range(max_iter):
            reduced = t[rows, :allowed_cols]
            if stall < 25:
                enter = int(np.argmin(reduced))
                if reduced[enter] >= -_EPS:
                    return
            else:
                # Bland: smallest-index entering column
                negatives = np.nonzero(reduced < -_EPS)[0]
                if negatives.size == 0:
                    return
                enter = int(negatives[0])
            ratios = np.full(rows, np.inf)
            col = t[:rows, enter]
            pos = col > _EPS
            ratios[pos] = t[:rows, -1][pos] / col[pos]
            if not np.any(np.isfinite(ratios)):
                raise UnboundedError("LP is unbounded")
            # among minimizing ratios pick smallest basis index (Bland tiebreak)
            min_ratio = ratios.min()
            candidates = [i for i in range(rows) if ratios[i] <= min_ratio + _EPS]
            leave = min(candidates, key=lambda i: basis[i])
            piv = t[leave, enter]
            t[leave, :] /= piv  # numlint: disable=NL002 -- leave row chosen from col > _EPS, so piv > _EPS
            mask = np.abs(t[:, enter]) > _EPS
            mask[leave] = False
            t[mask, :] -= np.outer(t[mask, enter], t[leave, :])
            basis[leave] = enter
            obj = t[rows, -1]
            if obj > last_obj + 1e-12 * max(1.0, abs(last_obj)):
                stall = 0
                last_obj = obj
            else:
                stall += 1
        raise ConvergenceError("simplex exceeded its pivot budget", iterations=max_iter)

    pivot(tableau, basis, n + m, max_iter)
    feas_tol = 1e-7 * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    if tableau[m, -1] < -feas_tol:
        raise InfeasibleError(f"phase-1 objective {-tableau[m, -1]:.3e} > 0: infeasible")

    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            row = tableau[i, :n]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > _EPS:
                piv = tableau[i, j]
                tableau[i, :] /= piv  # numlint: disable=NL002 -- guarded by abs(row[j]) > _EPS just above
                for k in range(m + 1):
                    if k != i and abs(tableau[k, j]) > _EPS:
                        tableau[k, :] -= tableau[k, j] * tableau[i, :]
                basis[i] = j

    # phase 2: replace objective row
    phase2 = np.zeros((m + 1, n + 1))
    phase2[:m, :n] = tableau[:m, :n]
    phase2[:m, -1] = tableau[:m, -1]
    phase2[m, :n] = c
    for i, bi in enumerate(basis):
        if bi < n and phase2[m, bi] != 0.0:
            phase2[m, :] -= phase2[m, bi] * phase2[i, :]
    basis2 = list(basis)
    pivot(phase2, basis2, n, max_iter)

    x = np.zeros(n)
    for i, bi in enumerate(basis2):
        if bi < n:
            x[bi] = phase2[i, -1]
    return x, float(c @ x)


def solve_lp_reference(problem: LPProblem, max_iter: int = 10000) -> Solution:
    """Per-column ``expand_row`` reduction to standard form — the
    equivalence baseline of :func:`repro.convex.lp.solve_lp`.

    Free variables are split, finite lower bounds shifted to zero, finite
    upper bounds become inequality rows, and inequalities get slacks.
    """
    n = problem.dim
    c = problem.c
    lo, hi = problem.lo, problem.hi

    # variable mapping: x_j = (pos_j - neg_j) + shift_j
    # finite lower bound -> shift; infinite lower bound -> split
    col_pos = np.zeros(n, dtype=int)
    col_neg = np.full(n, -1, dtype=int)
    shift = np.zeros(n)
    next_col = 0
    for j in range(n):
        if np.isfinite(lo[j]):
            shift[j] = lo[j]
            col_pos[j] = next_col
            next_col += 1
        else:
            col_pos[j] = next_col
            col_neg[j] = next_col + 1
            next_col += 2
    n_std = next_col

    def expand_row(row: np.ndarray) -> np.ndarray:
        out = np.zeros(n_std)
        for j in range(n):
            out[col_pos[j]] += row[j]
            if col_neg[j] >= 0:
                out[col_neg[j]] -= row[j]
        return out

    eq_rows: list[np.ndarray] = []
    eq_rhs: list[float] = []
    ineq_rows: list[np.ndarray] = []
    ineq_rhs: list[float] = []

    if problem.a is not None:
        for i in range(problem.a.shape[0]):
            eq_rows.append(expand_row(problem.a[i]))
            eq_rhs.append(float(problem.b[i] - problem.a[i] @ shift))
    if problem.g is not None:
        for i in range(problem.g.shape[0]):
            ineq_rows.append(expand_row(problem.g[i]))
            ineq_rhs.append(float(problem.h[i] - problem.g[i] @ shift))
    for j in range(n):
        if np.isfinite(hi[j]):
            row = np.zeros(n)
            row[j] = 1.0
            ineq_rows.append(expand_row(row))
            ineq_rhs.append(float(hi[j] - shift[j]))

    n_slack = len(ineq_rows)
    m_total = len(eq_rows) + n_slack
    a_std = np.zeros((m_total, n_std + n_slack))
    b_std = np.zeros(m_total)
    for i, (row, rhs) in enumerate(zip(eq_rows, eq_rhs)):
        a_std[i, :n_std] = row
        b_std[i] = rhs
    for k, (row, rhs) in enumerate(zip(ineq_rows, ineq_rhs)):
        i = len(eq_rows) + k
        a_std[i, :n_std] = row
        a_std[i, n_std + k] = 1.0
        b_std[i] = rhs

    c_std = np.zeros(n_std + n_slack)
    for j in range(n):
        c_std[col_pos[j]] += c[j]
        if col_neg[j] >= 0:
            c_std[col_neg[j]] -= c[j]
    const = float(c @ shift)

    x_std, obj_std = simplex_standard_form_reference(a_std, b_std, c_std, max_iter=max_iter)
    x = np.zeros(n)
    for j in range(n):
        x[j] = x_std[col_pos[j]] + shift[j]
        if col_neg[j] >= 0:
            x[j] -= x_std[col_neg[j]]
    return Solution(x=x, objective=obj_std + const, iterations=0, converged=True)


# ---------------------------------------------------------------------------
# Greedy RRA rung (repro.qos.rra.solve_rra_greedy)
# ---------------------------------------------------------------------------


def solve_rra_greedy_reference(problem: RRAProblem) -> RRAResult:
    """The original four-deep greedy loop — the equivalence baseline of
    :func:`repro.qos.rra.solve_rra_greedy`.

    Phase 1 gives each deficit user its best free block at max power;
    phase 2 fills the rest by marginal rate.  Blocks are scanned from a
    ``set`` (ascending for small ints) and only a strictly greater gain
    replaces the incumbent, so ties keep the first candidate and a NaN
    first candidate is never replaced.
    """
    rates = problem.rate_table()
    p_max_idx = int(np.argmax(problem.power_levels_mw))
    n_b = problem.n_blocks
    choice = np.full(n_b, -1, dtype=int)
    remaining_power = problem.total_power_mw
    user_rates = np.zeros(problem.n_users)
    free = set(range(n_b))
    mins = problem.min_rates()

    def assign(u: int, b: int, p: int) -> None:
        nonlocal remaining_power
        choice[b] = u * problem.n_levels + p
        user_rates[u] += rates[u, b, p]
        remaining_power -= float(problem.power_levels_mw[p])
        free.discard(b)

    # phase 1: QoS floors
    progress = True
    while progress:
        progress = False
        deficits = mins - user_rates
        order = np.argsort(-deficits)
        for u in order:
            if deficits[u] <= 0 or not free:
                continue
            best_b = max(free, key=lambda b: rates[u, b, p_max_idx])
            if problem.power_levels_mw[p_max_idx] <= remaining_power:
                assign(int(u), best_b, p_max_idx)
                progress = True
            break
        if np.all(mins - user_rates <= 0):
            break
    # phase 2: throughput fill
    while free and remaining_power > 0:
        best = None
        for b in free:
            for u in range(problem.n_users):
                for p in range(problem.n_levels):
                    if problem.power_levels_mw[p] > remaining_power:
                        continue
                    gain = rates[u, b, p]
                    if best is None or gain > best[0]:
                        best = (gain, u, b, p)
        if best is None:
            break
        _, u, b, p = best
        assign(u, b, p)
    ev = problem.evaluate_assignment(choice)
    return RRAResult(
        method="greedy",
        choice=choice,
        total_rate=ev["total_rate"],
        qos_ok=ev["qos_ok"],
        power_ok=ev["power_ok"],
        wall_time=0.0,
    )
