"""Dense two-phase simplex linear programming.

The relaxed verifiers (MILP class, paper §II-B-2) and the MINLP
branch-and-bound bounder both need an LP oracle.  This is a textbook
tableau simplex with Bland's anti-cycling rule — appropriate for the
dense, small-to-medium instances this library generates.

Every pivot is bit-identical to the row-by-row loop kept as the test
oracle :func:`repro.kernels.reference.solve_lp_reference`: the array
forms below only remove interpreter overhead, never reorder a sum.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import (
    ConvergenceError,
    InfeasibleError,
    NumericalInstabilityError,
    UnboundedError,
)
from repro.convex.problem import LPProblem, Solution

__all__ = ["solve_lp", "simplex_standard_form"]

_EPS = 1e-9


def _pivot(t: np.ndarray, basis: np.ndarray, allowed_cols: int, max_iter: int) -> int:
    """Pivot tableau ``t`` (objective in the last row) to optimality in
    place and return the number of pivots.

    Dantzig pricing for speed, switching to Bland's anti-cycling rule
    whenever the objective stalls (degenerate pivots).
    """
    rows = t.shape[0] - 1
    body = t[:rows]
    rhs = body[:, -1]
    reduced = t[rows, :allowed_cols]
    stall = 0
    last_obj = t[rows, -1]
    for it in range(max_iter):
        if stall < 25:
            enter = int(reduced.argmin())
            if reduced[enter] >= -_EPS:
                return it
        else:
            # Bland: smallest-index entering column
            negatives = (reduced < -_EPS).nonzero()[0]
            if negatives.size == 0:
                return it
            enter = int(negatives[0])
        col = body[:, enter]
        ratios = np.divide(rhs, col, out=np.full(rows, np.inf), where=col > _EPS)
        first = ratios.argmin() if rows else 0
        low = ratios[first] if rows else np.inf
        # no finite ratio: the entering column is an improving ray
        if not low < np.inf:
            raise UnboundedError("LP is unbounded")
        # among minimizing ratios pick smallest basis index (Bland tiebreak)
        ties = (ratios <= low + _EPS).nonzero()[0]
        leave = int(first if ties.size == 1 else ties[basis[ties].argmin()])
        pivot_row = t[leave]
        pivot_row /= col[leave]
        # eliminate the entering column from every other row whose entry
        # is not already within _EPS of zero; other rows stay untouched
        factors = t[:, enter]
        mask = np.abs(factors) > _EPS
        mask[leave] = False
        np.subtract(t, factors[:, None] * pivot_row, out=t, where=mask[:, None])
        basis[leave] = enter
        obj = t[rows, -1]
        if obj > last_obj + 1e-12 * max(1.0, abs(last_obj)):
            stall = 0
            last_obj = obj
        else:
            stall += 1
    raise ConvergenceError("simplex exceeded its pivot budget", iterations=max_iter)


def _simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray,
             max_iter: int) -> tuple[np.ndarray, float, int]:
    """Two-phase simplex on ``min c^T x``, ``A x = b``, ``x >= 0``:
    ``(x, objective, phase-1 plus phase-2 pivots)``."""
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
    basis = np.arange(n, n + m)
    # price out artificials
    tableau[m, :] -= tableau[:m, :].sum(axis=0)

    iterations = _pivot(tableau, basis, n + m, max_iter)
    feas_tol = 1e-7 * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    if tableau[m, -1] < -feas_tol:
        raise InfeasibleError(f"phase-1 objective {-tableau[m, -1]:.3e} > 0: infeasible")

    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            row = tableau[i, :n]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > _EPS:
                tableau[i, :] /= row[j]
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
        if bi < n and abs(phase2[m, bi]) > _EPS:
            phase2[m, :] -= phase2[m, bi] * phase2[i, :]
    iterations += _pivot(phase2, basis, n, max_iter)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = phase2[:m, -1][structural]
    return x, float(c @ x), iterations


def simplex_standard_form(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int = 10000
) -> tuple[np.ndarray, float]:
    """Solve ``min c^T x`` s.t. ``A x = b``, ``x >= 0`` by two-phase simplex.

    Returns ``(x, objective)``.  Raises :class:`InfeasibleError` or
    :class:`UnboundedError` accordingly.
    """
    x, objective, _ = _simplex(a, b, c, max_iter)
    return x, objective


def _check_finite(problem: LPProblem) -> None:
    """Reject NaN/inf data (and NaN bounds) before any tableau exists:
    the simplex would otherwise report a NaN optimum as converged."""
    for name in ("c", "g", "h", "a", "b"):
        value = getattr(problem, name)
        if value is not None and not np.isfinite(value).all():
            raise NumericalInstabilityError(f"LP data {name!r} has non-finite entries")
    for name in ("lo", "hi"):
        if np.isnan(getattr(problem, name)).any():
            raise NumericalInstabilityError(f"LP bound {name!r} has NaN entries")


def solve_lp(problem: LPProblem, max_iter: int = 10000) -> Solution:
    """Solve a general-form :class:`LPProblem` by reduction to standard form.

    Free variables are split, finite lower bounds shifted to zero, finite
    upper bounds become inequality rows, and inequalities get slacks.
    ``Solution.iterations`` counts the phase-1 plus phase-2 pivots.
    Raises :class:`NumericalInstabilityError` on non-finite data.
    """
    _check_finite(problem)
    n = problem.dim
    c, lo, hi = problem.c, problem.lo, problem.hi

    # variable mapping: x_j = (pos_j - neg_j) + shift_j
    # finite lower bound -> shift; infinite lower bound -> split
    bounded = np.isfinite(lo)
    width = np.where(bounded, 1, 2)
    col_pos = np.cumsum(width) - width
    free = (~bounded).nonzero()[0]
    col_neg = col_pos[free] + 1
    n_std = int(width.sum())
    shift = np.where(bounded, lo, 0.0)

    # equality rows, inequality rows, then one row per finite upper bound;
    # each right-hand side is its own dot product, as in the oracle
    blocks = [(m, v) for m, v in ((problem.a, problem.b), (problem.g, problem.h))
              if m is not None]
    upper = np.isfinite(hi).nonzero()[0]
    rows = np.vstack([m for m, _ in blocks] + [np.eye(n)[upper]])
    rhs = [v[i] - m[i] @ shift for m, v in blocks for i in range(m.shape[0])]
    n_eq = 0 if problem.a is None else problem.a.shape[0]
    n_slack = rows.shape[0] - n_eq

    # accumulate onto zeros (not assign) like the oracle's expand_row, so
    # a -0.0 entry becomes +0.0 exactly as it did there
    a_std = np.zeros((rows.shape[0], n_std + n_slack))
    a_std[:, col_pos] += rows
    a_std[:, col_neg] -= rows[:, free]
    a_std[n_eq:, n_std:] = np.eye(n_slack)
    b_std = np.concatenate([np.array(rhs, dtype=np.float64), hi[upper] - shift[upper]])

    c_std = np.zeros(n_std + n_slack)
    c_std[col_pos] += c
    c_std[col_neg] -= c[free]
    const = float(c @ shift)

    x_std, obj_std, iterations = _simplex(a_std, b_std, c_std, max_iter)
    x = x_std[col_pos] + shift
    x[free] -= x_std[col_neg]
    return Solution(x=x, objective=obj_std + const, iterations=iterations, converged=True)
