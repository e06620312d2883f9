"""Dense two-phase simplex linear programming.

The relaxed verifiers (MILP class, paper §II-B-2) and the MINLP
branch-and-bound bounder both need an LP oracle.  This is a textbook
tableau simplex with Bland's anti-cycling rule — appropriate for the
dense, small-to-medium instances this library generates.

Every pivot is bit-identical to the row-by-row loop kept as the test
oracle :func:`repro.kernels.reference.solve_lp_reference`: the array
forms below only remove interpreter overhead, never reorder a sum.
:func:`solve_lp_batch` runs many independent LPs of one shape through
one lockstep (stacked) simplex whose every member is byte-identical to
its own :func:`solve_lp` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    ConvergenceError,
    InfeasibleError,
    NumericalInstabilityError,
    ReproError,
    UnboundedError,
)
from repro.convex.problem import LPProblem, Solution
from repro.obs import get_metrics

__all__ = ["solve_lp", "solve_lp_batch", "simplex_standard_form"]

_EPS = 1e-9

#: narrowest same-shape group worth one stacked simplex; narrower groups
#: run per LP.  Set from the per-LP cost table of the ``simplex_lp_stack``
#: family in ``benchmarks/bench_kernels.py`` (break-even near width 6)
_STACK_MIN_WIDTH = 6

#: bucket edges of the ``convex.lp.stack_width`` histogram
_WIDTH_BUCKETS = (1, 2, 4, 6, 8, 16, 32, 64, 128)

#: one :func:`solve_lp_batch` member: the solution, or what solve_lp raised
Outcome = Union[Solution, ReproError]


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


def _pivot_stack(t: np.ndarray, basis: np.ndarray, allowed_cols: int,
                 max_iter: int) -> Tuple[np.ndarray, List[ReproError | None]]:
    """:func:`_pivot` in lockstep over a stack of same-shape tableaus
    ``t[k]`` (with bases ``basis[k]``), in place.

    Every live member makes the pivot its own :func:`_pivot` would make
    (own Dantzig/Bland switch and stall count; every step elementwise),
    and leaves the stack when it is optimal or fails.  Returns each
    member's pivot count and its exception (``None`` if optimal).
    """
    rows = t.shape[1] - 1
    pivots = np.zeros(t.shape[0], dtype=np.int64)
    errors: List[ReproError | None] = [None] * t.shape[0]
    live = np.arange(t.shape[0])
    work, wbasis = t, basis
    stall = np.zeros(live.size, dtype=np.int64)
    last_obj = work[:, rows, -1].copy()
    no_row = t.shape[2]  # larger than any basis index

    def retire(done: np.ndarray, it: int) -> None:
        nonlocal live, work, wbasis, stall, last_obj
        t[live[done]] = work[done]
        basis[live[done]] = wbasis[done]
        pivots[live[done]] = it
        keep = ~done
        live, work, wbasis = live[keep], work[keep], wbasis[keep]
        stall, last_obj = stall[keep], last_obj[keep]

    for it in range(max_iter):
        reduced = work[:, rows, :allowed_cols]
        enter = reduced.argmin(axis=1)
        bland = stall >= 25
        if bland.any():
            # Bland: smallest-index entering column
            enter = np.where(bland, (reduced < -_EPS).argmax(axis=1), enter)
        optimal = ~(reduced[np.arange(live.size), enter] < -_EPS)
        if optimal.any():
            enter = enter[~optimal]
            retire(optimal, it)
            if not live.size:
                return pivots, errors
        at = np.arange(live.size)
        col = work[at, :rows, enter]
        ratios = np.divide(work[:, :rows, -1], col, out=np.full(col.shape, np.inf),
                           where=col > _EPS)
        low = ratios[at, ratios.argmin(axis=1)]
        # no finite ratio: the entering column is an improving ray
        unbounded = ~(low < np.inf)
        if unbounded.any():
            for member in live[unbounded]:
                errors[member] = UnboundedError("LP is unbounded")
            bounded = ~unbounded
            enter, col, ratios, low = enter[bounded], col[bounded], ratios[bounded], low[bounded]
            retire(unbounded, it)
            if not live.size:
                return pivots, errors
            at = np.arange(live.size)
        # among minimizing ratios the smallest basis index (Bland tiebreak)
        leave = np.where(ratios <= (low + _EPS)[:, None], wbasis, no_row).argmin(axis=1)
        pivot_row = work[at, leave] / col[at, leave][:, None]
        work[at, leave] = pivot_row
        # eliminate the entering column from every other row whose entry
        # is not already within _EPS of zero; other rows stay untouched
        factors = work[at, :, enter]
        mask = np.abs(factors) > _EPS
        mask[at, leave] = False
        np.subtract(work, factors[:, :, None] * pivot_row[:, None, :], out=work,
                    where=mask[:, :, None])
        wbasis[at, leave] = enter
        obj = work[:, rows, -1]
        improved = obj > last_obj + 1e-12 * np.maximum(1.0, np.abs(last_obj))
        stall = np.where(improved, 0, stall + 1)
        last_obj = np.where(improved, obj, last_obj)
    for member in live:
        errors[member] = ConvergenceError("simplex exceeded its pivot budget",
                                          iterations=max_iter)
    retire(np.ones(live.size, dtype=bool), max_iter)
    return pivots, errors


def _phase1_tableau(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Phase-1 tableau(s) ``[A | I | b]`` over the objective row "minimize
    the sum of artificials", artificials priced out; ``a``/``b`` may carry
    a leading stack axis."""
    m, n = a.shape[-2:]
    tableau = np.zeros(a.shape[:-2] + (m + 1, n + m + 1))
    tableau[..., :m, :n] = a
    tableau[..., :m, n:n + m] = np.eye(m)
    tableau[..., :m, -1] = b
    tableau[..., m, n:n + m] = 1.0
    tableau[..., m, :] -= tableau[..., :m, :].sum(axis=-2)
    return tableau


def _drive_out_artificials(tableau: np.ndarray, basis: np.ndarray, n: int) -> None:
    """Pivot artificials left in the basis after phase 1 out of it where
    some structural column can take their place (in place)."""
    m = basis.size
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

    # phase 1: minimize the sum of artificial variables
    tableau = _phase1_tableau(a, b)
    basis = np.arange(n, n + m)
    iterations = _pivot(tableau, basis, n + m, max_iter)
    feas_tol = 1e-7 * max(1.0, float(np.max(np.abs(b), initial=0.0)))
    if tableau[m, -1] < -feas_tol:
        raise InfeasibleError(f"phase-1 objective {-tableau[m, -1]:.3e} > 0: infeasible")
    _drive_out_artificials(tableau, basis, n)

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


def _simplex_stack(a: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int
                   ) -> List[tuple[np.ndarray, float, int] | ReproError]:
    """:func:`_simplex` on a stack ``a[k]``, ``b[k]``, ``c[k]`` of
    same-shape standard forms (``m >= 1`` rows): per member, what
    ``_simplex`` returns, or the exception it raises."""
    a, b, c = a.copy(), b.copy(), c.copy()
    k, m, n = a.shape
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    tableau = _phase1_tableau(a, b)
    basis = np.tile(np.arange(n, n + m), (k, 1))
    pivots, errors = _pivot_stack(tableau, basis, n + m, max_iter)
    feas_tol = 1e-7 * np.maximum(1.0, np.max(np.abs(b), axis=1, initial=0.0))
    for i in range(k):
        if errors[i] is None and tableau[i, m, -1] < -feas_tol[i]:
            errors[i] = InfeasibleError(
                f"phase-1 objective {-tableau[i, m, -1]:.3e} > 0: infeasible")
        elif errors[i] is None and (basis[i] >= n).any():
            _drive_out_artificials(tableau[i], basis[i], n)

    out: List[tuple[np.ndarray, float, int] | ReproError] = list(errors)
    members = np.array([i for i in range(k) if errors[i] is None], dtype=np.int64)
    if not members.size:
        return out
    basis = basis[members]
    at = np.arange(members.size)
    phase2 = np.zeros((members.size, m + 1, n + 1))
    phase2[:, :m, :n] = tableau[members, :m, :n]
    phase2[:, :m, -1] = tableau[members, :m, -1]
    phase2[:, m, :n] = c[members]
    # price out the basic columns one basis row at a time, as _simplex does
    for i in range(m):
        bi = basis[:, i]
        structural = bi < n
        factor = phase2[at, m, np.where(structural, bi, 0)]
        use = structural & (np.abs(factor) > _EPS)
        if use.any():
            phase2[use, m, :] -= factor[use, None] * phase2[use, i, :]
    pivots2, errors2 = _pivot_stack(phase2, basis, n, max_iter)

    x = np.zeros((members.size, n))
    held, slot = (basis < n).nonzero()
    x[held, basis[held, slot]] = phase2[held, slot, -1]
    for j, i in enumerate(members):
        out[i] = errors2[j] if errors2[j] is not None else (
            x[j], float(c[i] @ x[j]), int(pivots[i] + pivots2[j]))
    return out


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


@dataclass(frozen=True)
class _StandardForm:
    """``min c^T z``, ``A z = b``, ``z >= 0`` for one :class:`LPProblem`,
    plus the map back: ``x = z[col_pos] - z[col_neg] (free) + shift``."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    col_pos: np.ndarray
    free: np.ndarray
    col_neg: np.ndarray
    shift: np.ndarray
    const: float

    def solution(self, z: np.ndarray, objective: float, iterations: int) -> Solution:
        x = z[self.col_pos] + self.shift
        x[self.free] -= z[self.col_neg]
        return Solution(x=x, objective=objective + self.const, iterations=iterations,
                        converged=True)


def _standard_form(problem: LPProblem) -> _StandardForm:
    """Free variables are split, finite lower bounds shifted to zero,
    finite upper bounds become inequality rows, inequalities get slacks."""
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
    return _StandardForm(a_std, b_std, c_std, col_pos, free, col_neg, shift,
                         float(c @ shift))


def solve_lp(problem: LPProblem, max_iter: int = 10000) -> Solution:
    """Solve a general-form :class:`LPProblem` by reduction to standard form.

    Free variables are split, finite lower bounds shifted to zero, finite
    upper bounds become inequality rows, and inequalities get slacks.
    ``Solution.iterations`` counts the phase-1 plus phase-2 pivots.
    Raises :class:`NumericalInstabilityError` on non-finite data.
    """
    form = _standard_form(problem)
    return form.solution(*_simplex(form.a, form.b, form.c, max_iter))


def _solve_batch(problems: Sequence[LPProblem], max_iter: int,
                 min_width: int) -> List[Outcome]:
    """:func:`solve_lp_batch` with the routing width as a parameter."""
    out: List[Outcome | None] = [None] * len(problems)
    groups: Dict[Tuple[int, int], List[Tuple[int, _StandardForm]]] = {}
    for i, problem in enumerate(problems):
        try:
            form = _standard_form(problem)
        except ReproError as err:  # handed back: solve_lp would raise it
            out[i] = err
            continue
        groups.setdefault(form.a.shape, []).append((i, form))
    widths = get_metrics().histogram("convex.lp.stack_width", buckets=_WIDTH_BUCKETS)
    for (m, _), members in groups.items():
        widths.observe(len(members))
        forms = [form for _, form in members]
        if m and len(members) >= min_width:
            raw = _simplex_stack(np.stack([f.a for f in forms]),
                                 np.stack([f.b for f in forms]),
                                 np.stack([f.c for f in forms]), max_iter)
        else:
            raw = []
            for f in forms:
                try:
                    raw.append(_simplex(f.a, f.b, f.c, max_iter))
                except ReproError as err:  # handed back: solve_lp would raise it
                    raw.append(err)
        for (i, form), res in zip(members, raw):
            out[i] = res if isinstance(res, Exception) else form.solution(*res)
    return out  # type: ignore[return-value]


def solve_lp_batch(problems: Sequence[LPProblem], max_iter: int = 10000) -> List[Outcome]:
    """Solve independent LPs; per problem, what :func:`solve_lp` returns
    or the exception it raises (returned, not raised).

    Problems whose standard forms share a shape run as one lockstep
    stacked simplex when at least ``_STACK_MIN_WIDTH`` of them do, else
    one by one.  Either way each member's ``x``, objective, pivot count
    and exception class are byte-identical to its own ``solve_lp`` call.
    Records each group's width in the ``convex.lp.stack_width``
    histogram.
    """
    return _solve_batch(problems, max_iter, _STACK_MIN_WIDTH)
