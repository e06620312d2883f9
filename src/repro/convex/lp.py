"""Dense two-phase simplex linear programming.

The relaxed verifiers (MILP class, paper §II-B-2) and the MINLP
branch-and-bound bounder both need an LP oracle.  This is a textbook
tableau simplex with Bland's anti-cycling rule — appropriate for the
dense, small-to-medium instances this library generates.

Every pivot is bit-identical to the row-by-row loop kept as the test
oracle :func:`repro.kernels.reference.solve_lp_reference`: the array
forms below only remove interpreter overhead, never reorder a sum.
Phase 1 starts from the slack basis: only rows without a unit column
(rows flipped to ``b >= 0``, equality rows) start on an artificial.
:func:`solve_lp_batch` builds the standard forms of same-structure LPs
as one stack and runs each same-shape group through one lockstep
(stacked) simplex; every member is byte-identical to its own
:func:`solve_lp` call.  Given a node box and its parent's
:class:`NodeHandle`, :func:`solve_lp` bounds a branch-and-bound node
from the parent's form and final tableau: a few dual-simplex pivots
(:func:`screen_node`) may prove the node prunes or reach its optimum,
and only the nodes they leave unproven get the cold two-phase solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
#: family in ``benchmarks/bench_kernels.py`` (stacked loses at width 4,
#: wins from 6)
_STACK_MIN_WIDTH = 6

#: bucket edges of the ``convex.lp.stack_width`` histogram
_WIDTH_BUCKETS = (1, 2, 4, 6, 8, 16, 32, 64, 128)

#: one :func:`solve_lp_batch` member: the solution, or what solve_lp raised
Outcome = Union[Solution, ReproError]

#: what :func:`_simplex` returns: ``(x, objective, pivots, final phase-2
#: tableau, basis)``
Raw = Tuple[np.ndarray, float, int, np.ndarray, np.ndarray]

#: a branch-and-bound node's box ``(lo, hi)``
Box = Tuple[np.ndarray, np.ndarray]


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
    ratios = np.empty(rows)
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
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=col > _EPS)
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


def _phase1_basis(a: np.ndarray) -> np.ndarray:
    """The phase-1 starting basis of (sign-flipped) ``a``, which may carry
    a leading stack axis: a row holding a unit column of ``a`` (its own
    slack where ``b_i >= 0``) starts with the last such column basic;
    every other row ``i`` starts on its artificial ``n + i``."""
    m, n = a.shape[-2:]
    unit = (a == 1.0) & ((a != 0.0).sum(axis=-2) == 1)[..., None, :]  # numlint: disable=NL001 -- a unit column holds exactly 1.0
    last = np.where(unit, np.arange(n), -1).max(axis=-1, initial=-1)
    return np.where(last >= 0, last, np.arange(n, n + m))


def _phase1_tableau(a: np.ndarray, b: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Phase-1 tableau(s) ``[A | I | b]`` over the objective row "minimize
    the sum of artificials", with the artificials that start ``basis``
    (the rows whose entry is ``>= n``) priced out; ``a``/``b``/``basis``
    may carry a leading stack axis."""
    m, n = a.shape[-2:]
    tableau = np.zeros(a.shape[:-2] + (m + 1, n + m + 1))
    tableau[..., :m, :n] = a
    tableau[..., :m, n:n + m] = np.eye(m)
    tableau[..., :m, -1] = b
    tableau[..., m, n:n + m] = 1.0
    # the other rows add exact zeros: only a zero's sign can differ from
    # summing the artificial rows alone, and subtracting from 0 or 1
    # erases it
    artificial = (basis >= n)[..., None]
    tableau[..., m, :] -= np.where(artificial, tableau[..., :m, :], 0.0).sum(axis=-2)
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


def _feas_tol(b: np.ndarray) -> float:
    """The feasibility tolerance ``1e-7 max(1, max|b|)`` the cold phase 1
    judges a right-hand side ``b`` by."""
    return 1e-7 * max(1.0, float(np.abs(b).max(initial=0.0)))


def _simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray,
             max_iter: int) -> Raw:
    """Two-phase simplex on ``min c^T x``, ``A x = b``, ``x >= 0``:
    ``(x, objective, phase-1 plus phase-2 pivots, final phase-2 tableau,
    its basis)``."""
    a = np.asarray(a, dtype=np.float64).copy()
    b = np.asarray(b, dtype=np.float64).ravel().copy()
    c = np.asarray(c, dtype=np.float64).ravel().copy()
    m, n = a.shape
    # make rhs nonnegative
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    # phase 1: minimize the sum of artificial variables, from the slacks
    basis = _phase1_basis(a)
    tableau = _phase1_tableau(a, b, basis)
    iterations = _pivot(tableau, basis, n + m, max_iter)
    if tableau[m, -1] < -_feas_tol(b):
        raise InfeasibleError(f"phase-1 objective {-tableau[m, -1]:.3e} > 0: infeasible")
    _drive_out_artificials(tableau, basis, n)

    # phase 2: replace objective row
    phase2 = np.zeros((m + 1, n + 1))
    phase2[:m, :n] = tableau[:m, :n]
    phase2[:m, -1] = tableau[:m, -1]
    phase2[m, :n] = c
    for i, bi in enumerate(basis):
        if bi < n and phase2[m, bi] != 0.0:
            phase2[m, :] -= phase2[m, bi] * phase2[i, :]
    iterations += _pivot(phase2, basis, n, max_iter)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = phase2[:m, -1][structural]
    return x, float(c @ x), iterations, phase2, basis


def _simplex_stack(a: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int
                   ) -> List[Raw | ReproError]:
    """:func:`_simplex` on a stack ``a[k]``, ``b[k]``, ``c[k]`` of
    same-shape standard forms (``m >= 1`` rows): per member, what
    ``_simplex`` returns, or the exception it raises."""
    a, b, c = a.copy(), b.copy(), c.copy()
    k, m, n = a.shape
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    basis = _phase1_basis(a)
    tableau = _phase1_tableau(a, b, basis)
    pivots, errors = _pivot_stack(tableau, basis, n + m, max_iter)
    feas_tol = 1e-7 * np.maximum(1.0, np.max(np.abs(b), axis=1, initial=0.0))
    for i in range(k):
        if errors[i] is None and tableau[i, m, -1] < -feas_tol[i]:
            errors[i] = InfeasibleError(
                f"phase-1 objective {-tableau[i, m, -1]:.3e} > 0: infeasible")
        elif errors[i] is None and (basis[i] >= n).any():
            _drive_out_artificials(tableau[i], basis[i], n)

    out: List[Raw | ReproError] = list(errors)
    members = np.array([i for i in range(k) if errors[i] is None], dtype=np.int64)
    if not members.size:
        return out
    basis = basis[members]
    at = np.arange(members.size)
    phase2 = np.zeros((members.size, m + 1, n + 1))
    phase2[:, :m, :n] = tableau[members, :m, :n]
    phase2[:, :m, -1] = tableau[members, :m, -1]
    phase2[:, m, :n] = c[members]
    # price out the basic columns one basis row at a time, as _simplex
    # does (rows where no member holds a structural column have none)
    structural = basis < n
    for i in structural.any(axis=0).nonzero()[0]:
        factor = phase2[at, m, np.where(structural[:, i], basis[:, i], 0)]
        use = structural[:, i] & (factor != 0.0)
        if use.any():
            phase2[use, m, :] -= factor[use, None] * phase2[use, i, :]
    pivots2, errors2 = _pivot_stack(phase2, basis, n, max_iter)

    x = np.zeros((members.size, n))
    held, slot = (basis < n).nonzero()
    x[held, basis[held, slot]] = phase2[held, slot, -1]
    for j, i in enumerate(members):
        out[i] = errors2[j] if errors2[j] is not None else (
            x[j], float(c[i] @ x[j]), int(pivots[i] + pivots2[j]), phase2[j].copy(),
            basis[j].copy())
    return out


def simplex_standard_form(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int = 10000
) -> tuple[np.ndarray, float]:
    """Solve ``min c^T x`` s.t. ``A x = b``, ``x >= 0`` by two-phase simplex.

    Returns ``(x, objective)``.  Raises :class:`InfeasibleError` or
    :class:`UnboundedError` accordingly.
    """
    x, objective, *_ = _simplex(a, b, c, max_iter)
    return x, objective


def _check_finite(problem: LPProblem, lo: np.ndarray, hi: np.ndarray,
                  data: bool = True) -> None:
    """Reject NaN/inf data (and NaN bounds ``lo``/``hi``) before any
    tableau exists: the simplex would otherwise report a NaN optimum as
    converged.  ``data=False`` checks the bounds only."""
    for name in ("c", "g", "h", "a", "b") if data else ():
        value = getattr(problem, name)
        if value is not None and not np.isfinite(value).all():
            raise NumericalInstabilityError(f"LP data {name!r} has non-finite entries")
    for name, bound in (("lo", lo), ("hi", hi)):
        if np.isnan(bound).any():
            raise NumericalInstabilityError(f"LP bound {name!r} has NaN entries")


@dataclass(frozen=True)
class _StandardForm:
    """``min c^T z``, ``A z = b``, ``z >= 0`` for one :class:`LPProblem`,
    plus the map back: ``x = z[col_pos] - z[col_neg] (free) + shift``.
    ``upper`` lists the variables with an upper-bound row and ``n_eq``
    counts the leading equality rows (the only rows without a slack).
    ``memo`` holds what only the matrix decides: the finite/infinite
    pattern of the bounds it was built for (``"pattern"``) and what
    :func:`_column_caps` derives from it; the forms patched from this one
    share it."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    col_pos: np.ndarray
    free: np.ndarray
    col_neg: np.ndarray
    shift: np.ndarray
    const: float
    upper: np.ndarray
    n_eq: int
    memo: dict = field(compare=False, repr=False)

    def solution(self, raw: Raw, status: str = "optimal") -> Solution:
        """The :class:`Solution` of a :func:`_simplex` (or warm
        :func:`screen_node`) result on this form.  It carries the final
        tableau as a :class:`NodeHandle` where :func:`screen_node` can
        use one: every row has a slack (no equality rows) and no
        artificial stayed in the basis."""
        z, objective, iterations, tableau, basis = raw
        x = z[self.col_pos] + self.shift
        x[self.free] -= z[self.col_neg]
        screenable = basis.size and not self.n_eq and basis.max() < tableau.shape[1] - 1
        return Solution(x=x, objective=objective + self.const, iterations=iterations,
                        converged=True, status=status,
                        handle=NodeHandle(self, tableau, basis) if screenable else None)


def _node_bounds(problem: LPProblem, box: Box | None) -> Tuple[np.ndarray, np.ndarray]:
    """``problem``'s bounds tightened to ``box`` (``lo``/``hi`` themselves
    when there is none), as ``MILPModel.relaxation`` tightens them."""
    if box is None:
        return problem.lo, problem.hi
    return np.maximum(problem.lo, box[0]), np.minimum(problem.hi, box[1])


def _blocks(problem: LPProblem) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``problem``'s row blocks ``(matrix, right-hand side)``: equality
    rows first, then inequality rows."""
    return [(m, v) for m, v in ((problem.a, problem.b), (problem.g, problem.h))
            if m is not None]


def _right_hand_side(blocks: Sequence[Tuple[np.ndarray, np.ndarray]], hi: np.ndarray,
                     upper: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """The standard form's right-hand side: the rows of ``blocks``, then
    one row per finite upper bound.  Each row's is its own row-by-shift
    dot product, as in the oracle (a stacked 1 x n by n x 1 matmul per
    row; ``m @ shift`` is a matrix-vector kernel that can round
    differently).  Every array may carry a leading stack axis."""
    parts = [v - np.matmul(m[..., None, :], shift[..., None, :, None])[..., 0, 0]
             for m, v in blocks]
    parts.append(hi.take(upper, axis=-1) - shift.take(upper, axis=-1))
    return np.concatenate(parts, axis=-1)


def _standard_matrix(c: np.ndarray, blocks: Sequence[Tuple[np.ndarray, np.ndarray]],
                     n_eq: int, free: np.ndarray, upper: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bound-independent part of a standard form, ``(A, c, col_pos,
    col_neg)``, for costs ``c``, row ``blocks`` whose first ``n_eq`` rows
    are equalities, and the given free and upper-bounded variables.
    Every array may carry a leading stack axis."""
    n = c.shape[-1]
    width = np.ones(n, dtype=np.int64)
    width[free] = 2
    col_pos = np.cumsum(width) - width
    col_neg = col_pos[free] + 1
    n_std = int(width.sum())
    eye = np.broadcast_to(np.eye(n)[upper], c.shape[:-1] + (upper.size, n))
    rows = np.concatenate([m for m, _ in blocks] + [eye], axis=-2)
    n_slack = rows.shape[-2] - n_eq

    # accumulate onto zeros (not assign) like the oracle's expand_row, so
    # a -0.0 entry becomes +0.0 exactly as it did there
    a_std = np.zeros(rows.shape[:-1] + (n_std + n_slack,))
    a_std[..., col_pos] += rows
    a_std[..., col_neg] -= rows[..., free]
    a_std[..., n_eq:, n_std:] = np.eye(n_slack)

    c_std = np.zeros(c.shape[:-1] + (n_std + n_slack,))
    c_std[..., col_pos] += c
    c_std[..., col_neg] -= c[..., free]
    return a_std, c_std, col_pos, col_neg


def _standard_form(problem: LPProblem, template: _StandardForm | None = None,
                   box: Box | None = None) -> _StandardForm:
    """Free variables are split, finite lower bounds shifted to zero,
    finite upper bounds become inequality rows, inequalities get slacks.

    ``box`` is a branch-and-bound node's ``(lo, hi)``: the form is then
    that of ``problem`` with its bounds tightened to the box (see
    :func:`_node_bounds`), built without that problem.  ``template`` is
    the form of a problem that differs from this one at most in its
    bounds.  When the finite/infinite pattern of the bounds matches too,
    the matrix, costs and column map are the template's own arrays and
    only the bound-dependent parts (shift, right-hand side, constant)
    are built, by the same code as a fresh build, so every byte agrees
    with a fresh build.  The data a template shares was checked when the
    template was built, so only the bounds are checked again; a form
    built afresh checks all of its data.
    """
    lo, hi = _node_bounds(problem, box)
    _check_finite(problem, lo, hi, data=template is None)

    # variable mapping: x_j = (pos_j - neg_j) + shift_j
    # finite lower bound -> shift; infinite lower bound -> split
    pattern = np.isfinite(lo), np.isfinite(hi)
    shift = np.where(pattern[0], lo, 0.0)
    blocks = _blocks(problem)
    if template is not None and all(
            (mask == held).all() for mask, held in zip(pattern, template.memo["pattern"])):
        b_std = _right_hand_side(blocks, hi, template.upper, shift)
        return _StandardForm(template.a, b_std, template.c, template.col_pos,
                             template.free, template.col_neg, shift,
                             float(problem.c @ shift), template.upper, template.n_eq,
                             template.memo)
    if template is not None:
        _check_finite(problem, lo, hi)
    free = (~pattern[0]).nonzero()[0]
    upper = pattern[1].nonzero()[0]
    n_eq = 0 if problem.a is None else problem.a.shape[0]
    a_std, c_std, col_pos, col_neg = _standard_matrix(problem.c, blocks, n_eq, free, upper)
    return _StandardForm(a_std, _right_hand_side(blocks, hi, upper, shift), c_std,
                         col_pos, free, col_neg, shift, float(problem.c @ shift), upper,
                         n_eq, {"pattern": pattern})


def _standard_forms(problems: Sequence[LPProblem]) -> List[_StandardForm | ReproError]:
    """``_standard_form`` of every problem, or the error it raises, built
    in one pass per group of problems with the same dimensions and the
    same finite/infinite bound pattern (so the same column map).

    Every step is :func:`_standard_form`'s own elementwise arithmetic or
    one row-by-shift dot product per row, over a leading stack axis, so
    each form is byte-identical to its own build.  A member with
    non-finite data is built alone, for its own error."""
    out: List[_StandardForm | ReproError | None] = [None] * len(problems)
    groups: Dict[tuple, List[int]] = {}
    for i, p in enumerate(problems):
        key = (p.dim, None if p.a is None else p.a.shape, None if p.g is None else p.g.shape,
               np.isfinite(p.lo).tobytes(), np.isfinite(p.hi).tobytes())
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        first = problems[members[0]]
        names = [name for name in ("c", "a", "b", "g", "h", "lo", "hi")
                 if getattr(first, name) is not None]
        data = {name: np.stack([getattr(problems[i], name) for i in members])
                for name in names}
        finite = np.ones(len(members), dtype=bool)
        for name in names:
            flat = data[name].reshape(len(members), -1)
            finite &= (~np.isnan(flat) if name in ("lo", "hi") else np.isfinite(flat)).all(axis=1)
        for j in (~finite).nonzero()[0]:
            try:
                out[members[j]] = _standard_form(problems[members[j]])
            except ReproError as err:  # handed back: solve_lp would raise it
                out[members[j]] = err
        if not finite.any():
            continue
        if not finite.all():
            members = [i for i, ok in zip(members, finite) if ok]
            data = {name: value[finite] for name, value in data.items()}
        c, lo, hi = data["c"], data["lo"], data["hi"]
        bounded = np.isfinite(lo[0])
        free = (~bounded).nonzero()[0]
        upper = np.isfinite(hi[0]).nonzero()[0]
        shift = np.where(bounded, lo, 0.0)
        blocks = [(data[m], data[v]) for m, v in (("a", "b"), ("g", "h")) if m in data]
        b_std = _right_hand_side(blocks, hi, upper, shift)
        const = np.matmul(c[:, None, :], shift[:, :, None])[:, 0, 0]
        n_eq = 0 if first.a is None else first.a.shape[0]
        a_std, c_std, col_pos, col_neg = _standard_matrix(c, blocks, n_eq, free, upper)
        pattern = bounded, np.isfinite(hi[0])
        for j, i in enumerate(members):
            out[i] = _StandardForm(a_std[j], b_std[j], c_std[j], col_pos, free, col_neg,
                                   shift[j], float(const[j]), upper, n_eq,
                                   {"pattern": pattern})
    return out  # type: ignore[return-value]


def solve_lp(problem: LPProblem, max_iter: int = 10000, *, box: Box | None = None,
             parent: NodeHandle | None = None, threshold: float = np.inf) -> Solution:
    """Solve a general-form :class:`LPProblem` by reduction to standard form.

    Free variables are split, finite lower bounds shifted to zero, finite
    upper bounds become inequality rows, and inequalities get slacks.
    ``Solution.iterations`` counts the phase-1 plus phase-2 pivots, and
    ``Solution.handle`` holds the final tableau (a :class:`NodeHandle`,
    or None where no child could be screened from it).
    Raises :class:`NumericalInstabilityError` on non-finite data.

    ``box=(lo, hi)`` solves a branch-and-bound node: ``problem`` with its
    bounds tightened to the box, as ``MILPModel.relaxation(lo, hi)``
    tightens them, without building that LP.  ``parent`` is then the
    parent node's ``Solution.handle`` (the parent's LP differs from the
    node's only in its bounds): the standard form is patched from the
    parent's, and :func:`screen_node` restarts from the parent's
    tableau.  It raises :class:`ScreenedNode` when it proves the node
    prunes against ``threshold``, or answers the node from its warm
    basis (a ``Solution`` with ``status="warm"``); only a node it leaves
    unproven gets the cold solve.
    """
    form = _standard_form(problem, None if parent is None else parent.form, box)
    warm = None if parent is None else screen_node(parent, form, threshold, max_iter)
    if warm is not None:
        return form.solution(warm, status="warm")
    return form.solution(_simplex(form.a, form.b, form.c, max_iter))


# ---------------------------------------------------------------------------
# Branch-and-bound node LPs: answered from the parent's tableau, else cold
# ---------------------------------------------------------------------------

#: dual-simplex pivots :func:`screen_node` makes at most before it hands
#: the node to the cold solve
_SCREEN_PIVOTS = 6

#: a screened bound must clear the prune threshold by this share of
#: ``max(1, |threshold|)``: the gap the dual bound's and the cold solve's
#: rounding must both fit in (evidence in docs/PERFORMANCE.md)
_SCREEN_MARGIN = 1e-9

#: an infeasibility certificate must put the node's phase-1 objective
#: above this multiple of the cold solve's feasibility tolerance
_CERTIFY_FACTOR = 2.0


@dataclass(frozen=True)
class NodeHandle:
    """A solved LP's standard form with its final phase-2 tableau and
    basis (from the cold solve or a warm answer): what
    :func:`screen_node` restarts a child node from."""

    form: _StandardForm
    tableau: np.ndarray
    basis: np.ndarray


class ScreenedNode(InfeasibleError):
    """A node LP proven, without its cold solve, to be infeasible or to
    bound at or above the prune threshold (it prunes either way)."""


def _column_caps(form: _StandardForm) -> np.ndarray:
    """An upper bound of every column of ``form`` (one slack per row),
    ``inf`` where the box gives none: a lower-bounded variable with an
    upper-bound row, and that row's slack, stay within ``hi - lo``; an
    inequality slack within ``h - G x`` at its smallest over the box."""
    m, cols = form.a.shape
    n, n_ineq = cols - m, m - form.upper.size
    if "caps" not in form.memo:
        g = form.a[:n_ineq, :n]
        form.memo["caps"] = (np.isin(form.upper, form.free), g < 0,
                             np.where(g < 0, g, 0.0))
    split, negative, g_neg = form.memo["caps"]
    ranges = np.where(split, np.inf, np.maximum(form.b[n_ineq:], 0.0))
    caps = np.full(cols, np.inf)
    caps[form.col_pos[form.upper]] = ranges
    caps[n + n_ineq:] = ranges
    finite = np.isfinite(caps[:n])
    lowest = g_neg @ np.where(finite, caps[:n], 0.0)
    caps[n:n + n_ineq] = np.where((negative & ~finite).any(axis=1), np.inf,
                                  np.maximum(form.b[:n_ineq] - lowest, 0.0))
    return caps


def _certifies_infeasible(u: np.ndarray, form: _StandardForm) -> bool:
    """Whether row weights ``u`` prove the cold phase 1 of ``form``
    ends above its feasibility tolerance.

    Phase 1 flips the rows with ``b_i < 0`` and minimizes the sum of
    artificials.  With ``u A >= 0`` (so ``u >= 0``: every row has a
    slack), ``y = -diag(sign b) u / kappa`` with ``kappa = max u_i`` over
    those rows is dual feasible for that problem, so its optimum is at
    least ``-u.b / kappa``; that must exceed ``_CERTIFY_FACTOR`` times
    the tolerance ``1e-7 max(1, max|b|)`` the cold solve judges by.
    Rounding leaves some entries of ``u A`` a few ulps below zero; each
    is charged against ``-u.b`` at its column's cap over the box (in
    phase 1 a cap also admits its row's artificial, which moves the
    bound by that many ulps of itself: inside the factor).
    """
    b = form.b
    flipped = b < 0
    if not flipped.any():
        return False
    ua = u @ form.a
    short = ua < 0
    if (ua[short] < -_EPS).any():
        return False
    charge = -(ua[short] @ _column_caps(form)[short]) if short.any() else 0.0
    kappa = u[flipped].max()
    return bool(kappa > 0 and -(u @ b) - charge > _CERTIFY_FACTOR * _feas_tol(b) * kappa)


def _dual_bound(t: np.ndarray, form: _StandardForm) -> float:
    """A lower bound of ``min c^T z`` over ``form`` read from the duals
    of tableau ``t`` (same columns as ``form``, every row with a slack).

    The objective row's slack columns hold ``-y``; the reduced costs are
    recomputed as ``d = c - y A`` from the form itself.  For every
    feasible ``z``, ``c^T z = y^T b + d^T z``, which is at least
    ``y^T b`` plus each negative ``d_j`` at its column's cap.  So the
    reduced costs pivoting left a little below zero, and entries it
    skipped eliminating, are charged instead of trusted; the bound is
    ``-inf`` where such a column has no finite cap.
    """
    m, cols = form.a.shape
    y = -t[m, cols - m:cols]
    d = form.c - y @ form.a
    short = d < 0
    if not short.any():
        return float(y @ form.b)
    return float(y @ form.b) + float(d[short] @ _column_caps(form)[short])


def _warm_optimum(t: np.ndarray, basis: np.ndarray, form: _StandardForm,
                  pivots: int, max_iter: int) -> Raw | None:
    """``form``'s optimum from tableau ``t`` (a copy :func:`screen_node`
    owns), whose ``basis`` the dual pivots turned primal feasible.

    The primal :func:`_pivot` clears any reduced cost the dual ratio
    test left below ``-_EPS``, so the basis is optimal by the cold
    solve's own test.  The point ``z`` it reads is judged from the form,
    not the tableau: it is accepted only when ``z >= -feas_tol`` and
    ``|A z - b| <= feas_tol`` with the cold solve's ``feas_tol``; None
    otherwise.  The objective is ``c.z``, as :func:`_simplex` reports.
    """
    cols = t.shape[1] - 1
    pivots += _pivot(t, basis, cols, max_iter)
    z = np.zeros(cols)
    z[basis] = t[:-1, -1]
    feas_tol = _feas_tol(form.b)
    if z.min() < -feas_tol or np.abs(form.a @ z - form.b).max() > feas_tol:
        return None
    return z, float(form.c @ z), pivots, t, basis


def screen_node(parent: NodeHandle, form: _StandardForm, threshold: float,
                max_iter: int) -> Raw | None:
    """Bound the node LP ``form`` by a few dual-simplex pivots from
    ``parent``'s final tableau.  Three outcomes:

    * raises :class:`ScreenedNode`: the node prunes, because its bound
      reaches ``threshold`` (by ``_SCREEN_MARGIN``, proven by
      :func:`_dual_bound`) or a row certifies it infeasible;
    * returns the node's optimum (what :func:`_simplex` returns): the
      basis turned primal feasible below the threshold, and
      :func:`_warm_optimum` finished and accepted it;
    * returns None, "unproven": the pivot cap was reached, or a dual
      bound, certificate or warm point fell short; the cold solve runs.

    ``form`` must share ``parent.form``'s matrix (a node patched from
    its parent's form), and every row has a slack (``parent`` exists
    only then), so the tableau's slack columns hold the basis inverse:
    the child's right-hand side in the parent basis is
    ``T[:, slacks] @ b``.  The pivots keep the basis dual feasible, so
    its objective steers them.
    """
    tableau = parent.tableau
    m = parent.basis.size
    cols = tableau.shape[1] - 1
    if form.a is not parent.form.a:
        return None
    t = tableau.copy()
    basis = parent.basis.copy()
    t[:, -1] = tableau[:, cols - m:cols] @ form.b
    floor = threshold - form.const + _SCREEN_MARGIN * max(1.0, abs(threshold))
    rhs, reduced = t[:m, -1], t[m, :cols]
    for pivots in range(_SCREEN_PIVOTS + 1):
        if -t[m, -1] >= floor:
            if _dual_bound(t, form) >= floor:
                raise ScreenedNode("node LP screened: it bounds at or above the "
                                   "prune threshold")
            return None
        leave = int(rhs.argmin())
        if rhs[leave] >= -_EPS:
            return _warm_optimum(t, basis, form, pivots, max_iter)
        row = t[leave, :cols]
        entering = (row < -_EPS).nonzero()[0]
        if not entering.size:
            if _certifies_infeasible(t[leave, cols - m:cols], form):
                raise ScreenedNode("node LP screened: a row certifies it infeasible")
            return None
        if pivots == _SCREEN_PIVOTS:
            return None
        # dual ratio test: the entering column keeps every reduced cost >= 0
        gain = np.maximum(reduced[entering], 0.0)
        ratios = gain / -row[entering]  # numlint: disable=NL002 -- entries < -_EPS
        enter = int(entering[ratios.argmin()])
        t[leave] /= t[leave, enter]
        factors = t[:, enter].copy()
        factors[leave] = 0.0
        t -= factors[:, None] * t[leave]
        basis[leave] = enter
    return None


def _solve_batch(problems: Sequence[LPProblem], max_iter: int,
                 min_width: int) -> List[Outcome]:
    """:func:`solve_lp_batch` with the routing width as a parameter."""
    out: List[Outcome | None] = [None] * len(problems)
    groups: Dict[Tuple[int, int], List[Tuple[int, _StandardForm]]] = {}
    for i, form in enumerate(_standard_forms(problems)):
        if isinstance(form, ReproError):  # handed back: solve_lp would raise it
            out[i] = form
        else:
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
            out[i] = res if isinstance(res, Exception) else form.solution(res)
    return out  # type: ignore[return-value]


def solve_lp_batch(problems: Sequence[LPProblem], max_iter: int = 10000) -> List[Outcome]:
    """Solve independent LPs; per problem, what :func:`solve_lp` returns
    or the exception it raises (returned, not raised).

    Problems whose standard forms share a shape run as one lockstep
    stacked simplex when at least ``_STACK_MIN_WIDTH`` of them do, else
    one by one.  Either way each member's ``x``, objective, pivot count
    and exception class are byte-identical to its own ``solve_lp`` call.
    Each solution carries its final tableau (``Solution.handle``) as
    ``solve_lp``'s does.  Records each group's width in the
    ``convex.lp.stack_width`` histogram.
    """
    return _solve_batch(problems, max_iter, _STACK_MIN_WIDTH)
