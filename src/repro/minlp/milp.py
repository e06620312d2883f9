"""MILP and convex-MIQP solvers built on the branch-and-bound engine."""

from __future__ import annotations

import numpy as np

from repro.exceptions import InfeasibleError
from repro.convex.lp import solve_lp
from repro.convex.problem import Solution
from repro.convex.qp import solve_qp
from repro.minlp.branch_and_bound import BnBResult, branch_and_bound
from repro.minlp.model import MILPModel, MIQPModel

__all__ = ["solve_milp", "solve_miqp"]


def solve_milp(
    model: MILPModel,
    max_nodes: int = 20000,
    gap_tol: float = 1e-6,
    time_limit: float = float("inf"),
    use_root_heuristic: bool = True,
    root: Solution | Exception | None = None,
) -> BnBResult:
    """Exact MILP solve: best-first BnB with LP-relaxation bounding.

    ``use_root_heuristic`` runs rounding-repair on the root relaxation to
    seed the incumbent — the hybrid local/global bounding §II-B endorses.
    ``root`` is the root relaxation's precomputed outcome (what
    ``solve_lp(model.relaxation())`` returns, or the exception it
    raises); it is used, or re-raised, wherever the root would be solved.
    """

    def bound(lo: np.ndarray, hi: np.ndarray) -> tuple[float, np.ndarray]:
        if np.any(lo > hi + 1e-12):
            raise InfeasibleError("empty node box")
        # branch_and_bound bounds the root box twice (for its initial
        # bound, then again when it pops the root node), and both calls
        # get the root relaxation's answer instead of a re-solve
        if (root is not None and np.array_equal(lo, model.lp.lo)
                and np.array_equal(hi, model.lp.hi)):
            if isinstance(root, InfeasibleError):
                raise root
            return root.objective, root.x
        relaxed = model.relaxation(extra_lo=lo, extra_hi=hi)
        sol = solve_lp(relaxed)
        return sol.objective, sol.x

    initial = None
    if use_root_heuristic and model.integer_indices:
        from repro.minlp.heuristics import round_and_repair

        if root is None:
            try:
                root = solve_lp(model.relaxation())
            except InfeasibleError as err:
                root = err
        if isinstance(root, Solution):
            initial = round_and_repair(model, root.x)
    if isinstance(root, Exception) and not isinstance(root, InfeasibleError):
        raise root

    return branch_and_bound(
        bound_fn=bound,
        objective_fn=model.objective_value,
        feasible_fn=model.is_feasible,
        lo=model.lp.lo,
        hi=model.lp.hi,
        integer_indices=model.integer_indices,
        max_nodes=max_nodes,
        gap_tol=gap_tol,
        time_limit=time_limit,
        initial_incumbent=initial,
    )


def solve_miqp(
    model: MIQPModel,
    max_nodes: int = 20000,
    gap_tol: float = 1e-6,
    time_limit: float = float("inf"),
) -> BnBResult:
    """Exact convex-MIQP solve: BnB with convex-QP bounding.

    The per-node relaxation is the model's convex QP on the node box —
    the "mixed-integer convex relaxations" bounding step of §II-B.
    """

    def bound(lo: np.ndarray, hi: np.ndarray) -> tuple[float, np.ndarray]:
        if np.any(lo > hi + 1e-12):
            raise InfeasibleError("empty node box")
        relaxed = model.relaxation(lo, hi)
        sol = solve_qp(relaxed)
        if not sol.converged:
            ineq, eq = relaxed.residuals(sol.x)
            if ineq > 1e-4 or eq > 1e-4:
                raise InfeasibleError("node QP did not reach feasibility")
        return sol.objective, sol.x

    # finite root box is required for branching on integers
    lo = model.lo.copy()
    hi = model.hi.copy()
    for i in model.integer_indices:
        if not np.isfinite(lo[i]) or not np.isfinite(hi[i]):
            raise InfeasibleError(
                f"integer variable {i} needs finite bounds for branch-and-bound"
            )
    return branch_and_bound(
        bound_fn=bound,
        objective_fn=model.objective_value,
        feasible_fn=model.is_feasible,
        lo=lo,
        hi=hi,
        integer_indices=model.integer_indices,
        max_nodes=max_nodes,
        gap_tol=gap_tol,
        time_limit=time_limit,
    )
