"""Primal heuristics for mixed-integer models.

These provide fast *incumbents* — the upper-bound half of the paper's
bound-tightening story — and double as the "relaxation + rounding"
baseline the QOS benchmark compares against the exact BnB and PSO.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InfeasibleError
from repro.convex.lp import solve_lp
from repro.convex.problem import LPProblem
from repro.minlp.model import MILPModel, is_integral

__all__ = ["round_and_repair", "feasibility_pump", "diving_heuristic"]


def round_and_repair(model: MILPModel, x_relaxed: np.ndarray, max_repair: int = 50) -> np.ndarray | None:
    """Round the integer coordinates of an LP-relaxed point, then re-solve
    the LP over the continuous coordinates with integers fixed.

    Tries nearest-rounding first, then floor-rounding (which can only
    reduce resource usage in <=-constrained models).  A pure-integer
    model has nothing to re-solve, so it makes no LP call.  Returns the
    best feasible point found, or None.
    """
    x_relaxed = np.asarray(x_relaxed, dtype=np.float64)
    idx = sorted(model.integer_indices)
    # with no continuous coordinate, fixing the integers leaves the repair
    # LP one feasible point: the rounded x that is_feasible just rejected
    repairable = len(idx) < model.dim
    best: np.ndarray | None = None
    best_obj = np.inf
    for rounder in (np.round, np.floor):
        x = x_relaxed.copy()
        x[idx] = rounder(x[idx])
        x = np.clip(x, model.lp.lo, model.lp.hi)
        candidate: np.ndarray | None = None
        if model.is_feasible(x):
            candidate = x
        elif repairable:
            # fix integers, re-optimize continuous part
            lo = model.lp.lo.copy()
            hi = model.lp.hi.copy()
            lo[idx] = hi[idx] = x[idx]
            try:
                sol = solve_lp(LPProblem(c=model.lp.c, g=model.lp.g, h=model.lp.h,
                                         a=model.lp.a, b=model.lp.b, lo=lo, hi=hi))
                if model.is_feasible(sol.x):
                    candidate = sol.x
            except InfeasibleError:
                candidate = None
        if candidate is not None:
            obj = model.objective_value(candidate)
            if obj < best_obj:
                best, best_obj = candidate, obj
    return best


def feasibility_pump(model: MILPModel, max_rounds: int = 60, rng: np.random.Generator | None = None) -> np.ndarray | None:
    """Classic feasibility pump: alternate LP projection and rounding,
    perturbing on cycles.  Returns a feasible point or None."""
    rng = rng or np.random.default_rng(0)
    try:
        sol = solve_lp(model.lp)
    except InfeasibleError:
        return None
    x_lp = sol.x
    idx = sorted(model.integer_indices)
    if not idx:
        return x_lp if model.is_feasible(x_lp) else None
    x_int = x_lp.copy()
    x_int[idx] = np.round(x_int[idx])
    seen: set[tuple] = set()
    for _ in range(max_rounds):
        if model.is_feasible(x_int):
            return x_int
        key = tuple(np.round(x_int[idx]).astype(int))
        if key in seen:
            # cycle: flip a few random integer coordinates
            flips = rng.choice(len(idx), size=max(1, len(idx) // 5), replace=False)
            for f in flips:
                i = idx[f]
                x_int[i] = np.clip(x_int[i] + rng.choice([-1.0, 1.0]), model.lp.lo[i], model.lp.hi[i])
            key = tuple(np.round(x_int[idx]).astype(int))
        seen.add(key)
        # LP projection: minimize L1 distance of integer coords to x_int
        # via objective substitution c_proj = sign trick on a fresh LP
        n = model.dim
        c_proj = np.zeros(n)
        for i in idx:
            # piecewise-linear |x_i - round| approximated by its gradient
            # direction at the current LP point
            c_proj[i] = -1.0 if x_int[i] > 0.5 * (model.lp.lo[i] + model.lp.hi[i]) else 1.0
        try:
            sol = solve_lp(LPProblem(c=c_proj, g=model.lp.g, h=model.lp.h,
                                     a=model.lp.a, b=model.lp.b, lo=model.lp.lo, hi=model.lp.hi))
        except InfeasibleError:
            return None
        x_lp = sol.x
        x_int = x_lp.copy()
        x_int[idx] = np.round(x_int[idx])
    return x_int if model.is_feasible(x_int) else None


def diving_heuristic(model: MILPModel, max_depth: int | None = None) -> np.ndarray | None:
    """Depth-first dive: repeatedly solve the LP relaxation and fix the
    most-integral fractional variable to its nearest integer."""
    lo = model.lp.lo.copy()
    hi = model.lp.hi.copy()
    depth_budget = max_depth if max_depth is not None else 2 * len(model.integer_indices) + 4
    for _ in range(depth_budget):
        try:
            sol = solve_lp(LPProblem(c=model.lp.c, g=model.lp.g, h=model.lp.h,
                                     a=model.lp.a, b=model.lp.b, lo=lo, hi=hi))
        except InfeasibleError:
            return None
        x = sol.x
        if is_integral(x, model.integer_indices):
            snapped = x.copy()
            for i in model.integer_indices:
                snapped[i] = np.round(snapped[i])
            return snapped if model.is_feasible(snapped) else None
        # most integral fractional variable (smallest fractionality > tol)
        best_i, best_frac = None, np.inf
        for i in sorted(model.integer_indices):
            frac = abs(x[i] - round(x[i]))
            if 1e-6 < frac < best_frac:
                best_frac = frac
                best_i = i
        if best_i is None:
            return None
        lo[best_i] = hi[best_i] = np.round(x[best_i])
    return None
