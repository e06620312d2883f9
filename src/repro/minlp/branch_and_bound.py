"""Generic best-first branch-and-bound over box-branchable relaxations.

This is the "exact verifier" engine of the paper's §II-B-2: "exact
verifiers are not beset by false positives or false negatives, but they
must contend with resolving NP-hard optimization problems".  The engine
is parameterized by a bounding oracle so the same code drives MILP
(LP bounding), convex MIQP (QP bounding), and the exact NN robustness
verifier (LP bounding over ReLU activation boxes).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Optional

import numpy as np

from repro.exceptions import InfeasibleError, UnboundedError

__all__ = ["BnBResult", "BnBNode", "branch_and_bound", "most_fractional_index"]

# bounding oracle: (lo, hi, parent handle, prune threshold) ->
# (bound_value, relaxed_solution, handle) or raises InfeasibleError when the
# node region is empty.  The handle is whatever the oracle wants the node's
# children to be bounded from (the engine only stores it on them; None is
# fine); a node whose bound the oracle proves to reach the threshold may
# raise InfeasibleError instead, since it prunes either way.
BoundFn = Callable[[np.ndarray, np.ndarray, object, float],
                   tuple[float, np.ndarray, object]]


@dataclass(order=True)
class BnBNode:
    """A search node: a box with its parent relaxation bound as priority."""

    bound: float
    counter: int = field(compare=True)
    lo: np.ndarray = field(compare=False, default=None)
    hi: np.ndarray = field(compare=False, default=None)
    depth: int = field(compare=False, default=0)
    #: the parent's bound handle, held until this node is popped
    handle: object = field(compare=False, default=None)


@dataclass(frozen=True)
class BnBResult:
    """Branch-and-bound outcome with optimality-gap accounting."""

    x: Optional[np.ndarray]
    objective: float
    lower_bound: float
    nodes_explored: int
    nodes_pruned: int
    converged: bool
    wall_time: float

    @property
    def gap(self) -> float:
        if self.x is None or not np.isfinite(self.objective):
            return float("inf")
        return self.objective - self.lower_bound


def most_fractional_index(x: np.ndarray, integer_indices: FrozenSet[int], tol: float = 1e-6) -> int | None:
    """Branching rule: the integer coordinate farthest from integrality
    (the first in sorted order on ties; None when none is more than
    ``tol`` from an integer)."""
    return _most_fractional(np.asarray(x), _index_array(integer_indices), tol)


def _index_array(integer_indices: FrozenSet[int]) -> np.ndarray:
    return np.array(sorted(integer_indices), dtype=np.intp)


def _most_fractional(x: np.ndarray, idx: np.ndarray, tol: float = 1e-6) -> int | None:
    """:func:`most_fractional_index` over the sorted index array ``idx``.

    ``np.rint`` rounds half to even like Python's ``round``, and
    ``argmax`` takes the first maximum; a distance that is not above
    ``tol`` (NaN included) never wins."""
    if not idx.size:
        return None
    v = x[idx]
    frac = np.abs(v - np.rint(v))
    frac = np.where(frac > tol, frac, -np.inf)
    j = int(frac.argmax())
    return int(idx[j]) if frac[j] > -np.inf else None


def _snap(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """A copy of ``x`` with the ``idx`` coordinates rounded half to even;
    ``+ 0.0`` turns ``np.rint``'s -0.0 into the 0.0 ``round`` stores."""
    snapped = x.copy()
    snapped[idx] = np.rint(snapped[idx]) + 0.0
    return snapped


def branch_and_bound(
    bound_fn: BoundFn,
    objective_fn: Callable[[np.ndarray], float],
    feasible_fn: Callable[[np.ndarray], bool],
    lo: np.ndarray,
    hi: np.ndarray,
    integer_indices: FrozenSet[int],
    max_nodes: int = 20000,
    gap_tol: float = 1e-6,
    time_limit: float = float("inf"),
    incumbent_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], Optional[np.ndarray]] | None = None,
    initial_incumbent: Optional[np.ndarray] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> BnBResult:
    """Best-first branch and bound for minimization.

    Parameters
    ----------
    bound_fn:
        Relaxation oracle ``(lo, hi, parent_handle, threshold) ->
        (lower_bound, x_relaxed, handle)`` for a box (see ``BoundFn``);
        ``threshold`` is the current prune level ``best_obj - gap_tol``.
    objective_fn / feasible_fn:
        Evaluate and accept candidate incumbents.  ``objective_fn`` runs
        first, on every candidate, so it must accept infeasible points;
        ``feasible_fn`` runs only on a point that would improve the
        incumbent.
    lo, hi:
        Root box (integer coordinates are branched, continuous ones kept).
    incumbent_fn:
        Optional primal heuristic invoked on each node's relaxed point
        ``(x_relaxed, node_lo, node_hi)``; returns a candidate or None.
        (The paper's "hybridizing local and global optimization
        algorithms ... for deriving valid bounds".)
    """
    start = clock()
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    counter = itertools.count()
    idx = _index_array(integer_indices)

    best_x: Optional[np.ndarray] = None
    best_obj = np.inf
    explored = 0
    pruned = 0

    try:
        root_bound, _, _ = bound_fn(lo, hi, None, np.inf)
    except InfeasibleError:
        return BnBResult(None, np.inf, np.inf, 0, 0, True, clock() - start)

    heap: list[BnBNode] = [BnBNode(root_bound, next(counter), lo, hi, 0)]
    global_lower = root_bound

    def try_incumbent(x: Optional[np.ndarray]) -> None:
        nonlocal best_x, best_obj
        if x is None:
            return
        x = np.asarray(x, dtype=np.float64)
        # the objective is the cheaper test: only an improving point is
        # checked for feasibility
        obj = objective_fn(x)
        if obj < best_obj and feasible_fn(x):
            best_obj = obj
            best_x = x.copy()

    if initial_incumbent is not None:
        try_incumbent(initial_incumbent)

    while heap:
        if explored >= max_nodes or clock() - start > time_limit:
            global_lower = heap[0].bound if heap else global_lower
            return BnBResult(
                best_x, best_obj, min(global_lower, best_obj), explored, pruned,
                False, clock() - start,
            )
        node = heapq.heappop(heap)
        global_lower = node.bound
        if node.bound >= best_obj - gap_tol:
            pruned += 1
            continue
        explored += 1
        try:
            bound, x_rel, handle = bound_fn(node.lo, node.hi, node.handle,
                                            best_obj - gap_tol)
        except InfeasibleError:
            pruned += 1
            continue
        if bound >= best_obj - gap_tol:
            pruned += 1
            continue
        # integral relaxed point -> incumbent and exact bound for the node
        branch_i = _most_fractional(x_rel, idx)
        if branch_i is None:
            try_incumbent(_snap(x_rel, idx))
            continue
        # primal heuristic
        if incumbent_fn is not None:
            try_incumbent(incumbent_fn(x_rel, node.lo, node.hi))
        else:
            try_incumbent(_snap(x_rel, idx))
        # branch
        val = x_rel[branch_i]
        left_hi = node.hi.copy()
        left_hi[branch_i] = np.floor(val)
        right_lo = node.lo.copy()
        right_lo[branch_i] = np.ceil(val)
        if left_hi[branch_i] >= node.lo[branch_i] - 1e-12:
            heapq.heappush(heap, BnBNode(bound, next(counter), node.lo.copy(), left_hi,
                                         node.depth + 1, handle))
        if right_lo[branch_i] <= node.hi[branch_i] + 1e-12:
            heapq.heappush(heap, BnBNode(bound, next(counter), right_lo, node.hi.copy(),
                                         node.depth + 1, handle))

    final_lower = best_obj if best_x is not None else np.inf
    return BnBResult(
        best_x, best_obj, final_lower, explored, pruned, True, clock() - start
    )
