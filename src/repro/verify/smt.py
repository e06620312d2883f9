"""SMT-style exact verification by ReLU case splitting.

§II-B-2 lists "Satisfiability Modulo Theories (SMT)" alongside MIP and
BnB as the exact-verifier class.  This is the Reluplex-flavoured variant:
instead of big-M binaries, it performs DPLL-style *case splits* on the
phases of unstable ReLUs.  Each leaf of the split tree is a pure LP
(every ReLU fixed active or inactive); bound propagation prunes branches
whose LP relaxation already exceeds the incumbent, and fixing a phase
tightens the triangle relaxation of the remaining unstable neurons.

Functionally equivalent to :func:`repro.verify.exact.exact_margin_bound`
(both are complete); structurally it is a different search — depth-first
over phase assignments rather than best-first over fractional branches —
so the two exact engines can cross-check each other, which the test
suite does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.convex.lp import solve_lp
from repro.exceptions import InfeasibleError
from repro.nn.network import Sequential
from repro.verify.lp_relax import _encode, _stages_and_boxes

__all__ = ["SMTResult", "smt_margin_bound"]

Phase = Dict[Tuple[int, int], bool]  # (stage, neuron) -> active?


@dataclass(frozen=True)
class SMTResult:
    """Case-splitting verification outcome."""

    margin: float
    x_worst: Optional[np.ndarray]
    splits: int
    leaves_solved: int
    converged: bool


def _phase_fixed(phase: Phase, remaining: List[Tuple[int, int]],
                 enc, key, z, h, l, u, slope) -> None:
    """ReLU under a (possibly partial) phase assignment.

    Fixed-active neurons contribute ``h = z`` (with ``z >= 0``);
    fixed-inactive contribute ``h = 0`` (with ``z <= 0``); still-unstable
    neurons, appended to ``remaining``, keep a relaxation that leans on
    the ``h >= 0`` box: ``h >= z`` and the upper chord.
    """
    decided = phase.get(key)
    if l >= 0.0 or decided is True:
        enc.eq(0.0, (h, 1.0), (z, -1.0))  # active: h = z, z >= max(l, 0)
        enc.lo[z] = max(l, 0.0)
        enc.lo[h] = max(l, 0.0)
        enc.hi[h] = max(u, 0.0)
    elif u <= 0.0 or decided is False:
        enc.eq(0.0, (h, 1.0))  # inactive: h = 0, z <= min(u, 0)
        enc.hi[z] = min(u, 0.0)
        enc.lo[h] = enc.hi[h] = 0.0
    else:
        remaining.append(key)
        enc.ineq(0.0, (z, 1.0), (h, -1.0))
        chord = u / (u - l)  # numlint: disable=NL002 -- unstable neurons satisfy l < 0 < u, so u - l > 0
        enc.ineq(-chord * l, (h, 1.0), (z, -chord))
        enc.lo[h] = 0.0
        enc.hi[h] = max(u, 0.0)


def _leaf_lp(stages, pre, phase: Phase, x0, eps, c):
    """The LP of a (possibly partial) phase assignment, and the list of
    its remaining unstable neurons."""
    remaining: List[Tuple[int, int]] = []
    lp = _encode(stages, pre, x0, eps, c, partial(_phase_fixed, phase, remaining))
    return lp, remaining


def smt_margin_bound(
    net: Sequential,
    x0: np.ndarray,
    eps: float,
    c: np.ndarray,
    d: float = 0.0,
    max_splits: int = 10000,
    time_limit: float = float("inf"),
    clock: Callable[[], float] = time.perf_counter,
) -> SMTResult:
    """Exactly minimize ``c^T f(x) + d`` over the eps-ball by DPLL-style
    case splits on ReLU phases (pure-ReLU stacks only)."""
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    c = np.asarray(c, dtype=np.float64).ravel()
    stages, pre = _stages_and_boxes(net, x0, eps, "SMT", relu_only=True)

    start = clock()
    best = np.inf
    best_x: Optional[np.ndarray] = None
    splits = 0
    leaves = 0

    def network_margin(x: np.ndarray) -> float:
        return float(c @ net.forward(x.reshape(1, -1), training=False).ravel() + d)

    stack: List[Phase] = [{}]
    exhausted = True
    while stack:
        if splits >= max_splits or clock() - start > time_limit:
            exhausted = False
            break
        phase = stack.pop()
        try:
            lp, remaining = _leaf_lp(stages, pre, phase, x0, eps, c)
            sol = solve_lp(lp)
        except InfeasibleError:
            continue
        bound = sol.objective + d
        if bound >= best - 1e-9:
            continue  # prune: this subtree cannot improve
        x_cand = sol.x[: x0.size]
        cand_margin = network_margin(x_cand)
        if cand_margin < best:
            best = cand_margin
            best_x = x_cand.copy()
        if not remaining:
            leaves += 1
            # leaf LP is exact for the fixed phases
            if bound < best:
                best = bound
                best_x = x_cand.copy()
            continue
        # split on the unstable neuron with the widest pre-activation box
        widths = [pre[k][1][j] - pre[k][0][j] for (k, j) in remaining]
        key = remaining[int(np.argmax(widths))]
        splits += 1
        for value in (True, False):
            child = dict(phase)
            child[key] = value
            stack.append(child)

    return SMTResult(
        margin=float(best),
        x_worst=best_x,
        splits=splits,
        leaves_solved=leaves,
        converged=exhausted,
    )
