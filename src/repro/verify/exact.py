"""Exact (complete) robustness verification by big-M MILP.

The exact-verifier class of §II-B-2: "predicated upon Mixed Integer
Programming ... by definition, these exact verifiers are not beset by
false positives or false negatives, but they must contend with resolving
NP-hard optimization problems, which in turn obviates their scalability."

Each *unstable* ReLU gets a binary activation indicator with big-M
constraints derived from its pre-activation box; stable neurons stay
linear.  The MILP is minimized with this library's branch-and-bound, so
the exponential blow-up the paper warns about is directly measurable
(VERIF benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List

import numpy as np

from repro.minlp.milp import solve_milp
from repro.minlp.model import MILPModel
from repro.nn.network import Sequential
from repro.verify.lp_relax import _encode, _stages_and_boxes

__all__ = ["ExactResult", "exact_margin_bound"]


@dataclass(frozen=True)
class ExactResult:
    """Exact verification outcome."""

    margin: float
    x_worst: np.ndarray | None
    nodes_explored: int
    converged: bool
    n_binaries: int


def _big_m(binaries: List[int], enc, key, z, h, l, u, slope) -> None:
    """ReLU with a binary indicator ``a`` on each unstable neuron (its
    column appended to ``binaries``): ``h >= z``, ``h <= z - l (1 - a)``
    and ``h <= u a`` inside the box ``0 <= h <= max(u, 0)``."""
    enc.lo[h] = 0.0
    enc.hi[h] = np.maximum(u, 0.0)  # numpy's max: a -0.0 bound boxes h to +0.0
    if l >= 0.0:
        enc.eq(0.0, (h, 1.0), (z, -1.0))  # active: h = z
    elif u <= 0.0:
        enc.eq(0.0, (h, 1.0))  # inactive: h = 0
    else:
        a = enc.column(0.0, 1.0)
        binaries.append(a)
        enc.ineq(0.0, (z, 1.0), (h, -1.0))  # z - h <= 0
        enc.ineq(-l, (h, 1.0), (z, -1.0), (a, -l))  # h - z - l a <= -l
        enc.ineq(0.0, (h, 1.0), (a, -u))  # h - u a <= 0


def exact_margin_bound(
    net: Sequential,
    x0: np.ndarray,
    eps: float,
    c: np.ndarray,
    d: float = 0.0,
    max_nodes: int = 20000,
    time_limit: float = float("inf"),
) -> ExactResult:
    """Exactly minimize ``c^T f(x) + d`` over the eps-ball (pure-ReLU
    stacks with a linear output layer only)."""
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    stages, pre = _stages_and_boxes(net, x0, eps, "exact", relu_only=True)
    binaries: List[int] = []
    lp = _encode(stages, pre, x0, eps, c, partial(_big_m, binaries))
    model = MILPModel(lp, frozenset(binaries))
    res = solve_milp(model, max_nodes=max_nodes, time_limit=time_limit)
    x_worst = res.x[: x0.size] if res.x is not None else None
    margin = res.objective + d if res.x is not None else res.lower_bound + d
    return ExactResult(
        margin=float(margin),
        x_worst=x_worst,
        nodes_explored=res.nodes_explored,
        converged=res.converged,
        n_binaries=len(binaries),
    )
