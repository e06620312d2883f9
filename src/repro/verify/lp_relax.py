"""LP ("planet"/triangle) relaxation verifier, and the one network
encoding behind every LP-based verifier.

Grade ``LINEAR`` but tighter than single-pass CROWN: all neurons are
constrained *jointly* in one linear program, with each unstable ReLU
replaced by its triangle relaxation (both lower faces plus the upper
chord).  This is the MILP-relaxation class of verifier from §II-B-2 —
"more quickly resolved and more scalable [than exact], but their
effectiveness ... degrades" as the boxes widen.

:func:`_encode` writes one Dense/(Leaky)ReLU stack as an LP — the
variable layout, the input and pre-activation boxes, the affine rows
and the objective — and leaves each activation to a per-neuron *rule*:
the triangle here, the big-M binaries of :mod:`repro.verify.exact` and
the fixed phases of :mod:`repro.verify.smt`.  The triangle LP is the
per-neuron convex relaxation of the exact encodings, so the three
differ in nothing else.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.convex.lp import solve_lp
from repro.convex.problem import LPProblem
from repro.exceptions import VerificationError
from repro.kernels.propagation import AffineStage, extract_affine_stages
from repro.nn.network import Sequential
from repro.verify.linear_bounds import crown_preactivation_bounds

__all__ = ["build_margin_lp", "lp_margin_lower_bound"]

Boxes = List[Tuple[np.ndarray, np.ndarray]]


def _stages_and_boxes(net: Sequential, x0: np.ndarray, eps: float, verifier: str,
                      bounds_method: str = "crown", relu_only: bool = False
                      ) -> Tuple[List[AffineStage], Boxes]:
    """The encoder's entry: the network in stage form, checked to end in
    a linear layer (and, for the exact verifiers, to use ReLU only), and
    its pre-activation boxes on the eps-ball around ``x0``."""
    stages = extract_affine_stages(net)
    if stages[-1].act_slope is not None:
        raise VerificationError(f"{verifier} verifier expects a linear output layer")
    if relu_only and any(s.act_slope not in (0.0, None) for s in stages[:-1]):
        raise VerificationError(f"{verifier} verifier supports pure-ReLU stacks only")
    return stages, crown_preactivation_bounds(net, x0, eps, method=bounds_method)


class _Encoding:
    """An LP under construction: the boxes of the network's columns,
    the columns a rule appends, and rows kept as ``(rhs, coefficients)``
    with each coefficient a ``(column or slice, value)`` pair."""

    def __init__(self, n: int):
        self.lo = np.full(n, -np.inf)
        self.hi = np.full(n, np.inf)
        self.extra: List[Tuple[float, float]] = []
        self.eq_rows: list = []
        self.ineq_rows: list = []

    def eq(self, rhs: float, *coefs) -> None:
        self.eq_rows.append((rhs, coefs))

    def ineq(self, rhs: float, *coefs) -> None:
        self.ineq_rows.append((rhs, coefs))

    def column(self, lo: float, hi: float) -> int:
        """Append one column boxed to ``[lo, hi]``; returns its index."""
        self.extra.append((lo, hi))
        return self.lo.size + len(self.extra) - 1


#: ``rule(enc, (stage, neuron), z, h, l, u, slope)`` encodes one
#: activation ``h = act(z)`` whose pre-activation lies in ``[l, u]``
Rule = Callable[[_Encoding, Tuple[int, int], int, int, float, float, float], None]


def _stacked(rows: list, n: int) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    if not rows:
        return None, None
    mat = np.zeros((len(rows), n))
    for row, (_, coefs) in zip(mat, rows):
        for col, value in coefs:
            row[col] = value
    return mat, np.asarray([rhs for rhs, _ in rows])


def _encode(stages: List[AffineStage], pre: Boxes, x0: np.ndarray, eps: float,
            c: np.ndarray, rule: Rule) -> LPProblem:
    """``min c^T z_last`` over the network on the eps-ball, each
    activation encoded by ``rule``.

    Columns are ``[x, z_0, h_0, z_1, h_1, ..., z_last]`` and then the
    columns ``rule`` appends; ``x`` is boxed to the ball and each ``z_k``
    to its pre-activation box.  Rows run stage by stage: the affine
    equalities ``z_k = h_{k-1} W_k + b_k``, then the stage's activation
    rows, neuron by neuron.
    """
    n_in = x0.size
    enc = _Encoding(n_in + sum(s.b.size * (1 if s.act_slope is None else 2) for s in stages))
    enc.lo[:n_in] = x0 - eps
    enc.hi[:n_in] = x0 + eps
    prev = slice(0, n_in)  # the columns feeding the next stage
    for k, stage in enumerate(stages):
        z0, m = prev.stop, stage.b.size
        enc.lo[z0 : z0 + m], enc.hi[z0 : z0 + m] = pre[k]
        for j in range(m):
            enc.eq(-float(stage.b[j]), (prev, stage.w[:, j]), (z0 + j, -1.0))
        prev = slice(z0, z0 + m)
        if stage.act_slope is not None:
            h0 = z0 + m
            for j, (l, u) in enumerate(zip(pre[k][0].tolist(), pre[k][1].tolist())):
                rule(enc, (k, j), z0 + j, h0 + j, l, u, stage.act_slope)
            prev = slice(h0, h0 + m)

    n_all = enc.lo.size + len(enc.extra)
    obj = np.zeros(n_all)
    obj[prev] = np.asarray(c, dtype=np.float64).ravel()
    g, h = _stacked(enc.ineq_rows, n_all)
    a, b = _stacked(enc.eq_rows, n_all)
    return LPProblem(
        c=obj, g=g, h=h, a=a, b=b,
        lo=np.concatenate([enc.lo, [lo for lo, _ in enc.extra]]),
        hi=np.concatenate([enc.hi, [hi for _, hi in enc.extra]]),
    )


def _triangle(tight_boxes: bool) -> Rule:
    """The triangle relaxation of (leaky-)ReLU: ``h = z`` or ``h = slope z``
    on stable neurons, both lower faces and the upper chord otherwise."""

    def rule(enc, key, z, h, l, u, slope):
        if l >= 0.0:
            enc.eq(0.0, (h, 1.0), (z, -1.0))  # active: h = z
            if tight_boxes:
                enc.lo[h], enc.hi[h] = l, u
        elif u <= 0.0:
            enc.eq(0.0, (h, 1.0), (z, -slope))  # inactive: h = slope z
            if tight_boxes:
                enc.lo[h] = min(slope * l, slope * u)
                enc.hi[h] = max(slope * l, slope * u)
        else:
            enc.ineq(0.0, (z, 1.0), (h, -1.0))  # z - h <= 0
            enc.ineq(0.0, (z, slope), (h, -1.0))  # slope z - h <= 0
            chord = (u - slope * l) / (u - l)  # numlint: disable=NL002 -- unstable neurons satisfy l < 0 < u, so u - l > 0
            enc.ineq(slope * l - chord * l, (h, 1.0), (z, -chord))  # h - chord z <= intercept
            enc.lo[h] = min(0.0, slope * l)
            enc.hi[h] = max(u, 0.0)

    return rule


def build_margin_lp(
    net: Sequential,
    x0: np.ndarray,
    eps: float,
    c: np.ndarray,
    bounds_method: str = "crown",
    tight_boxes: bool = False,
) -> LPProblem:
    """Assemble the joint triangle-relaxation LP for one margin query.

    The returned :class:`LPProblem` minimizes ``c^T z_last`` over the
    relaxed network polytope; its optimum (plus the spec offset ``d``)
    is the sound margin lower bound :func:`lp_margin_lower_bound`
    reports.  Shared by the simplex rung and the first-order dual-ascent
    rung (:mod:`repro.verify.firstorder_lp`), so both bound the *same*
    polytope.

    ``tight_boxes=True`` additionally closes the variable box on
    *stable* post-activation variables (implied by their equality rows,
    hence redundant for the simplex) — the first-order dual needs every
    variable compact so the inner box minimization stays finite.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    stages, pre = _stages_and_boxes(net, x0, eps, "LP", bounds_method)
    return _encode(stages, pre, x0, eps, c, _triangle(tight_boxes))


def lp_margin_lower_bound(
    net: Sequential,
    x0: np.ndarray,
    eps: float,
    c: np.ndarray,
    d: float = 0.0,
    bounds_method: str = "crown",
) -> float:
    """Sound lower bound on ``min over ball of c^T f(x) + d`` by a joint
    LP over all neurons.

    Pre-activation boxes come from :func:`crown_preactivation_bounds`
    (``bounds_method`` selects 'crown' or 'crown-ibp'); only ReLU
    (``slope == 0``) and LeakyReLU stacks with a linear output layer are
    supported.
    """
    lp = build_margin_lp(net, x0, eps, c, bounds_method=bounds_method)
    sol = solve_lp(lp)
    return float(sol.objective + d)
