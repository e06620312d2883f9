"""CROWN-style backward linear bound propagation.

Grade ``LINEAR`` on the relaxation ladder, strictly tighter than IBP: the
output property is bounded by an *affine function of the input*, obtained
by propagating a linear form backwards through the network and replacing
each unstable ReLU with the triangle relaxation of
:func:`repro.convex.envelopes.relu_envelope` (choosing the lower or upper
face per the sign of the incoming coefficient).

Two modes:

* ``method='crown-ibp'`` — pre-activation boxes from IBP (fast);
* ``method='crown'`` — pre-activation boxes computed recursively with
  backward bounding per layer (tighter; the "bound tightening for each
  successive neural network layer" of the paper's abstract).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.exceptions import VerificationError
from repro.kernels.propagation import AffineStage, crown_preactivation_fast, extract_affine_stages
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.verify.interval import LayerBounds, propagate_intervals

__all__ = [
    "crown_margin_lower_bound",
    "crown_preactivation_bounds",
    "crown_input_linear_form",
]


def _relu_relaxation(lo: np.ndarray, hi: np.ndarray, leaky: float) -> tuple:
    """Per-neuron linear relaxation of (leaky-)ReLU on [lo, hi].

    Returns ``(lower_slope, lower_intercept, upper_slope, upper_intercept)``.
    """
    n = lo.size
    ls = np.empty(n)
    li = np.zeros(n)
    us = np.empty(n)
    ui = np.zeros(n)
    active = lo >= 0.0
    inactive = hi <= 0.0
    unstable = ~(active | inactive)
    ls[active] = us[active] = 1.0
    ls[inactive] = us[inactive] = leaky
    if np.any(unstable):
        l_u = lo[unstable]
        h_u = hi[unstable]
        # upper face: chord from (l, leaky*l) to (h, h)
        slope = (h_u - leaky * l_u) / (h_u - l_u)  # numlint: disable=NL002 -- unstable neurons satisfy l < 0 < h, so h - l > 0
        us[unstable] = slope
        ui[unstable] = leaky * l_u - slope * l_u
        # lower face: the adaptive CROWN choice between slope `leaky` and 1
        pick_one = h_u >= -l_u
        low_slope = np.where(pick_one, 1.0, leaky)
        ls[unstable] = low_slope
        li[unstable] = 0.0
    return ls, li, us, ui


def _backward_form(
    stages: List[AffineStage],
    pre_bounds: List[Tuple[np.ndarray, np.ndarray]],
    upto: int,
    c: np.ndarray,
    d: float,
) -> Tuple[np.ndarray, float]:
    """Affine under-estimator of ``c^T z_upto + d`` as a function of the
    input: returns ``(a, offset)`` with ``c^T z_upto + d >= a^T x + offset``
    over the region the pre-activation bounds describe."""
    a = c.copy()
    offset = d
    # backward through stages upto..0; at stage k the linear form applies
    # to the *pre-activation* z_k = h_{k-1} W_k + b_k where h is the
    # post-activation of the previous stage.
    for k in range(upto, -1, -1):
        stage = stages[k]
        # absorb the affine layer: form becomes a^T (h W + b)
        offset += float(a @ stage.b)
        a = stage.w @ a  # now acts on h_{k-1} (post-activation of k-1)
        if k == 0:
            break
        prev = stages[k - 1]
        if prev.act_slope is None:
            # previous stage output is its pre-activation; continue
            continue
        lo, hi = pre_bounds[k - 1]
        ls, li, us, ui = _relu_relaxation(lo, hi, prev.act_slope)
        pos = a >= 0
        slope = np.where(pos, ls, us)
        intercept = np.where(pos, li, ui)
        offset += float(a @ intercept)
        a = a * slope
    return a, offset


def _backward_bound(
    stages: List[AffineStage],
    pre_bounds: List[Tuple[np.ndarray, np.ndarray]],
    upto: int,
    c: np.ndarray,
    d: float,
    x_lo: np.ndarray,
    x_hi: np.ndarray,
) -> float:
    """Concretized lower bound of ``c^T z_upto + d`` over the input box."""
    a, offset = _backward_form(stages, pre_bounds, upto, c, d)
    pos = np.maximum(a, 0.0)
    neg = np.minimum(a, 0.0)
    return float(pos @ x_lo + neg @ x_hi + offset)


def crown_input_linear_form(
    net: Sequential, x0: np.ndarray, eps: float, c: np.ndarray, d: float = 0.0,
    method: str = "crown",
) -> Tuple[np.ndarray, float]:
    """Affine under-estimator ``a^T x + offset <= c^T f(x) + d`` valid on
    the eps-ball.  Its exact minimizer over the ball,
    ``x0 - eps * sign(a)``, is the relaxation-guided adversarial example
    used by convex-relaxation adversarial training."""
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    stages = extract_affine_stages(net)
    if stages[-1].act_slope is not None:
        raise VerificationError("CROWN property bounding expects a linear output layer")
    pre = crown_preactivation_bounds(net, x0, eps, method=method)
    c = np.asarray(c, dtype=np.float64).ravel()
    return _backward_form(stages, pre, len(stages) - 1, c, d)


def crown_preactivation_bounds(
    net: Sequential, x0: np.ndarray, eps: float, method: str = "crown",
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Pre-activation bounds for every stage.

    ``method='crown-ibp'`` reads them off interval propagation;
    ``method='crown'`` recomputes each layer's box with backward linear
    bounding (tighter, quadratically more expensive), bounding all
    neurons of a layer in one ``[I; -I]`` matrix backward pass
    (:func:`repro.kernels.propagation.crown_preactivation_fast`).
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    x_lo, x_hi = x0 - eps, x0 + eps
    extract_affine_stages(net)  # validates the layout for both methods
    if method not in ("crown", "crown-ibp"):
        raise VerificationError(f"unknown CROWN method {method!r}")
    if method == "crown":
        return crown_preactivation_fast(net, x_lo, x_hi)

    all_bounds = propagate_intervals(net, LayerBounds(x_lo, x_hi))
    # map: pre-activation of stage k is the output of its Dense layer
    return [(layer_bounds.lower, layer_bounds.upper)
            for layer_bounds, layer in zip(all_bounds[1:], net.layers)
            if isinstance(layer, Dense)]


def crown_margin_lower_bound(
    net: Sequential, x0: np.ndarray, eps: float, c: np.ndarray, d: float = 0.0,
    method: str = "crown",
) -> float:
    """Sound lower bound on ``min over ball of c^T f(x) + d`` by backward
    linear relaxation."""
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    x_lo, x_hi = x0 - eps, x0 + eps
    stages = extract_affine_stages(net)
    if stages[-1].act_slope is not None:
        raise VerificationError("CROWN property bounding expects a linear output layer")
    pre = crown_preactivation_bounds(net, x0, eps, method=method)
    c = np.asarray(c, dtype=np.float64).ravel()
    return _backward_bound(stages, pre, len(stages) - 1, c, d, x_lo, x_hi)
