"""Batched bound-propagation kernels (IBP and matrix-form CROWN).

The §II-B-2 verification workload is thousands of structurally identical
robustness queries against one network.  The reference verifiers walk
them one spec — and, inside CROWN's layer-bound recursion, one *neuron*
— at a time.  These kernels restate both as whole-batch array programs,
in the spirit of CROWN/auto_LiRPA-style batched verifiers:

* :func:`propagate_box_batch` pushes a ``(B, n)`` stack of input boxes
  through a :class:`~repro.nn.network.Sequential` in one set of matrix
  ops per layer;
* :func:`ibp_margin_batch` / :func:`crown_ibp_margin_batch` bound a
  whole batch of linear output properties at once;
* :func:`crown_preactivation_fast` replaces the per-neuron backward
  pass of ``crown_preactivation_bounds(method="crown")`` with one
  ``[I; -I]`` matrix backward pass per layer (all neurons of a layer
  bounded simultaneously).

Everything here operates on plain arrays — specs are flattened to
``(x0, eps, c, d)`` stacks by the callers in :mod:`repro.verify` — so
the kernel layer depends only on :mod:`repro.nn`.

Floating-point note: matrix-matrix contractions round differently from
the reference matrix-vector loops, so batched results agree with the
reference to tight tolerances (~1e-9 relative), not bit-for-bit; the
oracles in :mod:`repro.kernels.reference` retain the old bit patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import VerificationError
from repro.nn.layers import BatchNorm, Dense, LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.network import Sequential
from repro.numerics.stable_ops import stable_sigmoid

__all__ = [
    "AffineStage",
    "extract_affine_stages",
    "relu_relaxation_arrays",
    "propagate_box_batch",
    "ibp_margin_batch",
    "crown_ibp_margin_batch",
    "crown_preactivation_fast",
    "crown_margin_fast",
    "crown_margin_batch",
]


@dataclass(frozen=True)
class AffineStage:
    """One (Dense, activation) pair; ``act_slope`` is ``None`` for a bare
    linear stage, ``0.0`` for ReLU, ``s`` for LeakyReLU(s)."""

    w: np.ndarray
    b: np.ndarray
    act_slope: Optional[float]


def extract_affine_stages(net: Sequential) -> List[AffineStage]:
    """Validate an alternating Dense/(Leaky)ReLU stack into stage form.

    The one stage form of the package: the CROWN kernels here, the
    reference recursion and every verifier in :mod:`repro.verify` read
    it, so the dependency points verify → kernels.  Raises for
    unsupported layouts.
    """
    stages: List[AffineStage] = []
    layers = list(net.layers)
    i = 0
    while i < len(layers):
        layer = layers[i]
        if not isinstance(layer, Dense):
            raise VerificationError(
                f"CROWN expects Dense layers (got {type(layer).__name__} at {i})")
        slope: Optional[float] = None
        if i + 1 < len(layers):
            nxt = layers[i + 1]
            if isinstance(nxt, ReLU):
                slope = 0.0
                i += 1
            elif isinstance(nxt, LeakyReLU):
                slope = nxt.slope
                i += 1
            elif isinstance(nxt, Dense):
                slope = None
            else:
                raise VerificationError(
                    f"CROWN supports ReLU/LeakyReLU activations, got {type(nxt).__name__}")
        stages.append(AffineStage(layer.w, layer.b, slope))
        i += 1
    return stages


def relu_relaxation_arrays(lo: np.ndarray, hi: np.ndarray, leaky: float) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shape-agnostic triangle relaxation of (leaky-)ReLU on ``[lo, hi]``.

    Returns ``(lower_slope, lower_intercept, upper_slope, upper_intercept)``
    elementwise for arrays of any shape — the batched generalization of
    the per-vector ``_relu_relaxation`` in ``verify.linear_bounds``.
    """
    active = lo >= 0.0
    inactive = hi <= 0.0
    unstable = ~(active | inactive)
    # stable defaults: slope 1 on active, `leaky` on inactive neurons
    us = np.where(active, 1.0, leaky)
    ui = np.zeros_like(us)
    # upper face on unstable neurons: chord from (lo, leaky*lo) to (hi, hi)
    denom = np.where(unstable, hi - lo, 1.0)
    chord = (hi - leaky * lo) / denom  # numlint: disable=NL002 -- unstable => lo < 0 < hi so hi - lo > 0; stable entries divide by 1

    us = np.where(unstable, chord, us)
    ui = np.where(unstable, leaky * lo - chord * lo, ui)
    # lower face: adaptive CROWN choice between slope 1 and slope `leaky`
    ls = np.where(active, 1.0, leaky)
    ls = np.where(unstable & (hi >= -lo), 1.0, ls)
    li = np.zeros_like(ls)
    return ls, li, us, ui


def propagate_box_batch(net: Sequential, lo: np.ndarray, hi: np.ndarray
                        ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Batched IBP: push ``(B, n)`` boxes through every layer at once.

    Returns per-layer ``(lower, upper)`` pairs with index 0 the input box,
    so entry ``i + 1`` bounds the output of ``net.layers[i]`` — the
    batched analogue of :func:`repro.verify.interval.propagate_intervals`.
    An empty batch (``B = 0``) flows through and returns ``(0, n_k)``
    arrays.
    """
    lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_2d(np.asarray(hi, dtype=np.float64))
    if lo.shape != hi.shape:
        raise VerificationError("bound shape mismatch")
    out: List[Tuple[np.ndarray, np.ndarray]] = [(lo, hi)]
    for layer in net.layers:
        if isinstance(layer, Dense):
            center = 0.5 * (lo + hi)
            radius = 0.5 * (hi - lo)
            oc = center @ layer.w + layer.b
            orad = radius @ np.abs(layer.w)
            lo, hi = oc - orad, oc + orad
        elif isinstance(layer, ReLU):
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
        elif isinstance(layer, LeakyReLU):
            s = layer.slope
            lo = np.where(lo > 0, lo, s * lo)
            hi = np.where(hi > 0, hi, s * hi)
        elif isinstance(layer, Tanh):
            lo, hi = np.tanh(lo), np.tanh(hi)
        elif isinstance(layer, Sigmoid):
            lo, hi = stable_sigmoid(lo), stable_sigmoid(hi)
        elif isinstance(layer, BatchNorm):
            scale = layer.gamma / np.sqrt(layer.running_var + layer.eps)
            shift = layer.beta - layer.running_mean * scale
            center = 0.5 * (lo + hi) * scale + shift
            radius = 0.5 * (hi - lo) * np.abs(scale)
            lo, hi = center - radius, center + radius
        else:
            raise VerificationError(
                f"IBP does not support layer type {type(layer).__name__}")
        out.append((lo, hi))
    return out


def _spec_boxes(x0: np.ndarray, eps: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    eps = np.asarray(eps, dtype=np.float64).reshape(-1, 1)
    return x0 - eps, x0 + eps


def ibp_margin_batch(net: Sequential, x0: np.ndarray, eps: np.ndarray,
                     c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Sound lower bounds on ``min over ball of c^T f(x) + d`` for a whole
    spec stack: ``x0`` is ``(B, n)``, ``eps``/``d`` are ``(B,)``, ``c`` is
    ``(B, m)``.  One batched IBP sweep answers every spec."""
    x_lo, x_hi = _spec_boxes(x0, eps)
    out_lo, out_hi = propagate_box_batch(net, x_lo, x_hi)[-1]
    c = np.atleast_2d(np.asarray(c, dtype=np.float64))
    d = np.asarray(d, dtype=np.float64).ravel()
    pos = np.maximum(c, 0.0)
    neg = np.minimum(c, 0.0)
    return np.sum(pos * out_lo + neg * out_hi, axis=1) + d


def _backward_rows(stages: List[AffineStage],
                   pre: List[Tuple[np.ndarray, np.ndarray]],
                   upto: int, a: np.ndarray, offset: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Backward-propagate a stack of linear forms through stages
    ``upto..0``.

    ``a`` is ``(Q, n_upto)`` — one row per independent property; the
    matching pre-activation bounds in ``pre`` may be 1-D (shared across
    rows, the all-neurons-of-one-spec case) or ``(Q, n_k)`` (per-row, the
    batched-specs case) — both broadcast against the row stack.  Returns
    the input-space forms ``(A, offsets)`` with
    ``property_q >= A[q] @ x + offsets[q]`` over the region ``pre``
    describes.
    """
    for k in range(upto, -1, -1):
        stage = stages[k]
        offset = offset + a @ stage.b
        a = a @ stage.w.T
        if k == 0:
            break
        prev = stages[k - 1]
        if prev.act_slope is None:
            continue
        lo, hi = pre[k - 1]
        ls, li, us, ui = relu_relaxation_arrays(lo, hi, prev.act_slope)
        nonneg = a >= 0
        offset = offset + np.sum(a * np.where(nonneg, li, ui), axis=-1)
        a = a * np.where(nonneg, ls, us)
    return a, offset


def _concretize(a: np.ndarray, offset: np.ndarray,
                x_lo: np.ndarray, x_hi: np.ndarray) -> np.ndarray:
    """Minimize each row's affine form over the input box."""
    pos = np.maximum(a, 0.0)
    neg = np.minimum(a, 0.0)
    return np.sum(pos * x_lo + neg * x_hi, axis=-1) + offset


def crown_preactivation_fast(net: Sequential, x_lo: np.ndarray, x_hi: np.ndarray
                             ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Matrix-form CROWN pre-activation bounds for one input box.

    For stage ``k`` with ``m`` outputs the reference implementation runs
    ``2m`` independent per-neuron backward passes; this kernel stacks
    them as one ``[I; -I]`` matrix and does a single backward pass per
    stage, turning the recursion into pure matrix products.
    """
    x_lo = np.asarray(x_lo, dtype=np.float64).ravel()
    x_hi = np.asarray(x_hi, dtype=np.float64).ravel()
    stages = extract_affine_stages(net)
    pre: List[Tuple[np.ndarray, np.ndarray]] = []
    for k, stage in enumerate(stages):
        m = stage.b.size
        eye = np.eye(m)
        rows = np.vstack([eye, -eye])
        a, offset = _backward_rows(stages, pre, k, rows, np.zeros(2 * m))
        vals = _concretize(a, offset, x_lo, x_hi)
        pre.append((vals[:m], -vals[m:]))
    return pre


def crown_margin_fast(net: Sequential, x0: np.ndarray, eps: float,
                      c: np.ndarray, d: float = 0.0,
                      method: str = "crown") -> float:
    """Single-spec CROWN margin bound on the matrix-form fast path."""
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    x_lo, x_hi = x0 - eps, x0 + eps
    stages = extract_affine_stages(net)
    if stages[-1].act_slope is not None:
        raise VerificationError("CROWN property bounding expects a linear output layer")
    if method == "crown":
        pre = crown_preactivation_fast(net, x_lo, x_hi)
    elif method == "crown-ibp":
        boxes = propagate_box_batch(net, x_lo[None, :], x_hi[None, :])
        pre = [(lo[0], hi[0]) for (lo, hi), layer in zip(boxes[1:], net.layers)
               if isinstance(layer, Dense)]
    else:
        raise VerificationError(f"unknown CROWN method {method!r}")
    c = np.asarray(c, dtype=np.float64).ravel()
    a, offset = _backward_rows(stages, pre, len(stages) - 1,
                               c[None, :], np.asarray([float(d)]))
    return float(_concretize(a, offset, x_lo, x_hi)[0])


def crown_ibp_margin_batch(net: Sequential, x0: np.ndarray, eps: np.ndarray,
                           c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Batched CROWN-IBP margins: IBP pre-activation boxes for the whole
    spec stack, then one batched backward pass — every spec's property is
    one row; the per-spec ReLU relaxations broadcast row-wise."""
    stages = extract_affine_stages(net)
    if stages[-1].act_slope is not None:
        raise VerificationError("CROWN property bounding expects a linear output layer")
    x_lo, x_hi = _spec_boxes(x0, eps)
    if x_lo.shape[0] == 0:
        return np.zeros(0)
    boxes = propagate_box_batch(net, x_lo, x_hi)
    pre = [(lo, hi) for (lo, hi), layer in zip(boxes[1:], net.layers)
           if isinstance(layer, Dense)]
    c = np.atleast_2d(np.asarray(c, dtype=np.float64))
    d = np.asarray(d, dtype=np.float64).ravel()
    a, offset = _backward_rows(stages, pre, len(stages) - 1, c, d)
    return _concretize(a, offset, x_lo, x_hi)


def crown_margin_batch(net: Sequential, x0: np.ndarray, eps: np.ndarray,
                       c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Full-CROWN margins for a spec stack.

    Pre-activation bounds are input-box-specific, so specs are walked in
    Python — but each walk uses the matrix-form fast path, which is where
    the reference implementation spent its quadratic per-neuron loop.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    eps = np.asarray(eps, dtype=np.float64).ravel()
    c = np.atleast_2d(np.asarray(c, dtype=np.float64))
    d = np.asarray(d, dtype=np.float64).ravel()
    return np.array([
        crown_margin_fast(net, x0[i], float(eps[i]), c[i], float(d[i]))
        for i in range(x0.shape[0])
    ])
