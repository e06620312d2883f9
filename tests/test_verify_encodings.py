"""Byte lock on the three network encodings behind the verifiers.

The triangle LP (:func:`repro.verify.build_margin_lp`), the big-M MILP
(:func:`repro.verify.exact_margin_bound`) and the SMT leaf LP
(``repro.verify.smt._leaf_lp``) are digested on a seeded corpus and
compared with ``tests/goldens/verify_encodings.json``.  A changed byte
anywhere (a row, a box, a signed zero, a binary index) changes the
digest, and with it every simplex pivot and branch-and-bound tree built
on that encoding.

Regenerate, only when an encoding is meant to change, with::

    PYTHONPATH=src python -m pytest tests/test_verify_encodings.py --update-goldens
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import repro.verify.exact
from repro.kernels.propagation import extract_affine_stages
from repro.nn import Dense, LeakyReLU, ReLU, Sequential
from repro.verify import build_margin_lp, crown_preactivation_bounds, exact_margin_bound
from repro.verify.smt import _leaf_lp

from .conftest import GOLDEN_DIR

GOLDEN = GOLDEN_DIR / "verify_encodings.json"
N_NETS = 60
EPS = (0.0, 0.05, 0.3, 1.0)
SMT_PHASES = 4


def _net(seed: int, leaky: bool) -> Sequential:
    rng = np.random.default_rng(seed)
    widths = [int(rng.integers(2, 4))] + [int(w) for w in rng.integers(2, 6, size=2)] \
        + [int(rng.integers(2, 4))]
    layers = []
    for a, b in zip(widths[:-1], widths[1:]):
        dense = Dense(a, b, rng=rng)
        dense.b = rng.normal(0.0, 0.5, b)
        layers += [dense, LeakyReLU(0.1) if leaky else ReLU()]
    layers.pop()
    return Sequential(layers)


def _negative_zero_net() -> Sequential:
    """A ReLU net whose first hidden neuron has no weights: CROWN boxes
    its pre-activation as ``[0.0, -0.0]``, an upper bound of negative
    zero, which ``max(u, 0.0)`` keeps and ``np.maximum(u, 0.0)`` drops."""
    rng = np.random.default_rng(7)
    first, out = Dense(2, 2, rng=rng), Dense(2, 2, rng=rng)
    first.w = np.array([[0.0, 1.0], [0.0, -1.0]])
    first.b = np.array([0.0, 0.1])
    return Sequential([first, ReLU(), out])


def _query(seed: int, net: Sequential):
    rng = np.random.default_rng(10_000 + seed)
    x0 = rng.uniform(-0.5, 0.5, net.layers[0].w.shape[0])
    c = rng.normal(size=net.layers[-1].w.shape[1])
    return x0, EPS[seed % len(EPS)], c


def _digest(*parts) -> str:
    sha = hashlib.sha256()
    for part in parts:
        if part is None:
            sha.update(b"none;")
            continue
        arr = np.asarray(part)
        sha.update(f"{arr.dtype.str}{arr.shape}{arr.flags.c_contiguous};".encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def _lp_digest(lp, *extra) -> str:
    return _digest(lp.c, lp.g, lp.h, lp.a, lp.b, lp.lo, lp.hi, *extra)


class _Captured(Exception):
    """Raised by the patched MILP solver to hand the model back."""

    def __init__(self, model):
        super().__init__("captured")
        self.model = model


def _bigm_model(monkeypatch, net, x0, eps, c):
    def capture(model, **_):
        raise _Captured(model)

    monkeypatch.setattr(repro.verify.exact, "solve_milp", capture)
    with pytest.raises(_Captured) as caught:
        exact_margin_bound(net, x0, eps, c)
    return caught.value.model


def _smt_phases(seed: int, stages):
    """Random (possibly contradictory) partial phase assignments."""
    rng = np.random.default_rng(20_000 + seed)
    neurons = [(k, j) for k, s in enumerate(stages) if s.act_slope is not None
               for j in range(s.b.size)]
    for _ in range(SMT_PHASES):
        picked = rng.random(len(neurons)) < rng.random()
        values = rng.random(len(neurons)) < 0.5
        yield {key: bool(v) for key, p, v in zip(neurons, picked, values) if p}


def _encodings(monkeypatch) -> dict:
    cases = [(f"relu-{s:02d}", s, _net(s, False)) for s in range(N_NETS)]
    cases += [(f"leaky-{s:02d}", s, _net(s, True)) for s in range(N_NETS)]
    cases.append(("relu-negzero", 3, _negative_zero_net()))
    out = {}
    for name, seed, net in cases:
        x0, eps, c = _query(seed, net)
        for tight in (False, True):
            lp = build_margin_lp(net, x0, eps, c, tight_boxes=tight)
            out[f"{name}/triangle{'-tight' if tight else ''}"] = _lp_digest(lp)
        if name.startswith("leaky"):
            continue
        model = _bigm_model(monkeypatch, net, x0, eps, c)
        out[f"{name}/bigm"] = _lp_digest(model.lp, sorted(model.integer_indices))
        stages = extract_affine_stages(net)
        pre = crown_preactivation_bounds(net, x0, eps, method="crown")
        for i, phase in enumerate(_smt_phases(seed, stages)):
            lp, remaining = _leaf_lp(stages, pre, phase, x0, eps, c)
            out[f"{name}/smt-{i}"] = _lp_digest(lp, remaining)
    return out


def test_negative_zero_net_has_negative_zero_upper_bound():
    net = _negative_zero_net()
    x0, eps, _ = _query(3, net)
    upper = crown_preactivation_bounds(net, x0, eps, method="crown")[0][1]
    assert upper[0] == 0.0 and np.signbit(upper[0])


def test_encodings_match_golden(monkeypatch, update_goldens):
    digests = _encodings(monkeypatch)
    if update_goldens:
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(GOLDEN.read_text())
    assert sorted(digests) == sorted(golden)
    changed = [k for k in golden if digests[k] != golden[k]]
    assert not changed, f"{len(changed)} encodings changed, first: {changed[:5]}"
