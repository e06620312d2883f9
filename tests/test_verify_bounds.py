"""Tests for IBP, CROWN, and LP relaxation bounds with the soundness
ordering the paper's relaxation ladder requires."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import VerificationError
from repro.kernels.propagation import extract_affine_stages
from repro.nn import Dense, LeakyReLU, ReLU, Sequential, Tanh
from repro.verify import (
    LayerBounds,
    crown_input_linear_form,
    crown_margin_lower_bound,
    crown_preactivation_bounds,
    ibp_margin_lower_bound,
    ibp_output_bounds,
    lp_margin_lower_bound,
    propagate_intervals,
)


def _relu_net(seed=0, widths=(2, 5, 5, 2)):
    rng = np.random.default_rng(seed)
    layers = []
    for a, b in zip(widths[:-1], widths[1:]):
        layers.append(Dense(a, b, rng=rng))
        layers.append(ReLU())
    layers.pop()  # linear output
    return Sequential(layers)


def _sampled_min(net, x0, eps, c, n=3000, seed=99):
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(n):
        x = x0 + eps * (rng.random(x0.size) * 2 - 1)
        best = min(best, float(c @ net.forward(x.reshape(1, -1), training=False).ravel()))
    for corner in range(2 ** x0.size):
        signs = np.array([(corner >> k) & 1 for k in range(x0.size)]) * 2 - 1
        x = x0 + eps * signs
        best = min(best, float(c @ net.forward(x.reshape(1, -1), training=False).ravel()))
    return best


class TestIBP:
    def test_bounds_contain_center_output(self):
        net = _relu_net()
        x0 = np.array([0.2, -0.3])
        out = net.forward(x0.reshape(1, -1), training=False).ravel()
        bounds = ibp_output_bounds(net, x0, 0.1)
        assert np.all(bounds.lower <= out + 1e-9)
        assert np.all(bounds.upper >= out - 1e-9)

    def test_zero_eps_is_exact(self):
        net = _relu_net()
        x0 = np.array([0.5, 0.5])
        out = net.forward(x0.reshape(1, -1), training=False).ravel()
        bounds = ibp_output_bounds(net, x0, 0.0)
        assert np.allclose(bounds.lower, out, atol=1e-9)
        assert np.allclose(bounds.upper, out, atol=1e-9)

    def test_widths_grow_with_eps(self):
        net = _relu_net()
        x0 = np.array([0.0, 0.0])
        w1 = ibp_output_bounds(net, x0, 0.05).mean_width()
        w2 = ibp_output_bounds(net, x0, 0.2).mean_width()
        assert w2 > w1

    def test_supports_tanh_and_leaky(self):
        rng = np.random.default_rng(1)
        net = Sequential([Dense(2, 4, rng=rng), Tanh(), Dense(4, 3, rng=rng), LeakyReLU(0.1),
                          Dense(3, 2, rng=rng)])
        bounds = ibp_output_bounds(net, np.zeros(2), 0.1)
        assert np.all(bounds.lower <= bounds.upper)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(VerificationError):
            LayerBounds(np.array([1.0]), np.array([0.0]))

    def test_layer_count(self):
        net = _relu_net()
        all_bounds = propagate_intervals(net, LayerBounds(-np.ones(2), np.ones(2)))
        assert len(all_bounds) == len(net.layers) + 1


class TestCROWN:
    def test_stack_extraction_validates(self):
        rng = np.random.default_rng(2)
        net = Sequential([Dense(2, 3, rng=rng), Tanh(), Dense(3, 1, rng=rng)])
        with pytest.raises(VerificationError):
            extract_affine_stages(net)

    def test_usually_tighter_than_ibp(self):
        """CROWN dominates IBP on *most* instances but not provably on all
        (the very observation behind CROWN-IBP training), so the claim is
        statistical: a solid majority of random instances plus a strictly
        positive mean improvement."""
        c = np.array([1.0, -1.0])
        rng = np.random.default_rng(0)
        wins = 0
        improvements = []
        for seed in range(12):
            net = _relu_net(seed=seed)
            x0 = rng.uniform(-0.4, 0.4, 2)
            b_ibp = ibp_margin_lower_bound(net, x0, 0.15, c)
            b_crown = crown_margin_lower_bound(net, x0, 0.15, c, method="crown")
            wins += b_crown >= b_ibp - 1e-9
            improvements.append(b_crown - b_ibp)
        assert wins >= 9
        assert np.mean(improvements) > 0

    def test_sound_against_sampling(self):
        net = _relu_net(seed=5)
        x0 = np.array([-0.1, 0.25])
        c = np.array([1.0, -1.0])
        eps = 0.15
        bound = crown_margin_lower_bound(net, x0, eps, c)
        assert bound <= _sampled_min(net, x0, eps, c) + 1e-9

    def test_preactivation_bounds_sound(self):
        net = _relu_net(seed=6)
        x0 = np.array([0.0, 0.0])
        eps = 0.1
        pre = crown_preactivation_bounds(net, x0, eps, method="crown")
        stages = extract_affine_stages(net)
        rng = np.random.default_rng(7)
        for _ in range(500):
            x = x0 + eps * (rng.random(2) * 2 - 1)
            h = x
            for k, stage in enumerate(stages):
                z = h @ stage.w + stage.b
                assert np.all(z >= pre[k][0] - 1e-8)
                assert np.all(z <= pre[k][1] + 1e-8)
                h = np.maximum(z, 0.0) if stage.act_slope is not None else z

    def test_linear_form_is_valid_underestimator(self):
        net = _relu_net(seed=8)
        x0 = np.array([0.2, 0.2])
        c = np.array([1.0, -1.0])
        eps = 0.2
        a, offset = crown_input_linear_form(net, x0, eps, c)
        rng = np.random.default_rng(9)
        for _ in range(300):
            x = x0 + eps * (rng.random(2) * 2 - 1)
            margin = float(c @ net.forward(x.reshape(1, -1), training=False).ravel())
            assert a @ x + offset <= margin + 1e-8


class TestLPRelaxation:
    def test_at_least_as_tight_as_crown(self):
        net = _relu_net(seed=10)
        x0 = np.array([0.3, -0.2])
        c = np.array([1.0, -1.0])
        for eps in (0.05, 0.15):
            b_cr = crown_margin_lower_bound(net, x0, eps, c, method="crown")
            b_lp = lp_margin_lower_bound(net, x0, eps, c)
            assert b_lp >= b_cr - 1e-6

    def test_sound_against_sampling(self):
        net = _relu_net(seed=11)
        x0 = np.array([0.0, 0.1])
        c = np.array([1.0, -1.0])
        eps = 0.2
        assert lp_margin_lower_bound(net, x0, eps, c) <= _sampled_min(net, x0, eps, c) + 1e-7

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 200), st.sampled_from([0.05, 0.1, 0.2]))
    def test_lp_dominates_crown_property(self, seed, eps):
        """Guaranteed relation: the LP optimizes jointly over exactly the
        triangle constraints CROWN chooses greedily (same pre-activation
        boxes), so lp >= crown always.  (ibp vs crown is NOT a guaranteed
        ordering — see test_usually_tighter_than_ibp.)"""
        net = _relu_net(seed=seed, widths=(2, 4, 4, 2))
        x0 = np.random.default_rng(seed + 1).uniform(-0.5, 0.5, 2)
        c = np.array([1.0, -1.0])
        b_cr = crown_margin_lower_bound(net, x0, eps, c, method="crown")
        b_lp = lp_margin_lower_bound(net, x0, eps, c)
        assert b_cr <= b_lp + 1e-6
