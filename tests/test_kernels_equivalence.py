"""Seeded equivalence suite for the vectorized kernel layer.

Every kernel in ``repro.kernels`` has a reference (Python-loop) oracle
in ``repro.kernels.reference``; these property-style tests drive both
over randomized seeded workloads and degenerate shapes and pin down the
equivalence contract:

* elementwise swarm kernels and the RNG-replaying sampler are
  **bit-identical** (``np.array_equal``, equal generator state);
* matrix-contraction kernels (Gram, bound propagation, batched eigh)
  agree to floating-point round-off (matrix products reassociate sums).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.pso.discrete
import repro.verify.linear_bounds
from repro.convex.sdp import AffineSubspaceProjector
from repro.exceptions import DimensionError
from repro.kernels import (
    apply_adjoint,
    apply_adjoint_batch,
    apply_operator,
    apply_operator_batch,
    build_decode_table,
    crown_ibp_margin_batch,
    crown_margin_batch,
    decode_indices_batch,
    gram_matrix,
    ibp_margin_batch,
    project_psd_batch,
    propagate_box_batch,
    quad_gradient_batch,
    reflect_box,
    sample_distribution_swarm,
    stack_symmetric,
    velocity_update,
)
from repro.kernels.reference import (
    affine_projection_reference,
    apply_adjoint_batch_reference,
    apply_adjoint_reference,
    apply_operator_batch_reference,
    apply_operator_reference,
    crown_preactivation_reference,
    decode_indices_reference,
    gram_matrix_reference,
    quad_gradient_batch_reference,
    reflect_box_reference,
    sample_distribution_swarm_reference,
    velocity_update_reference,
)
from repro.linalg.matrix_utils import frobenius_inner
from repro.linalg.psd import project_psd
from repro.nn.layers import Dense, ReLU, Tanh
from repro.nn.network import Sequential
from repro.pso.discrete import DiscreteSpace, DistributionDiscretePSO
from repro.pso.swarm import PSOConfig
from repro.verify.interval import ibp_margin_lower_bound
from repro.verify.linear_bounds import (
    crown_margin_lower_bound,
    crown_preactivation_bounds,
)

SEEDS = [0, 7, 123]


def _sym(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------------------
# SDP constraint kernels
# ---------------------------------------------------------------------------

class TestGramKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("m,n", [(1, 2), (5, 4), (12, 6)])
    def test_gram_matches_reference(self, seed, m, n):
        rng = np.random.default_rng(seed)
        mats = [_sym(rng, n) for _ in range(m)]
        stack = stack_symmetric(mats)
        fast = gram_matrix(stack)
        ref = gram_matrix_reference(mats)
        np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-12)
        assert np.array_equal(fast, fast.T)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_operator_and_adjoint_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        mats = [_sym(rng, 5) for _ in range(7)]
        stack = stack_symmetric(mats)
        x = _sym(rng, 5)
        np.testing.assert_allclose(apply_operator(stack, x),
                                   apply_operator_reference(mats, x),
                                   rtol=0.0, atol=1e-12)
        coeffs = rng.standard_normal(7)
        np.testing.assert_allclose(apply_adjoint(coeffs, stack),
                                   apply_adjoint_reference(coeffs, mats),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_forms_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        b, k, n = 4, 3, 5
        stacks = np.stack([stack_symmetric([_sym(rng, n) for _ in range(k)])
                           for _ in range(b)])
        x = np.stack([_sym(rng, n) for _ in range(b)])
        coeffs = rng.standard_normal((b, k))
        np.testing.assert_allclose(apply_operator_batch(stacks, x),
                                   apply_operator_batch_reference(stacks, x),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(apply_adjoint_batch(coeffs, stacks),
                                   apply_adjoint_batch_reference(coeffs, stacks),
                                   rtol=0.0, atol=1e-12)
        p = stacks[:, 0]
        v, q = rng.standard_normal((b, n)), rng.standard_normal((b, n))
        np.testing.assert_allclose(quad_gradient_batch(p, v, q),
                                   quad_gradient_batch_reference(p, v, q),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("m", [0, 1, 6])
    def test_affine_projection_matches_reference(self, seed, m):
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((4, 4)) for _ in range(m)]
        rhs = rng.standard_normal(m)
        x = rng.standard_normal((4, 4))
        fast = AffineSubspaceProjector(mats, rhs).project(x)
        np.testing.assert_allclose(fast, affine_projection_reference(mats, rhs, x),
                                   rtol=0.0, atol=1e-10)

    def test_operator_out_buffer(self):
        rng = np.random.default_rng(0)
        mats = [_sym(rng, 3) for _ in range(4)]
        stack = stack_symmetric(mats)
        x = _sym(rng, 3)
        out = np.empty(4)
        res = apply_operator(stack, x, out=out)
        assert res is out
        corr = np.empty((3, 3))
        res2 = apply_adjoint(np.ones(4), stack, out=corr)
        assert res2 is corr

    def test_empty_constraint_set(self):
        stack = stack_symmetric([], n=4)
        assert stack.shape == (0, 4, 4)
        assert gram_matrix(stack).shape == (0, 0)
        assert apply_operator(stack, np.zeros((4, 4))).shape == (0,)
        assert gram_matrix_reference([]).shape == (0, 0)

    def test_frobenius_inner_matches_sum_product(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
        assert frobenius_inner(a, b) == pytest.approx(float(np.sum(a * b)),
                                                      rel=0.0, abs=1e-12)
        with pytest.raises(DimensionError):
            frobenius_inner(a, np.zeros((2, 2)))


class TestBatchedPSDProjection:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_per_matrix_projection(self, seed):
        rng = np.random.default_rng(seed)
        batch = rng.standard_normal((6, 5, 5))
        fast = project_psd_batch(batch)
        for k in range(6):
            np.testing.assert_allclose(fast[k], project_psd(batch[k]),
                                       rtol=0.0, atol=1e-10)
            w = np.linalg.eigvalsh(fast[k])
            assert w.min() >= -1e-10

    def test_empty_stack(self):
        assert project_psd_batch(np.zeros((0, 4, 4))).shape == (0, 4, 4)

    def test_rejects_non_stack(self):
        with pytest.raises(DimensionError):
            project_psd_batch(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# verification kernels
# ---------------------------------------------------------------------------

def _random_relu_net(seed, sizes=(4, 8, 6, 3)):
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(sizes) - 1):
        dense = Dense(sizes[k], sizes[k + 1], rng=rng)
        dense.b = rng.standard_normal(sizes[k + 1]) * 0.2
        layers.append(dense)
        if k < len(sizes) - 2:
            layers.append(ReLU())
    return Sequential(layers)


def _random_specs(seed, b, n_in, n_out):
    rng = np.random.default_rng(seed + 1)
    x0 = rng.standard_normal((b, n_in))
    eps = rng.random(b) * 0.3
    c = rng.standard_normal((b, n_out))
    d = rng.standard_normal(b)
    return x0, eps, c, d


class TestPropagationKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ibp_batch_matches_reference(self, seed):
        net = _random_relu_net(seed)
        x0, eps, c, d = _random_specs(seed, 6, 4, 3)
        fast = ibp_margin_batch(net, x0, eps, c, d)
        ref = [ibp_margin_lower_bound(net, x0[i], float(eps[i]), c[i], float(d[i]))
               for i in range(6)]
        np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("method", ["crown", "crown-ibp"])
    def test_crown_batch_matches_reference(self, seed, method, monkeypatch):
        net = _random_relu_net(seed)
        x0, eps, c, d = _random_specs(seed, 5, 4, 3)
        if method == "crown":
            fast = crown_margin_batch(net, x0, eps, c, d)
        else:
            fast = crown_ibp_margin_batch(net, x0, eps, c, d)
        # the per-spec verifier, with the per-neuron CROWN recursion in
        # place of the matrix-form kernel
        monkeypatch.setattr(repro.verify.linear_bounds,
                            "crown_preactivation_fast",
                            crown_preactivation_reference)
        ref = [crown_margin_lower_bound(net, x0[i], float(eps[i]), c[i],
                                        float(d[i]), method=method)
               for i in range(5)]
        np.testing.assert_allclose(fast, ref, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crown_preactivation_backends_agree(self, seed):
        net = _random_relu_net(seed)
        rng = np.random.default_rng(seed + 2)
        x0 = rng.standard_normal(4)
        fast = crown_preactivation_bounds(net, x0, 0.2, method="crown")
        ref = crown_preactivation_reference(net, x0 - 0.2, x0 + 0.2)
        assert len(fast) == len(ref)
        for (flo, fhi), (rlo, rhi) in zip(fast, ref):
            np.testing.assert_allclose(flo, rlo, rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(fhi, rhi, rtol=0.0, atol=1e-9)
            assert np.all(flo <= fhi + 1e-12)

    def test_empty_spec_batch(self):
        net = _random_relu_net(0)
        empty = (np.zeros((0, 4)), np.zeros(0), np.zeros((0, 3)), np.zeros(0))
        assert ibp_margin_batch(net, *empty).shape == (0,)
        assert crown_ibp_margin_batch(net, *empty).shape == (0,)
        assert crown_margin_batch(net, *empty).shape == (0,)

    def test_box_batch_handles_tanh(self):
        rng = np.random.default_rng(4)
        net = Sequential([Dense(3, 5, rng=rng), Tanh(), Dense(5, 2, rng=rng)])
        lo = rng.standard_normal((4, 3))
        hi = lo + rng.random((4, 3))
        boxes = propagate_box_batch(net, lo, hi)
        assert len(boxes) == len(net.layers) + 1
        for blo, bhi in boxes:
            assert np.all(blo <= bhi + 1e-12)


# ---------------------------------------------------------------------------
# PSO kernels — bit-identical contract
# ---------------------------------------------------------------------------

class TestSwarmKernelsBitIdentical:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n,d", [(1, 1), (9, 4)])
    def test_velocity_update(self, seed, n, d):
        rng = np.random.default_rng(seed)
        args = [rng.standard_normal((n, d)) for _ in range(4)]
        w = rng.random((n, 1))
        b1, b2 = rng.random((n, d)), rng.random((n, d))
        fast = velocity_update(*args, w, b1, b2, 1.49445, 1.49445)
        ref = velocity_update_reference(*args, w, b1, b2, 1.49445, 1.49445)
        assert np.array_equal(fast, ref)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reflect_box(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((7, 3)) * 2.0
        v = rng.standard_normal((7, 3))
        lo, hi = np.full(3, -1.0), np.full(3, 1.0)
        fx, fv = reflect_box(x, v, lo, hi)
        rx, rv = reflect_box_reference(x, v, lo, hi)
        assert np.array_equal(fx, rx) and np.array_equal(fv, rv)
        assert np.all(fx >= lo) and np.all(fx <= hi)

    def test_decode_batch_matches_reference(self):
        values = [(0.0, 0.5, 1.0), (10.0, 20.0), (-1.0, 0.0, 1.0, 2.0)]
        table = build_decode_table(values)
        rng = np.random.default_rng(1)
        idx = np.stack([rng.integers(0, len(row), size=11) for row in values],
                       axis=1)
        assert np.array_equal(decode_indices_batch(table, idx),
                              decode_indices_reference(values, idx))

    def test_decode_single_particle(self):
        values = [(3.0,), (1.0, 2.0)]
        table = build_decode_table(values)
        idx = np.array([[0, 1]])
        assert np.array_equal(decode_indices_batch(table, idx),
                              np.array([[3.0, 2.0]]))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n,samples", [(1, 1), (6, 3)])
    def test_sampling_replays_rng_stream(self, seed, n, samples):
        rng = np.random.default_rng(seed)
        logits = [rng.standard_normal((n, c)) for c in (3, 1, 5)]
        r_fast = np.random.default_rng(seed + 100)
        r_ref = np.random.default_rng(seed + 100)
        fast = sample_distribution_swarm(logits, samples, r_fast)
        ref = sample_distribution_swarm_reference(logits, samples, r_ref)
        assert np.array_equal(fast, ref)
        # the kernel must consume the PCG64 stream exactly like the loop
        assert r_fast.bit_generator.state == r_ref.bit_generator.state

    def test_sampling_empty_coordinates(self):
        out = sample_distribution_swarm([], 3, np.random.default_rng(0))
        assert out.shape == (0, 3, 0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_distribution_pso_trajectory_bit_identical(self, seed, monkeypatch):
        """Full end-to-end run: the vectorized sampler must not perturb a
        seeded trajectory by even one ulp."""
        space = DiscreteSpace(tuple(tuple(range(5)) for _ in range(3)))
        cfg = PSOConfig(swarm_size=5, max_generations=6)

        def run():
            opt = DistributionDiscretePSO(
                lambda v: float(np.sum((v - 2.0) ** 2)), space, config=cfg,
                samples_per_particle=2, rng=np.random.default_rng(seed))
            return opt._run()

        fast = run()
        monkeypatch.setattr(repro.pso.discrete, "sample_distribution_swarm",
                            sample_distribution_swarm_reference)
        ref = run()
        assert fast.history == ref.history
        assert fast.best_value == ref.best_value
        assert np.array_equal(fast.best_x, ref.best_x)
        assert fast.evaluations == ref.evaluations
