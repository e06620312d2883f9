"""KERN — vectorized kernel layer vs the reference Python loops.

Measures the three hot paths the :mod:`repro.kernels` layer rewired,
each against its loop oracle in :mod:`repro.kernels.reference`:

* **sdp_gram_projection** — constraint-Gram assembly plus affine-subspace
  projection inside the SDP ADMM solver (``O(m^2)`` ``frobenius_inner``
  loop vs one stacked ``flat @ flat.T`` / ``einsum`` contraction);
* **verify_batch_crown_ibp** — a stack of robustness specs bounded by the
  batched CROWN-IBP kernel vs the per-spec reference walk;
* **pso_swarm_update** — the whole-swarm velocity/reflection update vs
  the per-particle loops (bit-identical by contract, so the speedup is
  pure vectorization);
* **simplex_lp** — the dense simplex LP oracle on a fixed batch of RRA
  branch-and-bound node relaxations (``solve_lp`` vs the row-by-row
  ``solve_lp_reference``; bit-identical by contract, so the speedup is
  interpreter overhead removed from the standard-form build and the
  pivot loop).  This is the stage that dominates the serving tick's
  exact rung;
* **simplex_lp_stack** — the same 64 relaxations through
  ``solve_lp_batch`` (two same-shape groups of 32, each one lockstep
  stacked simplex) vs one ``solve_lp`` call per LP; every member is
  bit-identical.  The row also carries the per-LP cost by stack width
  that sets the routing constant ``repro.convex.lp._STACK_MIN_WIDTH``.

Each family runs best-of-``_REPEATS`` on both forms and asserts the
committed acceptance claim: **>= 3x on at least two families**.  Pass
``--commit-results`` to refresh the tracked snapshot::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py --commit-results

``tools/bench_gate.py`` replays :func:`measure_kernels` against the
committed ``benchmarks/results/BENCH_kernels.json`` and fails on a > 25%
speedup regression.
"""

from __future__ import annotations

import numpy as np
import pytest

from _harness import best_of, maybe_write_bench_json
from conftest import banner
from repro.convex import lp as lp_module
from repro.convex.lp import solve_lp, solve_lp_batch
from repro.convex.sdp import AffineSubspaceProjector
from repro.exceptions import InfeasibleError
from repro.kernels import reflect_box, velocity_update
from repro.kernels.propagation import crown_ibp_margin_batch
from repro.kernels.reference import (
    affine_projection_reference,
    reflect_box_reference,
    solve_lp_reference,
    velocity_update_reference,
)
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Sequential
from repro.qos import (
    ChannelConfig,
    ChannelModel,
    QoSRequirement,
    RRAProblem,
    ServiceClass,
    UserSession,
)
from repro.verify.linear_bounds import crown_margin_lower_bound

pytestmark = pytest.mark.perf

_REPEATS = 5
_SPEEDUP_TARGET = 3.0
_FAMILIES_REQUIRED = 2

# workload shapes: large enough that the Python-loop overhead dominates
# the reference timings, small enough for a sub-minute bench run
_GRAM_M, _GRAM_N = 96, 24          # constraints / matrix side
_VERIFY_BATCH = 48                 # robustness specs per batch
_SWARM_N, _SWARM_D, _SWARM_STEPS = 192, 24, 30
# RRA node relaxations on (users, blocks, power levels) grids: the serving
# shard's 2x4x1 and a three-user 3x4x1, several node boxes per instance
_LP_GRIDS = ((2, 4, (100.0,)), (3, 4, (100.0,)))
_LP_INSTANCES, _LP_NODES = 8, 4
#: stack widths of the per-LP cost table (one grid's relaxations)
_STACK_WIDTHS = (1, 2, 4, 6, 8, 16, 32)


def _bench_sdp_gram_projection() -> dict:
    """Projector construction (Gram assembly) + one affine projection."""
    rng = np.random.default_rng(7)
    mats = []
    for _ in range(_GRAM_M):
        a = rng.standard_normal((_GRAM_N, _GRAM_N))
        mats.append(0.5 * (a + a.T))
    rhs = rng.standard_normal(_GRAM_M)
    x = rng.standard_normal((_GRAM_N, _GRAM_N))
    x = 0.5 * (x + x.T)

    ref, t_ref = best_of(lambda: affine_projection_reference(mats, rhs, x),
                         _REPEATS)
    fast, t_fast = best_of(
        lambda: AffineSubspaceProjector(mats, rhs).project(x), _REPEATS)
    assert np.allclose(ref, fast, atol=1e-8)
    return {"family": "sdp_gram_projection", "m": _GRAM_M, "n": _GRAM_N,
            "reference_s": t_ref, "vectorized_s": t_fast,
            "speedup": t_ref / t_fast}  # numlint: disable=NL002 -- t_fast is a measured wall time of real work, strictly positive


def _bench_verify_batch() -> dict:
    """Batched CROWN-IBP margins vs the per-spec reference verifier."""
    rng = np.random.default_rng(11)
    net = Sequential([
        Dense(8, 32, rng=rng), ReLU(), Dense(32, 32, rng=rng), ReLU(),
        Dense(32, 4, rng=rng),
    ])
    x0 = rng.standard_normal((_VERIFY_BATCH, 8))
    eps = rng.random(_VERIFY_BATCH) * 0.1
    c = rng.standard_normal((_VERIFY_BATCH, 4))
    d = rng.standard_normal(_VERIFY_BATCH)

    def run_reference():
        return np.array([
            crown_margin_lower_bound(net, x0[i], float(eps[i]), c[i],
                                     float(d[i]), method="crown-ibp")
            for i in range(_VERIFY_BATCH)
        ])

    ref, t_ref = best_of(run_reference, _REPEATS)
    fast, t_fast = best_of(lambda: crown_ibp_margin_batch(net, x0, eps, c, d),
                           _REPEATS)
    assert np.allclose(ref, fast, atol=1e-8)
    return {"family": "verify_batch_crown_ibp", "batch": _VERIFY_BATCH,
            "reference_s": t_ref, "vectorized_s": t_fast,
            "speedup": t_ref / t_fast}  # numlint: disable=NL002 -- t_fast is a measured wall time of real work, strictly positive


def _bench_swarm_update() -> dict:
    """Whole-swarm PSO velocity + reflection updates over many steps."""
    rng = np.random.default_rng(13)
    shape = (_SWARM_N, _SWARM_D)
    x0 = rng.standard_normal(shape)
    v0 = rng.standard_normal(shape) * 0.1
    pbest = rng.standard_normal(shape)
    social = rng.standard_normal(shape)
    w = rng.random((_SWARM_N, 1))
    betas = [(rng.random(shape), rng.random(shape))
             for _ in range(_SWARM_STEPS)]
    lo = np.full(_SWARM_D, -3.0)
    hi = np.full(_SWARM_D, 3.0)

    def run(vel_fn, refl_fn):
        x, v = x0.copy(), v0.copy()
        for b1, b2 in betas:
            v = vel_fn(v, x, pbest, social, w, b1, b2, 1.49445, 1.49445)
            x, v = refl_fn(x + v, v, lo, hi)
        return x, v

    ref, t_ref = best_of(
        lambda: run(velocity_update_reference, reflect_box_reference), _REPEATS)
    fast, t_fast = best_of(lambda: run(velocity_update, reflect_box), _REPEATS)
    # elementwise kernels are bit-identical, not merely close
    assert np.array_equal(ref[0], fast[0]) and np.array_equal(ref[1], fast[1])
    return {"family": "pso_swarm_update", "swarm": _SWARM_N, "dim": _SWARM_D,
            "steps": _SWARM_STEPS, "reference_s": t_ref,
            "vectorized_s": t_fast, "speedup": t_ref / t_fast}  # numlint: disable=NL002 -- t_fast is a measured wall time of real work, strictly positive


def _rra_node_relaxations() -> list:
    """Root relaxation plus node boxes (random 0/1 fixings of a few
    assignment variables, as branching makes them) of seeded RRA MILPs."""
    rng = np.random.default_rng(17)
    lps = []
    for n_users, n_blocks, levels in _LP_GRIDS:
        for _ in range(_LP_INSTANCES):
            channel = ChannelModel(ChannelConfig(n_blocks=n_blocks), rng=rng)
            users = [UserSession(i, ServiceClass.EMBB, QoSRequirement(
                min_rate_bps=2e5, max_latency_ms=50, reliability=0.99, priority=1))
                for i in range(n_users)]
            model = RRAProblem(gains=channel.gains(n_users), users=users,
                               power_levels_mw=np.array(levels), total_power_mw=500.0,
                               noise_mw=channel.noise_linear_mw).to_milp()
            lps.append(model.relaxation())
            for depth in range(1, _LP_NODES):
                lo, hi = model.lp.lo.copy(), model.lp.hi.copy()
                fixed = rng.choice(model.dim, size=depth, replace=False)
                side = rng.integers(0, 2, size=depth).astype(float)
                lo[fixed] = hi[fixed] = side
                lps.append(model.relaxation(extra_lo=lo, extra_hi=hi))
    return lps


def _bench_simplex_lp() -> dict:
    """The simplex LP oracle over a fixed batch of RRA node relaxations."""
    lps = _rra_node_relaxations()

    def run(solve):
        out = []
        for lp in lps:
            try:
                out.append(solve(lp).objective)
            except InfeasibleError:
                out.append(np.inf)
        return np.array(out)

    ref, t_ref = best_of(lambda: run(solve_lp_reference), _REPEATS)
    fast, t_fast = best_of(lambda: run(solve_lp), _REPEATS)
    # one pivot sequence, so the objectives are bit-identical
    assert ref.tobytes() == fast.tobytes()
    return {"family": "simplex_lp", "lps": len(lps),
            "solved": int(np.isfinite(fast).sum()), "reference_s": t_ref,
            "vectorized_s": t_fast, "speedup": t_ref / max(t_fast, 1e-12)}


def _member(outcome) -> tuple:
    if isinstance(outcome, Exception):
        return (type(outcome),)
    return (outcome.x.tobytes(), outcome.objective, outcome.iterations)


def _one_by_one(lps: list) -> list:
    out = []
    for lp in lps:
        try:
            out.append(solve_lp(lp))
        except InfeasibleError as err:
            out.append(err)
    return out


def _bench_simplex_lp_stack() -> dict:
    """``solve_lp_batch`` vs per-LP ``solve_lp`` on the node relaxations,
    plus the per-LP cost of the stacked kernel by stack width."""
    lps = _rra_node_relaxations()
    ref, t_ref = best_of(lambda: _one_by_one(lps), _REPEATS)
    fast, t_fast = best_of(lambda: solve_lp_batch(lps), _REPEATS)
    # lockstep pivots are the per-LP pivots: every member is bit-identical
    assert [_member(o) for o in ref] == [_member(o) for o in fast]

    # the first grid's relaxations share one standard-form shape
    group = lps[:_LP_INSTANCES * _LP_NODES]
    table = []
    for width in _STACK_WIDTHS:
        _, t_one = best_of(lambda: _one_by_one(group[:width]), _REPEATS)
        _, t_stack = best_of(
            lambda: lp_module._solve_batch(group[:width], 10000, 1), _REPEATS)
        us_per_lp = 1e6 / max(width, 1)
        table.append({"width": width, "per_lp_us": t_one * us_per_lp,
                      "stacked_us": t_stack * us_per_lp,
                      "speedup": t_one / max(t_stack, 1e-12)})
    return {"family": "simplex_lp_stack", "lps": len(lps),
            "stack_min_width": lp_module._STACK_MIN_WIDTH, "by_width": table,
            "reference_s": t_ref, "vectorized_s": t_fast,
            "speedup": t_ref / max(t_fast, 1e-12)}


def measure_kernels() -> list:
    """Run every kernel family once; pure so ``tools/bench_gate.py`` can
    replay the identical workload and compare against the committed
    snapshot."""
    return [
        _bench_sdp_gram_projection(),
        _bench_verify_batch(),
        _bench_swarm_update(),
        _bench_simplex_lp(),
        _bench_simplex_lp_stack(),
    ]


def test_kernel_speedups(request):
    banner("KERN", "vectorized kernels vs reference Python loops")
    rows = measure_kernels()

    print(f"{'family':<24} {'reference_s':>12} {'vectorized_s':>13} {'speedup':>8}")
    for r in rows:
        print(f"{r['family']:<24} {r['reference_s']:>12.5f} "
              f"{r['vectorized_s']:>13.5f} {r['speedup']:>7.1f}x")

    stack = next(r for r in rows if r["family"] == "simplex_lp_stack")
    print(f"\nstacked simplex, per-LP cost by width "
          f"(routing width {stack['stack_min_width']}):")
    print(f"{'width':>6} {'per_lp_us':>10} {'stacked_us':>11} {'speedup':>8}")
    for r in stack["by_width"]:
        print(f"{r['width']:>6} {r['per_lp_us']:>10.0f} {r['stacked_us']:>11.0f} "
              f"{r['speedup']:>7.2f}x")

    fast_families = [r["family"] for r in rows
                     if r["speedup"] >= _SPEEDUP_TARGET]
    assert len(fast_families) >= _FAMILIES_REQUIRED, (
        f"expected >={_SPEEDUP_TARGET}x on >={_FAMILIES_REQUIRED} families, "
        f"got {[(r['family'], round(r['speedup'], 2)) for r in rows]}")

    maybe_write_bench_json(request, "kernels", rows, extra={
        "repeats": _REPEATS,
        "speedup_target": _SPEEDUP_TARGET,
        "families_at_target": fast_families,
    })
