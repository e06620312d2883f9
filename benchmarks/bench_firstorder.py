"""FIRSTORDER — batched first-order fast path vs per-problem rungs (§III).

The relaxation chain's cost story (docs/PERFORMANCE.md): for fleets of
*small* problems — one box QP or Shor SDP per user per frame — the
interior-point rungs pay their per-problem Python and factorization
overhead hundreds of times over.  The first-order backend
(:mod:`repro.convex.firstorder`) amortizes it: one FISTA or
Burer–Monteiro iteration advances the whole batch with a handful of
BLAS-3 calls.

Claims exercised:
* batched FISTA answers 256 box QPs >= 5x faster than the per-problem
  projected-gradient rung, with matching objectives;
* the batched Burer-Monteiro solver answers 256 small SDPs >= 5x faster
  than per-problem ADMM;
* zero uncertified answers are served: every batch entry is either
  certified (feasibility + duality-gap gates) and matches the reference
  rung, or is an explicit rejection — ``miscertified`` must be 0;
* warm-started re-solves (the QoS frame-to-frame case) beat cold ones.

The committed snapshot ``benchmarks/results/BENCH_firstorder.json``
(refresh with ``--commit-results``) feeds ``tools/bench_gate.py``, which
enforces the 5x floor and the zero-uncertified-served invariant.
"""

import time

import numpy as np
import pytest

from _harness import maybe_write_bench_json
from conftest import banner
from repro.convex.firstorder import box_qp_fista_batch, solve_sdp_firstorder_batch
from repro.convex.qp import solve_box_qp
from repro.convex.sdp import solve_sdp_general

pytestmark = pytest.mark.perf

#: batch size the paper-scale claim is made at (one problem per user)
BATCH = 256
#: objective agreement required between a *certified* fast-path answer
#: and the interior-point reference on the same instance
AGREE_TOL = 1e-3


def _box_qp_batch(rng, b=BATCH, n=6):
    m = rng.standard_normal((b, n, n))
    p = m @ m.transpose(0, 2, 1) + 0.5 * np.eye(n)
    q = rng.standard_normal((b, n))
    lo = np.full((b, n), -1.0) - rng.uniform(0.0, 1.0, (b, n))
    hi = np.full((b, n), 1.0) + rng.uniform(0.0, 1.0, (b, n))
    return p, q, lo, hi


def _sdp_batch(rng, b=BATCH, n=4):
    m = rng.standard_normal((b, n, n))
    c = 0.5 * (m + m.transpose(0, 2, 1))
    a1 = rng.standard_normal((b, n, n))
    a1 = 0.5 * (a1 + a1.transpose(0, 2, 1))
    eye = np.broadcast_to(np.eye(n), (b, n, n))
    eq_stacks = np.stack([a1, eye], axis=1)
    eq_rhs = np.stack([rng.standard_normal(b), np.full(b, float(n))], axis=1)
    return c, eq_stacks, eq_rhs


def measure_firstorder(keys=None) -> list:
    """Time the batched fast path against the per-problem rungs.

    Pure measurement (no printing, no pytest) so ``tools/bench_gate.py``
    can replay it.  Returns one row per family (only the families in
    ``keys`` when given) with ``speedup``, certification counts, and the
    ``miscertified`` invariant — the number of entries flagged certified
    whose objective disagrees with the reference rung, which must always
    be 0.  Every family's data is drawn whichever families run, so a
    filtered run measures the same problems.
    """
    rows = []
    rng = np.random.default_rng(0)
    p, q, lo, hi = _box_qp_batch(rng)
    c, eq_stacks, eq_rhs = _sdp_batch(rng)
    q_drift = q + 0.01 * rng.standard_normal(q.shape)

    def wanted(family):
        return keys is None or family in keys

    # --- box QP: batched FISTA vs per-problem projected gradient -------
    if wanted("box_qp_b256") or wanted("box_qp_warm_b256"):
        t0 = time.perf_counter()
        fast = box_qp_fista_batch(p, q, lo, hi)
        t_fast = time.perf_counter() - t0
    if wanted("box_qp_b256"):
        t0 = time.perf_counter()
        ref_obj = np.array([solve_box_qp(p[i], q[i], lo[i], hi[i]).objective
                            for i in range(BATCH)])
        t_ref = time.perf_counter() - t0
        ok = np.asarray(fast.certified)
        mis = int(np.sum(np.abs(fast.objective[ok] - ref_obj[ok]) > AGREE_TOL))
        rows.append({
            "family": "box_qp_b256", "batch": BATCH,
            "t_batched_s": t_fast, "t_perproblem_s": t_ref,
            "speedup": t_ref / max(t_fast, 1e-12),
            "certified": int(np.sum(ok)), "rejected": int(BATCH - np.sum(ok)),
            "miscertified": mis,
        })

    # --- SDP: batched Burer-Monteiro vs per-problem ADMM ---------------
    if wanted("sdp_b256"):
        t0 = time.perf_counter()
        # every sweep advances the whole batch, so a handful of slow
        # instances would otherwise spend 2000 sweeps on 250 already-solved
        # problems; the cap converts those stragglers into honest rejections
        sdp = solve_sdp_firstorder_batch(c, eq_stacks, eq_rhs, max_iter=600)
        t_fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        ref_sols = [solve_sdp_general(c[i], list(eq_stacks[i]), eq_rhs[i])
                    for i in range(BATCH)]
        t_ref = time.perf_counter() - t0
        sdp_ref = np.array([s.objective for s in ref_sols])
        # an unconverged ADMM answer is no yardstick; certified fast-path
        # entries are judged only against references that converged
        ref_ok = np.array([s.converged for s in ref_sols])
        ok = np.asarray(sdp.certified)
        both = ok & ref_ok
        mis = int(np.sum(np.abs(sdp.objective[both] - sdp_ref[both]) > AGREE_TOL))
        rows.append({
            "family": "sdp_b256", "batch": BATCH,
            "t_batched_s": t_fast, "t_perproblem_s": t_ref,
            "speedup": t_ref / max(t_fast, 1e-12),
            "certified": int(np.sum(ok)), "rejected": int(BATCH - np.sum(ok)),
            "ref_unconverged": int(BATCH - np.sum(ref_ok)),
            "miscertified": mis,
        })

    # --- warm start: frame-to-frame re-solve on drifted data -----------
    if wanted("box_qp_warm_b256"):
        t0 = time.perf_counter()
        cold = box_qp_fista_batch(p, q_drift, lo, hi)
        t_cold = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = box_qp_fista_batch(p, q_drift, lo, hi, x0=fast.x)
        t_warm = time.perf_counter() - t0
        ok = np.asarray(warm.certified)
        mis = int(np.sum(np.abs(warm.objective[ok] - cold.objective[ok]) > AGREE_TOL))
        rows.append({
            "family": "box_qp_warm_b256", "batch": BATCH,
            "t_batched_s": t_warm, "t_perproblem_s": t_cold,
            "speedup": t_cold / max(t_warm, 1e-12),
            "iters_cold": int(np.max(cold.iterations)),
            "iters_warm": int(np.max(warm.iterations)),
            "certified": int(np.sum(ok)), "rejected": int(BATCH - np.sum(ok)),
            "miscertified": mis,
        })
    return rows


def test_firstorder_speedup(benchmark, request):
    rows = benchmark.pedantic(measure_firstorder, iterations=1, rounds=1)

    banner("FIRSTORDER", "Batched first-order fast path vs per-problem rungs (§III)")
    print(f"{'family':<18} | {'batched':>9} | {'per-prob':>9} | "
          f"{'speedup':>8} | {'cert':>5} | {'rej':>4} | {'mis':>4}")
    for row in rows:
        print(f"{row['family']:<18} | {row['t_batched_s']:>8.3f}s | "
              f"{row['t_perproblem_s']:>8.3f}s | {row['speedup']:>7.1f}x | "
              f"{row['certified']:>5d} | {row['rejected']:>4d} | "
              f"{row['miscertified']:>4d}")

    by_family = {row["family"]: row for row in rows}
    # the headline claim: >= 5x on batches of 256 small solves
    assert by_family["box_qp_b256"]["speedup"] >= 5.0
    assert by_family["sdp_b256"]["speedup"] >= 5.0
    # warm starts must not lose to cold on drifted data
    assert by_family["box_qp_warm_b256"]["iters_warm"] <= \
        by_family["box_qp_warm_b256"]["iters_cold"]
    # zero uncertified answers served: every certified entry agrees with
    # the reference rung; disagreements may only appear as rejections
    for row in rows:
        assert row["miscertified"] == 0, row

    maybe_write_bench_json(request, "firstorder", rows,
                           extra={"batch": BATCH, "agree_tol": AGREE_TOL})
