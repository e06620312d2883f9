"""Ladder + golden tests for the first-order fast path.

Covers the integration surface: the ``firstorder`` verification rung in
:data:`~repro.verify.verifier.VERIFICATION_FALLBACK`, the
``sdp -> firstorder -> qcqp -> qp`` QCQP ladder (rejections must descend
*visibly* — every failed rung shows up in ``failures``), memoized
``verify_batch`` across executor backends, and a checked-in golden that
pins the exact answers of the whole surface.

Regenerate the golden with::

    PYTHONPATH=src python -m pytest tests/test_firstorder_ladder.py --update-goldens
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.convex.problem import QCQPProblem, QuadraticForm
from repro.convex.qcqp import solve_qcqp_resilient
from repro.exceptions import VerificationError
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Sequential
from repro.parallel import RelaxationCache, make_executor
from repro.verify import (
    RobustnessSpec,
    firstorder_margin_lower_bound,
    ibp_margin_lower_bound,
    lp_margin_lower_bound,
    verify,
    verify_batch,
)
from repro.verify.verifier import verify_resilient

from .conftest import GOLDEN_DIR

pytestmark = pytest.mark.convex


def _bench_net() -> Sequential:
    """The standard 2-8-8-2 bench net (same seed as the fallback bench)."""
    rng = np.random.default_rng(0)
    return Sequential([
        Dense(2, 8, rng=rng), ReLU(),
        Dense(8, 8, rng=rng), ReLU(),
        Dense(8, 2, rng=rng),
    ])


def _spec() -> RobustnessSpec:
    return RobustnessSpec(x0=np.array([0.3, -0.2]), eps=0.05,
                          c=np.array([1.0, -1.0]))


# ---------------------------------------------------------------------------
# the firstorder verification rung
# ---------------------------------------------------------------------------


class TestFirstorderVerifyRung:
    def test_bound_sandwiched_between_lp_and_ibp(self):
        net, spec = _bench_net(), _spec()
        fo = firstorder_margin_lower_bound(net, spec.x0, spec.eps, spec.c)
        lp = lp_margin_lower_bound(net, spec.x0, spec.eps, spec.c)
        ibp = ibp_margin_lower_bound(net, spec.x0, spec.eps, spec.c)
        # sound: never above the LP optimum it approximates; certified:
        # never below the IBP floor it is gated against
        assert fo <= lp + 1e-9
        assert fo >= ibp - 1e-6

    def test_verify_method_firstorder(self):
        net, spec = _bench_net(), _spec()
        res = verify(net, spec, method="firstorder")
        assert res.method == "firstorder"
        assert res.margin_lower_bound == pytest.approx(
            firstorder_margin_lower_bound(net, spec.x0, spec.eps, spec.c),
            abs=1e-12)

    def test_resilient_descends_to_firstorder(self):
        net, spec = _bench_net(), _spec()

        def flaky(n, s, method="crown", **kw):
            if method in ("exact", "lp"):
                raise VerificationError(f"injected {method} outage")
            return verify(n, s, method=method, **kw)

        res = verify_resilient(net, spec, verify_fn=flaky)
        assert res.rung == "firstorder"
        assert [name for name, _ in res.failures] == ["exact", "lp"]
        assert res.degraded


# ---------------------------------------------------------------------------
# verify_batch: memoized fan-out with method="firstorder"
# ---------------------------------------------------------------------------


class TestFirstorderBatch:
    def _specs(self, k=6):
        rng = np.random.default_rng(5)
        out = []
        for _ in range(k):
            out.append(RobustnessSpec(
                x0=rng.uniform(-0.5, 0.5, 2), eps=0.03,
                c=np.array([1.0, -1.0])))
        # duplicate a spec so the cache has a guaranteed intra-batch hit
        out.append(out[0])
        return out

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_matches_loop_across_executors(self, kind):
        net, specs = _bench_net(), self._specs()
        loop = [verify(net, s, method="firstorder") for s in specs]
        cache = RelaxationCache(capacity=64)
        with make_executor(kind, max_workers=2) as ex:
            got = verify_batch(net, specs, method="firstorder",
                               executor=ex, cache=cache)
        assert [r.margin_lower_bound for r in got] == [r.margin_lower_bound for r in loop]
        assert [r.verified for r in got] == [r.verified for r in loop]
        # the duplicated spec must have been served from the cache
        assert cache.hits >= 1


# ---------------------------------------------------------------------------
# QCQP ladder: rejections descend visibly
# ---------------------------------------------------------------------------


def _nonconvex_problem(n=3, seed=4) -> QCQPProblem:
    """Indefinite objective over the annulus ``1 <= ||x||^2 <= 4``.

    The nonconvex shell constraint keeps a starved SDP's near-zero
    recovered point infeasible, so every rung failure is exercised.
    """
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    indef = 0.5 * (m + m.T)
    shell = QuadraticForm(p=-np.eye(n), q=np.zeros(n), r=1.0)
    ball = QuadraticForm(p=np.eye(n), q=np.zeros(n), r=-4.0)
    return QCQPProblem(
        objective=QuadraticForm(p=indef, q=rng.standard_normal(n), r=0.0),
        constraints=(shell, ball))


class TestQCQPLadder:
    def test_firstorder_rejection_descends_visibly(self):
        # starve both relaxation rungs: the strict SDP cannot converge in
        # 2 sweeps and the Burer-Monteiro pass cannot certify in 1 — both
        # must show up in failures, and a lower rung must still answer
        res = solve_qcqp_resilient(_nonconvex_problem(), sdp_max_iter=2,
                                   firstorder_max_iter=1)
        failed = [name for name, _ in res.failures]
        assert "sdp" in failed
        assert "firstorder" in failed
        assert res.rung in ("qcqp", "qp")
        assert np.all(np.isfinite(res.value.x))

    def test_healthy_ladder_answers_high(self):
        res = solve_qcqp_resilient(_nonconvex_problem())
        assert res.rung in ("sdp", "firstorder")
        assert res.failures == ()
        assert np.isfinite(res.value.objective)


# ---------------------------------------------------------------------------
# golden: exact answers of the whole first-order surface
# ---------------------------------------------------------------------------


def test_firstorder_ladder_golden(update_goldens):
    net, spec = _bench_net(), _spec()
    payload = {"margin": {}, "resilient": {}, "qcqp": {}}

    payload["margin"]["vectorized"] = repr(firstorder_margin_lower_bound(
        net, spec.x0, spec.eps, spec.c))

    def flaky(n, s, method="crown", **kw):
        if method in ("exact", "lp"):
            raise VerificationError(f"injected {method} outage")
        return verify(n, s, method=method, **kw)

    res = verify_resilient(net, spec, verify_fn=flaky)
    payload["resilient"] = {
        "rung": res.rung,
        "rung_index": res.rung_index,
        "failed_rungs": [name for name, _ in res.failures],
        "margin": repr(res.result.margin_lower_bound),
        "verified": res.verified,
    }

    qres = solve_qcqp_resilient(_nonconvex_problem(), sdp_max_iter=2,
                                firstorder_max_iter=1)
    payload["qcqp"] = {
        "rung": qres.rung,
        "failed_rungs": [name for name, _ in qres.failures],
        "objective": repr(float(qres.value.objective)),
    }

    path = GOLDEN_DIR / "firstorder_ladder.json"
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if update_goldens:
        path.write_text(rendered)
        return
    if not path.exists():
        pytest.fail("golden firstorder_ladder.json missing — generate with "
                    "--update-goldens and commit it")
    assert json.loads(rendered) == json.loads(path.read_text()), (
        "first-order surface diverged from golden; if intentional rerun "
        "with --update-goldens and review the diff")
