"""repro.obs.metrics — counters, gauges, fixed-bucket histograms, label
keying, and the solver-outcome recording helper."""

import math

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import (
    ITERATION_BUCKETS,
    Handles,
    MetricsRegistry,
    get_metrics,
    record_solver_outcome,
    set_metrics,
    use_metrics,
)
from repro.obs.metrics import Histogram

pytestmark = pytest.mark.obs


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("solver.solves", solver="admm")
        c.inc()
        c.inc(2.0)
        assert reg.counter_value("solver.solves", solver="admm") == 3.0

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ConfigurationError, match="counters only go up"):
            MetricsRegistry().counter("x").inc(-1.0)

    def test_gauge_holds_latest_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("breaker.state", breaker="rra")
        g.set(2)
        g.set(0)
        assert reg.snapshot()["gauges"]["breaker.state{breaker=rra}"] == 0.0

    def test_unknown_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("never.touched") == 0.0


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.0)   # lands in bucket [.., 1]
        h.observe(1.5)   # lands in bucket (1, 2]
        h.observe(2.0)   # edge is inclusive -> (1, 2]
        h.observe(2.5)   # past the last edge -> overflow
        assert h.counts == [1, 2, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(7.0)
        assert h.min == 1.0 and h.max == 2.5
        assert h.mean == pytest.approx(7.0 / 4)

    def test_empty_histogram_is_safe(self):
        h = Histogram(buckets=(1.0,))
        assert h.mean == 0.0
        d = h.to_dict()
        assert d["min"] is None and d["max"] is None

    def test_rejects_bad_bucket_edges(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=())
        with pytest.raises(ConfigurationError):
            Histogram(buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram(buckets=(2.0, 1.0))

    def test_series_keeps_birth_buckets(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("lat", buckets=(1.0, 2.0))
        h2 = reg.histogram("lat", buckets=(99.0,))  # ignored: same series
        assert h2 is h1
        assert h1.buckets == (1.0, 2.0)


# ---------------------------------------------------------------------------
# Registry keying, snapshot, reset
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_labels_key_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("ladder.answered", ladder="verify", rung="lp").inc()
        reg.counter("ladder.answered", ladder="verify", rung="exact").inc(2)
        assert reg.counter_value("ladder.answered", ladder="verify", rung="lp") == 1.0
        assert reg.counter_value("ladder.answered", ladder="verify", rung="exact") == 2.0
        # label order does not matter: sorted into the key
        assert reg.counter("ladder.answered", rung="lp", ladder="verify").value == 1.0

    def test_counters_matching_renders_keys(self):
        reg = MetricsRegistry()
        reg.counter("chaos.injections", kind="nan", target="verify").inc()
        reg.counter("chaos.injections", kind="exception", target="rra").inc(3)
        reg.counter("unrelated").inc()
        matched = reg.counters_matching("chaos.injections")
        assert matched == {
            "chaos.injections{kind=nan,target=verify}": 1.0,
            "chaos.injections{kind=exception,target=rra}": 3.0,
        }

    def test_snapshot_is_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("a", x=1).inc()
        reg.gauge("b").set(4.5)
        reg.histogram("c", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"]["a{x=1}"] == 1.0
        assert snap["gauges"]["b"] == 4.5
        assert snap["histograms"]["c"]["counts"] == [1, 0]
        json.dumps(snap)  # must serialize without coercion

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(1)
        reg.histogram("c").observe(1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {},
                        "windows": {}}


# ---------------------------------------------------------------------------
# Ambient registry + solver-outcome helper
# ---------------------------------------------------------------------------


class TestHandles:
    def test_resolves_once_per_registry(self):
        handles = Handles()
        resolved = []

        def resolve(reg):
            resolved.append(reg)
            return reg.counter("hits", cell=1)

        first, second = MetricsRegistry(), MetricsRegistry()
        with use_metrics(first):
            handles.get("hits", resolve).inc()
            handles.get("hits", resolve).inc(2)
        with use_metrics(second):
            handles.get("hits", resolve).inc()
        assert resolved == [first, second]
        assert first.counter_value("hits", cell=1) == 3.0
        assert second.counter_value("hits", cell=1) == 1.0

    def test_reset_drops_handles(self):
        handles = Handles()
        reg = MetricsRegistry()
        with use_metrics(reg):
            handles.get("h", lambda m: m.histogram("lat")).observe(1.0)
            reg.reset()
            handles.get("h", lambda m: m.histogram("lat")).observe(2.0)
        assert reg.snapshot()["histograms"]["lat"]["count"] == 1


class TestAmbientRegistry:
    def test_use_metrics_installs_and_restores(self):
        before = get_metrics()
        fresh = MetricsRegistry()
        with use_metrics(fresh) as installed:
            assert installed is fresh
            assert get_metrics() is fresh
        assert get_metrics() is before

    def test_set_metrics_round_trip(self):
        before = get_metrics()
        fresh = MetricsRegistry()
        set_metrics(fresh)
        try:
            assert get_metrics() is fresh
        finally:
            set_metrics(before)

    def test_record_solver_outcome_converged(self):
        with use_metrics(MetricsRegistry()) as reg:
            record_solver_outcome("admm", iterations=42, converged=True,
                                  residual=1e-7)
        assert reg.counter_value("solver.solves", solver="admm") == 1.0
        assert reg.counter_value("solver.failures", solver="admm") == 0.0
        hist = reg.histogram("solver.iterations", solver="admm")
        assert hist.buckets == tuple(float(b) for b in ITERATION_BUCKETS)
        assert hist.count == 1 and hist.max == 42.0
        assert reg.histogram("solver.residual", solver="admm").count == 1

    def test_record_solver_outcome_failure_and_nan_residual(self):
        with use_metrics(MetricsRegistry()) as reg:
            record_solver_outcome("sdp", iterations=500, converged=False,
                                  residual=math.nan)
        assert reg.counter_value("solver.failures", solver="sdp") == 1.0
        # a non-finite residual must not be observed
        assert reg.histogram("solver.residual", solver="sdp").count == 0

    def test_record_solver_outcome_uses_ambient_registry(self):
        fresh = MetricsRegistry()
        with use_metrics(fresh):
            record_solver_outcome("qp", iterations=3, converged=True)
        assert fresh.counter_value("solver.solves", solver="qp") == 1.0

    def test_record_solver_outcome_follows_registry_swaps_and_resets(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        for reg in (first, second, first):
            with use_metrics(reg):
                record_solver_outcome("qp", iterations=3, converged=False)
        assert first.counter_value("solver.failures", solver="qp") == 2.0
        assert second.counter_value("solver.failures", solver="qp") == 1.0
        first.reset()
        with use_metrics(first):
            record_solver_outcome("qp", iterations=3, converged=True)
        assert first.counter_value("solver.solves", solver="qp") == 1.0
        assert first.counter_value("solver.failures", solver="qp") == 0.0
