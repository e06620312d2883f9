"""repro.obs.windows + repro.obs.sampling — rolling instruments,
append-only histogram series, exemplars, and head-sampled tracing.

Everything runs on injected fake clocks: windowed telemetry must be a
pure function of (observations, clock readings), never of wall time.
"""

import json
import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    LATENCY_BUCKETS,
    HeadSampler,
    Histogram,
    HistogramSeries,
    RollingCounter,
    RollingHistogram,
    SampledTracer,
    Tracer,
    span_exemplar,
    use_tracer,
)

pytestmark = pytest.mark.obs


class FakeClock:
    """A hand-cranked monotonic clock."""

    def __init__(self, t: float = 0.0):
        self.t = float(t)

    def advance(self, dt: float) -> None:
        self.t += dt

    def __call__(self) -> float:
        return self.t


# ---------------------------------------------------------------------------
# RollingCounter
# ---------------------------------------------------------------------------


class TestRollingCounter:
    def test_counts_within_window(self):
        clk = FakeClock()
        c = RollingCounter(window_s=10.0, n_slots=10, clock=clk)
        c.inc()
        clk.advance(3.0)
        c.inc(2.0)
        assert c.total() == 3.0
        assert c.rate() == pytest.approx(0.3)

    def test_old_slots_expire(self):
        clk = FakeClock()
        c = RollingCounter(window_s=10.0, n_slots=10, clock=clk)
        c.inc(5.0)
        clk.advance(9.5)          # still inside the 10 s window
        assert c.total() == 5.0
        clk.advance(1.0)          # the slot holding the 5 falls out
        assert c.total() == 0.0

    def test_partial_expiry_is_per_slot(self):
        clk = FakeClock()
        c = RollingCounter(window_s=10.0, n_slots=10, clock=clk)
        c.inc(1.0)                # slot 0
        clk.advance(5.0)
        c.inc(1.0)                # slot 5
        clk.advance(5.5)          # slot 0 expired, slot 5 alive
        assert c.total() == 1.0

    def test_gap_longer_than_window_clears_everything(self):
        clk = FakeClock()
        c = RollingCounter(window_s=10.0, n_slots=10, clock=clk)
        c.inc(7.0)
        clk.advance(1000.0)       # absurd idle gap: full wrap, no ghosts
        assert c.total() == 0.0
        c.inc(1.0)
        assert c.total() == 1.0

    def test_rejects_negative_and_bad_config(self):
        with pytest.raises(ConfigurationError, match="only go up"):
            RollingCounter(clock=FakeClock()).inc(-1.0)
        with pytest.raises(ConfigurationError):
            RollingCounter(window_s=0.0, clock=FakeClock())
        with pytest.raises(ConfigurationError):
            RollingCounter(n_slots=0, clock=FakeClock())

    def test_to_dict_shape(self):
        clk = FakeClock()
        c = RollingCounter(window_s=10.0, n_slots=10, clock=clk)
        c.inc(4.0)
        d = c.to_dict()
        assert d["kind"] == "rolling_counter"
        assert d["total"] == 4.0 and d["rate"] == pytest.approx(0.4)
        json.dumps(d)  # JSON-ready for snapshots


# ---------------------------------------------------------------------------
# RollingHistogram
# ---------------------------------------------------------------------------


def _one_bucket_bound(edges, true_value):
    """(lo, hi) of the bucket the true quantile falls in — the promised
    error envelope for bucket-interpolated quantiles."""
    import bisect

    i = bisect.bisect_left(edges, true_value)
    lo = -math.inf if i == 0 else edges[i - 1]
    hi = math.inf if i == len(edges) else edges[i]
    return lo, hi


class TestRollingHistogram:
    def test_quantile_tracks_np_percentile_within_one_bucket(self):
        rng = np.random.default_rng(7)
        samples = np.abs(rng.lognormal(mean=-2.0, sigma=1.0, size=2000))
        clk = FakeClock()
        h = RollingHistogram(buckets=LATENCY_BUCKETS, window_s=100.0,
                             n_slots=10, clock=clk)
        for v in samples:
            h.observe(float(v))
        for q in (0.10, 0.50, 0.90, 0.95, 0.99):
            true = float(np.percentile(samples, q * 100.0))
            est = h.quantile(q)
            lo, hi = _one_bucket_bound(LATENCY_BUCKETS, true)
            assert lo - 1e-12 <= est <= hi + 1e-12, (q, true, est)

    def test_quantile_clamped_to_observed_extremes(self):
        clk = FakeClock()
        h = RollingHistogram(buckets=(1.0, 2.0), window_s=10.0, clock=clk)
        for v in (0.4, 0.5, 0.6):
            h.observe(v)
        assert h.quantile(0.0) >= 0.4 - 1e-12
        assert h.quantile(1.0) <= 0.6 + 1e-12

    def test_window_expiry_forgets_old_observations(self):
        clk = FakeClock()
        h = RollingHistogram(buckets=(0.1, 1.0), window_s=10.0,
                             n_slots=10, clock=clk)
        h.observe(5.0)            # a slow outlier now
        clk.advance(11.0)         # ...which the window must forget
        h.observe(0.05)
        assert h.count() == 1
        assert h.quantile(1.0) == pytest.approx(0.05)

    def test_percentiles_zeros_when_empty(self):
        h = RollingHistogram(clock=FakeClock())
        assert h.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0,
                                   "n": 0.0}

    def test_exemplar_tracks_window_max(self):
        clk = FakeClock()
        h = RollingHistogram(buckets=(0.1, 1.0), window_s=10.0,
                             n_slots=10, clock=clk)
        h.observe(0.2, exemplar={"value": 0.2, "span_id": 1})
        h.observe(0.9, exemplar={"value": 0.9, "span_id": 2})
        h.observe(0.3, exemplar={"value": 0.3, "span_id": 3})
        assert h.exemplar()["span_id"] == 2
        clk.advance(11.0)         # exemplar expires with its slot
        assert h.exemplar() is None

    def test_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError, match="ascending"):
            RollingHistogram(buckets=(1.0, 1.0), clock=FakeClock())
        with pytest.raises(ConfigurationError, match="bucket edge"):
            RollingHistogram(buckets=(), clock=FakeClock())

    def test_to_dict_is_json_ready(self):
        clk = FakeClock()
        h = RollingHistogram(buckets=(0.1, 1.0), window_s=10.0, clock=clk)
        h.observe(0.5)
        d = h.to_dict()
        assert d["kind"] == "rolling_histogram" and d["count"] == 1
        json.dumps(d)


# ---------------------------------------------------------------------------
# HistogramSeries
# ---------------------------------------------------------------------------


class TestHistogramSeries:
    def test_windowed_percentiles_select_slots(self):
        s = HistogramSeries(slot_s=0.5, buckets=(0.1, 0.5, 1.0))
        for t in (0.0, 0.1, 0.2):
            s.observe(t, 0.05)    # early, fast
        for t in (3.0, 3.1, 3.2):
            s.observe(t, 0.9)     # late, slow
        assert s.count(0.0, 1.0) == 3
        assert s.quantile(1.0, 0.0, 1.0) == pytest.approx(0.05)
        assert s.quantile(0.0, 3.0, 4.0) == pytest.approx(0.9)
        # whole-run view merges both phases
        assert s.count() == 6

    def test_memory_is_slots_times_buckets_not_events(self):
        s = HistogramSeries(slot_s=0.5, buckets=LATENCY_BUCKETS)
        rng = np.random.default_rng(3)
        n_events = 50_000
        for v in rng.random(n_events):
            s.observe(t=float(v) * 5.0, v=float(v))
        # 5 s of recorded time / 0.5 s slots = 10 slots, whatever the volume
        assert s.n_slots == 10
        assert s.memory_cells() == 10 * (len(LATENCY_BUCKETS) + 1)
        assert s.memory_cells() < n_events / 100

    def test_merge_folds_shards_together(self):
        a = HistogramSeries(slot_s=0.5, buckets=(0.1, 1.0))
        b = HistogramSeries(slot_s=0.5, buckets=(0.1, 1.0))
        a.observe(0.2, 0.05)
        b.observe(0.2, 0.9, exemplar={"value": 0.9, "span_id": 42})
        b.observe(4.0, 0.3)
        a.merge(b)
        assert a.count() == 3
        assert a.exemplar(0.0, 1.0)["span_id"] == 42  # max wins the merge

    def test_merge_rejects_mismatched_layout(self):
        a = HistogramSeries(slot_s=0.5, buckets=(0.1, 1.0))
        b = HistogramSeries(slot_s=1.0, buckets=(0.1, 1.0))
        with pytest.raises(ConfigurationError, match="identical"):
            a.merge(b)

    def test_to_dict_round_trips_through_json(self):
        s = HistogramSeries(slot_s=0.5, buckets=(0.1, 1.0))
        s.observe(0.2, 0.05)
        d = json.loads(json.dumps(s.to_dict()))
        assert d["kind"] == "histogram_series"
        assert d["slots"]["0"]["count"] == 1

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            HistogramSeries(slot_s=0.0)
        with pytest.raises(ConfigurationError):
            HistogramSeries(buckets=())


# ---------------------------------------------------------------------------
# Batch observe
# ---------------------------------------------------------------------------


def _histogram_state(hist) -> dict:
    """Counts, count, ``sum`` as float hex, min/max and exemplar(s) of any
    of the three histogram types."""
    if isinstance(hist, Histogram):
        return {"counts": list(hist.counts), "count": hist.count,
                "sum": float(hist.sum).hex(), "min": hist.min, "max": hist.max,
                "exemplar": hist.exemplar}
    slots = (hist._slots.items() if isinstance(hist, HistogramSeries)
             else enumerate(hist._slots))
    return {idx: {"counts": list(s.counts), "count": s.count, "sum": float(s.sum).hex(),
                  "min": s.min, "max": s.max, "exemplar": s.exemplar}
            for idx, s in slots}


_BATCHES = st.lists(st.lists(st.one_of(
    st.floats(0.0, 12.0), st.sampled_from([0.0, 0.05, 0.1, 1.0, 10.0, 11.0])),
    max_size=8), max_size=6)


class TestBatchObserve:
    """``observe_many`` equals one ``observe`` per value, bit for bit."""

    @settings(max_examples=120, deadline=None)
    @given(batches=_BATCHES, pre=st.lists(st.floats(0.0, 12.0), max_size=3))
    @pytest.mark.parametrize("kind", ["histogram", "rolling", "series"])
    def test_batch_equals_sequential(self, kind, batches, pre):
        clocks = {mode: FakeClock() for mode in ("batch", "one")}

        def make(mode):
            if kind == "histogram":
                return Histogram(LATENCY_BUCKETS)
            if kind == "rolling":
                return RollingHistogram(window_s=2.0, n_slots=4, clock=clocks[mode])
            return HistogramSeries(slot_s=0.5)

        def exemplar(v):
            return {"value": v, "tag": "x"}

        batch, one = make("batch"), make("one")
        for mode, hist in (("batch", batch), ("one", one)):
            t = 0.0
            # earlier single observations leave a slot with an exemplar
            for v in pre:
                if kind in ("histogram", "rolling"):
                    hist.observe(v, exemplar=exemplar(v))
                else:
                    hist.observe(t, v, exemplar=exemplar(v))
            # batches land in slots that already hold observations
            for values in batches:
                t += 0.2
                clocks[mode].advance(0.2)
                if mode == "batch":
                    if kind in ("histogram", "rolling"):
                        hist.observe_many(values, exemplar=exemplar)
                    else:
                        hist.observe_many(t, values, exemplar=exemplar)
                else:
                    for v in values:
                        if kind in ("histogram", "rolling"):
                            hist.observe(v, exemplar=exemplar(v))
                        else:
                            hist.observe(t, v, exemplar=exemplar(v))
        assert _histogram_state(batch) == _histogram_state(one)
        assert batch.to_dict() == one.to_dict()

    def test_only_the_kept_exemplar_is_built(self):
        built = []

        def exemplar(v):
            built.append(v)
            return {"value": v}

        series = HistogramSeries(slot_s=1.0)
        series.observe_many(0.2, [0.3, 0.9, 0.1, 0.9, 0.4], exemplar=exemplar)
        assert built == [0.9]
        assert series.exemplar() == {"value": 0.9}


# ---------------------------------------------------------------------------
# Exemplars
# ---------------------------------------------------------------------------


class TestSpanExemplar:
    def test_links_current_span_when_tracing(self):
        t = Tracer(wall_clock=FakeClock(), cpu_clock=FakeClock())
        with use_tracer(t):
            with t.span("serve.frame") as sp:
                ex = span_exemplar(0.25, time_s=1.5)
        assert ex == {"value": 0.25, "time_s": 1.5, "span_id": sp.span_id}

    def test_no_span_id_under_noop_tracer(self):
        assert span_exemplar(0.25) == {"value": 0.25}

    def test_no_span_id_for_unsampled_trace(self):
        t = SampledTracer(sample_rate=0.0, seed=1,
                          wall_clock=FakeClock(), cpu_clock=FakeClock())
        with use_tracer(t):
            with t.span("serve.frame"):
                ex = span_exemplar(0.25)
        # the span would be dropped from the export: no dangling id
        assert "span_id" not in ex


# ---------------------------------------------------------------------------
# Head sampling
# ---------------------------------------------------------------------------


class TestHeadSampler:
    def test_deterministic_for_seed_and_sequence(self):
        a = HeadSampler(rate=0.5, seed=11)
        b = HeadSampler(rate=0.5, seed=11)
        decisions_a = [a.sample("serve.frame") for _ in range(200)]
        decisions_b = [b.sample("serve.frame") for _ in range(200)]
        assert decisions_a == decisions_b
        assert True in decisions_a and False in decisions_a

    def test_rate_extremes(self):
        keep_all = HeadSampler(rate=1.0)
        keep_none = HeadSampler(rate=0.0)
        assert all(keep_all.sample("x") for _ in range(50))
        assert not any(keep_none.sample("x") for _ in range(50))

    def test_rate_approximately_honoured(self):
        s = HeadSampler(rate=0.25, seed=5)
        kept = sum(s.sample("span") for _ in range(4000))
        assert 0.20 < kept / 4000 < 0.30

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError, match="rate"):
            HeadSampler(rate=1.5)


class TestSampledTracer:
    def _workload(self, tracer):
        """Three traces: kept-or-not by the head decision, one erroring."""
        with tracer.span("root-a"):
            with tracer.span("child-a"):
                pass
        tracer.event("slo.burn", slo="urllc-latency")
        with tracer.span("root-b"):
            pass
        with pytest.raises(ValueError):
            with tracer.span("root-err"):
                raise ValueError("boom")

    def test_head_decision_inherited_by_nested_spans(self):
        t = SampledTracer(sample_rate=0.0, seed=0,
                          wall_clock=FakeClock(), cpu_clock=FakeClock())
        with use_tracer(t):
            self._workload(t)
        kept = [(r.kind, r.name, r.status) for r in t.records]
        # nothing sampled: only the event and the error span survive
        assert kept == [("event", "slo.burn", "ok"),
                        ("span", "root-err", "error")]
        assert t.unsampled_traces == 3
        assert t.dropped == 3  # root-a, child-a, root-b

    def test_rate_one_keeps_everything(self):
        t = SampledTracer(sample_rate=1.0, seed=0,
                          wall_clock=FakeClock(), cpu_clock=FakeClock())
        with use_tracer(t):
            self._workload(t)
        assert len(t.records) == 5
        assert t.dropped == 0 and t.sampled_traces == 3

    def test_span_ids_match_unsampled_run(self):
        """Sampling changes retention only: ids/nesting are identical, so
        a kept trace lines up with the same run traced in full."""
        clk = (FakeClock(), FakeClock())
        full = Tracer(wall_clock=clk[0], cpu_clock=clk[1])
        with use_tracer(full):
            self._workload(full)
        sampled = SampledTracer(sample_rate=0.0, seed=0,
                                wall_clock=FakeClock(), cpu_clock=FakeClock())
        with use_tracer(sampled):
            self._workload(sampled)
        full_ids = {(r.name, r.span_id, r.parent_id, r.depth)
                    for r in full.records}
        kept_ids = {(r.name, r.span_id, r.parent_id, r.depth)
                    for r in sampled.records}
        assert kept_ids <= full_ids

    def test_max_records_cap_counts_what_it_drops(self):
        t = SampledTracer(sample_rate=1.0, max_records=3,
                          wall_clock=FakeClock(), cpu_clock=FakeClock())
        with use_tracer(t):
            for i in range(10):
                t.event("tick", i=i)
        assert len(t.records) == 3
        assert t.capped == 7
        stats = t.stats()
        assert stats["kept"] == 3 and stats["capped"] == 7
        assert stats["max_records"] == 3

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            SampledTracer(max_records=0)
        with pytest.raises(ConfigurationError):
            SampledTracer(sample_rate=-0.1)
