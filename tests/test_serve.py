"""Tests for the sharded QoS serving layer (repro.serve).

Everything here is deterministic: time is simulated, every RNG seed
derives from task identity, and chaos schedules are seeded — so even
the soak-style tests assert exact equalities across executor backends.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.obs import Telemetry
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    derive_seed,
    make_executor,
)
from repro.qos.mobility import GilbertElliottConfig
from repro.qos.rra import RRA_FALLBACK
from repro.qos.traffic import MMPPConfig, ServiceClass
from repro.resilience import CircuitBreaker, FaultSpec
from repro.serve import (
    BREAKER_OPEN,
    DEGRADED,
    NORMAL,
    SHEDDING,
    AdmissionQueue,
    ArrivalConfig,
    ArrivalProcess,
    FrameRequest,
    OverloadConfig,
    OverloadMachine,
    QoSService,
    SchedulerShard,
    ServeConfig,
    ShardConfig,
    solve_shard_task,
)
from repro.serve.queueing import ADMITTED, SHED, SHED_ORDER

pytestmark = pytest.mark.serve


def _req(rid, svc, t=0.0, cell=0, n_ues=10, kind="poisson"):
    return FrameRequest(request_id=rid, cell=cell, service=svc,
                        n_ues=n_ues, enqueued_at_s=t, kind=kind)


# ---------------------------------------------------------------------------
# Admission queue: QoS-class shedding policy
# ---------------------------------------------------------------------------


class TestAdmissionQueue:
    def test_admits_under_capacity_and_serves_urllc_first(self):
        q = AdmissionQueue(cell=0, max_depth=8)
        assert q.offer(_req(0, ServiceClass.MMTC)).verdict == ADMITTED
        assert q.offer(_req(1, ServiceClass.EMBB)).verdict == ADMITTED
        assert q.offer(_req(2, ServiceClass.URLLC)).verdict == ADMITTED
        assert q.offer(_req(3, ServiceClass.URLLC)).verdict == ADMITTED
        taken = q.take(3)
        # URLLC first (FIFO within class), then eMBB
        assert [r.request_id for r in taken] == [2, 3, 1]

    def test_full_queue_evicts_cheapest_class_below_offer(self):
        q = AdmissionQueue(cell=0, max_depth=2)
        q.offer(_req(0, ServiceClass.MMTC))
        q.offer(_req(1, ServiceClass.EMBB))
        adm = q.offer(_req(2, ServiceClass.URLLC))
        assert adm.verdict == ADMITTED
        # the mMTC request was evicted to make room, never the eMBB one
        assert [r.request_id for r in adm.shed] == [0]
        assert q.stats.shed_ues(ServiceClass.MMTC) == 10
        assert q.stats.shed_ues(ServiceClass.EMBB) == 0

    def test_eviction_prefers_youngest_of_cheapest_class(self):
        q = AdmissionQueue(cell=0, max_depth=2)
        q.offer(_req(0, ServiceClass.MMTC, t=0.0))
        q.offer(_req(1, ServiceClass.MMTC, t=1.0))
        adm = q.offer(_req(2, ServiceClass.EMBB, t=2.0))
        # the younger mMTC request is the victim; the old one keeps its turn
        assert [r.request_id for r in adm.shed] == [1]
        assert [r.request_id for r in q.take(2)] == [2, 0]

    def test_full_queue_sheds_offer_when_nothing_cheaper_is_queued(self):
        q = AdmissionQueue(cell=0, max_depth=2)
        q.offer(_req(0, ServiceClass.URLLC))
        q.offer(_req(1, ServiceClass.URLLC))
        adm = q.offer(_req(2, ServiceClass.MMTC))
        assert adm.verdict == SHED
        assert q.depth() == 2  # URLLC untouched
        adm2 = q.offer(_req(3, ServiceClass.URLLC))
        assert adm2.verdict == SHED  # same class is not "cheaper"
        assert q.stats.shed_ues(ServiceClass.URLLC) == 10

    def test_age_expiry_sheds_stale_requests(self):
        q = AdmissionQueue(cell=0, max_depth=8, max_age_s=2.0)
        q.offer(_req(0, ServiceClass.EMBB, t=0.0))
        q.offer(_req(1, ServiceClass.EMBB, t=3.0))
        expired = q.expire(now_s=4.0)
        assert [r.request_id for r in expired] == [0]
        assert q.depth() == 1
        assert q.stats.shed_age.get(ServiceClass.EMBB) == 10

    def test_backpressure_fraction(self):
        q = AdmissionQueue(cell=0, max_depth=4)
        assert q.backpressure() == 0.0
        q.offer(_req(0, ServiceClass.EMBB))
        q.offer(_req(1, ServiceClass.EMBB))
        assert q.backpressure() == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(cell=0, max_depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionQueue(cell=0, max_age_s=0.0)


_QUEUE_OPS = st.lists(st.one_of(
    # offer one request of `n_ues`, then advance the clock by `dt`
    st.tuples(st.just("offer"), st.sampled_from(SHED_ORDER),
              st.integers(1, 40), st.floats(0.0, 0.5)),
    st.tuples(st.just("take"), st.integers(0, 4)),
    # a dropped frame hands back the oldest `k` taken requests
    st.tuples(st.just("requeue"), st.integers(0, 4)),
    st.tuples(st.just("expire")),
), max_size=60)

#: one tick of a cell: offer a batch of (class, n_ues) requests, take k
#: and requeue the first j of them (a dropped frame), or expire by age
_BATCH_OPS = st.lists(st.one_of(
    st.tuples(st.just("offer"), st.lists(
        st.tuples(st.sampled_from(SHED_ORDER), st.integers(1, 40)), max_size=12)),
    st.tuples(st.just("take"), st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.just("expire")),
), max_size=30)


def _queued_ues(q, svc):
    return sum(r.n_ues for r in q._lanes[svc])


class TestAdmissionQueueProperties:
    """Random ``offer``/``take``/``requeue``/``expire`` sequences."""

    @settings(max_examples=150, deadline=None)
    @given(max_depth=st.integers(1, 6), ops=_QUEUE_OPS)
    def test_shed_policy_and_conservation(self, max_depth, ops):
        q = AdmissionQueue(cell=0, max_depth=max_depth, max_age_s=1.0)
        now = 0.0
        in_flight = []
        taken = {svc: 0 for svc in SHED_ORDER}
        requeued = {svc: 0 for svc in SHED_ORDER}
        for rid, (kind, *args) in enumerate(ops):
            if kind == "offer":
                svc, n_ues, dt = args
                depth_before = q.depth()
                urllc_before = q.stats.shed_depth.get(ServiceClass.URLLC, 0)
                q.offer(_req(rid, svc, t=now, n_ues=n_ues))
                now += dt
                assert q.depth() <= max(max_depth, depth_before)
                if q.stats.shed_depth.get(ServiceClass.URLLC, 0) > urllc_before:
                    assert not q._lanes[ServiceClass.MMTC]
                    assert not q._lanes[ServiceClass.EMBB]
            elif kind == "take":
                for r in q.take(args[0]):
                    taken[r.service] += r.n_ues
                    in_flight.append(r)
            elif kind == "requeue":
                back, in_flight = in_flight[:args[0]], in_flight[args[0]:]
                for r in back:
                    requeued[r.service] += r.n_ues
                q.requeue(back)
            else:
                q.expire(now)
            for svc in SHED_ORDER:
                assert q.stats.offered.get(svc, 0) == (
                    q.stats.shed_depth.get(svc, 0) + q.stats.shed_age.get(svc, 0)
                    + taken[svc] - requeued[svc] + _queued_ues(q, svc)), svc

    @settings(max_examples=150, deadline=None)
    @given(max_depth=st.integers(1, 6), ops=_BATCH_OPS)
    def test_batch_offer_equals_sequential_offers(self, max_depth, ops):
        """``offer_many`` (one tick's arrivals for a cell) leaves lanes,
        ``QueueStats`` and the shed counters exactly as one ``offer`` per
        request, with the same verdicts, across takes, requeues and
        age expiry."""
        queues, registries = {}, {}
        for mode in ("batch", "sequential"):
            telemetry = Telemetry.recording()
            with telemetry.install():
                q = AdmissionQueue(cell=3, max_depth=max_depth, max_age_s=1.0)
                verdicts = []
                now, rid = 0.0, 0
                for kind, *args in ops:
                    if kind == "offer":
                        batch = [_req(rid + i, svc, t=now, cell=3, n_ues=n)
                                 for i, (svc, n) in enumerate(args[0])]
                        rid += len(batch)
                        if mode == "batch":
                            q.offer_many(batch, verdicts)
                        else:
                            verdicts.extend(q.offer(r) for r in batch)
                        now += 0.3
                    elif kind == "take":
                        q.requeue(q.take(args[0])[:args[1]])
                    else:
                        q.expire(now)
            queues[mode] = (q, verdicts)
            registries[mode] = telemetry.metrics.snapshot()["counters"]
        (bq, bv), (sq, sv) = queues["batch"], queues["sequential"]
        assert bv == sv
        assert bq._lanes == sq._lanes
        assert bq.stats == sq.stats
        for table in ("offered", "shed_depth", "shed_age"):
            assert list(getattr(bq.stats, table)) == list(getattr(sq.stats, table))
        assert registries["batch"] == registries["sequential"]
        shed_counted = sum(v for k, v in registries["batch"].items()
                           if k.startswith("serve.queue.shed"))
        assert shed_counted == sum(bq.stats.shed_ues(svc) for svc in SHED_ORDER)


# ---------------------------------------------------------------------------
# Overload state machine
# ---------------------------------------------------------------------------


class TestOverloadMachine:
    def test_escalation_is_immediate(self):
        m = OverloadMachine(0, OverloadConfig())
        assert m.observe(0.1) == NORMAL
        assert m.observe(0.6) == DEGRADED
        assert m.observe(0.9) == SHEDDING
        assert m.allowed_rungs() == RRA_FALLBACK[2:]

    def test_rung_floor_follows_state(self):
        m = OverloadMachine(0, OverloadConfig())
        assert m.allowed_rungs() == RRA_FALLBACK
        m.observe(0.7)
        assert m.allowed_rungs() == RRA_FALLBACK[1:]

    def test_deescalation_needs_sustained_calm(self):
        cfg = OverloadConfig(degrade_at=0.5, shed_at=0.85,
                             hysteresis=0.15, recover_ticks=3)
        m = OverloadMachine(0, cfg)
        m.observe(0.9)
        assert m.state == SHEDDING
        # above the exit level: no recovery credit
        assert m.observe(0.8) == SHEDDING
        # two calm ticks are not enough
        assert m.observe(0.5) == SHEDDING
        assert m.observe(0.5) == SHEDDING
        # a spike resets the dwell counter
        assert m.observe(0.8) == SHEDDING
        assert m.observe(0.5) == SHEDDING
        assert m.observe(0.5) == SHEDDING
        # third consecutive calm tick steps down exactly one level
        assert m.observe(0.5) == DEGRADED

    def test_hysteresis_prevents_flapping_at_boundary(self):
        cfg = OverloadConfig(degrade_at=0.5, shed_at=0.85,
                             hysteresis=0.15, recover_ticks=1)
        m = OverloadMachine(0, cfg)
        m.observe(0.55)
        assert m.state == DEGRADED
        # hovering in [exit, enter) neither escalates nor recovers
        for p in (0.45, 0.4, 0.36, 0.49):
            assert m.observe(p) == DEGRADED
        assert m.observe(0.3) == NORMAL

    def test_breaker_open_forces_terminal_state_and_recovery_path(self):
        clock = [0.0]
        br = CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                            clock=lambda: clock[0])
        m = OverloadMachine(0, OverloadConfig(), breaker=br)
        br.record_failure()
        assert m.observe(0.0) == BREAKER_OPEN
        assert m.allowed_rungs() == RRA_FALLBACK[2:]
        # cooldown elapses -> breaker half-open -> machine re-enters the
        # load-driven ladder at SHEDDING and walks down
        clock[0] = 6.0
        assert m.observe(0.0) == SHEDDING
        for _ in range(OverloadConfig().recover_ticks):
            m.observe(0.0)
        assert m.state == DEGRADED

    def test_transitions_are_recorded_with_time(self):
        m = OverloadMachine(3, OverloadConfig())
        m.observe(0.9, now_s=1.5)
        assert m.transitions == [(NORMAL, SHEDDING, 0.9, 1.5)]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            OverloadConfig(degrade_at=0.9, shed_at=0.8)
        with pytest.raises(ConfigurationError):
            OverloadConfig(hysteresis=0.6)
        with pytest.raises(ConfigurationError):
            OverloadConfig(recover_ticks=0)


# ---------------------------------------------------------------------------
# Arrival process
# ---------------------------------------------------------------------------


class TestArrivals:
    def test_deterministic_given_seed(self):
        cfg = ArrivalConfig(base_rate_hz=4.0,
                            mmpp=MMPPConfig(idle_rate_hz=2.0, burst_rate_hz=20.0))
        a = ArrivalProcess(3, 5.0, cfg, seed=11)
        b = ArrivalProcess(3, 5.0, cfg, seed=11)
        assert a.events == b.events
        c = ArrivalProcess(3, 5.0, cfg, seed=12)
        assert a.events != c.events

    def test_windows_partition_the_stream(self):
        proc = ArrivalProcess(2, 4.0, ArrivalConfig(base_rate_hz=6.0), seed=3)
        seen = []
        t = 0.0
        while t < 4.0:
            seen.extend(proc.window(t, t + 0.25))
            t += 0.25
        assert seen == proc.events

    def test_class_split_conserves_ues_and_orders_events(self):
        proc = ArrivalProcess(2, 6.0, ArrivalConfig(base_rate_hz=8.0), seed=5)
        assert proc.total_ues == sum(e.n_ues for e in proc.events)
        times = [e.time_s for e in proc.events]
        assert times == sorted(times)
        assert all(e.n_ues >= 1 for e in proc.events)
        assert all(0 <= e.cell < 2 for e in proc.events)

    def test_handover_storms_land_on_neighbor_cell(self):
        cfg = ArrivalConfig(
            base_rate_hz=1.0,
            handover=GilbertElliottConfig(p_good_to_bad=0.5, p_bad_to_good=0.5),
            storm_ues=40)
        proc = ArrivalProcess(3, 10.0, cfg, seed=2)
        storms = [e for e in proc.events if e.kind == "handover"]
        assert storms, "expected at least one handover storm at these rates"
        by_time: dict = {}
        for e in storms:
            by_time.setdefault((e.time_s, e.cell), 0)
            by_time[(e.time_s, e.cell)] += e.n_ues
        # each storm dumps exactly storm_ues sessions onto one cell
        assert all(n == 40 for n in by_time.values())

    def test_burst_events_are_tagged(self):
        cfg = ArrivalConfig(base_rate_hz=1.0,
                            mmpp=MMPPConfig(idle_rate_hz=1.0, burst_rate_hz=50.0,
                                            mean_idle_s=1.0, mean_burst_s=1.0))
        proc = ArrivalProcess(1, 8.0, cfg, seed=4)
        kinds = {e.kind for e in proc.events}
        assert "burst" in kinds and "poisson" in kinds


# ---------------------------------------------------------------------------
# Shard: build/solve/absorb roundtrip
# ---------------------------------------------------------------------------


class TestShard:
    def _loaded_shard(self, **kw):
        shard = SchedulerShard(0, ShardConfig(**kw), seed=9)
        for i, svc in enumerate([ServiceClass.URLLC, ServiceClass.EMBB,
                                 ServiceClass.MMTC]):
            shard.queue.offer(_req(i, svc, t=0.0))
        return shard

    def test_roundtrip_serves_requests_and_records_latency(self):
        shard = self._loaded_shard()
        task = shard.build_task(now_s=0.3, frame=0)
        assert task is not None
        assert tuple(task["rungs"]) == RRA_FALLBACK
        out = shard.absorb(solve_shard_task(task), now_s=0.3)
        assert not out.dropped
        assert out.rung in RRA_FALLBACK
        # NORMAL take is 2: URLLC + eMBB served, latency is sim delay
        assert shard.total_served_ues() == 20
        slots = shard.latency_series.to_dict()["slots"]
        assert list(slots) == ["0"] and slots["0"]["count"] == 2
        assert slots["0"]["min"] == slots["0"]["max"] == pytest.approx(0.3)

    def test_idle_tick_builds_no_task(self):
        shard = SchedulerShard(0, ShardConfig(), seed=9)
        assert shard.build_task(now_s=0.1, frame=0) is None

    def test_build_without_absorb_is_rejected(self):
        shard = self._loaded_shard()
        shard.build_task(now_s=0.1, frame=0)
        with pytest.raises(ConfigurationError):
            shard.build_task(now_s=0.2, frame=1)

    def test_shedding_state_boosts_drain_take(self):
        shard = self._loaded_shard(shed_requests_per_frame=3)
        shard.overload.observe(0.95)  # force SHEDDING
        task = shard.build_task(now_s=0.1, frame=0)
        assert tuple(task["rungs"]) == RRA_FALLBACK[2:]
        assert task["problem"].n_users == 3

    @pytest.mark.parametrize("policy", [
        {},
        # the Scheduler's policy: retries, the validator, and a chaos
        # schedule seeded with its salt (this one drops the frame)
        {"attempts": 2, "validate": True,
         "chaos": FaultSpec(exception_rate=0.6, nan_rate=0.4),
         "chaos_seed": derive_seed(9, 0, "qos.chaos")},
    ], ids=["shard", "scheduler"])
    def test_solve_is_a_pure_function_of_the_task(self, policy):
        shard = self._loaded_shard()
        task = {**shard.build_task(now_s=0.1, frame=0), **policy}
        outs = [solve_shard_task(task), solve_shard_task(task),
                solve_shard_task(pickle.loads(pickle.dumps(task)))]
        for out in outs:
            out.pop("solver_time_s"), out.pop("rung_times")
        assert outs[0] == outs[1] == outs[2]
        assert (outs[0]["chaos_injections"] > 0) == bool(policy)

    def test_primary_failure_feeds_breaker(self):
        shard = SchedulerShard(0, ShardConfig(breaker_failure_threshold=2),
                               seed=9)
        outcome = {
            "cell": 0, "frame": 0, "dropped": False, "rung": "greedy",
            "degraded": True, "qos_ok": True, "total_rate": 1.0,
            "solver_time_s": 0.0, "primary_failed": True,
            "per_class_satisfaction": {}, "chaos_injections": 0,
        }
        for _ in range(2):
            shard._in_flight = []
            shard.absorb(dict(outcome), now_s=0.1)
        assert shard.breaker.state == CircuitBreaker.OPEN
        assert shard.observe_pressure() == BREAKER_OPEN


# ---------------------------------------------------------------------------
# Service: smoke soak, determinism, chaos acceptance
# ---------------------------------------------------------------------------

_SMOKE_ARRIVALS = ArrivalConfig(
    base_rate_hz=2.0,
    batch_ues=15,
    mmpp=MMPPConfig(idle_rate_hz=2.0, burst_rate_hz=20.0,
                    mean_idle_s=2.0, mean_burst_s=1.0),
    handover=GilbertElliottConfig(p_good_to_bad=0.2, p_bad_to_good=0.6),
    storm_ues=40,
)


def _smoke_config(n_cells=2, seed=7):
    return ServeConfig(n_cells=n_cells, seed=seed, tick_s=0.1,
                       arrivals=_SMOKE_ARRIVALS)


class TestQoSService:
    def test_smoke_soak_accounting_and_policy(self):
        svc = QoSService(_smoke_config())
        report = svc.run(6.0)
        assert report.drained
        # conservation per class: every offered UE is served or visibly shed
        for key in ("URLLC", "eMBB", "mMTC"):
            assert (report.offered_ues[key]
                    == report.served_ues[key] + report.shed_ues[key]), key
        # QoS-class shedding policy: URLLC never sheds while best-effort does
        assert report.shed_rate["URLLC"] == 0.0
        assert report.total_served_ues > 0
        assert report.throughput_ues_per_s > 0
        assert report.frames > 0
        # the overload machinery actually engaged under the bursts
        assert report.transitions
        assert set(report.rung_counts) <= set(RRA_FALLBACK)

    def test_health_and_liveness_snapshots(self):
        svc = QoSService(_smoke_config())
        h0 = svc.health()
        assert h0["live"] and not h0["running"]
        assert set(h0["states"]) == {NORMAL, DEGRADED, SHEDDING, BREAKER_OPEN}
        svc.run(2.0)
        h1 = svc.health()
        assert h1["frames"] > 0
        assert len(h1["shards"]) == 2
        for snap in h1["shards"]:
            assert {"cell", "state", "breaker", "depth", "oldest_age_s",
                    "served_ues"} <= set(snap)

    def test_reports_identical_across_executor_backends(self):
        cfg = _smoke_config(n_cells=2, seed=13)
        base = QoSService(cfg).run(3.0).to_dict()
        for executor in (SerialExecutor(), ThreadExecutor(max_workers=2),
                         ProcessExecutor(max_workers=2)):
            with executor:
                report = QoSService(cfg, executor=executor).run(3.0)
            got = report.to_dict()
            # wall-clock-free: every field must match bit-for-bit
            assert got == base, executor.backend

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_reports_identical_across_slice_counts(self, backend):
        """A tick's frames are split into one slice per worker, and each
        slice batches its root LPs (12 busy cells: the one-slice run
        stacks them, five slices of two or three frames do not) — the
        report must not depend on how the frames were sliced."""
        cfg = ServeConfig(n_cells=12, seed=5, tick_s=0.1,
                          arrivals=ArrivalConfig(base_rate_hz=8.0, batch_ues=15))
        telemetry = Telemetry.recording()
        with telemetry.install():
            base = QoSService(cfg).run(2.0).to_dict()
        assert any(r.name == "qos.rra.root_batch" for r in telemetry.tracer.records)
        for workers in (1, 2, 5):
            executor = (SerialExecutor() if backend == "serial"
                        else make_executor(backend, max_workers=workers))
            with executor:
                got = QoSService(cfg, executor=executor).run(2.0).to_dict()
            assert got == base, (backend, workers)
            if backend == "serial":
                break

    def test_tick_span_records_slices(self):
        cfg = ServeConfig(n_cells=5, seed=5, tick_s=0.1, arrivals=_SMOKE_ARRIVALS)
        telemetry = Telemetry.recording()
        with telemetry.install(), ThreadExecutor(max_workers=2) as executor:
            QoSService(cfg, executor=executor).run(1.0)
        ticks = [r for r in telemetry.tracer.records if r.name == "serve.tick"]
        assert ticks
        for tick in ticks:
            assert tick.attrs["slices"] == min(2, tick.attrs["frames"])

    def test_run_rejects_bad_duration(self):
        with pytest.raises(ConfigurationError):
            QoSService(_smoke_config()).run(0.0)


class TestChaosSoak:
    """The PR's acceptance scenario: seeded chaos + 10x MMPP burst."""

    BURST = ArrivalConfig(
        base_rate_hz=2.0,
        batch_ues=15,
        mmpp=MMPPConfig(idle_rate_hz=2.0, burst_rate_hz=20.0,  # the 10x burst
                        mean_idle_s=2.5, mean_burst_s=1.2),
    )
    BASELINE = ArrivalConfig(base_rate_hz=2.0, batch_ues=15)
    CHAOS = FaultSpec(exception_rate=0.08, nan_rate=0.04)

    def _run(self, arrivals, chaos, telemetry=None):
        # tight queue bounds so the 10x burst genuinely overflows them
        cfg = ServeConfig(n_cells=3, seed=21, tick_s=0.1, arrivals=arrivals,
                          shard=ShardConfig(max_depth=20, max_age_s=2.0))
        svc = QoSService(cfg)
        if telemetry is None:
            return svc.run(8.0)
        with telemetry.install():
            return svc.run(8.0, chaos=chaos)

    def test_sheds_only_by_class_policy_and_recovers(self):
        telemetry = Telemetry.recording()
        baseline = self._run(self.BASELINE, None)
        report = self._run(self.BURST, self.CHAOS, telemetry)

        # chaos really fired and bursts really overloaded the fleet
        assert report.chaos_injections > 0
        assert report.transitions

        # QoS-class policy under a 10x burst + injected faults:
        # URLLC never sheds; the loss lands on best-effort classes
        assert report.shed_rate["URLLC"] == 0.0
        assert report.shed_ues["mMTC"] + report.shed_ues["eMBB"] > 0

        # every degradation transition is visible in the obs output
        events = [r for r in telemetry.tracer.records
                  if r.name == "serve.overload.transition"]
        assert len(events) == len(report.transitions)
        counted = telemetry.metrics.counters_matching(
            "serve.overload.transitions")
        assert sum(counted.values()) == len(report.transitions)

        # p99 sim latency recovers to within 2x baseline after the burst:
        # replay the transition log to find the windows where the whole
        # fleet is back to NORMAL (after having hit SHEDDING) and require
        # a recovered window among them
        windows = self._full_recovery_windows(report, n_cells=3)
        assert windows, "fleet never fully recovered to NORMAL after shedding"
        base_p99 = baseline.latency_percentiles()["p99"]
        ceiling = 2.0 * max(base_p99, report.tick_s)
        recovered = [w for w in windows
                     if report.latency_percentiles(*w)["p99"] <= ceiling]
        assert recovered, (
            f"no all-NORMAL window recovered below {ceiling:.3f}s p99: "
            f"{[(w, report.latency_percentiles(*w)['p99']) for w in windows]}")

    @staticmethod
    def _full_recovery_windows(report, n_cells):
        """(t0, t1) spans where every cell is NORMAL, after first SHEDDING."""
        state = {c: NORMAL for c in range(n_cells)}
        first_shed = None
        windows = []
        trs = report.transitions
        for i, tr in enumerate(trs):
            state[tr["cell"]] = tr["to_state"]
            if first_shed is None and tr["to_state"] == SHEDDING:
                first_shed = tr["time_s"]
            if first_shed is not None and all(
                    s == NORMAL for s in state.values()):
                t1 = (trs[i + 1]["time_s"] if i + 1 < len(trs)
                      else float("inf"))
                windows.append((tr["time_s"], t1))
        return windows

    def test_chaos_soak_is_deterministic(self):
        a = self._run(self.BURST, self.CHAOS, Telemetry.recording())
        b = self._run(self.BURST, self.CHAOS, Telemetry.recording())
        assert a.to_dict() == b.to_dict()
        assert a.latency_series.to_dict() == b.latency_series.to_dict()
