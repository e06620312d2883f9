"""repro.obs.slo — declarative QoS-class SLOs, multi-window burn-rate
monitors, and the serving-layer acceptance scenario: the URLLC burn
alert must lead the overload machine's SHEDDING transition."""

import json
import math

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import (
    DEFAULT_SERVE_SLOS,
    LATENCY_BUCKETS,
    SLO,
    SLOMonitor,
    SLOSet,
    Telemetry,
)
from repro.resilience import FaultSpec
from repro.serve import QoSService, ServeConfig, ShardConfig
from repro.serve.arrivals import ArrivalConfig, MMPPConfig
from repro.serve.overload import DEGRADED, NORMAL, SHEDDING, OverloadMachine

pytestmark = pytest.mark.obs


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = float(t)

    def advance(self, dt: float) -> None:
        self.t += dt

    def __call__(self) -> float:
        return self.t


def _latency_slo(**overrides) -> SLO:
    base = dict(name="lat", service_class="URLLC", kind="latency",
                objective=0.9, threshold_s=0.1, min_events=1,
                fast_burn_threshold=1.5, slow_burn_threshold=1.5)
    base.update(overrides)
    return SLO(**base)


# ---------------------------------------------------------------------------
# SLO declaration
# ---------------------------------------------------------------------------


class TestSLOValidation:
    def test_budget_is_one_minus_objective(self):
        assert _latency_slo(objective=0.99).budget == pytest.approx(0.01)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            _latency_slo(kind="availability")

    @pytest.mark.parametrize("objective", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_objective_outside_unit_interval(self, objective):
        with pytest.raises(ConfigurationError, match="objective"):
            _latency_slo(objective=objective)

    def test_latency_kind_requires_threshold(self):
        with pytest.raises(ConfigurationError, match="threshold_s"):
            _latency_slo(threshold_s=0.0)

    def test_rejects_bad_windows_and_min_events(self):
        with pytest.raises(ConfigurationError, match="windows"):
            _latency_slo(fast_window_s=0.0)
        with pytest.raises(ConfigurationError, match="min_events"):
            _latency_slo(min_events=0)

    def test_default_serve_slos_name_real_service_classes(self):
        # regression guard: ServiceClass values are case-sensitive
        # ("eMBB", not "EMBB") and a typo silently starves the monitor
        from repro.qos.traffic import ServiceClass

        classes = {sc.value for sc in ServiceClass}
        for slo in DEFAULT_SERVE_SLOS:
            assert slo.service_class in classes, slo.name


# ---------------------------------------------------------------------------
# Monitor burn math
# ---------------------------------------------------------------------------


class TestSLOMonitor:
    def test_burn_rate_is_bad_fraction_over_budget(self):
        clk = FakeClock()
        mon = SLOMonitor(_latency_slo(), clock=clk)   # budget 0.1
        for _ in range(8):
            mon.record_latency(0.05)                  # good
        for _ in range(2):
            mon.record_latency(0.5)                   # bad
        status = mon.evaluate()
        assert status.fast_burn == pytest.approx(2.0)  # 0.2 / 0.1
        assert status.slow_burn == pytest.approx(2.0)
        assert status.burning

    def test_min_events_gates_small_windows(self):
        clk = FakeClock()
        mon = SLOMonitor(_latency_slo(min_events=10), clock=clk)
        for _ in range(5):
            mon.record_latency(9.9)                   # all bad, but few
        status = mon.evaluate()
        assert status.fast_burn > 1.5
        assert not status.burning

    def test_kind_mismatch_raises(self):
        mon = SLOMonitor(_latency_slo(), clock=FakeClock())
        with pytest.raises(ConfigurationError, match="not shed_rate"):
            mon.record_served()
        shed = SLOMonitor(SLO(name="shed", service_class="mMTC",
                              kind="shed_rate", objective=0.85),
                          clock=FakeClock())
        with pytest.raises(ConfigurationError, match="not latency"):
            shed.record_latency(0.1)

    def test_shed_rate_burn(self):
        clk = FakeClock()
        mon = SLOMonitor(SLO(name="shed", service_class="mMTC",
                             kind="shed_rate", objective=0.8, min_events=1),
                         clock=clk)                   # budget 0.2
        mon.record_served(6.0)
        mon.record_shed(4.0)
        status = mon.evaluate()
        assert status.fast_burn == pytest.approx(2.0)  # 0.4 / 0.2

    def test_edge_triggered_burn_and_clear_events(self):
        telemetry = Telemetry.recording()
        clk = FakeClock()
        with telemetry.install():
            mon = SLOMonitor(_latency_slo(), clock=clk)
            mon.record_latency(5.0)
            mon.evaluate()                # False -> True: one burn event
            mon.evaluate()                # still burning: no new event
            clk.advance(61.0)             # both windows drain
            mon.evaluate()                # True -> False: one cleared event
            mon.evaluate()                # stays clear: nothing
        names = [r.name for r in telemetry.tracer.records]
        assert names == ["slo.burn", "slo.burn_cleared"]
        burn = telemetry.tracer.records[0].attrs
        assert burn["service_class"] == "URLLC"
        assert burn["window"] in ("fast", "slow")
        assert burn["time_s"] == pytest.approx(0.0)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["slo.burn{service_class=URLLC,slo=lat}"] == 1.0
        assert counters["slo.burn_cleared{service_class=URLLC,slo=lat}"] == 1.0
        assert mon.burn_count == 1

    def test_fast_window_reacts_before_slow_window_clears(self):
        """The multi-window OR: a burst trips the fast window; once the
        burst ends the fast window forgets first while the slow window
        keeps the budget accounting."""
        clk = FakeClock()
        mon = SLOMonitor(_latency_slo(slow_burn_threshold=100.0), clock=clk)
        for _ in range(10):
            mon.record_latency(5.0)
        assert mon.evaluate().burning          # fast window hot
        clk.advance(11.0)                      # past the 10 s fast window
        status = mon.evaluate()
        assert not status.burning              # fast drained, slow gated
        assert status.slow_events == 10.0      # slow window still remembers
        assert status.budget_remaining == 0.0

    def test_budget_remaining_full_when_idle(self):
        mon = SLOMonitor(_latency_slo(), clock=FakeClock())
        assert mon.evaluate().budget_remaining == 1.0


# ---------------------------------------------------------------------------
# SLOSet routing
# ---------------------------------------------------------------------------


class TestSLOSet:
    def test_routes_by_class_and_kind(self):
        clk = FakeClock()
        slos = SLOSet(DEFAULT_SERVE_SLOS, clock=clk)
        slos.record_latency("URLLC", 9.0)      # only urllc-latency sees it
        slos.record_shed("mMTC", 3.0)          # only mmtc-shed sees it
        slos.record_latency("nosuch", 9.0)     # unknown class: ignored
        statuses = slos.evaluate()
        assert statuses["urllc-latency"].fast_events == 1.0
        assert statuses["embb-latency"].fast_events == 0.0
        assert statuses["mmtc-shed"].fast_events == 3.0
        assert statuses["urllc-shed"].fast_events == 0.0

    def test_burning_classes_and_snapshot(self):
        clk = FakeClock()
        slos = SLOSet([_latency_slo()], clock=clk)
        for _ in range(10):
            slos.record_latency("URLLC", 5.0)
        slos.evaluate()
        assert slos.burning_classes() == ["URLLC"]
        assert slos.any_burning
        snap = slos.snapshot()
        assert set(snap) == {"lat"}
        json.dumps(snap)                       # health()-ready

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigurationError, match="unique"):
            SLOSet([_latency_slo(), _latency_slo()], clock=FakeClock())

    def test_zero_counts_are_not_recorded(self):
        slos = SLOSet(DEFAULT_SERVE_SLOS, clock=FakeClock())
        slos.record_served("mMTC", 0.0)
        slos.record_shed("mMTC", 0.0)
        assert slos.evaluate()["mmtc-shed"].fast_events == 0.0


# ---------------------------------------------------------------------------
# Overload escalation input
# ---------------------------------------------------------------------------


class TestSLOOverloadEscalation:
    def test_burning_escalates_normal_to_degraded(self):
        telemetry = Telemetry.recording()
        with telemetry.install():
            m = OverloadMachine(shard=0)
            assert m.observe(0.1, now_s=1.0) == NORMAL
            assert m.observe(0.1, now_s=2.0, slo_burning=True) == DEGRADED
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["serve.overload.slo_escalations{shard=0}"] == 1.0

    def test_burning_never_forces_shedding(self):
        m = OverloadMachine(shard=0)
        for tick in range(20):
            state = m.observe(0.1, now_s=float(tick), slo_burning=True)
        assert state == DEGRADED   # held, not escalated further

    def test_burning_holds_deescalation(self):
        m = OverloadMachine(shard=0)
        m.observe(0.6, now_s=0.0)              # -> DEGRADED on pressure
        for tick in range(10):                 # calm pressure, but burning
            assert m.observe(0.0, now_s=1.0 + tick,
                             slo_burning=True) == DEGRADED
        # burn clears: recover_ticks calm observations walk it down
        for tick in range(3):
            state = m.observe(0.0, now_s=20.0 + tick)
        assert state == NORMAL


# ---------------------------------------------------------------------------
# Acceptance: the burn alert leads SHEDDING under the seeded chaos burst
# ---------------------------------------------------------------------------


@pytest.mark.serve
class TestSLOChaosAcceptance:
    """ISSUE 8's chaos criterion, on the same seeded 10x MMPP burst as
    ``TestChaosSoak``: a tight URLLC latency SLO must fire a fast-window
    ``slo.burn`` *before* the first SHEDDING transition, the alert must
    be visible in the metrics snapshot and the exported JSONL, and
    telemetry memory must stay O(windows x buckets), not O(events)."""

    BURST = ArrivalConfig(
        base_rate_hz=2.0,
        batch_ues=15,
        mmpp=MMPPConfig(idle_rate_hz=2.0, burst_rate_hz=20.0,
                        mean_idle_s=2.5, mean_burst_s=1.2),
    )
    CHAOS = FaultSpec(exception_rate=0.08, nan_rate=0.04)
    #: one serving tick is URLLC's deadline; page when the 1% budget
    #: burns 3x faster than allowed
    STRICT_URLLC = SLO(name="urllc-latency", service_class="URLLC",
                       kind="latency", objective=0.99, threshold_s=0.1,
                       fast_burn_threshold=3.0, slow_burn_threshold=3.0)

    def _run(self, telemetry):
        slos = tuple(s for s in DEFAULT_SERVE_SLOS
                     if s.name != "urllc-latency") + (self.STRICT_URLLC,)
        cfg = ServeConfig(n_cells=3, seed=21, tick_s=0.1,
                          arrivals=self.BURST,
                          shard=ShardConfig(max_depth=20, max_age_s=2.0),
                          slos=slos)
        svc = QoSService(cfg)
        with telemetry.install():
            report = svc.run(8.0, chaos=self.CHAOS)
        return svc, report

    def test_burn_fires_before_shedding_and_is_visible_everywhere(
            self, tmp_path):
        telemetry = Telemetry.recording()
        svc, report = self._run(telemetry)

        burns = [r for r in telemetry.tracer.records
                 if r.kind == "event" and r.name == "slo.burn"
                 and r.attrs["service_class"] == "URLLC"]
        assert burns, "URLLC latency SLO never fired under the burst"
        assert burns[0].attrs["window"] == "fast"
        first_burn_t = burns[0].attrs["time_s"]

        sheds = [tr["time_s"] for tr in report.transitions
                 if tr["to_state"] == SHEDDING]
        assert sheds, "burst never drove the fleet to SHEDDING"
        # the leading-indicator contract: alert strictly before load loss
        assert first_burn_t < min(sheds), (first_burn_t, min(sheds))

        # the burn escalated NORMAL shards ahead of the pressure threshold
        counters = telemetry.metrics.snapshot()["counters"]
        esc = [v for k, v in counters.items()
               if k.startswith("serve.overload.slo_escalations")]
        assert sum(esc) > 0

        # visibility 1/2: the metrics snapshot carries the burn counter
        key = "slo.burn{service_class=URLLC,slo=urllc-latency}"
        assert counters[key] >= 1.0

        # visibility 2/2: the exported JSONL carries the structured event
        path = tmp_path / "trace.jsonl"
        telemetry.export(path)
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        exported = [rec for rec in lines
                    if rec["kind"] == "event" and rec["name"] == "slo.burn"
                    and rec["attrs"]["service_class"] == "URLLC"]
        assert exported and exported[0]["attrs"]["time_s"] == first_burn_t

        # health() surfaces per-SLO status for the ops view
        health = svc.health()
        assert "urllc-latency" in health["slo"]["status"]
        assert "URLLC" in health["slo"]["burning_classes"]

    def test_soak_telemetry_memory_is_windows_times_buckets(self):
        telemetry = Telemetry.recording()
        svc, report = self._run(telemetry)
        assert report.total_served_ues > 1000          # a real soak
        slot_s = svc.config.shard.latency_slot_s
        max_slots = math.ceil(8.0 / slot_s) + 1
        cells_per_slot = len(LATENCY_BUCKETS) + 1
        for shard in svc.shards:
            assert shard.latency_series.n_slots <= max_slots
            assert (shard.latency_series.memory_cells()
                    <= max_slots * cells_per_slot)
        # the merged report series obeys the same bound yet still
        # answers windowed percentile queries
        assert report.latency_series.memory_cells() <= (
            max_slots * cells_per_slot)
        p = report.latency_percentiles()
        assert p["n"] > 0 and p["p99"] > 0
