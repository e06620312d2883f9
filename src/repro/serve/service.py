"""The QoS serving loop: arrivals -> admission -> sharded frame solves.

:class:`QoSService` drives a fleet of :class:`~repro.serve.shard.SchedulerShard`
objects through simulated time.  Each tick it:

1. routes the tick's arrival events into per-cell admission queues
   (QoS-aware shedding under pressure, see :mod:`repro.serve.queueing`);
2. expires stale requests and feeds every shard's overload machine its
   backpressure (:mod:`repro.serve.overload`);
3. builds one picklable frame task per non-idle shard and fans them out
   through a :class:`repro.parallel.Executor` via
   :func:`repro.parallel.map_slices` — one
   :func:`repro.qos.rra.solve_frames` task per worker, each a contiguous
   slice of the tick's frames.  The per-task seeds derive from
   ``(seed, frame, cell)`` and a frame's outcome does not depend on its
   slice, so serial/thread/process backends produce bit-identical
   reports;
4. absorbs the outcomes serially, feeding breakers and latency records.

Time is **simulated**: the loop advances a fixed ``tick_s`` per
iteration and every latency the report asserts on is queueing delay in
simulated seconds (enqueue tick -> service tick).  Real solver wall
time is recorded as telemetry only — it never steers control flow, so
the service is deterministic and DT002-clean by construction.

Shutdown is graceful: after the arrival horizon the loop keeps ticking
with no new admissions until every queue drains or a drain budget
(:class:`repro.resilience.Budget` on the *simulated* clock) expires;
whatever the budget strands is shed visibly, never dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs import (
    DEFAULT_SERVE_SLOS,
    LATENCY_BUCKETS,
    SLO,
    HistogramSeries,
    SLOSet,
    get_metrics,
    get_tracer,
)
from repro.parallel import Executor, map_slices
from repro.qos.channel import ChannelConfig
from repro.qos.rra import solve_frames
from repro.qos.traffic import ServiceClass
from repro.resilience import Budget, FaultSpec
from repro.serve.arrivals import ArrivalConfig, ArrivalProcess
from repro.serve.overload import NORMAL, STATES
from repro.serve.queueing import SERVE_ORDER, FrameRequest
# solve_shard_task (= qos.rra.solve_frame) is what solve_frames runs on
# each task; the name stays bound here for the serving benchmark's
# outside-in hooks (benchmarks/e2e/hooks.py), which rebind import sites
from repro.serve.shard import SchedulerShard, ShardConfig, solve_shard_task  # noqa: F401

__all__ = ["ServeConfig", "ServeReport", "QoSService"]


@dataclass(frozen=True)
class ServeConfig:
    """Service-level knobs: fleet size, tick length, and subsystem configs."""

    n_cells: int = 4
    seed: int = 0
    tick_s: float = 0.1
    drain_grace_s: float = 10.0
    shard: ShardConfig = field(default_factory=ShardConfig)
    arrivals: ArrivalConfig = field(default_factory=ArrivalConfig)
    channel: Optional[ChannelConfig] = None
    #: declarative per-class objectives evaluated every tick
    slos: Tuple[SLO, ...] = DEFAULT_SERVE_SLOS
    #: feed the SLO burn flag into the overload machines (the
    #: telemetry-v2 escalation input); off = monitors observe only
    slo_escalation: bool = True

    def __post_init__(self):
        if self.n_cells < 1:
            raise ConfigurationError("n_cells must be >= 1")
        if self.tick_s <= 0:
            raise ConfigurationError("tick_s must be positive")
        if self.drain_grace_s < 0:
            raise ConfigurationError("drain_grace_s must be nonnegative")


@dataclass
class ServeReport:
    """What one service run produced, summarized for gates and tests.

    Latencies are simulated queueing delays (seconds); ``latencies``
    keeps the raw ``(service time, delay)`` samples so tests can compute
    windowed percentiles (e.g. p99 recovery after a burst) without the
    service prescribing the window.
    """

    duration_s: float
    tick_s: float
    n_cells: int
    total_offered_ues: int
    total_served_ues: int
    offered_ues: Dict[str, int]
    served_ues: Dict[str, int]
    shed_ues: Dict[str, int]
    shed_rate: Dict[str, float]
    throughput_ues_per_s: float
    frames: int
    frames_dropped: int
    #: frames answered per ladder rung, keyed by rung *name* — open-ended
    #: so the stats widen automatically as ladders gain rungs (e.g. the
    #: first-order fast path); the overload rung *floor* indexes
    #: :data:`~repro.qos.rra.RRA_FALLBACK` and is unaffected
    rung_counts: Dict[str, int]
    transitions: List[dict]
    chaos_injections: int
    drained: bool
    latencies: List[Tuple[float, float]] = field(repr=False, default_factory=list)
    #: bounded-memory latency record: merged per-shard HistogramSeries,
    #: O(slots x buckets) regardless of how many UEs were served.  The
    #: raw ``latencies`` list is populated only when
    #: ``ShardConfig.retain_latency_samples`` is on.
    latency_series: Optional[HistogramSeries] = field(repr=False, default=None)

    def latency_percentiles(self, t0: float = 0.0,
                            t1: float = float("inf")) -> Dict[str, float]:
        """p50/p95/p99 simulated latency over services in ``[t0, t1)``.

        Exact sample percentiles when raw samples were retained;
        otherwise bucket-estimated from the windowed histogram series
        (within one bucket width — the telemetry-v2 default).
        """
        window = [lat for t, lat in self.latencies if t0 <= t < t1]
        if window:
            arr = np.asarray(window, dtype=np.float64)
            p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
            return {"p50": float(p50), "p95": float(p95), "p99": float(p99),
                    "n": float(arr.size)}
        if self.latency_series is not None:
            return self.latency_series.percentiles(t0, t1)
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "n": 0.0}

    def to_dict(self) -> dict:
        """JSON-ready summary (raw latency samples reduced to percentiles)."""
        out = {
            "duration_s": self.duration_s,
            "tick_s": self.tick_s,
            "n_cells": self.n_cells,
            "total_offered_ues": self.total_offered_ues,
            "total_served_ues": self.total_served_ues,
            "offered_ues": dict(self.offered_ues),
            "served_ues": dict(self.served_ues),
            "shed_ues": dict(self.shed_ues),
            "shed_rate": dict(self.shed_rate),
            "throughput_ues_per_s": self.throughput_ues_per_s,
            "frames": self.frames,
            "frames_dropped": self.frames_dropped,
            "rung_counts": dict(self.rung_counts),
            "transitions": len(self.transitions),
            "chaos_injections": self.chaos_injections,
            "drained": self.drained,
        }
        out["latency_s"] = self.latency_percentiles()
        return out


class QoSService:
    """Long-running sharded QoS scheduler with admission control.

    ``executor`` may be any :class:`repro.parallel.Executor`; ``None``
    runs frames serially.  Reports are identical across backends — the
    determinism contract every ``repro.parallel`` consumer shares.
    """

    def __init__(self, config: ServeConfig | None = None,
                 executor: Optional[Executor] = None):
        self.config = config or ServeConfig()
        self.executor = executor
        cfg = self.config
        self.shards = [
            SchedulerShard(cell, cfg.shard, seed=cfg.seed,
                           channel=cfg.channel)
            for cell in range(cfg.n_cells)
        ]
        self._now = 0.0
        self._frame = 0
        self._next_request_id = 0
        self._running = False
        self._drained = True
        # SLO monitors live on the coordinator, on the simulated clock;
        # shards route per-class latency/served into them as outcomes
        # are absorbed (serially, in cell order — deterministic)
        self.slos = SLOSet(cfg.slos, clock=lambda: self._now)
        for shard in self.shards:
            shard.slo = self.slos
        self._shed_seen: List[Dict[ServiceClass, int]] = [
            {svc: 0 for svc in SERVE_ORDER} for _ in self.shards]
        self._slo_burning = False
        self._on_tick = None

    @property
    def now_s(self) -> float:
        """The service's simulated clock (seconds since start)."""
        return self._now

    # ---- health --------------------------------------------------------------
    def liveness(self) -> bool:
        """Cheap liveness probe: the control plane can still serve.

        False only when *every* shard's breaker-open state has taken the
        guaranteed rung away — which cannot happen by construction, so
        this reports whether any shard can currently accept work.
        """
        return any(s.queue.depth() < s.config.max_depth for s in self.shards)

    def health(self) -> dict:
        """Structured health snapshot: per-shard state plus fleet rollup."""
        snaps = [s.snapshot(self._now) for s in self.shards]
        by_state = {state: 0 for state in STATES}
        for s in snaps:
            by_state[s["state"]] += 1
        return {
            "time_s": self._now,
            "running": self._running,
            "live": self.liveness(),
            "healthy": (by_state[NORMAL] * 2 >= len(snaps)
                        and not self._slo_burning),
            "states": by_state,
            "depth": sum(s["depth"] for s in snaps),
            "frames": self._frame,
            "shards": snaps,
            "slo": {
                "status": self.slos.snapshot(),
                "burning_classes": self.slos.burning_classes(),
                "any_burning": self._slo_burning,
            },
        }

    # ---- the loop ------------------------------------------------------------
    def _offer(self, events) -> None:
        metrics = get_metrics()
        for ev in events:
            req = FrameRequest(
                request_id=self._next_request_id, cell=ev.cell,
                service=ev.service, n_ues=ev.n_ues,
                enqueued_at_s=ev.time_s, kind=ev.kind)
            self._next_request_id += 1
            self.shards[ev.cell].queue.offer(req)
            metrics.counter("serve.arrivals", kind=ev.kind).inc(ev.n_ues)

    def _tick(self, events, chaos: Optional[FaultSpec]) -> None:
        """One service tick: admit, expire, observe, solve, absorb,
        then evaluate SLOs (whose burn flag steers *next* tick's
        overload observation — a one-tick lag that keeps the loop
        deterministic across executor backends)."""
        self._now += self.config.tick_s
        now = self._now
        self._offer(events)
        slo_burning = self._slo_burning and self.config.slo_escalation
        for shard in self.shards:
            shard.advance_clock(now)
            shard.queue.expire(now)
            shard.observe_pressure(slo_burning=slo_burning)
        tasks = []
        owners = []
        for shard in self.shards:
            task = shard.build_task(now, self._frame, chaos)
            if task is not None:
                tasks.append(task)
                owners.append(shard)
        if tasks:
            workers = 1 if self.executor is None else self.executor.max_workers
            with get_tracer().span("serve.tick", frame=self._frame,
                                   time_s=round(now, 4), frames=len(tasks),
                                   slices=min(workers, len(tasks))):
                outcomes = map_slices(solve_frames, tasks,
                                      executor=self.executor,
                                      label="serve.frames")
            for shard, outcome in zip(owners, outcomes):
                shard.absorb(outcome, now)
        self._record_sheds()
        self.slos.evaluate()
        self._slo_burning = self.slos.any_burning
        self._frame += 1
        metrics = get_metrics()
        metrics.counter("serve.ticks").inc()
        metrics.gauge("serve.slo_burning").set(1.0 if self._slo_burning else 0.0)
        if self._on_tick is not None:
            self._on_tick(self)

    def _record_sheds(self) -> None:
        """Feed this tick's shed deltas (offer-shed + age-expiry, from
        the queue stats) into the shed-rate SLO monitors."""
        for seen, shard in zip(self._shed_seen, self.shards):
            stats = shard.queue.stats
            for svc in SERVE_ORDER:
                total = stats.shed_ues(svc)
                delta = total - seen[svc]
                if delta > 0:
                    seen[svc] = total
                    self.slos.record_shed(svc.value, delta)

    def run(self, duration_s: float,
            chaos: Optional[FaultSpec] = None,
            on_tick=None) -> ServeReport:
        """Serve ``duration_s`` simulated seconds of arrivals, then drain.

        ``chaos`` (a :class:`repro.resilience.FaultSpec`) is threaded
        into every frame task; each frame's :class:`ChaosMonkey` seeds
        from ``(seed, frame, cell)``, so fault schedules are as
        deterministic as the traffic.

        ``on_tick(service)`` — if given — is called after every tick
        (including drain ticks): the hook :func:`repro.obs.watch` uses
        to render the live ops view without touching the loop.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        cfg = self.config
        arrivals = ArrivalProcess(cfg.n_cells, duration_s, cfg.arrivals,
                                  seed=cfg.seed)
        self._running = True
        self._on_tick = on_tick
        try:
            n_ticks = int(math.ceil(duration_s / cfg.tick_s))
            for _ in range(n_ticks):
                t0, t1 = self._now, self._now + cfg.tick_s
                self._tick(arrivals.window(t0, t1), chaos)
            self._drained = self._drain(chaos)
        finally:
            self._running = False
            self._on_tick = None
        return self._report(duration_s, arrivals)

    def _drain(self, chaos: Optional[FaultSpec]) -> bool:
        """Graceful shutdown: tick without arrivals until queues empty.

        The grace period is a :class:`Budget` on the *simulated* clock,
        so drain behavior is deterministic; queued work the grace period
        strands is shed through the normal expiry path (visible in the
        shed counters), never silently discarded.
        """
        budget = Budget(wall_clock_s=max(self.config.drain_grace_s,
                                         self.config.tick_s * 0.5),
                        clock=lambda: self._now)
        while any(s.queue.depth() > 0 for s in self.shards):
            if budget.expired:
                stranded = [s for s in self.shards if s.queue.depth() > 0]
                for shard in stranded:
                    # force the age path so stranded work lands in shed stats
                    shard.queue.expire(self._now + shard.config.max_age_s
                                       + self.config.tick_s)
                get_tracer().event("serve.drain_expired",
                                   stranded_shards=len(stranded))
                return False
            self._tick([], chaos)
        return True

    # ---- reporting -----------------------------------------------------------
    def _report(self, duration_s: float,
                arrivals: ArrivalProcess) -> ServeReport:
        offered: Dict[str, int] = {}
        served: Dict[str, int] = {}
        shed: Dict[str, int] = {}
        rungs: Dict[str, int] = {}
        transitions: List[dict] = []
        latencies: List[Tuple[float, float]] = []
        frames = frames_dropped = injections = 0
        for shard in self.shards:
            stats = shard.queue.stats
            for svc in SERVE_ORDER:
                key = svc.value
                offered[key] = offered.get(key, 0) + stats.offered.get(svc, 0)
                shed[key] = shed.get(key, 0) + stats.shed_ues(svc)
                served[key] = served.get(key, 0) + shard.served_ues.get(svc, 0)
            for rung, n in shard.rung_counts.items():
                rungs[rung] = rungs.get(rung, 0) + n
            transitions.extend(
                {"cell": shard.cell, "from_state": f, "to_state": t,
                 "pressure": p, "time_s": ts}
                for f, t, p, ts in shard.overload.transitions)
            latencies.extend(shard.latencies_s)
            frames += shard.frames
            frames_dropped += shard.frames_dropped
            injections += shard.chaos_injections_total
        transitions.sort(key=lambda d: (d["time_s"], d["cell"]))
        latencies.sort()
        series = HistogramSeries(slot_s=self.config.shard.latency_slot_s,
                                 buckets=LATENCY_BUCKETS)
        for shard in self.shards:
            series.merge(shard.latency_series)
        shed_rate = {}
        for key, n in offered.items():
            shed_rate[key] = (shed.get(key, 0) / n) if n else 0.0
        total_served = sum(served.values())
        return ServeReport(
            duration_s=duration_s,
            tick_s=self.config.tick_s,
            n_cells=self.config.n_cells,
            total_offered_ues=sum(offered.values()),
            total_served_ues=total_served,
            offered_ues=offered,
            served_ues=served,
            shed_ues=shed,
            shed_rate=shed_rate,
            throughput_ues_per_s=total_served / duration_s,  # numlint: disable=NL002 -- run() rejects nonpositive duration_s before reporting
            frames=frames,
            frames_dropped=frames_dropped,
            rung_counts=rungs,
            transitions=transitions,
            chaos_injections=injections,
            drained=self._drained,
            latencies=latencies,
            latency_series=series,
        )
