"""Per-cell scheduler shards: queue + overload machine + ladder solve.

A :class:`SchedulerShard` owns one cell's admission queue, overload
state machine, and circuit breaker, and turns admitted demand into RRA
frame solves.  The split matters for determinism and parallelism:

* all *stateful* work (queue mutation, breaker feedback, overload
  transitions, channel draws) happens on the coordinator, serially, in
  cell order;
* the *solve* itself is a pure function of a picklable task dict
  (:func:`solve_shard_task`, which is :func:`repro.qos.rra.solve_frame`),
  with the per-frame chaos seed derived from ``(seed, frame, cell)`` via
  :func:`repro.parallel.derive_seed` on the coordinator.

Under that contract the service can fan shard frames out through any
:class:`repro.parallel.Executor` backend and the resulting reports are
bit-identical — the same contract ``qos.Scheduler`` established, lifted
to a sharded, long-running service.

Sessions are *aggregated*: one admitted :class:`FrameRequest` (a batch
of ``n_ues`` same-class sessions) is scheduled as one representative
:class:`~repro.qos.traffic.UserSession`.  A 10^6-UE soak therefore
solves thousands of small MILP/LP frames, not one astronomically large
one — the standard macro-cell abstraction (see docs/SERVING.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs import (
    LATENCY_BUCKETS,
    SECONDS_BUCKETS,
    HistogramSeries,
    RollingCounter,
    RollingHistogram,
    get_metrics,
    span_exemplar,
)
from repro.parallel import derive_seed
from repro.qos.channel import ChannelConfig, ChannelModel
from repro.qos.rra import RRA_FALLBACK, RRAProblem, solve_frame
from repro.qos.traffic import DEFAULT_QOS, QoSRequirement, ServiceClass, UserSession
from repro.resilience import CircuitBreaker, FaultSpec
from repro.serve.overload import OverloadConfig, OverloadMachine
from repro.serve.queueing import AdmissionQueue, FrameRequest

__all__ = ["ShardConfig", "ShardFrameOutcome", "SchedulerShard", "solve_shard_task"]


@dataclass(frozen=True)
class ShardConfig:
    """Static per-shard knobs, shared by every shard of a service.

    ``requests_per_frame`` caps how many queued requests one frame
    schedules in a non-shedding state; ``shed_requests_per_frame`` is
    the take while shedding — normally *larger*, because shedding frames
    run the cheap guaranteed rung only, so the shard can drain its
    backlog several requests at a time (fast recovery is part of the
    shedding policy).  ``rate_floor_scale`` downscales class rate floors
    to the small per-frame grids a shard solves.

    The defaults are calibrated so the exact rung reliably converges in
    tens of milliseconds (2 users x 4 blocks x 1 power level, 60 B&B
    nodes) — a NORMAL-state frame is exact, not aspirational.
    """

    n_blocks: int = 4
    requests_per_frame: int = 2
    shed_requests_per_frame: int = 6
    max_depth: int = 64
    max_age_s: float = 5.0
    max_nodes: int = 60
    frame_budget_s: Optional[float] = None
    rate_floor_scale: float = 0.02
    total_power_mw: float = 1000.0
    power_levels_mw: Tuple[float, ...] = (100.0,)
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 5.0
    #: keep every raw (time, latency) sample on the shard.  Off by
    #: default: long soaks get bounded O(slots x buckets) memory from
    #: the latency HistogramSeries instead; tests and goldens that
    #: assert exact sample lists opt back in.
    retain_latency_samples: bool = False
    #: slot width of the shard's append-only latency series (drives the
    #: resolution of post-hoc windowed percentiles)
    latency_slot_s: float = 0.5

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ConfigurationError("n_blocks must be >= 1")
        if self.requests_per_frame < 1 or self.shed_requests_per_frame < 1:
            raise ConfigurationError("per-frame takes must be >= 1")
        if not 0.0 < self.rate_floor_scale <= 1.0:
            raise ConfigurationError("rate_floor_scale must be in (0, 1]")
        if self.latency_slot_s <= 0:
            raise ConfigurationError("latency_slot_s must be positive")


@dataclass
class ShardFrameOutcome:
    """What one shard frame produced, after :func:`solve_shard_task`."""

    cell: int
    frame: int
    dropped: bool
    rung: str
    degraded: bool
    qos_ok: bool
    total_rate: float
    solver_time_s: float
    primary_failed: bool
    per_class_satisfaction: Dict[str, float] = field(default_factory=dict)
    chaos_injections: int = 0


def _scaled_session(index: int, svc: ServiceClass, scale: float) -> UserSession:
    q = DEFAULT_QOS[svc]
    return UserSession(index, svc, QoSRequirement(
        min_rate_bps=q.min_rate_bps * scale,
        max_latency_ms=q.max_latency_ms,
        reliability=q.reliability,
        priority=q.priority,
    ))


#: the shard frame solve: ``QoSService`` hands each worker a slice of the
#: tick's frame tasks (one per non-idle shard), and
#: :func:`repro.qos.rra.solve_frames` runs this on every one of them
solve_shard_task = solve_frame


class SchedulerShard:
    """One cell's stateful serving context (coordinator side)."""

    def __init__(self, cell: int, config: ShardConfig | None = None,
                 seed: int = 0, channel: ChannelConfig | None = None,
                 clock=None):
        self.cell = int(cell)
        self.config = config or ShardConfig()
        self.seed = int(seed)
        self.queue = AdmissionQueue(cell, max_depth=self.config.max_depth,
                                    max_age_s=self.config.max_age_s)
        # sim-time breaker: the service feeds its simulated clock through
        # ``clock`` so cooldowns are deterministic ticks, not wall time
        self._sim_now = 0.0
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            clock=(clock if clock is not None else lambda: self._sim_now),
            name=f"serve.shard{cell}",
            on_transition=self._on_breaker_transition,
        )
        self.overload = OverloadMachine(cell, self.config.overload,
                                        breaker=self.breaker)
        self._channel = ChannelModel(
            channel or ChannelConfig(n_blocks=self.config.n_blocks),
            rng=np.random.default_rng(
                derive_seed(seed, cell, "serve.channel")))
        self.frames = 0
        self.frames_dropped = 0
        self.chaos_injections_total = 0
        self.rung_counts: Dict[str, int] = {}
        self.served_ues: Dict[ServiceClass, int] = {}
        # raw samples only when opted in; the series/window below are
        # the bounded-memory default (telemetry v2)
        self.latencies_s: List[Tuple[float, float]] = []  # (sim time, latency)
        self.latency_series = HistogramSeries(
            slot_s=self.config.latency_slot_s, buckets=LATENCY_BUCKETS)
        self.latency_window = RollingHistogram(
            buckets=LATENCY_BUCKETS, window_s=10.0, n_slots=10,
            clock=lambda: self._sim_now)
        #: SLOSet the owning service routes class outcomes into (set by
        #: QoSService; stays None for a standalone shard)
        self.slo = None
        self._in_flight: List[FrameRequest] = []

    def _on_breaker_transition(self, from_state: str, to_state: str) -> None:
        """Breaker event hookup: feed the windowed flip-rate instrument
        so the ops view can show "breaker flapping" as a live rate."""
        get_metrics().rolling(
            "serve.breaker_flips",
            lambda: RollingCounter(window_s=60.0, n_slots=30,
                                   clock=lambda: self._sim_now),
            cell=self.cell).inc()

    # ---- tick plumbing -------------------------------------------------------
    def advance_clock(self, now_s: float) -> None:
        """Move the shard's simulated clock (drives breaker cooldowns)."""
        self._sim_now = float(now_s)

    def observe_pressure(self, slo_burning: bool = False) -> str:
        """Feed the overload machine this tick's queue backpressure plus
        the service-level SLO burn flag (the additional escalation input
        — see :meth:`OverloadMachine.observe`)."""
        return self.overload.observe(self.queue.backpressure(), self._sim_now,
                                     slo_burning=slo_burning)

    def build_task(self, now_s: float, frame: int,
                   chaos: Optional[FaultSpec] = None) -> Optional[dict]:
        """Dequeue one frame's demand and assemble the solve task.

        Returns ``None`` on an idle tick (empty queue).  The take size
        clamps down while shedding, and the rung list is the overload
        machine's allowed ladder suffix.
        """
        if self._in_flight:
            raise ConfigurationError(
                "previous frame not absorbed; call absorb() first")
        cfg = self.config
        take = (cfg.shed_requests_per_frame if self.overload.shedding
                else cfg.requests_per_frame)
        batch = self.queue.take(take)
        if not batch:
            return None
        self._in_flight = batch
        sessions = [
            _scaled_session(i, r.service, cfg.rate_floor_scale)
            for i, r in enumerate(batch)
        ]
        gains = self._channel.gains(len(sessions))
        problem = RRAProblem(
            gains=gains,
            users=sessions,
            power_levels_mw=np.asarray(cfg.power_levels_mw, dtype=np.float64),
            total_power_mw=cfg.total_power_mw,
            noise_mw=self._channel.noise_linear_mw,
        )
        return {
            "frame": frame,
            "problem": problem,
            "rungs": self.overload.allowed_rungs(),
            "max_nodes": cfg.max_nodes,
            "frame_budget_s": cfg.frame_budget_s,
            # the serving policy: one try per rung and no validator (the
            # overload machine and breaker, not retries, absorb a failing
            # rung; the committed soak rows and fingerprints pin this)
            "attempts": 1,
            "validate": False,
            "chaos": chaos,
            "chaos_seed": derive_seed(self.seed, frame, f"serve.chaos.{self.cell}"),
        }

    def absorb(self, outcome: dict, now_s: float) -> ShardFrameOutcome:
        """Merge one solve outcome back into shard state.

        Feeds the breaker (primary-rung failure counts against it, an
        un-degraded answer resets it), records per-request service
        latency in *simulated* seconds, and bumps the shard counters.
        """
        batch, self._in_flight = self._in_flight, []
        out = ShardFrameOutcome(
            cell=self.cell, frame=outcome["frame"],
            dropped=outcome["dropped"], rung=outcome["rung"],
            # degraded relative to the *full* ladder: a frame answered by
            # lp-round while the overload cap already excluded exact-bnb is
            # still a degraded answer
            degraded=outcome["rung"] != RRA_FALLBACK[0],
            qos_ok=outcome["qos_ok"],
            total_rate=outcome["total_rate"],
            solver_time_s=outcome["solver_time_s"],
            primary_failed=outcome["primary_failed"],
            per_class_satisfaction=dict(outcome["per_class_satisfaction"]),
            chaos_injections=outcome["chaos_injections"],
        )
        self.frames += 1
        self.chaos_injections_total += out.chaos_injections
        self.rung_counts[out.rung] = self.rung_counts.get(out.rung, 0) + 1
        metrics = get_metrics()
        metrics.counter("serve.frames", rung=out.rung).inc()
        metrics.histogram("serve.solver_time_s", buckets=SECONDS_BUCKETS,
                          cell=self.cell).observe(out.solver_time_s)
        if out.primary_failed:
            self.breaker.record_failure()
        else:
            self.breaker.record_success()
        if out.dropped:
            self.frames_dropped += 1
            metrics.counter("serve.frames_dropped").inc()
            # the frame's demand was not served: requeue it for retry —
            # if failures persist, the age limit sheds it by policy
            self.queue.requeue(batch)
            return out
        for r in batch:
            latency = max(0.0, now_s - r.enqueued_at_s)
            if self.config.retain_latency_samples:
                self.latencies_s.append((now_s, latency))
            exemplar = span_exemplar(latency, time_s=now_s)
            self.latency_series.observe(now_s, latency, exemplar=exemplar)
            self.latency_window.observe(latency, exemplar=exemplar)
            metrics.histogram("serve.frame_latency_s", buckets=SECONDS_BUCKETS,
                              cell=self.cell,
                              service=r.service.value).observe(latency)
            if self.slo is not None:
                self.slo.record_latency(r.service.value, latency)
                self.slo.record_served(r.service.value, r.n_ues)
            self.served_ues[r.service] = (
                self.served_ues.get(r.service, 0) + r.n_ues)
        return out

    # ---- reporting -----------------------------------------------------------
    def total_served_ues(self) -> int:
        return sum(self.served_ues.values())

    def snapshot(self, now_s: float) -> dict:
        """JSON-ready health view of this shard."""
        return {
            "cell": self.cell,
            "state": self.overload.state,
            "breaker": self.breaker.state,
            "depth": self.queue.depth(),
            "backpressure": self.queue.backpressure(),
            "oldest_age_s": self.queue.oldest_age_s(now_s),
            "frames": self.frames,
            "frames_dropped": self.frames_dropped,
            "served_ues": {svc.value: n for svc, n in
                           sorted(self.served_ues.items(),
                                  key=lambda kv: kv[0].value)},
            "transitions": len(self.overload.transitions),
            "latency": self.latency_window.percentiles(),
            "exemplar": self.latency_window.exemplar(),
            "rung_usage": dict(sorted(self.rung_counts.items())),
        }

    def mean_latency_s(self) -> float:
        if self.latencies_s:
            return (math.fsum(lat for _, lat in self.latencies_s)
                    / len(self.latencies_s))
        # bounded-memory default: mean from the append-only series
        merged = self.latency_series._merged(0.0, math.inf)
        return merged.sum / max(merged.count, 1)
