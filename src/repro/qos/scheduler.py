"""Frame-by-frame QoS scheduler gluing channel, traffic, and RRA.

Runs an OFDMA cell over successive scheduling frames: each frame draws
fresh fading, rebuilds the RRA instance, solves it with a configurable
strategy, and accumulates per-class QoS satisfaction statistics — the
end-to-end control-plane loop the paper's resource-management story
describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Literal

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs import get_metrics, get_tracer
from repro.parallel import Executor, derive_seed, map_slices
from repro.qos.channel import ChannelConfig, ChannelModel
from repro.qos.rra import RRA_FALLBACK, RRAProblem, RRAResult, solve_frame, solve_frames
from repro.qos.traffic import ServiceClass, TrafficGenerator, UserSession
from repro.resilience import CircuitBreaker, FaultSpec

Strategy = Literal["exact", "relaxed", "pso", "greedy"]

#: strategy -> the :func:`~repro.qos.rra.solve_frame` rung that runs it
_STRATEGY_RUNG: Dict[str, str] = {
    "exact": "exact-bnb",
    "relaxed": "lp-round",
    "pso": "pso",
    "greedy": "greedy",
}

__all__ = ["FrameStats", "ScheduleReport", "Scheduler"]


@dataclass(frozen=True)
class FrameStats:
    """Per-frame outcome.

    ``rung`` records which ladder rung actually answered the frame
    (``"none"`` for a dropped frame; a fixed strategy runs as a one-rung
    ladder, e.g. ``relaxed`` as ``lp-round``); ``degraded`` is True when
    anything but the primary rung served the frame.
    """

    frame: int
    total_rate: float
    qos_ok: bool
    per_class_satisfaction: Dict[ServiceClass, float]
    solver_time: float
    rung: str = ""
    degraded: bool = False
    rung_times: Dict[str, float] = field(default_factory=dict)


@dataclass
class ScheduleReport:
    """Aggregate over a scheduling run."""

    frames: List[FrameStats] = field(default_factory=list)

    @property
    def mean_rate(self) -> float:
        return float(np.mean([f.total_rate for f in self.frames])) if self.frames else 0.0

    @property
    def qos_success_rate(self) -> float:
        return float(np.mean([f.qos_ok for f in self.frames])) if self.frames else 0.0

    def class_satisfaction(self) -> Dict[ServiceClass, float]:
        out: Dict[ServiceClass, List[float]] = {}
        for f in self.frames:
            for svc, v in f.per_class_satisfaction.items():
                out.setdefault(svc, []).append(v)
        return {svc: float(np.mean(vs)) for svc, vs in out.items()}

    @property
    def total_solver_time(self) -> float:
        return float(sum(f.solver_time for f in self.frames))

    @property
    def degraded_frame_rate(self) -> float:
        """Fraction of frames served by a fallback rung."""
        return float(np.mean([f.degraded for f in self.frames])) if self.frames else 0.0

    def rung_counts(self) -> Dict[str, int]:
        """How many frames each rung answered — the operational face of
        the paper's cost/completeness ladder."""
        out: Dict[str, int] = {}
        for f in self.frames:
            out[f.rung] = out.get(f.rung, 0) + 1
        return out

    def rung_time_totals(self) -> Dict[str, float]:
        """Total wall-clock spent in each rung across all frames,
        including rungs that were attempted but failed."""
        acc: Dict[str, List[float]] = {}
        for f in self.frames:
            for rung, t in f.rung_times.items():
                acc.setdefault(rung, []).append(t)
        return {rung: math.fsum(ts) for rung, ts in acc.items()}

    def canonical(self) -> dict:
        """Timing-free, JSON-ready projection of the report.

        This is the object the determinism contract covers: every field
        is a pure function of (configuration, seed), so serial, thread,
        and process runs of the same schedule compare bit-identically —
        wall-clock fields (``solver_time``, ``rung_times``) are excluded
        because they can never be equal across runs.  Golden-report
        tests serialize exactly this dict.
        """
        return {
            "frames": [
                {
                    "frame": f.frame,
                    "total_rate": f.total_rate,
                    "qos_ok": bool(f.qos_ok),
                    "per_class_satisfaction": {
                        svc.value: v
                        for svc, v in sorted(f.per_class_satisfaction.items(),
                                             key=lambda kv: kv[0].value)
                    },
                    "rung": f.rung,
                    "degraded": bool(f.degraded),
                }
                for f in self.frames
            ],
            "mean_rate": self.mean_rate,
            "qos_success_rate": self.qos_success_rate,
            "degraded_frame_rate": self.degraded_frame_rate,
            "rung_counts": dict(sorted(self.rung_counts().items())),
            "class_satisfaction": {
                svc.value: v
                for svc, v in sorted(self.class_satisfaction().items(),
                                     key=lambda kv: kv[0].value)
            },
        }


class Scheduler:
    """An OFDMA cell scheduler with pluggable RRA strategy."""

    def __init__(
        self,
        n_users: int = 4,
        strategy: Strategy = "relaxed",
        channel: ChannelConfig | None = None,
        traffic: TrafficGenerator | None = None,
        power_levels_mw: np.ndarray | None = None,
        total_power_mw: float = 1000.0,
        rate_floor_scale: float = 1.0,
        seed: int = 0,
        resilient: bool = False,
        breaker: CircuitBreaker | None = None,
        frame_budget_s: float | None = None,
        rra_solvers: Dict[str, Callable[[RRAProblem], RRAResult]] | None = None,
        max_nodes: int = 4000,
    ):
        """``resilient=True`` routes every frame through the
        ``exact-bnb -> lp-round -> greedy`` fallback ladder of
        :func:`~repro.qos.rra.solve_frame` instead of a single fixed
        strategy; the shared ``breaker`` then caps frames to the greedy
        rung after repeated primary-rung failures.  ``frame_budget_s``
        caps each frame's solve wall-clock; ``rra_solvers`` overrides
        individual rungs (the chaos-test hook); ``max_nodes`` caps the
        exact rung's branch-and-bound (the deterministic cost knob).
        """
        if strategy not in _STRATEGY_RUNG:
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.resilient = resilient
        self.breaker = breaker if breaker is not None else (CircuitBreaker() if resilient else None)
        self.frame_budget_s = frame_budget_s
        self.rra_solvers = rra_solvers
        self.max_nodes = int(max_nodes)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.channel = ChannelModel(channel or ChannelConfig(), rng=self.rng)
        self.traffic = traffic or TrafficGenerator(rng=self.rng)
        self.users: List[UserSession] = self.traffic.users(n_users)
        if not math.isclose(rate_floor_scale, 1.0):
            # downscale QoS floors for small test grids
            scaled = []
            for u in self.users:
                q = u.qos
                scaled.append(
                    UserSession(
                        u.user_id,
                        u.service,
                        type(q)(
                            min_rate_bps=q.min_rate_bps * rate_floor_scale,
                            max_latency_ms=q.max_latency_ms,
                            reliability=q.reliability,
                            priority=q.priority,
                        ),
                    )
                )
            self.users = scaled
        self.power_levels = (
            np.asarray(power_levels_mw, dtype=np.float64)
            if power_levels_mw is not None
            else np.array([50.0, 100.0])
        )
        self.total_power = total_power_mw

    def _frame_problem(self) -> RRAProblem:
        gains = self.channel.gains(len(self.users))
        return RRAProblem(
            gains=gains,
            users=self.users,
            power_levels_mw=self.power_levels,
            total_power_mw=self.total_power,
            noise_mw=self.channel.noise_linear_mw,
        )

    def _task(self, frame: int, rungs: tuple, chaos: FaultSpec | None) -> dict:
        """The :func:`~repro.qos.rra.solve_frame` task of one frame (draws
        the frame's channel from the scheduler RNG)."""
        return {
            "frame": frame,
            "problem": self._frame_problem(),
            "rungs": rungs,
            "max_nodes": self.max_nodes,
            "frame_budget_s": self.frame_budget_s,
            "attempts": 2 if self.resilient else 1,
            "validate": self.resilient,
            "chaos": chaos,
            "chaos_seed": derive_seed(self.seed, frame, "qos.chaos"),
            "solvers": self.rra_solvers,
        }

    def run(self, n_frames: int = 10, executor: Executor | None = None,
            chaos: FaultSpec | None = None) -> ScheduleReport:
        """Run ``n_frames`` scheduling frames and merge the per-frame stats.

        Every frame is one :func:`~repro.qos.rra.solve_frame` task.  The
        channel realizations come from the scheduler's RNG in frame
        order and any per-frame randomness derives from ``(seed,
        frame)``, so :meth:`ScheduleReport.canonical` is bit-identical
        across serial/thread/process backends.  With ``executor=None``
        frames are solved one at a time and share the circuit breaker:
        while it is open a frame runs the greedy rung only, and frames
        that start at the primary rung feed it.  With an ``executor``
        the frames fan out through :func:`repro.parallel.map_slices`
        (one :func:`~repro.qos.rra.solve_frames` slice per worker) and,
        being in flight together, bypass the breaker.  ``chaos``
        (resilient mode only) injects a deterministic per-frame
        :class:`~repro.resilience.ChaosMonkey` around every rung.
        """
        if chaos is not None and not self.resilient:
            raise ConfigurationError(
                "chaos injection needs resilient=True (the ladder absorbs "
                "the injected faults; a one-rung strategy would drop frames)")
        ladder = RRA_FALLBACK if self.resilient else (_STRATEGY_RUNG[self.strategy],)
        breaker = self.breaker if executor is None and self.resilient else None
        batch = 1 if executor is None else max(n_frames, 1)
        report = ScheduleReport()
        with get_tracer().span("qos.schedule", n_frames=n_frames,
                               backend=getattr(executor, "backend", "inline"),
                               strategy=self.strategy, resilient=self.resilient):
            for first in range(0, n_frames, batch):
                tasks = [
                    self._task(frame, ladder if breaker is None or breaker.allow()
                               else RRA_FALLBACK[-1:], chaos)
                    for frame in range(first, min(first + batch, n_frames))
                ]
                outcomes = ([solve_frame(task) for task in tasks] if executor is None
                            else map_slices(solve_frames, tasks, executor=executor,
                                            label="qos.frames"))
                for task, out in zip(tasks, outcomes):
                    if breaker is not None and task["rungs"][0] == ladder[0]:
                        if out["primary_failed"]:
                            breaker.record_failure()
                        else:
                            breaker.record_success()
                    report.frames.append(self._frame_stats(out, primary=ladder[0]))
        return report

    @staticmethod
    def _frame_stats(out: dict, primary: str) -> FrameStats:
        """Merge one :func:`~repro.qos.rra.solve_frame` outcome; a frame
        not answered by the ladder's ``primary`` rung is degraded."""
        metrics = get_metrics()
        degraded = out["rung"] != primary
        if out["dropped"]:
            metrics.counter("scheduler.frames_dropped").inc()
        else:
            metrics.counter("scheduler.frames", rung=out["rung"]).inc()
            if degraded:
                metrics.counter("scheduler.frames_degraded").inc()
        return FrameStats(
            frame=out["frame"],
            total_rate=out["total_rate"],
            qos_ok=out["qos_ok"],
            per_class_satisfaction={ServiceClass(svc): v for svc, v
                                    in out["per_class_satisfaction"].items()},
            solver_time=out["solver_time_s"],
            rung=out["rung"],
            degraded=degraded,
            rung_times=out["rung_times"],
        )
