"""Declarative per-QoS-class SLOs with multi-window burn-rate monitors.

The paper's QoS classes come with *objectives*, not just priorities:
URLLC is useless late, mMTC tolerates shedding up to a point, eMBB sits
between.  This module turns those targets into data — an :class:`SLO`
names the class, the good/bad predicate (latency under a threshold, or
served-vs-shed), and the objective fraction — and into monitors that
evaluate them the way SRE playbooks do: **error-budget burn rate over a
fast and a slow window**.

With objective ``0.99`` the error budget is 1%; a burn rate of 1.0
means "spending budget exactly as fast as allowed", 14.4 means "the
whole budget gone in under two hours at this pace".  The classic
multi-window rule fires when the *fast* (10 s) window burns above a high
threshold — reacting within seconds of a real incident — while the
*slow* (60 s) window filters one-tick blips.  Both windows are
:class:`~repro.obs.windows.RollingCounter` pairs over the same
injectable clock as the serving layer, so evaluation is deterministic
on simulated time.

Monitors are *edge-triggered*: the False→True crossing emits one
structured ``slo.burn`` event (visible in exported JSONL) and bumps the
``slo.burn`` counter; the recovery emits ``slo.burn_cleared``.  The
serving layer feeds the burning flag into the overload machine as an
additional escalation input and surfaces per-SLO status in
``QoSService.health()``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.obs.windows import (
    DEFAULT_FAST_WINDOW_S,
    DEFAULT_SLOW_WINDOW_S,
    RollingCounter,
)

__all__ = [
    "SLO",
    "SLOStatus",
    "SLOMonitor",
    "SLOSet",
    "DEFAULT_SERVE_SLOS",
]

_KINDS = ("latency", "shed_rate")


@dataclass(frozen=True)
class SLO:
    """One declarative objective for one QoS class.

    ``kind="latency"``: an event is *bad* when its latency exceeds
    ``threshold_s``; the objective is the fraction that must stay under
    it (e.g. ``objective=0.99`` ~ "p99 latency <= threshold_s").
    ``kind="shed_rate"``: admissions are good, sheds are bad; the
    objective is the served fraction (``0.90`` ~ "shed at most 10%").
    """

    name: str
    service_class: str
    kind: str
    objective: float
    threshold_s: float = 0.0
    #: burn-rate alert thresholds for the fast/slow windows (SRE's
    #: page-worthy defaults: budget gone in ~2h / ~5h at this pace)
    fast_burn_threshold: float = 14.4
    slow_burn_threshold: float = 6.0
    #: don't evaluate a window with fewer events than this — avoids
    #: firing off a single unlucky sample on a near-idle service
    min_events: int = 10
    fast_window_s: float = DEFAULT_FAST_WINDOW_S
    slow_window_s: float = DEFAULT_SLOW_WINDOW_S

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"SLO kind must be one of {_KINDS}, got {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                "objective must be in (0, 1): the budget is 1 - objective")
        if self.kind == "latency" and self.threshold_s <= 0:
            raise ConfigurationError(
                "latency SLOs need a positive threshold_s")
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ConfigurationError("windows must be positive")
        if self.min_events < 1:
            raise ConfigurationError("min_events must be >= 1")

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad-event fraction."""
        return 1.0 - self.objective


@dataclass(frozen=True)
class SLOStatus:
    """One evaluation of one monitor (JSON-ready via ``to_dict``)."""

    slo: SLO
    fast_burn: float
    slow_burn: float
    fast_events: float
    slow_events: float
    burning: bool
    budget_remaining: float

    def to_dict(self) -> dict:
        return {
            "name": self.slo.name,
            "service_class": self.slo.service_class,
            "kind": self.slo.kind,
            "objective": self.slo.objective,
            "threshold_s": self.slo.threshold_s,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "fast_events": self.fast_events,
            "slow_events": self.slow_events,
            "burning": self.burning,
            "budget_remaining": self.budget_remaining,
        }


class _WindowPair:
    """total/bad rolling counters over one window length."""

    def __init__(self, window_s: float, clock: Callable[[], float]):
        n_slots = max(5, int(round(window_s / 2.0)))
        self.total = RollingCounter(window_s, n_slots, clock)
        self.bad = RollingCounter(window_s, n_slots, clock)

    def record(self, n_bad: float, n: float) -> None:
        """``n`` events, ``n_bad`` of them bad (whole counts add up the
        same in one bump as in many)."""
        if n:
            self.total.inc(n)
        if n_bad:
            self.bad.inc(n_bad)

    def burn(self, budget: float) -> Tuple[float, float]:
        """(burn rate, events in window)."""
        events = self.total.total()
        if events <= 0:
            return 0.0, 0.0
        bad_fraction = self.bad.total() / max(events, 1e-12)
        return bad_fraction / max(budget, 1e-12), events


class SLOMonitor:
    """Streams events against one :class:`SLO` and evaluates burn rate.

    ``record_latency`` / ``record_served`` / ``record_shed`` feed both
    windows; :meth:`evaluate` computes fast/slow burn and performs the
    edge-triggered ``slo.burn`` / ``slo.burn_cleared`` emission into the
    ambient tracer and metrics registry.
    """

    def __init__(self, slo: SLO,
                 clock: Callable[[], float] = time.monotonic):
        self.slo = slo
        self._clock = clock
        self._fast = _WindowPair(slo.fast_window_s, clock)
        self._slow = _WindowPair(slo.slow_window_s, clock)
        self.burning = False
        self.burn_count = 0  # lifetime False->True transitions

    # ---- recording -----------------------------------------------------------
    def record_latency(self, latency_s: float) -> None:
        self.record_latencies((latency_s,))

    def record_latencies(self, latencies_s: Sequence[float]) -> None:
        """One latency event per value (bad above ``threshold_s``), as
        two counter bumps per window."""
        if self.slo.kind != "latency":
            raise ConfigurationError(
                f"SLO {self.slo.name!r} is {self.slo.kind}, not latency")
        threshold = self.slo.threshold_s
        bad = sum(1 for latency_s in latencies_s if latency_s > threshold)
        self._fast.record(bad, len(latencies_s))
        self._slow.record(bad, len(latencies_s))

    def record_served(self, n: float = 1.0) -> None:
        if self.slo.kind != "shed_rate":
            raise ConfigurationError(
                f"SLO {self.slo.name!r} is {self.slo.kind}, not shed_rate")
        self._fast.record(0, n)
        self._slow.record(0, n)

    def record_shed(self, n: float = 1.0) -> None:
        if self.slo.kind != "shed_rate":
            raise ConfigurationError(
                f"SLO {self.slo.name!r} is {self.slo.kind}, not shed_rate")
        self._fast.record(n, n)
        self._slow.record(n, n)

    # ---- evaluation ----------------------------------------------------------
    def evaluate(self) -> SLOStatus:
        """Current burn state; emits edge-triggered events on change.

        The alert condition is the standard multi-window OR: the fast
        window burning hard (incident happening *now*) or the slow
        window burning steadily (budget quietly draining), each guarded
        by ``min_events`` so idle windows cannot fire.
        """
        slo = self.slo
        fast_burn, fast_events = self._fast.burn(slo.budget)
        slow_burn, slow_events = self._slow.burn(slo.budget)
        fast_hot = (fast_events >= slo.min_events
                    and fast_burn >= slo.fast_burn_threshold)
        slow_hot = (slow_events >= slo.min_events
                    and slow_burn >= slo.slow_burn_threshold)
        now_burning = fast_hot or slow_hot

        metrics = get_metrics()
        metrics.gauge("slo.burn_rate", slo=slo.name,
                      service_class=slo.service_class).set(fast_burn)
        if now_burning and not self.burning:
            self.burn_count += 1
            metrics.counter("slo.burn", slo=slo.name,
                            service_class=slo.service_class).inc()
            get_tracer().event(
                "slo.burn",
                slo=slo.name,
                service_class=slo.service_class,
                kind=slo.kind,
                window="fast" if fast_hot else "slow",
                fast_burn=round(fast_burn, 3),
                slow_burn=round(slow_burn, 3),
                objective=slo.objective,
                time_s=round(self._clock(), 4),
            )
        elif self.burning and not now_burning:
            metrics.counter("slo.burn_cleared", slo=slo.name,
                            service_class=slo.service_class).inc()
            get_tracer().event(
                "slo.burn_cleared",
                slo=slo.name,
                service_class=slo.service_class,
                fast_burn=round(fast_burn, 3),
                slow_burn=round(slow_burn, 3),
                time_s=round(self._clock(), 4),
            )
        self.burning = now_burning

        # "budget remaining" over the slow accounting window: 1.0 when
        # clean, 0.0 once the window's bad fraction has eaten the budget
        remaining = max(0.0, 1.0 - slow_burn) if slow_events > 0 else 1.0
        return SLOStatus(
            slo=slo,
            fast_burn=fast_burn,
            slow_burn=slow_burn,
            fast_events=fast_events,
            slow_events=slow_events,
            burning=now_burning,
            budget_remaining=remaining,
        )


#: the serving layer's default objectives, mirroring the class ordering
#: the admission queue enforces: URLLC has the tightest latency target
#: and an effectively zero shed budget; eMBB tolerates looser latency;
#: mMTC accepts shedding up to 15% under overload.
DEFAULT_SERVE_SLOS: Tuple[SLO, ...] = (
    SLO(name="urllc-latency", service_class="URLLC", kind="latency",
        objective=0.99, threshold_s=0.3),
    SLO(name="urllc-shed", service_class="URLLC", kind="shed_rate",
        objective=0.999),
    SLO(name="embb-latency", service_class="eMBB", kind="latency",
        objective=0.95, threshold_s=1.0),
    SLO(name="mmtc-shed", service_class="mMTC", kind="shed_rate",
        objective=0.85),
)


class SLOSet:
    """All monitors for a service, routed by QoS class.

    One :class:`SLOSet` lives on the service (coordinator side, serial),
    driven by the simulated clock; shards record into it as outcomes are
    absorbed, and the service calls :meth:`evaluate` once per tick.
    """

    def __init__(self, slos: Iterable[SLO] = DEFAULT_SERVE_SLOS,
                 clock: Callable[[], float] = time.monotonic):
        self.monitors: List[SLOMonitor] = [SLOMonitor(s, clock) for s in slos]
        names = [m.slo.name for m in self.monitors]
        if len(set(names)) != len(names):
            raise ConfigurationError("SLO names must be unique")
        self._latency: Dict[str, List[SLOMonitor]] = {}
        self._shed: Dict[str, List[SLOMonitor]] = {}
        for m in self.monitors:
            target = self._latency if m.slo.kind == "latency" else self._shed
            target.setdefault(m.slo.service_class, []).append(m)
        self._last: Dict[str, SLOStatus] = {}

    # ---- recording -----------------------------------------------------------
    def record_latency(self, service_class: str, latency_s: float) -> None:
        self.record_latencies(service_class, (latency_s,))

    def record_latencies(self, service_class: str,
                         latencies_s: Sequence[float]) -> None:
        """:meth:`record_latency` for each latency of one class, in one
        call per monitor (the window counts are whole numbers, so this
        equals the one-by-one records)."""
        for m in self._latency.get(service_class, ()):
            m.record_latencies(latencies_s)

    def record_served(self, service_class: str, n: float = 1.0) -> None:
        if n > 0:
            for m in self._shed.get(service_class, ()):
                m.record_served(n)

    def record_shed(self, service_class: str, n: float = 1.0) -> None:
        if n > 0:
            for m in self._shed.get(service_class, ()):
                m.record_shed(n)

    # ---- evaluation ----------------------------------------------------------
    def evaluate(self) -> Dict[str, SLOStatus]:
        """Evaluate every monitor (emitting edge-triggered events)."""
        self._last = {m.slo.name: m.evaluate() for m in self.monitors}
        return self._last

    def burning_classes(self) -> List[str]:
        """QoS classes with at least one burning SLO, sorted."""
        return sorted({s.slo.service_class
                       for s in self._last.values() if s.burning})

    @property
    def any_burning(self) -> bool:
        return any(s.burning for s in self._last.values())

    def snapshot(self) -> dict:
        """JSON-ready per-SLO status for ``health()`` / the ops view."""
        return {name: status.to_dict()
                for name, status in sorted(self._last.items())}
