"""Bounded per-shard admission queues with QoS-aware load shedding.

Backpressure is explicit: every offer returns an admission verdict, the
queue exposes a ``backpressure()`` fraction the overload state machine
consumes, and overflow never drops work silently — it *sheds by
policy*, strictly in service-class order (best-effort mMTC first, then
eMBB, and URLLC only when nothing cheaper is left to evict).  Dequeue
order is the mirror image (URLLC first), so under sustained overload
the latency-critical class is both served first and shed last — the
operational form of the paper's "diverse QoS" contract.

Age limits catch the other overload failure mode: a request that sat
queued past ``max_age_s`` is stale (its channel state and latency
budget are gone) and is shed rather than served late.

All time is the service's *simulated* clock, passed in by the caller —
the queue never reads a wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.exceptions import ConfigurationError
from repro.obs import Counter, Handles
from repro.qos.traffic import ServiceClass

__all__ = ["FrameRequest", "Admission", "QueueStats", "AdmissionQueue",
           "SHED_ORDER", "SERVE_ORDER"]

#: eviction order under pressure: cheapest QoS contract first
SHED_ORDER = (ServiceClass.MMTC, ServiceClass.EMBB, ServiceClass.URLLC)
#: dequeue order: tightest QoS contract first
SERVE_ORDER = tuple(reversed(SHED_ORDER))

_SHED_RANK = {svc: rank for rank, svc in enumerate(SHED_ORDER)}

#: admission verdicts
ADMITTED = "admitted"
SHED = "shed"


@dataclass(frozen=True)
class FrameRequest:
    """One unit of scheduling demand: a batch of same-class sessions.

    Arrival batches aggregate many UEs into one request (the serving
    layer schedules representative per-class sessions, not 10^6
    individual MILP variables — see docs/SERVING.md); ``n_ues`` keeps
    the true session count for throughput and shed-rate accounting.
    """

    request_id: int
    cell: int
    service: ServiceClass
    n_ues: int
    enqueued_at_s: float
    kind: str = "poisson"


@dataclass(frozen=True)
class Admission:
    """Verdict for one offered request (plus what was evicted for it)."""

    verdict: str  # ADMITTED | SHED
    shed: List[FrameRequest] = field(default_factory=list)


@dataclass
class QueueStats:
    """Monotone UE counters, by class: what was offered, and what was
    shed, split by reason (``depth`` eviction or ``age`` expiry)."""

    offered: Dict[ServiceClass, int] = field(default_factory=dict)
    shed_depth: Dict[ServiceClass, int] = field(default_factory=dict)
    shed_age: Dict[ServiceClass, int] = field(default_factory=dict)

    @staticmethod
    def _bump(table: Dict[ServiceClass, int], svc: ServiceClass, n: int) -> None:
        table[svc] = table.get(svc, 0) + n

    def shed_ues(self, svc: ServiceClass) -> int:
        return self.shed_depth.get(svc, 0) + self.shed_age.get(svc, 0)

    def shed_rate(self, svc: ServiceClass) -> float:
        offered = self.offered.get(svc, 0)
        if offered == 0:
            return 0.0
        return self.shed_ues(svc) / offered


class AdmissionQueue:
    """Bounded FIFO-within-class queue with policy shedding.

    ``max_depth`` bounds queued *requests*; ``max_age_s`` bounds how
    long any request may wait.  :meth:`offer` either admits (possibly
    evicting strictly lower-class queued work to make room) or sheds
    the offered request itself when nothing cheaper exists to evict.
    """

    def __init__(self, cell: int, max_depth: int = 64, max_age_s: float = 5.0):
        if max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1")
        if max_age_s <= 0:
            raise ConfigurationError("max_age_s must be positive")
        self.cell = int(cell)
        self.max_depth = int(max_depth)
        self.max_age_s = float(max_age_s)
        self._lanes: Dict[ServiceClass, List[FrameRequest]] = {
            svc: [] for svc in SERVE_ORDER}
        self.stats = QueueStats()
        self._metrics = Handles()

    # ---- depth / pressure ----------------------------------------------------
    def depth(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def depth_ues(self) -> int:
        return sum(r.n_ues for lane in self._lanes.values() for r in lane)

    def backpressure(self) -> float:
        """Queue fullness in [0, 1] — the overload machine's main input."""
        return min(1.0, self.depth() / self.max_depth)

    def oldest_age_s(self, now_s: float) -> float:
        ages = [now_s - r.enqueued_at_s
                for lane in self._lanes.values() for r in lane]
        return max(ages) if ages else 0.0

    # ---- admission -----------------------------------------------------------
    def _record_sheds(self, shed_ues: Dict[ServiceClass, int], reason: str) -> None:
        """Add shed UEs per class to the stats and the
        ``serve.queue.shed{cell,service,reason}`` counters."""
        table = (self.stats.shed_depth if reason == "depth"
                 else self.stats.shed_age)
        for svc, n in shed_ues.items():
            QueueStats._bump(table, svc, n)
            self._shed_counter(svc.value, reason).inc(n)

    def _shed_counter(self, service: str, reason: str) -> Counter:
        return self._metrics.get((service, reason), lambda m: m.counter(
            "serve.queue.shed", cell=self.cell, service=service, reason=reason))

    def offer(self, request: FrameRequest) -> Admission:
        """Admit ``request`` or shed by class policy.

        At capacity, the queue evicts the *youngest* queued request of
        the cheapest class strictly below the offered one (young-first
        eviction preserves the oldest work, which has waited longest and
        is closest to its service turn).  When no cheaper class has
        queued work — including when the offered class is mMTC itself —
        the offered request is shed instead.
        """
        verdicts: List[Admission] = []
        self.offer_many([request], verdicts)
        return verdicts[0]

    def offer_many(self, requests: Iterable[FrameRequest],
                   verdicts: Optional[List[Admission]] = None) -> None:
        """:meth:`offer` each request in order (one tick's arrivals).

        Lanes, verdicts and :class:`QueueStats` end exactly as after the
        one-by-one offers, and so do the ``serve.queue.shed`` counters:
        their UE counts are whole numbers, so bumping each counter once
        per class with the batch's total adds up to the same value.
        ``verdicts``, when given, receives each request's
        :class:`Admission`.
        """
        lanes = [self._lanes[svc] for svc in SHED_ORDER]
        depth = self.depth()
        # UEs per class, keyed by shed rank in order of first appearance
        offered: Dict[int, int] = {}
        shed: Dict[int, int] = {}
        for request in requests:
            rank = _SHED_RANK[request.service]
            offered[rank] = offered.get(rank, 0) + request.n_ues
            evicted: List[FrameRequest] = []
            if depth >= self.max_depth:
                victim_rank = next((r for r in range(rank) if lanes[r]), None)
                if victim_rank is None:
                    shed[rank] = shed.get(rank, 0) + request.n_ues
                    if verdicts is not None:
                        verdicts.append(Admission(SHED, [request]))
                    continue
                victim = lanes[victim_rank].pop()
                shed[victim_rank] = shed.get(victim_rank, 0) + victim.n_ues
                evicted.append(victim)
            else:
                depth += 1
            lanes[rank].append(request)
            if verdicts is not None:
                verdicts.append(Admission(ADMITTED, evicted))
        for rank, n in offered.items():
            QueueStats._bump(self.stats.offered, SHED_ORDER[rank], n)
        self._record_sheds({SHED_ORDER[rank]: n for rank, n in shed.items()}, "depth")

    def expire(self, now_s: float) -> List[FrameRequest]:
        """Shed every queued request older than ``max_age_s``."""
        expired: List[FrameRequest] = []
        cutoff = now_s - self.max_age_s
        shed: Dict[ServiceClass, int] = {}
        for svc, lane in self._lanes.items():
            if not any(r.enqueued_at_s < cutoff for r in lane):
                continue
            keep = []
            for r in lane:
                if r.enqueued_at_s < cutoff:
                    expired.append(r)
                    shed[svc] = shed.get(svc, 0) + r.n_ues
                else:
                    keep.append(r)
            self._lanes[svc] = keep
        self._record_sheds(shed, "age")
        return expired

    def requeue(self, requests: List[FrameRequest]) -> None:
        """Return un-served requests to the *head* of their lanes.

        Used when a frame is dropped (e.g. every ladder rung failed
        under fault injection): the demand was not served, so it goes
        back for retry with its original enqueue time — if the failure
        persists, the age limit sheds it *visibly* instead of a dropped
        frame silently discarding latency-critical work.  Depth may
        transiently exceed ``max_depth`` until the next offer rebalances.
        """
        for r in reversed(requests):
            self._lanes[r.service].insert(0, r)

    def take(self, k: int) -> List[FrameRequest]:
        """Dequeue up to ``k`` requests, URLLC first, FIFO within class."""
        out: List[FrameRequest] = []
        for svc in SERVE_ORDER:
            lane = self._lanes[svc]
            while lane and len(out) < k:
                out.append(lane.pop(0))
            if len(out) >= k:
                break
        return out

    def __len__(self) -> int:  # pragma: no cover - convenience
        return self.depth()
