"""Rolling time-windowed counters and histograms for live telemetry.

PR 3's :class:`~repro.obs.metrics.MetricsRegistry` counts *since process
start* — the right contract for batch jobs and post-hoc summaries, but a
long-running service asks windowed questions: what is the arrival rate
*now*, what was p99 latency over the *last ten seconds*, how fast is the
error budget burning over the last minute.  This module answers them
with fixed-memory ring buffers over an **injectable clock**:

* :class:`RollingCounter` — a count over the trailing ``window_s``
  seconds, bucketed into ``n_slots`` ring slots; memory is O(slots),
  independent of event volume.
* :class:`RollingHistogram` — a ring of
  :class:`~repro.obs.metrics.Histogram` slots; merging the live slots
  (:meth:`~repro.obs.metrics.Histogram.merged`) yields windowed
  quantiles and carries the window's **exemplar** — the trace/span id
  of the bucket-max observation — so a slow outlier on a dashboard
  points back into the trace that explains it.
* :class:`HistogramSeries` — the *non-expiring* variant: append-only
  time-slotted ``Histogram`` objects over a whole run, so a soak report
  can compute percentiles over any ``[t0, t1)`` window afterwards in
  O(windows x buckets) memory instead of retaining every sample.

All time arithmetic goes through the instrument's clock (default
``time.monotonic``); the serving layer passes its *simulated* clock, so
windowed telemetry is exactly as deterministic as the service itself.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.obs.metrics import LATENCY_BUCKETS, Histogram
from repro.obs.tracer import get_tracer

__all__ = [
    "RollingCounter",
    "RollingHistogram",
    "HistogramSeries",
    "span_exemplar",
    "DEFAULT_FAST_WINDOW_S",
    "DEFAULT_SLOW_WINDOW_S",
]

#: the SRE-style multi-window pair: a fast window that reacts within
#: seconds and a slow window that filters transients (see obs.slo)
DEFAULT_FAST_WINDOW_S = 10.0
DEFAULT_SLOW_WINDOW_S = 60.0


def span_exemplar(value: float, time_s: Optional[float] = None) -> dict:
    """An exemplar payload linking ``value`` to the innermost open span.

    When tracing is enabled the current span's id rides along, so the
    bucket-max observation of a windowed histogram stays *explainable*:
    the ops view or exposition can point at the exact solve that was
    slow.  Under the no-op tracer only the value (and optional time) is
    kept.
    """
    out: dict = {"value": float(value)}
    if time_s is not None:
        out["time_s"] = float(time_s)
    tracer = get_tracer()
    span = tracer.current
    # only link spans that will actually exist in the export: a sampled
    # tracer's unsampled traces are dropped, so their ids would dangle
    if getattr(span, "active", False) and getattr(tracer, "trace_sampled", True):
        out["span_id"] = span.span_id
    return out


class _TimeRing:
    """Shared ring-slot bookkeeping: ``n_slots`` slots of width
    ``window_s / n_slots`` seconds, advanced lazily on every access."""

    def __init__(self, window_s: float, n_slots: int,
                 clock: Callable[[], float]):
        if window_s <= 0:
            raise ConfigurationError("window_s must be positive")
        if n_slots < 1:
            raise ConfigurationError("n_slots must be >= 1")
        self.window_s = float(window_s)
        self.n_slots = int(n_slots)
        self.slot_s = self.window_s / max(self.n_slots, 1)
        self._clock = clock
        self._epoch = clock()
        self._cur = 0  # absolute index of the newest slot

    def _slot_index(self, now: float) -> int:
        return int((now - self._epoch) / max(self.slot_s, 1e-12))

    def _advance(self) -> int:
        """Move to the clock's current slot, clearing expired slots;
        returns the ring position of the newest slot."""
        cur = self._slot_index(self._clock())
        if cur > self._cur:
            for idx in range(self._cur + 1,
                             min(cur, self._cur + self.n_slots) + 1):
                self._clear_slot(idx % self.n_slots)
            if cur - self._cur > self.n_slots:
                # the whole window expired; clear everything once
                for pos in range(self.n_slots):
                    self._clear_slot(pos)
            self._cur = cur
        return self._cur % self.n_slots

    def _live_slots(self) -> list:
        """The slots still inside the window, oldest first."""
        self._advance()
        n = self.n_slots
        live = min(self._cur + 1, n)
        start = (self._cur + 1 - live) % n
        return (self._slots[start:] + self._slots[:start])[:live]

    def _clear_slot(self, pos: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class RollingCounter(_TimeRing):
    """A count over the trailing ``window_s`` seconds.

    ``inc`` lands in the current ring slot; ``total`` sums the live
    slots; ``rate`` divides by the window length.  Memory is exactly
    ``n_slots`` floats no matter how many events are recorded — the
    bounded-telemetry contract a soak run depends on.
    """

    def __init__(self, window_s: float = DEFAULT_FAST_WINDOW_S,
                 n_slots: int = 10,
                 clock: Callable[[], float] = time.monotonic):
        self._slots = [0.0] * int(max(n_slots, 1))
        super().__init__(window_s, n_slots, clock)

    def _clear_slot(self, pos: int) -> None:
        self._slots[pos] = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ConfigurationError("rolling counters only go up")
        self._slots[self._advance()] += float(n)

    def total(self) -> float:
        """Sum over the live window."""
        self._advance()
        return math.fsum(self._slots)

    def rate(self) -> float:
        """Events per second over the full window length."""
        return self.total() / max(self.window_s, 1e-12)

    def to_dict(self) -> dict:
        return {"kind": "rolling_counter", "window_s": self.window_s,
                "n_slots": self.n_slots, "total": self.total(),
                "rate": self.rate()}


class RollingHistogram(_TimeRing):
    """A fixed-bucket histogram over the trailing ``window_s`` seconds.

    A ring of :class:`~repro.obs.metrics.Histogram` slots; reads merge
    the live slots, so quantiles are computed over exactly the window.
    Memory is O(n_slots x buckets) regardless of observation volume.  An
    optional ``exemplar`` dict per observation (see :func:`span_exemplar`)
    is retained for each slot's max — the "which solve was that spike"
    pointer.
    """

    def __init__(self, buckets: Iterable[float] = LATENCY_BUCKETS,
                 window_s: float = DEFAULT_FAST_WINDOW_S,
                 n_slots: int = 10,
                 clock: Callable[[], float] = time.monotonic):
        self.buckets = Histogram(buckets).buckets
        self._slots = [Histogram.sharing(self.buckets)
                       for _ in range(int(max(n_slots, 1)))]
        super().__init__(window_s, n_slots, clock)

    def _clear_slot(self, pos: int) -> None:
        self._slots[pos].clear()

    def observe(self, v: float, exemplar: Optional[dict] = None) -> None:
        self._slots[self._advance()].observe(v, exemplar)

    def observe_many(self, values: Sequence[float],
                     exemplar: Optional[Callable[[float], dict]] = None) -> None:
        """``observe(v, exemplar(v))`` for each value, in order and
        bit-equal, with one clock read for the batch: every value lands in
        the current slot."""
        if values:
            self._slots[self._advance()].observe_many(values, exemplar)

    # ---- windowed reads ------------------------------------------------------
    def _merged(self) -> Histogram:
        return Histogram.merged(self.buckets, self._live_slots())

    def count(self) -> int:
        return self._merged().count

    def quantile(self, q: float) -> float:
        return self._merged().quantile(q)

    def percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 over the live window (zeros when empty)."""
        return self._merged().percentiles()

    def exemplar(self) -> Optional[dict]:
        """The exemplar of the window's max observation, if any."""
        return self._merged().exemplar

    def to_dict(self) -> dict:
        m = self._merged()
        return {"kind": "rolling_histogram", "window_s": self.window_s,
                "n_slots": self.n_slots, **m.to_dict(),
                "percentiles": m.percentiles(), "exemplar": m.exemplar}


class HistogramSeries:
    """Append-only time-slotted histograms over a whole run.

    Where :class:`RollingHistogram` forgets, this remembers — one
    fixed-bucket histogram per ``slot_s`` of *recorded* time, keyed by
    slot index, so a report can answer ``percentiles(t0, t1)`` for any
    window after the fact.  Memory is O(active slots x buckets): a
    10^6-UE soak that serves for 10 simulated seconds stores ~20 slots
    of ~16 buckets, not 10^6 latency samples.

    Time is supplied by the caller per observation (the serving layer
    passes its simulated clock's ``now``), so the series never reads a
    clock at all.
    """

    def __init__(self, slot_s: float = 0.5,
                 buckets: Iterable[float] = LATENCY_BUCKETS):
        if slot_s <= 0:
            raise ConfigurationError("slot_s must be positive")
        self.slot_s = float(slot_s)
        self.buckets = Histogram(buckets).buckets
        self._slots: Dict[int, Histogram] = {}

    # ---- writes --------------------------------------------------------------
    def observe(self, t: float, v: float,
                exemplar: Optional[dict] = None) -> None:
        """Record ``v`` at time ``t`` (caller-supplied, e.g. sim time)."""
        self.observe_many(t, (v,), None if exemplar is None else lambda _v: exemplar)

    def observe_many(self, t: float, values: Sequence[float],
                     exemplar: Optional[Callable[[float], dict]] = None) -> None:
        """``observe(t, v, exemplar(v))`` for each value, in order and
        bit-equal: all of them at the one time ``t``."""
        if not values:
            return
        idx = int(float(t) / max(self.slot_s, 1e-12))
        slot = self._slots.get(idx)
        if slot is None:
            slot = self._slots[idx] = Histogram.sharing(self.buckets)
        slot.observe_many(values, exemplar)

    def merge(self, other: "HistogramSeries") -> None:
        """Fold another series (same slots/buckets) into this one."""
        if other.slot_s != self.slot_s or other.buckets != self.buckets:
            raise ConfigurationError(
                "can only merge series with identical slot_s and buckets")
        for idx, slot in other._slots.items():
            mine = self._slots.get(idx)
            self._slots[idx] = Histogram.merged(
                self.buckets, [slot] if mine is None else [mine, slot])

    # ---- windowed reads ------------------------------------------------------
    def _merged(self, t0: float, t1: float) -> Histogram:
        # the slots overlapping [t0, t1), in insertion order
        return Histogram.merged(self.buckets, [
            slot for idx, slot in self._slots.items()
            if idx * self.slot_s < t1 and (idx + 1) * self.slot_s > t0])

    def count(self, t0: float = 0.0, t1: float = math.inf) -> int:
        return self._merged(t0, t1).count

    def quantile(self, q: float, t0: float = 0.0,
                 t1: float = math.inf) -> float:
        return self._merged(t0, t1).quantile(q)

    def percentiles(self, t0: float = 0.0,
                    t1: float = math.inf) -> Dict[str, float]:
        """p50/p95/p99 over services in ``[t0, t1)`` (zeros when empty)."""
        return self._merged(t0, t1).percentiles()

    def exemplar(self, t0: float = 0.0,
                 t1: float = math.inf) -> Optional[dict]:
        return self._merged(t0, t1).exemplar

    # ---- memory accounting ---------------------------------------------------
    @property
    def n_slots(self) -> int:
        return len(self._slots)

    def memory_cells(self) -> int:
        """Bucket cells held — the quantity the soak acceptance test
        asserts is O(windows x buckets), independent of event count."""
        return len(self._slots) * (len(self.buckets) + 1)

    def to_dict(self) -> dict:
        return {
            "kind": "histogram_series",
            "slot_s": self.slot_s,
            "buckets": list(self.buckets),
            "slots": {
                str(idx): {"counts": list(s.counts), "count": s.count,
                           "sum": s.sum,
                           "min": None if s.count == 0 else s.min,
                           "max": None if s.count == 0 else s.max,
                           "exemplar": s.exemplar}
                for idx, s in sorted(self._slots.items())
            },
            "percentiles": self.percentiles(),
        }
