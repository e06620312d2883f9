"""Counters, gauges, and fixed-bucket histograms for the solver stack.

A :class:`MetricsRegistry` is a plain in-process store — no background
threads, no export protocol — holding the operational numbers the paper's
degradation story turns on: solver iteration counts, residuals, fallback
rung indices, breaker state transitions, chaos injections, and verifier
bound quality.  Instruments are created on first use and keyed by
``(name, labels)`` so ``counter("ladder.answered", rung="lp")`` and
``counter("ladder.answered", rung="exact")`` are distinct series.

Recording is O(1) dict work per *solve* (never per iteration), so the
registry stays installed even in production runs; :meth:`snapshot`
returns a JSON-ready dict for assertions and reports.
"""

from __future__ import annotations

import bisect
import math
import operator
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Handles",
    "Histogram",
    "MetricsRegistry",
    "bucket_quantile",
    "get_metrics",
    "set_metrics",
    "use_metrics",
    "record_solver_outcome",
    "ITERATION_BUCKETS",
    "LATENCY_BUCKETS",
    "RESIDUAL_BUCKETS",
    "SECONDS_BUCKETS",
    "MARGIN_BUCKETS",
]

#: iteration-count buckets shared by every solver histogram
ITERATION_BUCKETS: Tuple[float, ...] = (1, 3, 10, 30, 100, 300, 1000, 3000, 10000)
#: residual buckets: log-spaced from "converged tight" to "diverged"
RESIDUAL_BUCKETS: Tuple[float, ...] = (
    1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 100.0)
#: wall-clock buckets for profiled hot paths
SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0)
#: verifier margin / bound-gap buckets (negative = unverified territory)
MARGIN_BUCKETS: Tuple[float, ...] = (
    -10.0, -1.0, -0.1, 0.0, 0.1, 1.0, 10.0, 100.0)
#: simulated queueing-latency buckets for the serving layer: fine around
#: the tick scale (0.05-0.5 s), coarser toward the age-limit tail, so a
#: bucket-estimated p99 stays within one tick-ish of the sample p99
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.7, 1.0,
    1.5, 2.0, 3.0, 5.0, 10.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def bucket_quantile(
    edges: Tuple[float, ...],
    counts,
    count: int,
    vmin: float,
    vmax: float,
    q: float,
) -> float:
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    ``edges`` are ascending inclusive upper bounds; ``counts`` has
    ``len(edges) + 1`` entries (the last is the overflow bucket).  The
    estimate interpolates linearly inside the bucket containing the
    target rank, clamped to the observed ``[vmin, vmax]`` — so it is
    always within one bucket width of the exact sample quantile (the
    property tests pin this against ``np.percentile``).  Returns NaN on
    an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError("quantile q must be in [0, 1]")
    if count <= 0:
        return math.nan
    # fractional 0-indexed target rank, matching np.percentile's default
    # linear interpolation
    target = q * (count - 1)
    cum_before = 0
    for b, n in enumerate(counts):
        if n and cum_before + n > target:
            lo = vmin if b == 0 else edges[b - 1]
            hi = vmax if b == len(edges) else edges[b]
            lo = max(lo, vmin)
            hi = min(hi, vmax)
            if hi <= lo:
                return lo
            frac = (target - cum_before) / max(n, 1)
            return lo + frac * (hi - lo)
        cum_before += n
    return vmax


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ConfigurationError("counters only go up; use a gauge")
        self.value = self.value + n


class Gauge:
    """A point-in-time value (breaker state index, queue depth, ...)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)


class Histogram:
    """Fixed-bucket histogram with inclusive upper bounds.

    ``buckets`` are ascending upper edges; an observation ``v`` lands in
    the first bucket with ``v <= edge`` and past the last edge in the
    overflow bucket, so ``counts`` has ``len(buckets) + 1`` entries.
    Tracks count/sum/min/max alongside the bucket counts, and an optional
    **exemplar** (see :func:`repro.obs.windows.span_exemplar`) for the max
    observation.  This is the one histogram state: the windowed
    instruments of :mod:`repro.obs.windows` hold one per time slot.
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max", "exemplar")

    def __init__(self, buckets: Iterable[float]):
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ConfigurationError("histogram needs at least one bucket edge")
        if any(nxt <= prev for prev, nxt in zip(edges, edges[1:])):
            raise ConfigurationError("bucket edges must be strictly ascending")
        self.buckets = edges
        self.clear()

    def clear(self) -> None:
        """Forget every observation; the bucket edges stay."""
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.exemplar: Optional[dict] = None

    @classmethod
    def sharing(cls, buckets: Tuple[float, ...]) -> "Histogram":
        """An empty histogram holding ``buckets``, another histogram's
        validated edges, itself rather than a copy: the slots of a
        windowed instrument share its one edge tuple."""
        hist = cls.__new__(cls)
        hist.buckets = buckets
        hist.clear()
        return hist

    def observe(self, v: float, exemplar: Optional[dict] = None) -> None:
        """Record one value: exactly what ``observe_many((v,))`` records,
        the exemplar (when given) held if ``v`` raises the max or none is
        held yet."""
        v = float(v)
        self.counts[bisect.bisect_left(self.buckets, v)] += 1
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        elif self.exemplar is not None:
            return
        if exemplar is not None:
            self.exemplar = exemplar

    def observe_many(self, values: Iterable[float],
                     exemplar: Optional[Callable[[float], dict]] = None) -> None:
        """Record each value in order: ``sum`` adds them left to right,
        so a batch is bit-equal to one ``observe`` per value.  The
        exemplar becomes ``exemplar(v)`` of the max observation, or of the
        first one while there is none, and is built only for the value it
        ends up holding."""
        counts, edges = self.counts, self.buckets
        total, lo, hi, n = self.sum, self.min, self.max, 0
        kept = None  # the value whose exemplar is held at the end
        unset = self.exemplar is None
        for v in values:
            v = float(v)
            counts[bisect.bisect_left(edges, v)] += 1
            n += 1
            total += v
            if v < lo:
                lo = v
            if v > hi:
                hi = v
                kept = v
            elif unset and kept is None:
                kept = v
        self.count += n
        self.sum, self.min, self.max = total, lo, hi
        if exemplar is not None and kept is not None:
            self.exemplar = exemplar(kept)

    @classmethod
    def merged(cls, buckets: Tuple[float, ...],
               hists: Sequence["Histogram"]) -> "Histogram":
        """A new histogram over ``buckets`` (the edges every one of
        ``hists`` has) holding ``hists`` merged in order.  The integer
        bucket counts are summed by column (exact in any order); one pass
        over the non-empty histograms adds ``sum`` left to right (never
        the compensated builtin ``sum`` of Python >= 3.12), keeps the
        least ``min``, and takes ``max`` and its exemplar (when it has
        one) from each histogram that strictly raises the max so far."""
        acc = cls.sharing(buckets)
        if hists:
            acc.counts = list(map(sum, zip(*map(_COUNTS, hists))))
        count, total, lo, hi, exemplar = 0, 0.0, math.inf, -math.inf, None
        for n, s, s_lo, s_hi, s_exemplar in map(_FIELDS, hists):
            count += n
            total += s
            if n:
                if s_lo < lo:
                    lo = s_lo
                if s_hi > hi:
                    hi = s_hi
                    if s_exemplar is not None:
                        exemplar = s_exemplar
        acc.count, acc.sum, acc.min, acc.max = count, total, lo, hi
        acc.exemplar = exemplar
        return acc

    @property
    def mean(self) -> float:
        return self.sum / max(self.count, 1)

    def quantile(self, q: float) -> float:
        """Bucket-estimated ``q``-quantile (see :func:`bucket_quantile`)."""
        return bucket_quantile(self.buckets, self.counts, self.count,
                               self.min, self.max, q)

    def percentiles(self) -> Dict[str, float]:
        """The standard p50/p95/p99 triple plus the sample count; zeros
        when empty, so report shapes stay stable on idle services."""
        if self.count == 0:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "n": 0.0}
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99), "n": float(self.count)}

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }


_COUNTS = operator.attrgetter("counts")
_FIELDS = operator.attrgetter("count", "sum", "min", "max", "exemplar")


class MetricsRegistry:
    """Create-on-first-use store of counters, gauges, and histograms."""

    def __init__(self):
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        self._windows: Dict[Tuple[str, LabelKey], object] = {}
        self._sections = {"counters": self._counters, "gauges": self._gauges,
                          "histograms": self._histograms,
                          "windows": self._windows}
        #: section -> (series key, rendered key, instrument) per series,
        #: kept in series-key order as series are created
        self._ordered: Dict[str, list] = {name: [] for name in self._sections}
        #: bumped by :meth:`reset`, which orphans every instrument handed
        #: out so far (see :class:`Handles`)
        self.generation = 0

    def _create(self, section: str, key: Tuple[str, LabelKey], instrument):
        """Register a new series, its key rendered once, in key order."""
        self._sections[section][key] = instrument
        bisect.insort(self._ordered[section],
                      (key, _render_key(*key), instrument))
        return instrument

    # ---- instrument accessors ------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        key = (name, _label_key(labels))
        found = self._counters.get(key)
        if found is None:
            found = self._create("counters", key, Counter())
        return found

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = (name, _label_key(labels))
        found = self._gauges.get(key)
        if found is None:
            found = self._create("gauges", key, Gauge())
        return found

    def histogram(self, name: str, buckets: Optional[Iterable[float]] = None,
                  **labels: object) -> Histogram:
        """Get or create; ``buckets`` only matters on first creation (the
        series keeps the edges it was born with)."""
        key = (name, _label_key(labels))
        found = self._histograms.get(key)
        if found is None:
            found = self._create("histograms", key, Histogram(
                SECONDS_BUCKETS if buckets is None else buckets))
        return found

    def rolling(self, name: str, factory, **labels: object):
        """Get or create a windowed instrument (a rolling counter or
        histogram from :mod:`repro.obs.windows` — anything exposing
        ``to_dict()``).  ``factory`` only runs on first creation, so the
        series keeps the window/clock it was born with; registered
        instruments ride along in :meth:`snapshot` under ``"windows"``.
        """
        key = (name, _label_key(labels))
        found = self._windows.get(key)
        if found is None:
            found = self._create("windows", key, factory())
        return found

    # ---- queries -------------------------------------------------------------
    def counter_value(self, name: str, **labels: object) -> float:
        """Current count, 0 for a series never incremented."""
        found = self._counters.get((name, _label_key(labels)))
        return 0.0 if found is None else found.value

    def counters_matching(self, name: str) -> Dict[str, float]:
        """All series of one counter name, rendered-key -> value."""
        return {
            _render_key(n, labels): c.value
            for (n, labels), c in self._counters.items()
            if n == name
        }

    def snapshot(self) -> dict:
        """JSON-ready dump of every instrument, each section in key order."""
        ordered = self._ordered
        return {
            "counters": {k: c.value for _, k, c in ordered["counters"]},
            "gauges": {k: g.value for _, k, g in ordered["gauges"]},
            "histograms": {k: h.to_dict() for _, k, h in ordered["histograms"]},
            "windows": {k: w.to_dict() for _, k, w in ordered["windows"]},
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._windows.clear()
        for ordered in self._ordered.values():
            ordered.clear()
        self.generation += 1


class Handles:
    """Instruments of the ambient registry, resolved once per key.

    A hot path that records into the same few series again and again
    (a shard's per-class latency histograms) looks each one up as
    ``handles.get(key, resolve)``: ``resolve(registry)`` runs on the
    first use of ``key`` only, so the series' label key is not rebuilt
    per record.  Installing another registry or resetting this one drops
    every handle, and the next use resolves afresh.
    """

    __slots__ = ("_bound",)

    def __init__(self):
        # (registry, its generation, key -> instrument), swapped as one
        self._bound: Tuple[Optional[MetricsRegistry], int, Dict[object, object]] = (
            None, -1, {})

    def get(self, key: object, resolve: Callable[[MetricsRegistry], object]):
        registry = _current_metrics
        bound = self._bound
        if bound[0] is not registry or bound[1] != registry.generation:
            bound = self._bound = (registry, registry.generation, {})
        found = bound[2].get(key)
        if found is None:
            found = bound[2][key] = resolve(registry)
        return found


_current_metrics = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry instrumented code records into."""
    return _current_metrics


def set_metrics(registry: MetricsRegistry) -> None:
    global _current_metrics
    _current_metrics = registry


class use_metrics:
    """Context manager: install a registry for a block, then restore."""

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = get_metrics()
        set_metrics(self._registry)
        return self._registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_metrics(self._previous)
        return False


#: the per-solve series, resolved once per (series, solver)
_SOLVER_HANDLES = Handles()


def record_solver_outcome(
    solver: str,
    iterations: int,
    converged: bool,
    residual: Optional[float] = None,
) -> None:
    """One solve's outcome: the single metrics call every instrumented
    solver loop makes on exit (constant cost, independent of iterations),
    into the ambient registry.
    """
    get = _SOLVER_HANDLES.get
    get(("solver.solves", solver),
        lambda m: m.counter("solver.solves", solver=solver)).inc()
    if not converged:
        get(("solver.failures", solver),
            lambda m: m.counter("solver.failures", solver=solver)).inc()
    get(("solver.iterations", solver), lambda m: m.histogram(
        "solver.iterations", buckets=ITERATION_BUCKETS, solver=solver)).observe(iterations)
    if residual is not None and math.isfinite(residual):
        get(("solver.residual", solver), lambda m: m.histogram(
            "solver.residual", buckets=RESIDUAL_BUCKETS, solver=solver)).observe(residual)
