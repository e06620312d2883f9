"""Zero-dependency observability: tracing, metrics, and profiling hooks.

The paper's central claim is operational — the RCR stack must *degrade
gracefully* under diverse QoS load — and PR 2 built the machinery
(budgets, fallback ladders, circuit breaker, chaos harness).  This
package makes that machinery *visible*:

* :class:`Tracer` — nested spans (wall + CPU time via injectable clocks,
  attributes, exception status) with a JSONL exporter, and a
  :class:`NoopTracer` default so instrumented code pays ~nothing when
  nobody is watching;
* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket
  histograms for iteration counts, residuals, rung indices, breaker
  transitions, chaos injections, and verifier bound quality;
* :func:`profiled` / :func:`profile_block` — one-line instrumentation
  for hot paths;
* ``python -m repro.obs summarize trace.jsonl`` — per-span p50/p95/max
  aggregates, rung usage, and breaker/chaos event counts, as a text
  table or machine-readable JSON.

Telemetry v2 adds the streaming layer a long-running service needs:

* :class:`RollingCounter` / :class:`RollingHistogram` /
  :class:`HistogramSeries` — windowed rates and percentiles in bounded
  memory over an injectable clock (``repro.obs.windows``);
* :class:`SLO` / :class:`SLOSet` — declarative per-QoS-class objectives
  with SRE-style multi-window error-budget burn-rate monitors emitting
  ``slo.burn`` events (``repro.obs.slo``);
* :class:`SampledTracer` — deterministic head sampling with
  always-sample-on-error and a hard record cap, plus
  :func:`span_exemplar` linking and bucket-max exemplars
  (``repro.obs.sampling``);
* ``python -m repro.obs export|tail|report`` — Prometheus-style text
  exposition of a registry snapshot, structured-event tailing, and the
  per-shard ops table from a recorded ``QoSService.health()``
  (``repro.obs.export``).

Enable everything at once with :class:`Telemetry`::

    from repro.obs import Telemetry
    from repro.core import run_rcr_stack

    telemetry = Telemetry.recording()
    report = run_rcr_stack(telemetry=telemetry)
    telemetry.export("trace.jsonl")
    print(telemetry.metrics.snapshot()["counters"])

See docs/OBSERVABILITY.md for naming conventions and the full story.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import (
    ITERATION_BUCKETS,
    MARGIN_BUCKETS,
    RESIDUAL_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Handles,
    Histogram,
    MetricsRegistry,
    get_metrics,
    record_solver_outcome,
    set_metrics,
    use_metrics,
)
from repro.obs.export import (
    format_event,
    iter_events,
    render_ops_table,
    render_prometheus,
    render_scenario_summary,
    watch,
)
from repro.obs.metrics import LATENCY_BUCKETS, bucket_quantile
from repro.obs.profile import profile_block, profiled
from repro.obs.sampling import HeadSampler, SampledTracer
from repro.obs.slo import (
    DEFAULT_SERVE_SLOS,
    SLO,
    SLOMonitor,
    SLOSet,
    SLOStatus,
)
from repro.obs.summarize import aggregate, load_trace, render_text
from repro.obs.tracer import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    SpanRecord,
    Tracer,
    current_span,
    get_tracer,
    set_tracer,
    use_tracer,
)

from repro.obs.windows import (
    HistogramSeries,
    RollingCounter,
    RollingHistogram,
    span_exemplar,
)

__all__ = [
    "Counter",
    "DEFAULT_SERVE_SLOS",
    "Gauge",
    "Handles",
    "HeadSampler",
    "Histogram",
    "HistogramSeries",
    "ITERATION_BUCKETS",
    "LATENCY_BUCKETS",
    "MARGIN_BUCKETS",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NoopTracer",
    "RESIDUAL_BUCKETS",
    "RollingCounter",
    "RollingHistogram",
    "SECONDS_BUCKETS",
    "SLO",
    "SLOMonitor",
    "SLOSet",
    "SLOStatus",
    "SampledTracer",
    "Span",
    "SpanRecord",
    "Telemetry",
    "Tracer",
    "aggregate",
    "bucket_quantile",
    "current_span",
    "format_event",
    "get_metrics",
    "get_tracer",
    "iter_events",
    "load_trace",
    "profile_block",
    "profiled",
    "record_solver_outcome",
    "render_ops_table",
    "render_scenario_summary",
    "render_prometheus",
    "render_text",
    "set_metrics",
    "set_tracer",
    "span_exemplar",
    "use_metrics",
    "use_tracer",
    "watch",
]


@dataclass
class Telemetry:
    """A tracer + metrics registry bundled for one instrumented run.

    ``run_rcr_stack(telemetry=Telemetry.recording())`` installs both for
    the duration of the run; :meth:`export` writes the JSONL trace that
    ``python -m repro.obs summarize`` aggregates.
    """

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def recording(cls) -> "Telemetry":
        """A fresh recording tracer plus a fresh registry."""
        return cls(Tracer(), MetricsRegistry())

    def export(self, path) -> int:
        """Write the trace as JSONL; returns the record count."""
        return self.tracer.export_jsonl(path)

    def install(self):
        """Context manager installing both tracer and registry globally.

        >>> with telemetry.install():
        ...     run_instrumented_code()
        """
        from contextlib import ExitStack

        stack = ExitStack()
        stack.enter_context(use_tracer(self.tracer))
        stack.enter_context(use_metrics(self.metrics))
        return stack
