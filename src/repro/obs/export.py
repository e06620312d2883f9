"""Exposition and ops-view rendering for telemetry snapshots.

Three consumers of the same data, three renderings:

* :func:`render_prometheus` — a :meth:`MetricsRegistry.snapshot` dict as
  Prometheus text exposition (counters as ``_total``, histograms as
  cumulative ``_bucket{le=...}`` series, windowed instruments as
  quantile gauges with exemplar comments), so the registry can be
  scraped or diffed with standard tooling.
* :func:`iter_events` / :func:`format_event` — tail the structured
  events (``slo.burn``, breaker flips, overload transitions) out of an
  exported trace JSONL.
* :func:`render_ops_table` — the live ops view: a per-shard table
  (queue depth, overload/breaker state, windowed p50/p95/p99, rung
  usage, shed UEs by cause) plus the per-SLO burn table, rendered from
  ``QoSService.health()`` output — live from a running service via
  :func:`watch`, or post-hoc from a recorded health snapshot through
  ``python -m repro.obs report``.

Everything here is pure dict-to-text: no service imports, so the obs
package stays dependency-free of the layers it observes.
"""

from __future__ import annotations

import itertools
import json
import re
from array import array
from typing import Callable, Dict, Iterable, Iterator, List, Optional

__all__ = [
    "render_prometheus",
    "iter_events",
    "format_event",
    "render_ops_table",
    "render_scenario_summary",
    "watch",
]

_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")
_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _parse_key(rendered: str):
    """Split a snapshot key ``name{k=v,...}`` into (name, label dict)."""
    m = _KEY_RE.match(rendered)
    if m is None:  # defensive: snapshot keys are always well-formed
        return rendered, {}
    labels: Dict[str, str] = {}
    raw = m.group("labels")
    if raw:
        for part in raw.split(","):
            k, _, v = part.partition("=")
            labels[k] = v
    return m.group("name"), labels


def _prom_name(name: str) -> str:
    """Metric names like ``serve.frame_latency_s`` -> Prometheus-safe."""
    return _BAD_CHARS.sub("_", name.replace(".", "_"))


def _prom_labels(labels: Dict[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{v}"' for k, v in sorted(merged.items()))
    return "{" + inner + "}"


class _Series:
    """One snapshot key parsed once: its Prometheus name and label text."""

    __slots__ = ("name", "labels", "text")

    def __init__(self, key: str):
        name, self.labels = _parse_key(key)
        self.name = _prom_name(name)
        self.text = _prom_labels(self.labels)

    def sample(self, suffix: str = "", extra: Optional[Dict[str, str]] = None) -> str:
        """``{name}{suffix}{labels} ``: a sample line up to its value,
        with the ``extra`` labels merged in."""
        labels = _prom_labels(self.labels, extra) if extra else self.text
        return f"{self.name}{suffix}{labels} "


def _counter_head(key: str) -> str:
    s = _Series(key)
    return f"# TYPE {s.name}_total counter\n{s.sample('_total')}"


def _gauge_head(key: str) -> str:
    s = _Series(key)
    return f"# TYPE {s.name} gauge\n{s.sample()}"


class _HistogramText:
    """A histogram key's lines up to their values, for one edge list."""

    __slots__ = ("edges", "head", "buckets", "inf", "sum", "count")

    def __init__(self, key: str, edges):
        s = _Series(key)
        self.edges = list(edges)
        self.head = f"# TYPE {s.name} histogram"
        self.buckets = [s.sample("_bucket", {"le": repr(float(edge))})
                        for edge in edges]
        self.inf = s.sample("_bucket", {"le": "+Inf"})
        self.sum = s.sample("_sum")
        self.count = s.sample("_count")

    def fits(self, edges) -> bool:
        """Whether these lines were rendered for ``edges``: the same
        values, and the same sign of a zero edge (``0.0 == -0.0``)."""
        return self.edges == edges and (
            0.0 not in edges or _bits(self.edges) == _bits(edges))


def _bits(edges) -> bytes:
    return array("d", edges).tobytes()


class _WindowText:
    """A windowed key's lines up to their values, for one kind: a rolling
    counter's rate and total, or a summary's quantiles, count and
    exemplar."""

    __slots__ = ("counter", "head", "quantiles", "count", "exemplar")

    def __init__(self, key: str, counter: bool):
        s = _Series(key)
        self.counter = counter
        if counter:
            self.head = (f"# TYPE {s.name}_rate gauge\n{s.sample('_rate')}",
                         f"# TYPE {s.name}_window_total gauge\n"
                         f"{s.sample('_window_total')}")
        else:
            self.head = f"# TYPE {s.name} summary"
            self.quantiles = [(label, s.sample("", {"quantile": q}))
                              for label, q in (("p50", "0.5"), ("p95", "0.95"),
                                               ("p99", "0.99"))]
            self.count = s.sample("_count")
            self.exemplar = f"# EXEMPLAR {s.sample()}"


#: section -> snapshot key -> its rendered text, for the keys of the
#: latest snapshot only: each render keeps what it used and drops the
#: rest, so the memo is bounded by the live series
_memo: Dict[str, dict] = {}


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot dict as Prometheus text exposition."""
    global _memo
    previous, memo = _memo, {}
    lines: List[str] = []
    append = lines.append

    for section, head in (("counters", _counter_head), ("gauges", _gauge_head)):
        values = snapshot.get(section, {})
        old = previous.get(section, {})
        heads = memo[section] = {key: old.get(key) or head(key) for key in values}
        lines.extend(map(str.__add__, heads.values(), map(format, values.values())))

    old = previous.get("histograms", {})
    texts = memo["histograms"] = {}
    for key, hist in snapshot.get("histograms", {}).items():
        edges = hist.get("buckets", [])
        text = old.get(key)
        if text is None or not text.fits(edges):
            text = _HistogramText(key, edges)
        texts[key] = text
        append(text.head)
        cum = itertools.accumulate(hist.get("counts", []), initial=0)
        next(cum)
        lines.extend(map(str.__add__, text.buckets, map(format, cum)))
        count = hist.get("count", 0)
        append(f"{text.inf}{count}\n{text.sum}{hist.get('sum', 0.0)}\n"
               f"{text.count}{count}")

    old = previous.get("windows", {})
    texts = memo["windows"] = {}
    for key, win in snapshot.get("windows", {}).items():
        counter = win.get("kind") == "rolling_counter"
        text = old.get(key)
        if text is None or text.counter != counter:
            text = _WindowText(key, counter)
        texts[key] = text
        if counter:
            append(f"{text.head[0]}{win.get('rate', 0.0)}")
            append(f"{text.head[1]}{win.get('total', 0.0)}")
            continue
        # rolling_histogram / histogram_series both carry percentiles
        pcts = win.get("percentiles", {})
        append(text.head)
        for label, line in text.quantiles:
            if label in pcts:
                append(f"{line}{pcts[label]}")
        append(f"{text.count}{win.get('count', 0)}")
        exemplar = win.get("exemplar")
        if exemplar:
            append(f"{text.exemplar}{json.dumps(exemplar, sort_keys=True)}")

    _memo = memo
    return "\n".join(lines) + ("\n" if lines else "")


# ---- event tailing -----------------------------------------------------------

def iter_events(records: Iterable[dict],
                name_prefix: Optional[str] = None) -> Iterator[dict]:
    """The ``kind == "event"`` records, optionally filtered by prefix."""
    for rec in records:
        if rec.get("kind") != "event":
            continue
        if name_prefix and not str(rec.get("name", "")).startswith(name_prefix):
            continue
        yield rec


def format_event(rec: dict) -> str:
    """One event as a grep-friendly line: ``t=12.300 slo.burn k=v ...``."""
    attrs = rec.get("attrs", {})
    rendered = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    t = rec.get("start_s", 0.0)
    return f"t={t:.3f} {rec.get('name', '?')} {rendered}".rstrip()


# ---- ops view ----------------------------------------------------------------

_SHARD_COLS = ("cell", "state", "breaker", "depth", "press", "p50", "p95",
               "p99", "rungs", "dropped", "shed d/a", "urllc d/a")
_SHARD_HEADER = " ".join(
    f"{c:>{w}}" for c, w in zip(_SHARD_COLS, (5, 12, 10, 6, 6, 7, 7, 7, 24, 8, 13, 10)))


def _fmt(v, width: int) -> str:
    if isinstance(v, float):
        return f"{v:>{width}.3f}"
    return f"{v!s:>{width}}"


def _shard_line(s: dict) -> str:
    """One shard's row of the ops table (see ``_SHARD_COLS``)."""
    pcts = s.get("latency", {}) or {}
    rungs = s.get("rung_usage", {}) or {}
    rung_str = ",".join(f"{k}:{v}" for k, v in sorted(rungs.items())) or "-"
    shed = s.get("shed_ues")
    if shed:
        depth, age = shed.get("depth", {}), shed.get("age", {})
        shed_all = f"{sum(depth.values())}/{sum(age.values())}"
        shed_urllc = (f"{sum(n for cls, n in depth.items() if cls == 'URLLC')}/"
                      f"{sum(n for cls, n in age.items() if cls == 'URLLC')}")
    else:  # a snapshot recorded without the split
        shed_all = shed_urllc = "-"
    return (f"{_fmt(s.get('cell', '?'), 5)} {_fmt(s.get('state', '?'), 12)} "
            f"{_fmt(s.get('breaker', '?'), 10)} {_fmt(s.get('depth', 0), 6)} "
            f"{round(float(s.get('backpressure', 0.0)), 2):>6.3f} "
            f"{_fmt(pcts.get('p50', 0.0), 7)} {_fmt(pcts.get('p95', 0.0), 7)} "
            f"{_fmt(pcts.get('p99', 0.0), 7)} {rung_str:>24} "
            f"{_fmt(s.get('frames_dropped', 0), 8)} {shed_all:>13} {shed_urllc:>10}")


def render_ops_table(health: dict) -> str:
    """The per-shard ops table plus the SLO burn table from a
    ``QoSService.health()`` snapshot (live or recorded)."""
    out: List[str] = []
    out.append(
        f"t={health.get('time_s', 0.0):.1f}s  running={health.get('running')}  "
        f"healthy={health.get('healthy')}  depth={health.get('depth', 0)}  "
        f"frames={health.get('frames', 0)}")
    states = health.get("states", {})
    if states:
        out.append("states: " + "  ".join(
            f"{k}={v}" for k, v in states.items()))

    shards = health.get("shards", [])
    if shards:
        out.append("")
        out.append(_SHARD_HEADER)
        out.extend(map(_shard_line, shards))

    slo = health.get("slo", {})
    statuses = slo.get("status", slo) if isinstance(slo, dict) else {}
    if statuses:
        out.append("")
        out.append(f"{'slo':>16} {'class':>6} {'kind':>10} {'fast':>8} "
                   f"{'slow':>8} {'budget':>7} {'burning':>8}")
        for name in sorted(statuses):
            st = statuses[name]
            if not isinstance(st, dict):
                continue
            out.append(
                f"{name:>16} {st.get('service_class', '?'):>6} "
                f"{st.get('kind', '?'):>10} {st.get('fast_burn', 0.0):>8.2f} "
                f"{st.get('slow_burn', 0.0):>8.2f} "
                f"{st.get('budget_remaining', 1.0):>7.2f} "
                f"{'BURN' if st.get('burning') else 'ok':>8}")
        if slo.get("burning_classes"):
            out.append("burning classes: " + ", ".join(slo["burning_classes"]))

    return "\n".join(out) + "\n"


def render_scenario_summary(canonical: dict) -> str:
    """Ops-style one-screen summary of a scenario pack's canonical report.

    Consumes the dict ``repro.scenarios.canonical_report`` produces (the
    same payload the scenario goldens pin) and renders the per-class
    offered/served/shed table, rung usage, and simulated-latency
    percentiles — pure dict-to-text, like every renderer in this module,
    so the scenarios CLI can print it without the obs package importing
    the scenario layer.
    """
    rep = canonical.get("report", canonical)
    out: List[str] = []
    out.append(
        f"scenario {canonical.get('scenario', '?')}  "
        f"seed={canonical.get('seed', '?')}  "
        f"duration={rep.get('duration_s', 0.0):.1f}s  "
        f"cells={rep.get('n_cells', 0)}  drained={rep.get('drained')}")
    offered = rep.get("offered_ues", {})
    served = rep.get("served_ues", {})
    shed = rep.get("shed_ues", {})
    shed_rate = rep.get("shed_rate", {})
    if offered:
        out.append("")
        out.append(f"{'class':>8} {'offered':>9} {'served':>9} {'shed':>7} "
                   f"{'shed_rate':>10}")
        for cls in sorted(offered):
            out.append(
                f"{cls:>8} {offered.get(cls, 0):>9} {served.get(cls, 0):>9} "
                f"{shed.get(cls, 0):>7} {shed_rate.get(cls, 0.0):>10.4f}")
    rungs = rep.get("rung_counts", {})
    if rungs:
        out.append("")
        out.append("rungs: " + "  ".join(
            f"{name}={n}" for name, n in sorted(rungs.items())))
    lat = rep.get("latency_s", {})
    if lat:
        out.append(
            f"sim latency: p50={lat.get('p50', 0.0):.3f}s "
            f"p95={lat.get('p95', 0.0):.3f}s p99={lat.get('p99', 0.0):.3f}s "
            f"(n={int(lat.get('n', 0))})")
    out.append(
        f"throughput={rep.get('throughput_ues_per_s', 0.0):.1f} UEs/s  "
        f"frames={rep.get('frames', 0)}  "
        f"dropped={rep.get('frames_dropped', 0)}  "
        f"transitions={rep.get('transitions', 0)}")
    return "\n".join(out) + "\n"


def watch(service, duration_s: float, every_s: float = 1.0,
          chaos=None,
          render: Callable[[dict], str] = render_ops_table,
          sink: Callable[[str], None] = print):
    """Run a :class:`~repro.serve.service.QoSService` for ``duration_s``
    simulated seconds, rendering the ops table every ``every_s`` of sim
    time via the service's ``on_tick`` hook.  Returns ``(report,
    snapshots)`` — the same health dicts the CLI's ``report`` mode
    renders from a recording."""
    snaps: List[dict] = []
    last = [-float("inf")]

    def on_tick(svc) -> None:
        if svc.now_s - last[0] >= every_s - 1e-9:
            last[0] = svc.now_s
            snap = svc.health()
            snaps.append(snap)
            sink(render(snap))

    report = service.run(duration_s, chaos=chaos, on_tick=on_tick)
    return report, snaps
