"""The scrape path against slow, obviously-correct oracles.

A scrape renders four things: ``QoSService.health()``, the ops table
made from it, ``MetricsRegistry.snapshot()`` and the Prometheus text made
from that.  Each fast path (the exposition memo, the registry's
pre-rendered keys and cached order, the column-wise merge of a rolling
window) must return exactly what the straightforward implementation
below returns: the same text byte for byte, the same dicts, the same
float bits.  The oracles are kept here, outside ``src/``, so a change to
the library cannot change them too.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import (Histogram, MetricsRegistry, RollingHistogram, Telemetry,
                       bucket_quantile, use_metrics)
from repro.obs import export
from repro.obs.export import render_ops_table, render_prometheus
from repro.obs.windows import HistogramSeries

pytestmark = pytest.mark.obs


# ---- oracles -----------------------------------------------------------------

_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")
_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _oracle_parse_key(rendered: str):
    m = _KEY_RE.match(rendered)
    if m is None:
        return rendered, {}
    labels: Dict[str, str] = {}
    raw = m.group("labels")
    if raw:
        for part in raw.split(","):
            k, _, v = part.partition("=")
            labels[k] = v
    return m.group("name"), labels


def _oracle_prom_name(name: str) -> str:
    return _BAD_CHARS.sub("_", name.replace(".", "_"))


def _oracle_prom_labels(labels, extra=None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{_oracle_prom_name(k)}="{v}"' for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def oracle_render_prometheus(snapshot: dict) -> str:
    """Every key parsed and every label set sorted again on each call."""
    lines: List[str] = []
    for key, value in snapshot.get("counters", {}).items():
        name, labels = _oracle_parse_key(key)
        pname = _oracle_prom_name(name) + "_total"
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname}{_oracle_prom_labels(labels)} {value}")
    for key, value in snapshot.get("gauges", {}).items():
        name, labels = _oracle_parse_key(key)
        pname = _oracle_prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname}{_oracle_prom_labels(labels)} {value}")
    for key, hist in snapshot.get("histograms", {}).items():
        name, labels = _oracle_parse_key(key)
        pname = _oracle_prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        cum = 0
        for edge, n in zip(hist.get("buckets", []), hist.get("counts", [])):
            cum += n
            lines.append(
                f"{pname}_bucket{_oracle_prom_labels(labels, {'le': repr(float(edge))})} {cum}")
        lines.append(
            f"{pname}_bucket{_oracle_prom_labels(labels, {'le': '+Inf'})} {hist.get('count', 0)}")
        lines.append(f"{pname}_sum{_oracle_prom_labels(labels)} {hist.get('sum', 0.0)}")
        lines.append(f"{pname}_count{_oracle_prom_labels(labels)} {hist.get('count', 0)}")
    for key, win in snapshot.get("windows", {}).items():
        name, labels = _oracle_parse_key(key)
        pname = _oracle_prom_name(name)
        if win.get("kind") == "rolling_counter":
            lines.append(f"# TYPE {pname}_rate gauge")
            lines.append(f"{pname}_rate{_oracle_prom_labels(labels)} {win.get('rate', 0.0)}")
            lines.append(f"# TYPE {pname}_window_total gauge")
            lines.append(
                f"{pname}_window_total{_oracle_prom_labels(labels)} {win.get('total', 0.0)}")
        else:
            pcts = win.get("percentiles", {})
            lines.append(f"# TYPE {pname} summary")
            for label, q in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
                if label in pcts:
                    lines.append(
                        f"{pname}{_oracle_prom_labels(labels, {'quantile': q})} {pcts[label]}")
            lines.append(f"{pname}_count{_oracle_prom_labels(labels)} {win.get('count', 0)}")
            exemplar = win.get("exemplar")
            if exemplar:
                lines.append(f"# EXEMPLAR {pname}{_oracle_prom_labels(labels)} "
                             f"{json.dumps(exemplar, sort_keys=True)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _oracle_render_key(name: str, labels) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def oracle_registry_snapshot(registry: MetricsRegistry) -> dict:
    """Every key rendered and every section sorted again on each call."""
    return {
        "counters": {_oracle_render_key(n, labels): c.value
                     for (n, labels), c in sorted(registry._counters.items())},
        "gauges": {_oracle_render_key(n, labels): g.value
                   for (n, labels), g in sorted(registry._gauges.items())},
        "histograms": {_oracle_render_key(n, labels): h.to_dict()
                       for (n, labels), h in sorted(registry._histograms.items())},
        "windows": {_oracle_render_key(n, labels): w.to_dict()
                    for (n, labels), w in sorted(registry._windows.items(),
                                                 key=lambda kv: kv[0])},
    }


def oracle_merge(edges, slots) -> Histogram:
    """One slot at a time, one bucket at a time."""
    acc = Histogram(edges)
    for other in slots:
        for i, n in enumerate(other.counts):
            acc.counts[i] += n
        acc.count += other.count
        acc.sum += other.sum
        if other.count:
            acc.min = min(acc.min, other.min)
            if other.max > acc.max:
                acc.max = other.max
                if other.exemplar is not None:
                    acc.exemplar = other.exemplar
    return acc


def oracle_percentiles(slot: Histogram, edges) -> dict:
    if slot.count == 0:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "n": 0.0}
    return {name: bucket_quantile(edges, slot.counts, slot.count,
                                  slot.min, slot.max, q)
            for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))} | {
        "n": float(slot.count)}


def oracle_window(ring: RollingHistogram) -> Histogram:
    """A rolling histogram's live window, merged slot by slot."""
    ring._advance()
    lo = max(0, ring._cur - ring.n_slots + 1)
    return oracle_merge(ring.buckets, [
        ring._slots[idx % ring.n_slots] for idx in range(lo, ring._cur + 1)])


def oracle_shard_snapshot(shard, now_s: float) -> dict:
    window = oracle_window(shard.latency_window)
    return {
        "cell": shard.cell,
        "state": shard.overload.state,
        "breaker": shard.breaker.state,
        "depth": shard.queue.depth(),
        "backpressure": shard.queue.backpressure(),
        "oldest_age_s": shard.queue.oldest_age_s(now_s),
        "frames": shard.frames,
        "frames_dropped": shard.frames_dropped,
        "served_ues": {svc.value: n for svc, n in
                       sorted(shard.served_ues.items(), key=lambda kv: kv[0].value)},
        "shed_ues": {
            cause: {svc.value: n for svc, n in
                    sorted(table.items(), key=lambda kv: kv[0].value)}
            for cause, table in (("depth", shard.queue.stats.shed_depth),
                                 ("age", shard.queue.stats.shed_age))},
        "transitions": len(shard.overload.transitions),
        "latency": oracle_percentiles(window, shard.latency_window.buckets),
        "exemplar": window.exemplar,
        "rung_usage": dict(sorted(shard.rung_counts.items())),
    }


def oracle_health(service) -> dict:
    from repro.serve.overload import NORMAL, STATES

    snaps = [oracle_shard_snapshot(s, service.now_s) for s in service.shards]
    by_state = {state: 0 for state in STATES}
    for s in snaps:
        by_state[s["state"]] += 1
    return {
        "time_s": service.now_s,
        "running": service._running,
        "live": service.liveness(),
        "healthy": (by_state[NORMAL] * 2 >= len(snaps)
                    and not service._slo_burning),
        "states": by_state,
        "depth": sum(s["depth"] for s in snaps),
        "frames": service._frame,
        "shards": snaps,
        "slo": {
            "status": service.slos.snapshot(),
            "burning_classes": service.slos.burning_classes(),
            "any_burning": service._slo_burning,
        },
    }


_SHARD_COLS = ("cell", "state", "breaker", "depth", "press", "p50", "p95",
               "p99", "rungs", "dropped", "shed d/a", "urllc d/a")


def _oracle_fmt(v, width: int) -> str:
    if isinstance(v, float):
        return f"{v:>{width}.3f}"
    return f"{v!s:>{width}}"


def _oracle_shed_causes(s: dict, service_class: Optional[str]) -> str:
    shed = s.get("shed_ues")
    if not shed:
        return "-"
    return "/".join(
        str(sum(n for cls, n in shed.get(cause, {}).items()
                if service_class is None or cls == service_class))
        for cause in ("depth", "age"))


def _oracle_shard_row(s: dict) -> list:
    pcts = s.get("latency", {}) or {}
    rungs = s.get("rung_usage", {}) or {}
    rung_str = ",".join(f"{k}:{v}" for k, v in sorted(rungs.items())) or "-"
    return [s.get("cell", "?"), s.get("state", "?"), s.get("breaker", "?"),
            s.get("depth", 0), round(float(s.get("backpressure", 0.0)), 2),
            pcts.get("p50", 0.0), pcts.get("p95", 0.0), pcts.get("p99", 0.0),
            rung_str, s.get("frames_dropped", 0), _oracle_shed_causes(s, None),
            _oracle_shed_causes(s, "URLLC")]


def oracle_render_ops_table(health: dict) -> str:
    out: List[str] = []
    out.append(
        f"t={health.get('time_s', 0.0):.1f}s  running={health.get('running')}  "
        f"healthy={health.get('healthy')}  depth={health.get('depth', 0)}  "
        f"frames={health.get('frames', 0)}")
    states = health.get("states", {})
    if states:
        out.append("states: " + "  ".join(f"{k}={v}" for k, v in states.items()))
    shards = health.get("shards", [])
    if shards:
        widths = [5, 12, 10, 6, 6, 7, 7, 7, 24, 8, 13, 10]
        out.append("")
        out.append(" ".join(f"{c:>{w}}" for c, w in zip(_SHARD_COLS, widths)))
        for s in shards:
            out.append(" ".join(
                _oracle_fmt(v, w) for v, w in zip(_oracle_shard_row(s), widths)))
    slo = health.get("slo", {})
    statuses = slo.get("status", slo) if isinstance(slo, dict) else {}
    if statuses:
        out.append("")
        out.append(f"{'slo':>16} {'class':>6} {'kind':>10} {'fast':>8} "
                   f"{'slow':>8} {'budget':>7} {'burning':>8}")
        for name in sorted(statuses):
            st_ = statuses[name]
            if not isinstance(st_, dict):
                continue
            out.append(
                f"{name:>16} {st_.get('service_class', '?'):>6} "
                f"{st_.get('kind', '?'):>10} {st_.get('fast_burn', 0.0):>8.2f} "
                f"{st_.get('slow_burn', 0.0):>8.2f} "
                f"{st_.get('budget_remaining', 1.0):>7.2f} "
                f"{'BURN' if st_.get('burning') else 'ok':>8}")
        if slo.get("burning_classes"):
            out.append("burning classes: " + ", ".join(slo["burning_classes"]))
    return "\n".join(out) + "\n"


# ---- exposition ----------------------------------------------------------------

SECTIONS = ("counters", "gauges", "histograms", "windows")

#: label names on both sides of ``le``/``quantile`` (and ``le`` itself),
#: plus ones that need escaping
_LABEL_NAMES = ("a", "cell", "le", "lf", "quantile", "r", "zone", "z-z", "k.x")
_EDGE_SETS = ((0.0, 1.0), (-0.0, 1.0), (1e-05, 0.1, 10.0), (0.5,), (1, 2.5))

_names = st.text(alphabet="ab.-_: /9", min_size=1, max_size=6).filter(
    lambda n: "{" not in n)
_label_sets = st.dictionaries(st.sampled_from(_LABEL_NAMES),
                              st.text(alphabet="xy0.-_ ", max_size=3), max_size=3)


@st.composite
def _keys(draw) -> str:
    name, labels = draw(_names), draw(_label_sets)
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


_values = st.floats(allow_nan=False, width=64) | st.integers(-5, 5)


@st.composite
def _histogram(draw) -> dict:
    edges = list(draw(st.sampled_from(_EDGE_SETS)))
    counts = draw(st.lists(st.integers(0, 9), min_size=len(edges) + 1,
                           max_size=len(edges) + 1))
    return {"buckets": edges, "counts": counts, "count": sum(counts),
            "sum": draw(_values)}


@st.composite
def _window(draw) -> dict:
    if draw(st.booleans()):
        return {"kind": "rolling_counter", "rate": draw(_values),
                "total": draw(_values)}
    pcts = draw(st.dictionaries(st.sampled_from(("p50", "p95", "p99", "n")),
                                _values, max_size=4))
    exemplar = draw(st.none() | st.fixed_dictionaries(
        {"value": _values}, optional={"span_id": st.integers(0, 99)}))
    return {"kind": "rolling_histogram", "percentiles": pcts,
            "count": draw(st.integers(0, 50)), "exemplar": exemplar}


_SECTION_VALUES = {"counters": _values, "gauges": _values,
                   "histograms": _histogram(), "windows": _window()}


@st.composite
def _scrapes(draw) -> List[dict]:
    """A few snapshots over one pool of keys: keys vanish and come back,
    and a key may change its edges or its window kind between scrapes."""
    pool = draw(st.lists(_keys(), min_size=1, max_size=8, unique=True))
    scrapes = []
    for _ in range(draw(st.integers(1, 5))):
        snap = {}
        for section in SECTIONS:
            keys = draw(st.lists(st.sampled_from(pool), max_size=len(pool),
                                 unique=True))
            snap[section] = {k: draw(_SECTION_VALUES[section]) for k in keys}
        scrapes.append(snap)
    return scrapes


def _memo_size() -> int:
    return sum(map(len, export._memo.values()))


def _series(snapshot: dict) -> int:
    return sum(len(snapshot.get(section, {})) for section in SECTIONS)


@given(_scrapes())
@settings(max_examples=300, deadline=None)
@example([{"histograms": {"h{zone=1}": {"buckets": [0.0, 1.0], "counts": [1, 2, 3],
                                        "count": 6, "sum": 1.5}}},
          {"histograms": {"h{zone=1}": {"buckets": [-0.0, 1.0], "counts": [1, 2, 3],
                                        "count": 6, "sum": 1.5}}}])
def test_exposition_matches_oracle_scrape_after_scrape(scrapes):
    for snapshot in scrapes:
        assert render_prometheus(snapshot) == oracle_render_prometheus(snapshot)
        assert _memo_size() == _series(snapshot)


def test_bucket_edges_change_between_scrapes():
    key = "serve.latency{a=1,zone=x}"
    for edges in ([0.1, 1.0], [0.1, 1.0, 10.0], [0.0, 1.0], [-0.0, 1.0], [0.1, 1.0]):
        snap = {"histograms": {key: {"buckets": edges, "counts": [1] * (len(edges) + 1),
                                     "count": len(edges) + 1, "sum": 2.0}}}
        assert render_prometheus(snap) == oracle_render_prometheus(snap)


def test_memo_holds_only_the_latest_snapshot():
    big = {"counters": {f"c{{cell={i}}}": 1.0 for i in range(50)},
           "histograms": {"h": {"buckets": [1.0], "counts": [1, 0], "count": 1,
                                "sum": 0.5}}}
    render_prometheus(big)
    assert _memo_size() == 51
    small = {"gauges": {"g": 2.0}, "counters": {"c{cell=3}": 4.0}}
    assert render_prometheus(small) == oracle_render_prometheus(small)
    assert _memo_size() == 2
    assert render_prometheus({}) == ""
    assert _memo_size() == 0


# ---- registry snapshot ---------------------------------------------------------

_ops = st.lists(st.tuples(
    st.sampled_from(("counter", "gauge", "histogram", "rolling", "snapshot", "reset")),
    st.sampled_from(("a", "b.c", "z")), _label_sets, st.floats(0, 10)),
    max_size=40)


@given(_ops)
@settings(max_examples=200, deadline=None)
def test_registry_snapshot_matches_oracle(ops):
    from repro.obs import RollingCounter

    registry = MetricsRegistry()
    for kind, name, labels, v in ops:
        if kind == "counter":
            registry.counter(name, **labels).inc(v)
        elif kind == "gauge":
            registry.gauge(name, **labels).set(v)
        elif kind == "histogram":
            registry.histogram(name, buckets=(1.0, 5.0), **labels).observe(v)
        elif kind == "rolling":
            registry.rolling(name, lambda: RollingCounter(clock=lambda: 0.0),
                             **labels).inc(v)
        elif kind == "reset":
            registry.reset()
        snap = registry.snapshot()
        # same keys, same values, same order
        assert json.dumps(snap) == json.dumps(oracle_registry_snapshot(registry))
    for name in ("a", "b.c", "z"):
        assert registry.counters_matching(name) == {
            k: v for k, v in oracle_registry_snapshot(registry)["counters"].items()
            if k.split("{")[0] == name}


# ---- rolling-window merge ------------------------------------------------------

def _slot_state(slot: Histogram) -> tuple:
    return (slot.counts, slot.count, slot.sum.hex(), slot.min, slot.max,
            slot.exemplar)


_latencies = st.lists(st.sampled_from((0.0, -0.0, 0.05, 0.3, 0.3, 2.0, 1e16, -1e16, 1.0))
                      | st.floats(-1e3, 1e3), max_size=5)


@given(st.lists(st.tuples(st.integers(0, 4), _latencies, st.booleans()), max_size=30))
@settings(max_examples=300, deadline=None)
@example([(0, [1.0], True), (1, [1e16], True), (1, [-1e16], False)])
def test_window_merge_matches_slot_by_slot_oracle(steps):
    now = [0.0]
    ring = RollingHistogram(buckets=(0.1, 0.5, 1.0), window_s=4.0, n_slots=4,
                            clock=lambda: now[0])
    series = HistogramSeries(slot_s=1.0, buckets=(0.1, 0.5, 1.0))
    for i, (advance, values, with_exemplar) in enumerate(steps):
        now[0] += advance
        exemplar = (lambda v, i=i: {"value": v, "step": i}) if with_exemplar else None
        ring.observe_many(values, exemplar=exemplar)
        series.observe_many(now[0], values, exemplar=exemplar)
        assert _slot_state(ring._merged()) == _slot_state(oracle_window(ring))
        assert ring.to_dict()["percentiles"] == oracle_percentiles(
            oracle_window(ring), ring.buckets)
    for t0, t1 in ((0.0, math.inf), (2.0, 5.0)):
        oracle = oracle_merge(series.buckets, [s for idx, s in series._slots.items()
                                  if idx < t1 and idx + 1 > t0])
        assert _slot_state(series._merged(t0, t1)) == _slot_state(oracle)


def test_window_sum_adds_slots_left_to_right():
    """Slot sums 1.0, 1e16, -1e16: left to right gives 0.0; any other order,
    or a compensated sum, gives 1.0."""
    now = [0.0]
    ring = RollingHistogram(buckets=(1.0,), window_s=3.0, n_slots=3,
                            clock=lambda: now[0])
    for v in (1.0, 1e16, -1e16):
        ring.observe(v)
        now[0] += 1.0
    now[0] -= 1.0
    assert ring._merged().sum == 0.0
    assert ring._merged().sum.hex() == oracle_window(ring).sum.hex()


@given(st.lists(st.tuples(st.integers(0, 5), _latencies, st.booleans()), max_size=12),
       st.lists(st.tuples(st.integers(0, 5), _latencies, st.booleans()), max_size=12))
@settings(max_examples=200, deadline=None)
def test_series_merge_matches_slot_by_slot_oracle(mine, theirs):
    def build(steps):
        series = HistogramSeries(slot_s=1.0, buckets=(0.1, 0.5, 1.0))
        for i, (t, values, with_exemplar) in enumerate(steps):
            exemplar = (lambda v, i=i: {"value": v, "step": i}) if with_exemplar else None
            series.observe_many(float(t), values, exemplar=exemplar)
        return series

    series, other = build(mine), build(theirs)
    want = {idx: _slot_state(slot) for idx, slot in series._slots.items()}
    for idx, slot in other._slots.items():
        want[idx] = _slot_state(oracle_merge(series.buckets, [
            s for s in (series._slots.get(idx), slot) if s is not None]))
    before = {idx: _slot_state(slot) for idx, slot in other._slots.items()}
    series.merge(other)
    assert {idx: _slot_state(slot) for idx, slot in series._slots.items()} == want
    # the merged series shares no slot with the one merged in
    series.observe_many(0.0, [0.3])
    assert {idx: _slot_state(slot) for idx, slot in other._slots.items()} == before


# ---- ops table -----------------------------------------------------------------

@pytest.mark.parametrize("shard", [
    {},
    {"cell": 3, "state": "normal", "latency": {"p50": 0, "p95": 1, "p99": 2.5},
     "shed_ues": {"depth": {"eMBB": 4, "URLLC": 1}}, "rung_usage": {"greedy": 2}},
    {"cell": "7", "backpressure": 1, "depth": 2.0, "frames_dropped": True,
     "shed_ues": {"age": {"URLLC": 2.5, "mMTC": 1}, "depth": {}}, "latency": None},
    {"cell": 1, "shed_ues": {}, "rung_usage": {}, "state": "shedding-long-name"},
])
def test_ops_table_matches_oracle_on_recorded_rows(shard):
    health = {"time_s": 3.25, "running": False, "shards": [shard, shard],
              "slo": {"x": {"service_class": "URLLC", "burning": True}}}
    assert render_ops_table(health) == oracle_render_ops_table(health)


# ---- the whole scrape on a seeded chaos service --------------------------------

@pytest.mark.serve
def test_scrapes_of_a_chaos_service_match_the_oracles():
    from repro.obs import SampledTracer
    from repro.qos.traffic import MMPPConfig
    from repro.resilience import FaultSpec
    from repro.serve import ArrivalConfig, QoSService, ServeConfig, ShardConfig

    cfg = ServeConfig(
        n_cells=6, seed=5, tick_s=0.1,
        arrivals=ArrivalConfig(base_rate_hz=20.0, batch_ues=125,
                               mmpp=MMPPConfig(idle_rate_hz=2.0, burst_rate_hz=20.0,
                                               mean_idle_s=2.5, mean_burst_s=1.2),
                               storm_ues=250),
        shard=ShardConfig(max_depth=20, max_age_s=2.0))
    telemetry = Telemetry(SampledTracer(0.05, 5), MetricsRegistry())
    scrapes = []

    def on_tick(svc) -> None:
        if round(svc.now_s * 10) % 10:
            return
        health = svc.health()
        assert json.dumps(health) == json.dumps(oracle_health(svc))
        ops = render_ops_table(health)
        assert ops == oracle_render_ops_table(health)
        snap = telemetry.metrics.snapshot()
        assert json.dumps(snap) == json.dumps(oracle_registry_snapshot(telemetry.metrics))
        assert render_prometheus(snap) == oracle_render_prometheus(snap)
        assert _memo_size() == _series(snap)
        scrapes.append(svc.now_s)

    with telemetry.install(), use_metrics(telemetry.metrics):
        QoSService(cfg).run(12.0, chaos=FaultSpec(exception_rate=0.08, nan_rate=0.04),
                            on_tick=on_tick)
    assert len(scrapes) >= 12
