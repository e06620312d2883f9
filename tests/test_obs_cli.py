"""The ``python -m repro.obs`` CLI — summarize round-trips, malformed
input handling, and the telemetry-v2 subcommands (export/tail/report)
plus the live ``watch`` ops view."""

import json

import pytest

from repro.obs import (
    Telemetry,
    get_metrics,
    render_ops_table,
    render_prometheus,
    use_metrics,
    watch,
)
from repro.obs.summarize import load_trace, main as obs_main
from repro.serve import QoSService, ServeConfig, ShardConfig
from repro.serve.arrivals import ArrivalConfig

pytestmark = pytest.mark.obs


def _serve_trace(tmp_path, duration_s=2.0):
    """A real serve-generated telemetry bundle: (trace path, health)."""
    telemetry = Telemetry.recording()
    cfg = ServeConfig(n_cells=2, seed=5, tick_s=0.1,
                      arrivals=ArrivalConfig(base_rate_hz=4.0, batch_ues=6))
    svc = QoSService(cfg)
    with telemetry.install():
        svc.run(duration_s)
        health = svc.health()
    path = tmp_path / "trace.jsonl"
    telemetry.export(path)
    return path, health, telemetry


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------


class TestSummarize:
    def test_json_round_trip_on_serve_trace(self, tmp_path, capsys):
        trace, _, telemetry = _serve_trace(tmp_path)
        out = tmp_path / "report.json"
        assert obs_main(["summarize", str(trace), "--json", str(out)]) == 0
        text = capsys.readouterr().out
        report = json.loads(out.read_text())
        # the file and the table describe the same aggregation
        assert report["records"] == len(telemetry.tracer.records)
        assert f"trace: {report['records']} records" in text
        # a second aggregation of the same file is identical (pure)
        from repro.obs.summarize import aggregate

        assert aggregate(load_trace(trace)) == report

    def test_json_dash_prints_to_stdout(self, tmp_path, capsys):
        trace, _, _ = _serve_trace(tmp_path)
        assert obs_main(["summarize", str(trace), "--json", "-"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "spans" in report and "events" in report

    def test_empty_trace_file_is_fine(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert obs_main(["summarize", str(empty)]) == 0
        assert "0 records" in capsys.readouterr().out

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        good = json.dumps({"kind": "event", "name": "a", "attrs": {}})
        path.write_text(good + "\n" + good[: len(good) // 2])
        assert [r["name"] for r in load_trace(path)] == ["a"]

    def test_malformed_middle_line_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        good = json.dumps({"kind": "event", "name": "a", "attrs": {}})
        path.write_text(good + "\n{oops\n" + good + "\n")
        with pytest.raises(json.JSONDecodeError):
            load_trace(path)


# ---------------------------------------------------------------------------
# export (Prometheus exposition)
# ---------------------------------------------------------------------------


class TestExport:
    def test_renders_counters_gauges_histograms_windows(
            self, tmp_path, capsys):
        trace, _, telemetry = _serve_trace(tmp_path)
        snap_path = tmp_path / "snapshot.json"
        snap_path.write_text(json.dumps(telemetry.metrics.snapshot()))
        assert obs_main(["export", str(snap_path)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE serve_arrivals_total counter" in text
        assert 'serve_arrivals_total{kind="' in text
        # windowed instruments render as gauges/summaries
        assert "serve_breaker_flips" in text or "# TYPE" in text

    def test_exposition_core_forms(self, capsys, tmp_path):
        from repro.obs import MetricsRegistry, RollingCounter

        reg = MetricsRegistry()
        with use_metrics(reg):
            get_metrics().counter("solver.solves", solver="admm").inc(3)
            get_metrics().gauge("breaker.state", breaker="rra").set(2)
            get_metrics().histogram("solve.latency_s",
                                    buckets=(0.1, 1.0)).observe(0.5)
            get_metrics().rolling("serve.flips",
                                  lambda: RollingCounter(clock=lambda: 0.0),
                                  cell=0).inc(2.0)
        text = render_prometheus(reg.snapshot())
        assert 'solver_solves_total{solver="admm"} 3.0' in text
        assert 'breaker_state{breaker="rra"} 2' in text
        assert 'solve_latency_s_bucket{le="1.0"} 1' in text
        assert 'solve_latency_s_bucket{le="+Inf"} 1' in text
        assert 'serve_flips_window_total{cell="0"} 2.0' in text
        # and the CLI accepts a health-style dict carrying "metrics"
        wrapped = tmp_path / "health.json"
        wrapped.write_text(json.dumps({"metrics": reg.snapshot()}))
        assert obs_main(["export", str(wrapped)]) == 0
        assert 'solver_solves_total{solver="admm"}' in capsys.readouterr().out

    def test_summary_with_exemplar(self):
        from repro.obs import MetricsRegistry, RollingHistogram

        reg = MetricsRegistry()
        h = reg.rolling("serve.latency",
                        lambda: RollingHistogram(buckets=(0.1, 1.0),
                                                 clock=lambda: 0.0),
                        cell=1)
        h.observe(0.5, exemplar={"value": 0.5, "span_id": 9})
        text = render_prometheus(reg.snapshot())
        assert 'serve_latency{cell="1",quantile="0.5"}' in text
        assert '# EXEMPLAR serve_latency{cell="1"}' in text
        assert '"span_id": 9' in text


# ---------------------------------------------------------------------------
# tail
# ---------------------------------------------------------------------------


class TestTail:
    def test_filters_events_by_prefix_and_limit(self, tmp_path, capsys):
        trace, _, _ = _serve_trace(tmp_path)
        assert obs_main(["tail", str(trace), "--name", "ladder."]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines, "serve run emitted no ladder.* events"
        assert all(" ladder." in line and line.startswith("t=")
                   for line in lines)
        assert obs_main(["tail", str(trace), "--limit", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2


# ---------------------------------------------------------------------------
# report (ops table)
# ---------------------------------------------------------------------------


class TestReport:
    def test_renders_ops_table_from_health_json(self, tmp_path, capsys):
        _, health, _ = _serve_trace(tmp_path)
        path = tmp_path / "health.json"
        path.write_text(json.dumps(health, indent=2))  # pretty-printed ok
        assert obs_main(["report", str(path)]) == 0
        text = capsys.readouterr().out
        assert "healthy=" in text
        assert "cell" in text and "breaker" in text and "p99" in text
        assert "urllc-latency" in text    # the SLO table rides along

    def test_ops_table_shows_shed_causes(self):
        """Each shard row carries its shed UEs by cause (depth eviction /
        age expiry), for all classes and for URLLC, from ``QueueStats``."""
        svc = QoSService(ServeConfig(
            n_cells=2, seed=5, tick_s=0.1,
            shard=ShardConfig(max_depth=3, max_age_s=0.3),
            arrivals=ArrivalConfig(base_rate_hz=40.0, batch_ues=6)))
        svc.run(2.0)
        health = svc.health()
        for snap, shard in zip(health["shards"], svc.shards):
            stats = shard.queue.stats
            assert snap["shed_ues"] == {
                "depth": {c.value: n for c, n in stats.shed_depth.items()},
                "age": {c.value: n for c, n in stats.shed_age.items()}}
        rows = render_ops_table(health).splitlines()
        header = next(line for line in rows if "shed d/a" in line)
        assert "urllc d/a" in header
        for snap in health["shards"]:
            row = next(line for line in rows if line.split()[:1] == [str(snap["cell"])])
            depth = sum(snap["shed_ues"]["depth"].values())
            age = sum(snap["shed_ues"]["age"].values())
            assert depth + age > 0
            assert row.split()[-2] == f"{depth}/{age}"
        # a recorded snapshot without the split still renders
        old = {**health, "shards": [{k: v for k, v in s.items() if k != "shed_ues"}
                                    for s in health["shards"]]}
        assert render_ops_table(old).splitlines()[4].split()[-2:] == ["-", "-"]

    def test_jsonl_recording_renders_last_or_all(self, tmp_path, capsys):
        _, health, _ = _serve_trace(tmp_path)
        path = tmp_path / "health.jsonl"
        lines = [json.dumps({**health, "time_s": t}) for t in (1.0, 2.0)]
        path.write_text("\n".join(lines) + "\n")
        assert obs_main(["report", str(path)]) == 0
        assert "t=2.0s" in capsys.readouterr().out
        assert obs_main(["report", str(path), "--all"]) == 0
        text = capsys.readouterr().out
        assert "t=1.0s" in text and "t=2.0s" in text

    def test_empty_recording_fails_loudly(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert obs_main(["report", str(path)]) == 1
        assert "empty" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# watch (live ops view)
# ---------------------------------------------------------------------------


class TestWatch:
    def test_watch_samples_health_on_sim_time(self):
        telemetry = Telemetry.recording()
        cfg = ServeConfig(n_cells=2, seed=5, tick_s=0.1,
                          arrivals=ArrivalConfig(base_rate_hz=4.0,
                                                 batch_ues=6))
        rendered = []
        with telemetry.install():
            report, snaps = watch(QoSService(cfg), 3.0, every_s=1.0,
                                  sink=rendered.append)
        assert report.drained
        # one snapshot per simulated second (first tick + every 1 s)
        assert len(snaps) == len(rendered) == 3
        assert [round(s["time_s"], 1) for s in snaps] == [0.1, 1.1, 2.1]
        assert all("cell" in text for text in rendered)
