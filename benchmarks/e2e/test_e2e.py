"""Tests of the end-to-end serving benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hooks
import run
import workload

HERE = Path(__file__).resolve().parent


# ---- the percentile rule ---------------------------------------------------------

def test_intervals_exclude_the_arrival_generation_gap():
    # run() entered at 0; generating arrivals delays the first tick to 5 s
    ticks = [5.0 + 0.025 * i for i in range(401)]
    intervals = workload.tick_intervals_ms(ticks)
    assert len(intervals) == 400
    assert intervals == pytest.approx([25.0] * 400)


def test_p95_of_400_ticks_leaves_20_samples_beyond():
    samples = [float(i) for i in range(1, 401)]
    stats = workload.percentiles_ms(samples)
    assert stats["n"] == 400
    assert stats["p50"] == pytest.approx(200.5)
    assert stats["p95"] == pytest.approx(380.05)
    assert sum(s > stats["p95"] for s in samples) == 20


# ---- self times on synthetic spans -----------------------------------------------

SPANS = [
    # name, start, end, tick, value
    ("serve.service.run", 0.0, 10.0, 0, 0.0),
    ("serve.arrivals.generate", 0.0, 1.0, 0, 7.0),
    ("parallel.map_solve", 2.0, 8.0, 1, 900.0),
    ("serve.shard.solve_task", 2.0, 5.0, 1, 0.0),
    ("minlp.solve_milp", 2.5, 4.5, 1, 3.0),
    ("convex.solve_lp", 3.0, 4.0, 1, 0.0),
    ("serve.shard.solve_task", 5.0, 8.0, 1, 0.0),
    ("convex.solve_lp", 6.0, 7.5, 1, 0.0),
]


def test_nest_rebuilds_parents_from_intervals():
    tree = hooks.nest(SPANS)
    parent = {s[0]: s[1] for s in tree}
    ids = {(s[2], s[3]): s[0] for s in tree}
    run_id = ids[("serve.service.run", 0.0)]
    assert parent[run_id] == 0
    assert parent[ids[("serve.arrivals.generate", 0.0)]] == run_id
    assert parent[ids[("serve.shard.solve_task", 5.0)]] == ids[("parallel.map_solve", 2.0)]
    assert parent[ids[("convex.solve_lp", 3.0)]] == ids[("minlp.solve_milp", 2.5)]


def test_self_time_is_duration_minus_child_coverage():
    tree = hooks.split_lp_calls(hooks.nest(SPANS))
    self_s = hooks.self_times(tree)
    assert self_s == pytest.approx({
        "serve.service.run": 10.0 - 1.0 - 6.0,
        "serve.arrivals.generate": 1.0,
        "parallel.map_solve": 6.0 - 3.0 - 3.0,
        "serve.shard.solve_task": (3.0 - 2.0) + (3.0 - 1.5),
        "minlp.solve_milp": 2.0 - 1.0,
        "convex.solve_lp.bnb": 1.0,
        "convex.solve_lp.round": 1.5,
    })
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    tree = [(1, 0, "parallel.map_solve", 0.0, 10.0, 0, 0.0),
            (2, 1, "serve.shard.solve_task", 1.0, 4.0, 0, 0.0),
            (3, 1, "serve.shard.solve_task", 3.0, 6.0, 0, 0.0)]
    assert hooks.self_times(tree)["parallel.map_solve"] == pytest.approx(5.0)


def test_layer_metrics_split_coordinator_and_worker_time():
    coordinator = [s for s in SPANS if s[0] in ("serve.service.run", "parallel.map_solve")]
    worker = [s for s in SPANS if s[0] not in ("serve.service.run", "parallel.map_solve",
                                                "serve.arrivals.generate")]
    forest = [(1, hooks.split_lp_calls(hooks.nest(coordinator))),
              (2, hooks.split_lp_calls(hooks.nest(worker)))]
    counters = collections.Counter({"resilience.frames_dropped": 2})
    metrics, shares = hooks.layer_metrics(forest, counters,
                                          wall_s=10.0, workers=2)
    assert metrics["trace.coverage"] == pytest.approx(1.0)
    assert metrics["serve.service.other_s"] == pytest.approx(4.0)
    assert metrics["serve.shard.solve_task_s"] == pytest.approx(6.0)
    assert metrics["parallel.efficiency"] == pytest.approx(6.0 / (6.0 * 2))
    assert metrics["minlp.lp_per_milp"] == pytest.approx(1.0)
    assert metrics["convex.solve_lp.round_calls"] == 1
    assert metrics["resilience.frames_dropped"] == 2
    assert shares["coordinator"] == pytest.approx({"serve.service": 0.4, "parallel": 0.6})
    assert sum(shares["workers"].values()) == pytest.approx(1.0)


# ---- compare verdicts ------------------------------------------------------------

@pytest.mark.parametrize("parent, change, better, expected", [
    ([100, 101, 99, 100, 102], [101, 100, 102, 100, 99], "lower", "same"),
    ([100, 101, 99, 100, 102], [120, 121, 119, 120, 122], "lower", "regression"),
    ([100, 101, 99, 100, 102], [120, 121, 119, 120, 122], "higher", "improved"),
    ([100, 140, 70, 100, 130], [95, 150, 60, 110, 100], "lower", "unresolved"),
    ([100, 140, 70, 100, 130], [50, 55, 45, 60, 40], "lower", "improved"),
])
def test_verdicts(parent, change, better, expected):
    assert run.verdict(parent, change, better, 0.10)[0] == expected


def _runs_file(path: Path, values) -> Path:
    runs = [{"workload": "steady", "trace": 0,
             "metrics": {"tick_p50_ms": {"value": v, "unit": "ms"}}} for v in values]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_exits_nonzero_only_on_regression(tmp_path, capsys):
    spec = {"workloads": [{"name": "steady", "why": ""}],
            "end_to_end": [{"name": "tick_p50_ms", "unit": "ms", "better": "lower",
                            "bound": 0.1}]}
    a = _runs_file(tmp_path / "a.json", [40.0, 40.4, 39.8, 40.1, 40.2])
    same = _runs_file(tmp_path / "same.json", [40.3, 39.9, 40.0, 40.6, 40.1])
    slow = _runs_file(tmp_path / "slow.json", [48.0, 48.5, 47.9, 48.2, 48.1])
    assert run.compare(spec, a, same) == 0
    assert run.compare(spec, a, slow) == 1
    assert "regression" in capsys.readouterr().out


# ---- hooks -------------------------------------------------------------------------

def test_every_hook_target_resolves():
    assert [h.target for h in hooks.HOOKS if hooks.resolve(h.target) is None] == []


def test_install_rebinds_imports_and_uninstall_restores_them():
    import repro.convex.lp as lp
    import repro.minlp.milp as milp
    import repro.serve.service as service
    import repro.serve.shard as shard

    before = (service.solve_shard_task, milp.solve_lp, lp.solve_lp, service.QoSService.run)
    inst = hooks.install(hooks.Recorder())
    assert inst.missing == []
    # the function object a caller looks up is wrapped, and the process
    # pool can still pickle it by reference
    assert service.solve_shard_task is shard.solve_shard_task is not before[0]
    assert milp.solve_lp is lp.solve_lp is not before[1]
    inst.uninstall()
    assert (service.solve_shard_task, milp.solve_lp, lp.solve_lp,
            service.QoSService.run) == before


def test_missing_targets_are_reported_not_raised():
    inst = hooks.install(hooks.Recorder(), [
        hooks.Hook("serve.gone.f", "repro.serve.no_such_module:f"),
        hooks.Hook("serve.service.gone", "repro.serve.service:QoSService.no_such_method"),
    ])
    assert inst.missing == ["repro.serve.no_such_module:f",
                            "repro.serve.service:QoSService.no_such_method"]


# ---- end to end ------------------------------------------------------------------

def _bench(args, cwd, tmp_path):
    out = tmp_path / "runs.json"
    proc = subprocess.run([sys.executable, str(cwd / "benchmarks/e2e/run.py"), *args,
                           "--out", str(out)], cwd=cwd, capture_output=True, text=True,
                          timeout=600, check=False)
    return proc, out


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_listed_metric(tmp_path, trace, listed):
    proc, out = _bench(["--scale", "0.05", "--trace", str(trace)], run.ROOT, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in run.load_spec()[listed]]
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == run.workload_names(run.load_spec())
    for r in runs:
        assert list(r["metrics"]) == names
        assert all(isinstance(m["value"], (int, float)) for m in r["metrics"].values())
        if trace:
            assert r["metrics"]["trace.missing_hooks"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    """The benchmark alone (BENCHMARK.json and its directory) cannot run."""
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/e2e/run.py"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
