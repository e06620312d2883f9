"""Golden-report tests: checked-in JSON snapshots of the stack's reports.

Each test runs a small fixed-seed workload, projects its report to a
JSON-ready dict, scrubs the wall-clock fields (every key ending in
``_s`` is zeroed — timing is explicitly outside the determinism
contract), and compares against the checked-in golden under
``tests/goldens/``.

When a change intentionally alters a report, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden_reports.py --update-goldens

then inspect ``git diff tests/goldens/`` — every changed line should be
explainable by the change you made — and commit the new goldens with it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.stack import run_rcr_stack
from repro.obs import Telemetry
from repro.obs.summarize import main as obs_main
from repro.parallel import SerialExecutor
from repro.qos.rra import RRA_FALLBACK, solve_frame
from repro.qos.scheduler import Scheduler
from repro.qos.traffic import ServiceClass
from repro.resilience import FaultSpec
from repro.serve import SchedulerShard, ShardConfig
from repro.serve.queueing import FrameRequest

from .conftest import GOLDEN_DIR

pytestmark = pytest.mark.parallel


def _scrub(obj):
    """Zero every wall-clock field (keys ending ``_s``), recursively.

    Timing can never be bit-identical across runs, so goldens cover the
    *shape and semantics* of a report and pin its timing keys to 0.0.
    """
    if isinstance(obj, dict):
        return {k: (0.0 if k.endswith("_s") else _scrub(v))
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def _check_golden(name: str, payload: dict, update: bool) -> None:
    path = GOLDEN_DIR / name
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if update:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered)
        return
    if not path.exists():
        pytest.fail(f"golden {path} missing — generate it with "
                    "`pytest tests/test_golden_reports.py --update-goldens` "
                    "and commit the file")
    assert json.loads(rendered) == json.loads(path.read_text()), (
        f"report diverged from golden {name}; if the change is intentional "
        "rerun with --update-goldens and review the diff")


def test_stack_report_summary_golden(update_goldens):
    report = run_rcr_stack(swarm_size=3, generations=2, tuning_train_steps=3,
                           robust_epochs=4, seed=11)
    _check_golden("stack_report_summary.json", _scrub(report.summary()),
                  update_goldens)


def test_schedule_report_golden(update_goldens):
    with SerialExecutor() as ex:
        report = Scheduler(n_users=2, strategy="relaxed", seed=3,
                           resilient=True, max_nodes=60,
                           rate_floor_scale=0.3).run(
            3, executor=ex, chaos=FaultSpec(exception_rate=0.6, nan_rate=0.4))
    # canonical() is already timing-free; scrubbing is a no-op kept for
    # symmetry so a future timing field can't silently enter the golden
    _check_golden("schedule_report.json", _scrub(report.canonical()),
                  update_goldens)


def test_obs_summarize_golden(update_goldens, tmp_path):
    """``repro.obs summarize --json`` over a fixed-seed instrumented run.

    Span *counts*, event counts, rung usage, and chaos injections are
    pure functions of the seed; only the duration statistics vary, and
    the scrub removes them.
    """
    telemetry = Telemetry.recording()
    with telemetry.install():
        with SerialExecutor() as ex:
            Scheduler(n_users=2, strategy="relaxed", seed=3, resilient=True,
                      max_nodes=60, rate_floor_scale=0.3).run(
                3, executor=ex,
                chaos=FaultSpec(exception_rate=0.6, nan_rate=0.4))
    trace = tmp_path / "trace.jsonl"
    out = tmp_path / "summary.json"
    assert telemetry.export(trace) > 0
    assert obs_main(["summarize", str(trace), "--json", str(out)]) == 0
    _check_golden("obs_summarize.json", _scrub(json.loads(out.read_text())),
                  update_goldens)


#: (shard config, rung list) per golden cell: the served default grid,
#: a two-level grid whose node cap often truncates the exact search, the
#: lp-round rung alone, and a wider single-level grid
_RRA_FRAME_CELLS = (
    (ShardConfig(), RRA_FALLBACK),
    (ShardConfig(n_blocks=4, requests_per_frame=3, power_levels_mw=(50.0, 100.0),
                 max_nodes=12, rate_floor_scale=0.05), RRA_FALLBACK),
    (ShardConfig(n_blocks=5, requests_per_frame=3, power_levels_mw=(40.0, 100.0)),
     RRA_FALLBACK[1:]),
    (ShardConfig(n_blocks=6, requests_per_frame=2, max_nodes=20,
                 rate_floor_scale=0.05), RRA_FALLBACK),
)
_RRA_FRAMES_PER_CELL = 50


def _rra_frame_corpus(cell: int) -> list:
    """``(task, outcome)`` per seeded shard frame of one golden cell, solved
    serially; each task is built after the previous outcome was absorbed."""
    config, rungs = _RRA_FRAME_CELLS[cell]
    classes = list(ServiceClass)
    shard = SchedulerShard(cell, config, seed=23)
    rng = np.random.default_rng(cell)
    corpus = []
    for frame in range(_RRA_FRAMES_PER_CELL):
        now_s = 0.1 * frame
        for i in range(config.requests_per_frame):
            service = classes[int(rng.integers(len(classes)))]
            shard.queue.offer(FrameRequest(
                request_id=10 * frame + i, cell=cell, service=service,
                n_ues=10, enqueued_at_s=now_s))
        task = {**shard.build_task(now_s=now_s, frame=frame), "rungs": rungs}
        out = solve_frame(task)
        shard.absorb(out, now_s=now_s)
        corpus.append((task, out))
    return corpus


def _rra_frame_rows() -> list:
    """One row per frame of every golden cell.

    ``total_rate`` is stored as a float hex string, so any change in the
    vertex an LP lands on (and with it the B&B tree or the rounding) shows
    up as a diff even when the printed decimal would not move.
    """
    return [{
        "cell": cell, "frame": task["frame"], "rung": out["rung"],
        "total_rate": float(out["total_rate"]).hex(),
        "per_class_satisfaction": out["per_class_satisfaction"],
    } for cell in range(len(_RRA_FRAME_CELLS))
        for task, out in _rra_frame_corpus(cell)]


def test_rra_frames_golden(update_goldens):
    """Pins the exact B&B and lp-round answers of ~200 serving frames —
    the tier-1 guard against an LP-oracle edit that moves a vertex."""
    _check_golden("rra_frames.json", {"frames": _rra_frame_rows()},
                  update_goldens)
