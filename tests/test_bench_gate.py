"""Tests for the table-driven bench gate (``tools/bench_gate.py``).

The gate is loaded by path and driven with in-memory snapshots and fake
``measure_*`` modules, so nothing here runs a real benchmark.
"""

import importlib.util
import math
import pathlib
import sys
from types import SimpleNamespace

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_gate.py"
_spec = importlib.util.spec_from_file_location("bench_gate", _PATH)
gate = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_gate", gate)  # dataclasses resolve by module
_spec.loader.exec_module(gate)

Row = gate.Row
UP = math.inf
DOWN = -math.inf


def _run(rows, committed, *attempts, snapshot_extra=None, asked=None):
    """Judge ``rows`` (all of one snapshot) on a snapshot of ``committed``
    rows; each call to the fake bench returns the next of ``attempts``
    (the last repeats), filtered by its ``keys`` like a real bench.
    Returns ``(failures, calls)``; ``asked`` collects each call's keys."""
    name = rows[0].snapshot
    module_name, func_name = rows[0].measure.split(".")
    snapshot = {"rows": committed, **(snapshot_extra or {})}
    calls = [] if asked is None else asked

    def measure(keys=None):
        calls.append(keys)
        records = attempts[min(len(calls), len(attempts)) - 1]
        return [r for r in records
                if keys is None or gate._label(rows[0], r) in keys]

    bench = SimpleNamespace(**{func_name: measure})
    failures = gate.check(name, table=rows,
                          read_snapshot={name: snapshot}.get,
                          load_bench={module_name: bench}.__getitem__)
    return failures, len(calls)


def _row(**kw):
    kw = {"snapshot": "BENCH_fake.json", "measure": "bench_fake.measure_fake",
          "key": ("family",), "metric": "speedup", "better": "higher",
          "retries": 0, **kw}
    return Row(**kw)


def _judge_one(row, committed, value, **extra):
    failures, _ = _run([row], [{"family": "f", **committed}],
                       [{"family": "f", row.metric: value}],
                       snapshot_extra=extra)
    return failures


@pytest.mark.parametrize("row, committed, boundary", [
    # higher: committed * (1 - relative) - slack
    (_row(relative=0.25), {"speedup": 4.0}, 3.0),
    (_row(relative=0.25, slack=0.5), {"speedup": 4.0}, 2.5),
    # a hard bound raises the floor
    (_row(relative=0.25, bound={"f": 3.5}), {"speedup": 4.0}, 3.5),
    (_row(relative=0.25, bound={"other": 3.5}), {"speedup": 4.0}, 3.0),
    # lower: committed * (1 + relative) + slack, the slack from the row
    (_row(metric="p99", better="lower", relative=0.25, slack="tick_s"),
     {"p99": 0.25, "tick_s": 0.5}, 0.8125),
    (_row(metric="shed", better="lower", relative=0.0, slack=0.05),
     {"shed": 0.5}, 0.55),
    # a bound raises a small ceiling (the analyzer's 0.1 s)
    (_row(metric="wall_s", better="lower", relative=0.5, bound=0.1),
     {"wall_s": 0.02}, 0.1),
    (_row(metric="wall_s", better="lower", relative=0.5, bound=0.1),
     {"wall_s": 2.0}, 3.0),
])
def test_relative_limit_passes_on_the_boundary(row, committed, boundary):
    worse = DOWN if row.better == "higher" else UP
    better = UP if row.better == "higher" else DOWN
    assert _judge_one(row, committed, boundary) == []
    assert _judge_one(row, committed, math.nextafter(boundary, better)) == []
    assert _judge_one(row, committed, math.nextafter(boundary, worse))


def test_bound_without_relative_is_a_strict_ceiling():
    row = _row(metric="ratio", better="lower", bound="budget")
    committed = {"ratio": 0.9, "budget": 1.15}
    assert _judge_one(row, committed, math.nextafter(1.15, DOWN)) == []
    assert _judge_one(row, committed, 1.15)
    # a bound missing from the committed row comes from the snapshot
    row = _row(metric="wall_s", better="lower", bound="cap_s")
    assert _judge_one(row, {"wall_s": 3.0}, 9.999, cap_s=10.0) == []
    assert _judge_one(row, {"wall_s": 3.0}, 10.0, cap_s=10.0)


def test_equal_row_is_an_exact_invariant():
    row = _row(metric="miscertified", better="equal", bound=0)
    assert _judge_one(row, {"miscertified": 0}, 0) == []
    assert _judge_one(row, {"miscertified": 0}, 1)


def test_retries_keep_the_best_observation():
    row = _row(relative=0.25, retries=2)
    committed = [{"family": "f", "speedup": 4.0}]
    failures, calls = _run([row], committed, [{"family": "f", "speedup": 2.0}],
                           [{"family": "f", "speedup": 3.5}],
                           [{"family": "f", "speedup": 1.0}])
    assert failures == [] and calls == 2
    # every attempt below the floor: measured retries + 1 times, then fails
    failures, calls = _run([row], committed, [{"family": "f", "speedup": 2.0}])
    assert len(failures) == 1 and calls == 3
    # lower is better: the smallest reading is kept
    row = _row(metric="wall_s", better="lower", relative=0.5, retries=1)
    failures, calls = _run([row], [{"family": "f", "wall_s": 1.0}],
                           [{"family": "f", "wall_s": 9.0}],
                           [{"family": "f", "wall_s": 1.2}])
    assert failures == [] and calls == 2


def test_retries_ask_the_bench_for_the_failing_keys_only():
    """Three families: ``f`` passes at once, ``g`` recovers on the first
    retry, ``h`` never does; ``i`` is missing from every reading."""
    row = _row(relative=0.25, retries=2)
    committed = [{"family": k, "speedup": 4.0} for k in "fghi"]
    slow = [{"family": "f", "speedup": 4.0}, {"family": "g", "speedup": 1.0},
            {"family": "h", "speedup": 1.0}]
    recovered = [{"family": "g", "speedup": 3.9}, {"family": "h", "speedup": 1.0}]
    asked = []
    failures, calls = _run([row], committed, slow, recovered, asked=asked)
    assert asked == [None, frozenset("ghi"), frozenset("hi")]
    assert failures == ["BENCH_fake.json: h: speedup 1 fails >= 3 (committed 4)",
                        "BENCH_fake.json: i: speedup missing from the measurement"]


def test_missing_snapshot_fails():
    failures = gate.check("BENCH_fake.json", table=[_row()],
                          read_snapshot=lambda name: None,
                          load_bench=lambda name: pytest.fail("measured"))
    assert len(failures) == 1 and "snapshot missing" in failures[0]


def test_key_missing_from_measurement_fails():
    row = _row(relative=0.25, retries=1)
    committed = [{"family": "f", "speedup": 4.0},
                 {"family": "g", "speedup": 4.0}]
    failures, calls = _run([row], committed, [{"family": "f", "speedup": 4.0}])
    assert calls == 2
    assert failures == ["BENCH_fake.json: g: speedup missing from the measurement"]
    # a metric missing from a measured row fails the same way
    failures, _ = _run([row], committed[:1], [{"family": "f"}])
    assert len(failures) == 1 and "missing" in failures[0]


def _table_run(snapshot_name, committed, *attempts, snapshot_extra=None):
    """Run the real table's rows for one snapshot against a fake bench."""
    rows = [r for r in gate.TABLE if r.snapshot == snapshot_name]
    return _run(rows, committed, *attempts, snapshot_extra=snapshot_extra)


def _analysis(src_both):
    rows = [("src", "expression", 1.0), ("src", "flow", 1.0),
            ("src", "both", src_both), ("gate", "both", 1.0)]
    return [{"scope": s, "families": f, "wall_s": w} for s, f, w in rows]


def test_analyzer_cap_binds_below_the_relative_ceiling():
    # committed src/both 8 s: the relative ceiling (12 s) sits above the
    # 10 s cap, which the full-src pass must stay strictly under
    extra = {"cap_s": 10.0}
    failures, _ = _table_run("BENCH_analysis.json", _analysis(8.0),
                             _analysis(9.999), snapshot_extra=extra)
    assert failures == []
    failures, calls = _table_run("BENCH_analysis.json", _analysis(8.0),
                                 _analysis(10.0), snapshot_extra=extra)
    assert calls == 3
    assert failures == ["BENCH_analysis.json: src/both: wall_s 10 fails < 10 "
                        "(committed 8)"]


def test_miscertified_retry_cannot_replace_a_breach():
    """A batch below its speedup floor is retried; a retry that is fast
    but miscertifies must fail the gate, not replace the first reading."""
    committed = [{"family": "box_qp_b256", "speedup": 98.0, "miscertified": 0}]
    slow_clean = [{"family": "box_qp_b256", "speedup": 4.0, "miscertified": 0}]
    fast_wrong = [{"family": "box_qp_b256", "speedup": 99.0, "miscertified": 1}]
    failures, calls = _table_run("BENCH_firstorder.json", committed,
                                 slow_clean, fast_wrong)
    assert calls == 2
    assert failures == ["BENCH_firstorder.json: box_qp_b256: miscertified 1 "
                        "fails == 0 (committed 0)"]
    # an invariant also holds for a measured family the snapshot lacks
    new_family = slow_clean + [{"family": "new_b256", "speedup": 9.0,
                                "miscertified": 2}]
    failures, _ = _table_run("BENCH_firstorder.json", committed, new_family,
                             fast_wrong)
    assert any("new_b256: miscertified 2" in f for f in failures)


def test_table_rows_share_their_snapshot_bench_and_key():
    for name in gate.SNAPSHOTS:
        rows = [r for r in gate.TABLE if r.snapshot == name]
        assert len({(r.measure, r.key) for r in rows}) == 1, name


def test_cli_takes_no_threshold_flags():
    with pytest.raises(SystemExit):
        gate.main(["--threshold", "0.3"])
