#!/usr/bin/env python
"""Bench regression gate: one table of rows, one engine.

Each :class:`Row` of :data:`TABLE` names a committed snapshot
(``benchmarks/results/BENCH_*.json``), the bench function that measures
it again, the key fields and metric it compares, which direction is
better, and its tolerance.  :func:`check` loads a snapshot, runs its
bench, re-runs it for the keys whose rows fail and have retries left
(each key keeps its best observation), and judges every row.  A missing snapshot, or a
committed key missing from the measurement, fails the gate.

Run from the repo root::

    PYTHONPATH=src python tools/bench_gate.py

The same check is a ``perf``-marked pytest test, one case per snapshot
(``pytest -m perf tools/bench_gate.py``); it is never part of tier-1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Optional, Union

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
RESULTS_DIR = BENCH_DIR / "results"


@dataclass(frozen=True)
class Row:
    """One gate row: a metric of every committed key of one snapshot.

    With ``relative`` set, the limit is ``committed * (1 - relative) -
    slack`` when higher is better and ``committed * (1 + relative) +
    slack`` when lower is better, raised to ``bound`` when that is set;
    a value on the limit passes.  Without ``relative``, ``bound`` is the
    limit itself: a ``lower`` value must stay strictly under it (a
    budget or cap), an ``equal`` value must match it exactly.  An
    ``equal`` row is an invariant: it is judged on every attempt, and a
    retry never replaces a reading that broke it.

    ``slack`` is a constant or a field of the committed row; ``bound``
    is a constant, a ``{key: value}`` map, or a field of the committed
    row or of the snapshot.  A key is its field values joined by ``/``.
    """

    snapshot: str
    measure: str                    # "<bench module>.<measure function>"
    key: tuple
    metric: str
    better: str                     # "higher", "lower" or "equal"
    relative: Optional[float] = None
    slack: Union[float, str] = 0.0
    bound: Union[None, float, str, dict] = None
    retries: int = 2
    keys: Optional[tuple] = None    # judge only these keys


#: every row the gate judges, grouped by snapshot in run order
TABLE = (
    # kernel speedups over the loop oracles; a stacked LP batch slower
    # than one ``solve_lp`` per LP has lost its reason to exist
    Row("BENCH_kernels.json", "bench_kernels.measure_kernels", ("family",),
        "speedup", "higher", relative=0.25, bound={"simplex_lp_stack": 1.0}),
    # analyzer wall clock; no ceiling below 0.1 s (a 50% margin on 20 ms
    # is scheduler noise), and the full-src pass stays under the tier-1 cap
    Row("BENCH_analysis.json", "bench_analysis.measure_analysis",
        ("scope", "families"), "wall_s", "lower", relative=0.5, bound=0.1),
    Row("BENCH_analysis.json", "bench_analysis.measure_analysis",
        ("scope", "families"), "wall_s", "lower", bound="cap_s",
        keys=("src/both",)),
    # the soak runs on simulated time, so its rows replay bit-exactly and
    # need no retries; one tick of slack keeps small p99s meaningful
    Row("BENCH_serve_soak.json", "bench_serve_soak.measure_serve_soak",
        ("scenario",), "p99_latency_s", "lower", relative=0.25,
        slack="tick_s", retries=0),
    Row("BENCH_serve_soak.json", "bench_serve_soak.measure_serve_soak",
        ("scenario",), "shed_rate_URLLC", "equal", bound=0.0, retries=0),
    Row("BENCH_serve_soak.json", "bench_serve_soak.measure_serve_soak",
        ("scenario",), "shed_rate_eMBB", "lower", relative=0.0, slack=0.05,
        retries=0),
    Row("BENCH_serve_soak.json", "bench_serve_soak.measure_serve_soak",
        ("scenario",), "shed_rate_mMTC", "lower", relative=0.0, slack=0.05,
        retries=0),
    # telemetry overhead ratios sit near 1.0, where a relative diff is
    # noise: each mode is held to its committed budget instead
    Row("BENCH_obs_overhead.json", "bench_obs_overhead.measure_obs_overhead",
        ("mode",), "ratio", "lower", bound="budget"),
    Row("BENCH_signal_streaming.json",
        "bench_signal_streaming.measure_signal_streaming", ("family",),
        "speedup", "higher", relative=0.3),
    # a certified batch answer that disagrees with the reference rung is an
    # uncertified answer served; the 5x batch floor is the fast path's claim
    Row("BENCH_firstorder.json", "bench_firstorder.measure_firstorder",
        ("family",), "miscertified", "equal", bound=0),
    Row("BENCH_firstorder.json", "bench_firstorder.measure_firstorder",
        ("family",), "speedup", "higher", relative=0.3,
        bound={"box_qp_b256": 5.0, "sdp_b256": 5.0}),
)


def _load_bench_module(name: str):
    """Import a ``benchmarks/*.py`` module by path.

    The benchmarks directory is not a package, and bench modules import
    their siblings (``_harness``, ``conftest``) by bare name, so it goes
    on ``sys.path`` first.
    """
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_snapshot(name: str) -> Optional[dict]:
    path = RESULTS_DIR.joinpath(name)
    return json.loads(path.read_text()) if path.is_file() else None


def _label(row: Row, record: dict) -> str:
    return "/".join(str(record[f]) for f in row.key)


def limit(row: Row, base: Optional[dict], snapshot: dict,
          label: str) -> float:
    """The floor (``higher``), ceiling (``lower``) or required value
    (``equal``) of one key of ``row``; ``base`` is its committed row."""
    base = base or {}
    bound = row.bound
    if isinstance(bound, dict):
        bound = bound.get(label)
    elif isinstance(bound, str):
        bound = float(base[bound] if bound in base else snapshot[bound])
    if row.relative is None:
        return bound
    committed = base[row.metric]
    slack = base[row.slack] if isinstance(row.slack, str) else row.slack
    if row.better == "higher":
        lim = committed * (1.0 - row.relative) - slack
    else:
        lim = committed * (1.0 + row.relative) + slack
    return lim if bound is None else max(lim, bound)


def passes(row: Row, value: float, lim: float) -> bool:
    """Whether ``value`` meets ``lim``; see :class:`Row` for which
    limits a value may sit on."""
    if row.better == "higher":
        return value >= lim
    if row.better == "equal":
        return value == lim
    return value <= lim if row.relative is not None else value < lim


def judge(rows, snapshot: dict, measure) -> list:
    """Measure, retry and judge the ``rows`` of one snapshot.

    The first attempt calls ``measure()``; a retry calls
    ``measure(keys=...)`` with only the labels of the rows that failed
    and have retries left.  Returns ``(row, label, committed, measured,
    limit, ok)`` per judged key.  ``measured`` is the best reading over
    the attempts, or for an ``equal`` row its first breach (else its last
    reading), and None for a key the bench did not report.
    """
    committed = {_label(rows[0], r): r for r in snapshot["rows"]}
    readings: dict = {}
    retry = None
    for attempt in range(max(r.retries for r in rows) + 1):
        if attempt:
            print(f"(retry {attempt}: re-measuring {', '.join(sorted(retry))})")
        for record in measure() if retry is None else measure(keys=retry):
            label = _label(rows[0], record)
            for i, row in enumerate(rows):
                if row.metric in record:
                    readings.setdefault((i, label), []).append(record[row.metric])
        verdicts = []
        for i, row in enumerate(rows):
            labels = [k for k in committed if row.keys is None or k in row.keys]
            if row.better == "equal":   # an invariant holds for every row
                labels += [k for (j, k) in readings if j == i and k not in committed]
            for label in labels:
                base = committed.get(label)
                lim = limit(row, base, snapshot, label)
                seen = readings.get((i, label))
                if not seen:
                    value = None
                elif row.better == "equal":
                    value = next((v for v in seen if v != lim), seen[-1])
                else:
                    value = (max if row.better == "higher" else min)(seen)
                ok = value is not None and passes(row, value, lim)
                verdicts.append((row, label, (base or {}).get(row.metric),
                                 value, lim, ok))
        retry = frozenset(label for row, label, *_, ok in verdicts
                          if not (ok or row.better == "equal" or row.retries <= attempt))
        if not retry:
            break
    return verdicts


def check(snapshot_name: str, table=TABLE, read_snapshot=_read_snapshot,
          load_bench=_load_bench_module) -> list:
    """Judge every row of ``table`` on ``snapshot_name``; returns the
    failure strings (empty means the snapshot's rows pass)."""
    snapshot = read_snapshot(snapshot_name)
    if snapshot is None:
        return [f"{snapshot_name}: snapshot missing; commit it with the "
                "bench's --commit-results run"]
    rows = [r for r in table if r.snapshot == snapshot_name]
    module_name, func = rows[0].measure.split(".")
    verdicts = judge(rows, snapshot, getattr(load_bench(module_name), func))

    failures = []
    op = {"higher": ">=", "equal": "=="}
    print(f"{'key':<24} {'metric':<16} {'committed':>10} {'current':>10} "
          f"{'limit':<11}")
    for row, label, base, value, lim, ok in verdicts:
        need = op.get(row.better, "<=" if row.relative is not None else "<")
        if value is None:
            failures.append(f"{snapshot_name}: {label}: {row.metric} missing "
                            "from the measurement")
            continue
        base_text = "-" if base is None else f"{base:.4g}"
        print(f"{label:<24} {row.metric:<16} {base_text:>10} {value:>10.4g} "
              f"{need:>2} {lim:<8.4g}{'' if ok else '  FAIL'}")
        if not ok:
            failures.append(
                f"{snapshot_name}: {label}: {row.metric} {value:.4g} fails "
                f"{need} {lim:.4g} (committed {base_text})")
    return failures


#: the snapshots in the order the gate runs them
SNAPSHOTS = tuple(dict.fromkeys(r.snapshot for r in TABLE))

try:
    import pytest
except ImportError:  # CLI-only environments don't need the pytest shim
    pytest = None

if pytest is not None:
    @pytest.mark.perf
    @pytest.mark.parametrize("snapshot", SNAPSHOTS)
    def test_bench_gate(snapshot):
        """Perf-marked entry point (``pytest -m perf tools/bench_gate.py``);
        excluded from tier-1 by both the marker and ``testpaths``."""
        failures = check(snapshot)
        assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    failures = []
    for snapshot in SNAPSHOTS:
        print(f"\n== {snapshot}")
        failures += check(snapshot)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("bench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
