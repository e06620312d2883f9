"""ANLZ — static-analyzer wall-clock on the full repository.

The numlint gate runs inside tier-1 (``tests/test_static_analysis.py``),
so its cost is paid on every test invocation: the analyzer must finish a
full ``src/`` pass — both tiers, including symbol table, call graph, and
per-function reaching-definitions — in **under 10 seconds**.  This bench
measures that budget per tier and for the combined gate scope
(``src`` + ``benchmarks`` + ``tools``), and persists the snapshot::

    PYTHONPATH=src python -m pytest benchmarks/bench_analysis.py --commit-results

``tools/bench_gate.py`` replays :func:`measure_analysis` against the
committed ``benchmarks/results/BENCH_analysis.json`` and fails when the
full-``src/`` wall time breaches the 10 s cap or regresses > 50% above
the committed value.
"""

from __future__ import annotations

import pathlib

import pytest

from _harness import best_of, maybe_write_bench_json
from conftest import banner
from repro.analysis import analyze_paths

pytestmark = pytest.mark.perf

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_REPEATS = 3
#: the tier-1 acceptance cap for a full-``src/`` two-tier pass
_FULL_SRC_CAP_S = 10.0


def measure_analysis(keys=None) -> list:
    """Time the analyzer per tier and per scope; pure, importable by the gate.

    Returns rows ``{scope, families, wall_s, files, findings}``, only those
    whose ``scope/families`` label is in ``keys`` when it is given.  Timings
    are best-of-``_REPEATS``; findings counts are asserted stable so a
    timing row can never silently measure a broken analyzer.
    """
    src = REPO_ROOT / "src"
    gate_scope = [src, REPO_ROOT / "benchmarks", REPO_ROOT / "tools"]
    workloads = [
        ("src", [src], ["expression"]),
        ("src", [src], ["flow"]),
        ("src", [src], None),
        ("gate", gate_scope, None),
    ]
    rows = []
    for scope, paths, families in workloads:
        label = "+".join(families) if families else "both"
        if keys is not None and f"{scope}/{label}" not in keys:
            continue
        result, wall = best_of(
            lambda p=paths, f=families: analyze_paths(
                p, families=f, root=REPO_ROOT
            ),
            repeats=_REPEATS,
        )
        assert not result.parse_errors, result.parse_errors
        rows.append({
            "scope": scope,
            "families": label,
            "wall_s": round(wall, 3),
            "files": result.files_checked,
            "findings": len(result.findings),
        })
    return rows


def test_analyzer_wall_clock(request):
    banner("ANLZ", "static-analyzer wall-clock, per tier and scope")
    rows = measure_analysis()
    print(f"{'scope':<6} {'families':<12} {'wall_s':>8} {'files':>6} {'findings':>9}")
    for row in rows:
        print(f"{row['scope']:<6} {row['families']:<12} "
              f"{row['wall_s']:>8.3f} {row['files']:>6} {row['findings']:>9}")

    full_src = next(
        r for r in rows if r["scope"] == "src" and r["families"] == "both"
    )
    assert full_src["wall_s"] < _FULL_SRC_CAP_S, (
        f"full-src analysis took {full_src['wall_s']:.2f}s, "
        f"cap is {_FULL_SRC_CAP_S:.0f}s"
    )
    maybe_write_bench_json(
        request, "analysis", rows, extra={"cap_s": _FULL_SRC_CAP_S}
    )
