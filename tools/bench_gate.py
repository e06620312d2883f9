#!/usr/bin/env python
"""Kernel-benchmark regression gate.

Replays the workload of ``benchmarks/bench_kernels.py`` (via its pure
:func:`measure_kernels`) and compares each family's measured speedup
against the committed snapshot ``benchmarks/results/BENCH_kernels.json``.
The gate **fails** (exit 1) when any family's speedup drops more than
``--threshold`` (default 25%) below the committed value — the signal
that a kernel silently fell off its vectorized fast path.  The CLI then
replays the analyzer, serving, telemetry, streaming-DSP and first-order
benches against their ``BENCH_*.json`` snapshots the same way; a
missing snapshot fails the gate.

Run from the repo root::

    PYTHONPATH=src python tools/bench_gate.py [--threshold 0.25]

The same check is importable as a ``perf``-marked pytest test
(``pytest -m perf benchmarks/ tools/``); it is never part of tier-1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
SNAPSHOT = BENCH_DIR / "results" / "BENCH_kernels.json"
ANALYSIS_SNAPSHOT = BENCH_DIR / "results" / "BENCH_analysis.json"
SERVE_SNAPSHOT = BENCH_DIR / "results" / "BENCH_serve_soak.json"
OBS_SNAPSHOT = BENCH_DIR / "results" / "BENCH_obs_overhead.json"
SIGNAL_SNAPSHOT = BENCH_DIR / "results" / "BENCH_signal_streaming.json"
FIRSTORDER_SNAPSHOT = BENCH_DIR / "results" / "BENCH_firstorder.json"
DEFAULT_THRESHOLD = 0.25
#: streaming-DSP speedups (vs block oracles) may drop this fraction
#: below the committed value before the gate fails; same noise profile
#: as the kernel micro-benchmarks
SIGNAL_THRESHOLD = 0.3
#: analyzer wall time may grow this fraction above its committed value
#: before the gate fails (wall clocks are noisier than speedup ratios)
ANALYSIS_THRESHOLD = 0.5
#: serving-layer p99 simulated latency may grow this fraction above the
#: committed value; the measurement is deterministic (simulated time),
#: so the margin absorbs legitimate small calibration shifts, not noise
SERVE_THRESHOLD = 0.25
#: absolute slack on per-class shed rates (fractions in [0, 1])
SERVE_SHED_SLACK = 0.05
#: the first-order fast path's headline claim: batches of >= 256 small
#: solves answer at least this much faster than the per-problem rungs.
#: A hard floor, not a relative one — dropping under 5x means the batch
#: backend stopped paying for its certification machinery
FIRSTORDER_SPEEDUP_FLOOR = 5.0
#: families without a hard floor (warm-start ratio) may drop this
#: fraction below their committed speedup before the gate fails
FIRSTORDER_THRESHOLD = 0.3


def _load_bench_module(name: str = "bench_kernels"):
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


def check_regressions(threshold: float = DEFAULT_THRESHOLD,
                      retries: int = 2) -> list:
    """Measure current kernel speedups and diff against the snapshot.

    A family below its floor is re-measured up to ``retries`` times and
    judged on its best observation — wall-clock micro-benchmarks see
    ~20% scheduler noise, and a real fast-path regression fails every
    attempt while a noisy dip does not.  Returns a list of failure
    strings; empty means the gate passes.
    """
    committed = json.loads(SNAPSHOT.read_text())
    baseline = {row["family"]: row["speedup"] for row in committed["rows"]}

    module = _load_bench_module()
    current = {row["family"]: row["speedup"] for row in module.measure_kernels()}
    for attempt in range(retries):
        floors = {f: s * (1.0 - threshold) for f, s in baseline.items()}
        if all(current.get(f, 0.0) >= floors[f] for f in baseline):
            break
        print(f"(retry {attempt + 1}: re-measuring families below floor)")
        for row in module.measure_kernels():
            family = row["family"]
            current[family] = max(current.get(family, 0.0), row["speedup"])

    failures = []
    print(f"{'family':<24} {'committed':>10} {'current':>10} {'floor':>10}")
    for family, committed_speedup in baseline.items():
        floor = committed_speedup * (1.0 - threshold)
        measured = current.get(family)
        if measured is None:
            failures.append(f"{family}: missing from current measurement")
            continue
        print(f"{family:<24} {committed_speedup:>9.1f}x {measured:>9.1f}x "
              f"{floor:>9.1f}x")
        if measured < floor:
            failures.append(
                f"{family}: speedup {measured:.2f}x regressed more than "
                f"{100 * threshold:.0f}% below committed {committed_speedup:.2f}x")
    return failures


def check_analysis_regressions(
    threshold: float = ANALYSIS_THRESHOLD, retries: int = 2
) -> list:
    """Measure current analyzer wall-clock and diff against the snapshot.

    Two conditions fail the gate: the full-``src/`` two-tier pass breaks
    the committed hard cap (``cap_s``, the tier-1 acceptance budget), or
    any scope's wall time grows more than ``threshold`` above its
    committed value.  Wall clocks regress *upward*, so the sign is the
    mirror of the kernel-speedup check; retries keep scheduler noise
    from failing a healthy analyzer.
    """
    committed = json.loads(ANALYSIS_SNAPSHOT.read_text())
    cap_s = float(committed.get("cap_s", 10.0))
    baseline = {
        (row["scope"], row["families"]): row["wall_s"]
        for row in committed["rows"]
    }

    module = _load_bench_module("bench_analysis")
    current = {
        (row["scope"], row["families"]): row["wall_s"]
        for row in module.measure_analysis()
    }
    for attempt in range(retries):
        ceilings = {k: s * (1.0 + threshold) for k, s in baseline.items()}
        over = [
            k for k in baseline
            if current.get(k, float("inf")) > max(ceilings[k], 0.1)
        ]
        if not over and current.get(("src", "both"), float("inf")) < cap_s:
            break
        print(f"(retry {attempt + 1}: re-measuring scopes above ceiling)")
        for key, wall in (
            ((row["scope"], row["families"]), row["wall_s"])
            for row in module.measure_analysis()
        ):
            current[key] = min(current.get(key, float("inf")), wall)

    failures = []
    print(f"{'scope':<6} {'families':<12} {'committed':>10} {'current':>10} "
          f"{'ceiling':>10}")
    for key, committed_wall in baseline.items():
        scope, families = key
        # sub-100ms committed walls get an absolute floor on the ceiling:
        # a 50% margin on 20ms is pure scheduler noise, not a regression
        ceiling = max(committed_wall * (1.0 + threshold), 0.1)
        measured = current.get(key)
        if measured is None:
            failures.append(f"{scope}/{families}: missing from measurement")
            continue
        print(f"{scope:<6} {families:<12} {committed_wall:>9.3f}s "
              f"{measured:>9.3f}s {ceiling:>9.3f}s")
        if measured > ceiling:
            failures.append(
                f"{scope}/{families}: wall {measured:.3f}s regressed more "
                f"than {100 * threshold:.0f}% above committed "
                f"{committed_wall:.3f}s")
    full_src = current.get(("src", "both"))
    if full_src is not None and full_src >= cap_s:
        failures.append(
            f"src/both: wall {full_src:.3f}s breaks the {cap_s:.0f}s "
            "tier-1 acceptance cap")
    return failures


def check_serve_regressions(threshold: float = SERVE_THRESHOLD) -> list:
    """Replay the gate-scale serving soak and diff against the snapshot.

    The serving layer runs on *simulated* time, so the replayed rows are
    bit-reproducible given the seed — no retries needed.  Three
    conditions fail the gate: p99 simulated latency grows more than
    ``threshold`` above its committed value, a best-effort class's shed
    rate grows more than :data:`SERVE_SHED_SLACK` (absolute), or the
    URLLC shed rate is nonzero at all — the class-policy invariant is a
    hard zero, never a ratio.
    """
    committed = json.loads(SERVE_SNAPSHOT.read_text())
    baseline = {row["scenario"]: row for row in committed["rows"]}

    module = _load_bench_module("bench_serve_soak")
    current = {row["scenario"]: row for row in module.measure_serve_soak()}

    failures = []
    print(f"{'scenario':<14} {'metric':<16} {'committed':>10} {'current':>10} "
          f"{'ceiling':>10}")
    for scenario, base in baseline.items():
        row = current.get(scenario)
        if row is None:
            failures.append(f"{scenario}: missing from current measurement")
            continue
        # p99 simulated latency: one tick of absolute slack on top of the
        # fractional threshold keeps near-zero baselines meaningful
        ceiling = base["p99_latency_s"] * (1.0 + threshold) + base["tick_s"]
        measured = row["p99_latency_s"]
        print(f"{scenario:<14} {'p99_latency_s':<16} "
              f"{base['p99_latency_s']:>9.3f}s {measured:>9.3f}s "
              f"{ceiling:>9.3f}s")
        if measured > ceiling:
            failures.append(
                f"{scenario}: p99 sim latency {measured:.3f}s regressed "
                f"above ceiling {ceiling:.3f}s "
                f"(committed {base['p99_latency_s']:.3f}s)")
        if row["shed_rate_URLLC"] != 0.0:
            failures.append(
                f"{scenario}: URLLC shed rate {row['shed_rate_URLLC']:.4f} "
                "!= 0 — class shedding policy violated")
        for cls in ("eMBB", "mMTC"):
            key = f"shed_rate_{cls}"
            shed_ceiling = base[key] + SERVE_SHED_SLACK
            print(f"{scenario:<14} {key:<16} {base[key]:>10.3f} "
                  f"{row[key]:>10.3f} {shed_ceiling:>10.3f}")
            if row[key] > shed_ceiling:
                failures.append(
                    f"{scenario}: {cls} shed rate {row[key]:.3f} exceeds "
                    f"committed {base[key]:.3f} + {SERVE_SHED_SLACK} slack")
    return failures


def check_obs_regressions(retries: int = 2) -> list:
    """Replay the telemetry-overhead benchmark against its budgets.

    Unlike the other gates this one compares against *absolute* ratio
    ceilings (the committed ``budget`` per mode: no-op < 1.05,
    recording-on windowed/sampled < 1.15), not against the committed
    measurement — overhead ratios hover near 1.0, where a relative diff
    is pure noise but the budget is the actual promise.  A mode over
    budget is re-measured up to ``retries`` times and judged on its best
    observation.
    """
    committed = json.loads(OBS_SNAPSHOT.read_text())
    budgets = {row["mode"]: float(row["budget"]) for row in committed["rows"]}

    module = _load_bench_module("bench_obs_overhead")
    current = {row["mode"]: row["ratio"] for row in module.measure_obs_overhead()}
    for attempt in range(retries):
        if all(current.get(m, float("inf")) < b for m, b in budgets.items()):
            break
        print(f"(retry {attempt + 1}: re-measuring modes over budget)")
        for row in module.measure_obs_overhead():
            mode = row["mode"]
            current[mode] = min(current.get(mode, float("inf")), row["ratio"])

    failures = []
    print(f"{'mode':<24} {'current':>10} {'budget':>10}")
    for mode, budget in budgets.items():
        measured = current.get(mode)
        if measured is None:
            failures.append(f"{mode}: missing from current measurement")
            continue
        print(f"{mode:<24} {measured:>10.4f} {budget:>10.2f}")
        if measured >= budget:
            failures.append(
                f"{mode}: telemetry overhead ratio {measured:.4f} breaks "
                f"the {budget:.2f} budget")
    return failures


def check_signal_streaming_regressions(
    threshold: float = SIGNAL_THRESHOLD, retries: int = 2
) -> list:
    """Replay the streaming-DSP benchmark and diff against the snapshot.

    Each family's speedup over its block oracle must stay within
    ``threshold`` of the committed value — a drop means the overlap-save
    blocks, the polyphase evaluation, or the streaming STFT kernel fell
    off its fast path.  Wall-clock ratios carry scheduler noise, so a
    family below its floor is re-measured up to ``retries`` times and
    judged on its best observation, like the kernel gate.
    """
    committed = json.loads(SIGNAL_SNAPSHOT.read_text())
    baseline = {row["family"]: row["speedup"] for row in committed["rows"]}

    module = _load_bench_module("bench_signal_streaming")
    current = {row["family"]: row["speedup"]
               for row in module.measure_signal_streaming()}
    for attempt in range(retries):
        floors = {f: s * (1.0 - threshold) for f, s in baseline.items()}
        if all(current.get(f, 0.0) >= floors[f] for f in baseline):
            break
        print(f"(retry {attempt + 1}: re-measuring families below floor)")
        for row in module.measure_signal_streaming():
            family = row["family"]
            current[family] = max(current.get(family, 0.0), row["speedup"])

    failures = []
    print(f"{'family':<24} {'committed':>10} {'current':>10} {'floor':>10}")
    for family, committed_speedup in baseline.items():
        floor = committed_speedup * (1.0 - threshold)
        measured = current.get(family)
        if measured is None:
            failures.append(f"{family}: missing from current measurement")
            continue
        print(f"{family:<24} {committed_speedup:>9.2f}x {measured:>9.2f}x "
              f"{floor:>9.2f}x")
        if measured < floor:
            failures.append(
                f"{family}: speedup {measured:.2f}x regressed more than "
                f"{100 * threshold:.0f}% below committed "
                f"{committed_speedup:.2f}x")
    return failures


def check_firstorder_regressions(
    threshold: float = FIRSTORDER_THRESHOLD, retries: int = 2
) -> list:
    """Replay the first-order fast-path benchmark and diff the snapshot.

    Two invariants fail the gate outright, no retries:

    * ``miscertified`` must be 0 for every family — a certified batch
      answer that disagrees with the (converged) reference rung means an
      uncertified answer was served, the one thing the fast path must
      never do;
    * the batch families (``*_b256`` except warm starts) must clear the
      hard :data:`FIRSTORDER_SPEEDUP_FLOOR` of 5x over the per-problem
      rungs — this is the claim that justifies the rung's existence, so
      it is pinned absolutely rather than relative to the snapshot.

    On top of the floor, every family must stay within ``threshold`` of
    its committed speedup; wall-clock ratios carry scheduler noise, so a
    family below its relative floor is re-measured up to ``retries``
    times and judged on its best observation.
    """
    committed = json.loads(FIRSTORDER_SNAPSHOT.read_text())
    baseline = {row["family"]: row["speedup"] for row in committed["rows"]}

    module = _load_bench_module("bench_firstorder")
    rows = {row["family"]: row for row in module.measure_firstorder()}
    failures = []
    for family, row in rows.items():
        if row.get("miscertified", 0) != 0:
            failures.append(
                f"{family}: {row['miscertified']} certified answer(s) "
                "disagree with the reference rung — uncertified answers "
                "were served")
    hard = {f: FIRSTORDER_SPEEDUP_FLOOR for f in baseline
            if not f.startswith("box_qp_warm")}
    for attempt in range(retries):
        floors = {f: max(s * (1.0 - threshold), hard.get(f, 0.0))
                  for f, s in baseline.items()}
        if all(rows.get(f, {}).get("speedup", 0.0) >= floors[f]
               for f in baseline):
            break
        print(f"(retry {attempt + 1}: re-measuring families below floor)")
        for row in module.measure_firstorder():
            family = row["family"]
            if row["speedup"] > rows.get(family, {}).get("speedup", 0.0):
                rows[family] = row

    print(f"{'family':<20} {'committed':>10} {'current':>10} {'floor':>10}")
    for family, committed_speedup in baseline.items():
        floor = max(committed_speedup * (1.0 - threshold),
                    hard.get(family, 0.0))
        row = rows.get(family)
        if row is None:
            failures.append(f"{family}: missing from current measurement")
            continue
        print(f"{family:<20} {committed_speedup:>9.1f}x "
              f"{row['speedup']:>9.1f}x {floor:>9.1f}x")
        if row["speedup"] < floor:
            failures.append(
                f"{family}: speedup {row['speedup']:.2f}x below floor "
                f"{floor:.2f}x (committed {committed_speedup:.2f}x, "
                f"hard floor {hard.get(family, 0.0):.1f}x)")
    return failures


try:
    import pytest
except ImportError:  # CLI-only environments don't need the pytest shim
    pytest = None

if pytest is not None:
    @pytest.mark.perf
    def test_bench_gate():
        """Perf-marked pytest entry point (``pytest -m perf tools/bench_gate.py``);
        excluded from tier-1 by both the marker and ``testpaths``."""
        failures = check_regressions()
        assert not failures, "; ".join(failures)

    @pytest.mark.perf
    def test_analysis_gate():
        """Analyzer wall-clock gate against BENCH_analysis.json."""
        failures = check_analysis_regressions()
        assert not failures, "; ".join(failures)

    @pytest.mark.perf
    def test_serve_gate():
        """Serving-soak p99/shed-rate gate against BENCH_serve_soak.json."""
        failures = check_serve_regressions()
        assert not failures, "; ".join(failures)

    @pytest.mark.perf
    def test_obs_gate():
        """Telemetry-overhead budget gate against BENCH_obs_overhead.json."""
        failures = check_obs_regressions()
        assert not failures, "; ".join(failures)

    @pytest.mark.perf
    def test_signal_streaming_gate():
        """Streaming-DSP speedup gate against BENCH_signal_streaming.json."""
        failures = check_signal_streaming_regressions()
        assert not failures, "; ".join(failures)

    @pytest.mark.perf
    def test_firstorder_gate():
        """First-order fast-path gate against BENCH_firstorder.json:
        5x speedup floor + zero uncertified answers served."""
        failures = check_firstorder_regressions()
        assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="allowed fractional speedup drop before failing (default 0.25)")
    parser.add_argument(
        "--analysis-threshold", type=float, default=ANALYSIS_THRESHOLD,
        help="allowed fractional analyzer wall-clock growth before failing "
             "(default 0.5)")
    parser.add_argument(
        "--serve-threshold", type=float, default=SERVE_THRESHOLD,
        help="allowed fractional serving-soak p99 simulated-latency growth "
             "before failing (default 0.25)")
    parser.add_argument(
        "--signal-threshold", type=float, default=SIGNAL_THRESHOLD,
        help="allowed fractional streaming-DSP speedup drop before failing "
             "(default 0.3)")
    parser.add_argument(
        "--firstorder-threshold", type=float, default=FIRSTORDER_THRESHOLD,
        help="allowed fractional first-order fast-path speedup drop before "
             "failing; the absolute 5x floor always applies (default 0.3)")
    opts = parser.parse_args(argv)
    # every gate's baseline must live in the repo: a missing snapshot is
    # a failure
    gates = (
        (SNAPSHOT, lambda: check_regressions(opts.threshold)),
        (ANALYSIS_SNAPSHOT,
         lambda: check_analysis_regressions(opts.analysis_threshold)),
        (SERVE_SNAPSHOT, lambda: check_serve_regressions(opts.serve_threshold)),
        (OBS_SNAPSHOT, check_obs_regressions),
        (SIGNAL_SNAPSHOT,
         lambda: check_signal_streaming_regressions(opts.signal_threshold)),
        (FIRSTORDER_SNAPSHOT,
         lambda: check_firstorder_regressions(opts.firstorder_threshold)),
    )
    failures = []
    for snapshot, check in gates:
        print(f"\n== {snapshot.name}")
        if snapshot.is_file():
            failures += check()
        else:
            failures.append(f"{snapshot.name}: snapshot missing; commit it "
                            "with the bench's --commit-results run")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("bench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
