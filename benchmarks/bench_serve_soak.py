"""SOAK — long-running QoS serving-layer soak under burst + chaos.

Drives :class:`repro.serve.QoSService` through two scales:

* **gate scale** (3 cells, the chaos-acceptance scenario) — the service
  is deterministic given its seed, so these rows are *bit-reproducible*
  and form the committed regression contract in
  ``benchmarks/results/BENCH_serve_soak.json``: ``tools/bench_gate.py``
  replays :func:`measure_serve_soak` and fails on p99 simulated-latency
  or shed-rate regressions (URLLC shed must stay exactly zero).
* **fleet scale** (100+ cells, ~10^5–10^6 simulated UEs via the
  ``n_ues`` batch aggregation) — the perf-marked soak proper, fanned
  out over a process pool; prints throughput, p99 latency, per-class
  shed rates and the post-burst recovery ratio.

Latencies are **simulated** queueing delays; wall time is telemetry
only, which is why the gate can hold sim-latency to a tight threshold
without scheduler-noise retries.

    PYTHONPATH=src python -m pytest benchmarks/bench_serve_soak.py \
        -m perf --commit-results
"""

from __future__ import annotations

import pytest

from _harness import maybe_write_bench_json, timed
from conftest import banner
from repro.qos.mobility import GilbertElliottConfig
from repro.qos.rra import RRA_FALLBACK
from repro.qos.traffic import MMPPConfig
from repro.resilience import FaultSpec
from repro.serve import (
    NORMAL,
    SHEDDING,
    ArrivalConfig,
    QoSService,
    ServeConfig,
    ShardConfig,
)

pytestmark = pytest.mark.perf

#: seeded chaos for both scales (exception + NaN injection in solvers)
CHAOS = FaultSpec(exception_rate=0.08, nan_rate=0.04)

#: the 10x MMPP burst (idle 2 Hz -> burst 20 Hz) used at both scales
_BURST = MMPPConfig(idle_rate_hz=2.0, burst_rate_hz=20.0,
                    mean_idle_s=2.5, mean_burst_s=1.2)

_GATE_DURATION_S = 8.0
_SOAK_DURATION_S = 4.0
_SOAK_CELLS = 100


def _gate_config(burst: bool) -> ServeConfig:
    """The deterministic gate-scale scenario (mirrors the acceptance test:
    tight queue bounds so the burst genuinely overflows them)."""
    arrivals = ArrivalConfig(base_rate_hz=2.0, batch_ues=15,
                             mmpp=_BURST if burst else None)
    return ServeConfig(n_cells=3, seed=21, tick_s=0.1, arrivals=arrivals,
                       shard=ShardConfig(max_depth=20, max_age_s=2.0))


def _soak_config(burst: bool) -> ServeConfig:
    """Fleet scale: 100 cells, heavy batch aggregation (~10^6 offered UEs
    over 4 simulated seconds), handover storms across the fleet."""
    arrivals = ArrivalConfig(
        base_rate_hz=20.0, batch_ues=125,
        mmpp=_BURST if burst else None,
        handover=GilbertElliottConfig(p_good_to_bad=0.2, p_bad_to_good=0.6),
        storm_ues=250,
    )
    return ServeConfig(n_cells=_SOAK_CELLS, seed=11, tick_s=0.1,
                       arrivals=arrivals,
                       shard=ShardConfig(max_depth=20, max_age_s=2.0))


def _recovery_windows(report, n_cells):
    """(t0, t1) spans where every cell is NORMAL, after first SHEDDING."""
    state = {c: NORMAL for c in range(n_cells)}
    first_shed = None
    windows = []
    trs = report.transitions
    for i, tr in enumerate(trs):
        state[tr["cell"]] = tr["to_state"]
        if first_shed is None and tr["to_state"] == SHEDDING:
            first_shed = tr["time_s"]
        if first_shed is not None and all(
                s == NORMAL for s in state.values()):
            t1 = (trs[i + 1]["time_s"] if i + 1 < len(trs)
                  else float("inf"))
            windows.append((tr["time_s"], t1))
    return windows


def _run_scenario(scenario, cfg, duration_s, chaos, executor=None,
                  baseline_p99=None):
    """Run one service soak and reduce it to a gate/table row."""
    svc = QoSService(cfg, executor=executor)
    report, wall_s = timed(lambda: svc.run(duration_s, chaos=chaos))
    pcts = report.latency_percentiles()
    row = {
        "scenario": scenario,
        "n_cells": cfg.n_cells,
        "duration_s": duration_s,
        "tick_s": cfg.tick_s,
        "offered_ues": report.total_offered_ues,
        "served_ues": report.total_served_ues,
        "throughput_ues_per_s": report.throughput_ues_per_s,
        "p50_latency_s": pcts["p50"],
        "p99_latency_s": pcts["p99"],
        "shed_rate_URLLC": report.shed_rate["URLLC"],
        "shed_rate_eMBB": report.shed_rate["eMBB"],
        "shed_rate_mMTC": report.shed_rate["mMTC"],
        "frames": report.frames,
        "frames_dropped": report.frames_dropped,
        "transitions": len(report.transitions),
        "chaos_injections": report.chaos_injections,
        "drained": report.drained,
        "wall_s": wall_s,
    }
    # post-burst recovery: best p99 over any window where the whole fleet
    # walked back to NORMAL after shedding, as a ratio of the no-burst
    # baseline p99 (acceptance ceiling is 2.0)
    if baseline_p99 is not None:
        windows = _recovery_windows(report, cfg.n_cells)
        anchor = max(baseline_p99, cfg.tick_s)
        best = min(
            (report.latency_percentiles(*w)["p99"] for w in windows),
            default=float("inf"))
        row["recovery_p99_ratio"] = best / anchor  # numlint: disable=NL002 -- anchor >= tick_s which ServeConfig validates positive
    return row


def measure_serve_soak(keys=None):
    """Pure gate-scale measurement replayed by ``tools/bench_gate.py``.

    Returns the two committed rows (baseline, chaos+burst), or those of
    them whose scenario is in ``keys``; the chaos row always needs the
    baseline run for its recovery anchor.  Everything the gate compares
    is simulated — deterministic given the seed — so a row that moves
    means service *behavior* changed, not the scheduler.
    """
    baseline = _run_scenario("baseline", _gate_config(burst=False),
                             _GATE_DURATION_S, chaos=None)
    rows = [baseline]
    if keys is None or "chaos-burst" in keys:
        rows.append(_run_scenario("chaos-burst", _gate_config(burst=True),
                                  _GATE_DURATION_S, chaos=CHAOS,
                                  baseline_p99=baseline["p99_latency_s"]))
    return [r for r in rows if keys is None or r["scenario"] in keys]


def measure_fleet_soak(executor=None):
    """Fleet-scale soak rows (~10^5–10^6 offered UEs across 100 cells).

    This scale runs *saturated by design* (base load alone exceeds
    exact-solve capacity), so the all-cells-NORMAL recovery window of
    the gate scenario never exists and no recovery ratio is reported —
    the row instead demonstrates throughput and the class-shedding
    policy under sustained overload.
    """
    baseline = _run_scenario("fleet-baseline", _soak_config(burst=False),
                             _SOAK_DURATION_S, chaos=None, executor=executor)
    chaotic = _run_scenario("fleet-chaos-burst", _soak_config(burst=True),
                            _SOAK_DURATION_S, chaos=CHAOS, executor=executor)
    return [baseline, chaotic]


def _print_rows(rows):
    print(f"{'scenario':<18} {'cells':>5} {'offered':>9} {'served':>9} "
          f"{'ues/s':>9} {'p99_s':>7} {'URLLC':>6} {'eMBB':>6} {'mMTC':>6} "
          f"{'drop':>5} {'wall_s':>7}")
    for r in rows:
        print(f"{r['scenario']:<18} {r['n_cells']:>5} {r['offered_ues']:>9} "
              f"{r['served_ues']:>9} {r['throughput_ues_per_s']:>9.0f} "
              f"{r['p99_latency_s']:>7.3f} {r['shed_rate_URLLC']:>6.3f} "
              f"{r['shed_rate_eMBB']:>6.3f} {r['shed_rate_mMTC']:>6.3f} "
              f"{r['frames_dropped']:>5} {r['wall_s']:>7.1f}")


def test_serve_soak(request):
    banner("SOAK", "QoS serving-layer soak: burst + chaos at fleet scale")
    from repro.parallel import make_executor

    gate_rows = measure_serve_soak()
    with make_executor("process", max_workers=4) as ex:
        fleet_rows = measure_fleet_soak(executor=ex)
    rows = gate_rows + fleet_rows
    _print_rows(rows)

    for r in rows:
        assert r["served_ues"] > 0, r["scenario"]
    # the acceptance scenario's class contract is a hard zero
    for r in gate_rows + fleet_rows[:1]:
        assert r["shed_rate_URLLC"] == 0.0, r["scenario"]
    # at fleet saturation + chaos the queue occasionally goes all-URLLC,
    # where the policy ("URLLC only when nothing cheaper is left to
    # evict") does shed it — but orders of magnitude below best-effort
    chaos_row = fleet_rows[1]
    assert chaos_row["shed_rate_URLLC"] < 0.002
    assert chaos_row["shed_rate_URLLC"] * 50 < chaos_row["shed_rate_mMTC"]
    # fleet scale really is a soak: ~10^5-10^6 simulated sessions offered
    assert fleet_rows[0]["offered_ues"] >= 100_000
    # best-effort classes carry the overload at fleet scale
    assert chaos_row["shed_rate_mMTC"] > 0.0
    # chaos actually fired at both scales
    assert gate_rows[1]["chaos_injections"] > 0
    assert chaos_row["chaos_injections"] > 0
    # ...and the gate-scale fleet recovered to <=2x baseline p99
    assert gate_rows[1]["recovery_p99_ratio"] <= 2.0
    # simulated latency stays bounded by the age limit even when saturated
    assert chaos_row["p99_latency_s"] <= 2.0 + chaos_row["tick_s"]

    maybe_write_bench_json(request, "serve_soak", gate_rows, extra={
        "fleet_rows": fleet_rows,
        "fallback_ladder": list(RRA_FALLBACK),
        "chaos": {"exception_rate": CHAOS.exception_rate,
                  "nan_rate": CHAOS.nan_rate},
        "recovery_ceiling_ratio": 2.0,
    })
