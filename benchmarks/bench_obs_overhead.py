"""OBS — overhead of the observability instrumentation, off and on.

Two promises, two measurements (both replayed by ``tools/bench_gate.py``
against the committed ``benchmarks/results/BENCH_obs_overhead.json``):

* **no-op** — the tracer defaults to a no-op and every solver records at
  *solve* granularity (one span + one metrics call per solve, never per
  iteration), so instrumented code with tracing disabled costs within a
  few percent of bare code.  Measured as the instrumented
  :func:`repro.convex.admm.admm_consensus` against a local
  uninstrumented replica of the same loop.  With ``tol=0`` the kernel
  stops once both residuals are exactly zero; the replica applies the
  same stopping test, so both sides run the same iterations (the bench
  asserts it, and records the count).  Budget: < 5%.
* **recording-on windowed/sampled** — telemetry v2's full recording
  path on the serving soak: a :class:`~repro.obs.SampledTracer`, a real
  metrics registry, and the per-shard windowed instruments
  (``RollingHistogram``/``HistogramSeries``/``RollingCounter``) all
  live, versus the same soak under the no-op telemetry.  The solve work
  dominates, so recording must stay within 15% of the dark run — the
  "telemetry is not allowed to become the workload" contract for
  always-on production observability.
* **scrape** — one scrape of a live service (``QoSService.health()``,
  the ops table rendered from it, ``MetricsRegistry.snapshot()`` and the
  Prometheus text rendered from that) against one plain tick of the same
  service: a seeded 100-cell service shaped like the end-to-end
  ``overload`` workload (MMPP bursts, handover storms, solver faults,
  sampled tracer), scraped every simulated second.  The ratio is the
  median scrape cost over the median interval between plain ticks, so
  host speed cancels.  Before the scrape path rendered each series' text
  once it read about 1.0 (a scrape cost a whole tick); the budget holds
  it at half a tick.

Each row lists its readings' ratios in ``samples`` and reports the
median reading.  A ``--commit-results`` run takes ``COMMIT_SAMPLES``
readings per row and fails if any of them reaches the row's budget.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np
import pytest

from _harness import maybe_write_bench_json
from conftest import banner
from repro.convex.admm import admm_consensus, prox_box, prox_l2_squared
from repro.kernels.workspace import ConsensusWorkspace
from repro.obs import (
    NOOP_TRACER,
    MetricsRegistry,
    SampledTracer,
    Telemetry,
    get_tracer,
    render_ops_table,
    render_prometheus,
)
from repro.qos.mobility import GilbertElliottConfig
from repro.qos.traffic import MMPPConfig
from repro.resilience import FaultSpec
from repro.serve import QoSService, ServeConfig, ShardConfig
from repro.serve.arrivals import ArrivalConfig

pytestmark = pytest.mark.obs

_N = 40
_MAX_ITER = 300
_ROUNDS = 7
#: one solve takes about a millisecond: the no-op row times many,
#: alternating the two sides so host drift hits both alike
_NOOP_ROUNDS = 201

#: overhead budgets the gate holds each mode to (ratio ceilings)
NOOP_BUDGET = 1.05
RECORDING_BUDGET = 1.15

_SERVE_DURATION_S = 4.0
_SERVE_ROUNDS = 5

#: a scrape may cost at most half a plain tick; the committed samples
#: (``BENCH_obs_overhead.json``) read about a third
SCRAPE_BUDGET = 0.5
#: readings a --commit-results run records for every row
COMMIT_SAMPLES = 5
_SCRAPE_DURATION_S = 10.0


def _bare_admm(prox_f, prox_g, n, rho=1.0, max_iter=_MAX_ITER, tol=0.0):
    """The admm_consensus loop with zero instrumentation — the baseline
    the instrumented solver is compared against.  Kept in lockstep with
    the real kernel (same workspace updates, same residual bookkeeping,
    same stopping test); returns the iterates and the iteration count."""
    ws = ConsensusWorkspace(n=n)
    prim_hist: List[float] = []
    dual_hist: List[float] = []
    for it in range(1, max_iter + 1):
        np.subtract(ws.z, ws.u, out=ws.arg)
        ws.x[...] = prox_f(ws.arg, 1.0 / rho)  # numlint: disable=NL002 -- rho is the fixed positive ADMM penalty of this benchmark
        ws.z_old[...] = ws.z
        np.add(ws.x, ws.u, out=ws.arg)
        ws.z[...] = prox_g(ws.arg, 1.0 / rho)  # numlint: disable=NL002 -- rho is the fixed positive ADMM penalty of this benchmark
        ws.u += ws.x
        ws.u -= ws.z
        prim = float(np.linalg.norm(ws.x - ws.z))
        dual = float(rho * np.linalg.norm(ws.z - ws.z_old))
        prim_hist.append(prim)
        dual_hist.append(dual)
        scale = max(1.0, float(np.linalg.norm(ws.x)), float(np.linalg.norm(ws.z)))
        if prim <= tol * scale and dual <= tol * scale:
            break
    return ws.x.copy(), ws.z.copy(), it


def _median_time(fn, rounds=_ROUNDS) -> float:
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _interleaved_median_times(a, b, rounds=_NOOP_ROUNDS):
    """Median times of ``a`` and ``b``, timed turn about, each going
    first in every other round."""
    times_a: List[float] = []
    times_b: List[float] = []
    turns = [(a, times_a), (b, times_b)]
    for _ in range(rounds):
        for fn, out in turns:
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
        turns.reverse()
    return statistics.median(times_a), statistics.median(times_b)


def measure_noop_overhead() -> dict:
    """Instrumented-vs-bare ADMM with tracing disabled (one gate row)."""
    target = np.linspace(-1.0, 1.0, _N)
    prox_f = prox_l2_squared(target)
    prox_g = prox_box(-0.5, 0.5)

    assert get_tracer() is NOOP_TRACER, \
        "tracing must be disabled for this measurement"

    def bare():
        return _bare_admm(prox_f, prox_g, _N)[2]

    def instrumented():
        return admm_consensus(prox_f, prox_g, _N, max_iter=_MAX_ITER,
                              tol=0.0).iterations

    # warm up both paths (JIT-free, but caches/allocators settle) and
    # check that they run the same iterations
    iterations = bare()
    assert instrumented() == iterations, \
        "the bare replica and admm_consensus stop at different iterations"
    t_bare, t_inst = _interleaved_median_times(bare, instrumented)
    ratio = t_inst / max(t_bare, 1e-12)
    return {
        "mode": "noop",
        "baseline_ms": t_bare * 1e3,
        "measured_ms": t_inst * 1e3,
        "ratio": ratio,
        "budget": NOOP_BUDGET,
        "max_iter": _MAX_ITER,
        "iterations": iterations,
        "n": _N,
    }


def _serve_once(telemetry) -> None:
    """One short deterministic serving soak (the recording workload)."""
    cfg = ServeConfig(n_cells=2, seed=9, tick_s=0.1,
                      arrivals=ArrivalConfig(base_rate_hz=6.0, batch_ues=8))
    svc = QoSService(cfg)
    if telemetry is None:
        svc.run(_SERVE_DURATION_S)
        return
    with telemetry.install():
        svc.run(_SERVE_DURATION_S)


def measure_recording_overhead() -> dict:
    """Recording-on (sampled tracer + registry + windowed instruments)
    vs no-op telemetry on the serving soak (one gate row)."""
    assert get_tracer() is NOOP_TRACER, \
        "ambient tracing must be disabled for the dark baseline"

    def dark():
        _serve_once(None)

    def recording():
        # production posture: 5% head sampling, full metrics; the
        # windowed shard instruments record in both runs by design —
        # they are part of the service, not of the installed telemetry
        _serve_once(Telemetry(SampledTracer(sample_rate=0.05, seed=1),
                              MetricsRegistry()))

    dark()
    recording()
    t_dark = _median_time(dark, rounds=_SERVE_ROUNDS)
    t_rec = _median_time(recording, rounds=_SERVE_ROUNDS)
    ratio = t_rec / max(t_dark, 1e-12)
    return {
        "mode": "recording_windowed",
        "baseline_ms": t_dark * 1e3,
        "measured_ms": t_rec * 1e3,
        "ratio": ratio,
        "budget": RECORDING_BUDGET,
        "duration_s": _SERVE_DURATION_S,
        "sample_rate": 0.05,
    }


def _scrape_ratio() -> float:
    """One seeded 100-cell ``overload``-shaped run, scraped every
    simulated second: median scrape cost over median plain tick."""
    cfg = ServeConfig(
        n_cells=100, seed=11, tick_s=0.1,
        arrivals=ArrivalConfig(
            base_rate_hz=20.0, batch_ues=125,
            mmpp=MMPPConfig(idle_rate_hz=2.0, burst_rate_hz=20.0,
                            mean_idle_s=2.5, mean_burst_s=1.2),
            handover=GilbertElliottConfig(p_good_to_bad=0.2, p_bad_to_good=0.6),
            storm_ues=250),
        shard=ShardConfig(max_depth=20, max_age_s=2.0))
    telemetry = Telemetry(SampledTracer(sample_rate=0.05, seed=11),
                          MetricsRegistry())
    clock = time.perf_counter
    scrapes: List[float] = []
    plain: List[float] = []
    # when the last tick started, and whether it scraped
    state = {"tick": None, "scraped": False, "scrape_s": -1.0}

    def on_tick(svc) -> None:
        now = clock()
        if state["tick"] is not None and not state["scraped"]:
            plain.append(now - state["tick"])
        state["scraped"] = svc.now_s - state["scrape_s"] >= 1.0 - 1e-9
        if state["scraped"]:
            state["scrape_s"] = svc.now_s
            render_ops_table(svc.health())
            render_prometheus(telemetry.metrics.snapshot())
            scrapes.append(clock() - now)
        state["tick"] = now

    with telemetry.install():
        QoSService(cfg).run(_SCRAPE_DURATION_S, on_tick=on_tick,
                            chaos=FaultSpec(exception_rate=0.08, nan_rate=0.04))
    return statistics.median(scrapes) / max(statistics.median(plain), 1e-12)


def measure_scrape_overhead() -> dict:
    """Scrape cost per plain tick, from a fresh service (one gate row)."""
    return {
        "mode": "scrape",
        "ratio": _scrape_ratio(),
        "budget": SCRAPE_BUDGET,
        "n_cells": 100,
        "duration_s": _SCRAPE_DURATION_S,
    }


def _sampled(measure, samples: int) -> dict:
    """The median reading of ``samples`` calls of ``measure``, with every
    reading's ratio, in order, in ``samples``."""
    rows = [measure() for _ in range(samples)]
    ratios = [r["ratio"] for r in rows]
    row = rows[ratios.index(statistics.median_low(ratios))]
    return {**row, "samples": ratios}


def measure_obs_overhead(keys=None, samples: int = 1) -> List[dict]:
    """Every gate row, or those whose mode is in ``keys``, each the
    median of ``samples`` readings; replayed by ``tools/bench_gate.py``."""
    modes = {"noop": measure_noop_overhead,
             "recording_windowed": measure_recording_overhead,
             "scrape": measure_scrape_overhead}
    return [_sampled(measure, samples) for mode, measure in modes.items()
            if keys is None or mode in keys]


def _print_rows(rows: List[dict]) -> None:
    print(f"{'mode':<22} {'baseline':>10} {'measured':>10} {'ratio':>8} "
          f"{'budget':>8}")
    for r in rows:
        samples = " ".join(f"{v:.3f}" for v in r["samples"])
        # the scrape row is a ratio to a plain tick, with no times
        times = (f"{r['baseline_ms']:>8.2f}ms {r['measured_ms']:>8.2f}ms"
                 if "baseline_ms" in r else f"{'per plain tick':>21}")
        print(f"{r['mode']:<22} {times} {r['ratio']:>8.4f} "
              f"{r['budget']:>8.2f}  samples {samples}")


def test_obs_overhead(benchmark, request):
    banner("OBS", "Telemetry overhead: no-op tracing, recording-on "
                  "windowed/sampled paths and scrape ticks")
    samples = (COMMIT_SAMPLES if request.config.getoption("--commit-results")
               else 1)
    rows = benchmark.pedantic(measure_obs_overhead, iterations=1, rounds=1,
                              kwargs={"samples": samples})
    _print_rows(rows)
    for r in rows:
        for ratio in r["samples"]:
            assert ratio < r["budget"], (
                f"{r['mode']}: ratio {ratio:.3f} is not under its budget "
                f"{r['budget']:.2f}")
    maybe_write_bench_json(request, "obs_overhead", rows)
