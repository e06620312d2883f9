"""One serving workload in a fresh process: set up, serve, check, report.

``run.py`` starts this script once per workload run, and again with
``--setup-only`` for each extra set-up sample.  Its last stdout line is
one JSON object that ``run.py`` turns into the benchmark result; failed
checks are also printed to stderr.  By hand:

    PYTHONPATH=src python benchmarks/e2e/workload.py --workload steady --seed 11

The untraced run touches only the public serving API (``ServeConfig``,
``QoSService.run``, ``ServeReport``, ``make_executor``); ``--trace 1``
adds the outside-in hooks of ``hooks.py``.
"""

from __future__ import annotations

import time

#: set-up is timed from here, before ``repro`` is imported
SETUP_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import json
import math
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import hooks
from repro import obs
from repro.parallel import make_executor
from repro.qos.mobility import GilbertElliottConfig
from repro.qos.rra import RRA_FALLBACK
from repro.qos.traffic import MMPPConfig
from repro.resilience import FaultSpec
from repro.serve import ArrivalConfig, QoSService, ServeConfig, ServeReport, ShardConfig

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
RESULTS = HERE / "results"

#: simulated seconds of arrivals per replica (about 400 ticks plus drain)
DURATION_S = 40.0
TICK_S = 0.1
DEFAULT_SEED = 11
WORKERS = 2
#: head-sampling rate of the production tracer on ``overload``
SAMPLE_RATE = 0.05
#: simulated seconds between ops-view renders (as ``repro.obs.watch``)
RENDER_EVERY_S = 1.0

#: the serving soak's 10x MMPP burst (idle 2 Hz -> burst 20 Hz)
BURST = MMPPConfig(idle_rate_hz=2.0, burst_rate_hz=20.0,
                   mean_idle_s=2.5, mean_burst_s=1.2)
#: the serving soak's seeded solver faults
CHAOS = FaultSpec(exception_rate=0.08, nan_rate=0.04)


@dataclass(frozen=True)
class Workload:
    """One traffic mix; every mix adds GE handover storms of 250 UEs."""

    n_cells: int
    rate_hz: float
    mmpp: Optional[MMPPConfig] = None
    chaos: Optional[FaultSpec] = None
    backend: str = "serial"
    #: production telemetry: sampled tracer plus registry installed, ops
    #: table and Prometheus text rendered every simulated second
    telemetry: bool = False
    #: sustainable load: URLLC must never be shed
    urllc_zero: bool = True

    def config(self, seed: int) -> ServeConfig:
        arrivals = ArrivalConfig(
            base_rate_hz=self.rate_hz, batch_ues=125, mmpp=self.mmpp,
            handover=GilbertElliottConfig(p_good_to_bad=0.2, p_bad_to_good=0.6),
            storm_ues=250)
        return ServeConfig(n_cells=self.n_cells, seed=seed, tick_s=TICK_S,
                           arrivals=arrivals,
                           shard=ShardConfig(max_depth=20, max_age_s=2.0))


#: why each mix exists is recorded in BENCHMARK.json and README.md
WORKLOADS: Dict[str, Workload] = {
    "steady": Workload(n_cells=24, rate_hz=4.0),
    "overload": Workload(n_cells=100, rate_hz=20.0, mmpp=BURST, chaos=CHAOS,
                         telemetry=True, urllc_zero=False),
    "fanout": Workload(n_cells=48, rate_hz=12.0, backend="process"),
}


@dataclass
class Replica:
    """One ``QoSService.run`` and what the benchmark saw of it."""

    report: ServeReport
    started_at: float
    wall_s: float
    intervals_ms: List[float]
    spans_kept: int


def tick_intervals_ms(ticks: List[float]) -> List[float]:
    """Intervals between successive ``on_tick`` calls, in ms.  The time
    from ``run()`` entry to the first tick holds the eager arrival
    generation and is not among them."""
    return [(b - a) * 1000.0 for a, b in zip(ticks, ticks[1:])]


def percentiles_ms(samples: List[float]) -> Dict[str, float]:
    """Median and p95 of the tick intervals, with the sample count (p95
    has at least 20 samples beyond it once there are 400)."""
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "n": 0}
    p50, p95 = np.percentile(np.asarray(samples, dtype=np.float64), [50.0, 95.0])
    return {"p50": float(p50), "p95": float(p95), "n": len(samples)}


def serve_once(workload: Workload, seed: int, scale: float, executor,
               rec: hooks.Recorder, clock: Callable[[], float]) -> Replica:
    service = QoSService(workload.config(seed), executor)
    telemetry = (obs.Telemetry(obs.SampledTracer(SAMPLE_RATE, seed), obs.MetricsRegistry())
                 if workload.telemetry else None)
    ticks: List[float] = []
    last_render = [-math.inf]

    def on_tick(svc) -> None:
        ticks.append(clock())
        rec.tick = len(ticks)
        if telemetry is not None and svc.now_s - last_render[0] >= RENDER_EVERY_S - 1e-9:
            last_render[0] = svc.now_s
            obs.render_ops_table(svc.health())
            obs.render_prometheus(telemetry.metrics.snapshot())

    with telemetry.install() if telemetry is not None else contextlib.nullcontext():
        start = clock()
        report = service.run(DURATION_S * scale, chaos=workload.chaos, on_tick=on_tick)
        wall_s = clock() - start
    kept = len(telemetry.tracer.records) if telemetry is not None else 0
    return Replica(report, start, wall_s, tick_intervals_ms(ticks), kept)


def serve_traced(workload: Workload, seed: int, scale: float, executor,
                 rec: hooks.Recorder, clock: Callable[[], float], spans_file: Path):
    """One replica with the hooks installed: per-layer metrics, layer
    shares and missing hooks.  The spans are written to ``spans_file`` and
    dropped, so they cannot slow the replicas that follow."""
    rec.reset()
    installation = hooks.install(rec)
    try:
        rep = serve_once(workload, seed, scale, executor, rec, clock)
    finally:
        installation.uninstall()
    forest = hooks.trees(rec)
    metrics, shares = hooks.layer_metrics(forest, rec.counters, rep.wall_s,
                                          executor.max_workers)
    metrics.update({
        "serve.overload.transitions": len(rep.report.transitions),
        "qos.rra.exact_frame_share": quality(rep.report)["exact_frame_share"],
        "obs.spans_kept": rep.spans_kept,
        "trace.missing_hooks": len(installation.missing),
    })
    spans_file.parent.mkdir(exist_ok=True)
    hooks.write_jsonl(forest, spans_file, {"seed": seed, "wall_s": rep.wall_s})
    rec.reset()
    return rep, {"metrics": metrics, "shares": shares, "missing": installation.missing}


# ---- correctness ---------------------------------------------------------------

def fingerprint(report: ServeReport) -> dict:
    """The simulated-time part of a report: identical for a given seed on
    every executor backend."""
    return {
        "offered": dict(sorted(report.offered_ues.items())),
        "served": dict(sorted(report.served_ues.items())),
        "shed": dict(sorted(report.shed_ues.items())),
        "rung_counts": dict(sorted(report.rung_counts.items())),
        "frames": report.frames,
        "frames_dropped": report.frames_dropped,
        "transitions": len(report.transitions),
        "latency_s": report.latency_percentiles(),
    }


def digest(report: ServeReport) -> str:
    blob = json.dumps(fingerprint(report), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def pinned() -> Dict[str, dict]:
    """expected.json: per workload, the seed and report fingerprint pinned
    by ``--pin`` (serial executor, full scale)."""
    return json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}


def pinned_digest(workload_name: str, seed: int, scale: float) -> Optional[str]:
    """The pinned digest, if this run repeats the pinned one.  It was
    computed with the serial executor, so a process-pool run that matches
    it also shows cross-backend identity."""
    entry = pinned().get(workload_name)
    if entry is None or entry["seed"] != seed or not math.isclose(scale, 1.0):
        return None
    return entry["digest"]


def pin(workload_name: str, seed: int, first: dict) -> None:
    doc = pinned()
    doc[workload_name] = {"seed": seed, **first}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def check(workload: Workload, report: ServeReport, expected: str) -> List[dict]:
    """Correctness of one replica; ``expected`` is the digest it must match."""
    lost = {cls: report.offered_ues[cls] - report.served_ues.get(cls, 0)
            - report.shed_ues.get(cls, 0) for cls in sorted(report.offered_ues)}
    got = digest(report)
    out = [
        {"name": "offered == served + shed", "ok": not any(lost.values()),
         "detail": f"unaccounted UEs by class {lost}"},
        {"name": "drained", "ok": bool(report.drained), "detail": f"drained={report.drained}"},
        {"name": "report fingerprint", "ok": got == expected,
         "detail": f"{got}, expected {expected}"},
    ]
    if workload.urllc_zero:
        shed = report.shed_ues.get("URLLC", 0)
        out.append({"name": "URLLC never shed", "ok": shed == 0,
                    "detail": f"{shed} URLLC UEs shed"})
    return out


# ---- measurement ---------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def warm(executor) -> None:
    """Start every worker so pool start-up counts as set-up, not serving."""
    executor.map(abs, range(2 * executor.max_workers))


def keep_going(begin: float, done: int, seconds: float, clock: Callable[[], float]) -> bool:
    """Whether to serve another replica: always a first one, then while
    one more (at the mean replica time so far) ends within ``seconds``
    of ``begin``."""
    if done == 0:
        return True
    elapsed = clock() - begin
    return elapsed + elapsed / done <= seconds


def quality(report: ServeReport) -> Dict[str, float]:
    """The simulated-time metrics of one report (deterministic per seed)."""
    rungs = report.rung_counts
    answered = sum(rungs.get(rung, 0) for rung in RRA_FALLBACK)
    depth = sum(i * rungs.get(rung, 0) for i, rung in enumerate(RRA_FALLBACK, 1))
    urllc = report.offered_ues.get("URLLC", 0)
    offered, frames = report.total_offered_ues, report.frames
    return {
        "served_share": report.total_served_ues / offered if offered else 1.0,
        "urllc_served_share": report.served_ues.get("URLLC", 0) / urllc if urllc else 1.0,
        "sim_p99_latency_s": report.latency_percentiles()["p99"],
        "mean_rung_depth": depth / answered if answered else 0.0,
        "frame_ok_share": 1.0 - (report.frames_dropped / frames if frames else 0.0),
        "exact_frame_share": rungs.get(RRA_FALLBACK[0], 0) / frames if frames else 0.0,
    }


def measure(args, clock: Callable[[], float] = time.perf_counter) -> dict:
    """Serve replicas of one seed for ``args.seconds`` (at least one),
    check every replica and reduce them to the run's metrics."""
    workload = WORKLOADS[args.workload]
    backend = "serial" if args.pin else workload.backend
    rec = hooks.Recorder(clock)
    plain_reps: List[Replica] = []
    traced_reps: List[Replica] = []
    layers: List[dict] = []
    spans_file = RESULTS / f"spans-{args.workload}.jsonl"
    with contextlib.ExitStack() as stack:
        plain = stack.enter_context(make_executor(backend, max_workers=WORKERS))
        warm(plain)
        if args.setup_only:
            QoSService(workload.config(args.seed), plain)
            return {"setup_s": clock() - SETUP_START}
        if args.trace:
            # workers forked while the hooks are in place keep them
            installation = hooks.install(rec)
            traced = stack.enter_context(make_executor(backend, max_workers=WORKERS))
            warm(traced)
            installation.uninstall()
        begin = clock()
        while keep_going(begin, len(plain_reps), args.seconds, clock):
            plain_reps.append(serve_once(workload, args.seed, args.scale, plain, rec, clock))
            if args.trace:
                rep, layer = serve_traced(workload, args.seed, args.scale, traced, rec,
                                          clock, spans_file)
                traced_reps.append(rep)
                layers.append(layer)
    reps = plain_reps + traced_reps
    # every replica must repeat the pinned report or, without one, the
    # first replica (traced or not, on any executor)
    expected = ((None if args.pin else pinned_digest(args.workload, args.seed, args.scale))
                or digest(plain_reps[0].report))
    verdicts = [check(workload, rep.report, expected) for rep in reps]
    checks = [c for v in verdicts for c in v]
    ticks = percentiles_ms([x for r in plain_reps for x in r.intervals_ms])
    first = plain_reps[0].report
    info = {
        "wall_s": [r.wall_s for r in plain_reps],
        "tick_samples": ticks["n"],
        "fingerprint": {"digest": digest(first), "report": fingerprint(first)},
    }
    if args.trace:
        metrics = {name: float(np.median([layer["metrics"][name] for layer in layers]))
                   for name in layers[0]["metrics"]}
        untraced_s = sum(r.wall_s for r in plain_reps)
        metrics["trace.overhead"] = sum(r.wall_s for r in traced_reps) / untraced_s - 1.0
        coverage = [layer["metrics"]["trace.coverage"] for layer in layers]
        checks.append({"name": "layer self times add up to run wall",
                       "ok": all(abs(c - 1.0) <= 0.05 for c in coverage),
                       "detail": f"coverage {coverage}"})
        info.update(traced_wall_s=[r.wall_s for r in traced_reps],
                    shares=layers[0]["shares"], missing_hooks=layers[0]["missing"],
                    solve_dominates=metrics["parallel.map_solve_share"] > 0.5,
                    spans_file=str(spans_file.relative_to(HERE)))
    else:
        metrics = {
            "wall_ues_per_s": float(np.median(
                [r.report.total_served_ues / max(r.wall_s, 1e-9) for r in plain_reps])),
            "tick_p50_ms": ticks["p50"],
            "tick_p95_ms": ticks["p95"],
            "peak_rss_mb": peak_rss_mb(),
            **quality(first),
        }
        info["exact_frame_share"] = metrics.pop("exact_frame_share")
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "setup_s": plain_reps[0].started_at - SETUP_START,
        "attempted": sum(r.report.total_offered_ues for r in reps),
        "failed": sum(r.report.total_offered_ues for r, v in zip(reps, verdicts)
                      if not all(c["ok"] for c in v)),
        "checks": checks, "metrics": metrics, "info": info,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, report setup_s, and exit without serving")
    ap.add_argument("--pin", action="store_true",
                    help="serve serially and pin the report in expected.json")
    args = ap.parse_args(argv)
    if args.scale <= 0:
        ap.error("--scale must be positive")
    result = measure(args)
    ok = all(c["ok"] for c in result.get("checks", []))
    for c in result.get("checks", []):
        if not c["ok"]:
            print(f"CHECK FAILED [{args.workload}] {c['name']}: {c['detail']}", file=sys.stderr)
    if args.pin and ok:
        pin(args.workload, args.seed, result["info"]["fingerprint"])
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
