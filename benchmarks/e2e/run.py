"""End-to-end serving benchmark: three traffic mixes through ``repro.serve``.

From the repository root::

    python3 benchmarks/e2e/run.py                        # every workload, seed 11
    python3 benchmarks/e2e/run.py --trace                # per-layer run instead
    python3 benchmarks/e2e/run.py --workload steady --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --out runs.json        # also append the runs to a file
    python3 benchmarks/e2e/run.py compare A.json B.json  # medians, quartiles, verdicts
    python3 benchmarks/e2e/run.py pin                    # re-pin expected.json

Each workload run is a fresh ``workload.py`` process (with ``src`` on its
``PYTHONPATH``), plus ``SETUP_SAMPLES - 1`` set-up-only processes whose
median set-up time is reported as ``setup_s``.  Every metric is printed by
name with its unit; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the ``end_to_end``
metrics of BENCHMARK.json, or its ``per_layer`` metrics with ``--trace``).
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
#: set-up samples per untraced run (the run itself plus set-up-only processes)
SETUP_SAMPLES = 5
#: a run must end within 180 s; a set-up-only process takes well under 1 s
RUN_TIMEOUT_S = 170.0
SETUP_TIMEOUT_S = 60.0


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def child(args: Sequence[str], timeout: float) -> Tuple[dict, int]:
    """Run ``workload.py`` with ``args``; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(HERE / "workload.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout, check=False)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"workload.py {' '.join(args)} printed no result "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1]), proc.returncode


def workload_names(spec: dict) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def run_workload(spec: dict, name: str, seed: Optional[int], seconds: float, trace: int,
                 scale: float) -> dict:
    """One benchmark run of one workload, metrics labelled with units."""
    common = ["--workload", name, "--scale", repr(scale)]
    if seed is not None:
        common += ["--seed", str(seed)]
    result, code = child(common + ["--seconds", repr(seconds), "--trace", str(trace)],
                         RUN_TIMEOUT_S)
    values = dict(result["metrics"])
    if not trace:
        setups = [result["setup_s"]] + [
            child(common + ["--setup-only"], SETUP_TIMEOUT_S)[0]["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)]
        values["setup_s"] = statistics.median(setups)
        result["info"]["setup_samples_s"] = setups
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{name}: workload.py did not report {missing}")
    failed_checks = [c for c in result["checks"] if not c["ok"]]
    return {
        "workload": name, "seed": result["seed"], "trace": trace, "scale": scale,
        "correct": code == 0 and not failed_checks,
        "attempted": result["attempted"], "failed": result["failed"],
        "ops_failed": len(failed_checks), "checks": result["checks"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
        "info": result["info"],
    }


def print_run(run: dict) -> None:
    print(f"== {run['workload']} (seed {run['seed']}, "
          f"{'traced' if run['trace'] else 'untraced'}): correct={run['correct']} "
          f"attempted={run['attempted']} failed={run['failed']}")
    for name, m in run["metrics"].items():
        print(f"   {name:<28} {m['value']:>16.6g} {m['unit']}")
    info = run["info"]
    print(f"   ({info['tick_samples']} tick intervals in {len(info['wall_s'])} replica(s)"
          + (f"; {len(info['setup_samples_s'])} set-up samples)" if "setup_samples_s" in info
             else ")"))
    for c in run["checks"]:
        if not c["ok"]:
            print(f"   CHECK FAILED: {c['name']}: {c['detail']}")


def summary(runs: List[dict]) -> dict:
    """The result object: one run's metrics, or every run's by workload."""
    out = {"correct": all(r["correct"] for r in runs),
           "attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs)}
    if len(runs) == 1:
        out["metrics"] = runs[0]["metrics"]
    else:
        out["workloads"] = {r["workload"]: r["metrics"] for r in runs}
    return out


def append_runs(path: Path, runs: List[dict]) -> None:
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"runs": []}
    doc["runs"].extend(runs)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


# ---- compare -------------------------------------------------------------------

def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (one value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative(delta: float, base: float) -> float:
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """Verdict on ``change`` against ``parent`` runs, and how much worse
    its median is, as a share of the parent's median.

    ``unresolved`` when either side's quartile spread is wider than the
    bound, unless every run of the change reads better than every parent
    run; then ``regression`` past the bound, ``improved`` past it the
    other way, else ``same``.
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    worse = sign * relative(cm - pm, pm)
    spread = max(relative(p3 - p1, pm), relative(c3 - c1, cm))
    all_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if spread > bound:
        return ("improved" if all_better else "unresolved"), worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "improved", worse
    return "same", worse


def compare(spec: dict, path_a: Path, path_b: Path) -> int:
    """Print medians, quartiles and a verdict for every (workload,
    end-to-end metric) over the untraced runs of two result files; exit
    1 on any regression or unresolved pair."""
    runs = [json.loads(p.read_text(encoding="utf-8"))["runs"] for p in (path_a, path_b)]
    bad = 0
    print(f"{'workload':<9} {'metric':<20} {'unit':<6} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'worse':>8} {'bound':>7}  verdict")
    for name in workload_names(spec):
        for m in spec["end_to_end"]:
            sides = [[r["metrics"][m["name"]]["value"] for r in side
                      if r["workload"] == name and not r["trace"]] for side in runs]
            if not all(sides):
                continue
            result, worse = verdict(sides[0], sides[1], m["better"], m["bound"])
            bad += result in ("regression", "unresolved")
            cols = ["{1:.5g} [{0:.5g}, {2:.5g}] n={3}".format(*quartiles(v), len(v))
                    for v in sides]
            print(f"{name:<9} {m['name']:<20} {m['unit']:<6} {cols[0]:>34} {cols[1]:>34} "
                  f"{worse:>+8.2%} {m['bound']:>7.2%}  {result}")
    return 1 if bad else 0


# ---- main ----------------------------------------------------------------------

def pin(spec: dict) -> int:
    """Serve every workload serially at the default seed and pin its
    report fingerprint in expected.json."""
    for name in workload_names(spec):
        if child(["--workload", name, "--pin"], RUN_TIMEOUT_S)[1] != 0:
            print(f"{name}: checks failed; not pinned", file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC.is_file():
        print(f"error: {ROOT} holds no src/repro or BENCHMARK.json; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json", file=sys.stderr)
            return 2
        return compare(spec, Path(argv[1]), Path(argv[2]))
    if argv[:1] == ["pin"]:
        return pin(spec)
    ap = argparse.ArgumentParser(description="End-to-end serving benchmark")
    ap.add_argument("--workload", choices=workload_names(spec),
                    help="run one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, help="input seed (default: workload.py's, 11)")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="serve replicas until this long (default: one set)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="per-layer run (hooks installed)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="scale the simulated duration (smoke tests)")
    ap.add_argument("--out", type=Path, help="append the runs to this JSON file")
    args = ap.parse_args(argv)
    if args.scale <= 0 or args.seconds < 0:
        ap.error("--scale must be positive and --seconds nonnegative")
    names = [args.workload] if args.workload else workload_names(spec)
    runs = []
    for name in names:
        runs.append(run_workload(spec, name, args.seed, args.seconds, args.trace, args.scale))
        print_run(runs[-1])
    if args.out:
        append_runs(args.out, runs)
    out = summary(runs)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
