#!/usr/bin/env python
"""Profile one end-to-end serving measurement under cProfile.

Runs ``benchmarks/e2e/workload.py``'s ``measure`` (imported, not edited)
for one workload, seed and scale in this process, then prints the top
functions by self time and a per-module rollup of self time.  This is
the one command behind the "starting point" profiles in ROADMAP.md.
Run from the repo root::

    PYTHONPATH=src python tools/profile_e2e.py --workload overload --seed 11 --scale 0.25
    PYTHONPATH=src python tools/profile_e2e.py --workload steady --top 40 --out steady.prof

Only this process is profiled: on ``fanout`` the process-pool workers'
solves are not in the table.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"


def load_workload():
    """Import ``workload.py`` (it imports ``hooks`` from its own folder)."""
    for path in (ROOT / "src", E2E):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workload
    return workload


def module_of(filename: str) -> str:
    """A readable module name for a profiled file: ``repro.serve.shard``
    for files under ``src``, the bare file name for benchmark scripts and
    ``~`` for built-ins."""
    if filename == "~" or filename.startswith("<"):
        return "~"
    path = Path(filename)
    try:
        rel = path.resolve().relative_to(ROOT / "src")
    except ValueError:
        return path.name
    return ".".join(rel.with_suffix("").parts)


def rollup(stats: pstats.Stats) -> List[Tuple[str, float, int]]:
    """Self time and primitive call count per module, largest first."""
    per: Dict[str, List[float]] = {}
    for (filename, _line, _name), (prim, _calls, tottime, _cum, _callers) in stats.stats.items():
        row = per.setdefault(module_of(filename), [0.0, 0])
        row[0] += tottime
        row[1] += prim
    return sorted(((m, t, int(n)) for m, (t, n) in per.items()), key=lambda r: -r[1])


def profile(workload_name: str, seed: int, scale: float) -> Tuple[dict, pstats.Stats]:
    """One untraced ``measure`` run under cProfile: (result, stats)."""
    workload = load_workload()
    args = argparse.Namespace(workload=workload_name, seed=seed, seconds=0.0, trace=0,
                              scale=scale, setup_only=False, pin=False)
    prof = cProfile.Profile()
    result = prof.runcall(workload.measure, args)
    return result, pstats.Stats(prof, stream=io.StringIO())


def report(result: dict, stats: pstats.Stats, top: int) -> str:
    total = stats.total_tt
    lines = [f"workload {result['workload']} seed {result['seed']} scale {result['scale']}: "
             f"{total:.2f} s profiled, correct={all(c['ok'] for c in result['checks'])}",
             "", f"top {top} functions by self time:",
             f"{'self_s':>8} {'share':>6} {'calls':>9}  function"]
    rows = sorted(stats.stats.items(), key=lambda kv: -kv[1][2])[:top]
    for (filename, line, name), (prim, _calls, tottime, _cum, _callers) in rows:
        where = f"{module_of(filename)}:{line}({name})" if filename != "~" else name
        lines.append(f"{tottime:8.3f} {tottime / max(total, 1e-12):6.1%} {prim:9d}  {where}")
    lines += ["", "self time by module:", f"{'self_s':>8} {'share':>6} {'calls':>9}  module"]
    for module, tottime, calls in rollup(stats)[:top]:
        lines.append(f"{tottime:8.3f} {tottime / max(total, 1e-12):6.1%} {calls:9d}  {module}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="overload", choices=("steady", "overload", "fanout"))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--scale", type=float, default=0.25,
                    help="fraction of the workload's simulated duration (default 0.25)")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--out", type=Path, help="also dump the raw pstats to this file")
    args = ap.parse_args(argv)
    if args.scale <= 0 or args.top < 1:
        ap.error("--scale must be positive and --top at least 1")
    result, stats = profile(args.workload, args.seed, args.scale)
    if args.out is not None:
        stats.dump_stats(str(args.out))
    print(report(result, stats, args.top))
    return 0 if all(c["ok"] for c in result["checks"]) else 1


if __name__ == "__main__":
    sys.exit(main())
