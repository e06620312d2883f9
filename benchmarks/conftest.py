"""Shared helpers for the benchmark suite.

Each ``bench_*.py`` module reproduces one experiment from DESIGN.md's
index: it prints the rows/series the paper's figure or prose claim
corresponds to, asserts the claim's *shape* (who wins, direction of the
effect), and times the core computation with pytest-benchmark.
"""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--commit-results", action="store_true", default=False,
        help="also write the benchmark's JSON to benchmarks/results/ for "
             "committing (only the snapshots on the .gitignore allow-list, "
             "the ones tools/bench_gate.py replays, are tracked; without "
             "this flag benches print tables and leave the tree clean)")


def banner(exp_id: str, title: str) -> None:
    line = "=" * 78
    print(f"\n{line}\n[{exp_id}] {title}\n{line}")
