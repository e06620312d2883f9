"""Deterministic fan-out engine with a relaxation cache.

The RCR stack is embarrassingly parallel at every layer — per-spec
verification queries, per-frame QoS scheduling, per-particle PSO fitness
evaluation.  This package provides the shared machinery that makes those
layers scale without giving up reproducibility:

* :class:`Executor` — one ordered-``map`` API over three backends
  (:class:`SerialExecutor`, :class:`ThreadExecutor`,
  :class:`ProcessExecutor`), built so results are **bit-identical**
  across backends;
* :func:`derive_seed` — stable ``(master_seed, task_index, salt)`` →
  seed derivation, the rule every parallel hot path uses for per-task
  randomness;
* :func:`map_solve` — chunked fan-out with cooperative cancellation
  against a resilience :class:`~repro.resilience.Budget` and
  ``parallel.*`` spans/counters through the installed telemetry;
* :func:`map_slices` — one :func:`map_solve` task per worker, each a
  contiguous slice of the items (the frame loops' dispatch);
* :class:`RelaxationCache` / :func:`fingerprint` — content-addressed
  LRU memoization of repeated relaxation/verification solves, with
  hit/miss/eviction counters in the metrics registry.

Consumers: ``repro.verify.verify_batch`` / ``compare_verifiers``,
``repro.qos.scheduler.Scheduler.run(executor=...)``, the three PSO
variants' fitness evaluation, and ``run_rcr_stack(executor=...)``.
See docs/PARALLELISM.md for backend selection and the determinism
contract.
"""

from __future__ import annotations

from repro.parallel.cache import RelaxationCache, fingerprint
from repro.parallel.executor import (
    BACKENDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    derive_seed,
    make_executor,
    map_slices,
    map_solve,
)

__all__ = [
    "BACKENDS",
    "Executor",
    "ProcessExecutor",
    "RelaxationCache",
    "SerialExecutor",
    "ThreadExecutor",
    "derive_seed",
    "fingerprint",
    "make_executor",
    "map_slices",
    "map_solve",
]
