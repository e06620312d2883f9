"""Property/determinism suite for the ``repro.parallel`` fan-out engine.

The engine's contract is that the serial, thread-pool, and process-pool
backends are interchangeable: for every threaded hot path —
verification batches, scheduler frames, PSO fitness evaluation — the
*results* (verdicts, margins, schedule statistics, best fitness) must be
bit-identical across backends and across repeated runs, including under
deterministic :class:`~repro.resilience.ChaosMonkey` fault injection.
Wall-clock fields are explicitly outside the contract
(:meth:`ScheduleReport.canonical` strips them).

Everything here is marked ``parallel`` and guarded by the SIGALRM
watchdog in ``conftest.py`` so a deadlocked pool can never hang tier-1.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import BudgetExceededError
from repro.nn.layers import Dense, ReLU
from repro.nn.network import Sequential
from repro.obs import MetricsRegistry, use_metrics
from repro.parallel import (
    BACKENDS,
    RelaxationCache,
    SerialExecutor,
    derive_seed,
    make_executor,
    map_slices,
    map_solve,
)
from repro.pso.discrete import (
    DiscreteSpace,
    DistributionDiscretePSO,
    RoundingDiscretePSO,
)
from repro.pso.swarm import PSOConfig, optimize
from repro.qos.scheduler import Scheduler
from repro.resilience import Budget, FaultSpec
from repro.verify import classification_spec, verify_batch

pytestmark = pytest.mark.parallel

POOL_WORKERS = 2


def _square(x):
    return x * x


def _sphere(x):
    return float(np.sum(np.asarray(x, dtype=np.float64) ** 2))


def _boom(i):
    # module-level so the process backend can pickle it
    if i == 3:
        raise ValueError("task 3 failed")
    return i


class _CountingExecutor(SerialExecutor):
    """Serial executor with a worker count, recording each dispatch size."""

    def __init__(self, max_workers: int):
        self._workers = max_workers
        self.dispatches = []

    @property
    def max_workers(self) -> int:
        return self._workers

    def map_cancellable(self, fn, items, should_cancel=None):
        self.dispatches.append(len(items))
        return super().map_cancellable(fn, items, should_cancel)


def _backend_results(fn):
    """Run ``fn(executor)`` once per backend, returning {backend: result}."""
    out = {}
    for backend in BACKENDS:
        with make_executor(backend, max_workers=POOL_WORKERS) as ex:
            out[backend] = fn(ex)
    return out


def _assert_all_backends_equal(results):
    baseline = results["serial"]
    for backend, got in results.items():
        assert got == baseline, f"{backend} diverged from serial"


# ---------------------------------------------------------------------------
# engine primitives
# ---------------------------------------------------------------------------

class TestMapSolve:
    def test_order_preserved_on_every_backend(self):
        expected = [i * i for i in range(23)]
        results = _backend_results(
            lambda ex: map_solve(_square, range(23), executor=ex, chunk_size=4))
        _assert_all_backends_equal(results)
        assert results["serial"] == expected

    def test_exception_in_task_propagates(self):
        for backend in BACKENDS:
            with make_executor(backend, max_workers=POOL_WORKERS) as ex:
                with pytest.raises(ValueError, match="task 3"):
                    map_solve(_boom, range(6), executor=ex)

    def test_budget_cancels_pending_chunks(self):
        calls = []

        def record(i):
            calls.append(i)
            return i

        budget = Budget(iterations=4)
        with pytest.raises(BudgetExceededError):
            map_solve(record, range(20), budget=budget, chunk_size=2)
        # two chunks of 2 ran before the third chunk's check raised;
        # the remaining 16 tasks were cancelled without being dispatched
        assert calls == [0, 1, 2, 3]

    def test_cancellation_counter_recorded(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            with pytest.raises(BudgetExceededError):
                map_solve(_square, range(10), budget=Budget(iterations=2),
                          chunk_size=2, label="probe")
        assert registry.counter_value("parallel.cancelled_tasks",
                                      backend="serial", label="probe") == 8.0
        assert registry.counter_value("parallel.tasks",
                                      backend="serial", label="probe") == 2.0
        # 4 of the 5 chunks never fully ran: all were cancelled outright
        assert registry.counter_value("parallel.cancelled_chunks",
                                      backend="serial", label="probe") == 4.0

    def test_wall_clock_expiry_mid_chunk_skips_queued_items(self):
        """The budget expiring *inside* a chunk must stop dispatch there.

        Before the fix, the in-flight chunk always ran to completion and
        its tail results were discarded by the raise at the next chunk
        boundary — executed-then-discarded waste.
        """
        clock = {"now": 0.0}
        calls = []

        def slow(i):
            calls.append(i)
            clock["now"] += 3.0  # each task eats 3s of fake wall time
            return i

        budget = Budget(wall_clock_s=5.0, clock=lambda: clock["now"])
        registry = MetricsRegistry()
        with use_metrics(registry):
            with pytest.raises(BudgetExceededError):
                map_solve(slow, range(8), budget=budget, chunk_size=4,
                          label="midchunk")
        # the budget expired after task 1 (t=6s > 5s): tasks 2..7 were
        # never executed, including the two still queued in chunk 0
        assert calls == [0, 1]
        assert registry.counter_value("parallel.cancelled_tasks",
                                      backend="serial",
                                      label="midchunk") == 6.0
        # chunk 0 partially ran, chunk 1 never dispatched: both count
        assert registry.counter_value("parallel.cancelled_chunks",
                                      backend="serial",
                                      label="midchunk") == 2.0

    def test_unbudgeted_fan_out_is_one_dispatch(self):
        """Chunk barriers only serve budget cancellation: without a budget
        every item goes out in one dispatch, whatever ``chunk_size``."""
        for chunk_size in (None, 2):
            ex = _CountingExecutor(max_workers=3)
            assert map_solve(_square, range(10), executor=ex,
                             chunk_size=chunk_size) == [i * i for i in range(10)]
            assert ex.dispatches == [10]
        ex = _CountingExecutor(max_workers=3)
        map_solve(_square, range(10), executor=ex, budget=Budget(iterations=100),
                  chunk_size=4)
        assert ex.dispatches == [4, 4, 2]
        ex = _CountingExecutor(max_workers=3)
        map_solve(_square, range(30), executor=ex, budget=Budget(iterations=100))
        assert ex.dispatches == [12, 12, 6]

    def test_map_slices_one_contiguous_slice_per_worker(self):
        for workers, n, sizes in ((1, 7, [7]), (2, 7, [3, 4]), (5, 12, [2, 2, 3, 2, 3]),
                                  (5, 3, [1, 1, 1]), (3, 0, [])):
            ex = _CountingExecutor(max_workers=workers)
            seen = []

            def squares(items, seen=seen):
                seen.append(list(items))
                return [i * i for i in items]

            assert map_slices(squares, range(n), executor=ex) == [i * i for i in range(n)]
            assert [len(s) for s in seen] == sizes
            assert [i for s in seen for i in s] == list(range(n))
            assert ex.dispatches == ([len(sizes)] if n else [])

    def test_map_cancellable_returns_ordered_prefix_on_pools(self):
        gate = {"open": False}

        def should_cancel():
            return gate["open"]

        for backend in BACKENDS:
            with make_executor(backend, max_workers=POOL_WORKERS) as ex:
                results, skipped = ex.map_cancellable(
                    _square, range(6), should_cancel)
                assert (results, skipped) == ([i * i for i in range(6)], 0)
        # with cancellation requested up-front, nothing new is dispatched
        gate["open"] = True
        with make_executor("thread", max_workers=POOL_WORKERS) as ex:
            results, skipped = ex.map_cancellable(
                _square, range(6), should_cancel)
        assert results == []
        assert skipped == 6


class TestDeriveSeed:
    @given(master=st.integers(0, 2**32 - 1), index=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_stable_and_in_range(self, master, index):
        a = derive_seed(master, index)
        assert a == derive_seed(master, index)
        assert 0 <= a < 2**63

    def test_distinct_across_index_and_salt(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(0, 1, "qos") != derive_seed(0, 1, "pso")
        assert derive_seed(0, 1) != derive_seed(1, 0)


# ---------------------------------------------------------------------------
# hot path 1: batched verification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def verify_workload():
    rng = np.random.default_rng(42)
    net = Sequential([
        Dense(2, 6, rng=rng), ReLU(), Dense(6, 6, rng=rng), ReLU(),
        Dense(6, 2, rng=rng),
    ])
    specs = [classification_spec(rng.standard_normal(2), eps=0.04,
                                 true_label=0, other_label=1, n_classes=2)
             for _ in range(5)]
    return net, specs


class TestVerificationDeterminism:
    @pytest.mark.parametrize("method", ["ibp", "crown", "lp"])
    def test_verdicts_bit_identical_across_backends(self, verify_workload, method):
        net, specs = verify_workload
        baseline = [(r.verified, r.margin_lower_bound, r.complete)
                    for r in verify_batch(net, specs, method=method)]
        results = _backend_results(
            lambda ex: [(r.verified, r.margin_lower_bound, r.complete)
                        for r in verify_batch(net, specs, method=method,
                                              executor=ex)])
        _assert_all_backends_equal(results)
        assert results["serial"] == baseline

    def test_cached_run_matches_uncached_across_backends(self, verify_workload):
        net, specs = verify_workload
        baseline = [(r.verified, r.margin_lower_bound)
                    for r in verify_batch(net, specs, method="crown")]
        results = _backend_results(
            lambda ex: [(r.verified, r.margin_lower_bound)
                        for r in verify_batch(net, specs + specs, method="crown",
                                              executor=ex,
                                              cache=RelaxationCache())])
        _assert_all_backends_equal(results)
        assert results["serial"] == baseline + baseline


# ---------------------------------------------------------------------------
# hot path 2: scheduler frames
# ---------------------------------------------------------------------------

def _schedule(ex, **kwargs):
    sched = Scheduler(n_users=3, strategy="greedy", seed=7, rate_floor_scale=0.3)
    return sched.run(4, executor=ex, **kwargs).canonical()


class TestSchedulerDeterminism:
    def test_report_bit_identical_across_backends(self):
        results = _backend_results(_schedule)
        _assert_all_backends_equal(results)
        # the parallel serial backend must also match the legacy loop
        legacy = Scheduler(n_users=3, strategy="greedy", seed=7,
                           rate_floor_scale=0.3).run(4).canonical()
        assert results["serial"] == legacy
        # ... for a node-capped exact strategy too: max_nodes is its only cap
        exact = dict(n_users=3, strategy="exact", max_nodes=5, seed=7,
                     rate_floor_scale=0.3)
        with SerialExecutor() as ex:
            fanned = Scheduler(**exact).run(4, executor=ex).canonical()
        assert fanned == Scheduler(**exact).run(4).canonical()

    def test_seed_changes_report(self):
        with SerialExecutor() as ex:
            a = Scheduler(n_users=3, strategy="greedy", seed=1).run(3, executor=ex)
            b = Scheduler(n_users=3, strategy="greedy", seed=2).run(3, executor=ex)
        assert a.canonical() != b.canonical()

    @pytest.mark.parametrize("seed", [3, 11])
    def test_resilient_chaos_bit_identical_across_backends(self, seed):
        """The satellite property: fault injection is part of the contract.

        Each frame gets its own ChaosMonkey seeded from (seed, frame), so
        the injection schedule — and therefore which rung answers — is
        identical no matter which backend ran the frame.
        """
        spec = FaultSpec(exception_rate=0.6, nan_rate=0.4)

        def run(ex):
            sched = Scheduler(n_users=2, strategy="relaxed", seed=seed,
                              resilient=True, max_nodes=60,
                              rate_floor_scale=0.3)
            return sched.run(3, executor=ex, chaos=spec).canonical()

        results = _backend_results(run)
        _assert_all_backends_equal(results)
        # chaos at these rates must actually degrade some frame off the
        # exact rung, otherwise the property is vacuous
        assert set(results["serial"]["rung_counts"]) != {"exact-bnb"}


# ---------------------------------------------------------------------------
# hot path 3: PSO fitness evaluation (all three variants)
# ---------------------------------------------------------------------------

_PSO_CFG = PSOConfig(swarm_size=8, max_generations=12)


class TestPSODeterminism:
    def test_continuous_best_fitness_bit_identical(self):
        lo, hi = np.full(3, -2.0), np.full(3, 2.0)
        baseline = optimize(_sphere, lo, hi, config=_PSO_CFG, seed=5)
        results = _backend_results(
            lambda ex: optimize(_sphere, lo, hi, config=_PSO_CFG, seed=5,
                                executor=ex))
        for backend, got in results.items():
            assert got.best_value == baseline.best_value, backend
            assert np.array_equal(got.best_x, baseline.best_x), backend
            assert got.history == baseline.history, backend

    def test_rounding_discrete_bit_identical(self):
        space = DiscreteSpace.integer_box(0, 5, 3)
        baseline = RoundingDiscretePSO(
            _sphere, space, config=_PSO_CFG,
            rng=np.random.default_rng(9)).run()
        results = _backend_results(
            lambda ex: RoundingDiscretePSO(
                _sphere, space, config=_PSO_CFG,
                rng=np.random.default_rng(9), executor=ex).run())
        for backend, got in results.items():
            assert got.best_value == baseline.best_value, backend
            assert np.array_equal(got.best_x, baseline.best_x), backend

    def test_distribution_discrete_bit_identical(self):
        space = DiscreteSpace.integer_box(0, 5, 3)
        baseline = DistributionDiscretePSO(
            _sphere, space, config=_PSO_CFG, samples_per_particle=2,
            rng=np.random.default_rng(9)).run()
        results = _backend_results(
            lambda ex: DistributionDiscretePSO(
                _sphere, space, config=_PSO_CFG, samples_per_particle=2,
                rng=np.random.default_rng(9), executor=ex).run())
        for backend, got in results.items():
            assert got.best_value == baseline.best_value, backend
            assert np.array_equal(got.best_x, baseline.best_x), backend
            assert got.history == baseline.history, backend

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_thread_pool_matches_serial_for_any_seed(self, seed):
        lo, hi = np.full(2, -1.0), np.full(2, 1.0)
        cfg = PSOConfig(swarm_size=4, max_generations=4)
        serial = optimize(_sphere, lo, hi, config=cfg, seed=seed)
        with make_executor("thread", max_workers=POOL_WORKERS) as ex:
            pooled = optimize(_sphere, lo, hi, config=cfg, seed=seed, executor=ex)
        assert pooled.best_value == serial.best_value
        assert np.array_equal(pooled.best_x, serial.best_x)
