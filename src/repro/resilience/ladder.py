"""Fallback ladders declared as data.

The paper's §II-B-2 "hybridized approach vector" is a ladder: exact
(complete, expensive) down through successively wider relaxations
(cheap, incomplete).  This module turns that into an operational
degradation policy: a tuple of :class:`Rung` objects, tightest first,
each naming the relaxation grade it answers at.  :func:`run_ladder`
walks the rungs — retrying transient failures within a rung, descending
on persistent failure or budget exhaustion — and the returned
:class:`LadderResult` records *which rung actually answered*, so callers
always know what certainty they got (a degraded answer is honest, never
a silently wrong one).

A rung with ``guaranteed=True`` (normally the last, a cheap conservative
heuristic) is run even when the budget has already expired: serving
*some* valid answer beats hanging or crashing the QoS control plane.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    LadderExhaustedError,
    ReproError,
)
from repro.obs import Handles, get_metrics, get_tracer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import Budget, BudgetReport
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = ["Rung", "LadderResult", "run_ladder"]

#: histogram buckets for the answering rung index (ladders are short)
_RUNG_INDEX_BUCKETS = (0, 1, 2, 3, 4, 8)


@dataclass(frozen=True)
class Rung:
    """One step of a fallback ladder.

    ``grade`` is a human-readable relaxation-grade label (e.g. ``exact``,
    ``lp``, ``sdp``, ``heuristic``) recorded in the result; ``solve`` is
    the zero-argument computation; ``retry`` governs transient failures
    *within* this rung before the ladder descends; ``guaranteed`` marks a
    rung that must run even with an exhausted budget.

    A rung with ``accepts_warm_start=True`` is called as
    ``solve(warm_start=iterate)`` when the previously failed rung's error
    carried a best iterate (``err.iterate``) — work a failed tighter rung
    already paid for seeds the next one instead of being thrown away.
    The closure owns shape validation: a carried iterate it cannot use
    must be ignored, never an error.
    """

    name: str
    solve: Callable[..., object]
    grade: str = ""
    retry: Optional[RetryPolicy] = None
    guaranteed: bool = False
    accepts_warm_start: bool = False


@dataclass(frozen=True)
class LadderResult:
    """Outcome of one ladder run: the value plus full provenance.

    ``rung_times`` records the wall-clock each *attempted* rung spent
    (including its retries), measured with the budget's injectable clock
    when a budget is threaded through — skipped rungs do not appear.
    """

    value: object
    rung: str
    rung_index: int
    grade: str
    attempts: int
    failures: Tuple[Tuple[str, str], ...]
    budget: Optional[BudgetReport] = None
    rung_times: Tuple[Tuple[str, float], ...] = ()

    @property
    def degraded(self) -> bool:
        """True when a rung below the tightest one answered."""
        return self.rung_index > 0

    @property
    def total_rung_time(self) -> float:
        import math

        return math.fsum(t for _, t in self.rung_times)


#: the per-answer ladder series, resolved once per (series, ladder, rung)
_HANDLES = Handles()


def _rung_counter(series: str, ladder: str, rung: str):
    return _HANDLES.get((series, ladder, rung), lambda m: m.counter(
        series, ladder=ladder, rung=rung))


def run_ladder(
    rungs: Sequence[Rung],
    budget: Optional[Budget] = None,
    validator: Optional[Callable[[object], None]] = None,
    breaker: Optional[CircuitBreaker] = None,
    rng: Optional[np.random.Generator] = None,
    sleep: Callable[[float], None] = time.sleep,
    name: str = "ladder",
    clock: Optional[Callable[[], float]] = None,
) -> LadderResult:
    """Walk *rungs* tightest-first until one produces a valid answer.

    ``validator(value)`` may raise any :class:`ReproError` to reject a
    rung's output (e.g. a NaN-corrupted bound) — rejection counts as a
    rung failure and the ladder descends.  A :class:`CircuitBreaker`
    guards the *non-guaranteed* rungs: while open, the ladder jumps
    straight to the guaranteed conservative rung; the primary rung's
    outcome feeds the breaker state.

    ``name`` labels this ladder in traces and metrics (``"verify"``,
    ``"rra"``, ...).  Per-rung wall time is measured with ``clock``,
    defaulting to the budget's injectable clock when one is threaded
    through (so deterministic tests drive both with one fake clock) and
    ``time.perf_counter`` otherwise.
    """
    if not rungs:
        raise ConfigurationError("ladder needs at least one rung")
    if rng is None and any(r.retry is not None and r.retry.max_attempts > 1 for r in rungs):
        # the jitter stream is shared by every rung; a ladder that cannot
        # retry never draws from it, so it is only built when one can
        rng = np.random.default_rng(0)
    if clock is None:
        clock = budget.clock if budget is not None else time.perf_counter
    tracer = get_tracer()
    metrics = get_metrics()
    failures: List[Tuple[str, str]] = []
    rung_times: List[Tuple[str, float]] = []
    total_attempts = 0
    carry: object = None  # best iterate carried down from a failed rung

    skip_to_guaranteed = breaker is not None and not breaker.allow()

    with tracer.span("resilience.ladder", ladder=name, rungs=len(rungs)) as span:
        for index, rung in enumerate(rungs):
            out_of_budget = budget is not None and budget.expired
            if (skip_to_guaranteed or out_of_budget) and not rung.guaranteed:
                reason = "circuit open" if skip_to_guaranteed else "budget exhausted"
                failures.append((rung.name, f"skipped: {reason}"))
                tracer.event("ladder.rung_skipped", ladder=name,
                             rung=rung.name, reason=reason)
                metrics.counter("ladder.rung_skipped", ladder=name,
                                reason=reason).inc()
                continue

            attempt_counter = [0]

            def attempt(rung: Rung = rung, counter: List[int] = attempt_counter) -> object:
                counter[0] += 1
                if rung.accepts_warm_start and carry is not None:
                    value = rung.solve(warm_start=carry)
                else:
                    value = rung.solve()
                if validator is not None:
                    validator(value)
                return value

            rung_start = clock()
            try:
                # a guaranteed rung must finish even if the budget expires
                # mid-rung, so it runs with no budget guard on its retries
                outcome = retry_call(attempt, policy=rung.retry or RetryPolicy(max_attempts=1),
                                     rng=rng, sleep=sleep,
                                     budget=None if rung.guaranteed else budget)
                rung_times.append((rung.name, clock() - rung_start))
                total_attempts += attempt_counter[0]
                if breaker is not None and index == 0:
                    breaker.record_success()
                span.set(answered=rung.name, rung_index=index,
                         attempts=total_attempts)
                tracer.event("ladder.answered", ladder=name, rung=rung.name,
                             rung_index=index, grade=rung.grade or rung.name)
                _rung_counter("ladder.answered", name, rung.name).inc()
                _HANDLES.get(("ladder.rung_index", name), lambda m: m.histogram(
                    "ladder.rung_index", buckets=_RUNG_INDEX_BUCKETS,
                    ladder=name)).observe(index)
                return LadderResult(
                    value=outcome.value,
                    rung=rung.name,
                    rung_index=index,
                    grade=rung.grade or rung.name,
                    attempts=total_attempts,
                    failures=tuple(failures),
                    budget=budget.report() if budget is not None else None,
                    rung_times=tuple(rung_times),
                )
            except BudgetExceededError as err:
                rung_times.append((rung.name, clock() - rung_start))
                total_attempts += max(attempt_counter[0], 1)
                failures.append((rung.name, f"BudgetExceededError: {err}"))
                tracer.event("ladder.rung_failed", ladder=name, rung=rung.name,
                             error="BudgetExceededError")
                _rung_counter("ladder.rung_failed", name, rung.name).inc()
                if breaker is not None and index == 0:
                    breaker.record_failure()
            except ReproError as err:
                rung_times.append((rung.name, clock() - rung_start))
                total_attempts += max(attempt_counter[0], 1)
                failures.append((rung.name, f"{type(err).__name__}: {err}"))
                if getattr(err, "iterate", None) is not None:
                    carry = err.iterate
                tracer.event("ladder.rung_failed", ladder=name, rung=rung.name,
                             error=type(err).__name__)
                _rung_counter("ladder.rung_failed", name, rung.name).inc()
                if breaker is not None and index == 0:
                    breaker.record_failure()

        span.set(exhausted=True)
        metrics.counter("ladder.exhausted", ladder=name).inc()
        raise LadderExhaustedError(
            f"all {len(rungs)} rungs failed: "
            + "; ".join(f"{name_} ({msg})" for name_, msg in failures),
            failures=tuple(failures),
        )
