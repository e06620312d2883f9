"""Retry with exponential backoff, jitter, and perturbed restarts.

Transient solver failures — a :class:`ConvergenceError` from a bad warm
start, a :class:`NumericalInstabilityError` from an ill-conditioned
iterate, an injected chaos fault — are often cured by retrying from a
slightly perturbed starting point.  :func:`retry_call` implements the
standard exponential-backoff-with-jitter loop; the jitter RNG and the
sleep function are injectable so tests are deterministic and instant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Type

import numpy as np

from repro.exceptions import (
    BudgetExceededError,
    ConfigurationError,
    ConvergenceError,
    FaultInjectedError,
    NumericalInstabilityError,
)
from repro.obs import get_metrics
from repro.resilience.budget import Budget

__all__ = ["RetryPolicy", "RetryOutcome", "retry_call", "perturb_warm_start"]

#: exception classes a retry can plausibly cure
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    ConvergenceError,
    NumericalInstabilityError,
    FaultInjectedError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule: ``base_delay * backoff**k``, capped and jittered.

    ``jitter`` is the fractional uniform spread: delay is multiplied by
    ``1 + jitter * U[0, 1)`` (decorrelates retries across callers).
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    backoff: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5
    retry_on: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ConfigurationError("delays and jitter must be nonnegative")
        if self.backoff < 1.0:
            raise ConfigurationError("backoff factor must be >= 1")

    def delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff delay after the *attempt*-th failure (1-based)."""
        raw = min(self.base_delay * self.backoff ** (attempt - 1), self.max_delay)
        return raw * (1.0 + self.jitter * float(rng.random()))


@dataclass
class RetryOutcome:
    """What a retried call actually did."""

    value: object
    attempts: int
    delays: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def retry_call(
    fn: Callable[..., object],
    policy: Optional[RetryPolicy] = None,
    rng: Optional[np.random.Generator] = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    budget: Optional[Budget] = None,
) -> RetryOutcome:
    """Call ``fn()`` with retries under *policy*.

    ``on_retry(attempt, error)`` fires before each retry — the hook where
    callers re-seed or perturb a warm start.  A :class:`Budget` caps the
    whole loop: backoff never sleeps past the deadline, and an expired
    budget aborts with :class:`BudgetExceededError` (which is never
    retried — out of time is out of time).
    """
    policy = policy or RetryPolicy()
    if rng is None and policy.max_attempts > 1:  # a single attempt never jitters
        rng = np.random.default_rng(0)
    outcome = RetryOutcome(value=None, attempts=0)
    for attempt in range(1, policy.max_attempts + 1):
        if budget is not None:
            budget.check("retry loop")
        outcome.attempts = attempt
        try:
            outcome.value = fn()
            return outcome
        except BudgetExceededError:
            raise
        except policy.retry_on as err:
            outcome.errors.append(f"{type(err).__name__}: {err}")
            if attempt == policy.max_attempts:
                get_metrics().counter("retry.exhausted",
                                      error=type(err).__name__).inc()
                raise
            get_metrics().counter("retry.retries",
                                  error=type(err).__name__).inc()
            delay = policy.delay(attempt, rng)
            if budget is not None:
                delay = min(delay, budget.remaining_time)
            outcome.delays.append(delay)
            if delay > 0:
                sleep(delay)
            if on_retry is not None:
                on_retry(attempt, err)
    raise AssertionError("unreachable")  # pragma: no cover


def perturb_warm_start(
    x0: np.ndarray,
    rng: np.random.Generator,
    scale: float = 0.1,
    attempt: int = 1,
) -> np.ndarray:
    """Perturbed restart point: gaussian noise that grows with the attempt.

    The noise magnitude is relative to the iterate's own scale so a
    restart explores a genuinely different basin without leaving the
    problem's natural range.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    magnitude = scale * attempt * max(1.0, float(np.linalg.norm(x0)) / max(1, x0.size))
    return x0 + magnitude * rng.standard_normal(x0.shape)
