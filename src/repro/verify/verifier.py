"""Unified verification harness: the paper's hybrid exact/relaxed vector.

§II-B-2 verifies the MSY3I with "a hybridized approach vector ...
(1) exact (complete), and (2) relaxed (incomplete)" and frames the
trade-off through false-negative rates.  :func:`verify` dispatches one
spec to one method; :func:`compare_verifiers` runs the whole ladder and
computes the agreement/false-negative statistics the VERIF benchmark
prints.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import NumericalInstabilityError, VerificationError
from repro.convex.relaxation import RelaxationGrade
from repro.kernels.propagation import (
    crown_ibp_margin_batch,
    crown_margin_batch,
    ibp_margin_batch,
)
from repro.nn.network import Sequential
from repro.obs import MARGIN_BUCKETS, get_metrics, get_tracer
from repro.parallel import Executor, RelaxationCache, fingerprint, map_solve
from repro.resilience import (
    Budget,
    BudgetReport,
    CircuitBreaker,
    LadderResult,
    RetryPolicy,
    Rung,
    run_ladder,
)
from repro.verify.exact import exact_margin_bound
from repro.verify.firstorder_lp import firstorder_margin_lower_bound
from repro.verify.interval import ibp_margin_lower_bound
from repro.verify.linear_bounds import crown_margin_lower_bound
from repro.verify.lp_relax import lp_margin_lower_bound
from repro.verify.specs import RobustnessSpec

Method = Literal["ibp", "crown-ibp", "crown", "lp", "firstorder", "exact"]

METHOD_GRADES: Dict[str, RelaxationGrade] = {
    "ibp": RelaxationGrade.INTERVAL,
    "crown-ibp": RelaxationGrade.LINEAR,
    "crown": RelaxationGrade.LINEAR,
    "lp": RelaxationGrade.LINEAR,
    "firstorder": RelaxationGrade.LINEAR,
    "exact": RelaxationGrade.EXACT,
}

#: default degradation order: tightest/most certain first (§II-B-2).
#: ``firstorder`` bounds the same triangle polytope as ``lp`` via dual
#: supergradient ascent — cheaper than the simplex, certify-or-reject —
#: so it sits between the simplex LP and single-pass CROWN.
VERIFICATION_FALLBACK: Tuple[str, ...] = ("exact", "lp", "firstorder", "crown", "ibp")

#: methods with a batched kernel fast path in :func:`verify_batch`
FAST_BATCH_METHODS: Tuple[str, ...] = ("ibp", "crown-ibp", "crown")

__all__ = ["VerificationResult", "ResilientVerificationResult", "verify",
           "verify_batch", "verification_fingerprint", "verify_resilient",
           "compare_verifiers", "false_negative_rate",
           "METHOD_GRADES", "VERIFICATION_FALLBACK", "FAST_BATCH_METHODS"]


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one (spec, method) verification query.

    ``verified`` means the method *proved* the property; for relaxed
    methods ``verified=False`` may be a false negative (property true but
    bound too loose), never a false positive.
    """

    method: str
    verified: bool
    margin_lower_bound: float
    wall_time: float
    complete: bool

    @property
    def grade(self) -> RelaxationGrade:
        return METHOD_GRADES[self.method]


def _record_query(method: str, verified: bool, bound: float) -> None:
    """Count one answered query (and its proof) and histogram its margin."""
    metrics = get_metrics()
    metrics.counter("verifier.queries", method=method).inc()
    if verified:
        metrics.counter("verifier.verified", method=method).inc()
    if np.isfinite(bound):
        metrics.histogram("verifier.margin", buckets=MARGIN_BUCKETS,
                          method=method).observe(float(bound))


def verify(net: Sequential, spec: RobustnessSpec, method: Method = "crown",
           max_nodes: int = 20000, time_limit: float = float("inf"),
           clock: Callable[[], float] = time.perf_counter) -> VerificationResult:
    """Verify one robustness spec with one method of the ladder.

    ``clock`` is the monotonic time source for ``wall_time`` — injectable
    (e.g. :attr:`repro.resilience.Budget.clock`) so one fake clock can
    drive deterministic timing in tests; it must never be a wall-clock
    like ``time.time``, which jumps under NTP adjustment.
    """
    if method not in METHOD_GRADES:
        raise VerificationError(f"unknown method {method!r}; choose from {sorted(METHOD_GRADES)}")
    start = clock()
    complete = method == "exact"
    with get_tracer().span("verify.query", method=method) as span:
        if method == "ibp":
            bound = ibp_margin_lower_bound(net, spec.x0, spec.eps, spec.c, spec.d)
        elif method == "crown-ibp":
            bound = crown_margin_lower_bound(net, spec.x0, spec.eps, spec.c, spec.d, method="crown-ibp")
        elif method == "crown":
            bound = crown_margin_lower_bound(net, spec.x0, spec.eps, spec.c, spec.d, method="crown")
        elif method == "lp":
            bound = lp_margin_lower_bound(net, spec.x0, spec.eps, spec.c, spec.d)
        elif method == "firstorder":
            # certify-or-reject: an uncertified dual bound raises
            # CertificationError, failing this rung so the ladder descends
            bound = firstorder_margin_lower_bound(net, spec.x0, spec.eps,
                                                  spec.c, spec.d)
        else:
            res = exact_margin_bound(net, spec.x0, spec.eps, spec.c, spec.d,
                                     max_nodes=max_nodes, time_limit=time_limit)
            bound = res.margin
            complete = res.converged
        verified = bound > 0.0
        span.set(verified=verified, margin=float(bound))
    _record_query(method, verified, bound)
    return VerificationResult(
        method=method,
        verified=verified,
        margin_lower_bound=float(bound),
        wall_time=clock() - start,
        complete=complete,
    )


@dataclass(frozen=True)
class ResilientVerificationResult:
    """A verification verdict with full degradation provenance.

    ``result`` is the answering rung's :class:`VerificationResult`;
    ``rung``/``grade`` say *which* ladder step produced it (so a caller
    knows whether it holds an exact verdict or a widened relaxation);
    ``attempts`` counts every underlying verifier call including retries;
    ``failures`` lists the rungs that failed on the way down.
    """

    result: VerificationResult
    rung: str
    rung_index: int
    grade: RelaxationGrade
    attempts: int
    failures: Tuple[Tuple[str, str], ...]
    budget: Optional[BudgetReport] = None
    rung_times: Tuple[Tuple[str, float], ...] = ()

    @property
    def verified(self) -> bool:
        return self.result.verified

    @property
    def degraded(self) -> bool:
        return self.rung_index > 0

    @property
    def complete(self) -> bool:
        """True only when the *exact* rung answered and converged — a
        degraded verdict is never complete."""
        return self.result.complete and self.rung == "exact"


def _validate_verification(value: object) -> None:
    """Reject corrupted verifier output: a non-finite margin must never
    become a silently wrong ``verified`` claim (NaN/Inf comparisons lie)."""
    assert isinstance(value, VerificationResult)
    bound = value.margin_lower_bound
    if not np.isfinite(bound) and bound != float("-inf"):
        raise NumericalInstabilityError(
            f"verifier {value.method!r} produced non-finite margin {bound!r}"
        )


def verify_resilient(
    net: Sequential,
    spec: RobustnessSpec,
    ladder: Sequence[str] = VERIFICATION_FALLBACK,
    budget: Optional[Budget] = None,
    retry: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    max_nodes: int = 20000,
    verify_fn: Optional[Callable[..., VerificationResult]] = None,
    rng: Optional[np.random.Generator] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> ResilientVerificationResult:
    """Verify through the *degradation* ladder: exact first, widening the
    relaxation on failure.

    Complements :meth:`repro.core.rcr.RobustConvexRelaxation.certify`
    (which escalates cheap -> exact for tightness): this runs when the
    system must *stay up* — a rung that raises, exceeds the budget, or
    returns a corrupted bound is recorded and the next (looser but
    cheaper) rung answers instead.  The loosest rung is guaranteed: it
    runs even on an exhausted budget, because IBP costs microseconds and
    a loose-but-sound answer beats none.  ``verify_fn`` is injectable so
    the chaos harness can wrap the underlying verifier.
    """
    if not ladder:
        raise VerificationError("ladder must name at least one method")
    for m in ladder:
        if m not in METHOD_GRADES:
            raise VerificationError(
                f"unknown method {m!r}; choose from {sorted(METHOD_GRADES)}")
    if verify_fn is not None:
        call = verify_fn
    elif budget is not None:
        # share the budget's injectable monotonic clock so one fake clock
        # drives both the deadline and the per-query wall times
        def call(*args, **kwargs):
            return verify(*args, clock=budget.clock, **kwargs)
    else:
        call = verify
    retry = retry or RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

    def make_solver(method: str, guaranteed: bool) -> Callable[[], VerificationResult]:
        def solve() -> VerificationResult:
            time_limit = float("inf")
            if budget is not None:
                if guaranteed:
                    budget.charge(1)  # account, but never refuse the last resort
                else:
                    budget.spend(1, context=f"verify[{method}]")
                    time_limit = budget.remaining_time
            return call(net, spec, method=method, max_nodes=max_nodes,
                        time_limit=time_limit)
        return solve

    rungs = [
        Rung(
            name=method,
            solve=make_solver(method, i == len(ladder) - 1),
            grade=METHOD_GRADES[method].name.lower(),
            retry=retry,
            guaranteed=(i == len(ladder) - 1),
        )
        for i, method in enumerate(ladder)
    ]
    res: LadderResult = run_ladder(rungs, budget=budget, breaker=breaker,
                                   validator=_validate_verification,
                                   rng=rng, sleep=sleep, name="verify")
    result = res.value
    assert isinstance(result, VerificationResult)
    return ResilientVerificationResult(
        result=result,
        rung=res.rung,
        rung_index=res.rung_index,
        grade=METHOD_GRADES[res.rung],
        attempts=res.attempts,
        failures=res.failures,
        budget=res.budget,
        rung_times=res.rung_times,
    )


def verification_fingerprint(net: Sequential, spec: RobustnessSpec,
                             method: str, max_nodes: int = 20000) -> str:
    """Content-addressed key of one verification query.

    Hashes the exact bytes of every network parameter plus the spec and
    method, so two queries share a key only when the relaxation they
    induce is bit-identical — a single perturbed weight misses.
    """
    return fingerprint(net.params(), spec, method, int(max_nodes))


def _verify_task(task) -> VerificationResult:
    """Module-level worker for :func:`verify_batch` (process-picklable)."""
    net, spec, method, max_nodes = task
    return verify(net, spec, method=method, max_nodes=max_nodes)


def _verify_chunk(task) -> List[VerificationResult]:
    """Module-level worker: one batched-kernel sweep over a spec chunk.

    The whole chunk is flattened to ``(B, n)`` arrays and answered by a
    single :mod:`repro.kernels.propagation` call; the measured batch time
    is amortized uniformly over the chunk's ``wall_time`` fields.
    """
    net, specs, method = task
    start = time.perf_counter()
    x0 = np.stack([s.x0 for s in specs])
    eps = np.array([s.eps for s in specs])
    c = np.stack([s.c for s in specs])
    d = np.array([s.d for s in specs])
    with get_tracer().span("verify.batch.kernel", method=method,
                           n_specs=len(specs)) as span:
        if method == "ibp":
            margins = ibp_margin_batch(net, x0, eps, c, d)
        elif method == "crown-ibp":
            margins = crown_ibp_margin_batch(net, x0, eps, c, d)
        else:
            margins = crown_margin_batch(net, x0, eps, c, d)
        span.set(verified=int(np.sum(margins > 0.0)))
    per_spec = (time.perf_counter() - start) / max(len(specs), 1)
    out: List[VerificationResult] = []
    for m in margins:
        bound = float(m)
        verified = bound > 0.0
        _record_query(method, verified, bound)
        out.append(VerificationResult(
            method=method, verified=verified, margin_lower_bound=bound,
            wall_time=per_spec, complete=False))
    return out


def verify_batch(
    net: Sequential,
    specs: Sequence[RobustnessSpec],
    method: Method = "crown",
    max_nodes: int = 20000,
    executor: Optional[Executor] = None,
    cache: Optional[RelaxationCache] = None,
    budget=None,
    chunk_size: Optional[int] = None,
) -> List[VerificationResult]:
    """Verify a whole spec list with one method, fanned out and memoized.

    Results are returned in spec order, with sound verdicts equal (and
    margins equal to floating-point round-off) to calling :func:`verify`
    in a loop.  The relaxed propagation methods in
    :data:`FAST_BATCH_METHODS` answer whole chunks with one batched
    :mod:`repro.kernels.propagation` sweep — chunk boundaries depend only
    on ``chunk_size`` (default: one chunk), never on the executor, so
    results are bit-identical across serial/thread/process backends;
    every other method fans out one spec per task.  With a
    :class:`~repro.parallel.RelaxationCache`, queries whose fingerprint
    was already solved — earlier in this batch or in a previous one — are
    answered from the cache; only the unique misses are dispatched.  The
    coordinator owns the cache, so memoization works unchanged with the
    process backend.
    """
    specs = list(specs)

    def dispatch(todo: List[RobustnessSpec]) -> List[VerificationResult]:
        if not todo:
            return []
        if method in FAST_BATCH_METHODS:
            size = len(todo) if chunk_size is None else max(1, chunk_size)
            chunks = [todo[i:i + size] for i in range(0, len(todo), size)]
            grouped = map_solve(
                _verify_chunk, [(net, ch, method) for ch in chunks],
                executor=executor, budget=budget, label="verify.batch")
            return [r for group in grouped for r in group]
        return list(map_solve(
            _verify_task, [(net, s, method, max_nodes) for s in todo],
            executor=executor, budget=budget, chunk_size=chunk_size,
            label="verify.batch"))

    if cache is None:
        return dispatch(specs)
    # fingerprint once per unique query; dispatch only the misses
    results: List[Optional[VerificationResult]] = [None] * len(specs)
    keys = [verification_fingerprint(net, s, method, max_nodes) for s in specs]
    pending: "OrderedDict[str, List[int]]" = OrderedDict()
    for i, key in enumerate(keys):
        hit = cache.get(key)
        if hit is not None:
            results[i] = hit
        else:
            pending.setdefault(key, []).append(i)
    computed = dispatch([specs[idxs[0]] for idxs in pending.values()])
    for (key, idxs), res in zip(pending.items(), computed):
        cache.put(key, res)
        results[idxs[0]] = res
        for i in idxs[1:]:
            # in-batch duplicates are served (and counted) as cache hits
            results[i] = cache.get(key)
    return results  # type: ignore[return-value]


def compare_verifiers(net: Sequential, specs: List[RobustnessSpec],
                      methods: tuple = ("ibp", "crown-ibp", "crown", "lp", "exact"),
                      max_nodes: int = 20000,
                      executor: Optional[Executor] = None,
                      cache: Optional[RelaxationCache] = None) -> Dict[str, List[VerificationResult]]:
    """Run every method on every spec.  Returns method -> results.

    With an ``executor`` the per-spec queries of each method fan out
    through :func:`verify_batch` (and memoize through ``cache``); the
    returned verdicts and margins are identical to the serial loop.
    """
    out: Dict[str, List[VerificationResult]] = {
        m: verify_batch(net, specs, method=m, max_nodes=max_nodes,
                        executor=executor, cache=cache)
        for m in methods
    }
    # bound-gap quality metric: exact margin minus each relaxed margin
    # (>= 0 when the relaxation is sound; large = loose relaxation)
    if "exact" in out:
        metrics = get_metrics()
        for m in methods:
            if m == "exact":
                continue
            for relaxed_res, exact_res in zip(out[m], out["exact"]):
                gap = (exact_res.margin_lower_bound
                       - relaxed_res.margin_lower_bound)
                if np.isfinite(gap):
                    metrics.histogram("verifier.bound_gap",
                                      buckets=MARGIN_BUCKETS,
                                      method=m).observe(gap)
    return out


def false_negative_rate(relaxed: List[VerificationResult],
                        exact: List[VerificationResult]) -> float:
    """Fraction of specs the exact verifier proves but the relaxed method
    misses — the §II-B-2 "effectiveness degrades" metric.

    Returns 0.0 when the exact verifier proves nothing (no denominators).
    """
    if len(relaxed) != len(exact):
        raise VerificationError("result lists must align")
    proven = [e.verified for e in exact]
    n_proven = sum(proven)
    if n_proven == 0:
        return 0.0
    missed = sum(1 for r, e in zip(relaxed, exact) if e.verified and not r.verified)
    return missed / n_proven
