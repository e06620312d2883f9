"""Radio Resource Allocation (RRA) — the paper's flagship QoS MINLP.

"An RRA problem may be formulated as a problem of optimally assigning
frequency-time blocks (integer variables) to a number of served
connections while simultaneously determining the appropriate transmit
powers (continuous variables) for these blocks" (§I).  Following the
paper's own discretization step (continuous variables converted to
discrete levels for the swarm), transmit power is chosen from a finite
level set, which linearizes the MINLP into an exactly solvable MILP:

    max  sum_{u,b,p} r[u,b,p] y[u,b,p]
    s.t. sum_{u,p} y[u,b,p] <= 1                 for every block b
         sum_{b,p} r[u,b,p] y[u,b,p] >= R_u^min  for every user u
         sum_{u,b,p} P_p y[u,b,p] <= P_total
         y binary

with ``r[u,b,p]`` the Shannon rate of user u on block b at power P_p.

Three solution strategies matching the QOS benchmark's comparison:
exact branch-and-bound, LP-relaxation + rounding repair, and discrete
PSO over per-block assignment decisions.  :func:`solve_frame` runs them,
plus the greedy baseline, as the one per-frame fallback ladder that
every frame loop (``qos.Scheduler``, ``serve.QoSService``) dispatches.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    InfeasibleError,
    LadderExhaustedError,
    NumericalInstabilityError,
    ReproError,
)
from repro.resilience import Budget, ChaosMonkey, RetryPolicy, Rung, run_ladder
from repro.convex.lp import _STACK_MIN_WIDTH, solve_lp, solve_lp_batch
from repro.convex.problem import LPProblem, Solution
from repro.minlp.heuristics import round_and_repair
from repro.minlp.milp import solve_milp
from repro.minlp.model import MILPModel
from repro.obs import get_tracer
from repro.pso.discrete import DiscreteSpace, DistributionDiscretePSO
from repro.pso.swarm import PSOConfig
from repro.qos.channel import shannon_rate
from repro.qos.traffic import UserSession

__all__ = ["RRAProblem", "RRAResult", "solve_rra_exact", "solve_rra_relaxed",
           "solve_rra_pso", "solve_rra_greedy", "solve_frame", "solve_frames",
           "RRA_FALLBACK"]

#: degradation order for the RRA solve path: exact MILP, LP-rounding,
#: then the greedy heuristic as the guaranteed conservative rung
RRA_FALLBACK: Tuple[str, ...] = ("exact-bnb", "lp-round", "greedy")


@dataclass(frozen=True)
class RRAProblem:
    """One RRA instance: gains, users, power levels, and budget."""

    gains: np.ndarray  # (U, B) linear channel gains
    users: List[UserSession]
    power_levels_mw: np.ndarray  # (P,) discrete transmit powers per block
    total_power_mw: float
    noise_mw: float
    bandwidth_hz: float = 180e3

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=np.float64)
        if gains.ndim != 2 or gains.shape[0] != len(self.users):
            raise ConfigurationError("gains must be (n_users, n_blocks)")
        levels = np.asarray(self.power_levels_mw, dtype=np.float64).ravel()
        if levels.size < 1 or np.any(levels <= 0):
            raise ConfigurationError("need positive power levels")
        if self.total_power_mw <= 0 or self.noise_mw <= 0:
            raise ConfigurationError("powers must be positive")
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "power_levels_mw", levels)

    @property
    def n_users(self) -> int:
        return self.gains.shape[0]

    @property
    def n_blocks(self) -> int:
        return self.gains.shape[1]

    @property
    def n_levels(self) -> int:
        return self.power_levels_mw.size

    def rate_table(self) -> np.ndarray:
        """Shannon rates r[u, b, p] in bits/s."""
        snr = (
            self.gains[:, :, None]
            * self.power_levels_mw[None, None, :]
            / self.noise_mw
        )
        return shannon_rate(snr, self.bandwidth_hz)

    def min_rates(self) -> np.ndarray:
        return np.array([u.min_rate_bps for u in self.users])

    # ---- assignment evaluation ----------------------------------------------
    def evaluate_assignment(self, choice: np.ndarray) -> dict:
        """Evaluate a per-block decision vector.

        ``choice[b]`` encodes ``-1`` (idle) or ``u * n_levels + p``.
        Returns rates, power use, and QoS satisfaction.
        """
        rates = self.rate_table()
        user_rates = np.zeros(self.n_users)
        power_terms = []
        for b, ch in enumerate(np.asarray(choice, dtype=int)):
            if ch < 0:
                continue
            u, p = divmod(int(ch), self.n_levels)
            user_rates[u] += rates[u, b, p]
            power_terms.append(float(self.power_levels_mw[p]))
        power = math.fsum(power_terms)
        mins = self.min_rates()
        return {
            "user_rates": user_rates,
            "total_rate": float(user_rates.sum()),
            "power_mw": power,
            "power_ok": power <= self.total_power_mw + 1e-9,
            "qos_ok": bool(np.all(user_rates >= mins - 1e-6)),
            "qos_violation": float(np.sum(np.maximum(mins - user_rates, 0.0))),
        }

    # ---- MILP construction ---------------------------------------------------
    def to_milp(self) -> MILPModel:
        """Assemble the linearized MILP (minimization of negative rate).

        Variable ``y[u, b, p]`` sits at flat index ``(u * B + b) * P + p``
        (C order), so every row below is a reshaped view of the grid.
        """
        u_n, b_n, p_n = self.n_users, self.n_blocks, self.n_levels
        n = u_n * b_n * p_n
        rates = self.rate_table()
        c = -rates.reshape(n)
        g = np.zeros((b_n + 1 + u_n, n))
        # one assignment per block
        blocks = g[:b_n].reshape(b_n, u_n, b_n, p_n)
        blocks[np.arange(b_n), :, np.arange(b_n), :] = 1.0
        # power budget
        g[b_n].reshape(u_n, b_n, p_n)[...] = self.power_levels_mw
        # per-user minimum rate: -sum r y <= -R_min
        users = g[b_n + 1:].reshape(u_n, u_n, b_n * p_n)
        users[np.arange(u_n), np.arange(u_n)] = -rates.reshape(u_n, b_n * p_n)
        h = np.concatenate([np.ones(b_n), [float(self.total_power_mw)],
                            -self.min_rates().astype(np.float64)])
        lp = LPProblem(c=c, g=g, h=h, lo=np.zeros(n), hi=np.ones(n))
        return MILPModel(lp, frozenset(range(n)))

    def choice_from_milp_x(self, x: np.ndarray) -> np.ndarray:
        """Convert a MILP solution vector to a per-block choice vector."""
        u_n, b_n, p_n = self.n_users, self.n_blocks, self.n_levels
        choice = np.full(b_n, -1, dtype=int)
        xr = np.asarray(x).reshape(u_n, b_n, p_n)
        for b in range(b_n):
            flat = xr[:, b, :].ravel()
            j = int(np.argmax(flat))
            if flat[j] > 0.5:
                u, p = divmod(j, p_n)
                choice[b] = u * p_n + p
        return choice


@dataclass(frozen=True)
class RRAResult:
    """Outcome of one RRA solve."""

    method: str
    choice: np.ndarray
    total_rate: float
    qos_ok: bool
    power_ok: bool
    wall_time: float
    extra: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.qos_ok and self.power_ok


def solve_rra_exact(problem: RRAProblem, max_nodes: int = 50000,
                    time_limit: float = 120.0, model: MILPModel | None = None,
                    root: Solution | Exception | None = None) -> RRAResult:
    """Globally optimal RRA by branch-and-bound on the linearized MILP.

    ``model`` is ``problem.to_milp()`` and ``root`` its root relaxation's
    outcome, when the caller already has them (see :func:`solve_frames`).
    """
    start = time.perf_counter()
    model = problem.to_milp() if model is None else model
    res = solve_milp(model, max_nodes=max_nodes, time_limit=time_limit, root=root)
    if res.x is None:
        raise InfeasibleError("RRA instance is infeasible (QoS floors too high)")
    choice = problem.choice_from_milp_x(res.x)
    ev = problem.evaluate_assignment(choice)
    return RRAResult(
        method="exact-bnb",
        choice=choice,
        total_rate=ev["total_rate"],
        qos_ok=ev["qos_ok"],
        power_ok=ev["power_ok"],
        wall_time=time.perf_counter() - start,
        extra={"nodes": res.nodes_explored, "gap": res.gap, "converged": res.converged},
    )


def solve_rra_relaxed(problem: RRAProblem, model: MILPModel | None = None,
                      root: Solution | Exception | None = None) -> RRAResult:
    """LP relaxation + rounding repair — the MILP-relaxation grade.

    ``model`` and ``root`` as for :func:`solve_rra_exact`; a stored root
    exception is raised here, where the root LP would have raised it.
    """
    start = time.perf_counter()
    model = problem.to_milp() if model is None else model
    if root is None:
        relaxed = solve_lp(model.relaxation())
    elif isinstance(root, Exception):
        raise root
    else:
        relaxed = root
    x = round_and_repair(model, relaxed.x)
    if x is None:
        # fall back to the fractional solution greedily snapped per block
        x = np.zeros(model.dim)
        choice = problem.choice_from_milp_x(relaxed.x)
    else:
        choice = problem.choice_from_milp_x(x)
    ev = problem.evaluate_assignment(choice)
    return RRAResult(
        method="lp-round",
        choice=choice,
        total_rate=ev["total_rate"],
        qos_ok=ev["qos_ok"],
        power_ok=ev["power_ok"],
        wall_time=time.perf_counter() - start,
        extra={"lp_bound": -relaxed.objective},
    )


def _pso_objective(problem: RRAProblem, qos_penalty: float, power_penalty: float):
    def objective(vec: np.ndarray) -> float:
        choice = np.asarray(vec, dtype=int) - 1  # space encodes 0 = idle
        ev = problem.evaluate_assignment(choice)
        obj = -ev["total_rate"]
        obj += qos_penalty * ev["qos_violation"]
        over = max(ev["power_mw"] - problem.total_power_mw, 0.0)
        obj += power_penalty * over
        return obj

    return objective


def solve_rra_pso(problem: RRAProblem, swarm_size: int = 16, generations: int = 60,
                  seed: int = 0) -> RRAResult:
    """Metaheuristic RRA: distribution-based discrete PSO over the
    per-block decision space (the stochastic-search grade of §II-A)."""
    start = time.perf_counter()
    cards = problem.n_users * problem.n_levels + 1  # 0 = idle
    space = DiscreteSpace(tuple(tuple(range(cards)) for _ in range(problem.n_blocks)))
    # scale penalties to the rate magnitudes in play
    scale = float(problem.rate_table().max())
    objective = _pso_objective(problem, qos_penalty=10.0, power_penalty=10.0 * scale)
    swarm = DistributionDiscretePSO(
        objective, space,
        config=PSOConfig(swarm_size=swarm_size, max_generations=generations),
        rng=np.random.default_rng(seed),
    )
    res = swarm.run()
    choice = np.asarray(res.best_x, dtype=int) - 1
    ev = problem.evaluate_assignment(choice)
    return RRAResult(
        method="pso",
        choice=choice,
        total_rate=ev["total_rate"],
        qos_ok=ev["qos_ok"],
        power_ok=ev["power_ok"],
        wall_time=time.perf_counter() - start,
        extra={"evaluations": res.evaluations},
    )


def _validate_rra(value: object) -> None:
    """Reject corrupted allocations: an assignment that busts the power
    budget or carries NaN rates must degrade, never ship.  ``qos_ok`` may
    honestly be False (floors can be infeasible); that is reported, not
    rejected."""
    assert isinstance(value, RRAResult)
    if not np.isfinite(value.total_rate):
        raise NumericalInstabilityError(
            f"RRA result carries non-finite total rate {value.total_rate!r}")
    if not value.power_ok:
        raise NumericalInstabilityError(
            "RRA result violates the transmit power budget")


def solve_rra_greedy(problem: RRAProblem) -> RRAResult:
    """Greedy baseline: first satisfy QoS floors by assigning each
    deficit user its best remaining block at max power, then fill the
    rest by marginal rate, respecting the power budget."""
    start = time.perf_counter()
    rates = problem.rate_table()
    p_max_idx = int(np.argmax(problem.power_levels_mw))
    n_b = problem.n_blocks
    choice = np.full(n_b, -1, dtype=int)
    remaining_power = problem.total_power_mw
    user_rates = np.zeros(problem.n_users)
    free = set(range(n_b))
    mins = problem.min_rates()

    def assign(u: int, b: int, p: int) -> None:
        nonlocal remaining_power
        choice[b] = u * problem.n_levels + p
        user_rates[u] += rates[u, b, p]
        remaining_power -= float(problem.power_levels_mw[p])
        free.discard(b)

    # phase 1: QoS floors
    progress = True
    while progress:
        progress = False
        deficits = mins - user_rates
        order = np.argsort(-deficits)
        for u in order:
            if deficits[u] <= 0 or not free:
                continue
            best_b = max(free, key=lambda b: rates[u, b, p_max_idx])
            if problem.power_levels_mw[p_max_idx] <= remaining_power:
                assign(int(u), best_b, p_max_idx)
                progress = True
            break
        if np.all(mins - user_rates <= 0):
            break
    # phase 2: throughput fill
    while free and remaining_power > 0:
        best = None
        for b in free:
            for u in range(problem.n_users):
                for p in range(problem.n_levels):
                    if problem.power_levels_mw[p] > remaining_power:
                        continue
                    gain = rates[u, b, p]
                    if best is None or gain > best[0]:
                        best = (gain, u, b, p)
        if best is None:
            break
        _, u, b, p = best
        assign(u, b, p)
    ev = problem.evaluate_assignment(choice)
    return RRAResult(
        method="greedy",
        choice=choice,
        total_rate=ev["total_rate"],
        qos_ok=ev["qos_ok"],
        power_ok=ev["power_ok"],
        wall_time=time.perf_counter() - start,
    )


def _no_sleep(_s: float) -> None:
    """Chaos latency stub: a wall-clock sleep would make a frame's cost
    depend on machine timing (an injected budget burn still applies)."""


def solve_frame(task: dict) -> dict:
    """Solve one RRA frame through its fallback ladder (module-level:
    process-picklable).

    ``task`` holds the frame's :class:`RRAProblem` and ``frame`` index,
    plus the whole solve policy as data:

    * ``rungs`` -- rung names, tightest first: a suffix of
      :data:`RRA_FALLBACK`, or one strategy rung (``pso`` is also
      available).  The last rung is guaranteed;
    * ``max_nodes`` -- the exact rung's branch-and-bound node cap;
    * ``frame_budget_s`` -- optional wall-clock budget.  Without one the
      exact rung is capped by its node budget only, never by wall clock:
      a deadline-truncated BnB returns a timing-dependent incumbent;
    * ``attempts`` -- tries per rung before the ladder descends;
    * ``validate`` -- reject non-finite or power-busting answers;
    * ``chaos`` / ``chaos_seed`` -- optional :class:`FaultSpec` and the
      seed of this frame's :class:`ChaosMonkey`;
    * ``solvers`` (optional) -- rung implementations by name, overriding
      the defaults (the chaos-test hook);
    * ``model`` / ``root`` (optional, set by :func:`solve_frames`) -- the
      problem's MILP and its root relaxation's outcome, handed to the
      exact and lp-round rungs instead of being rebuilt and re-solved.

    Nothing else is read, so the outcome is a pure function of the task
    on every :class:`repro.parallel.Executor` backend.  A frame no rung
    could answer comes back ``dropped`` with rung ``"none"`` and a
    ``rung_index`` one past the last rung.
    """
    problem: RRAProblem = task["problem"]
    names: Tuple[str, ...] = tuple(task["rungs"])
    frame_budget_s = task["frame_budget_s"]
    budget = (Budget(wall_clock_s=frame_budget_s)
              if frame_budget_s is not None else None)
    time_limit = frame_budget_s if frame_budget_s is not None else math.inf
    model, root = task.get("model"), task.get("root")
    table: Dict[str, Callable[[RRAProblem], RRAResult]] = {
        "exact-bnb": lambda p: solve_rra_exact(
            p, max_nodes=task["max_nodes"],
            time_limit=(min(time_limit, budget.remaining_time)
                        if budget is not None else time_limit),
            model=model, root=root),
        "lp-round": lambda p: solve_rra_relaxed(p, model=model, root=root),
        "pso": lambda p: solve_rra_pso(p, swarm_size=12, generations=30),
        "greedy": solve_rra_greedy,
    }
    table.update(task.get("solvers") or {})
    monkey = None
    if task["chaos"] is not None:
        monkey = ChaosMonkey(task["chaos"], seed=task["chaos_seed"],
                             sleep=_no_sleep, budget=budget)
        table = {name: monkey.wrap(table[name], name) for name in names}
    retry = RetryPolicy(max_attempts=task["attempts"], base_delay=0.0, jitter=0.0)

    def make_solve(name: str, guaranteed: bool) -> Callable[[], RRAResult]:
        def solve() -> RRAResult:
            if budget is not None:
                if guaranteed:
                    budget.charge(1)
                else:
                    budget.spend(1, context=f"rra[{name}]")
            return table[name](problem)
        return solve

    last = len(names) - 1
    rungs = [Rung(name=name, solve=make_solve(name, i == last), grade=name,
                  retry=retry, guaranteed=(i == last))
             for i, name in enumerate(names)]
    start = time.perf_counter()
    try:
        res = run_ladder(
            rungs, budget=budget,
            validator=_validate_rra if task["validate"] else None,
            sleep=_no_sleep, name="rra")
    except (InfeasibleError, LadderExhaustedError):
        res = None
    solver_time_s = time.perf_counter() - start
    ev = None
    if res is not None:
        assert isinstance(res.value, RRAResult)
        ev = problem.evaluate_assignment(res.value.choice)
    per_class: Dict[str, List[bool]] = {}
    for i, u in enumerate(problem.users):
        per_class.setdefault(u.service.value, []).append(
            ev is not None and ev["user_rates"][i] >= u.min_rate_bps - 1e-6)
    return {
        "frame": task["frame"],
        "dropped": res is None,
        "rung": "none" if res is None else res.rung,
        "rung_index": len(names) if res is None else res.rung_index,
        "primary_failed": res is None or res.rung_index > 0,
        "qos_ok": ev is not None and bool(ev["qos_ok"] and ev["power_ok"]),
        "total_rate": 0.0 if ev is None else float(ev["total_rate"]),
        "per_class_satisfaction": {
            svc: float(np.mean(v)) for svc, v in sorted(per_class.items())},
        "chaos_injections": 0 if monkey is None else len(monkey.events),
        "solver_time_s": solver_time_s,
        "rung_times": {} if res is None else dict(res.rung_times),
    }


def _root_batchable(task: dict) -> bool:
    """Whether the frame's first rung solves the MILP root relaxation with
    the default solver (exact-bnb and lp-round both start there)."""
    first = task["rungs"][0]
    return (first in RRA_FALLBACK[:2]
            and first not in (task.get("solvers") or {}))


def _milp_or_none(problem: RRAProblem) -> MILPModel | None:
    try:
        return problem.to_milp()
    except ReproError:  # the frame's own rung rebuilds it and raises there
        return None


def solve_frames(tasks: Sequence[dict]) -> List[dict]:
    """Solve a slice of frames: ``[solve_frame(t) for t in tasks]`` with
    the root relaxations solved together (module-level: process-picklable).

    When at least ``_STACK_MIN_WIDTH`` frames open with the exact or
    lp-round rung, each of those frames' MILP is built once and their
    root relaxations go through one :func:`repro.convex.lp.solve_lp_batch`
    call; every frame then runs its unchanged ladder with the model and
    root passed in the task.  The stacked solve is byte-identical to the
    per-frame one, so every outcome field but ``solver_time_s`` and
    ``rung_times`` equals the one-by-one result.  A root LP that fails is
    re-raised inside the rung that first uses it.  Emits a
    ``qos.rra.root_batch`` span (``frames``, ``width``).
    """
    tasks = list(tasks)
    batch = [i for i, task in enumerate(tasks) if _root_batchable(task)]
    if len(batch) >= _STACK_MIN_WIDTH:
        with get_tracer().span("qos.rra.root_batch", frames=len(tasks), width=len(batch)):
            models = {i: _milp_or_none(tasks[i]["problem"]) for i in batch}
            models = {i: model for i, model in models.items() if model is not None}
            roots = solve_lp_batch([model.relaxation() for model in models.values()])
        for (i, model), root in zip(models.items(), roots):
            tasks[i] = {**tasks[i], "model": model, "root": root}
    return [solve_frame(task) for task in tasks]
