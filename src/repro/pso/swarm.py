"""Canonical continuous PSO (paper Eqs. 1-2).

    x_i^(k+1) = x_i^(k) + v_i^(k+1)                                  (1)
    v_i^(k+1) = iota^(k) v_i^(k)
                + alpha_1 beta_{1,i} (I_i - x_i^(k))
                + alpha_2 beta_{2,i} (G   - x_i^(k))                 (2)

with per-particle personal bests ``I_i`` (cognitive component), global
best ``G`` (social component), uniform random ``beta`` in [0,1], and a
pluggable inertia strategy for ``iota^(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.kernels.swarm import reflect_box, velocity_update
from repro.obs import ITERATION_BUCKETS, get_metrics, get_tracer
from repro.parallel import Executor, map_solve
from repro.pso.inertia import ConstantInertia, InertiaContext, InertiaStrategy

__all__ = ["PSOConfig", "PSOResult", "ParticleSwarm", "optimize"]

ObjectiveFn = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class PSOConfig:
    """Hyperparameters of the swarm.

    ``alpha1``/``alpha2`` are the acceleration constants of Eq. 2;
    ``velocity_clamp`` caps ``|v|`` at that fraction of the box width.
    """

    swarm_size: int = 24
    max_generations: int = 200
    alpha1: float = 1.49445
    alpha2: float = 1.49445
    velocity_clamp: float = 0.5
    tolerance: float = 0.0  # early stop when global best improves less than this
    patience: int = 0  # generations of no improvement before early stop (0 = off)
    topology: str = "gbest"  # 'gbest' (star) or 'ring' (lbest, radius 1)

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ConfigurationError("swarm size must be >= 2")
        if self.max_generations < 1:
            raise ConfigurationError("max_generations must be >= 1")
        if self.alpha1 < 0 or self.alpha2 < 0:
            raise ConfigurationError("acceleration constants must be nonnegative")
        if not 0.0 < self.velocity_clamp <= 10.0:
            raise ConfigurationError("velocity_clamp must be in (0, 10]")
        if self.topology not in ("gbest", "ring"):
            raise ConfigurationError("topology must be 'gbest' or 'ring'")


@dataclass
class PSOResult:
    """Outcome of a swarm run, with the trajectories the benchmarks plot."""

    best_x: np.ndarray
    best_value: float
    generations: int
    evaluations: int
    history: List[float] = field(default_factory=list)
    mean_velocity_history: List[float] = field(default_factory=list)
    stagnation_events: int = 0


class ParticleSwarm:
    """A continuous particle swarm over a box domain."""

    def __init__(
        self,
        objective: ObjectiveFn,
        lo: np.ndarray,
        hi: np.ndarray,
        config: PSOConfig | None = None,
        inertia: InertiaStrategy | None = None,
        rng: np.random.Generator | None = None,
        executor: Executor | None = None,
    ):
        """``executor`` fans the per-particle fitness evaluations out
        through :func:`repro.parallel.map_solve`; because the swarm's
        randomness never depends on evaluation timing, results are
        bit-identical across serial/thread/process backends (the
        objective must be picklable for the process backend)."""
        self.objective = objective
        self.lo = np.asarray(lo, dtype=np.float64).ravel()
        self.hi = np.asarray(hi, dtype=np.float64).ravel()
        if self.lo.size != self.hi.size or np.any(self.lo > self.hi):
            raise ConfigurationError("invalid box bounds")
        self.dim = self.lo.size
        self.config = config or PSOConfig()
        self.inertia = inertia or ConstantInertia()
        self.rng = rng or np.random.default_rng(0)
        self.executor = executor
        self._initialize()

    def _evaluate(self, xs: np.ndarray) -> np.ndarray:
        """Swarm fitness evaluation — the parallel hot path (one call
        per generation, ``swarm_size`` objective evaluations)."""
        if self.executor is None:
            return np.array([self.objective(p) for p in xs])
        values = map_solve(self.objective, list(xs), executor=self.executor,
                           label="pso.fitness")
        return np.asarray(values, dtype=np.float64)

    def _initialize(self) -> None:
        n, d = self.config.swarm_size, self.dim
        width = self.hi - self.lo
        self.x = self.lo + self.rng.random((n, d)) * width
        vmax = self.config.velocity_clamp * width
        self.v = (self.rng.random((n, d)) * 2.0 - 1.0) * vmax * 0.1
        self.personal_best_x = self.x.copy()
        self.personal_best_f = self._evaluate(self.x)
        g = int(np.argmin(self.personal_best_f))
        self.global_best_x = self.personal_best_x[g].copy()
        self.global_best_f = float(self.personal_best_f[g])
        self.stagnation_counts = np.zeros(n)
        self.evaluations = n
        self.inertia.reset()

    def _context(self, generation: int) -> InertiaContext:
        d_pb = np.linalg.norm(self.personal_best_x - self.x, axis=1)
        d_gb = np.linalg.norm(self.global_best_x[None, :] - self.x, axis=1)
        return InertiaContext(
            generation=generation,
            max_generations=self.config.max_generations,
            stagnation_counts=self.stagnation_counts.copy(),
            distance_to_personal_best=d_pb,
            distance_to_global_best=d_gb,
        )

    def _social_attractor(self) -> np.ndarray:
        """The G of Eq. 2: the global best under the star (gbest)
        topology, or each particle's best ring neighbour under lbest —
        the "contemporaneously liaising" structure of §II-A-1 made
        explicit.  Ring topologies propagate information slowly, trading
        convergence speed for resistance to premature consensus."""
        n = self.config.swarm_size
        if self.config.topology == "gbest":
            return np.broadcast_to(self.global_best_x, (n, self.dim))
        # ring of radius 1: neighbours are i-1, i, i+1 (cyclic)
        idx = np.arange(n)
        stacked = np.stack([
            self.personal_best_f[(idx - 1) % n],
            self.personal_best_f[idx],
            self.personal_best_f[(idx + 1) % n],
        ], axis=1)
        choice = np.argmin(stacked, axis=1)  # 0 -> left, 1 -> self, 2 -> right
        neighbor = (idx + choice - 1) % n
        return self.personal_best_x[neighbor]

    def step(self, generation: int) -> None:
        """One synchronous generation: Eq. 2 velocity update, Eq. 1 move,
        personal/global best bookkeeping.

        The arithmetic runs on the whole-swarm kernels of
        :mod:`repro.kernels.swarm`, which are bit-identical to the
        per-particle loops, so a seeded trajectory is the one Eqs. 1–2
        define."""
        cfg = self.config
        n, d = cfg.swarm_size, self.dim
        w = self.inertia.weights(self._context(generation))[:, None]
        beta1 = self.rng.random((n, d))
        beta2 = self.rng.random((n, d))
        social = self._social_attractor()
        self.v = velocity_update(self.v, self.x, self.personal_best_x, social,
                                 w, beta1, beta2, cfg.alpha1, cfg.alpha2)
        vmax = cfg.velocity_clamp * (self.hi - self.lo)
        np.clip(self.v, -vmax, vmax, out=self.v)
        # reflect at the box walls and zero the offending velocity component
        self.x, self.v = reflect_box(self.x + self.v, self.v, self.lo, self.hi)

        values = self._evaluate(self.x)
        self.evaluations += n
        improved = values < self.personal_best_f
        self.personal_best_x[improved] = self.x[improved]
        self.personal_best_f[improved] = values[improved]
        self.stagnation_counts[improved] = 0
        self.stagnation_counts[~improved] += 1
        g = int(np.argmin(self.personal_best_f))
        if self.personal_best_f[g] < self.global_best_f:
            self.global_best_f = float(self.personal_best_f[g])
            self.global_best_x = self.personal_best_x[g].copy()

    def run(self) -> PSOResult:
        cfg = self.config
        tracer = get_tracer()
        history: List[float] = [self.global_best_f]
        vel_hist: List[float] = []
        stall = 0
        stagnation_events = 0
        with tracer.span("pso.run", swarm_size=cfg.swarm_size,
                         topology=cfg.topology) as span:
            for gen in range(cfg.max_generations):
                prev_best = self.global_best_f
                self.step(gen)
                history.append(self.global_best_f)
                vel_hist.append(float(np.mean(np.linalg.norm(self.v, axis=1))))
                if tracer.enabled:
                    tracer.event("pso.generation", generation=gen,
                                 best=self.global_best_f)
                if prev_best - self.global_best_f <= cfg.tolerance:
                    stall += 1
                else:
                    stall = 0
                stagnation_events += int(np.sum(self.stagnation_counts == 10))
                if cfg.patience and stall >= cfg.patience:
                    break
            generations = gen + 1
            span.set(generations=generations, evaluations=self.evaluations,
                     best=self.global_best_f)
        metrics = get_metrics()
        metrics.counter("pso.runs").inc()
        metrics.histogram("pso.generations",
                          buckets=ITERATION_BUCKETS).observe(generations)
        return PSOResult(
            best_x=self.global_best_x.copy(),
            best_value=self.global_best_f,
            generations=generations,
            evaluations=self.evaluations,
            history=history,
            mean_velocity_history=vel_hist,
            stagnation_events=stagnation_events,
        )


def optimize(
    objective: ObjectiveFn,
    lo: np.ndarray,
    hi: np.ndarray,
    config: PSOConfig | None = None,
    inertia: InertiaStrategy | None = None,
    seed: int = 0,
    executor: Executor | None = None,
) -> PSOResult:
    """One-call continuous PSO minimization over a box."""
    swarm = ParticleSwarm(
        objective, lo, hi, config=config, inertia=inertia,
        rng=np.random.default_rng(seed), executor=executor,
    )
    return swarm.run()
