"""Discrete PSO variants (paper §I and §II-A-2).

"A challenge arises when instantiating PSO aboard the DCGAN, as the
continuous or discontinuous hyperparameters must be converted to
discrete values (e.g., integers); yet, rounding the calculated
velocities to discrete integer values creates an artificial paradigm,
wherein particles may stagnate prematurely."

Two variants:

* :class:`RoundingDiscretePSO` — the naive conversion: continuous PSO
  whose positions are rounded to the integer lattice at evaluation time
  (and, in ``hard`` mode, whose *state* is rounded too, which is what
  actually produces the premature-stagnation pathology: distinct small
  velocities all round to the same lattice point and the swarm freezes);
* :class:`DistributionDiscretePSO` — the Strasser et al. [9] remedy:
  "each attribute of a PSO particle is a distribution over its possible
  values rather than a specific value"; velocities act on the
  distribution parameters, which never collapse to the lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.kernels.swarm import (
    build_decode_table,
    decode_indices_batch,
    sample_distribution_swarm,
    velocity_update,
)
from repro.obs import ITERATION_BUCKETS, get_metrics, get_tracer
from repro.parallel import Executor, map_solve
from repro.pso.inertia import ConstantInertia, InertiaContext, InertiaStrategy
from repro.pso.swarm import PSOConfig, PSOResult

__all__ = ["DiscreteSpace", "RoundingDiscretePSO", "DistributionDiscretePSO"]

DiscreteObjective = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class DiscreteSpace:
    """A product of finite per-coordinate value sets.

    ``values[j]`` is the ordered tuple of allowed values for coordinate
    ``j`` (integers or arbitrary floats, e.g. learning rates on a grid).
    """

    values: Sequence[Sequence[float]]

    def __post_init__(self):
        vals = tuple(tuple(float(v) for v in row) for row in self.values)
        if not vals or any(len(row) < 1 for row in vals):
            raise ConfigurationError("every coordinate needs at least one value")
        object.__setattr__(self, "values", vals)
        # padded (d, max_card) lookup table backing the batched decode
        object.__setattr__(self, "_table", build_decode_table(vals))

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.values)

    def decode_indices(self, idx: np.ndarray) -> np.ndarray:
        """Map per-coordinate indices to actual values."""
        return np.array([self.values[j][int(i)] for j, i in enumerate(idx)], dtype=np.float64)

    def decode_batch(self, idx: np.ndarray) -> np.ndarray:
        """Decode a whole ``(n, dim)`` index matrix in one table gather —
        the same floats :meth:`decode_indices` produces row by row."""
        return decode_indices_batch(self._table, idx)

    def size(self) -> int:
        out = 1
        for row in self.values:
            out *= len(row)
        return out

    @staticmethod
    def integer_box(lo: int, hi: int, dim: int) -> "DiscreteSpace":
        return DiscreteSpace(tuple(tuple(range(lo, hi + 1)) for _ in range(dim)))


class RoundingDiscretePSO:
    """Continuous PSO over index space with rounding at evaluation.

    ``hard=True`` rounds the particle *positions* (state) every
    generation — the faithful reproduction of the "artificial paradigm"
    that stagnates; ``hard=False`` only rounds for evaluation and keeps
    continuous state (the usual engineering mitigation).
    """

    def __init__(
        self,
        objective: DiscreteObjective,
        space: DiscreteSpace,
        config: PSOConfig | None = None,
        inertia: InertiaStrategy | None = None,
        hard: bool = True,
        rng: np.random.Generator | None = None,
        executor: Executor | None = None,
    ):
        self.objective = objective
        self.space = space
        self.config = config or PSOConfig()
        self.inertia = inertia or ConstantInertia()
        self.hard = hard
        self.rng = rng or np.random.default_rng(0)
        self.executor = executor
        self.lo = np.zeros(space.dim)
        self.hi = np.array([c - 1 for c in space.cardinalities], dtype=np.float64)
        self._initialize()

    def _eval_indices(self, idx_float: np.ndarray) -> float:
        idx = np.clip(np.round(idx_float), self.lo, self.hi).astype(int)
        return self.objective(self.space.decode_indices(idx))

    def _evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Fitness of every particle; the whole swarm is decoded in one
        table gather, and only the objective evaluations fan out through
        the executor."""
        idx = np.clip(np.round(xs), self.lo, self.hi).astype(int)
        decoded = list(self.space.decode_batch(idx))
        if self.executor is None:
            return np.array([self.objective(d) for d in decoded])
        values = map_solve(self.objective, decoded, executor=self.executor,
                           label="pso.fitness")
        return np.asarray(values, dtype=np.float64)

    def _initialize(self) -> None:
        n, d = self.config.swarm_size, self.space.dim
        self.x = self.lo + self.rng.random((n, d)) * (self.hi - self.lo)
        if self.hard:
            self.x = np.round(self.x)
        self.v = (self.rng.random((n, d)) - 0.5) * (self.hi - self.lo) * 0.2
        self.pb_x = self.x.copy()
        self.pb_f = self._evaluate_batch(self.x)
        g = int(np.argmin(self.pb_f))
        self.gb_x = self.pb_x[g].copy()
        self.gb_f = float(self.pb_f[g])
        self.stagnation_counts = np.zeros(n)
        self.evaluations = n
        self.frozen_generations = 0
        self.inertia.reset()

    def run(self) -> PSOResult:
        with get_tracer().span("pso.run", swarm_size=self.config.swarm_size,
                               variant="rounding-hard" if self.hard else "rounding") as span:
            result = self._run()
            span.set(generations=result.generations,
                     evaluations=result.evaluations, best=result.best_value)
        metrics = get_metrics()
        metrics.counter("pso.runs").inc()
        metrics.histogram("pso.generations",
                          buckets=ITERATION_BUCKETS).observe(result.generations)
        return result

    def _run(self) -> PSOResult:
        cfg = self.config
        tracer = get_tracer()
        n, d = cfg.swarm_size, self.space.dim
        history = [self.gb_f]
        vel_hist: List[float] = []
        frozen = 0
        for gen in range(cfg.max_generations):
            ctx = InertiaContext(
                generation=gen,
                max_generations=cfg.max_generations,
                stagnation_counts=self.stagnation_counts.copy(),
                distance_to_personal_best=np.linalg.norm(self.pb_x - self.x, axis=1),
                distance_to_global_best=np.linalg.norm(self.gb_x[None, :] - self.x, axis=1),
            )
            w = self.inertia.weights(ctx)[:, None]
            b1 = self.rng.random((n, d))
            b2 = self.rng.random((n, d))
            self.v = velocity_update(self.v, self.x, self.pb_x,
                                     np.broadcast_to(self.gb_x, self.x.shape),
                                     w, b1, b2, cfg.alpha1, cfg.alpha2)
            vmax = cfg.velocity_clamp * np.maximum(self.hi - self.lo, 1.0)
            np.clip(self.v, -vmax, vmax, out=self.v)
            if self.hard:
                # the rounding that creates the pathology: sub-half-step
                # velocities move the particle nowhere
                move = np.round(self.v)
                self.x = np.clip(self.x + move, self.lo, self.hi)
                if np.all(move == 0.0):
                    frozen += 1
            else:
                self.x = np.clip(self.x + self.v, self.lo, self.hi)
            values = self._evaluate_batch(self.x)
            self.evaluations += n
            improved = values < self.pb_f
            self.pb_x[improved] = self.x[improved]
            self.pb_f[improved] = values[improved]
            self.stagnation_counts[improved] = 0
            self.stagnation_counts[~improved] += 1
            g = int(np.argmin(self.pb_f))
            if self.pb_f[g] < self.gb_f:
                self.gb_f = float(self.pb_f[g])
                self.gb_x = self.pb_x[g].copy()
            history.append(self.gb_f)
            vel_hist.append(float(np.mean(np.abs(self.v))))
            if tracer.enabled:
                tracer.event("pso.generation", generation=gen, best=self.gb_f)
        best_idx = np.clip(np.round(self.gb_x), self.lo, self.hi).astype(int)
        return PSOResult(
            best_x=self.space.decode_indices(best_idx),
            best_value=self.gb_f,
            generations=cfg.max_generations,
            evaluations=self.evaluations,
            history=history,
            mean_velocity_history=vel_hist,
            stagnation_events=frozen,
        )


class DistributionDiscretePSO:
    """Distribution-based discrete PSO (Strasser et al. [9]).

    Each particle coordinate holds a *probability distribution* over the
    coordinate's allowed values, stored as unnormalized logits.  The PSO
    velocity update (Eq. 2) acts on the logits of personal/global bests;
    candidate solutions are sampled from the softmax distributions, so
    the search never collapses onto the lattice and the rounding
    pathology cannot occur.
    """

    def __init__(
        self,
        objective: DiscreteObjective,
        space: DiscreteSpace,
        config: PSOConfig | None = None,
        inertia: InertiaStrategy | None = None,
        samples_per_particle: int = 1,
        rng: np.random.Generator | None = None,
        executor: Executor | None = None,
    ):
        self.objective = objective
        self.space = space
        self.config = config or PSOConfig()
        self.inertia = inertia or ConstantInertia()
        self.samples = max(1, samples_per_particle)
        self.rng = rng or np.random.default_rng(0)
        self.executor = executor
        self._initialize()

    def _initialize(self) -> None:
        n = self.config.swarm_size
        self.cards = self.space.cardinalities
        # logits: list over coordinates of (n, card_j) arrays
        self.logits = [self.rng.standard_normal((n, c)) * 0.1 for c in self.cards]
        self.vel = [np.zeros((n, c)) for c in self.cards]
        self.pb_logits = [l.copy() for l in self.logits]
        self.pb_f = np.full(n, np.inf)
        self.pb_idx = np.zeros((n, self.space.dim), dtype=int)
        self.gb_f = np.inf
        self.gb_logits = [l[0].copy() for l in self.logits]
        self.gb_idx = np.zeros(self.space.dim, dtype=int)
        self.stagnation_counts = np.zeros(n)
        self.evaluations = 0
        self._evaluate_all()
        self.inertia.reset()

    def _sample_particle(self, i: int) -> np.ndarray:
        """One particle's candidate — the per-coordinate ``rng.choice``
        formulation the vectorized sampling kernel replays bit-for-bit."""
        idx = np.zeros(self.space.dim, dtype=int)
        for j, c in enumerate(self.cards):
            z = self.logits[j][i]
            z = z - z.max()
            p = np.exp(z)
            p /= p.sum()  # numlint: disable=NL002 -- max-shifted logits: one term is exp(0)=1, so the sum is >= 1
            idx[j] = self.rng.choice(c, p=p)
        return idx

    def _evaluate_all(self) -> None:
        n = self.config.swarm_size
        # sample every candidate first (the whole-swarm kernel consumes
        # the RNG stream in the exact order of the sequential
        # formulation, so seeded runs are bit-identical to it), then fan
        # the pure objective calls out
        idx3 = sample_distribution_swarm(self.logits, self.samples, self.rng)
        sampled = [[idx3[i, s] for s in range(self.samples)]
                   for i in range(n)]
        decoded = list(self.space.decode_batch(
            idx3.reshape(n * self.samples, self.space.dim)))
        if self.executor is None:
            values = [self.objective(d) for d in decoded]
        else:
            values = map_solve(self.objective, decoded,
                               executor=self.executor, label="pso.fitness")
        self.evaluations += len(decoded)
        for i in range(n):
            best_val, best_idx = np.inf, None
            for s in range(self.samples):
                idx = sampled[i][s]
                val = float(values[i * self.samples + s])
                if val < best_val:
                    best_val, best_idx = val, idx
            if best_val < self.pb_f[i]:
                self.pb_f[i] = best_val
                self.pb_idx[i] = best_idx
                for j in range(self.space.dim):
                    self.pb_logits[j][i] = self.logits[j][i]
                self.stagnation_counts[i] = 0
            else:
                self.stagnation_counts[i] += 1
            if best_val < self.gb_f:
                self.gb_f = best_val
                self.gb_idx = best_idx.copy()
                for j in range(self.space.dim):
                    self.gb_logits[j] = self.logits[j][i].copy()

    def run(self) -> PSOResult:
        with get_tracer().span("pso.run", swarm_size=self.config.swarm_size,
                               variant="distribution") as span:
            result = self._run()
            span.set(generations=result.generations,
                     evaluations=result.evaluations, best=result.best_value)
        metrics = get_metrics()
        metrics.counter("pso.runs").inc()
        metrics.histogram("pso.generations",
                          buckets=ITERATION_BUCKETS).observe(result.generations)
        return result

    def _run(self) -> PSOResult:
        cfg = self.config
        tracer = get_tracer()
        n = cfg.swarm_size
        history = [self.gb_f]
        for gen in range(cfg.max_generations):
            ctx = InertiaContext(
                generation=gen,
                max_generations=cfg.max_generations,
                stagnation_counts=self.stagnation_counts.copy(),
                distance_to_personal_best=np.ones(n),
                distance_to_global_best=np.ones(n),
            )
            w = self.inertia.weights(ctx)
            for j in range(self.space.dim):
                b1 = self.rng.random((n, self.cards[j]))
                b2 = self.rng.random((n, self.cards[j]))
                # sharpen personal/global attractors toward their chosen values
                pb_target = self.pb_logits[j].copy()
                pb_target[np.arange(n), self.pb_idx[:, j]] += 1.0
                gb_target = self.gb_logits[j].copy()
                gb_target[self.gb_idx[j]] += 1.0
                self.vel[j] = (
                    w[:, None] * self.vel[j]
                    + cfg.alpha1 * b1 * (pb_target - self.logits[j])
                    + cfg.alpha2 * b2 * (gb_target[None, :] - self.logits[j])
                )
                self.logits[j] = self.logits[j] + self.vel[j]
                # keep logits bounded for numerical hygiene
                np.clip(self.logits[j], -20.0, 20.0, out=self.logits[j])
            self._evaluate_all()
            history.append(self.gb_f)
            if tracer.enabled:
                tracer.event("pso.generation", generation=gen, best=self.gb_f)
        return PSOResult(
            best_x=self.space.decode_indices(self.gb_idx),
            best_value=self.gb_f,
            generations=cfg.max_generations,
            evaluations=self.evaluations,
            history=history,
            mean_velocity_history=[],
            stagnation_events=0,
        )
