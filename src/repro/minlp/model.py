"""Mixed-integer model descriptions.

The paper frames the 5G QoS problems as MINLPs: "optimally assigning
frequency-time blocks (integer variables) to a number of served
connections while simultaneously determining the appropriate transmit
powers (continuous variables)".  Two concrete classes cover everything
this library generates:

* :class:`MILPModel` — linear objective/constraints with integer vars
  (the relaxed-verifier class, and the QoS RRA after linearization);
* :class:`MIQPModel` — convex quadratic objective with linear
  constraints and integer vars (the convex-MINLP class handed to
  branch-and-bound with QP bounding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

import numpy as np

from repro.exceptions import ConfigurationError, DimensionError
from repro.convex.problem import LPProblem, QPProblem, QuadraticForm

__all__ = ["MILPModel", "MIQPModel", "integrality_violation", "is_integral"]


def integrality_violation(x: np.ndarray, integer_indices: FrozenSet[int]) -> float:
    """Max distance of the integer-constrained coordinates from Z."""
    return _violation(x, np.array(sorted(integer_indices), dtype=np.intp))


def _violation(x: np.ndarray, idx: np.ndarray) -> float:
    """:func:`integrality_violation` over the sorted index array ``idx``
    (NaN where a coordinate is NaN)."""
    if not idx.size:
        return 0.0
    vals = np.asarray(x, dtype=np.float64)[idx]
    return float(np.abs(vals - vals.round()).max(initial=0.0))


def is_integral(x: np.ndarray, integer_indices: FrozenSet[int], tol: float = 1e-6) -> bool:
    return integrality_violation(x, integer_indices) <= tol


@dataclass(frozen=True)
class MILPModel:
    """``min c^T x`` s.t. ``G x <= h``, ``A x = b``, bounds, ``x_I`` integer."""

    lp: LPProblem
    integer_indices: FrozenSet[int] = frozenset()

    def __post_init__(self):
        n = self.lp.dim
        bad = [i for i in self.integer_indices if not 0 <= i < n]
        if bad:
            raise DimensionError(f"integer indices {bad} out of range for dim {n}")
        object.__setattr__(self, "integer_indices", frozenset(self.integer_indices))
        #: the integer indices, sorted, as an index array
        object.__setattr__(self, "integer_array",
                           np.array(sorted(self.integer_indices), dtype=np.intp))

    @property
    def dim(self) -> int:
        return self.lp.dim

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.lp.c @ np.asarray(x, dtype=np.float64))

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        x = np.asarray(x, dtype=np.float64).ravel()
        lp = self.lp
        if lp.g is not None and (lp.g @ x - lp.h).max(initial=-np.inf) > tol:
            return False
        if lp.a is not None and np.abs(lp.a @ x - lp.b).max(initial=0.0) > tol:
            return False
        if (x < lp.lo - tol).any() or (x > lp.hi + tol).any():
            return False
        return _violation(x, self.integer_array) <= tol

    def relaxation(self, extra_lo: np.ndarray | None = None, extra_hi: np.ndarray | None = None) -> LPProblem:
        """Continuous relaxation, optionally with tightened bounds (the
        per-node boxes produced by branching)."""
        lo = self.lp.lo if extra_lo is None else np.maximum(self.lp.lo, extra_lo)
        hi = self.lp.hi if extra_hi is None else np.minimum(self.lp.hi, extra_hi)
        return LPProblem(c=self.lp.c, g=self.lp.g, h=self.lp.h, a=self.lp.a, b=self.lp.b, lo=lo, hi=hi)


@dataclass(frozen=True)
class MIQPModel:
    """Convex quadratic objective over linear constraints with integer vars."""

    qp: QPProblem
    integer_indices: FrozenSet[int] = frozenset()
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.qp.dim
        if not self.qp.is_convex():
            raise ConfigurationError(
                "MIQPModel requires a convex quadratic objective; relax the "
                "Hessian first (e.g. via its convex envelope)"
            )
        bad = [i for i in self.integer_indices if not 0 <= i < n]
        if bad:
            raise DimensionError(f"integer indices {bad} out of range for dim {n}")
        lo = np.full(n, -np.inf) if self.lo is None else np.asarray(self.lo, dtype=np.float64).ravel()
        hi = np.full(n, np.inf) if self.hi is None else np.asarray(self.hi, dtype=np.float64).ravel()
        if lo.size != n or hi.size != n:
            raise DimensionError("bound arrays must match model dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "integer_indices", frozenset(self.integer_indices))

    @property
    def dim(self) -> int:
        return self.qp.dim

    def objective_value(self, x: np.ndarray) -> float:
        return self.qp.objective.value(x)

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        x = np.asarray(x, dtype=np.float64).ravel()
        if not self.qp.is_feasible(x, tol):
            return False
        if np.any(x < self.lo - tol) or np.any(x > self.hi + tol):
            return False
        return is_integral(x, self.integer_indices, tol)

    def relaxation(self, extra_lo: np.ndarray, extra_hi: np.ndarray) -> QPProblem:
        """Continuous QP relaxation on the node box ``[extra_lo, extra_hi]``.

        The node box is encoded as additional inequality rows so the QP
        solver sees one uniform problem.
        """
        n = self.dim
        lo = np.maximum(self.lo, extra_lo)
        hi = np.minimum(self.hi, extra_hi)
        rows = []
        rhs = []
        if self.qp.g is not None:
            rows.append(self.qp.g)
            rhs.append(self.qp.h)
        finite_hi = np.isfinite(hi)
        if np.any(finite_hi):
            e = np.eye(n)[finite_hi]
            rows.append(e)
            rhs.append(hi[finite_hi])
        finite_lo = np.isfinite(lo)
        if np.any(finite_lo):
            e = -np.eye(n)[finite_lo]
            rows.append(e)
            rhs.append(-lo[finite_lo])
        g = np.vstack(rows) if rows else None
        h = np.concatenate(rhs) if rhs else None
        return QPProblem(self.qp.objective, g=g, h=h, a=self.qp.a, b=self.qp.b)
