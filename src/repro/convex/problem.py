"""Problem descriptions for the convex-optimization substrate.

These dataclasses are the intermediate representation shared by the
solvers, the relaxation machinery (Eqs. 7-10), the MINLP branch-and-bound
bounder, and the QoS formulations.  Each problem knows how to evaluate
its objective/constraints and how to certify its own convexity — the
library never silently hands a nonconvex instance to a convex solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.exceptions import DimensionError, NonConvexError
from repro.linalg.matrix_utils import frobenius_inner
from repro.linalg.psd import is_psd, min_eigenvalue, symmetrize

__all__ = [
    "QuadraticForm",
    "QPProblem",
    "QCQPProblem",
    "SDPProblem",
    "LPProblem",
    "Solution",
]


@dataclass(frozen=True)
class QuadraticForm:
    """``f(x) = 0.5 x^T P x + q^T x + r`` — one term of Eq. 7."""

    p: np.ndarray
    q: np.ndarray
    r: float = 0.0

    def __post_init__(self):
        p = symmetrize(np.asarray(self.p, dtype=np.float64))
        q = np.asarray(self.q, dtype=np.float64).ravel()
        if p.shape[0] != q.size:
            raise DimensionError(f"P is {p.shape} but q has length {q.size}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", float(self.r))

    @property
    def dim(self) -> int:
        return self.q.size

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64).ravel()
        return float(0.5 * x @ self.p @ x + self.q @ x + self.r)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).ravel()
        return self.p @ x + self.q

    def is_convex(self, tol: float = 1e-9) -> bool:
        """Convex iff P is PSD — the paper's Eq. 7 envelope (1)."""
        return is_psd(self.p, tol=tol)

    def convexity_margin(self) -> float:
        """Smallest eigenvalue of P; >= 0 means convex, > 0 strictly."""
        return min_eigenvalue(self.p)


@dataclass(frozen=True)
class QPProblem:
    """``min 0.5 x^T P x + q^T x`` subject to ``G x <= h`` and ``A x = b``."""

    objective: QuadraticForm
    g: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.objective.dim
        for name, mat, vec in (("inequality", self.g, self.h), ("equality", self.a, self.b)):
            if (mat is None) != (vec is None):
                raise DimensionError(f"{name} constraints need both matrix and rhs")
            if mat is not None:
                m = np.asarray(mat, dtype=np.float64)
                v = np.asarray(vec, dtype=np.float64).ravel()
                if m.ndim != 2 or m.shape[1] != n or m.shape[0] != v.size:
                    raise DimensionError(
                        f"{name} constraint shapes {m.shape} / {v.shape} do not "
                        f"match dimension {n}"
                    )
        if self.g is not None:
            object.__setattr__(self, "g", np.asarray(self.g, dtype=np.float64))
            object.__setattr__(self, "h", np.asarray(self.h, dtype=np.float64).ravel())
        if self.a is not None:
            object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64))
            object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64).ravel())

    @property
    def dim(self) -> int:
        return self.objective.dim

    def is_convex(self) -> bool:
        return self.objective.is_convex()

    def residuals(self, x: np.ndarray) -> tuple[float, float]:
        """(max inequality violation, max |equality residual|)."""
        x = np.asarray(x, dtype=np.float64).ravel()
        ineq = 0.0 if self.g is None else float(np.max(np.maximum(self.g @ x - self.h, 0.0), initial=0.0))
        eq = 0.0 if self.a is None else float(np.max(np.abs(self.a @ x - self.b), initial=0.0))
        return ineq, eq

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        ineq, eq = self.residuals(x)
        return ineq <= tol and eq <= tol


@dataclass(frozen=True)
class QCQPProblem:
    """Paper Eq. 7: quadratic objective with quadratic inequality
    constraints ``f_i(x) <= 0`` and linear equalities ``A x = b``."""

    objective: QuadraticForm
    constraints: List[QuadraticForm] = field(default_factory=list)
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None

    def __post_init__(self):
        n = self.objective.dim
        for i, c in enumerate(self.constraints):
            if c.dim != n:
                raise DimensionError(f"constraint {i} has dim {c.dim}, expected {n}")
        if (self.a is None) != (self.b is None):
            raise DimensionError("equality constraints need both A and b")
        if self.a is not None:
            a = np.asarray(self.a, dtype=np.float64)
            b = np.asarray(self.b, dtype=np.float64).ravel()
            if a.ndim != 2 or a.shape[1] != n or a.shape[0] != b.size:
                raise DimensionError("equality constraint shapes do not match")
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.objective.dim

    def is_convex(self, tol: float = 1e-9) -> bool:
        """Eq. 7's convexity condition: every P_i (objective included)
        positive semidefinite."""
        return self.objective.is_convex(tol) and all(c.is_convex(tol) for c in self.constraints)

    def assert_convex(self) -> "QCQPProblem":
        if not self.objective.is_convex():
            raise NonConvexError(
                f"QCQP objective P0 has min eigenvalue "
                f"{self.objective.convexity_margin():.3e} < 0"
            )
        for i, c in enumerate(self.constraints):
            if not c.is_convex():
                raise NonConvexError(
                    f"QCQP constraint P{i + 1} has min eigenvalue "
                    f"{c.convexity_margin():.3e} < 0"
                )
        return self

    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        return np.array([c.value(x) for c in self.constraints], dtype=np.float64)

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        x = np.asarray(x, dtype=np.float64).ravel()
        if self.constraints and np.max(self.constraint_values(x), initial=-np.inf) > tol:
            return False
        if self.a is not None and np.max(np.abs(self.a @ x - self.b), initial=0.0) > tol:
            return False
        return True


@dataclass(frozen=True)
class SDPProblem:
    """Standard-form SDP: ``min <C, X>`` s.t. ``<A_i, X> = b_i``, ``X >= 0``.

    The Eq. 9-10 trace-minimization problems reduce to this form with
    ``C = I`` restricted to the ``R_c`` block.
    """

    c: np.ndarray
    constraint_mats: List[np.ndarray] = field(default_factory=list)
    constraint_rhs: Optional[np.ndarray] = None

    def __post_init__(self):
        c = symmetrize(np.asarray(self.c, dtype=np.float64))
        object.__setattr__(self, "c", c)
        mats = [symmetrize(np.asarray(m, dtype=np.float64)) for m in self.constraint_mats]
        for i, m in enumerate(mats):
            if m.shape != c.shape:
                raise DimensionError(f"constraint matrix {i} shape {m.shape} != {c.shape}")
        object.__setattr__(self, "constraint_mats", mats)
        rhs = (
            np.zeros(len(mats))
            if self.constraint_rhs is None
            else np.asarray(self.constraint_rhs, dtype=np.float64).ravel()
        )
        if rhs.size != len(mats):
            raise DimensionError("rhs length does not match number of constraints")
        object.__setattr__(self, "constraint_rhs", rhs)

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def objective_value(self, x: np.ndarray) -> float:
        return frobenius_inner(self.c, symmetrize(x))

    def constraint_residual(self, x: np.ndarray) -> float:
        if not self.constraint_mats:
            return 0.0
        x = np.asarray(x, dtype=np.float64)
        vals = np.array([frobenius_inner(m, x) for m in self.constraint_mats])
        return float(np.max(np.abs(vals - self.constraint_rhs)))


@dataclass(frozen=True)
class LPProblem:
    """``min c^T x`` s.t. ``G x <= h``, ``A x = b``, ``lo <= x <= hi``."""

    c: np.ndarray
    g: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=np.float64).ravel()
        object.__setattr__(self, "c", c)
        n = c.size
        for name in ("g", "a"):
            mat = getattr(self, name)
            if mat is not None:
                m = np.asarray(mat, dtype=np.float64)
                if m.ndim != 2 or m.shape[1] != n:
                    raise DimensionError(f"{name} has shape {m.shape}, expected (*, {n})")
                object.__setattr__(self, name, m)
        for name in ("h", "b"):
            vec = getattr(self, name)
            if vec is not None:
                object.__setattr__(self, name, np.asarray(vec, dtype=np.float64).ravel())
        lo = np.full(n, -np.inf) if self.lo is None else np.asarray(self.lo, dtype=np.float64).ravel()
        hi = np.full(n, np.inf) if self.hi is None else np.asarray(self.hi, dtype=np.float64).ravel()
        if lo.size != n or hi.size != n:
            raise DimensionError("bound vectors must match dimension")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class Solution:
    """Solver output: primal point, objective, and convergence metadata."""

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    status: str = "optimal"
    dual: Optional[np.ndarray] = None
    #: an LP solve's final simplex tableau (``repro.convex.lp.NodeHandle``),
    #: which a branch-and-bound child node is screened from; None where
    #: no child could be
    handle: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=np.float64))
