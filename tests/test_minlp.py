"""Tests for MINLP models, branch-and-bound, MILP/MIQP, OA, heuristics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, DimensionError, InfeasibleError
from repro.convex import LPProblem, QPProblem, QuadraticForm
from repro.minlp import (
    MILPModel,
    MIQPModel,
    diving_heuristic,
    feasibility_pump,
    integrality_violation,
    is_integral,
    most_fractional_index,
    round_and_repair,
    solve_milp,
    solve_miqp,
    solve_outer_approximation,
)
from repro.convex.lp import solve_lp
from repro.minlp.branch_and_bound import _index_array, _most_fractional, _snap


def knapsack_model():
    """max 5x1+4x2+3x3 s.t. 2x1+3x2+x3<=5, 4x1+x2+2x3<=11, x binary."""
    lp = LPProblem(c=np.array([-5.0, -4.0, -3.0]),
                   g=np.array([[2.0, 3.0, 1.0], [4.0, 1.0, 2.0]]),
                   h=np.array([5.0, 11.0]),
                   lo=np.zeros(3), hi=np.ones(3))
    return MILPModel(lp, frozenset({0, 1, 2}))


def brute_force_milp(model):
    best = (np.inf, None)
    n = model.dim
    for bits in itertools.product([0.0, 1.0], repeat=n):
        x = np.array(bits)
        if model.is_feasible(x):
            obj = model.objective_value(x)
            if obj < best[0]:
                best = (obj, x)
    return best


class TestModelBasics:
    def test_integrality_helpers(self):
        x = np.array([1.0, 0.5, 2.0])
        assert integrality_violation(x, frozenset({0, 2})) == 0.0
        assert integrality_violation(x, frozenset({1})) == pytest.approx(0.5)
        assert is_integral(x, frozenset({0, 2}))
        assert not is_integral(x, frozenset({1}))

    def test_out_of_range_indices_rejected(self):
        lp = LPProblem(c=np.ones(2), lo=np.zeros(2), hi=np.ones(2))
        with pytest.raises(DimensionError):
            MILPModel(lp, frozenset({5}))

    def test_miqp_requires_convexity(self):
        qp = QPProblem(QuadraticForm(-np.eye(2), np.zeros(2)))
        with pytest.raises(ConfigurationError):
            MIQPModel(qp, frozenset({0}), lo=np.zeros(2), hi=np.ones(2))

    def test_most_fractional_branching_rule(self):
        x = np.array([0.9, 0.5, 0.2])
        assert most_fractional_index(x, frozenset({0, 1, 2})) == 1
        assert most_fractional_index(np.array([1.0, 2.0]), frozenset({0, 1})) is None


def _most_fractional_loop(x, integer_indices, tol=1e-6):
    """The branching rule's per-index loop, kept as the vectorized form's
    oracle: Python ``round`` (half to even), first maximum wins."""
    best_i, best_frac = None, tol
    for i in sorted(integer_indices):
        frac = abs(x[i] - round(x[i]))
        if frac > best_frac:
            best_frac = frac
            best_i = i
    return best_i


def _snap_loop(x, integer_indices):
    snapped = x.copy()
    for i in integer_indices:
        snapped[i] = round(snapped[i])
    return snapped


#: halves and near-halves make rounding ties, repeats make argmax ties,
#: tiny negatives round to a zero whose sign the snap must not keep
_COORD = st.one_of(
    st.sampled_from([0.5, 1.5, -0.5, -2.5, 2.0, 0.0, -0.0, -1e-9, 0.25, 0.75, 3.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(_COORD, min_size=1, max_size=12).flatmap(
    lambda xs: st.tuples(st.just(np.array(xs)),
                         st.frozensets(st.integers(0, len(xs) - 1)),
                         st.sampled_from([1e-6, 0.0, 0.25, 0.5]))))
def test_vectorized_branching_and_snap_match_the_loops(case):
    x, integer_indices, tol = case
    idx = _index_array(integer_indices)
    assert (_most_fractional(x, idx, tol)
            == most_fractional_index(x, integer_indices, tol)
            == _most_fractional_loop(x, integer_indices, tol))
    assert _snap(x, idx).tobytes() == _snap_loop(x, integer_indices).tobytes()


def _is_feasible_sorted_set(model: MILPModel, x: np.ndarray, tol: float = 1e-6) -> bool:
    """``MILPModel.is_feasible`` as it was written over the index set:
    ``sorted(integer_indices)`` picked the coordinates on every call."""
    lp = model.lp
    if lp.g is not None and np.max(lp.g @ x - lp.h, initial=-np.inf) > tol:
        return False
    if np.any(x < lp.lo - tol) or np.any(x > lp.hi + tol):
        return False
    if not model.integer_indices:
        return True
    vals = x[sorted(model.integer_indices)]
    return float(np.max(np.abs(vals - np.round(vals)), initial=0.0)) <= tol


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_COORD, st.just(np.nan)), min_size=1, max_size=8).flatmap(
    lambda xs: st.tuples(st.just(np.array(xs)),
                         st.frozensets(st.integers(0, len(xs) - 1)))))
def test_integer_array_verdicts_match_the_sorted_set(case):
    """The model's sorted index array gives the verdicts the per-call
    ``sorted(integer_indices)`` gave, NaN coordinates included (never
    integral, never feasible)."""
    x, integer_indices = case
    n = x.size
    model = MILPModel(LPProblem(c=np.ones(n), g=np.ones((1, n)), h=np.array([1e7]),
                                lo=np.full(n, -1e7), hi=np.full(n, 1e7)), integer_indices)
    assert model.integer_array.tolist() == sorted(integer_indices)
    assert model.is_feasible(x) == _is_feasible_sorted_set(model, x)
    vals = x[sorted(integer_indices)]
    want = float(np.max(np.abs(vals - np.round(vals)), initial=0.0)) if vals.size else 0.0
    got = integrality_violation(x, integer_indices)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestMILP:
    def test_knapsack_matches_brute_force(self):
        model = knapsack_model()
        res = solve_milp(model)
        assert res.converged
        best_obj, best_x = brute_force_milp(model)
        assert res.objective == pytest.approx(best_obj)
        assert model.is_feasible(res.x)

    def test_random_binary_instances_match_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = 4
            g = rng.uniform(0, 2, (3, n))
            h = g.sum(axis=1) * rng.uniform(0.3, 0.8, 3)
            lp = LPProblem(c=rng.standard_normal(n), g=g, h=h,
                           lo=np.zeros(n), hi=np.ones(n))
            model = MILPModel(lp, frozenset(range(n)))
            res = solve_milp(model)
            best_obj, _ = brute_force_milp(model)
            assert res.objective == pytest.approx(best_obj, abs=1e-7), f"trial {trial}"

    def test_infeasible_instance(self):
        lp = LPProblem(c=np.array([1.0]), g=np.array([[1.0], [-1.0]]),
                       h=np.array([0.2, -0.8]),  # 0.8 <= x <= 0.2: empty
                       lo=np.zeros(1), hi=np.ones(1))
        model = MILPModel(lp, frozenset({0}))
        res = solve_milp(model)
        assert res.x is None

    def test_bound_is_valid(self):
        model = knapsack_model()
        res = solve_milp(model)
        assert res.lower_bound <= res.objective + 1e-9
        assert res.gap <= 1e-6

    def test_node_budget_respected(self):
        model = knapsack_model()
        res = solve_milp(model, max_nodes=1)
        assert res.nodes_explored <= 1


class TestMIQP:
    def test_rounds_to_nearest_integer_point(self):
        qp = QPProblem(QuadraticForm(2 * np.eye(2), np.array([-2.6, -5.4])))
        model = MIQPModel(qp, frozenset({0, 1}), lo=np.zeros(2), hi=5 * np.ones(2))
        res = solve_miqp(model)
        assert np.allclose(res.x, [1.0, 3.0])

    def test_mixed_integer_continuous(self):
        # x0 integer, x1 continuous: min (x0-1.4)^2 + (x1-1.4)^2
        qp = QPProblem(QuadraticForm(2 * np.eye(2), np.array([-2.8, -2.8])))
        model = MIQPModel(qp, frozenset({0}), lo=np.zeros(2), hi=5 * np.ones(2))
        res = solve_miqp(model)
        assert res.x[0] == pytest.approx(1.0)
        assert res.x[1] == pytest.approx(1.4, abs=1e-5)

    def test_unbounded_integer_rejected(self):
        qp = QPProblem(QuadraticForm(2 * np.eye(1), np.zeros(1)))
        model = MIQPModel(qp, frozenset({0}))
        with pytest.raises(InfeasibleError):
            solve_miqp(model)


class TestOuterApproximation:
    def test_agrees_with_bnb(self):
        qp = QPProblem(QuadraticForm(2 * np.eye(2), np.array([-2.6, -5.4])))
        model = MIQPModel(qp, frozenset({0, 1}), lo=np.zeros(2), hi=5 * np.ones(2))
        oa = solve_outer_approximation(model, max_major=40)
        bnb = solve_miqp(model)
        assert oa.converged
        assert oa.objective == pytest.approx(bnb.objective, abs=1e-5)

    def test_gap_accounting(self):
        qp = QPProblem(QuadraticForm(2 * np.eye(1), np.array([-4.8])))
        model = MIQPModel(qp, frozenset({0}), lo=np.zeros(1), hi=5 * np.ones(1))
        oa = solve_outer_approximation(model)
        assert oa.gap <= 1e-5
        assert oa.x[0] == pytest.approx(2.0)


class TestHeuristics:
    def test_round_and_repair_feasible(self):
        model = knapsack_model()
        relaxed = solve_lp(model.lp)
        x = round_and_repair(model, relaxed.x)
        assert x is not None
        assert model.is_feasible(x)

    def test_feasibility_pump_finds_point(self):
        model = knapsack_model()
        x = feasibility_pump(model)
        assert x is not None
        assert model.is_feasible(x)

    def test_diving_finds_point(self):
        model = knapsack_model()
        x = diving_heuristic(model)
        assert x is not None
        assert model.is_feasible(x)

    def test_heuristics_bounded_by_optimum(self):
        model = knapsack_model()
        opt = solve_milp(model).objective
        for heuristic in (feasibility_pump, diving_heuristic):
            x = heuristic(model)
            if x is not None:
                assert model.objective_value(x) >= opt - 1e-9
