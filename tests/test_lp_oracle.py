"""The LP oracle fast path against its loop oracle, and the LP calls it saves.

``repro.convex.solve_lp`` must stay bit-identical to
``repro.kernels.reference.solve_lp_reference`` (the row-by-row loop it
replaced): same ``x`` bytes, same objective bytes, same exception class.
The stacked simplex behind ``solve_lp_batch`` must give every member
exactly what its own ``solve_lp`` call gives (``x``, objective bytes,
pivot count, exception class).  The branch-and-bound MILP solver must
solve its root relaxation once, and rounding repair must make no LP call
on a pure-integer model.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.minlp.heuristics as heuristics
import repro.minlp.milp as milp
from repro.convex import LPProblem, lp, simplex_standard_form, solve_lp, solve_lp_batch
from repro.exceptions import ConvergenceError, NumericalInstabilityError, ReproError
from repro.kernels.reference import (
    simplex_standard_form_reference,
    solve_lp_reference,
)
from repro.minlp import MILPModel, round_and_repair, solve_milp
from repro.obs import MetricsRegistry, use_metrics
from repro.qos import (
    ChannelConfig,
    ChannelModel,
    QoSRequirement,
    RRAProblem,
    ServiceClass,
    UserSession,
)


def _outcome(solve, *args):
    """``("ok", x bytes, objective bytes)`` or ``("raise", class)``."""
    try:
        res = solve(*args)
    except ReproError as err:
        return ("raise", type(err))
    x, obj = (res.x, res.objective) if hasattr(res, "x") else res
    return ("ok", np.asarray(x).tobytes(), np.float64(obj).tobytes())


# ---------------------------------------------------------------------------
# Bit-identity with the loop oracle
# ---------------------------------------------------------------------------

#: small repeated values make degenerate ratio ties and zero right-hand
#: sides common; the float draws keep generic instances in the mix
_COEF = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _lps(draw) -> LPProblem:
    n = draw(st.integers(1, 5))
    m_ineq = draw(st.integers(0, 4))
    m_eq = draw(st.integers(0, 2))

    def mat(rows):
        return np.array([[draw(_COEF) for _ in range(n)] for _ in range(rows)])

    def vec(size):
        return np.array([draw(_COEF) for _ in range(size)])

    # -inf lower bounds make free (split) columns; inf upper bounds add no row
    lo = np.array([draw(st.sampled_from([-np.inf, -np.inf, -1.0, 0.0, 0.0, 1.5]))
                   for _ in range(n)])
    width = np.array([draw(st.sampled_from([np.inf, np.inf, 0.0, 1.0, 2.5]))
                      for _ in range(n)])
    return LPProblem(
        c=vec(n),
        g=mat(m_ineq) if m_ineq else None, h=vec(m_ineq) if m_ineq else None,
        a=mat(m_eq) if m_eq else None, b=vec(m_eq) if m_eq else None,
        lo=lo, hi=width + np.where(np.isfinite(lo), lo, 0.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lps())
def test_solve_lp_bit_identical_to_loop_oracle(problem):
    assert _outcome(solve_lp, problem) == _outcome(solve_lp_reference, problem)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_standard_form_bit_identical_to_loop_oracle(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-2, 3, size=(m, n)).astype(float)
    b = rng.integers(-2, 3, size=m).astype(float)
    c = rng.integers(-2, 3, size=n).astype(float)
    assert (_outcome(simplex_standard_form, a, b, c)
            == _outcome(simplex_standard_form_reference, a, b, c))


@pytest.mark.parametrize("seed", range(3))
def test_degenerate_lp_runs_bland_and_matches_oracle(seed):
    """Zero right-hand sides make every pivot degenerate, so the objective
    never improves; past 25 stalled pivots the loop switches to Bland's
    rule, and both paths must still reach the same vertex."""
    rng = np.random.default_rng(seed)
    lp = LPProblem(c=-rng.integers(1, 3, size=20).astype(float),
                   g=rng.integers(0, 3, size=(30, 20)).astype(float),
                   h=np.zeros(30), lo=np.zeros(20))
    sol = solve_lp(lp)
    assert sol.iterations > 25
    assert _outcome(solve_lp, lp) == _outcome(solve_lp_reference, lp)


@pytest.mark.parametrize("problem, error", [
    (LPProblem(c=np.array([1.0]), a=np.array([[1.0]]), b=np.array([5.0]),
               lo=np.array([0.0]), hi=np.array([1.0])), "InfeasibleError"),
    (LPProblem(c=np.array([-1.0, 0.0]), a=np.array([[1.0, -1.0]]), b=np.array([0.0]),
               lo=np.zeros(2)), "UnboundedError"),
], ids=["infeasible", "unbounded"])
def test_failure_classes_match_oracle(problem, error):
    kind, cls = _outcome(solve_lp, problem)
    assert kind == "raise" and cls.__name__ == error
    assert _outcome(solve_lp_reference, problem) == (kind, cls)


def test_iterations_count_pivots():
    lp = LPProblem(c=np.array([-1.0, -1.0]),
                   g=np.array([[1.0, 2.0], [3.0, 1.0]]),
                   h=np.array([4.0, 6.0]), lo=np.zeros(2))
    sol = solve_lp(lp)
    assert sol.iterations > 0
    assert np.allclose(sol.x, [1.6, 1.2])
    # with no constraint row there is nothing to pivot on
    assert solve_lp(LPProblem(c=np.ones(2), lo=np.zeros(2))).iterations == 0


# ---------------------------------------------------------------------------
# Non-finite data is rejected before any tableau exists
# ---------------------------------------------------------------------------

def _lp(**override) -> LPProblem:
    data = dict(c=np.array([1.0, -1.0]), g=np.array([[1.0, 1.0]]), h=np.array([2.0]),
                a=np.array([[1.0, -1.0]]), b=np.array([0.0]),
                lo=np.zeros(2), hi=np.array([3.0, 3.0]))
    data.update(override)
    return LPProblem(**data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["c", "g", "h", "a", "b"])
def test_non_finite_data_rejected(field, bad):
    value = np.array(getattr(_lp(), field), dtype=float)
    value.flat[0] = bad
    with pytest.raises(NumericalInstabilityError, match=repr(field)):
        solve_lp(_lp(**{field: value}))


@pytest.mark.parametrize("field", ["lo", "hi"])
def test_nan_bound_rejected(field):
    value = np.array(getattr(_lp(), field))
    value[1] = np.nan
    with pytest.raises(NumericalInstabilityError, match=repr(field)):
        solve_lp(_lp(**{field: value}))


def test_infinite_bounds_stay_legal():
    sol = solve_lp(_lp(lo=np.array([-np.inf, 0.0]), hi=np.array([np.inf, np.inf])))
    assert sol.converged and np.isfinite(sol.objective)


# ---------------------------------------------------------------------------
# RRA: vectorized MILP build and the LP calls branch-and-bound saves
# ---------------------------------------------------------------------------

def _rra(seed: int, n_users: int = 3, n_blocks: int = 5,
         levels=(50.0, 100.0), min_rate: float = 1e5) -> RRAProblem:
    ch = ChannelModel(ChannelConfig(n_blocks=n_blocks), rng=np.random.default_rng(seed))
    users = [UserSession(i, ServiceClass.EMBB,
                         QoSRequirement(min_rate_bps=min_rate, max_latency_ms=50,
                                        reliability=0.99, priority=1))
             for i in range(n_users)]
    return RRAProblem(gains=ch.gains(n_users), users=users,
                      power_levels_mw=np.array(levels), total_power_mw=500.0,
                      noise_mw=ch.noise_linear_mw)


def _to_milp_loops(problem: RRAProblem):
    """The per-entry triple loops ``RRAProblem.to_milp`` replaced."""
    u_n, b_n, p_n = problem.n_users, problem.n_blocks, problem.n_levels
    n = u_n * b_n * p_n
    rates = problem.rate_table()

    def idx(u, b, p):
        return (u * b_n + b) * p_n + p

    c = np.zeros(n)
    for u in range(u_n):
        for b in range(b_n):
            for p in range(p_n):
                c[idx(u, b, p)] = -rates[u, b, p]
    g_rows, h_vals = [], []
    for b in range(b_n):
        row = np.zeros(n)
        for u in range(u_n):
            for p in range(p_n):
                row[idx(u, b, p)] = 1.0
        g_rows.append(row)
        h_vals.append(1.0)
    row = np.zeros(n)
    for u in range(u_n):
        for b in range(b_n):
            for p in range(p_n):
                row[idx(u, b, p)] = float(problem.power_levels_mw[p])
    g_rows.append(row)
    h_vals.append(float(problem.total_power_mw))
    mins = problem.min_rates()
    for u in range(u_n):
        row = np.zeros(n)
        for b in range(b_n):
            for p in range(p_n):
                row[idx(u, b, p)] = -rates[u, b, p]
        g_rows.append(row)
        h_vals.append(-float(mins[u]))
    return c, np.asarray(g_rows), np.asarray(h_vals)


@pytest.mark.parametrize("shape", [(1, 1, (1.0,)), (3, 5, (50.0, 100.0)),
                                   (2, 4, (100.0,)), (4, 3, (10.0, 20.0, 40.0))])
def test_to_milp_matches_loop_build(shape):
    n_users, n_blocks, levels = shape
    problem = _rra(7, n_users, n_blocks, levels)
    model = problem.to_milp()
    c, g, h = _to_milp_loops(problem)
    for got, want in ((model.lp.c, c), (model.lp.g, g), (model.lp.h, h)):
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    assert model.integer_indices == frozenset(range(c.size))
    assert np.array_equal(model.lp.lo, np.zeros(c.size))
    assert np.array_equal(model.lp.hi, np.ones(c.size))


def _count_lp_calls(monkeypatch) -> dict:
    """Wrap ``solve_lp`` where the MILP solver and the heuristics look it up."""
    calls = {"milp": [], "heuristics": []}
    for module, key in ((milp, "milp"), (heuristics, "heuristics")):
        def counted(problem, *args, _inner=module.solve_lp, _key=key, **kwargs):
            calls[_key].append((problem.lo.copy(), problem.hi.copy()))
            return _inner(problem, *args, **kwargs)
        monkeypatch.setattr(module, "solve_lp", counted)
    return calls


#: BnBResult of the solver before the root-reuse and repair-skip changes:
#: (seed, max_nodes) -> (nonzero x, objective hex, explored, pruned, converged)
_PINNED_BNB = {
    (0, 200): ([9, 13, 21, 25, 27], "-0x1.0f143d88e3c22p+24", 31, 15, True),
    (2, 200): ([5, 7, 9, 13, 21], "-0x1.f0536a62acae9p+23", 200, 56, False),
}


@pytest.mark.parametrize("seed, max_nodes", sorted(_PINNED_BNB))
def test_milp_solves_root_once_and_keeps_its_tree(monkeypatch, seed, max_nodes):
    model = _rra(seed).to_milp()
    calls = _count_lp_calls(monkeypatch)
    res = solve_milp(model, max_nodes=max_nodes)

    root = [c for c in calls["milp"]
            if np.array_equal(c[0], model.lp.lo) and np.array_equal(c[1], model.lp.hi)]
    assert len(root) == 1
    assert calls["heuristics"] == []
    # one LP per explored node: the root node's re-bound reuses the root LP
    assert len(calls["milp"]) == res.nodes_explored

    support, objective, explored, pruned, converged = _PINNED_BNB[seed, max_nodes]
    want_x = np.zeros(model.dim)
    want_x[support] = 1.0
    assert np.array_equal(res.x, want_x)
    assert res.objective == float.fromhex(objective)
    assert (res.nodes_explored, res.nodes_pruned, res.converged) == (explored, pruned, converged)


def test_infeasible_root_is_not_resolved(monkeypatch):
    lp = LPProblem(c=np.array([1.0]), a=np.array([[1.0]]), b=np.array([5.0]),
                   lo=np.array([0.0]), hi=np.array([1.0]))
    calls = _count_lp_calls(monkeypatch)
    res = solve_milp(MILPModel(lp, frozenset({0})))
    assert res.x is None and res.nodes_explored == 0
    assert len(calls["milp"]) == 1


def _two_var_model(continuous: bool) -> MILPModel:
    # x0 + x1 <= 1.2 on [0, 1]^2: the relaxed point (0.6, 0.6) rounds to
    # the infeasible (1, 1) and floors to the feasible (0, 0)
    lp = LPProblem(c=np.array([-1.0, -1.0]), g=np.array([[1.0, 1.0]]),
                   h=np.array([1.2]), lo=np.zeros(2), hi=np.ones(2))
    return MILPModel(lp, frozenset({0}) if continuous else frozenset({0, 1}))


def test_pure_integer_repair_makes_no_lp_call(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    x = round_and_repair(_two_var_model(continuous=False), np.array([0.6, 0.6]))
    assert calls["heuristics"] == []
    assert np.array_equal(x, [0.0, 0.0])


def test_mixed_model_repair_still_solves_the_lp(monkeypatch):
    calls = _count_lp_calls(monkeypatch)
    x = round_and_repair(_two_var_model(continuous=True), np.array([0.6, 0.6]))
    assert len(calls["heuristics"]) == 1
    assert x[0] == 1.0 and x[1] == pytest.approx(0.2)


@pytest.mark.parametrize("seed", range(6))
def test_pure_integer_repair_lp_has_no_candidate(seed):
    """Why the skip is exact: with every coordinate fixed, the repair LP
    either is infeasible or returns the rejected rounded point."""
    model = _rra(seed, min_rate=4e5).to_milp()
    x_root = solve_lp(model.relaxation()).x
    for rounder in (np.round, np.floor):
        x = np.clip(rounder(x_root), model.lp.lo, model.lp.hi)
        if model.is_feasible(x):
            continue
        fixed = LPProblem(c=model.lp.c, g=model.lp.g, h=model.lp.h, lo=x, hi=x)
        try:
            sol = solve_lp(fixed)
        except ReproError:
            continue
        assert not model.is_feasible(sol.x)


# ---------------------------------------------------------------------------
# The stacked simplex: every member byte-identical to its own solve_lp
# ---------------------------------------------------------------------------

def _member(outcome):
    """``("ok", x bytes, objective bytes, pivots)`` or ``("raise", class)``."""
    if isinstance(outcome, Exception):
        return ("raise", type(outcome))
    return ("ok", outcome.x.tobytes(), np.float64(outcome.objective).tobytes(),
            outcome.iterations)


def _alone(problem, max_iter=10000):
    try:
        return _member(solve_lp(problem, max_iter))
    except ReproError as err:
        return ("raise", type(err))


def _assert_stack_matches(problems, max_iter=10000):
    """Stack every same-shape group, whatever its width (the kernel called
    directly), and through the routed public entry point."""
    for got in (lp._solve_batch(problems, max_iter, 1),
                solve_lp_batch(problems, max_iter)):
        assert len(got) == len(problems)
        for problem, outcome in zip(problems, got):
            assert _member(outcome) == _alone(problem, max_iter)


@st.composite
def _same_shape_lps(draw, width) -> list:
    """``width`` LPs with one standard-form shape: the dimensions and the
    finite/infinite pattern of the bounds are shared, the data is not."""
    n = draw(st.integers(1, 5))
    m_ineq, m_eq = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    free = [draw(st.booleans()) for _ in range(n)]
    capped = [draw(st.booleans()) for _ in range(n)]

    def vec(size):
        return np.array([draw(_COEF) for _ in range(size)])

    out = []
    for _ in range(width):
        lo = np.array([-np.inf if f else draw(st.sampled_from([-1.0, 0.0, 1.5]))
                       for f in free])
        width_ = np.array([draw(st.sampled_from([0.0, 1.0, 2.5])) if cap else np.inf
                           for cap in capped])
        out.append(LPProblem(
            c=vec(n),
            g=vec(m_ineq * n).reshape(m_ineq, n) if m_ineq else None,
            h=vec(m_ineq) if m_ineq else None,
            a=vec(m_eq * n).reshape(m_eq, n) if m_eq else None,
            b=vec(m_eq) if m_eq else None,
            lo=lo, hi=width_ + np.where(np.isfinite(lo), lo, 0.0)))
    return out


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(2, 16).flatmap(_same_shape_lps), st.lists(_lps(), max_size=4),
       st.sampled_from([10000, 10000, 3]))
def test_stacked_members_bit_identical_to_solve_lp(group, others, max_iter):
    """Mixed-shape batches: a same-shape group of width 2-16 plus stray
    shapes.  Random data makes infeasible and unbounded members common;
    ``max_iter=3`` stops some members with ConvergenceError mid-stack."""
    _assert_stack_matches(group + others, max_iter)


def test_stack_covers_every_member_outcome():
    """One stack holding optimal, infeasible, unbounded and pivot-capped
    members; each gets its own outcome."""
    feasible = LPProblem(c=np.array([-1.0, -1.0]), g=np.array([[1.0, 2.0], [3.0, 1.0]]),
                         h=np.array([4.0, 6.0]), lo=np.zeros(2))
    infeasible = LPProblem(c=np.array([1.0, 0.0]), g=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                           h=np.array([1.0, -3.0]), lo=np.zeros(2))
    unbounded = LPProblem(c=np.array([-1.0, 0.0]), g=np.array([[-1.0, 1.0], [0.0, 1.0]]),
                          h=np.array([0.0, 1.0]), lo=np.zeros(2))
    problems = [feasible, infeasible, unbounded, feasible]
    classes = [type(o).__name__ for o in lp._solve_batch(problems, 10000, 1)]
    assert classes == ["Solution", "InfeasibleError", "UnboundedError", "Solution"]
    capped = lp._solve_batch(problems, 1, 1)
    assert isinstance(capped[0], ConvergenceError)
    _assert_stack_matches(problems)
    _assert_stack_matches(problems, 1)


@pytest.mark.parametrize("width", [2, 5])
def test_stacked_degenerate_members_run_bland(width):
    """Zero right-hand sides stall the degenerate members past the Bland
    switch while same-shape generic members are still pivoting by
    Dantzig: each member keeps its own stall count inside the stack."""
    problems = []
    for seed in range(2 * width):
        rng = np.random.default_rng(seed)
        h = np.zeros(30) if seed % 2 else rng.integers(1, 9, size=30).astype(float)
        problems.append(LPProblem(c=-rng.integers(1, 3, size=20).astype(float),
                                  g=rng.integers(0, 3, size=(30, 20)).astype(float),
                                  h=h, lo=np.zeros(20)))
    pivots = [o.iterations for o in lp._solve_batch(problems, 10000, 1)]
    assert all(p > 25 for p in pivots[1::2])
    _assert_stack_matches(problems)


def test_non_finite_member_gets_its_own_error():
    good = _lp()
    bad = _lp(c=np.array([np.nan, 1.0]))
    got = lp._solve_batch([good, bad, good], 10000, 1)
    assert isinstance(got[1], NumericalInstabilityError)
    assert _member(got[0]) == _member(got[2]) == _alone(good)


def _frame_cell_roots() -> list:
    """The root relaxations of the ``rra_frames.json`` golden's frames."""
    from .test_golden_reports import _RRA_FRAME_CELLS, _rra_frame_corpus

    return [task["problem"].to_milp().relaxation()
            for cell in range(len(_RRA_FRAME_CELLS))
            for task, _ in _rra_frame_corpus(cell)]


def test_stacked_rra_roots_bit_identical():
    roots = _frame_cell_roots()
    assert len({lp._standard_form(p).a.shape for p in roots}) > 1
    _assert_stack_matches(roots)


def test_stack_width_histogram():
    registry = MetricsRegistry()
    roots = [_rra(seed, n_users=2, n_blocks=4, levels=(100.0,)).to_milp().relaxation()
             for seed in range(7)]
    with use_metrics(registry):
        solve_lp_batch(roots + [_lp()])
    hist = registry.snapshot()["histograms"]["convex.lp.stack_width"]
    # one group of the seven same-shape roots, one of the stray LP
    assert hist["count"] == 2 and hist["sum"] == 8.0
