"""Tests for the RRA MINLP, its three solution strategies, and the
frame-batch path (``solve_frames``)."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.minlp.milp as milp
import repro.qos.rra as rra
from repro.convex import lp, solve_lp
from repro.exceptions import ConfigurationError, InfeasibleError
from repro.kernels.reference import solve_rra_greedy_reference
from repro.obs import Tracer, use_tracer
from repro.parallel import derive_seed
from repro.qos import (
    ChannelConfig,
    ChannelModel,
    QoSRequirement,
    RRAProblem,
    ServiceClass,
    UserSession,
    solve_rra_exact,
    solve_rra_greedy,
    solve_rra_pso,
    solve_rra_relaxed,
)
from repro.qos.rra import RRA_FALLBACK, solve_frame, solve_frames
from repro.resilience import FaultSpec


def _users(rates):
    return [
        UserSession(i, ServiceClass.EMBB,
                    QoSRequirement(min_rate_bps=r, max_latency_ms=50, reliability=0.99, priority=1))
        for i, r in enumerate(rates)
    ]


def _problem(n_users=3, n_blocks=6, min_rate=1e5, seed=0):
    ch = ChannelModel(ChannelConfig(n_blocks=n_blocks), rng=np.random.default_rng(seed))
    return RRAProblem(
        gains=ch.gains(n_users),
        users=_users([min_rate] * n_users),
        power_levels_mw=np.array([50.0, 100.0]),
        total_power_mw=500.0,
        noise_mw=ch.noise_linear_mw,
    )


class TestProblemStructure:
    def test_rate_table_shape(self):
        p = _problem()
        assert p.rate_table().shape == (3, 6, 2)
        assert np.all(p.rate_table() >= 0)

    def test_higher_power_higher_rate(self):
        rates = _problem().rate_table()
        assert np.all(rates[:, :, 1] >= rates[:, :, 0])

    def test_evaluate_assignment(self):
        p = _problem()
        choice = np.full(6, -1)
        choice[0] = 0 * 2 + 1  # user 0, block 0, power level 1
        ev = p.evaluate_assignment(choice)
        assert ev["power_mw"] == pytest.approx(100.0)
        assert ev["user_rates"][0] > 0
        assert ev["user_rates"][1] == 0

    def test_idle_assignment(self):
        p = _problem()
        ev = p.evaluate_assignment(np.full(6, -1))
        assert ev["total_rate"] == 0.0
        assert not ev["qos_ok"]

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            RRAProblem(gains=np.ones((2, 4)), users=_users([1.0]),
                       power_levels_mw=np.array([10.0]), total_power_mw=100.0, noise_mw=1e-10)


def _choice_loop(problem: RRAProblem, x: np.ndarray) -> np.ndarray:
    """The per-block loop ``RRAProblem.choice_from_milp_x`` replaced: the
    first maximum over ``(user, level)``, kept when it is above 0.5."""
    u_n, b_n, p_n = problem.n_users, problem.n_blocks, problem.n_levels
    choice = np.full(b_n, -1, dtype=int)
    xr = np.asarray(x).reshape(u_n, b_n, p_n)
    for b in range(b_n):
        flat = xr[:, b, :].ravel()
        j = int(np.argmax(flat))
        if flat[j] > 0.5:
            u, p = divmod(j, p_n)
            choice[b] = u * p_n + p
    return choice


def test_choice_from_milp_x_matches_the_block_loop():
    """On the ``rra_frames.json`` corpus: each frame's fractional root
    point, its rounding, a point of exact ties at 0.5 and 1.0, and the
    rounding with NaN entries (a NaN counts as the block's maximum and
    is never above 0.5)."""
    rng = np.random.default_rng(5)
    checked = 0
    for task in _golden_tasks():
        problem = task["problem"]
        try:
            root = solve_lp(problem.to_milp().relaxation()).x
        except InfeasibleError:
            continue
        ties = np.where(rng.random(root.size) < 0.5, 0.5, 1.0)
        spoiled = np.round(root)
        spoiled[rng.integers(root.size, size=3)] = np.nan
        for x in (root, np.round(root), ties, spoiled):
            got = problem.choice_from_milp_x(x)
            assert got.dtype == np.int64
            assert got.tobytes() == _choice_loop(problem, x).tobytes()
        checked += 1
    assert checked > 100


class TestSolvers:
    def test_exact_dominates_all_heuristics(self):
        p = _problem(seed=1)
        ex = solve_rra_exact(p, max_nodes=20000)
        rl = solve_rra_relaxed(p)
        ps = solve_rra_pso(p, swarm_size=12, generations=40, seed=0)
        gr = solve_rra_greedy(p)
        assert ex.qos_ok and ex.power_ok
        for other in (rl, ps, gr):
            if other.feasible:
                assert ex.total_rate >= other.total_rate - 1e-6

    def test_exact_respects_power_budget(self):
        p = _problem(seed=2)
        ex = solve_rra_exact(p)
        ev = p.evaluate_assignment(ex.choice)
        assert ev["power_mw"] <= p.total_power_mw + 1e-9

    def test_qos_floors_bind(self):
        """Raising one user's floor must not reduce their allocated rate
        below it (as long as the instance stays feasible)."""
        ch = ChannelModel(ChannelConfig(n_blocks=6), rng=np.random.default_rng(3))
        gains = ch.gains(2)
        users = _users([5e4, 8e6])  # user 1 demands a lot
        p = RRAProblem(gains=gains, users=users, power_levels_mw=np.array([100.0]),
                       total_power_mw=600.0, noise_mw=ch.noise_linear_mw)
        try:
            res = solve_rra_exact(p)
        except InfeasibleError:
            pytest.skip("instance infeasible for this channel draw")
        ev = p.evaluate_assignment(res.choice)
        assert ev["user_rates"][1] >= 8e6 - 1e-3

    def test_infeasible_floors_detected(self):
        ch = ChannelModel(ChannelConfig(n_blocks=2), rng=np.random.default_rng(4))
        users = _users([1e12, 1e12])  # absurd demands
        p = RRAProblem(gains=ch.gains(2), users=users,
                       power_levels_mw=np.array([100.0]), total_power_mw=200.0,
                       noise_mw=ch.noise_linear_mw)
        with pytest.raises(InfeasibleError):
            solve_rra_exact(p)

    def test_greedy_is_feasible_when_possible(self):
        p = _problem(seed=5)
        gr = solve_rra_greedy(p)
        assert gr.power_ok

    def test_pso_choice_within_domain(self):
        p = _problem(seed=6)
        ps = solve_rra_pso(p, swarm_size=8, generations=20, seed=1)
        assert np.all(ps.choice >= -1)
        assert np.all(ps.choice < p.n_users * p.n_levels)

    def test_relaxed_reports_lp_bound(self):
        p = _problem(seed=7)
        rl = solve_rra_relaxed(p)
        # the LP bound upper-bounds every *feasible* assignment (an
        # infeasible fallback snap may exceed it by violating QoS floors)
        if rl.feasible:
            assert rl.extra["lp_bound"] >= rl.total_rate - 1e-6
        ex = solve_rra_exact(p)
        assert rl.extra["lp_bound"] >= ex.total_rate - 1e-6


# ---------------------------------------------------------------------------
# Greedy rung: the argmax form == the loop oracle, bit for bit
# ---------------------------------------------------------------------------

#: gains drawn from a small set (exact ties, zeros, NaN) or at random
_GAIN = st.one_of(st.sampled_from([0.0, 1e-10, 5e-10, 2e-9, math.nan]),
                  st.floats(1e-11, 1e-8))


@st.composite
def _greedy_instances(draw):
    """(gains, power levels, power budget, rate floors); no users, more
    users than blocks, several levels and budgets below one level all
    occur."""
    n_u, n_b, n_p = draw(st.integers(0, 7)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    gains = np.array(draw(st.lists(_GAIN, min_size=n_u * n_b, max_size=n_u * n_b)))
    gains = gains.reshape(n_u, n_b)
    if draw(st.booleans()):
        # exact ties: one block's gain column copied over others
        src = draw(st.integers(0, n_b - 1))
        for b in draw(st.lists(st.integers(0, n_b - 1), max_size=n_b)):
            gains[:, b] = gains[:, src]
    levels = draw(st.lists(st.sampled_from([10.0, 50.0, 100.0, 200.0]),
                           min_size=n_p, max_size=n_p))
    budget = draw(st.sampled_from([5.0, 60.0, 150.0, 1000.0]))
    floors = draw(st.lists(st.sampled_from([0.0, 1e3, 1e5, 1e6, 5e6]),
                           min_size=n_u, max_size=n_u))
    return gains, levels, budget, floors


class TestGreedyRung:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(instance=_greedy_instances())
    def test_matches_loop_oracle(self, instance):
        """Choice bytes, ``total_rate`` as float hex, ``qos_ok`` and
        ``power_ok`` equal the original four-deep loop's (each solve gets
        its own problem, so no cached table is shared)."""
        gains, levels, budget, floors = instance

        def problem():
            return RRAProblem(gains=gains.copy(), users=_users(floors),
                              power_levels_mw=np.array(levels), total_power_mw=budget,
                              noise_mw=1e-10)

        got, want = solve_rra_greedy(problem()), solve_rra_greedy_reference(problem())
        assert got.choice.dtype == want.choice.dtype
        assert got.choice.tobytes() == want.choice.tobytes()
        assert float(got.total_rate).hex() == float(want.total_rate).hex()
        assert (got.qos_ok, got.power_ok) == (want.qos_ok, want.power_ok)

    def test_rate_table_and_evaluation_are_computed_once(self):
        p = _problem()
        rates = p.rate_table()
        assert p.rate_table() is rates
        with pytest.raises(ValueError):
            rates[0, 0, 0] = 0.0
        choice = solve_rra_greedy(p).choice
        ev = p.evaluate_assignment(choice)
        assert p.evaluate_assignment(choice.copy()) is ev
        other = choice.copy()
        other[0] = -1
        assert p.evaluate_assignment(other) is not ev


# ---------------------------------------------------------------------------
# Frame batches: solve_frames == solve_frame per task
# ---------------------------------------------------------------------------

#: outcome fields that are wall-clock measurements, not results
_TIMING_FIELDS = ("solver_time_s", "rung_times")


def _untimed(outcome):
    """The outcome without its timings; ``total_rate`` as float hex, which
    is exact and makes a NaN rate compare equal to itself."""
    out = {k: v for k, v in outcome.items() if k not in _TIMING_FIELDS}
    out["total_rate"] = float(out["total_rate"]).hex()
    return out


def _assert_batched_equals_one_by_one(tasks, monkeypatch):
    # root-box LP solves left to the rungs (the B&B root or lp-round's LP)
    rung_roots = []
    for module in (rra, milp):
        def counted(problem, *args, _inner=module.solve_lp, **kwargs):
            lo, hi = lp._node_bounds(problem, kwargs.get("box"))
            if not lo.any() and (hi == 1.0).all():
                rung_roots.append(problem)
            return _inner(problem, *args, **kwargs)
        monkeypatch.setattr(module, "solve_lp", counted)
    tracer = Tracer()
    with use_tracer(tracer):
        batched = solve_frames(tasks)
    # every root came from the batch: a stored failure is re-raised, not re-solved
    assert rung_roots == []
    alone = [solve_frame(task) for task in tasks]
    assert [_untimed(o) for o in batched] == [_untimed(o) for o in alone]
    # the root relaxations really went through one stacked batch
    spans = [r for r in tracer.records if r.name == "qos.rra.root_batch"]
    assert len(spans) == 1
    assert spans[0].attrs["frames"] == len(tasks)
    assert spans[0].attrs["width"] == sum(t["rungs"][0] != "greedy" for t in tasks)
    return batched


@functools.lru_cache(maxsize=1)
def _golden_tasks() -> tuple:
    from .test_golden_reports import _RRA_FRAME_CELLS, _rra_frame_corpus

    return tuple(task for cell in range(len(_RRA_FRAME_CELLS))
                 for task, _ in _rra_frame_corpus(cell))


class TestSolveFrames:
    def test_golden_corpus(self, monkeypatch):
        batched = _assert_batched_equals_one_by_one(list(_golden_tasks()), monkeypatch)
        assert {o["rung"] for o in batched} >= {"exact-bnb", "lp-round"}

    def test_chaos_retries_and_validation(self, monkeypatch):
        chaos = FaultSpec(exception_rate=0.3, nan_rate=0.2)
        tasks = [{**task, "chaos": chaos, "chaos_seed": derive_seed(5, i, "rra"),
                  "attempts": 2, "validate": True}
                 for i, task in enumerate(_golden_tasks()[::4])]
        batched = _assert_batched_equals_one_by_one(tasks, monkeypatch)
        assert sum(o["chaos_injections"] for o in batched) > 0

    @pytest.mark.parametrize("budget_s", [1e-9, 60.0])
    def test_frame_budgets(self, budget_s, monkeypatch):
        tasks = [{**task, "frame_budget_s": budget_s}
                 for task in _golden_tasks()[1::5]]
        _assert_batched_equals_one_by_one(tasks, monkeypatch)

    def test_failing_roots_fail_in_their_rung(self, monkeypatch):
        """NaN gains make the root LP raise NumericalInstabilityError,
        impossible floors make it infeasible: the stored failure descends
        the ladder exactly as the per-frame root solve did.  A problem
        whose MILP cannot be built is left to its own rungs."""
        base = _golden_tasks()[:8]
        tasks = []
        for i, task in enumerate(base):
            problem = task["problem"]
            if i % 2:
                gains = problem.gains.copy()
                gains[0, 0] = np.nan
                problem = RRAProblem(gains=gains, users=problem.users,
                                     power_levels_mw=problem.power_levels_mw,
                                     total_power_mw=problem.total_power_mw,
                                     noise_mw=problem.noise_mw)
            else:
                problem = RRAProblem(gains=problem.gains, users=_users([1e12] * problem.n_users),
                                     power_levels_mw=problem.power_levels_mw,
                                     total_power_mw=problem.total_power_mw,
                                     noise_mw=problem.noise_mw)
            tasks.append({**task, "problem": problem,
                          "rungs": RRA_FALLBACK if i % 4 < 2 else RRA_FALLBACK[1:]})
        # a zero bandwidth fails the MILP build itself (every rung: dropped)
        problem = base[0]["problem"]
        tasks.append({**base[0], "problem": RRAProblem(
            gains=problem.gains, users=problem.users,
            power_levels_mw=problem.power_levels_mw, total_power_mw=problem.total_power_mw,
            noise_mw=problem.noise_mw, bandwidth_hz=0.0)})
        batched = _assert_batched_equals_one_by_one(tasks, monkeypatch)
        assert batched[-1]["dropped"]
        assert all(o["primary_failed"] for o in batched)
        assert {o["rung"] for o in batched} <= {"greedy", "none"}

    def test_narrow_slices_solve_frame_by_frame(self):
        tracer = Tracer()
        tasks = list(_golden_tasks()[:3])
        with use_tracer(tracer):
            batched = solve_frames(tasks)
        assert not [r for r in tracer.records if r.name == "qos.rra.root_batch"]
        assert [_untimed(o) for o in batched] == [_untimed(solve_frame(t)) for t in tasks]

    def test_overridden_rungs_are_not_batched(self):
        tasks = [{**task, "solvers": {"exact-bnb": solve_rra_greedy}}
                 for task in _golden_tasks()[:8] if task["rungs"][0] == "exact-bnb"]
        tracer = Tracer()
        with use_tracer(tracer):
            batched = solve_frames(tasks)
        assert not [r for r in tracer.records if r.name == "qos.rra.root_batch"]
        assert [o["rung"] for o in batched] == ["exact-bnb"] * len(tasks)
