"""Branch-and-bound node LPs screened by a dual simplex from the parent's
tableau (``repro.convex.lp.screen_node``), and the cold solve kept as the
answer for every node that is not proven to prune.

Four properties:

* a node's standard form patched from its parent's is byte-equal to a
  fresh build, and falls back to one when the bound pattern differs;
* soundness replay: every node the screen prunes is cold-solved as well
  and must prune there too (on the 200-frame ``rra_frames.json`` corpus
  and on hypothesis MILPs);
* the margin, the dual bound and the infeasibility certificate sit
  exactly where they are documented, on LPs whose bound and phase-1
  optimum are known in closed form;
* whole trees are identical to trees built with the screen switched off.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.convex.lp as lp
from repro.convex import LPProblem
from repro.exceptions import InfeasibleError, ReproError
from repro.minlp import MILPModel, solve_milp
from repro.obs import MetricsRegistry, use_metrics

_FIELDS = ("a", "b", "c", "col_pos", "free", "col_neg", "shift", "upper")


def _form_bytes(form) -> tuple:
    return tuple(getattr(form, f).tobytes() for f in _FIELDS) + (
        np.float64(form.const).tobytes(), form.n_eq, form.a.shape)


# ---------------------------------------------------------------------------
# Patched node forms
# ---------------------------------------------------------------------------

_COEF = st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                  st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))


@st.composite
def _models(draw, max_eq: int = 2) -> MILPModel:
    """Small MILPs: a mix of integer and continuous variables, random
    inequality rows, sometimes equality rows, and bounds that are finite,
    infinite, or cut a fractional box."""
    n = draw(st.integers(1, 5))
    m_ineq, m_eq = draw(st.integers(1, 4)), draw(st.integers(0, max_eq))

    def vec(size):
        return np.array([draw(_COEF) for _ in range(size)])

    lo = np.array([draw(st.sampled_from([-np.inf, -1.0, 0.0, 0.0, 0.5])) for _ in range(n)])
    hi = np.array([draw(st.sampled_from([np.inf, 1.0, 2.0, 3.0, 3.5])) for _ in range(n)])
    hi = np.maximum(hi, np.where(np.isfinite(lo), lo, -np.inf))
    problem = LPProblem(
        c=vec(n), g=vec(m_ineq * n).reshape(m_ineq, n), h=vec(m_ineq),
        a=vec(m_eq * n).reshape(m_eq, n) if m_eq else None,
        b=vec(m_eq) if m_eq else None, lo=lo, hi=hi)
    ints = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return MILPModel(problem, frozenset(ints))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_models(), st.data())
def test_patched_node_form_is_byte_equal_to_a_fresh_build(model, data):
    """Node boxes tighten the model's bounds, sometimes making an infinite
    bound finite (which changes the form's shape: the patch falls back)."""
    n = model.dim
    root = lp._standard_form(model.relaxation())
    pick = st.sampled_from([-np.inf, -2.0, 0.0, 1.0, 2.0, np.inf])
    lo = np.array([data.draw(pick) for _ in range(n)])
    hi = np.array([data.draw(pick) for _ in range(n)])
    node = model.relaxation(extra_lo=lo, extra_hi=hi)
    fresh = lp._standard_form(node)
    patched = lp._standard_form(node, root)
    assert _form_bytes(patched) == _form_bytes(fresh)
    same_pattern = (np.array_equal(np.isfinite(node.lo), np.isfinite(model.lp.lo))
                    and np.array_equal(np.isfinite(node.hi), np.isfinite(model.lp.hi)))
    assert (patched.a is root.a) == same_pattern


def test_rra_node_forms_are_patched_from_the_root():
    from .test_lp_oracle import _rra

    model = _rra(3).to_milp()
    root = lp._standard_form(model.relaxation())
    hi = model.lp.hi.copy()
    hi[4] = 0.0
    lo = model.lp.lo.copy()
    lo[7] = 1.0
    node = model.relaxation(extra_lo=lo, extra_hi=hi)
    patched = lp._standard_form(node, root)
    assert patched.a is root.a and patched.c is root.c
    assert _form_bytes(patched) == _form_bytes(lp._standard_form(node))


# ---------------------------------------------------------------------------
# Soundness replay: every screened node is cold-solved too and must prune
# ---------------------------------------------------------------------------

class _Replay:
    """Wraps ``screen_node`` at its import site: each node it screens is
    also solved cold, which must raise InfeasibleError or bound at or
    above the threshold the screen was given."""

    def __init__(self, monkeypatch):
        self.screen = lp.screen_node
        self.calls = self.screened = 0
        monkeypatch.setattr(lp, "screen_node", self)

    def __call__(self, parent, form, threshold):
        self.calls += 1
        verdict = self.screen(parent, form, threshold)
        if verdict:
            self.screened += 1
            try:
                _, objective, *_ = lp._simplex(form.a, form.b, form.c, 10000)
            except InfeasibleError:
                return verdict
            assert objective + form.const >= threshold
        return verdict


@pytest.fixture(scope="module")
def corpus_models() -> list:
    """The exact-rung MILPs of the ``rra_frames.json`` golden's 200 frames,
    each with its cell's node cap."""
    from .test_golden_reports import _RRA_FRAME_CELLS, _rra_frame_corpus

    return [(task["problem"].to_milp(), config.max_nodes)
            for cell, (config, rungs) in enumerate(_RRA_FRAME_CELLS)
            if "exact-bnb" in rungs
            for task, _ in _rra_frame_corpus(cell)]


def _result_bytes(res) -> tuple:
    x = None if res.x is None else res.x.tobytes()
    return (x, np.float64(res.objective).tobytes(), np.float64(res.lower_bound).tobytes(),
            res.nodes_explored, res.nodes_pruned, res.converged)


def test_corpus_replay_every_screened_node_prunes_cold(monkeypatch, corpus_models):
    replay = _Replay(monkeypatch)
    for model, max_nodes in corpus_models:
        solve_milp(model, max_nodes=max_nodes)
    print(f"\nrra_frames corpus: {replay.screened} of {replay.calls} screened "
          "node LPs replayed cold, all prune")
    assert replay.screened > 100


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_models(), st.sampled_from([2, 5, 200]))
def test_milp_replay_every_screened_node_prunes_cold(model, max_nodes):
    """Random MILPs: node-capped trees, infeasible children, and models
    with equality rows (which the screen must leave to the cold solve)."""
    with pytest.MonkeyPatch.context() as mp:
        replay = _Replay(mp)
        try:
            solve_milp(model, max_nodes=max_nodes)
        except ReproError:   # an unbounded or stalled LP: not this test's subject
            pass
    if model.lp.a is not None:
        assert replay.screened == 0


def test_integer_programs_replay_and_screen(monkeypatch):
    """Seeded pure-integer programs over a 0..3 box: the screen fires on
    them (so the replays are not vacuous), and each screened node prunes
    cold."""
    rng = np.random.default_rng(0)
    replay = _Replay(monkeypatch)
    for _ in range(40):
        n = 6
        model = MILPModel(LPProblem(c=rng.integers(-5, 1, size=n).astype(float),
                                    g=rng.integers(-3, 4, size=(4, n)).astype(float),
                                    h=rng.integers(0, 6, size=4).astype(float),
                                    lo=np.zeros(n), hi=np.full(n, 3.0)),
                          frozenset(range(n)))
        solve_milp(model)
    print(f"\ninteger programs: {replay.screened} of {replay.calls} screened "
          "node LPs replayed cold, all prune")
    assert replay.screened > 0


# ---------------------------------------------------------------------------
# The margin and the certificate, on LPs solved in closed form
# ---------------------------------------------------------------------------

def _child_of(parent_problem: LPProblem, lo=None, hi=None):
    """``(parent handle, child form)`` for a child box of one LP."""
    parent = lp.solve_lp(parent_problem).handle
    child = LPProblem(c=parent_problem.c, g=parent_problem.g, h=parent_problem.h,
                      lo=parent_problem.lo if lo is None else lo,
                      hi=parent_problem.hi if hi is None else hi)
    return parent, lp._standard_form(child, parent.form)


def test_bound_screen_keeps_its_margin():
    """``min x`` over ``x >= 0.5``, ``x`` in [0, 2]; the child ``x >= 1``
    bounds at exactly 1.  Within the margin of the threshold the node
    goes cold (even where the cold solve would prune), clear of it the
    screen prunes, and above the bound it never does."""
    parent, form = _child_of(LPProblem(c=np.array([1.0]), g=np.array([[-1.0]]),
                                       h=np.array([-0.5]), lo=np.zeros(1),
                                       hi=np.array([2.0])), lo=np.array([1.0]))
    margin = lp._SCREEN_MARGIN
    assert lp.screen_node(parent, form, 1.0 - 2.0 * margin)
    assert not lp.screen_node(parent, form, 1.0 - 0.5 * margin)
    assert not lp.screen_node(parent, form, 1.0)
    assert not lp.screen_node(parent, form, np.nextafter(1.0, 2.0))
    assert not lp.screen_node(parent, form, np.inf)


@pytest.mark.parametrize("scale", [1e6, 1e-3])
@pytest.mark.parametrize("ratio, certified, cold_infeasible", [
    (0.5, False, False),   # cold phase 1 accepts: a certificate here is unsound
    (1.5, False, True),    # cold rejects, but inside the certificate's factor
    (3.0, True, True),
])
def test_infeasibility_certificate_implies_the_cold_verdict(scale, ratio, certified,
                                                            cold_infeasible):
    """``R x >= R (1 + eps)`` over ``x`` in [0, 2], child ``x <= 1``: the
    child's phase-1 optimum is ``R eps`` exactly.  It is set to ``ratio``
    times the cold tolerance ``1e-7 max(1, max|b|)``; ``R = 1e6`` (rates
    in bps) and ``R = 1e-3`` put the certificate's ``kappa`` far below and
    far above 1."""
    feas_tol = 1e-7 * max(1.0, scale)   # max|b| = R (1 + eps) to 1e-6
    eps = ratio * feas_tol / scale
    problem = LPProblem(c=np.array([1.0]), g=np.array([[-scale]]),
                        h=np.array([-scale * (1.0 + eps)]), lo=np.zeros(1),
                        hi=np.array([2.0]))
    parent, form = _child_of(problem, hi=np.array([1.0]))
    assert lp.screen_node(parent, form, np.inf) == certified
    try:
        lp._simplex(form.a, form.b, form.c, 10000)
        cold = False
    except InfeasibleError:
        cold = True
    assert cold == cold_infeasible


def test_reduced_costs_left_below_zero_are_charged_at_their_caps():
    """``min x1 - delta x2`` over ``x1 >= 0.5``, ``x1`` in [0, 2], ``x2`` in
    [0, U], with ``delta`` inside the pivot tolerance: the parent's simplex
    stops with ``x2 = 0`` and reduced cost ``-delta``.  The child
    ``x1 >= 1`` has tableau objective 1 but true optimum ``1 - delta U``.
    A screen that trusted the tableau would prune it at threshold
    ``1 - 2 margin`` for every ``U``; the dual bound prunes only where
    ``delta U`` fits inside the margin, and never with ``U`` infinite."""
    delta, margin = 5e-10, lp._SCREEN_MARGIN
    verdicts = {}
    for cap in (1.0, 1e6, np.inf):
        problem = LPProblem(c=np.array([1.0, -delta]), g=np.array([[-1.0, 0.0]]),
                            h=np.array([-0.5]), lo=np.zeros(2), hi=np.array([2.0, cap]))
        parent, form = _child_of(problem, lo=np.array([1.0, 0.0]))
        assert parent.tableau[-1, 1] == -delta   # x2 stayed out of the basis
        verdicts[cap] = lp.screen_node(parent, form, 1.0 - 2.0 * margin)
    assert verdicts == {1.0: True, 1e6: False, np.inf: False}


def test_handles_only_where_a_child_can_be_screened():
    # equality rows have no slack to read the basis inverse from: no handle
    eq = LPProblem(c=np.array([1.0, 1.0]), g=np.array([[-1.0, 0.0]]), h=np.array([-0.5]),
                   a=np.array([[1.0, -1.0]]), b=np.array([0.0]),
                   lo=np.zeros(2), hi=np.full(2, 2.0))
    assert lp.solve_lp(eq).handle is None
    # a form not patched from the parent's (own matrix) is never screened
    ineq = LPProblem(c=np.array([1.0]), g=np.array([[-1.0]]), h=np.array([-0.5]),
                     lo=np.zeros(1), hi=np.array([2.0]))
    parent = lp.solve_lp(ineq).handle
    fresh = lp._standard_form(LPProblem(c=ineq.c, g=ineq.g, h=ineq.h,
                                        lo=np.array([1.0]), hi=ineq.hi))
    assert not lp.screen_node(parent, fresh, -np.inf)
    assert lp.screen_node(parent, lp._standard_form(
        LPProblem(c=ineq.c, g=ineq.g, h=ineq.h, lo=np.array([1.0]), hi=ineq.hi),
        parent.form), 0.5)
    # a stacked member's handle owns its arrays (no view into the batch)
    batch = lp.solve_lp_batch([ineq] * lp._STACK_MIN_WIDTH)
    assert all(sol.handle.tableau.base is None and sol.handle.basis.base is None
               for sol in batch)


# ---------------------------------------------------------------------------
# Whole trees: identical to the screen switched off
# ---------------------------------------------------------------------------

def _trees(models, monkeypatch, screen: bool) -> list:
    with monkeypatch.context() as mp:
        if not screen:
            mp.setattr(lp, "screen_node", lambda parent, form, threshold: False)
        return [_result_bytes(solve_milp(model, max_nodes=max_nodes))
                for model, max_nodes in models]


def test_corpus_trees_identical_without_the_screen(monkeypatch, corpus_models):
    assert (_trees(corpus_models, monkeypatch, True)
            == _trees(corpus_models, monkeypatch, False))


def _milp_outcome(model, max_nodes):
    try:
        return _result_bytes(solve_milp(model, max_nodes=max_nodes))
    except ReproError as err:
        return ("raise", type(err))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_models(), st.sampled_from([2, 5, 200]))
def test_milp_trees_identical_without_the_screen(model, max_nodes):
    with pytest.MonkeyPatch.context() as mp:
        on = _milp_outcome(model, max_nodes)
        mp.setattr(lp, "screen_node", lambda parent, form, threshold: False)
        off = _milp_outcome(model, max_nodes)
    assert on == off


def test_node_lp_counter_splits_root_screened_and_cold():
    from .test_lp_oracle import _rra

    registry = MetricsRegistry()
    with use_metrics(registry):
        res = solve_milp(_rra(0).to_milp(), max_nodes=200)
    counts = registry.counters_matching("minlp.node_lps")
    assert counts["minlp.node_lps{outcome=root}"] == 1
    screened = counts.get("minlp.node_lps{outcome=screened}", 0)
    cold = counts.get("minlp.node_lps{outcome=cold}", 0)
    # the root node's re-bound reuses the root LP: one node LP per other node
    assert screened > 0 and screened + cold == res.nodes_explored - 1
