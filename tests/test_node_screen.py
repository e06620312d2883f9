"""Branch-and-bound node LPs bounded by a dual simplex from the parent's
tableau (``repro.convex.lp.screen_node``): a node is pruned, answered
from the warm basis, or left to the cold two-phase solve.

Four properties:

* a node's standard form patched from its parent's (the node entry
  ``solve_lp(model.lp, box=(lo, hi), parent=...)``) is byte-equal to a
  fresh build of ``model.relaxation(lo, hi)``, and falls back to one
  when the bound pattern differs;
* soundness replay: every node the screen prunes or answers is
  cold-solved as well; a pruned node must prune there too, and a warm
  answer must match the cold objective within 1e-9 relative with ``x``
  inside the node's box and rows (on the 200-frame ``rra_frames.json``
  corpus and on hypothesis MILPs);
* the margin, the dual bound, the infeasibility certificate and the
  warm answer's acceptance test sit exactly where they are documented,
  on LPs whose bound, phase-1 optimum or vertex is known in closed form;
* whole trees agree with trees whose every node LP is solved cold: the
  same ``converged``, and objectives within 1e-9 relative where both
  converged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.convex.lp as lp
import repro.minlp.milp as milp
from repro.convex import LPProblem
from repro.exceptions import InfeasibleError, NumericalInstabilityError, ReproError
from repro.minlp import MILPModel, solve_milp
from repro.obs import MetricsRegistry, use_metrics

#: a warm answer's objective must match the cold solve's within this
#: share of ``max(1, |cold|)``
_REL_TOL = 1e-9

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
    # the node entry: the model's own LP tightened to the box, never built
    entry = lp._standard_form(model.lp, root, (lo, hi))
    assert _form_bytes(patched) == _form_bytes(entry) == _form_bytes(fresh)
    assert _form_bytes(lp._standard_form(model.lp, box=(lo, hi))) == _form_bytes(fresh)
    same_pattern = (np.array_equal(np.isfinite(node.lo), np.isfinite(model.lp.lo))
                    and np.array_equal(np.isfinite(node.hi), np.isfinite(model.lp.hi)))
    assert (patched.a is root.a) == (entry.a is root.a) == same_pattern


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


def test_corpus_node_entry_forms_are_byte_equal_to_relaxation_forms(monkeypatch,
                                                                   corpus_models):
    """Every node LP ``solve_milp`` makes on the ``rra_frames.json``
    corpus: the form the node entry patches from the parent's handle is
    byte-equal to the form of ``model.relaxation(lo, hi)`` built afresh,
    and shares the parent's matrix (RRA node boxes keep the bound
    pattern)."""
    nodes = []

    def record(problem, *args, **kwargs):
        if kwargs.get("parent") is not None:
            nodes.append((problem, kwargs["box"], kwargs["parent"]))
        return lp.solve_lp(problem, *args, **kwargs)

    monkeypatch.setattr(milp, "solve_lp", record)
    checked = 0
    for model, max_nodes in corpus_models:
        solve_milp(model, max_nodes=max_nodes)
        for problem, box, parent in nodes:
            entry = lp._standard_form(problem, parent.form, box)
            assert entry.a is parent.form.a
            assert _form_bytes(entry) == _form_bytes(
                lp._standard_form(model.relaxation(*box)))
        checked += len(nodes)
        nodes.clear()
    assert checked > 500


def test_node_entry_keeps_the_nan_bound_check_and_falls_back():
    """A NaN in the node box is rejected like a NaN bound of a built LP
    (the box is tightened with ``np.maximum``/``np.minimum``, which keep
    the NaN); a box that makes an infinite bound finite changes the
    form's shape, and the entry builds it afresh (so the node goes cold)."""
    problem = LPProblem(c=np.array([1.0, -1.0]), g=np.array([[1.0, 1.0]]),
                        h=np.array([2.0]), lo=np.zeros(2), hi=np.array([3.0, np.inf]))
    parent = lp.solve_lp(problem).handle
    for field, box in (("lo", (np.array([np.nan, 0.0]), problem.hi)),
                       ("hi", (problem.lo, np.array([3.0, np.nan])))):
        with pytest.raises(NumericalInstabilityError, match=repr(field)):
            lp.solve_lp(problem, box=box, parent=parent)
    box = (problem.lo, np.array([3.0, 1.0]))
    entry = lp._standard_form(problem, parent.form, box)
    assert entry.a is not parent.form.a and entry.a.shape != parent.form.a.shape
    node = LPProblem(c=problem.c, g=problem.g, h=problem.h, lo=box[0], hi=box[1])
    assert _form_bytes(entry) == _form_bytes(lp._standard_form(node))
    got = lp.solve_lp(problem, box=box, parent=parent)
    assert got.status == "optimal"
    assert got.x.tobytes() == lp.solve_lp(node).x.tobytes()


# ---------------------------------------------------------------------------
# Soundness replay: every screened or warm node is cold-solved too
# ---------------------------------------------------------------------------

def _assert_feasible(problem: LPProblem, x: np.ndarray) -> None:
    """``x`` lies in ``problem``'s box and rows within the cold solve's
    feasibility tolerance for the node's standard form."""
    tol = lp._feas_tol(lp._standard_form(problem).b)
    misses = [problem.lo - x, x - problem.hi]
    if problem.g is not None:
        misses.append(problem.g @ x - problem.h)
    if problem.a is not None:
        misses.append(np.abs(problem.a @ x - problem.b))
    assert max(np.max(miss) for miss in misses) <= tol


def _node_problem(problem: LPProblem, box) -> LPProblem:
    """The LP a ``solve_lp(problem, box=box)`` call solves, built."""
    lo, hi = lp._node_bounds(problem, box)
    return LPProblem(c=problem.c, g=problem.g, h=problem.h, a=problem.a, b=problem.b,
                     lo=lo, hi=hi)


class _Replay:
    """Wraps ``solve_lp`` where ``solve_milp`` looks it up, and solves
    every node LP the screen settles cold as well: a pruned node must
    raise InfeasibleError cold or bound at or above the threshold the
    screen was given; a warm answer must match the cold objective within
    ``_REL_TOL`` relative, and its ``x`` must be feasible."""

    def __init__(self, monkeypatch):
        self.solve = milp.solve_lp
        self.calls = self.screened = self.warm = 0
        self.worst = 0.0
        monkeypatch.setattr(milp, "solve_lp", self)

    def __call__(self, problem, *args, **kwargs):
        if kwargs.get("parent") is None:
            return self.solve(problem, *args, **kwargs)
        self.calls += 1
        node = _node_problem(problem, kwargs.get("box"))
        try:
            sol = self.solve(problem, *args, **kwargs)
        except lp.ScreenedNode:
            self.screened += 1
            try:
                cold = lp.solve_lp(node)
            except InfeasibleError:
                cold = None
            assert cold is None or cold.objective >= kwargs["threshold"]
            raise
        if sol.status == "warm":
            self.warm += 1
            cold = lp.solve_lp(node)
            gap = abs(sol.objective - cold.objective) / max(1.0, abs(cold.objective))
            self.worst = max(self.worst, gap)
            assert gap <= _REL_TOL, (sol.objective, cold.objective)
            _assert_feasible(node, sol.x)
        return sol

    def report(self, name: str) -> str:
        return (f"\n{name}: {self.calls} node LPs, {self.screened} screened and "
                f"{self.warm} warm replayed cold (worst warm objective gap "
                f"{self.worst:.1e} relative)")


@pytest.fixture(scope="module")
def corpus_models() -> list:
    """The exact-rung MILPs of the ``rra_frames.json`` golden's 200 frames,
    each with its cell's node cap."""
    from .test_golden_reports import _RRA_FRAME_CELLS, _rra_frame_corpus

    return [(task["problem"].to_milp(), config.max_nodes)
            for cell, (config, rungs) in enumerate(_RRA_FRAME_CELLS)
            if "exact-bnb" in rungs
            for task, _ in _rra_frame_corpus(cell)]


def test_corpus_replay_every_screened_node_prunes_cold(monkeypatch, corpus_models):
    """Every pruned node prunes cold, and every warm answer matches its
    cold solve."""
    replay = _Replay(monkeypatch)
    for model, max_nodes in corpus_models:
        solve_milp(model, max_nodes=max_nodes)
    print(replay.report("rra_frames corpus"))
    assert replay.screened > 100 and replay.warm > 100


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_models(), st.sampled_from([2, 5, 200]))
def test_milp_replay_every_screened_node_prunes_cold(model, max_nodes):
    """Random MILPs: continuous variables, node-capped trees, infeasible
    children, and models with equality rows (which the screen must leave
    to the cold solve).  Warm answers are replayed as well."""
    with pytest.MonkeyPatch.context() as mp:
        replay = _Replay(mp)
        try:
            solve_milp(model, max_nodes=max_nodes)
        except ReproError:   # an unbounded or stalled LP: not this test's subject
            pass
    if model.lp.a is not None:
        assert replay.screened == replay.warm == 0


def test_integer_programs_replay_and_screen(monkeypatch):
    """Seeded pure-integer programs over a 0..3 box: the screen prunes
    and answers nodes of them (so the replays are not vacuous), and each
    one agrees with its cold solve."""
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
    print(replay.report("integer programs"))
    assert replay.screened > 0 and replay.warm > 0


# ---------------------------------------------------------------------------
# The margin, the certificate and the warm answer, on LPs solved in closed form
# ---------------------------------------------------------------------------

def _child_of(parent_problem: LPProblem, lo=None, hi=None):
    """``(parent handle, child form)`` for a child box of one LP."""
    parent = lp.solve_lp(parent_problem).handle
    child = LPProblem(c=parent_problem.c, g=parent_problem.g, h=parent_problem.h,
                      lo=parent_problem.lo if lo is None else lo,
                      hi=parent_problem.hi if hi is None else hi)
    return parent, lp._standard_form(child, parent.form)


def _screen(parent, form, threshold):
    """``screen_node``'s outcome: ``"prune"``, ``"cold"`` (unproven), or
    the warm answer's ``Solution``."""
    try:
        warm = lp.screen_node(parent, form, threshold, 10000)
    except lp.ScreenedNode:
        return "prune"
    return "cold" if warm is None else form.solution(warm, status="warm")


def _cold(form):
    return form.solution(lp._simplex(form.a, form.b, form.c, 10000))


#: ``min x`` over ``x >= 0.5``, ``x`` in [0, 2]
_HALF = LPProblem(c=np.array([1.0]), g=np.array([[-1.0]]), h=np.array([-0.5]),
                  lo=np.zeros(1), hi=np.array([2.0]))


def test_bound_screen_keeps_its_margin():
    """The child ``x >= 1`` of ``_HALF`` bounds at exactly 1.  Clear of
    the margin below the threshold the screen prunes; within it, at the
    bound and above, the node is answered from the warm basis instead
    (even where the cold solve would prune)."""
    parent, form = _child_of(_HALF, lo=np.array([1.0]))
    margin = lp._SCREEN_MARGIN
    assert _screen(parent, form, 1.0 - 2.0 * margin) == "prune"
    for threshold in (1.0 - 0.5 * margin, 1.0, np.nextafter(1.0, 2.0), np.inf):
        warm = _screen(parent, form, threshold)
        assert warm.objective == 1.0 and warm.x.tolist() == [1.0]


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
    far above 1.  An uncertified node goes cold, never warm."""
    feas_tol = 1e-7 * max(1.0, scale)   # max|b| = R (1 + eps) to 1e-6
    eps = ratio * feas_tol / scale
    problem = LPProblem(c=np.array([1.0]), g=np.array([[-scale]]),
                        h=np.array([-scale * (1.0 + eps)]), lo=np.zeros(1),
                        hi=np.array([2.0]))
    parent, form = _child_of(problem, hi=np.array([1.0]))
    assert _screen(parent, form, np.inf) == ("prune" if certified else "cold")
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
        verdicts[cap] = _screen(parent, form, 1.0 - 2.0 * margin)
    assert verdicts == {1.0: "prune", 1e6: "cold", np.inf: "cold"}


def test_warm_answer_waits_for_a_primal_feasible_basis():
    """The child ``x >= 0.5 + delta`` of ``_HALF`` starts at ``z = -delta``
    in the parent's basis.  With ``delta`` past the pivot tolerance but
    inside the cold feasibility tolerance, the form's residual check
    would pass that point (objective 0.5); the screen must make one more
    dual pivot and answer the cold optimum ``0.5 + delta``."""
    delta = 50 * lp._EPS
    parent, form = _child_of(_HALF, lo=np.array([0.5 + delta]))
    assert delta < lp._feas_tol(form.b)
    warm, cold = _screen(parent, form, np.inf), _cold(form)
    assert warm.iterations == 1
    assert warm.objective == pytest.approx(cold.objective, rel=1e-15)
    assert warm.objective == pytest.approx(0.5 + delta, rel=1e-15)


def test_warm_answer_is_judged_from_the_form():
    """The warm point is read from the tableau but accepted on the form's
    own residuals.  A parent tableau whose basis inverse drifted (one
    entry off by 1e-3) yields a point that misses ``A z = b`` by far more
    than the cold tolerance: the node goes cold instead."""
    parent, form = _child_of(_HALF, lo=np.array([1.0]))
    assert _screen(parent, form, np.inf).objective == _cold(form).objective == 1.0
    tableau = parent.tableau.copy()
    m, cols = parent.basis.size, tableau.shape[1] - 1
    row = parent.basis.argmax()   # where the second row's slack is basic
    tableau[row, cols - m + 1] += 1e-3
    drifted = lp.NodeHandle(parent.form, tableau, parent.basis)
    assert _screen(drifted, form, np.inf) == "cold"


def test_warm_answer_clears_reduced_costs_the_dual_pivots_leave():
    """``min -delta x1 + 0.1 x2`` over ``x2 - 2e-9 x1 <= 0``, ``x1`` in
    [0, U], ``x2 >= 0``, with ``delta`` inside the pivot tolerance: the
    slack basis (the origin) is optimal by ``_pivot``'s test, so its
    tableau ``[A | b]`` over ``[c | 0]`` is a final tableau the parent
    may hand down.  The child ``x2 >= 1e-8`` makes the first row leave;
    ``x1`` (entry -2e-9, just past the tolerance) enters at dual ratio 0,
    and dividing by that entry drives two reduced costs to -0.15 and
    -0.25.  The primal clean-up must pivot ``x1`` up to ``U``: the
    optimum is ``-delta U + 1e-9``, where the basis the dual pivot
    reaches reads ``-5 delta + 1e-9``."""
    delta, cap, floor = 5e-10, 1e6, 1e-8
    problem = LPProblem(c=np.array([-delta, 0.1]), g=np.array([[-2e-9, 1.0]]),
                        h=np.array([0.0]), lo=np.zeros(2), hi=np.array([cap, np.inf]))
    root = lp._standard_form(problem)
    m, cols = root.a.shape
    tableau = np.vstack([np.column_stack([root.a, root.b]), np.append(root.c, 0.0)])
    parent = lp.NodeHandle(root, tableau, np.arange(cols - m, cols))
    child = LPProblem(c=problem.c, g=problem.g, h=problem.h,
                      lo=np.array([0.0, floor]), hi=problem.hi)
    form = lp._standard_form(child, root)
    warm, cold = _screen(parent, form, np.inf), _cold(form)
    assert warm.iterations >= 2
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
    assert warm.objective == pytest.approx(-delta * cap + 0.1 * floor, rel=1e-12)


def test_handles_only_where_a_child_can_be_screened():
    # equality rows have no slack to read the basis inverse from: no handle
    eq = LPProblem(c=np.array([1.0, 1.0]), g=np.array([[-1.0, 0.0]]), h=np.array([-0.5]),
                   a=np.array([[1.0, -1.0]]), b=np.array([0.0]),
                   lo=np.zeros(2), hi=np.full(2, 2.0))
    assert lp.solve_lp(eq).handle is None
    # a form not patched from the parent's (own matrix) is never screened
    parent = lp.solve_lp(_HALF).handle
    node = LPProblem(c=_HALF.c, g=_HALF.g, h=_HALF.h, lo=np.array([1.0]), hi=_HALF.hi)
    assert _screen(parent, lp._standard_form(node), -np.inf) == "cold"
    assert _screen(parent, lp._standard_form(node, parent.form), 0.5) == "prune"
    # a warm answer carries its own tableau for its children
    warm = _screen(parent, lp._standard_form(node, parent.form), np.inf)
    assert warm.handle.tableau is not parent.tableau
    # a stacked member's handle owns its arrays (no view into the batch)
    batch = lp.solve_lp_batch([_HALF] * lp._STACK_MIN_WIDTH)
    assert all(sol.handle.tableau.base is None and sol.handle.basis.base is None
               for sol in batch)


# ---------------------------------------------------------------------------
# Whole trees: they agree with trees whose every node LP is solved cold
# ---------------------------------------------------------------------------

def _agree(warm, cold) -> bool:
    """Two ``solve_milp`` outcomes agree: the same exception class, or the
    same ``converged`` and, where converged, objectives within
    ``_REL_TOL`` relative."""
    if isinstance(warm, Exception) or isinstance(cold, Exception):
        return type(warm) is type(cold)
    if warm.converged != cold.converged:
        return False
    if not cold.converged:
        return True
    if warm.x is None or cold.x is None:
        return warm.x is None and cold.x is None
    return abs(warm.objective - cold.objective) <= _REL_TOL * max(1.0, abs(cold.objective))


def _milp_outcome(model, max_nodes, cold: bool = False):
    with pytest.MonkeyPatch.context() as mp:
        if cold:
            mp.setattr(lp, "screen_node", lambda parent, form, threshold, max_iter: None)
        try:
            return solve_milp(model, max_nodes=max_nodes)
        except ReproError as err:
            return err


def test_corpus_trees_agree_with_cold_node_lps(corpus_models):
    warm = [_milp_outcome(model, max_nodes) for model, max_nodes in corpus_models]
    cold = [_milp_outcome(model, max_nodes, cold=True) for model, max_nodes in corpus_models]
    assert all(_agree(w, c) for w, c in zip(warm, cold))
    assert sum(c.converged for c in cold) > 100


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_models(), st.sampled_from([2, 5, 200]))
def test_milp_trees_agree_with_cold_node_lps(model, max_nodes):
    assert _agree(_milp_outcome(model, max_nodes), _milp_outcome(model, max_nodes, cold=True))


def test_node_lp_counter_splits_root_screened_and_cold():
    from .test_lp_oracle import _rra

    registry = MetricsRegistry()
    with use_metrics(registry):
        res = solve_milp(_rra(0).to_milp(), max_nodes=200)
    counts = registry.counters_matching("minlp.node_lps")
    assert counts["minlp.node_lps{outcome=root}"] == 1
    screened, warm, cold = (counts.get(f"minlp.node_lps{{outcome={outcome}}}", 0)
                            for outcome in ("screened", "warm", "cold"))
    # the root node's re-bound reuses the root LP: one node LP per other node
    assert screened > 0 and warm > 0
    assert screened + warm + cold == res.nodes_explored - 1
