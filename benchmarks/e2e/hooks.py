"""Outside-in tracing for the serving benchmark.

The traced run measures each layer of ``repro.serve`` without changing
``src/``: :func:`install` replaces every target in :data:`HOOKS` with a
timing wrapper, both on its owner (module or class) and wherever another
``repro`` module imported the same function object, and
:meth:`Installation.uninstall` puts the originals back.  A target that no
longer resolves is listed in :attr:`Installation.missing` and skipped,
so the serving code can be refactored without breaking the benchmark.

Each call of a wrapped function records ``(name, start, end, tick,
value)`` in a :class:`Recorder`; ``value`` is a per-call count (B&B
nodes, rendered bytes, ...).  Calls are stored flat in an
``array('d')``, which allocates nothing the garbage collector tracks, so
a traced run does not make the collector work harder than an untraced
one.  Calls in one thread nest properly, so the parent of each span is
rebuilt from the intervals afterwards (:func:`nest`) instead of being
tracked on every call.  A layer's self time is its spans' durations
minus the part of each span its child spans cover (:func:`self_times`).

Process-pool workers forked after :func:`install` inherit the wrappers.
The worker-side ``solve_shard_task`` wrapper ships the worker's spans
back inside the task result under :data:`SPANS_KEY`, and the ``absorb``
wrapper strips them before the service sees the outcome.  Worker spans
are busy time on the workers; only the coordinator's spans add up to the
wall time of ``QoSService.run``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import pickle
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: result key carrying a worker's spans back to the coordinator
SPANS_KEY = "_e2e_spans"

#: layers in serving order; a span named ``<layer>.<call>`` belongs to one
LAYERS = ("serve.service", "serve.arrivals", "serve.queueing", "serve.overload",
          "serve.shard", "parallel", "qos.rra", "minlp", "convex", "obs")

#: a recorded call, and the same call placed in its tree by :func:`nest`
Span = Tuple[str, float, float, int, float]
Nested = Tuple[int, int, str, float, float, int, float]
NESTED_FIELDS = ("id", "parent", "name", "start", "end", "tick", "value")


class Recorder:
    """In-memory call store for one process.

    ``calls`` holds five floats per call: name id (into ``names``),
    start, end, tick and value.  ``tick`` is set by the benchmark's
    ``on_tick`` callback on the coordinator and from the task's frame
    index on a worker, so every span carries the service tick it belongs
    to.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.pid = os.getpid()
        self.names: List[str] = []
        #: never rebound, so wrappers can hold its ``extend``
        self.calls = array("d")
        self.reset()

    def reset(self) -> None:
        del self.calls[:]
        #: calls shipped back by workers, one ``(pid, calls)`` per task
        self.remote: List[Tuple[int, array]] = []
        self.counters: Dict[str, int] = collections.Counter()
        self.tick = 0

    def name_id(self, name: str) -> float:
        if name not in self.names:
            self.names.append(name)
        return float(self.names.index(name))

    def spans(self, calls: array) -> List[Span]:
        names = self.names
        return [(names[int(calls[i])], calls[i + 1], calls[i + 2], int(calls[i + 3]),
                 calls[i + 4]) for i in range(0, len(calls), 5)]


# ---- wrappers ----------------------------------------------------------------

def _span(rec: Recorder, hook: "Hook", fn: Callable) -> Callable:
    """Record each call of ``fn`` as one span."""
    code, value, clock, record = rec.name_id(hook.span), hook.value, rec.clock, rec.calls.extend

    if value is None:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record((code, start, clock(), rec.tick, 0.0))
        return traced

    @functools.wraps(fn)
    def traced_value(*args, **kwargs):
        out = None
        start = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = clock()
            record((code, start, end, rec.tick, value(args, out)))
        return out
    return traced_value


def _solve_task(rec: Recorder, hook: "Hook", fn: Callable) -> Callable:
    """``solve_shard_task``: on a worker, ship the task's calls back with
    its result (in the coordinator process it is an ordinary span)."""
    inner = _span(rec, hook, fn)

    @functools.wraps(fn)
    def traced(task):
        if os.getpid() == rec.pid:
            return inner(task)
        del rec.calls[:]
        rec.tick = task["frame"]
        out = inner(task)
        out[SPANS_KEY] = (os.getpid(), rec.calls[:])
        del rec.calls[:]
        return out

    return traced


def _absorb(rec: Recorder, hook: "Hook", fn: Callable) -> Callable:
    """``SchedulerShard.absorb``: strip shipped worker calls and count the
    resilience outcomes of each frame before the shard merges it."""
    inner = _span(rec, hook, fn)

    @functools.wraps(fn)
    def traced(shard, outcome, *args, **kwargs):
        shipped = outcome.pop(SPANS_KEY, None)
        if shipped is not None:
            rec.remote.append(shipped)
        counters = rec.counters
        counters["resilience.chaos_injections"] += outcome["chaos_injections"]
        counters["resilience.frames_dropped"] += bool(outcome["dropped"])
        counters["resilience.ladder_descents"] += bool(
            outcome["primary_failed"] and not outcome["dropped"])
        return inner(shard, outcome, *args, **kwargs)

    return traced


def _first_task_bytes(args, _out) -> int:
    """Pickled size of the first task of one ``map_solve`` call (a sample:
    pickling every task would dominate the traced run)."""
    items = args[1] if len(args) > 1 else ()
    return len(pickle.dumps(items[0])) if items else 0


@dataclass(frozen=True)
class Hook:
    """One wrapped function: span name, ``module:qualname`` target, an
    optional per-call value ``(args, result) -> number`` and the wrapper
    factory."""

    span: str
    target: str
    value: Optional[Callable] = None
    wrap: Callable = _span


#: one row per layer boundary; span names are ``<layer>.<call>``
HOOKS: Tuple[Hook, ...] = (
    Hook("serve.service.run", "repro.serve.service:QoSService.run"),
    Hook("serve.service.health", "repro.serve.service:QoSService.health"),
    Hook("serve.arrivals.generate", "repro.serve.arrivals:ArrivalProcess.__init__",
         value=lambda args, _out: len(args[0].events)),
    Hook("serve.arrivals.window", "repro.serve.arrivals:ArrivalProcess.window"),
    Hook("serve.queueing.offer", "repro.serve.queueing:AdmissionQueue.offer"),
    Hook("serve.queueing.expire", "repro.serve.queueing:AdmissionQueue.expire"),
    Hook("serve.overload.observe", "repro.serve.overload:OverloadMachine.observe"),
    Hook("serve.shard.build_task", "repro.serve.shard:SchedulerShard.build_task"),
    Hook("serve.shard.absorb", "repro.serve.shard:SchedulerShard.absorb", wrap=_absorb),
    Hook("serve.shard.solve_task", "repro.serve.shard:solve_shard_task", wrap=_solve_task),
    Hook("parallel.map_solve", "repro.parallel.executor:map_solve",
         value=_first_task_bytes),
    Hook("qos.rra.exact", "repro.qos.rra:solve_rra_exact"),
    Hook("qos.rra.lp_round", "repro.qos.rra:solve_rra_relaxed"),
    Hook("qos.rra.greedy", "repro.qos.rra:solve_rra_greedy"),
    Hook("qos.rra.to_milp", "repro.qos.rra:RRAProblem.to_milp"),
    Hook("minlp.solve_milp", "repro.minlp.milp:solve_milp",
         value=lambda _args, out: getattr(out, "nodes_explored", 0)),
    Hook("minlp.round_and_repair", "repro.minlp.heuristics:round_and_repair",
         value=lambda _args, out: int(out is None)),
    Hook("convex.solve_lp", "repro.convex.lp:solve_lp"),
    Hook("obs.slo_evaluate", "repro.obs.slo:SLOSet.evaluate"),
    Hook("obs.snapshot", "repro.obs.metrics:MetricsRegistry.snapshot"),
    Hook("obs.render_ops_table", "repro.obs.export:render_ops_table",
         value=lambda _args, out: len(out or "")),
    Hook("obs.render_prometheus", "repro.obs.export:render_prometheus",
         value=lambda _args, out: len(out or "")),
)


# ---- install / uninstall -----------------------------------------------------

def resolve(target: str):
    """``(owner, attribute, function)`` for a ``module:qualname`` target,
    or ``None`` when the module or attribute no longer exists."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


class Installation:
    """The patches one :func:`install` made, undone by :meth:`uninstall`."""

    def __init__(self):
        self.patched: List[Tuple[object, str, Callable]] = []
        self.missing: List[str] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def _import_sites(fn: Callable) -> List[Tuple[object, str]]:
    """Every ``repro`` module attribute bound to ``fn`` (the places a
    ``from ... import fn`` made a caller look the function up)."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                sites.append((module, attr))
    return sites


def install(rec: Recorder, hooks: Sequence[Hook] = HOOKS) -> Installation:
    """Wrap every resolvable hook target so its calls record into ``rec``."""
    inst = Installation()
    for hook in hooks:
        found = resolve(hook.target)
        if found is None:
            inst.missing.append(hook.target)
            continue
        owner, attr, fn = found
        wrapped = hook.wrap(rec, hook, fn)
        sites = _import_sites(fn) if isinstance(owner, type(sys)) else [(owner, attr)]
        for site, name in sites:
            inst.patched.append((site, name, fn))
            setattr(site, name, wrapped)
    return inst


# ---- reduction ---------------------------------------------------------------

def nest(spans: Sequence[Span]) -> List[Nested]:
    """Number the spans of one thread in start order and give each the id
    of the innermost span enclosing it (0 for a root)."""
    out: List[Nested] = []
    open_spans: List[Tuple[int, float]] = []  # (id, end), innermost last
    for sid, span in enumerate(sorted(spans, key=lambda s: (s[1], -s[2])), 1):
        start, end = span[1], span[2]
        while open_spans and open_spans[-1][1] <= start:
            open_spans.pop()
        out.append((sid, open_spans[-1][0] if open_spans else 0) + tuple(span))
        open_spans.append((sid, end))
    return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    pieces = []
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            pieces.append(end - start)
            reach = end
    return sum(pieces)


def self_times(tree: Sequence[Nested]) -> Dict[str, float]:
    """Seconds per span name, each span counting its duration minus the
    part of it that its direct children cover."""
    children = collections.defaultdict(list)
    for _sid, parent, _name, start, end, *_ in tree:
        if parent:
            children[parent].append((start, end))
    out: Dict[str, float] = collections.defaultdict(float)
    for sid, _parent, name, start, end, *_ in tree:
        out[name] += (end - start) - _covered(children.get(sid, ()), start, end)
    return dict(out)


def split_lp_calls(tree: Sequence[Nested]) -> List[Nested]:
    """Rename ``convex.solve_lp`` spans to ``.bnb`` (inside the exact
    rung's ``solve_milp``) or ``.round`` (the lp-round rung)."""
    parents = {s[0]: (s[1], s[2]) for s in tree}

    def under_milp(sid: int) -> bool:
        while sid in parents:
            sid, name = parents[sid]
            if name == "minlp.solve_milp":
                return True
        return False

    out = []
    for span in tree:
        if span[2] == "convex.solve_lp":
            kind = "bnb" if under_milp(span[1]) else "round"
            span = span[:2] + (f"convex.solve_lp.{kind}",) + span[3:]
        out.append(span)
    return out


def trees(rec: Recorder) -> List[Tuple[int, List[Nested]]]:
    """``(pid, tree)`` for the coordinator, then one per shipped worker
    batch (each batch is one task's closed tree)."""
    return [(pid, split_lp_calls(nest(rec.spans(calls))))
            for pid, calls in [(rec.pid, rec.calls), *rec.remote]]


def _ratio(num: float, den: float) -> float:
    if den == 0:
        return 0.0
    return num / den


def layer_of(span_name: str) -> str:
    return next(layer for layer in LAYERS if span_name.startswith(layer + "."))


def layer_shares(self_s: Dict[str, float], total_s: float) -> Dict[str, float]:
    """Share of ``total_s`` per layer."""
    by_layer: Dict[str, float] = collections.defaultdict(float)
    for name, seconds in self_s.items():
        by_layer[layer_of(name)] += seconds
    return {layer: _ratio(by_layer[layer], total_s) for layer in LAYERS if layer in by_layer}


def layer_metrics(forest: List[Tuple[int, List[Nested]]], counters: Dict[str, int],
                  wall_s: float, workers: int) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics of one traced run, plus share breakdowns.

    ``forest`` is :func:`trees` output, coordinator first.  ``*_s``
    metrics are self times, except ``serve.shard.solve_task_s`` and
    ``parallel.map_solve_s``, which are whole span durations (busy time of
    the tasks, wait of the coordinator on its fan-outs).
    """
    local_self = self_times(forest[0][1])
    worker_self: Dict[str, float] = collections.Counter()
    for _pid, tree in forest[1:]:
        worker_self.update(self_times(tree))
    self_s = collections.Counter(local_self)
    self_s.update(worker_self)
    calls: Dict[str, int] = collections.Counter()
    values: Dict[str, float] = collections.Counter()
    durations: Dict[str, float] = collections.defaultdict(float)
    for _pid, tree in forest:
        for _sid, _parent, name, start, end, _tick, value in tree:
            calls[name] += 1
            values[name] += value
            durations[name] += end - start
    map_s = durations["parallel.map_solve"]
    task_s = durations["serve.shard.solve_task"]
    metrics = {
        "serve.arrivals.generate_s": self_s["serve.arrivals.generate"],
        "serve.arrivals.events": values["serve.arrivals.generate"],
        "serve.queueing.offer_s": self_s["serve.queueing.offer"],
        "serve.queueing.offers": calls["serve.queueing.offer"],
        "serve.queueing.expire_s": self_s["serve.queueing.expire"],
        "serve.overload.observe_s": self_s["serve.overload.observe"],
        "serve.shard.build_task_s": self_s["serve.shard.build_task"],
        "serve.shard.absorb_s": self_s["serve.shard.absorb"],
        "serve.shard.frames": calls["serve.shard.absorb"],
        "serve.shard.solve_task_s": task_s,
        "parallel.map_solve_s": map_s,
        "parallel.map_solve_share": _ratio(map_s, wall_s),
        "parallel.task_bytes": _ratio(values["parallel.map_solve"],
                                      calls["parallel.map_solve"]),
        "parallel.efficiency": _ratio(task_s, map_s * workers),
        "qos.rra.exact_s": self_s["qos.rra.exact"],
        "qos.rra.exact_calls": calls["qos.rra.exact"],
        "qos.rra.lp_round_s": self_s["qos.rra.lp_round"],
        "qos.rra.lp_round_calls": calls["qos.rra.lp_round"],
        "qos.rra.greedy_s": self_s["qos.rra.greedy"],
        "qos.rra.greedy_calls": calls["qos.rra.greedy"],
        "qos.rra.to_milp_s": self_s["qos.rra.to_milp"],
        "minlp.solve_milp_s": self_s["minlp.solve_milp"],
        "minlp.bnb_nodes": values["minlp.solve_milp"],
        "minlp.lp_per_milp": _ratio(calls["convex.solve_lp.bnb"],
                                    calls["minlp.solve_milp"]),
        "minlp.round_and_repair_s": self_s["minlp.round_and_repair"],
        "minlp.repair_fail_rate": _ratio(values["minlp.round_and_repair"],
                                         calls["minlp.round_and_repair"]),
        "convex.solve_lp.bnb_s": self_s["convex.solve_lp.bnb"],
        "convex.solve_lp.bnb_calls": calls["convex.solve_lp.bnb"],
        "convex.solve_lp.round_s": self_s["convex.solve_lp.round"],
        "convex.solve_lp.round_calls": calls["convex.solve_lp.round"],
        "resilience.chaos_injections": counters["resilience.chaos_injections"],
        "resilience.ladder_descents": counters["resilience.ladder_descents"],
        "resilience.frames_dropped": counters["resilience.frames_dropped"],
        "obs.slo_evaluate_s": self_s["obs.slo_evaluate"],
        "obs.render_s": (self_s["obs.render_ops_table"] + self_s["obs.render_prometheus"]
                         + self_s["obs.snapshot"]),
        "obs.export_bytes": values["obs.render_ops_table"] + values["obs.render_prometheus"],
        "serve.service.other_s": local_self.get("serve.service.run", 0.0),
        "trace.coverage": _ratio(sum(local_self.values()), wall_s),
    }
    shares = {
        "coordinator": layer_shares(local_self, wall_s),
        "workers": layer_shares(worker_self, sum(worker_self.values())),
    }
    return metrics, shares


def write_jsonl(forest: List[Tuple[int, List[Nested]]], path, header: dict) -> int:
    """Dump :func:`trees` output as JSONL: a header object, then one array
    per span in ``pid`` + :data:`NESTED_FIELDS` order.  Returns the number
    of spans written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({**header, "fields": ("pid",) + NESTED_FIELDS}) + "\n")
        for pid, tree in forest:
            for span in tree:
                fh.write(json.dumps((pid,) + span) + "\n")
                n += 1
    return n
