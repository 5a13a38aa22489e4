"""Outside-in tracer for loopsim's layers.

``Tracer`` replaces each public function listed in ``TRACED`` with a wrapper
at every name it is bound under: module attributes in every ``loopsim``
module (so ``from .agents import scope_regions`` style imports and calls
through ``cluster.free_capacity`` are both caught) and class attributes for
methods. Leaving the ``with`` block puts every original back.

Each call becomes a span ``(name, start_ns, end_ns, parent, tick)`` kept in
memory; ``parent`` is the index of the enclosing span (-1 at top level) and
``tick`` is the tick of the ``World.step`` the call ran under (None outside
a step), the id that spans of one tick share. Spans go to a side file, never
into the simulation trace. A few observers count outcomes at the same
boundaries, so ratios are measured where the work happens. Span times leave
out the time observers take, so an observer's own work (a scan of the
bindings, say) is never charged to the enclosing span; it still counts in
the wall time of a traced run, and so in ``tracer.overhead``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute); "Class.method" patches the class
TRACED = {
    "cluster.used_capacity": ("loopsim.cluster", "used_capacity"),
    "cluster.pods_on": ("loopsim.cluster", "pods_on"),
    "cluster.free_capacity": ("loopsim.cluster", "free_capacity"),
    "cluster.bind": ("loopsim.cluster", "bind"),
    "cluster.evict": ("loopsim.cluster", "evict"),
    "cluster.terminate": ("loopsim.cluster", "terminate"),
    "cluster.add_pod": ("loopsim.cluster", "add_pod"),
    "agents.monitor": ("loopsim.agents", "monitor"),
    "agents.analyze": ("loopsim.agents", "analyze"),
    "agents.plan": ("loopsim.agents", "plan"),
    "agents.outstanding_targets": ("loopsim.agents", "outstanding_targets"),
    "conflicts.process_tick": ("loopsim.conflicts", "ConflictManager.process_tick"),
    "conflicts.coherency_check": ("loopsim.conflicts", "ConflictManager.coherency_check"),
    "conflicts.detect_interference": (
        "loopsim.conflicts", "ConflictManager.detect_interference"),
    "conflicts.detect_resource_conflicts": (
        "loopsim.conflicts", "ConflictManager.detect_resource_conflicts"),
    "scheduler.coordinate": ("loopsim.scheduler", "coordinate"),
    "scheduler.schedule": ("loopsim.scheduler", "schedule"),
    "scheduler.score_nodes": ("loopsim.scheduler", "score_nodes"),
    "scheduler.select_preemption_victims": (
        "loopsim.scheduler", "select_preemption_victims"),
    "traffic.sample": ("loopsim.traffic", "TrafficModel.sample"),
    "trace.dumps": ("loopsim.trace", "Trace.dumps"),
    "trace.parse_trace": ("loopsim.trace", "parse_trace"),
    "sim.step": ("loopsim.sim", "World.step"),
    "sim.check_invariants": ("loopsim.sim", "check_invariants"),
    "sim.verify_trace": ("loopsim.sim", "verify_trace"),
    "sim.summarize": ("loopsim.sim", "summarize"),
    "scenario.loads": ("loopsim.scenario", "loads"),
    "scenario.normalize": ("loopsim.scenario", "normalize"),
}

SPAN_STATS = (("calls", "count"), ("ms", "ms"), ("self_ms", "ms"))

# ratios and counts the observers below produce, with their units
OBSERVED = {
    "agents.plan.empty_ratio": "ratio",
    "conflicts.survivor_ratio": "ratio",
    "scheduler.select_preemption_victims.found_ratio": "ratio",
    "scheduler.select_preemption_victims.max_candidates": "count",
    "scheduler.bound_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every metric name ``Tracer.metrics`` reports, with its unit."""
    units = {f"{name}.{stat}": unit for name in TRACED for stat, unit in SPAN_STATS}
    units.update(OBSERVED)
    return units


def _observe_plan(counts, args, result):
    if result is not None:
        counts["plan.empty"] += not result


def _observe_process_tick(counts, args, result):
    if result is not None:
        counts["process_tick.in"] += len(args[2])
        counts["process_tick.survivors"] += len(result.survivors)


def _observe_victims(counts, args, result):
    state, pod, node_id = args
    candidates = sum(
        1 for p, n in state.bindings.items()
        if n == node_id and state.pods[p].priority.value < pod.priority.value
    )
    counts["victims.max_candidates"] = max(counts["victims.max_candidates"], candidates)
    counts["victims.found"] += result is not None


def _observe_schedule(counts, args, result):
    if result is not None:
        counts["schedule.placed"] += result.kind.value in ("bound", "preempt")


# observers see the call's arguments and its result, None when it raised
OBSERVERS = {
    "agents.plan": _observe_plan,
    "conflicts.process_tick": _observe_process_tick,
    "scheduler.select_preemption_victims": _observe_victims,
    "scheduler.schedule": _observe_schedule,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.tick: int | None = None
        self._stack: list[int] = []
        # observer time so far; span clocks run behind the host clock by it
        self._hidden_ns = [0]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts, hidden = self.spans, self._stack, self.counts, self._hidden_ns
        observe = OBSERVERS.get(name)
        is_step = name == "sim.step"
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_step:
                self.tick = args[0].tick
            tick = self.tick
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock() - hidden[0]
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock() - hidden[0]
                stack.pop()
                spans[index] = (name, start, end, parent, tick)
                if is_step:
                    self.tick = None
                if observe is not None:
                    t0 = clock()
                    observe(counts, args, result)
                    hidden[0] += clock() - t0

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "loopsim" or n.startswith("loopsim."))]
        for name, (module_name, attr) in TRACED.items():
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Calls, inclusive ms and self ms per span name, plus observed ratios.

        Self time is a span's duration minus the durations of its direct
        children. A ratio whose denominator is zero reads 0.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[i]
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.ms"] = (total_ns[name] / 1e6, "ms")
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out["agents.plan.empty_ratio"] = (ratio(c["plan.empty"], calls["agents.plan"]), "ratio")
        out["conflicts.survivor_ratio"] = (
            ratio(c["process_tick.survivors"], c["process_tick.in"]), "ratio")
        victims = "scheduler.select_preemption_victims"
        out[f"{victims}.found_ratio"] = (ratio(c["victims.found"], calls[victims]), "ratio")
        out[f"{victims}.max_candidates"] = (c["victims.max_candidates"], "count")
        out["scheduler.bound_ratio"] = (
            ratio(c["schedule.placed"], calls["scheduler.schedule"]), "ratio")
        return out

    def write_spans(self, path) -> None:
        """Gzipped JSON lines, the i-th line being span i (0-based):
        ``[parent, name, tick, start_ns, end_ns]``, on the span clock
        (``time.perf_counter_ns`` less the observer time before the
        instant)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, tick in self.spans:
                fh.write(json.dumps([parent, name, tick, start, end]) + "\n")
