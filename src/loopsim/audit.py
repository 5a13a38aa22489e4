"""The one reader of the event stream, independent of the engine.

``Metrics.feed`` is the only code that turns events into pod placements.
``Metrics.from_trace`` seeds it with a trace header's initial placements and
feeds it every event in order; ``summarize`` renders that fold.
``check_invariants`` seeds it with a scenario's initial pods and feeds it
only the events of ``PLACEMENT_KINDS``, the kinds that move placements, so
its fold builds no counters or predictions. Of each event this module reads
only the keys that ``trace.EVENTS`` marks as read, which ``parse_trace``
checks, so a trace that parses is read here without a ``KeyError``; its
phase ranks are the table's too.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .trace import EVENTS, Trace


@dataclass
class Metrics:
    """What one run did, folded from its events by ``feed``.

    Besides the counters, it holds the end state ``summarize`` renders:
    ``placements`` (bound pod -> node), ``pending`` pods, the
    ``conflict-resolved`` events in order as ``resolutions``, and the
    ``suspended`` loops; and the pods ever ``evicted`` or ``terminated``."""

    ticks: int = 0
    bindings: int = 0
    reschedules: int = 0
    evictions: Counter = field(default_factory=Counter)       # cause -> n
    intents_submitted: int = 0
    intents_applied: int = 0
    intents_dropped: Counter = field(default_factory=Counter)  # reason -> n
    conflicts: Counter = field(default_factory=Counter)        # kind -> n
    grants: int = 0
    denials: Counter = field(default_factory=Counter)          # reason -> n
    predictions: dict[str, list[tuple[int, float, float]]] = field(default_factory=dict)
    placements: dict[str, str] = field(default_factory=dict)
    pending: set[str] = field(default_factory=set)
    resolutions: list[dict] = field(default_factory=list)
    suspended: set[str] = field(default_factory=set)
    evicted: set[str] = field(default_factory=set)
    terminated: set[str] = field(default_factory=set)

    def mae(self, acl: str) -> float:
        points = self.predictions.get(acl, [])
        if not points:
            return 0.0
        return sum(abs(p - t) for _, p, t in points) / len(points)

    @classmethod
    def from_trace(cls, trace: Trace) -> Metrics:
        """Fold the header's initial placements and every event, in order."""
        m = cls(placements={e["pod"]: e["node"] for e in trace.header.get("initial", [])})
        for event in trace.events:
            m.feed(event)
        return m

    def feed(self, event: dict) -> None:
        """Fold one event in: the one place events become pod placements. Only
        the kinds in ``PLACEMENT_KINDS`` move ``placements``, ``pending``,
        ``evicted`` or ``terminated``."""
        kind = event["kind"]
        if kind == "tick-end":
            self.ticks += 1
        elif kind == "prediction":
            # an int in a float key stands for its float: mae's sum never leaves floats
            self.predictions.setdefault(event["acl"], []).append(
                (event["tick"], float(event["value"]), float(event["truth"]))
            )
        elif kind == "intent-submitted":
            self.intents_submitted += 1
        elif kind == "intent-applied":
            self.intents_applied += 1
        elif kind == "intent-dropped":
            self.intents_dropped[event["reason"]] += 1
        elif kind == "pod-created" or kind == "pod-pending":
            self.pending.add(event["pod"])
        elif kind == "pod-bound":
            pod_id = event["pod"]
            self.bindings += 1
            self.reschedules += pod_id in self.evicted
            self.placements[pod_id] = event["node"]
            self.pending.discard(pod_id)
        elif kind == "pod-evicted":
            self.evictions[event["cause"]] += 1
            self.evicted.add(event["pod"])
            self.placements.pop(event["pod"], None)
            self.pending.discard(event["pod"])
        elif kind == "pod-terminated":
            self.terminated.add(event["pod"])
            self.placements.pop(event["pod"], None)
            self.pending.discard(event["pod"])
        elif kind == "conflict-detected":
            self.conflicts[event["conflict"]] += 1
        elif kind == "conflict-resolved":
            self.resolutions.append(event)
        elif kind == "exchange-granted":
            self.grants += 1
        elif kind == "exchange-denied":
            self.denials[event["reason"]] += 1
        elif kind == "lifecycle":
            if event["after"] == "Suspended":
                self.suspended.add(event["acl"])
            else:
                self.suspended.discard(event["acl"])
        elif kind == "agent-released":
            self.suspended.discard(event["acl"])


# the kinds of event that move a pod's placement in ``Metrics.feed``
PLACEMENT_KINDS = frozenset(
    {"pod-created", "pod-pending", "pod-bound", "pod-evicted", "pod-terminated"})
_RANKS = {name: kind.rank for name, kind in EVENTS.items()}  # tick-phase rank by kind


def check_invariants(norm: dict, events: Iterable[dict]) -> list[str]:
    """Re-derive safety properties from scenario config and the event stream,
    placing pods by a ``Metrics`` fold of the initial pods and of each event
    of a kind in ``PLACEMENT_KINDS`` that passes its checks; no other event
    is fed, so the fold builds placements and nothing else."""
    violations: list[str] = []
    capacity = {n["id"]: (n["cpu"], n["memory"]) for n in norm["nodes"]}
    level_values = {l["name"]: l["value"] for l in norm["priority_levels"]}
    requests: dict[str, tuple[int, int]] = {}
    priority: dict[str, int] = {}
    fold = Metrics(placements={pod["id"]: pod["node"] for pod in norm["initial_pods"]})
    feed = fold.feed
    # node id -> [cpu, memory] summed over the pods placed on it
    usage: dict[str, list[int]] = {}

    def place(pod_id: str, node_id: str | None, sign: int) -> None:
        if node_id is not None:
            tally = usage.setdefault(node_id, [0, 0])
            tally[0] += sign * requests[pod_id][0]
            tally[1] += sign * requests[pod_id][1]

    for pod in norm["initial_pods"]:
        requests[pod["id"]] = (pod["cpu"], pod["memory"])
        priority[pod["id"]] = level_values[pod["priority"]]
        place(pod["id"], pod["node"], +1)

    placements = fold.placements
    last_tick = -1
    last_rank = 0
    evicted_this_tick: dict[str, int] = {}
    for event in events:
        tick, kind, seq = event["tick"], event["kind"], event["seq"]
        rank = _RANKS.get(kind)
        if rank is None:
            violations.append(f"seq {seq}: unknown event kind {kind!r}")
            continue
        if tick != last_tick:
            if tick < last_tick:
                violations.append(f"seq {seq}: tick went backwards")
            for pod_id, at in evicted_this_tick.items():
                violations.append(
                    f"tick {at}: evicted pod {pod_id!r} got no follow-up decision"
                )
            evicted_this_tick = {}
            last_tick, last_rank = tick, 0
        if rank < last_rank:
            violations.append(
                f"seq {seq}: {kind} out of phase order (rank {rank} after {last_rank})"
            )
        else:
            last_rank = rank

        if kind in PLACEMENT_KINDS:
            pod_id = event["pod"]
            if kind == "pod-created":
                place(pod_id, placements.get(pod_id), -1)  # a re-created pod may be bound
                requests[pod_id] = (event["cpu"], event["memory"])
                place(pod_id, placements.get(pod_id), +1)
                priority[pod_id] = event["priority"]
            elif kind == "pod-bound":
                if pod_id not in requests:
                    violations.append(f"seq {seq}: bound unknown pod {pod_id!r}")
                    continue
                if event["node"] not in capacity:
                    violations.append(
                        f"seq {seq}: bound {pod_id!r} to unknown node {event['node']!r}")
                    continue
                for victim in event.get("preempted", []):
                    if priority.get(victim, 0) >= priority.get(pod_id, 0):
                        violations.append(
                            f"seq {seq}: preemption victim {victim!r} does not have "
                            f"lower priority than {pod_id!r}"
                        )
                place(pod_id, placements.get(pod_id), -1)
                place(pod_id, event["node"], +1)
                evicted_this_tick.pop(pod_id, None)
                cpu, mem = usage[event["node"]]
                cap = capacity[event["node"]]
                if cpu > cap[0] or mem > cap[1]:
                    violations.append(
                        f"seq {seq}: node {event['node']!r} over capacity after binding "
                        f"{pod_id!r} ({cpu}/{cap[0]} cpu, {mem}/{cap[1]} memory)"
                    )
            elif kind == "pod-evicted":
                node_id = placements.get(pod_id)
                if node_id is None:
                    violations.append(f"seq {seq}: evicted pod {pod_id!r} was not bound")
                place(pod_id, node_id, -1)
                evicted_this_tick[pod_id] = tick
            elif kind == "pod-pending":
                evicted_this_tick.pop(pod_id, None)
            else:  # pod-terminated
                place(pod_id, placements.get(pod_id), -1)
                evicted_this_tick.pop(pod_id, None)
            feed(event)
        elif kind == "tick-end":
            expect_bound = len(placements)
            expect_terminated = len(fold.terminated)
            expect_pending = len(requests) - expect_bound - expect_terminated
            if event["bound"] != expect_bound or event["terminated"] != expect_terminated \
                    or event["pending"] != expect_pending or event["pods"] != len(requests):
                violations.append(
                    f"seq {seq}: conservation mismatch at tick {tick} "
                    f"(trace says bound={event['bound']} pending={event['pending']} "
                    f"terminated={event['terminated']}, replayed "
                    f"bound={expect_bound} pending={expect_pending} "
                    f"terminated={expect_terminated})"
                )
    for pod_id, at in evicted_this_tick.items():
        violations.append(f"tick {at}: evicted pod {pod_id!r} got no follow-up decision")
    return violations


def summarize(trace: Trace) -> str:
    """Human-readable digest of a finished run, rendered from ``Metrics.from_trace``."""
    header = trace.header
    m = Metrics.from_trace(trace)
    lines = [
        f"scenario {header.get('scenario')} (seed {header.get('seed')}, "
        f"{header.get('ticks')} ticks)"
    ]
    by_node: dict[str, list[str]] = {}
    for pod_id, node_id in sorted(m.placements.items()):
        by_node.setdefault(node_id, []).append(pod_id)
    lines.append("placements:")
    if by_node:
        for node_id in sorted(by_node):
            lines.append(f"  {node_id}: {', '.join(by_node[node_id])}")
    else:
        lines.append("  (nothing bound)")
    if m.pending:
        lines.append(f"still pending: {', '.join(sorted(m.pending))}")
    lines.append(
        "conflicts: "
        + (", ".join(f"{k}={v}" for k, v in sorted(m.conflicts.items())) or "none")
    )
    for event in m.resolutions:
        where = f"t{event['tick']} {event['conflict']} on {event['instance']}"
        if event["outcome"] == "arbitrated":
            lines.append(f"  {where}: won by {event['winner']}")
        else:
            lines.append(f"  {where}: froze {event['frozen']} until t{event['until']}")
    drop_text = ", ".join(f"{k}={v}" for k, v in sorted(m.intents_dropped.items())) or "0"
    lines.append(f"intents: submitted={m.intents_submitted} "
                 f"applied={m.intents_applied} dropped={drop_text}")
    lines.append(f"knowledge exchanges: granted={m.grants} denied={m.denials.total()}")
    if m.suspended:
        lines.append(f"suspended agents: {', '.join(sorted(m.suspended))}")
    if m.predictions:
        lines.append("prediction mae: "
                     + " ".join(f"{acl}={m.mae(acl):.3f}" for acl in sorted(m.predictions)))
    return "\n".join(lines)
