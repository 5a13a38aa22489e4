"""Scheduling engine: per-loop queues, scoring, preemption, taint enforcement.

Each control loop owns a ``SchedulerUnit`` (a FIFO of pending pod ids at one
priority level).  ``coordinate`` runs one cluster-wide round: first NoExecute
taints are enforced, then units drain in priority order, preempting
lower-priority pods when capacity demands it.  An evicted pod is Pending and
back in its owner's unit at once, so every Pending pod stays queued.  Within
a round, a pod whose shape (request, tolerations, priority) already came out
Pending since the last bind or eviction gets that answer again without a
second ``schedule`` call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from . import cluster
from .cluster import ClusterState, Pod, PriorityLevel
from .errors import NoVictimSet


class DecisionKind(str, Enum):
    BOUND = "bound"
    PREEMPT = "preempt"
    PENDING = "pending"


@dataclass(frozen=True)
class Decision:
    kind: DecisionKind
    pod_id: str
    node_id: str | None = None
    victims: tuple[str, ...] = ()
    reason: str | None = None


@dataclass
class SchedulerUnit:
    acl_id: str
    priority: PriorityLevel
    queue: list[str] = field(default_factory=list)


def filter_nodes(state: ClusterState, pod: Pod) -> set[str]:
    """Feasible nodes: every hard taint tolerated.  Capacity is deliberately
    not checked here — a full node can still be won through preemption."""
    return {
        node_id
        for node_id, node in state.nodes.items()
        if cluster.tolerates(pod, node)
    }


def score_tier(state: ClusterState, pod: Pod, node_id: str) -> int:
    """Rank band for a feasible node.

    0 — the node carries a taint this pod tolerates: it was marked for this
        pod's owner, so the owner's work gravitates there first;
    1 — untainted (from this pod's point of view);
    2 — only soft taints meant for someone else.
    """
    node = state.nodes[node_id]
    matched = any(
        tol.matches(taint) for taint in node.taints for tol in pod.tolerations
    )
    if matched:
        return 0
    unmatched_soft = any(
        taint.effect is cluster.TaintEffect.PREFER_NO_SCHEDULE for taint in node.taints
    )
    return 2 if unmatched_soft else 1


def score_nodes(state: ClusterState, pod: Pod, feasible: set[str]) -> list[str]:
    """Order feasible nodes: tier, then most free cpu, most free memory, id."""

    def key(node_id: str):
        free = cluster.free_capacity(state, node_id)
        return (
            score_tier(state, pod, node_id),
            -free.cpu_millicores,
            -free.memory_mib,
            node_id,
        )

    return sorted(feasible, key=key)


def select_preemption_victims(
    state: ClusterState, pod: Pod, node_id: str
) -> frozenset[str]:
    """Smallest set of strictly-lower-priority pods whose removal fits *pod*.

    Minimality order: fewest victims, then lowest summed priority value, then
    lexicographic pod ids.  Raises ``NoVictimSet`` when no subset suffices.
    """
    free = cluster.free_capacity(state, node_id)
    candidates = sorted(
        p
        for p in cluster.pods_on(state, node_id)
        if state.pods[p].priority.value < pod.priority.value
    )
    for size in range(1, len(candidates) + 1):
        best: tuple[int, tuple[str, ...]] | None = None
        for combo in itertools.combinations(candidates, size):
            reclaimed = free
            for victim in combo:
                reclaimed = reclaimed + state.pods[victim].request
            if not reclaimed.covers(pod.request):
                continue
            rank = (sum(state.pods[v].priority.value for v in combo), combo)
            if best is None or rank < best:
                best = rank
        if best is not None:
            return frozenset(best[1])
    raise NoVictimSet(f"no victim set on {node_id!r} admits pod {pod.id!r}")


def schedule(state: ClusterState, pod: Pod) -> Decision:
    """Decide placement for one pending pod against current state.

    Walks the scored node list twice: once looking for free room, then (if the
    pod's priority level allows it) once more looking for a preemptable set.
    """
    feasible = filter_nodes(state, pod)
    ranked = score_nodes(state, pod, feasible)
    for node_id in ranked:
        if cluster.fits(state, pod, node_id):
            return Decision(DecisionKind.BOUND, pod.id, node_id)
    if pod.priority.preemption_enabled:
        for node_id in ranked:
            try:
                victims = select_preemption_victims(state, pod, node_id)
            except NoVictimSet:
                continue
            return Decision(
                DecisionKind.PREEMPT, pod.id, node_id, victims=tuple(sorted(victims))
            )
    return Decision(DecisionKind.PENDING, pod.id, reason="unschedulable")


def enforce_no_execute(state: ClusterState) -> list[tuple[str, str]]:
    """Evict bound pods that no longer tolerate their node's hard taints.

    Returns the (node id, pod id) pairs evicted, in deterministic order.
    Evicted pods are Pending again; the caller re-queues them.
    """
    evicted: list[tuple[str, str]] = []
    for node_id in sorted(state.nodes):
        node = state.nodes[node_id]
        if not any(t.effect is cluster.TaintEffect.NO_EXECUTE for t in node.taints):
            continue
        for pod_id in cluster.pods_on(state, node_id):
            if not cluster.tolerates(state.pods[pod_id], node):
                cluster.evict(state, pod_id)
                evicted.append((node_id, pod_id))
    return evicted


@dataclass
class RoundResult:
    decisions: list[Decision]
    taint_evictions: list[tuple[str, str]]
    units: list[SchedulerUnit]


def coordinate(state: ClusterState, units: list[SchedulerUnit]) -> RoundResult:
    """Run one full scheduling round across every unit, changing *state*.

    Order of play: NoExecute enforcement first (its victims requeue into their
    owners' units), then repeatedly pick the non-empty unit with the highest
    priority (ties by loop id) and schedule its head pod.  Preemption victims
    are evicted mid-round and requeued the same way, so every displaced pod is
    either re-bound or carries an explicit Pending decision by round end.
    """
    by_acl: dict[str, SchedulerUnit] = {
        u.acl_id: SchedulerUnit(u.acl_id, u.priority, list(u.queue)) for u in units
    }

    def unit_for(pod: Pod) -> SchedulerUnit:
        if pod.owner not in by_acl:
            by_acl[pod.owner] = SchedulerUnit(pod.owner, pod.priority, [])
        return by_acl[pod.owner]

    taint_evictions = enforce_no_execute(state)
    for _, pod_id in taint_evictions:
        unit_for(state.pods[pod_id]).queue.append(pod_id)

    decisions: list[Decision] = []
    undecidable: dict[str, list[str]] = {}  # acl -> pods to retry next round
    # shape -> Pending reason.  ``schedule`` reads nothing of a pod beyond its
    # shape, and inside this loop only a bind or an eviction changes what it
    # reads of the nodes, so the memo is exact until the next BOUND or PREEMPT.
    unschedulable: dict[tuple, str] = {}

    def next_unit() -> SchedulerUnit | None:
        live = [u for u in by_acl.values() if u.queue]
        if not live:
            return None
        return min(live, key=lambda u: (-u.priority.value, u.acl_id))

    while (unit := next_unit()) is not None:
        pod_id = unit.queue.pop(0)
        pod = state.pods.get(pod_id)
        if pod is None or pod_id in state.bindings:
            continue  # stale queue entry (a terminated pod is gone from state)
        shape = (pod.request, pod.tolerations, pod.priority)
        if shape in unschedulable:
            decision = Decision(DecisionKind.PENDING, pod_id, reason=unschedulable[shape])
        else:
            decision = schedule(state, pod)
        decisions.append(decision)
        if decision.kind is DecisionKind.PENDING:
            unschedulable[shape] = decision.reason
            undecidable.setdefault(unit.acl_id, []).append(pod_id)
            continue
        unschedulable.clear()
        for victim in decision.victims:  # none unless PREEMPT
            cluster.evict(state, victim)
            unit_for(state.pods[victim]).queue.append(victim)
        cluster.bind(state, pod_id, decision.node_id)

    # every known unit stays (empty queues included) so priorities persist
    result_units = [
        SchedulerUnit(acl_id, by_acl[acl_id].priority, undecidable.get(acl_id, []))
        for acl_id in sorted(by_acl)
    ]
    return RoundResult(decisions, taint_evictions, result_units)
