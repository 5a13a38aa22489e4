"""Scheduling engine: one pending queue, scoring, preemption, taint enforcement.

Every Pending pod waits in one ``PendingQueue``, a heap in order of play
(owner's priority, owner's id, arrival) like kube-scheduler's ``activeQ``.
``coordinate`` runs one cluster-wide round: first NoExecute taints are
enforced, then the queue drains, preempting lower-priority pods when
capacity demands it.  An evicted pod is Pending and back in the queue at
once, so every Pending pod stays queued.  Within a round, a pod whose shape
(request, tolerations, priority) already came out Pending since the last bind
or eviction gets that answer again without a second ``schedule`` call.

Rankings are asked of a toleration set, not of a pod: which nodes a pod
tolerates, and in which tier each falls, depends only on its tolerations and
the nodes' taints.  ``eligible_nodes`` derives that once per toleration set
and keeps it in ``ClusterState.eligible`` until a taint changes;
``score_nodes`` then only orders those nodes by the free room ``node_info``
holds.  The conflict manager ranks a pod spec's tolerations the same way.

Preemption picks the fewest victims, then the lowest priority sum, then the
smallest ids (``select_preemption_victims``).  It searches over classes of
equal (priority, cpu, memory) rather than over subsets, with bounds on what
the picks left can cover and on the best priority sum, so many pods of few
shapes decide quickly; pods that each have a shape of their own keep the
worst case exponential, as the problem is NP-hard.

NoExecute enforcement walks only the nodes in ``ClusterState.no_execute``.
The round binds the ``DecisionKind`` members it compares against once, at
module level: on CPython 3.10 and 3.11 a load like ``DecisionKind.PENDING``
goes through ``EnumType.__getattr__``'s hook, some twenty times a global's cost.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import cluster
from .cluster import ClusterState, Pod, Toleration
from .errors import InvalidPhase


class DecisionKind(str, Enum):
    BOUND = "bound"
    PREEMPT = "preempt"
    PENDING = "pending"


_BOUND, _PREEMPT, _PENDING = DecisionKind.BOUND, DecisionKind.PREEMPT, DecisionKind.PENDING
_NO_EXECUTE = cluster.TaintEffect.NO_EXECUTE


class Decision(NamedTuple):
    """One pod's placement.  A named tuple: immutable, and under half a
    frozen dataclass's cost to build."""

    kind: DecisionKind
    pod_id: str
    node_id: str | None = None
    victims: tuple[str, ...] = ()
    reason: str | None = None


@dataclass
class PendingQueue:
    """A heap of (-rank, owner, arrival, pod id).  *ranks* maps an owner to
    the priority value its pods play at, by default its first pod's."""

    ranks: dict[str, int] = field(default_factory=dict)
    entries: list[tuple[int, str, int, str]] = field(default_factory=list)
    _arrival: itertools.count = field(default_factory=itertools.count, init=False, repr=False)

    def push(self, pod: Pod) -> None:
        rank = self.ranks.setdefault(pod.owner, pod.priority.value)
        heapq.heappush(self.entries, (-rank, pod.owner, next(self._arrival), pod.id))

    def ids(self) -> set[str]:
        return {entry[3] for entry in self.entries}


def filter_nodes(state: ClusterState, tolerations: frozenset[Toleration]) -> set[str]:
    """Feasible nodes: every hard taint tolerated.  Capacity is deliberately
    not checked here — a full node can still be won through preemption."""
    return {
        node_id
        for node_id, node in state.nodes.items()
        if cluster.tolerates(tolerations, node)
    }


def score_tier(
    state: ClusterState, tolerations: frozenset[Toleration], node_id: str
) -> int:
    """Rank band for a feasible node.

    0 — the node carries a taint the tolerations match: it was marked for
        their owner, so the owner's work gravitates there first;
    1 — untainted (from these tolerations' point of view);
    2 — only soft taints meant for someone else.
    """
    node = state.nodes[node_id]
    matched = any(
        tol.matches(taint) for taint in node.taints for tol in tolerations
    )
    if matched:
        return 0
    unmatched_soft = any(
        taint.effect is cluster.TaintEffect.PREFER_NO_SCHEDULE for taint in node.taints
    )
    return 2 if unmatched_soft else 1


def eligible_nodes(
    state: ClusterState, tolerations: frozenset[Toleration]
) -> dict[str, int]:
    """The tier (``score_tier``) of every node the tolerations admit
    (``filter_nodes``), by node id.

    Both read only the tolerations and the nodes' taints, so the answer is
    kept in ``state.eligible`` per toleration set until a taint changes.
    """
    tiers = state.eligible.get(tolerations)
    if tiers is None:
        tiers = state.eligible[tolerations] = {
            node_id: score_tier(state, tolerations, node_id)
            for node_id in sorted(filter_nodes(state, tolerations))
        }
    return tiers


def score_nodes(state: ClusterState, tolerations: frozenset[Toleration]) -> list[str]:
    """Order the nodes the tolerations admit: tier, then most free cpu, most
    free memory, id.  Empty when no node admits them."""
    tiers = eligible_nodes(state, tolerations)
    nodes, info = state.nodes, state.node_info

    def key(node_id: str):
        capacity, used = nodes[node_id].capacity, info[node_id].used
        return (
            tiers[node_id],
            used.cpu_millicores - capacity.cpu_millicores,
            used.memory_mib - capacity.memory_mib,
            node_id,
        )

    return sorted(tiers, key=key)


def select_preemption_victims(
    state: ClusterState, pod: Pod, node_id: str
) -> frozenset[str] | None:
    """Smallest set of strictly-lower-priority pods whose removal fits *pod*.

    Minimality order: fewest victims, then lowest summed priority value, then
    lexicographic pod ids.  ``None`` when no subset suffices.

    The candidates fall into classes of equal (priority value, cpu, memory),
    each holding its ids in ascending order.  Sets that take the same number
    from every class tie on size and priority sum, and of those the one that
    takes each class's lowest ids has the smallest sorted ids, so the search
    picks a count per class instead of a subset.  One victim is enough when
    a class covers the shortfall alone.  Else the search rejects at once when
    all candidates together cannot cover it.  Otherwise, for each size k from
    the least whose k largest requests could cover it, a depth-first search
    over the classes drops a branch when its remaining picks cannot cover
    what is still short in either dimension, or cannot stay at or below the
    least priority sum found for k; the first k with a covering choice is the
    answer.  Many candidates of few shapes decide in a few steps.  The worst
    case stays exponential: when every candidate has a shape of its own the
    problem is NP-hard.
    """
    value, pods = pod.priority.value, state.pods
    classes: dict[tuple[int, int, int], list[str]] = {}
    for pod_id in cluster.pods_on(state, node_id):  # ascending ids
        victim = pods[pod_id]
        if victim.priority.value < value:
            request = victim.request
            key = (victim.priority.value, request.cpu_millicores, request.memory_mib)
            classes.setdefault(key, []).append(pod_id)
    if not classes:
        return None
    free = cluster.free_capacity(state, node_id)
    need_cpu = pod.request.cpu_millicores - free.cpu_millicores
    need_mem = pod.request.memory_mib - free.memory_mib
    # one victim: the covering class of the lowest priority, then the lowest id
    single = min(((prio, ids[0]) for (prio, cpu, mem), ids in classes.items()
                  if cpu >= need_cpu and mem >= need_mem), default=None)
    if single is not None:
        return frozenset((single[1],))
    keys = sorted(classes)
    members = [classes[key] for key in keys]
    bounds = _suffix_bounds(keys, members)
    most_cpu, most_mem, _ = bounds[0]
    size = next((k for k in range(2, len(most_cpu))
                 if most_cpu[k] >= need_cpu and most_mem[k] >= need_mem), None)
    if size is None:
        return None  # not even every candidate together covers the shortfall
    while True:  # ends at the latest when size takes every candidate
        victims = _cheapest_cover(keys, members, bounds, size, need_cpu, need_mem)
        if victims is not None:
            return frozenset(victims)
        size += 1


def _suffix_bounds(keys, members) -> list[tuple[list[int], list[int], list[int]]]:
    """For the classes ``keys[i:]``, three lists indexed by r, up to the
    number of their pods: the most cpu, the most memory and the least
    priority sum that r of their pods give."""
    bounds = [([0], [0], [0])]
    cpus, mems, prios = [], [], []
    for (prio, cpu, mem), ids in zip(reversed(keys), reversed(members)):
        cpus = sorted(cpus + [cpu] * len(ids), reverse=True)
        mems = sorted(mems + [mem] * len(ids), reverse=True)
        prios = [prio] * len(ids) + prios  # ascending, as the keys are sorted
        bounds.append((list(itertools.accumulate(cpus, initial=0)),
                       list(itertools.accumulate(mems, initial=0)),
                       list(itertools.accumulate(prios, initial=0))))
    bounds.reverse()
    return bounds


def _cheapest_cover(keys, members, bounds, size, need_cpu, need_mem) -> list[str] | None:
    """The sorted ids of the *size* candidates that cover (*need_cpu*,
    *need_mem*) at the least priority sum, then the smallest ids; ``None``
    when no *size* of them cover it."""
    best: tuple[int, list[str]] | None = None
    # (first class, picks left, cpu and memory still short, priority sum so
    # far, the counts taken so far as nested (earlier, class index, count))
    stack = [(0, size, need_cpu, need_mem, 0, None)]
    while stack:
        start, left, cpu, mem, prio, taken = stack.pop()
        branches = []
        for i in range(start, len(keys)):
            most_cpu, most_mem, least_prio = bounds[i]
            # each bound only tightens as i grows, so the first miss ends the scan
            if (len(least_prio) <= left or most_cpu[left] < cpu or most_mem[left] < mem
                    or best is not None and prio + least_prio[left] > best[0]):
                break
            p, c, m = keys[i]
            for t in range(min(len(members[i]), left), 0, -1):
                path = (taken, i, t)
                if t < left:
                    branches.append((i + 1, left - t, cpu - t * c, mem - t * m, prio + t * p, path))
                elif cpu <= t * c and mem <= t * m:
                    rank = (prio + t * p, _taken_ids(members, path))
                    if best is None or rank < best:
                        best = rank
        stack.extend(reversed(branches))
    return None if best is None else best[1]


def _taken_ids(members, taken) -> list[str]:
    """The sorted ids of a search path: from each class it counts, that many
    of the class's lowest ids."""
    ids = []
    while taken is not None:
        taken, i, count = taken
        ids += members[i][:count]
    return sorted(ids)


def schedule(state: ClusterState, pod: Pod) -> Decision:
    """Decide placement for one pending pod against current state.

    Walks the scored node list twice: once looking for free room, then (if the
    pod's priority level allows it) once more looking for a preemptable set.
    """
    ranked = score_nodes(state, pod.tolerations)
    nodes, info = state.nodes, state.node_info
    cpu, mem = pod.request.cpu_millicores, pod.request.memory_mib
    for node_id in ranked:  # ``cluster.fits``, on the ints it reads
        capacity, used = nodes[node_id].capacity, info[node_id].used
        if (capacity.cpu_millicores - used.cpu_millicores >= cpu
                and capacity.memory_mib - used.memory_mib >= mem):
            return Decision(_BOUND, pod.id, node_id)
    if pod.priority.preemption_enabled:
        for node_id in ranked:
            victims = select_preemption_victims(state, pod, node_id)
            if victims is not None:
                return Decision(_PREEMPT, pod.id, node_id, victims=tuple(sorted(victims)))
    return Decision(_PENDING, pod.id, reason="unschedulable")


def enforce_no_execute(state: ClusterState) -> list[tuple[str, str]]:
    """Evict bound pods that do not tolerate a NoExecute taint on their node.

    A NoSchedule taint keeps new pods off a node but never evicts a running
    one, so only the NoExecute taints are checked here.  Returns the (node
    id, pod id) pairs evicted, in deterministic order.  Evicted pods are
    Pending again; the caller re-queues them.  Only the nodes that carry a
    NoExecute taint (``state.no_execute``) are looked at.
    """
    evicted: list[tuple[str, str]] = []
    for node_id in sorted(state.no_execute):
        no_execute = [t for t in state.nodes[node_id].taints if t.effect is _NO_EXECUTE]
        for pod_id in cluster.pods_on(state, node_id):
            tolerations = state.pods[pod_id].tolerations
            if not all(any(tol.matches(t) for tol in tolerations) for t in no_execute):
                cluster.evict(state, pod_id)
                evicted.append((node_id, pod_id))
    return evicted


@dataclass
class RoundResult:
    decisions: list[Decision]
    taint_evictions: list[tuple[str, str]]


def coordinate(state: ClusterState, queue: PendingQueue) -> RoundResult:
    """Run one full scheduling round, changing *state* and *queue*.

    Order of play: NoExecute enforcement first (its victims join the queue),
    then schedule the pod of the queue's smallest entry until it is empty.
    Preemption victims are evicted mid-round and pushed the same way, so every
    displaced pod is either re-bound or carries an explicit Pending decision
    by round end, and only the Pending entries stay queued for the next round.
    A victim whose priority is not strictly below its preemptor's raises
    ``InvalidPhase`` before anything is evicted; with strictly lower victims
    every round ends.
    """
    taint_evictions = enforce_no_execute(state)
    for _, pod_id in taint_evictions:
        queue.push(state.pods[pod_id])

    decisions: list[Decision] = []
    entries = queue.entries
    pending = []  # entries to retry next round
    # shape -> Pending reason.  ``schedule`` reads nothing of a pod beyond its
    # shape, and inside this loop only a bind or an eviction changes what it
    # reads of the nodes, so the memo is exact until the next BOUND or PREEMPT.
    unschedulable: dict[tuple, str] = {}

    while entries:
        entry = heapq.heappop(entries)
        pod_id = entry[3]
        pod = state.pods.get(pod_id)
        if pod is None or pod_id in state.bindings:
            continue  # stale queue entry (a terminated pod is gone from state)
        # one probe per pod: hashing a shape runs the dataclass hashes of its
        # request and priority
        shape = (pod.request, pod.tolerations, pod.priority)
        reason = unschedulable.get(shape)
        if reason is not None:
            decisions.append(Decision(_PENDING, pod_id, reason=reason))
            pending.append(entry)
            continue
        decision = schedule(state, pod)
        decisions.append(decision)
        if decision.kind is _PENDING:
            unschedulable[shape] = decision.reason
            pending.append(entry)
            continue
        unschedulable.clear()
        for victim in decision.victims:  # none unless PREEMPT
            # checked apart from the search: a victim of equal priority could
            # evict its evictor in turn, and the round would never end
            if state.pods[victim].priority.value >= pod.priority.value:
                raise InvalidPhase(victim, f"is not below the priority of its preemptor {pod_id!r}")
            cluster.evict(state, victim)
            queue.push(state.pods[victim])
        cluster.bind(state, pod_id, decision.node_id)

    # not the popped order as is: a victim that outranks the preemptor was
    # pushed with a smaller key than entries set aside before it
    entries.extend(pending)
    heapq.heapify(entries)
    return RoundResult(decisions, taint_evictions)
