"""Cluster model: nodes, pods, taints, and pure state transitions.

All state lives in immutable dataclasses; every operation returns a new
``ClusterState`` and raises instead of silently clamping.  Capacity is a
two-component vector (cpu millicores, memory MiB) compared component-wise.

A state holds live pods only: a Terminated pod stays until ``retire`` drops
it, so no query grows with the history of a run.  Like kube-scheduler's
``NodeInfo``, each state keeps per-node usage and pod ids, pod ids per owner
and a count per phase; construction derives them in one pass and the
operations below carry them forward instead of re-scanning.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import (
    CapacityExceeded,
    InvalidPhase,
    TaintViolation,
    UnknownNode,
    UnknownPod,
)


@dataclass(frozen=True, order=True)
class ResourceVector:
    cpu_millicores: int
    memory_mib: int

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu_millicores + other.cpu_millicores,
            self.memory_mib + other.memory_mib,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        cpu = self.cpu_millicores - other.cpu_millicores
        mem = self.memory_mib - other.memory_mib
        if cpu < 0 or mem < 0:
            raise ValueError(f"resource subtraction went negative: {self} - {other}")
        return ResourceVector(cpu, mem)

    def covers(self, other: "ResourceVector") -> bool:
        """Component-wise >=; used for both fit checks and validation."""
        return (
            self.cpu_millicores >= other.cpu_millicores
            and self.memory_mib >= other.memory_mib
        )


ZERO = ResourceVector(0, 0)


class TaintEffect(str, Enum):
    NO_SCHEDULE = "NoSchedule"
    PREFER_NO_SCHEDULE = "PreferNoSchedule"
    NO_EXECUTE = "NoExecute"


# Effects that make a taint *hard*: an intolerant pod may not be (or remain) placed.
HARD_EFFECTS = frozenset({TaintEffect.NO_SCHEDULE, TaintEffect.NO_EXECUTE})

# Reserved taint key marking a node that has been powered down.  No pod
# tolerates it, so a powered-off node never attracts new work; running pods
# stay put (the effect is NoSchedule, not NoExecute).
POWERED_OFF_KEY = "powered-off"


@dataclass(frozen=True)
class Taint:
    key: str
    effect: TaintEffect


@dataclass(frozen=True)
class Toleration:
    key: str
    effects_tolerated: frozenset[TaintEffect]

    def matches(self, taint: Taint) -> bool:
        return self.key == taint.key and taint.effect in self.effects_tolerated


@dataclass(frozen=True)
class PriorityLevel:
    name: str
    value: int
    preemption_enabled: bool = True
    global_default: bool = False


class PodPhase(str, Enum):
    PENDING = "Pending"
    BOUND = "Bound"
    EVICTED = "Evicted"
    TERMINATED = "Terminated"


@dataclass(frozen=True)
class Pod:
    id: str
    owner: str
    request: ResourceVector
    tolerations: frozenset[Toleration] = frozenset()
    priority: PriorityLevel = PriorityLevel("default", 0, False, True)
    phase: PodPhase = PodPhase.PENDING


@dataclass(frozen=True)
class Node:
    id: str
    region: str
    capacity: ResourceVector
    taints: frozenset[Taint] = frozenset()


@dataclass(frozen=True)
class NodeInfo:
    """What is bound to one node: the summed requests and the pod ids, sorted."""

    used: ResourceVector = ZERO
    pods: tuple[str, ...] = ()

    def with_pod(self, pod: Pod) -> "NodeInfo":
        return NodeInfo(self.used + pod.request, tuple(sorted(self.pods + (pod.id,))))

    def without_pod(self, pod: Pod) -> "NodeInfo":
        return NodeInfo(self.used - pod.request, tuple(p for p in self.pods if p != pod.id))


@dataclass(frozen=True)
class ClusterState:
    nodes: dict[str, Node] = field(default_factory=dict)
    # live pods: retired ones are gone, their ids reserved in the graveyard
    pods: dict[str, Pod] = field(default_factory=dict)
    # pod id -> node id, defined exactly for pods in phase Bound
    bindings: dict[str, str] = field(default_factory=dict)
    # retired pod id -> order of retirement; this state has retired the
    # first ``retired`` of them (the log is shared, see ``retire``)
    graveyard: dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    retired: int = 0
    # indexes over pods and bindings; derived here, carried by the operations
    node_info: dict[str, NodeInfo] = field(init=False, repr=False, compare=False)
    by_owner: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)
    phase_counts: dict[PodPhase, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bound: dict[str, list[str]] = {node_id: [] for node_id in self.nodes}
        for pod_id, node_id in self.bindings.items():
            bound.setdefault(node_id, []).append(pod_id)
        node_info = {}
        for node_id, pod_ids in bound.items():
            used = ZERO
            for pod_id in pod_ids:
                used = used + self.pods[pod_id].request
            node_info[node_id] = NodeInfo(used, tuple(sorted(pod_ids)))
        owners: dict[str, set[str]] = {}
        counts = dict.fromkeys(PodPhase, 0)
        for pod in self.pods.values():
            owners.setdefault(pod.owner, set()).add(pod.id)
            counts[pod.phase] += 1
        object.__setattr__(self, "node_info", node_info)
        object.__setattr__(
            self, "by_owner", {owner: frozenset(ids) for owner, ids in owners.items()}
        )
        object.__setattr__(self, "phase_counts", counts)


def _evolve(state: ClusterState, **changes) -> ClusterState:
    """*state* with *changes*, skipping the derivation in ``__post_init__``:
    the caller passes every index its change moves."""
    new = object.__new__(ClusterState)
    new.__dict__.update(state.__dict__, **changes)
    return new


def tolerates(pod: Pod, node: Node) -> bool:
    """True when every hard taint on the node is matched by some toleration.

    ``PreferNoSchedule`` taints never block placement; they only demote the
    node during scoring.  A node with no hard taints is tolerated by any pod.
    """
    for taint in node.taints:
        if taint.effect not in HARD_EFFECTS:
            continue
        if not any(tol.matches(taint) for tol in pod.tolerations):
            return False
    return True


def _node(state: ClusterState, node_id: str) -> Node:
    try:
        return state.nodes[node_id]
    except KeyError:
        raise UnknownNode(node_id) from None


def _pod(state: ClusterState, pod_id: str) -> Pod:
    try:
        return state.pods[pod_id]
    except KeyError:
        raise UnknownPod(pod_id) from None


def is_retired(state: ClusterState, pod_id: str) -> bool:
    return state.graveyard.get(pod_id, state.retired) < state.retired


def pods_on(state: ClusterState, node_id: str) -> list[str]:
    """Ids of pods currently bound to *node_id*, sorted for determinism."""
    _node(state, node_id)
    return list(state.node_info[node_id].pods)


def used_capacity(state: ClusterState, node_id: str) -> ResourceVector:
    _node(state, node_id)
    return state.node_info[node_id].used


def free_capacity(state: ClusterState, node_id: str) -> ResourceVector:
    node = _node(state, node_id)
    return node.capacity - state.node_info[node_id].used


def fits(state: ClusterState, pod: Pod, node_id: str) -> bool:
    """Request fits in what is currently free on the node (taints ignored)."""
    return free_capacity(state, node_id).covers(pod.request)


def add_pod(state: ClusterState, pod: Pod) -> ClusterState:
    if pod.id in state.pods or is_retired(state, pod.id):
        raise ValueError(f"duplicate pod id {pod.id!r}")
    pods = dict(state.pods)
    pods[pod.id] = pod
    by_owner = dict(state.by_owner)
    by_owner[pod.owner] = by_owner.get(pod.owner, frozenset()) | {pod.id}
    counts = dict(state.phase_counts)
    counts[pod.phase] += 1
    return _evolve(state, pods=pods, by_owner=by_owner, phase_counts=counts)


def apply_taint(state: ClusterState, node_id: str, taint: Taint) -> ClusterState:
    """Add a taint. Never evicts by itself; NoExecute enforcement is a
    separate scheduler pass so that evictions land in the trace in order."""
    node = _node(state, node_id)
    nodes = dict(state.nodes)
    nodes[node_id] = replace(node, taints=node.taints | {taint})
    return _evolve(state, nodes=nodes)


def remove_taint(
    state: ClusterState, node_id: str, key: str, effect: TaintEffect | None = None
) -> ClusterState:
    node = _node(state, node_id)
    keep = frozenset(
        t
        for t in node.taints
        if not (t.key == key and (effect is None or t.effect == effect))
    )
    nodes = dict(state.nodes)
    nodes[node_id] = replace(node, taints=keep)
    return _evolve(state, nodes=nodes)


def _set_phase(state: ClusterState, pod: Pod, phase: PodPhase, **changes) -> ClusterState:
    pods = dict(state.pods)
    pods[pod.id] = replace(pod, phase=phase)
    counts = dict(state.phase_counts)
    counts[pod.phase] -= 1
    counts[phase] += 1
    return _evolve(state, pods=pods, phase_counts=counts, **changes)


def _unbind(state: ClusterState, pod: Pod) -> dict:
    """The binding and node-info changes that take *pod* off its node."""
    bindings = dict(state.bindings)
    node_id = bindings.pop(pod.id)
    node_info = dict(state.node_info)
    node_info[node_id] = node_info[node_id].without_pod(pod)
    return {"bindings": bindings, "node_info": node_info}


def bind(state: ClusterState, pod_id: str, node_id: str) -> ClusterState:
    pod = _pod(state, pod_id)
    node = _node(state, node_id)
    if pod.phase is not PodPhase.PENDING:
        raise InvalidPhase(pod_id, pod.phase.value, PodPhase.BOUND.value)
    if not tolerates(pod, node):
        raise TaintViolation(pod_id, node_id)
    if not fits(state, pod, node_id):
        raise CapacityExceeded(
            node_id, f"{pod.request} > free {free_capacity(state, node_id)}"
        )
    bindings = dict(state.bindings)
    bindings[pod_id] = node_id
    node_info = dict(state.node_info)
    node_info[node_id] = node_info[node_id].with_pod(pod)
    return _set_phase(state, pod, PodPhase.BOUND, bindings=bindings, node_info=node_info)


def evict(state: ClusterState, pod_id: str) -> ClusterState:
    pod = _pod(state, pod_id)
    if pod.phase is not PodPhase.BOUND:
        raise InvalidPhase(pod_id, pod.phase.value, PodPhase.EVICTED.value)
    return _set_phase(state, pod, PodPhase.EVICTED, **_unbind(state, pod))


def requeue(state: ClusterState, pod_id: str) -> ClusterState:
    pod = _pod(state, pod_id)
    if pod.phase is not PodPhase.EVICTED:
        raise InvalidPhase(pod_id, pod.phase.value, PodPhase.PENDING.value)
    return _set_phase(state, pod, PodPhase.PENDING)


def terminate(state: ClusterState, pod_id: str) -> ClusterState:
    pod = _pod(state, pod_id)
    if pod.phase is PodPhase.TERMINATED:
        raise InvalidPhase(pod_id, pod.phase.value, PodPhase.TERMINATED.value)
    changes = _unbind(state, pod) if pod_id in state.bindings else {}
    return _set_phase(state, pod, PodPhase.TERMINATED, **changes)


def retire(state: ClusterState, pod_id: str) -> ClusterState:
    """Drop a Terminated pod from live state; ``add_pod`` keeps rejecting its id.

    The graveyard is one log shared with the states this one came from, so
    retiring costs O(1) in the length of the run.  A state that retires
    from the middle of the log (an older state, or one given a log it did
    not write) copies its own part first, so no state sees another's
    retirements.
    """
    pod = _pod(state, pod_id)
    if pod.phase is not PodPhase.TERMINATED:
        raise InvalidPhase(pod_id, pod.phase.value, "Retired")
    pods = dict(state.pods)
    del pods[pod_id]
    by_owner = dict(state.by_owner)
    siblings = by_owner.pop(pod.owner) - {pod_id}
    if siblings:
        by_owner[pod.owner] = siblings
    counts = dict(state.phase_counts)
    counts[PodPhase.TERMINATED] -= 1
    graveyard = state.graveyard
    if len(graveyard) != state.retired:
        graveyard = {p: i for p, i in graveyard.items() if i < state.retired}
    graveyard[pod_id] = state.retired
    return _evolve(state, pods=pods, by_owner=by_owner, phase_counts=counts,
                   graveyard=graveyard, retired=state.retired + 1)


def regions(state: ClusterState) -> list[str]:
    return sorted({n.region for n in state.nodes.values()})


def nodes_in_region(state: ClusterState, region: str) -> list[str]:
    return sorted(n.id for n in state.nodes.values() if n.region == region)
