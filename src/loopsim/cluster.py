"""Cluster model: nodes, pods, taints, and the state transitions on them.

One ``ClusterState`` holds the live cluster, and the operations below change
it in place and return ``None``, like kube-scheduler's single cache.  Each
operation checks bindings, taints, capacity and ids before it changes
anything, and raises instead of silently clamping, so a failed operation
leaves the state as it was.  Nodes and pods themselves are immutable values.
Capacity is a two-component vector (cpu millicores, memory MiB) compared
component-wise.

A live pod is Bound when ``bindings`` holds it and Pending otherwise.
``terminate`` drops a pod from live state and reserves its id, so no query
grows with the history of a run.  Like kube-scheduler's ``NodeInfo`` and
its snapshot, the state keeps these indexes; construction derives them and
the operations keep them up:

- ``node_info``: per node, the summed requests and the ids of its bound pods
  (``bind``, ``evict``, ``terminate``);
- ``by_owner``: per owner, the ids of its live pods (``add_pod``,
  ``terminate``);
- ``powered_off``: the nodes carrying a ``powered-off`` taint, and
  ``no_execute``: the nodes carrying a NoExecute taint (``apply_taint``,
  ``remove_taint``);
- ``eligible``: per toleration set, the tier of every node it tolerates.  The
  scheduler fills an entry the first time it ranks for that set, and
  ``apply_taint`` and ``remove_taint``, the only operations that change a
  taint, drop them all.
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


# Effects that make a taint *hard*: an intolerant pod may not be placed.  Only a
# NoExecute taint also evicts the intolerant pods already running (the scheduler's
# enforcement pass).
HARD_EFFECTS = frozenset({TaintEffect.NO_SCHEDULE, TaintEffect.NO_EXECUTE})

# Reserved taint key marking a node that has been powered down.  Validation
# rejects a toleration of it, so a powered-off node never attracts new work;
# running pods stay put (the effect is NoSchedule, not NoExecute).
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


@dataclass(frozen=True)
class Pod:
    id: str
    owner: str
    request: ResourceVector
    tolerations: frozenset[Toleration] = frozenset()
    priority: PriorityLevel = PriorityLevel("default", 0, False)


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


@dataclass
class ClusterState:
    nodes: dict[str, Node] = field(default_factory=dict)
    # live pods: a terminated pod is gone from here, its id kept in ``retired``
    pods: dict[str, Pod] = field(default_factory=dict)
    # pod id -> node id for the Bound pods; every other live pod is Pending
    bindings: dict[str, str] = field(default_factory=dict)
    # ids of terminated pods, reserved: ``add_pod`` rejects them
    retired: set[str] = field(default_factory=set)
    # indexes over pods and bindings; derived here, kept up by the operations
    node_info: dict[str, NodeInfo] = field(init=False, repr=False, compare=False)
    by_owner: dict[str, set[str]] = field(init=False, repr=False, compare=False)
    powered_off: set[str] = field(init=False, repr=False, compare=False)
    no_execute: set[str] = field(init=False, repr=False, compare=False)
    # tolerations -> {node id: tier}, filled by ``scheduler.eligible_nodes``
    eligible: dict[frozenset[Toleration], dict[str, int]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        bound: dict[str, list[str]] = {node_id: [] for node_id in self.nodes}
        for pod_id, node_id in self.bindings.items():
            bound.setdefault(node_id, []).append(pod_id)
        self.node_info = {}
        for node_id, pod_ids in bound.items():
            used = ZERO
            for pod_id in pod_ids:
                used = used + self.pods[pod_id].request
            self.node_info[node_id] = NodeInfo(used, tuple(sorted(pod_ids)))
        self.by_owner = {}
        for pod in self.pods.values():
            self.by_owner.setdefault(pod.owner, set()).add(pod.id)
        self.powered_off = {n.id for n in self.nodes.values() if _powered_off(n)}
        self.no_execute = {n.id for n in self.nodes.values() if _no_execute(n)}
        self.eligible = {}


def _powered_off(node: Node) -> bool:
    return any(t.key == POWERED_OFF_KEY for t in node.taints)


def _no_execute(node: Node) -> bool:
    return any(t.effect is TaintEffect.NO_EXECUTE for t in node.taints)


def tolerates(tolerations: frozenset[Toleration], node: Node) -> bool:
    """True when every hard taint on the node is matched by some toleration.

    ``PreferNoSchedule`` taints never block placement; they only demote the
    node during scoring.  A node with no hard taints is tolerated by any pod.
    """
    for taint in node.taints:
        if taint.effect not in HARD_EFFECTS:
            continue
        if not any(tol.matches(taint) for tol in tolerations):
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


def add_pod(state: ClusterState, pod: Pod) -> None:
    if pod.id in state.pods or pod.id in state.retired:
        raise ValueError(f"duplicate pod id {pod.id!r}")
    state.pods[pod.id] = pod
    state.by_owner.setdefault(pod.owner, set()).add(pod.id)


def _set_taints(state: ClusterState, node: Node, taints: frozenset[Taint]) -> None:
    node = state.nodes[node.id] = replace(node, taints=taints)
    for index, holds in ((state.powered_off, _powered_off(node)),
                         (state.no_execute, _no_execute(node))):
        if holds:
            index.add(node.id)
        else:
            index.discard(node.id)
    state.eligible.clear()


def apply_taint(state: ClusterState, node_id: str, taint: Taint) -> None:
    """Add a taint. Never evicts by itself; NoExecute enforcement is a
    separate scheduler pass so that evictions land in the trace in order."""
    node = _node(state, node_id)
    _set_taints(state, node, node.taints | {taint})


def remove_taint(
    state: ClusterState, node_id: str, key: str, effect: TaintEffect | None = None
) -> None:
    node = _node(state, node_id)
    keep = frozenset(
        t
        for t in node.taints
        if not (t.key == key and (effect is None or t.effect == effect))
    )
    _set_taints(state, node, keep)


def _unbind(state: ClusterState, pod: Pod) -> None:
    node_id = state.bindings.pop(pod.id)
    state.node_info[node_id] = state.node_info[node_id].without_pod(pod)


def bind(state: ClusterState, pod_id: str, node_id: str) -> None:
    pod = _pod(state, pod_id)
    node = _node(state, node_id)
    if pod_id in state.bindings:
        raise InvalidPhase(pod_id, f"is already bound to {state.bindings[pod_id]!r}")
    if not tolerates(pod.tolerations, node):
        raise TaintViolation(pod_id, node_id)
    if not fits(state, pod, node_id):
        raise CapacityExceeded(
            node_id, f"{pod.request} > free {free_capacity(state, node_id)}"
        )
    state.bindings[pod_id] = node_id
    state.node_info[node_id] = state.node_info[node_id].with_pod(pod)


def evict(state: ClusterState, pod_id: str) -> None:
    """Unbind a Bound pod; it is Pending again and the caller re-queues it."""
    pod = _pod(state, pod_id)
    if pod_id not in state.bindings:
        raise InvalidPhase(pod_id, "is not bound, so it cannot be evicted")
    _unbind(state, pod)


def terminate(state: ClusterState, pod_id: str) -> None:
    """Unbind the pod if it is bound and drop it from live state; ``add_pod``
    keeps rejecting its id."""
    pod = _pod(state, pod_id)
    if pod_id in state.bindings:
        _unbind(state, pod)
    del state.pods[pod_id]
    siblings = state.by_owner[pod.owner]
    siblings.remove(pod_id)
    if not siblings:
        del state.by_owner[pod.owner]
    state.retired.add(pod_id)
