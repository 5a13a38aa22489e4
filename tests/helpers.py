"""Tiny builders shared across test modules."""

from loopsim.cluster import (
    ClusterState,
    Node,
    Pod,
    PriorityLevel,
    ResourceVector,
    Taint,
    TaintEffect,
    Toleration,
    add_pod,
    bind,
)
from loopsim.scenario import MANAGER, _fields, _only

PLATINUM = PriorityLevel("platinum", 20)
GOLD = PriorityLevel("gold", 10)
SILVER = PriorityLevel("silver", 5)
BRONZE = PriorityLevel("bronze", 1)
DEFAULT = PriorityLevel("default", 0, preemption_enabled=False)

ALL_EFFECTS = ("NoSchedule", "PreferNoSchedule", "NoExecute")


def manager_settings(**overrides) -> dict:
    """A normalized ``manager`` section: *overrides*, by the names a scenario
    uses, checked and completed through the ``MANAGER`` table."""
    settings = _fields(overrides, MANAGER, "manager")
    _only(overrides, MANAGER, "manager")
    return settings


def rv(cpu: int, mem: int) -> ResourceVector:
    return ResourceVector(cpu, mem)


def taint(key: str, effect: str = "NoSchedule") -> Taint:
    return Taint(key, TaintEffect(effect))


def tol(key: str, *effects: str) -> Toleration:
    chosen = effects or ALL_EFFECTS
    return Toleration(key, frozenset(TaintEffect(e) for e in chosen))


def node(nid: str, cpu: int = 2000, mem: int = 4096, region: str = "r1",
         taints=()) -> Node:
    return Node(nid, region, rv(cpu, mem), frozenset(taints))


def pod(pid: str, cpu: int = 500, mem: int = 1024, owner: str = "acl1",
        priority: PriorityLevel = GOLD, tols=()) -> Pod:
    return Pod(pid, owner, rv(cpu, mem), frozenset(tols), priority)


def state_with(nodes, pods=(), bound=()) -> ClusterState:
    """Build a state through the public ops so that invariants hold."""
    state = ClusterState(nodes={n.id: n for n in nodes})
    for p in pods:
        add_pod(state, p)
    for pid, nid in bound:
        bind(state, pid, nid)
    return state
