"""Control-loop agents: monitor -> analyze -> plan -> execute.

An agent watches the demand signal over its scope, predicts the next value,
and turns watermark breaches into action intents (scale, instantiate, power).
Intents do not touch the cluster directly — they go through the conflict
manager and only survivors are materialized by the simulator.  A loop's
execute step is its submission to the manager, which ``World._phase_submit``
records with the check tick of the loop's home instance: the tick that
instance will first look at the intents.  An agent keeps no record of what
it has in flight: once a tick the simulator groups the intents the manager
still holds into each loop's targets (``outstanding_targets``), and a scaler,
energy or balancer agent plans nothing for those targets.

``plan`` receives the facts a loop may read beside itself, each as its own
argument: the tick, the cluster state (a scaler counts its pods in
``by_owner``; energy and balancer loops read ``powered_off``), the nodes'
idle streaks, the targets in flight and, for a slice loop, the pod chains of
the slice requests addressed to it.  Planning never changes the cluster.

``resolve_scope`` reads an agent's scope once, when the agent is built, into
its size class, the sorted regions it covers and the nodes it names.  The
regions give the demand it watches and, with the size class, the manager
instance that handles its conflicts; an energy or balancer agent plans over
the nodes.

``monitor`` and ``plan`` run once per loop per tick, and compare against enum
members bound once at module level (see ``scheduler``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Set
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .cluster import ClusterState, PriorityLevel, ResourceVector, Toleration
from .errors import EmptyScope, SuspendedAgent


class SizeClass(str, Enum):
    FEMTO = "Femto"    # one container
    MICRO = "Micro"    # one node
    MACRO = "Macro"    # several nodes / a region
    MEGA = "Mega"      # spans regions or the whole system


class AgentRole(str, Enum):
    SCALER = "scaler"
    SLICE = "slice"
    ENERGY = "energy"
    BALANCER = "balancer"


class LifecycleState(str, Enum):
    ACTIVE = "Active"
    UNDER_OBSERVATION = "UnderObservation"
    SUSPENDED = "Suspended"


class PredictorState(NamedTuple):
    """An EWMA of demand.  A granted Model artifact sets ``accuracy_bonus``;
    above 0 it makes the predictor a shared model (see ``analyze``).  A named
    tuple: immutable, and under half a frozen dataclass's cost to build."""

    alpha: float = 0.3
    level: float = 0.0
    last_seen: int = -1
    accuracy_bonus: float = 0.0


class ActionKind(str, Enum):
    SCALE_UP = "scale-up"
    SCALE_DOWN = "scale-down"
    INSTANTIATE = "instantiate"
    POWER_OFF = "power-off"
    POWER_ON = "power-on"


# the members monitor and plan compare against, bound once (see ``scheduler``)
_SCALER, _SLICE, _ENERGY = AgentRole.SCALER, AgentRole.SLICE, AgentRole.ENERGY
_SUSPENDED = LifecycleState.SUSPENDED

# +1 adds capacity / turns things on, -1 removes capacity / turns things off
DIRECTION = {
    ActionKind.SCALE_UP: 1,
    ActionKind.INSTANTIATE: 1,
    ActionKind.POWER_ON: 1,
    ActionKind.SCALE_DOWN: -1,
    ActionKind.POWER_OFF: -1,
}


@dataclass(frozen=True)
class PodSpec:
    request: ResourceVector
    tolerations: frozenset[Toleration] = frozenset()


@dataclass(frozen=True)
class ActionIntent:
    intent_id: str
    acl_id: str
    kind: ActionKind
    target: str                      # what the action toggles/moves (service, node, slice)
    magnitude: float                 # predicted demand that motivated the action
    pod_specs: tuple[PodSpec, ...] = ()
    pod_ids: tuple[str, ...] = ()

    @property
    def direction(self) -> int:
        return DIRECTION[self.kind]


@dataclass
class LoopAgent:
    id: str
    role: AgentRole
    size: SizeClass
    regions: tuple[str, ...]         # sorted; every region for a Mega e2e scope
    nodes: tuple[str, ...]           # what the scope names, region by region
    priority: PriorityLevel
    predictor: PredictorState = field(default_factory=PredictorState)
    pod_template: PodSpec | None = None
    pod_capacity_units: float = 1000.0
    node_capacity_units: float = 1000.0
    watermark_high: float = 0.8
    watermark_low: float = 0.3
    hysteresis_ticks: int = 3
    idle_ticks: int = 5
    period: int = 1
    span_ticks: int = 10
    target: str = ""
    lifecycle: LifecycleState = LifecycleState.ACTIVE
    anomaly_streak: int = 0
    normal_streak: int = 0
    last_scale_tick: int | None = None
    last_scale_direction: int = 0
    intent_seq: int = 0
    pod_seq: int = 0

    def __post_init__(self):
        if not self.target:
            self.target = f"svc-{self.id}"


def resolve_scope(
    scope: frozenset[str], node_regions: dict[str, str]
) -> tuple[SizeClass, tuple[str, ...], tuple[str, ...]]:
    """Size class, sorted regions and nodes of what the scope touches.

    Scope entries may be ``e2e``, a region name, a node id, or a container
    written ``<node-id>/<name>``; every entry must match one of them.
    Spanning several regions (or naming e2e) makes an agent Mega; a whole
    region or several nodes Macro; one node Micro; one container Femto.
    ``e2e`` covers every region.

    The nodes are those the scope names: a node entry gives that node, a
    container its node, a region entry every node in the region and ``e2e``
    every node; they are ordered region by region, each region's by id.  The
    scope is resolved once, when the agent is built, which holds because no
    operation adds or removes a node or moves it to another region.
    """
    if not scope:
        raise EmptyScope("agent scope is empty")
    region_names = set(node_regions.values())
    touched_regions: set[str] = set()
    touched_nodes: set[str] = set()
    e2e = False
    for entry in sorted(scope):
        if entry == "e2e":
            e2e = True
        elif entry in region_names:
            touched_regions.add(entry)
        elif entry in node_regions:
            touched_nodes.add(entry)
        elif "/" in entry and entry.split("/", 1)[0] in node_regions:
            touched_nodes.add(entry.split("/", 1)[0])
        else:
            raise ValueError(f"scope entry {entry!r} matches no region, node, or container")
    if e2e:
        touched_regions = region_names
    regions = tuple(sorted(touched_regions | {node_regions[n] for n in touched_nodes}))
    nodes = tuple(sorted(
        touched_nodes | {n for n, r in node_regions.items() if r in touched_regions},
        key=lambda n: (node_regions[n], n),
    ))
    if e2e or len(regions) > 1:
        return SizeClass.MEGA, regions, nodes
    if touched_regions or len(touched_nodes) > 1:
        return SizeClass.MACRO, regions, nodes
    if len(scope) == 1 and touched_nodes != scope:  # the one entry is a container
        return SizeClass.FEMTO, regions, nodes
    return SizeClass.MICRO, regions, nodes


def monitor(
    agent: LoopAgent, demand: Callable[[int], float], tick: int
) -> tuple[tuple[int, float], ...]:
    """The last ``span_ticks`` ``(tick, demand)`` samples over the agent's
    scope, leaving out those the predictor has already folded."""
    if agent.lifecycle is _SUSPENDED:
        raise SuspendedAgent(agent.id)
    start = max(0, tick - agent.span_ticks + 1, agent.predictor.last_seen + 1)
    return tuple((t, demand(t)) for t in range(start, tick + 1))


def analyze(
    samples: tuple[tuple[int, float], ...],
    predictor: PredictorState,
    ground_truth: float | None = None,
) -> tuple[float, PredictorState]:
    """Fold unseen samples into the smoothed level; return the next-demand
    prediction.  A shared model additionally pulls the estimate toward the
    upstream signal, scaling its error down by the accuracy bonus."""
    level = predictor.level
    last = predictor.last_seen
    for t, value in samples:
        if t <= last:
            continue
        level = predictor.alpha * value + (1.0 - predictor.alpha) * level
        last = t
    prediction = level
    bonus = predictor.accuracy_bonus
    if ground_truth is not None and bonus > 0.0:
        prediction = level + bonus * (ground_truth - level)
    return prediction, PredictorState(predictor.alpha, level, last, bonus)


def _next_intent(agent: LoopAgent, tick: int, kind: ActionKind, target: str,
                 magnitude: float, **extra) -> ActionIntent:
    intent = ActionIntent(
        intent_id=f"{agent.id}-t{tick}-{agent.intent_seq}",
        acl_id=agent.id,
        kind=kind,
        target=target,
        magnitude=magnitude,
        **extra,
    )
    agent.intent_seq += 1
    return intent


def plan(
    agent: LoopAgent,
    prediction: float,
    tick: int,
    state: ClusterState,
    idle_streaks: dict[str, int],
    outstanding: Set[str] = frozenset(),
    slice_chains: tuple[tuple[PodSpec, ...], ...] = (),
) -> list[ActionIntent]:
    """Turn a prediction into intents according to the agent's role.

    *outstanding* holds the targets of the agent's intents still in flight
    (its entry of ``outstanding_targets``) and *slice_chains* the chains of
    the slice requests addressed to it; each role reads only what it needs of
    these and of *state*.
    """
    if agent.lifecycle is _SUSPENDED:
        raise SuspendedAgent(agent.id)
    role = agent.role
    if role is _SCALER:
        return _plan_scaler(agent, prediction, tick, state, outstanding)
    if role is _SLICE:
        return _plan_slice(agent, prediction, tick, slice_chains)
    if role is _ENERGY:
        return _plan_energy(agent, prediction, tick, state.powered_off, idle_streaks,
                            outstanding)
    return _plan_balancer(agent, prediction, tick, state.powered_off, outstanding)


def _plan_scaler(agent: LoopAgent, prediction: float, tick: int, state: ClusterState,
                 outstanding: Set[str]) -> list[ActionIntent]:
    if agent.target in outstanding:
        return []  # an earlier scale action is still in flight
    pods = state.by_owner.get(agent.id, ())
    replicas = len(pods)
    direction = 0
    if replicas == 0:
        if prediction > agent.watermark_low * agent.pod_capacity_units:
            direction = 1
    else:
        utilization = prediction / (replicas * agent.pod_capacity_units)
        if utilization > agent.watermark_high:
            direction = 1
        elif utilization < agent.watermark_low:
            direction = -1
    if direction == 0:
        return []
    if (
        agent.last_scale_tick is not None
        and direction == agent.last_scale_direction
        and tick - agent.last_scale_tick < agent.hysteresis_ticks
    ):
        return []
    if direction > 0:
        if agent.pod_template is None:
            return []
        intent = _next_intent(
            agent, tick, ActionKind.SCALE_UP, agent.target, prediction,
            pod_specs=(agent.pod_template,),
        )
    else:
        bindings = state.bindings
        victim = max((p for p in pods if p in bindings), default=None)
        if victim is None:
            return []
        intent = _next_intent(
            agent, tick, ActionKind.SCALE_DOWN, agent.target, prediction,
            pod_ids=(victim,),
        )
    agent.last_scale_tick = tick
    agent.last_scale_direction = direction
    return [intent]


def _plan_slice(agent: LoopAgent, prediction: float, tick: int,
                slice_chains: tuple[tuple[PodSpec, ...], ...]) -> list[ActionIntent]:
    return [
        _next_intent(agent, tick, ActionKind.INSTANTIATE, agent.target, prediction,
                     pod_specs=chain)
        for chain in slice_chains
    ]


def _plan_energy(agent: LoopAgent, prediction: float, tick: int, powered_off: Set[str],
                 idle_streaks: dict[str, int],
                 outstanding: Set[str]) -> list[ActionIntent]:
    intents = []
    for node_id in agent.nodes:
        if node_id in powered_off or node_id in outstanding:
            continue
        if idle_streaks.get(node_id, 0) >= agent.idle_ticks:
            intents.append(
                _next_intent(agent, tick, ActionKind.POWER_OFF, node_id, prediction)
            )
    return intents


def _plan_balancer(agent: LoopAgent, prediction: float, tick: int, powered_off: Set[str],
                   outstanding: Set[str]) -> list[ActionIntent]:
    powered_on = [n for n in agent.nodes if n not in powered_off]
    supply = len(powered_on) * agent.node_capacity_units
    if prediction <= agent.watermark_high * supply:
        return []
    intents = []
    for node_id in agent.nodes:
        if node_id not in powered_off or node_id in outstanding:
            continue
        intents.append(
            _next_intent(agent, tick, ActionKind.POWER_ON, node_id, prediction)
        )
    return intents


def outstanding_targets(in_flight: Iterable[ActionIntent]) -> dict[str, set[str]]:
    """Each loop's targets among *in_flight*, the intents submitted but neither
    applied nor dropped yet, by loop id; a loop with none has no entry."""
    targets: dict[str, set[str]] = {}
    for intent in in_flight:
        mine = targets.get(intent.acl_id)
        if mine is None:
            targets[intent.acl_id] = {intent.target}
        else:
            mine.add(intent.target)
    return targets


def absorb_knowledge(agent: LoopAgent, grant) -> None:
    """Fold a granted artifact into the agent; every grant applies, as the
    manager numbers each one (no artifact id repeats).

    A model grant upgrades the predictor in place (same level, same alpha) to
    a shared model with the grant's accuracy bonus; a dataset grant widens
    the sampling window.
    """
    if grant.kind == "Model":
        agent.predictor = agent.predictor._replace(accuracy_bonus=grant.accuracy_bonus)
    else:
        agent.span_ticks = agent.span_ticks + grant.sample_count
