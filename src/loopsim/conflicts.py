"""Conflict manager: vets every intent before it may touch the cluster.

Responsibilities, in pipeline order per tick:

1. each instance acting this tick settles the work it buffered,
2. each fresh intent gets a coherency verdict (rolling z-score) and the
   issuing agent's lifecycle advances; last tick's requeued intents skip it,
3. intents on frozen (loop, target) pairs are dropped,
4. interference (back-and-forth toggling of one target by several loops) is
   detected and the lowest-priority participant frozen,
5. resource contention (combined claims exceeding a node, or opposite-direction
   actions on one node) is detected, routed to an instance, and arbitrated by
   priority, or buffered until that instance acts; losers are requeued.
   A pod spec claims the node the scheduler ranks first for its tolerations
   (``scheduler.score_nodes``), one ranking per toleration set,
6. the rest pass to the simulator for materialization once their loop's own
   instance acts.

Routing reads the size class and regions each agent carries from
``agents.resolve_scope`` and returns an ``Instance``: a conflict whose
participants are all non-Mega and cover one region goes to
``regional:<region>``, anything else to ``e2e``.  Each loop's own instance,
``home``, is resolved once, at construction.  Every instance acts on the ticks
that are multiples of its period, 1 for a region and ``e2e_period`` for
``e2e``, and buffers its work in between.  ``held()`` lists every intent
submitted but neither applied nor dropped, one object each: the requeued
ones, then each instance's buffered intents, then those inside its buffered
conflicts.

The manager's settings are a scenario's normalized ``manager`` section, read
by the names a scenario gives them (``settings["interference"]["cooldown_ticks"]``),
and its trust is the normalized ``trust`` mapping: each source's sorted
``[target, kind]`` pairs.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from enum import Enum

from . import cluster, scheduler
from .agents import ActionIntent, ActionKind, LifecycleState, LoopAgent, SizeClass
from .cluster import ClusterState


class ConflictKind(str, Enum):
    RESOURCE_CONTENTION = "ResourceContention"
    INTERFERENCE = "Interference"


class Verdict(str, Enum):
    NORMAL = "Normal"
    ANOMALOUS = "Anomalous"


# enum members the per-intent paths compare against, bound once (see ``scheduler``)
_NORMAL, _ANOMALOUS = Verdict.NORMAL, Verdict.ANOMALOUS
_ACTIVE, _UNDER_OBSERVATION, _SUSPENDED = (
    LifecycleState.ACTIVE, LifecycleState.UNDER_OBSERVATION, LifecycleState.SUSPENDED)
_ADDS_PODS, _SCALE_DOWN = (ActionKind.SCALE_UP, ActionKind.INSTANTIATE), ActionKind.SCALE_DOWN


@dataclass(frozen=True)
class Resolution:
    kind: str                        # "arbitrated" | "frozen"
    winner: str | None = None
    losers: tuple[str, ...] = ()
    frozen_acl: str | None = None
    until_tick: int | None = None


@dataclass(frozen=True)
class ConflictRecord:
    conflict_id: str
    tick: int
    kind: ConflictKind
    participants: tuple[str, ...]
    targets: tuple[str, ...]
    instance: Instance
    resolution: Resolution | None = None


@dataclass(eq=False)
class Instance:
    """One ICM module, the end-to-end one or a region's: it acts on the
    multiples of its period and buffers its conflicts and intents in between."""

    name: str                        # "e2e" | "regional:<region>"
    period: int
    conflicts: list[tuple[ConflictRecord, list[ActionIntent]]] = field(
        default_factory=list, repr=False)
    intents: list[ActionIntent] = field(default_factory=list, repr=False)

    def next_tick(self, tick: int) -> int:
        """The first tick at or after *tick* on which this instance acts."""
        return -(-tick // self.period) * self.period


# the scaled radicand in ``_sqrt_ratio`` is at least 2**(_RADICAND_BITS - 1),
# so its integer root has the 53 bits of a double plus the two that make
# rounding to odd, then to nearest, exact
_RADICAND_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_ratio(n: int, m: int) -> float:
    """sqrt(n / m) for integers n >= 0, m > 0, correctly rounded to a float.

    Scales n / m by 4**k so its integer root r has about 55 bits, then sets
    r's lowest bit when the root was inexact (round to odd).  That odd
    sticky bit keeps the one rounding left, in the int-to-float division by
    2**k, correct.
    """
    k = (_RADICAND_BITS + 1 - n.bit_length() + m.bit_length()) // 2
    if k >= 0:
        n <<= 2 * k
    else:
        m <<= -2 * k
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return root / (1 << k) if k >= 0 else float(root << -k)


@dataclass
class CoherencyBaseline:
    """Rolling window of action magnitudes for one loop.

    The mean and the population spread come from exact running sums of x and
    x**2 over the window, a correctly rounded division and square root, so
    they are the floats that ``statistics.fmean`` and ``statistics.pstdev``
    (3.11 and later) return, at O(1) per sample whatever the window.  Every
    finite float is an integer over a power of two, so the sums are kept as
    integers over one shared power of two: exact like ``Fraction`` sums, and
    about ten times cheaper because no step reduces by a gcd.  A non-finite
    sample has no exact value, so it raises ``ValueError``.
    """

    window: int
    min_history: int
    epsilon: float
    history: deque[float] = field(default_factory=deque)
    # sum(x) * 2**_exp, sum(x*x) * 2**(2*_exp), over the finite samples
    _sum: int = field(init=False, repr=False, compare=False)
    _sum_sq: int = field(init=False, repr=False, compare=False)
    _exp: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.history = deque(self.history)
        self._sum = self._sum_sq = self._exp = 0
        for value in self.history:
            self._add(value, 1)

    def _add(self, value: float, sign: int) -> None:
        if not math.isfinite(value):
            raise ValueError(f"coherency magnitude {value!r} is not finite")
        num, den = value.as_integer_ratio()  # den is a power of two
        exp = den.bit_length() - 1
        if exp > self._exp:
            self._sum <<= exp - self._exp
            self._sum_sq <<= 2 * (exp - self._exp)
            self._exp = exp
        num <<= self._exp - exp
        self._sum += sign * num
        self._sum_sq += sign * num * num

    def mean(self) -> float:
        """``statistics.fmean`` of ``history``: the correctly rounded sum,
        then one division."""
        return (self._sum / (1 << self._exp)) / len(self.history)

    def spread(self) -> float:
        """Population standard deviation of ``history`` (at least one value)."""
        n = len(self.history)
        return _sqrt_ratio(n * self._sum_sq - self._sum * self._sum,
                           n * n << 2 * self._exp)

    def check(self, magnitude: float, k_sigma: float) -> Verdict:
        verdict = _NORMAL
        if len(self.history) >= self.min_history:
            spread = max(self.spread(), self.epsilon)
            if abs(magnitude - self.mean()) > k_sigma * spread:
                verdict = _ANOMALOUS
        self._add(magnitude, 1)
        self.history.append(magnitude)
        if len(self.history) > self.window:
            self._add(self.history.popleft(), -1)
        return verdict


@dataclass(frozen=True)
class Grant:
    artifact_id: str
    source: str
    target: str
    kind: str                        # "Model" | "Dataset"
    accuracy_bonus: float = 0.0
    sample_count: int = 0


@dataclass(frozen=True)
class Denial:
    source: str
    target: str
    kind: str
    reason: str                      # "NotTrusted" | "SourceSuspended" | "UnknownAgent"


@dataclass
class TickOutcome:
    survivors: list[ActionIntent] = field(default_factory=list)
    requeued: list[ActionIntent] = field(default_factory=list)
    dropped: list[tuple[ActionIntent, str]] = field(default_factory=list)
    detected: list[ConflictRecord] = field(default_factory=list)
    resolved: list[ConflictRecord] = field(default_factory=list)
    verdicts: list[tuple[str, float, Verdict]] = field(default_factory=list)
    lifecycle_changes: list[tuple[str, str, str]] = field(default_factory=list)
    buffered: list[ActionIntent] = field(default_factory=list)


TOGGLE_KINDS = frozenset(
    {ActionKind.POWER_OFF, ActionKind.POWER_ON, ActionKind.SCALE_UP, ActionKind.SCALE_DOWN}
)


class ConflictManager:
    def __init__(self, settings: dict, agents: dict[str, LoopAgent],
                 trust: dict[str, list[list[str]]]):
        self.settings = settings
        self.agents = agents
        self.trust = trust
        # the end-to-end instance first: held() and settling go in this order
        self.instances = {"e2e": Instance("e2e", settings["e2e_period"])}
        for region in sorted({r for agent in agents.values() for r in agent.regions}):
            self.instances[f"regional:{region}"] = Instance(f"regional:{region}", 1)
        # the instances that can hold work between ticks: one of period 1
        # acts on every tick, so it never buffers
        self._buffering = [i for i in self.instances.values() if i.period > 1]
        # the instance that handles each loop alone: it reads only the loop's
        # size and regions, which no operation changes
        self.home = {acl: self.route([acl]) for acl in agents}
        self.baselines: dict[str, CoherencyBaseline] = {}
        self.freezes: dict[tuple[str, str], int] = {}
        # tick, acl, target, direction, in tick order and never later than the
        # tick detect_interference looks at; that call trims it to its window
        self.action_history: deque[tuple[int, str, str, int]] = deque()
        # intents requeued at the last tick; the next tick retries them all
        self._requeued: list[ActionIntent] = []
        self._grant_seq = 0
        self._conflict_seq = 0

    # -- routing ------------------------------------------------------------

    def route(self, participant_ids: list[str]) -> Instance:
        """Pick the instance responsible for a set of participants.

        Any Mega participant, or scopes straddling regions, escalates to the
        end-to-end instance; otherwise the single shared region handles it.
        """
        touched: set[str] = set()
        for acl in participant_ids:
            agent = self.agents[acl]
            if agent.size is SizeClass.MEGA:
                return self.instances["e2e"]
            touched.update(agent.regions)
        if len(touched) != 1:
            return self.instances["e2e"]
        return self.instances[f"regional:{touched.pop()}"]

    def held(self) -> list[ActionIntent]:
        """Every intent submitted but neither applied nor dropped: those
        requeued for the next tick, then, instance by instance, those it
        buffers alone and those inside its buffered conflicts."""
        held = list(self._requeued)
        for instance in self.instances.values():
            held += instance.intents
            for _, intents in instance.conflicts:
                held += intents
        return held

    # -- coherency / lifecycle ----------------------------------------------

    def coherency_check(self, acl: str, magnitude: float) -> Verdict:
        cfg = self.settings["coherency"]
        baseline = self.baselines.get(acl)
        if baseline is None:
            baseline = CoherencyBaseline(cfg["window"], cfg["min_history"], cfg["epsilon"])
            self.baselines[acl] = baseline
        return baseline.check(magnitude, cfg["k_sigma"])

    def update_lifecycle(self, agent: LoopAgent, verdict: Verdict) -> tuple[str, str] | None:
        """Advance the agent's lifecycle; return (old, new) on a transition."""
        old = agent.lifecycle
        if agent.lifecycle is _SUSPENDED:
            return None  # absorbing until an operator releases it
        if verdict is _ANOMALOUS:
            agent.anomaly_streak += 1
            agent.normal_streak = 0
            if agent.anomaly_streak >= self.settings["lifecycle"]["suspend_after"]:
                agent.lifecycle = _SUSPENDED
            else:
                agent.lifecycle = _UNDER_OBSERVATION
        else:
            agent.normal_streak += 1
            agent.anomaly_streak = 0
            if (
                agent.lifecycle is _UNDER_OBSERVATION
                and agent.normal_streak >= self.settings["lifecycle"]["reinstate_after"]
            ):
                agent.lifecycle = _ACTIVE
        if agent.lifecycle is not old:
            return (old.value, agent.lifecycle.value)
        return None

    def release(self, acl: str) -> bool:
        agent = self.agents.get(acl)
        if agent is None or agent.lifecycle is not LifecycleState.SUSPENDED:
            return False
        agent.lifecycle = LifecycleState.ACTIVE
        agent.anomaly_streak = 0
        agent.normal_streak = 0
        return True

    # -- knowledge exchange ---------------------------------------------------

    def broker_exchange(self, source: str, target: str, kind: str) -> Grant | Denial:
        """Grant *target* the *kind* of artifact ("Model" or "Dataset") that
        *source* offers, or say why not."""
        giver = self.agents.get(source)
        if giver is None or target not in self.agents:
            return Denial(source, target, kind, "UnknownAgent")
        if giver.lifecycle is LifecycleState.SUSPENDED:
            return Denial(source, target, kind, "SourceSuspended")
        if [target, kind] not in self.trust.get(source, ()):
            return Denial(source, target, kind, "NotTrusted")
        self._grant_seq += 1
        return Grant(
            artifact_id=f"{source}-{kind.lower()}-{self._grant_seq}",
            source=source,
            target=target,
            kind=kind,
            accuracy_bonus=self.settings["knowledge"]["model_bonus"] if kind == "Model" else 0.0,
            sample_count=giver.span_ticks if kind == "Dataset" else 0,
        )

    # -- detection -------------------------------------------------------------

    def note_execution(self, tick: int, acl: str, target: str, direction: int) -> None:
        self.action_history.append((tick, acl, target, direction))

    def detect_interference(
        self, tick: int, pending: Iterable[ActionIntent], state: ClusterState
    ) -> list[ConflictRecord]:
        """Flag targets toggled back and forth by several loops recently.

        Looks at executed actions inside the sliding window plus this tick's
        pending toggle intents.  A node target starts from powered-on; other
        targets take their first observed direction as the starting state, so
        monotone runs (everyone scaling up) never count as toggles.
        """
        cfg = self.settings["interference"]
        history = self.action_history
        while history and history[0][0] <= tick - cfg["window_ticks"]:
            history.popleft()
        entries: dict[str, list[tuple[int, str, int]]] = {}
        for t, acl, target, direction in history:
            entries.setdefault(target, []).append((t, acl, direction))
        for intent in pending:
            if intent.kind in TOGGLE_KINDS:
                entries.setdefault(intent.target, []).append(
                    (tick, intent.acl_id, intent.direction)
                )
        frozen = {target for _, target in self.freezes}
        records = []
        for target in sorted(entries):
            if target in frozen:
                continue  # already resolved; do not re-flag during cooldown
            seq = sorted(entries[target])
            prev = 1 if target in state.nodes else seq[0][2]
            toggles = 0
            actors = set()
            for _, acl, direction in seq:
                actors.add(acl)
                if direction != prev:
                    toggles += 1
                prev = direction
            if toggles >= cfg["toggle_threshold"] and len(actors) >= 2:
                records.append(
                    self._record(tick, ConflictKind.INTERFERENCE, sorted(actors), [target])
                )
        return records

    def detect_resource_conflicts(
        self, tick: int, intents: Iterable[ActionIntent], state: ClusterState
    ) -> list[tuple[ConflictRecord, set[str]]]:
        """Group this tick's intents by the node they would act on.

        Returns (record, implicated intent ids) pairs.  Two triggers: combined
        placement claims from several loops exceeding a node's free room, and
        opposite-direction actions from several loops on one node.
        """
        up_claims: dict[str, list[tuple[str, str, cluster.ResourceVector]]] = {}
        directions: dict[str, list[tuple[str, str, int]]] = {}
        # tolerations -> top-ranked node, None when no node is tolerated.  The
        # ranking reads only tolerations, taints and free capacity, and
        # detection changes none of them, so one ranking per set serves all.
        top_node: dict[frozenset, str | None] = {}

        for intent in intents:
            for node_id, request in self._claims(intent, state, top_node):
                if request is not None:
                    up_claims.setdefault(node_id, []).append(
                        (intent.acl_id, intent.intent_id, request)
                    )
                directions.setdefault(node_id, []).append(
                    (intent.acl_id, intent.intent_id, intent.direction)
                )

        results = []
        # every claim also records a direction on its node
        for node_id in sorted(directions):
            participants: set[str] = set()
            implicated: set[str] = set()
            claims = up_claims.get(node_id, [])
            claim_acls = {acl for acl, _, _ in claims}
            if len(claim_acls) >= 2:
                capacity, used = state.nodes[node_id].capacity, state.node_info[node_id].used
                cpu = sum(request.cpu_millicores for _, _, request in claims)
                mem = sum(request.memory_mib for _, _, request in claims)
                if (cpu > capacity.cpu_millicores - used.cpu_millicores
                        or mem > capacity.memory_mib - used.memory_mib):
                    participants.update(claim_acls)
                    implicated.update(iid for _, iid, _ in claims)
            dirs = directions.get(node_id, [])
            ups = {(acl, iid) for acl, iid, d in dirs if d > 0}
            downs = {(acl, iid) for acl, iid, d in dirs if d < 0}
            if ups and downs and {a for a, _ in ups} != {a for a, _ in downs}:
                participants.update(a for a, _ in ups | downs)
                implicated.update(i for _, i in ups | downs)
            if participants:
                record = self._record(tick, ConflictKind.RESOURCE_CONTENTION,
                                      sorted(participants), [node_id])
                results.append((record, implicated))
        return results

    def _claims(self, intent: ActionIntent, state: ClusterState,
                top_node: dict[frozenset, str | None]):
        """(node, request|None) pairs the intent lays claim to.

        *top_node* maps a toleration set to the node it ranks first; it is
        filled here and must not outlive one unchanged *state*.
        """
        out = []
        if intent.kind in _ADDS_PODS:
            for spec in intent.pod_specs:
                if spec.tolerations not in top_node:
                    ranked = scheduler.score_nodes(state, spec.tolerations)
                    top_node[spec.tolerations] = ranked[0] if ranked else None
                node_id = top_node[spec.tolerations]
                if node_id is not None:
                    out.append((node_id, spec.request))
        elif intent.kind is _SCALE_DOWN:
            for pod_id in intent.pod_ids:
                node_id = state.bindings.get(pod_id)
                if node_id is not None:
                    out.append((node_id, None))
        else:  # power intents: the target is the node
            out.append((intent.target, None))
        return out

    def _record(self, tick: int, kind: ConflictKind, participants: list[str],
                targets: list[str]) -> ConflictRecord:
        record = ConflictRecord(
            conflict_id=f"c{self._conflict_seq}",
            tick=tick,
            kind=kind,
            participants=tuple(participants),
            targets=tuple(sorted(targets)),
            instance=self.route(participants),
        )
        self._conflict_seq += 1
        return record

    # -- resolution -------------------------------------------------------------

    def resolve(self, record: ConflictRecord, tick: int) -> ConflictRecord:
        """Arbitration: contention goes to the highest priority level (ties to
        the lexicographically first loop); interference freezes the lowest."""
        def value(acl: str) -> int:
            return self.agents[acl].priority.value

        if record.kind is ConflictKind.RESOURCE_CONTENTION:
            winner = min(record.participants, key=lambda a: (-value(a), a))
            losers = tuple(a for a in record.participants if a != winner)
            resolution = Resolution("arbitrated", winner=winner, losers=losers)
        else:
            frozen = min(record.participants, key=lambda a: (value(a), a))
            until = tick + self.settings["interference"]["cooldown_ticks"]
            for target in record.targets:
                self.freezes[(frozen, target)] = until
            resolution = Resolution("frozen", frozen_acl=frozen, until_tick=until)
        return replace(record, resolution=resolution)

    # -- the per-tick pipeline ----------------------------------------------------

    def process_tick(
        self,
        tick: int,
        intents: list[ActionIntent],
        state: ClusterState,
    ) -> TickOutcome:
        out = TickOutcome()
        # intent id -> intent, in arrival order; a ruling removes its own ids
        pool: dict[str, ActionIntent] = {}
        retry, self._requeued = self._requeued, []

        # 0. each instance acting this tick settles its buffered conflicts and intents
        for instance in self._buffering:
            if instance.next_tick(tick) > tick:
                continue
            for record, held in instance.conflicts:
                resolved = self.resolve(record, tick)
                out.resolved.append(resolved)
                for intent in held:
                    if intent.acl_id == resolved.resolution.winner:
                        pool[intent.intent_id] = intent
                    else:
                        out.requeued.append(intent)
            for intent in instance.intents:
                pool[intent.intent_id] = intent
            instance.conflicts, instance.intents = [], []

        # 1. coherency + lifecycle on fresh intents; those that pass join the retries
        passed = []
        for intent in sorted(intents, key=lambda i: (i.acl_id, i.intent_id)):
            agent = self.agents[intent.acl_id]
            verdict = self.coherency_check(intent.acl_id, intent.magnitude)
            out.verdicts.append((intent.acl_id, intent.magnitude, verdict))
            change = self.update_lifecycle(agent, verdict)
            if change is not None:
                out.lifecycle_changes.append((intent.acl_id, change[0], change[1]))
            if verdict is _ANOMALOUS:
                out.dropped.append((intent, "anomalous"))
            else:
                passed.append(intent)
        for intent in sorted(retry + passed, key=lambda i: (i.acl_id, i.intent_id)):
            pool[intent.intent_id] = intent

        # 2. freezes from earlier interference rulings: expired ones go, and
        # every freeze left stands this tick
        for key in [k for k, until in self.freezes.items() if until <= tick]:
            del self.freezes[key]
        for intent in [i for i in pool.values() if (i.acl_id, i.target) in self.freezes]:
            out.dropped.append((pool.pop(intent.intent_id), "frozen"))

        # 3. interference detection on recent executions plus this tick's intents
        records = self.detect_interference(tick, pool.values(), state)
        by_pair: dict[tuple[str, str], list[str]] = {}
        if records:
            for intent in pool.values():
                by_pair.setdefault((intent.acl_id, intent.target), []).append(intent.intent_id)
        for record in records:
            out.detected.append(record)
            resolved = self.resolve(record, tick)
            out.resolved.append(resolved)
            for target in resolved.targets:
                for iid in by_pair.get((resolved.resolution.frozen_acl, target), ()):
                    out.dropped.append((pool.pop(iid), "frozen"))

        # 4. resource contention: the record's instance arbitrates now if it
        # acts this tick, else buffers the record with its intents
        contended = self.detect_resource_conflicts(tick, pool.values(), state)
        order = {iid: n for n, iid in enumerate(pool)} if contended else {}
        for record, implicated in contended:
            out.detected.append(record)
            ids = sorted((iid for iid in implicated if iid in pool), key=order.__getitem__)
            instance = record.instance
            if instance.next_tick(tick) > tick:
                instance.conflicts.append((record, [pool.pop(iid) for iid in ids]))
                continue
            resolved = self.resolve(record, tick)
            out.resolved.append(resolved)
            for iid in ids:
                if pool[iid].acl_id != resolved.resolution.winner:
                    out.requeued.append(pool.pop(iid))

        # 5. uninvolved intents wait for their loop's own instance
        for intent in pool.values():
            instance = self.home[intent.acl_id]
            if instance.next_tick(tick) > tick:
                instance.intents.append(intent)
                out.buffered.append(intent)
            else:
                out.survivors.append(intent)
        self._requeued = out.requeued
        return out
