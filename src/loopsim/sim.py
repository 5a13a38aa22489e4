"""Simulation loop: wires traffic, agents, the conflict manager, and the
scheduler into a deterministic tick.

Tick phases, in order:

1. sample demand per region, apply injected events,
2. each agent (sorted by id, skipping suspended ones and off-period ticks)
   monitors, analyzes, and plans,
3. intents are submitted to the conflict manager, each recorded with the
   check tick of its loop's home instance,
4. the manager runs its pipeline (coherency, freezes, interference,
   contention, routing/buffering),
5. surviving intents materialize (pods join ``World.queue``, terminations,
   power taints),
6. one scheduling round drains that queue in order of play (the owning
   loop's priority, then its id, then arrival; NoExecute enforcement, binds,
   preemptions) and keeps only the pods left Pending in it,
7. bookkeeping: capacity and queue checks, idle streaks, conservation counts.

A tick derives what several loops or pods share once: the loops over the same
regions share one summed demand per tick sampled and one truth, each region's
truth is asked once, and bookkeeping walks a node order taken at set-up (no
operation adds or removes a node).

Running the same scenario twice yields byte-identical traces.

The per-tick loops stay lean. The loop, materialize and schedule phases
compare against enum members bound once at module level: on CPython 3.10 and
3.11 a load like ``LifecycleState.SUSPENDED`` goes through
``EnumType.__getattr__``'s hook. ``emit`` stores the keyword dict it is given,
with ``seq``, ``tick`` and ``kind`` added after the payload's keys; an event's
key order means nothing, as every writer sorts keys and events compare as
dicts.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Callable
from dataclasses import dataclass, field

from . import agents as agents_mod
from . import cluster, scenario as scenario_mod, scheduler
from .agents import ActionIntent, ActionKind, LifecycleState, PodSpec
from .audit import Metrics, check_invariants, summarize
from .cluster import POWERED_OFF_KEY, Pod, ResourceVector, Taint, TaintEffect
from .conflicts import ConflictManager, Grant
from .errors import (
    CapacityExceeded, HashMismatch, IndexDrift, InvalidPhase, ValidationError,
)
from .scenario import Scenario
from .traffic import TrafficModel
from .trace import TRACE_FORMAT, Trace, _dump, _line, read_event

__all__ = ["Metrics", "Report", "World", "check_invariants", "load_events_file", "run",
           "summarize", "verify_trace"]

_SUSPENDED = LifecycleState.SUSPENDED
_SCALE_DOWN, _POWER_OFF = ActionKind.SCALE_DOWN, ActionKind.POWER_OFF
_ADDS_PODS = (ActionKind.SCALE_UP, ActionKind.INSTANTIATE)
_BOUND, _PREEMPT = scheduler.DecisionKind.BOUND, scheduler.DecisionKind.PREEMPT
_NO_TARGETS: frozenset[str] = frozenset()


def _summed_demand(traffic: TrafficModel, regions: tuple[str, ...]) -> Callable[[int], float]:
    """Demand over *regions* at a tick, each tick summed once."""
    sums: dict[int, float] = {}

    def demand(tick: int) -> float:
        value = sums.get(tick)
        if value is None:
            value = sums[tick] = sum(traffic.sample(r, tick) for r in regions)
        return value

    return demand


class World:
    def __init__(self, scn: Scenario, extra_events: list[dict] | None = None):
        norm = scn.data
        self.scenario = scn
        self.state = scenario_mod.build_state(norm)
        self.agents = scenario_mod.build_agents(norm)
        self.queue = scenario_mod.build_queue(norm, self.agents)
        self.manager = ConflictManager(norm["manager"], self.agents, norm["trust"])
        self.traffic = scenario_mod.build_traffic(norm)
        self.extra_events = list(extra_events or [])
        if self.extra_events:
            roles = {a.id: a.role.value for a in self.agents.values()}
            self.extra_events = scenario_mod.normalize_events(
                self.extra_events, set(self.state.nodes), roles, label="events"
            )
        self.injected: dict[int, list[dict]] = {}
        for event in list(norm["injected"]) + self.extra_events:
            self.injected.setdefault(event["tick"], []).append(event)
        header = {
            "format": TRACE_FORMAT,
            "scenario": scn.name,
            "scenario_hash": scn.hash,
            "seed": scn.seed,
            "ticks": scn.ticks,
            "extra_events": self.extra_events,
            "initial": [
                {"pod": p["id"], "node": p["node"]} for p in norm["initial_pods"]
            ],
        }
        self.trace = Trace(header)
        self.tick = 0
        self._seq = 0
        self.idle_streaks: dict[str, int] = {n: 0 for n in self.state.nodes}
        # bookkeeping's node order: no operation adds or removes a node
        self._node_ids = sorted(self.state.nodes)
        # each slice loop's requested pod chains, taken whole when it next plans
        self.pending_slices: dict[str, list[tuple[PodSpec, ...]]] = {}
        self._slice_seq = 0

    # -- helpers ---------------------------------------------------------

    def emit(self, kind: str, **payload) -> None:
        payload["seq"] = self._seq
        payload["tick"] = self.tick
        payload["kind"] = kind
        self.trace.events.append(payload)
        self._seq += 1

    # -- tick phases ------------------------------------------------------

    def _phase_traffic_and_events(self) -> None:
        t = self.tick
        for region in sorted(self.traffic.profiles):
            value = self.traffic.sample(region, t)
            self.emit("traffic", region=region, value=value)
        for event in self.injected.get(t, []):
            kind = event["kind"]
            if kind == "taint":
                taint = Taint(event["key"], TaintEffect(event["effect"]))
                cluster.apply_taint(self.state, event["node"], taint)
                self.emit("taint-applied", node=event["node"], key=taint.key,
                          effect=taint.effect.value)
            elif kind == "remove-taint":
                effect = TaintEffect(event["effect"]) if event.get("effect") else None
                cluster.remove_taint(self.state, event["node"], event["key"], effect)
                self.emit("taint-removed", node=event["node"], key=event["key"])
            elif kind == "slice-request":
                chain = scenario_mod.chain_specs(event)
                self.pending_slices.setdefault(event["agent"], []).append(chain)
                self.emit("slice-requested", id=f"slice-req-{self._slice_seq}",
                          agent=event["agent"], links=len(chain))
                self._slice_seq += 1
            elif kind == "exchange-request":
                result = self.manager.broker_exchange(event["source"], event["target"],
                                                      event["artifact"])
                if isinstance(result, Grant):
                    self.emit("exchange-granted", artifact=result.artifact_id,
                              source=result.source, target=result.target,
                              artifact_kind=result.kind)
                    agents_mod.absorb_knowledge(self.agents[result.target], result)
                    self.emit("knowledge-absorbed", acl=result.target,
                              artifact=result.artifact_id, artifact_kind=result.kind)
                else:
                    self.emit("exchange-denied", source=result.source,
                              target=result.target, artifact_kind=result.kind,
                              reason=result.reason)
            else:  # release
                if self.manager.release(event["acl"]):
                    self.emit("agent-released", acl=event["acl"])

    def _phase_agents(self) -> list[tuple[str, list[ActionIntent]]]:
        t = self.tick
        planned: list[tuple[str, list[ActionIntent]]] = []
        traffic = self.traffic
        # the targets of every intent submitted but neither applied nor dropped,
        # by loop; nothing changes them before _phase_submit, which runs after
        # every loop planned
        in_flight = agents_mod.outstanding_targets(self.manager.held())
        # what loops over the same regions share this tick, summed demand and
        # truth, and each region's truth: the same sums in the same order
        shared: dict[tuple[str, ...], tuple[Callable[[int], float], float]] = {}
        region_truth: dict[str, float] = {}
        for acl in sorted(self.agents):
            agent = self.agents[acl]
            if agent.lifecycle is _SUSPENDED:
                continue
            if t % agent.period != 0:
                continue
            regions = agent.regions
            if regions not in shared:
                for r in regions:
                    if r not in region_truth:
                        region_truth[r] = traffic.truth(r, t)
                shared[regions] = (_summed_demand(traffic, regions),
                                   sum(region_truth[r] for r in regions))
            demand, truth = shared[regions]

            samples = agents_mod.monitor(agent, demand, t)
            prediction, agent.predictor = agents_mod.analyze(
                samples, agent.predictor, ground_truth=truth
            )
            self.emit("prediction", acl=acl, value=prediction, truth=truth)

            # validation addresses slice requests to slice loops only, and a
            # slice loop plans one intent per requested chain
            my_slices = tuple(self.pending_slices.pop(acl, ()))
            intents = agents_mod.plan(agent, prediction, t, self.state, self.idle_streaks,
                                      in_flight.get(acl, _NO_TARGETS), my_slices)
            if intents:
                planned.append((acl, intents))
        return planned

    def _phase_submit(self, planned: list[tuple[str, list[ActionIntent]]]) -> list[ActionIntent]:
        submitted: list[ActionIntent] = []
        for acl, intents in planned:
            # every intent a loop plans this tick has its home instance
            check_tick = self.manager.home[acl].next_tick(self.tick)
            for intent in intents:
                self.emit("intent-submitted", id=intent.intent_id, acl=acl,
                          action=intent.kind.value, target=intent.target,
                          magnitude=intent.magnitude, check_tick=check_tick)
            submitted.extend(intents)
        return submitted

    def _phase_manager(self, submitted: list[ActionIntent]):
        t = self.tick
        outcome = self.manager.process_tick(t, submitted, self.state)
        for acl, magnitude, verdict in outcome.verdicts:
            self.emit("coherency", acl=acl, magnitude=magnitude, verdict=verdict.value)
        for acl, old, new in outcome.lifecycle_changes:
            self.emit("lifecycle", acl=acl, before=old, after=new)
        for record in outcome.detected:
            self.emit("conflict-detected", id=record.conflict_id,
                      conflict=record.kind.value,
                      participants=list(record.participants),
                      targets=list(record.targets), instance=record.instance.name)
        for record in outcome.resolved:
            res = record.resolution
            payload = {"id": record.conflict_id, "conflict": record.kind.value,
                       "instance": record.instance.name, "detected_tick": record.tick,
                       "outcome": res.kind}
            if res.kind == "arbitrated":
                payload["winner"] = res.winner
                payload["losers"] = list(res.losers)
            else:
                payload["frozen"] = res.frozen_acl
                payload["until"] = res.until_tick
            self.emit("conflict-resolved", **payload)
        for intent, reason in outcome.dropped:
            self.emit("intent-dropped", id=intent.intent_id, acl=intent.acl_id,
                      reason=reason)
        for intent in outcome.requeued:
            self.emit("intent-requeued", id=intent.intent_id, acl=intent.acl_id,
                      next_tick=t + 1)
        for intent in outcome.buffered:
            self.emit("intent-buffered", id=intent.intent_id, acl=intent.acl_id,
                      until=self.manager.home[intent.acl_id].next_tick(t))
        return outcome

    def _phase_materialize(self, survivors: list[ActionIntent]) -> None:
        t = self.tick
        for intent in sorted(survivors, key=lambda i: (i.acl_id, i.intent_id)):
            agent = self.agents[intent.acl_id]
            kind = intent.kind
            if kind in _ADDS_PODS:
                for spec in intent.pod_specs:
                    pod_id = f"{agent.id}-pod-{agent.pod_seq}"
                    agent.pod_seq += 1
                    pod = Pod(
                        id=pod_id,
                        owner=agent.id,
                        request=spec.request,
                        tolerations=spec.tolerations,
                        priority=agent.priority,
                    )
                    cluster.add_pod(self.state, pod)
                    self.queue.push(pod)
                    self.emit("pod-created", pod=pod_id, acl=agent.id,
                              cpu=spec.request.cpu_millicores,
                              memory=spec.request.memory_mib,
                              priority=agent.priority.value)
            elif kind is _SCALE_DOWN:
                for pod_id in intent.pod_ids:
                    if pod_id not in self.state.pods:
                        continue
                    cluster.terminate(self.state, pod_id)
                    self.emit("pod-terminated", pod=pod_id, acl=intent.acl_id)
            elif kind is _POWER_OFF:
                taint = Taint(POWERED_OFF_KEY, TaintEffect.NO_SCHEDULE)
                cluster.apply_taint(self.state, intent.target, taint)
                self.emit("power-off", node=intent.target, acl=intent.acl_id)
            else:  # POWER_ON
                cluster.remove_taint(self.state, intent.target, POWERED_OFF_KEY)
                self.emit("power-on", node=intent.target, acl=intent.acl_id)
            self.manager.note_execution(t, intent.acl_id, intent.target, intent.direction)
            self.emit("intent-applied", id=intent.intent_id, acl=intent.acl_id)

    def _phase_schedule(self) -> None:
        result = scheduler.coordinate(self.state, self.queue)
        for node_id, pod_id in result.taint_evictions:
            self.emit("pod-evicted", pod=pod_id, node=node_id, cause="no-execute")
        for decision in result.decisions:
            kind = decision.kind
            if kind is _BOUND:
                self.emit("pod-bound", pod=decision.pod_id, node=decision.node_id)
            elif kind is _PREEMPT:
                for victim in decision.victims:
                    self.emit("pod-evicted", pod=victim, node=decision.node_id,
                              cause="preempted")
                self.emit("pod-bound", pod=decision.pod_id, node=decision.node_id,
                          preempted=list(decision.victims))
            else:
                self.emit("pod-pending", pod=decision.pod_id, reason=decision.reason)

    def _phase_bookkeeping(self) -> None:
        state = self.state
        # a Pending pod not in the queue would never be scheduled again
        unqueued = state.pods.keys() - state.bindings.keys() - self.queue.ids()
        if unqueued:
            raise InvalidPhase(min(unqueued), "is Pending but in no scheduler queue at tick end")
        # usage re-summed from the bindings, not read from node_info: bind
        # checks fit against that index, so only this sum can catch it drifting
        bound: dict[str, list[str]] = {node_id: [] for node_id in self._node_ids}
        for pod_id, node_id in state.bindings.items():
            bound[node_id].append(pod_id)
        off = state.powered_off
        pods, nodes, node_info, idle = state.pods, state.nodes, state.node_info, self.idle_streaks
        for node_id, pod_ids in bound.items():
            cpu = memory = 0
            for pod_id in pod_ids:
                request = pods[pod_id].request
                cpu += request.cpu_millicores
                memory += request.memory_mib
            capacity = nodes[node_id].capacity
            if cpu > capacity.cpu_millicores or memory > capacity.memory_mib:
                raise CapacityExceeded(
                    node_id, f"{ResourceVector(cpu, memory)} used of {capacity}")
            info = node_info[node_id]
            if (info.used.cpu_millicores != cpu or info.used.memory_mib != memory
                    or info.pods != tuple(sorted(pod_ids))):
                raise IndexDrift(node_id, f"index has {info.used} for {list(info.pods)}, "
                                          f"bindings give {ResourceVector(cpu, memory)} "
                                          f"for {sorted(pod_ids)}")
            if node_id not in off and not pod_ids:
                idle[node_id] = idle.get(node_id, 0) + 1
            else:
                idle[node_id] = 0
        self.emit("tick-end",
                  bound=len(state.bindings),
                  pending=len(state.pods) - len(state.bindings),
                  terminated=len(state.retired),
                  pods=len(state.pods) + len(state.retired))

    def step(self) -> None:
        self._phase_traffic_and_events()
        planned = self._phase_agents()
        submitted = self._phase_submit(planned)
        outcome = self._phase_manager(submitted)
        self._phase_materialize(outcome.survivors)
        self._phase_schedule()
        self._phase_bookkeeping()
        self.tick += 1


def run(scn: Scenario, extra_events: list[dict] | None = None) -> tuple[Trace, Metrics, World]:
    world = World(scn, extra_events)
    for _ in range(scn.ticks):
        world.step()
    return world.trace, Metrics.from_trace(world.trace), world


# -- verification ---------------------------------------------------------------

@dataclass
class Report:
    divergences: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.violations

    def describe(self) -> str:
        if self.ok:
            return "trace verified: replay identical, all invariants hold"
        parts = []
        if self.divergences:
            parts.append(f"{len(self.divergences)} diverging line(s)")
            for d in self.divergences[:5]:
                parts.append(f"  line {d['line']}: expected {d['expected']!r}")
                parts.append(f"  line {d['line']}:      got {d['actual']!r}")
        for v in self.violations:
            parts.append(f"invariant violated: {v}")
        return "\n".join(parts)


def verify_trace(trace: Trace, scn: Scenario) -> Report:
    """Replay the scenario named by the trace header tick by tick, comparing the
    replayed lines byte for byte with the recorded ones, and re-check invariants
    from the recorded events alone, in the same pass.

    Each replayed line is encoded once. A tick's lines, each followed by
    ``"\\n"``, are one string, checked at once against the recorded text at the
    current offset (``str.startswith``); the text is never split into lines.
    When the text holds that string, the tick's replayed events are its
    recorded events, since the encoding reads back every event a run writes
    as it was. A trace with no recorded text, straight from a run, takes its
    side of each tick from ``Trace.lines``, never building its whole text.
    A tick that differs is compared line by line, and so are the header's
    line, the empty line after the last newline and each recorded line left
    over, expected as ``"<missing>"``; past the text's end each replayed line
    reads as ``"<missing>"``. Only a non-blank line after the header that
    differs, or is left over, is read and checked as ``parse_trace`` would; a
    malformed one is a ``ParseError`` naming its line. Any error is preceded
    by the first malformed line's, as if the whole trace had been parsed
    first."""
    report = Report()
    with trace.parse_errors_first():
        header = trace.header
        if header.get("scenario_hash") != scn.hash:  # a run with --seed or --ticks?
            effective = scenario_mod.with_overrides(scn, header.get("seed"), header.get("ticks"))
            if header.get("scenario_hash") != effective.hash:
                raise HashMismatch(effective.hash, header.get("scenario_hash", ""))
            scn = effective
        world = World(scn, extra_events=header.get("extra_events") or [])
        recorded = _recorded_events(trace, world, scn.ticks, report.divergences)
        report.violations = check_invariants(scn.data, itertools.chain.from_iterable(recorded))
    return report


class _Recorded:
    """A trace's recorded lines, as ``split("\\n")`` gives them, taken in order:
    by offset in its text, or, with no text, from ``Trace.lines``."""

    def __init__(self, trace: Trace):
        self.text, self.pos = trace.text, 0
        self.lines = trace.lines() if trace.text is None else None
        self.held: list[str] = []  # taken and not yet compared, the next one last

    def match(self, lines: list[str]) -> bool:
        """Pass over the next ``len(lines)`` lines if they are *lines*, each
        followed by ``"\\n"``."""
        if self.text is None:
            taken = list(itertools.islice(self.lines, len(lines)))
            # a replayed line is never empty, so none of them is the last one
            if taken == lines:
                return True
            self.held = taken[::-1]
            return False
        chunk = "\n".join([*lines, ""])
        if self.text.startswith(chunk, self.pos):
            self.pos += len(chunk)
            return True
        return False

    def take(self) -> str | None:
        """The next line; None past the last."""
        if self.held:
            return self.held.pop()
        if self.text is None:
            return next(self.lines, None)
        if self.pos > len(self.text):
            return None
        end = self.text.find("\n", self.pos)
        end = len(self.text) if end < 0 else end
        line, self.pos = self.text[self.pos:end], end + 1
        return line

    def more(self) -> bool:
        """Whether a line is left."""
        if self.text is not None:
            return self.pos <= len(self.text)
        self.held = self.held or list(itertools.islice(self.lines, 1))
        return bool(self.held)


def _recorded_events(trace: Trace, world: World, ticks: int, divergences: list[dict]):
    """Step *world* through *ticks* ticks beside the recorded lines, noting each
    line that differs in *divergences*, and yield the recorded events in order,
    one list per tick."""
    header_line = trace.header_line
    recorded = _Recorded(trace)
    number = 1  # the next line's number

    def by_line(lines: list[str], events: list[dict | None]) -> list[dict]:
        """Compare *lines* with the next recorded lines one by one; *events*
        holds each line's replayed event, or None."""
        nonlocal number
        found = []
        for expected, event in zip(lines, events):
            line, number = number, number + 1
            actual = recorded.take()
            if actual is None:
                divergences.append({"line": line, "actual": "<missing>", "expected": expected})
                continue
            if actual != expected:
                divergences.append({"line": line, "actual": actual, "expected": expected})
            if line > header_line:
                if actual == expected and event is not None:
                    found.append(event)
                elif actual.strip():
                    found.append(read_event(actual, line))
        return found

    yield by_line([_dump(world.trace.header)], [None])
    for _ in range(ticks):
        world.step()
        # the replay is held one tick at a time: nothing in the engine reads
        # its events back
        events, world.trace.events = world.trace.events, []
        lines = list(map(_line, events))
        if number > header_line and recorded.match(lines):
            number += len(lines)
            yield events
        else:
            yield by_line(lines, events)
    yield by_line([""], [None])
    while recorded.more():
        yield by_line(["<missing>"], [None])


def load_events_file(path: str) -> list[dict]:
    """Read a JSON-lines events file (as written by the ``release`` command)."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{i}: bad event line: {exc}") from None
            except ValueError:  # an int longer than int's text may be: 4300 digits by default
                raise ValidationError(
                    f"{path}:{i}: bad event line: an integer too long to read") from None
            except RecursionError:
                raise ValidationError(f"{path}:{i}: bad event line: nested too deeply") from None
    return events
