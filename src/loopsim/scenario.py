"""Scenario files: parsing, validation, normalization, and built-ins.

A scenario is a YAML document describing the topology, the control loops, the
demand signals, and any events injected mid-run.  Loading normalizes the
document (all defaults made explicit) and hashes the result; the hash is
stamped into every trace so replays can refuse a mismatched scenario.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass

import yaml

from . import agents as agents_mod
from . import cluster
from .agents import AgentRole, LoopAgent, PodSpec, PredictorState, SizeClass
from .cluster import (
    ClusterState,
    Node,
    Pod,
    PriorityLevel,
    ResourceVector,
    Taint,
    TaintEffect,
    Toleration,
)
from .conflicts import ManagerConfig
from .errors import EmptyScope, ParseError, ValidationError
from .scheduler import SchedulerUnit
from .traffic import RegionProfile, TrafficModel

AGENT_DEFAULTS = {
    "alpha": 0.3,
    "watermark_high": 0.8,
    "watermark_low": 0.3,
    "hysteresis_ticks": 3,
    "idle_ticks": 5,
    "period": 1,
    "span_ticks": 10,
    "pod_capacity_units": 1000.0,
    "node_capacity_units": 1000.0,
}

MANAGER_DEFAULTS = {
    "e2e_period": 5,
    "coherency": {"window": 50, "min_history": 10, "k_sigma": 3.0, "epsilon": 1e-6},
    "lifecycle": {"suspend_after": 3, "reinstate_after": 5},
    "interference": {"window_ticks": 10, "toggle_threshold": 3, "cooldown_ticks": 10},
    "knowledge": {"model_bonus": 0.2},
}

TRAFFIC_DEFAULTS = {"base": 0.0, "amplitude": 0.0, "period": 24, "phase": 0, "sigma": 0.0}

# Largest traffic base, amplitude, sigma or step base, in demand units (and
# phase, in ticks).  A region's demand stays within a few times this, so
# summing the demand of every region an agent watches cannot overflow to
# infinity, and neither can the sine's argument.
MAX_DEMAND = 1e15

EFFECTS = {e.value for e in TaintEffect}
ROLES = {r.value for r in AgentRole}
ARTIFACT_KINDS = {"Model", "Dataset"}
EVENT_KINDS = {"taint", "remove-taint", "slice-request", "exchange-request", "release"}


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    ticks: int
    hash: str
    data: dict


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected a mapping, got {type(value).__name__}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _one_of(value, allowed, what: str, where: str) -> str:
    """*value* when it is one of the *allowed* strings (which an unhashable
    value, such as a list, cannot be)."""
    if not isinstance(value, str) or value not in allowed:
        raise ValidationError(f"{where}: unknown {what} {value!r}")
    return value


def _require(mapping: dict, key: str, where: str):
    _mapping(mapping, where)
    if key not in mapping:
        raise ValidationError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _number(kind: type, value, where: str):
    """``kind(value)`` for kind int or float, as a ``ValidationError`` when
    that fails; the number must also be finite (NaN slips past range checks)
    and, if an int, small enough to become a float where it meets one."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{where}: expected {kind.__name__}, got {value!r}") from None
    if number != number or abs(number) > sys.float_info.max:
        raise ValidationError(f"{where}: must be finite, got {value!r}")
    return number


def _amount(raw: dict, key: str, where: str) -> int:
    """A resource request; a negative one would lower node usage."""
    value = _number(int, _require(raw, key, where), f"{where}: {key}")
    if value < 0:
        raise ValidationError(f"{where}: {key} must be >= 0")
    return value


def _demand(value: float, where: str) -> float:
    """A traffic number; bounded so that summed demand stays finite."""
    if abs(value) > MAX_DEMAND:
        raise ValidationError(f"{where}: must be within ±{MAX_DEMAND:g}, got {value!r}")
    return value


def _pair(value, where: str) -> list:
    """An already-normalized ``[a, b]`` entry."""
    if len(_list(value, where)) != 2:
        raise ValidationError(f"{where}: expected a mapping or a [key, value] pair")
    return value


def _norm_tolerations(raw, where: str) -> list[dict]:
    out = []
    for i, tol in enumerate(_list(raw or [], f"{where}.tolerations")):
        at = f"{where}.tolerations[{i}]"
        key = _require(tol, "key", at)
        effects = _list(_require(tol, "effects", at), f"{at}.effects")
        if not effects:
            raise ValidationError(f"{at}: empty effects list")
        for e in effects:
            _one_of(e, EFFECTS, "effect", at)
        out.append({"key": str(key), "effects": sorted(effects)})
    return sorted(out, key=lambda t: (t["key"], tuple(t["effects"])))


def _tolerations(norm: list[dict]) -> frozenset[Toleration]:
    return frozenset(
        Toleration(t["key"], frozenset(TaintEffect(e) for e in t["effects"]))
        for t in norm
    )


def normalize(data: dict) -> dict:
    """Validate a parsed scenario document and fill in every default.

    Raises ``ValidationError`` on structural problems or dangling references.
    Returns a plain-JSON dict whose canonical dump is stable for hashing.
    """
    if not isinstance(data, dict):
        raise ValidationError("scenario document must be a mapping")
    norm: dict = {}
    norm["name"] = str(_require(data, "name", "scenario"))
    norm["seed"] = _number(int, data.get("seed", 0), "seed")
    norm["ticks"] = _number(int, data.get("ticks", 20), "ticks")
    if norm["ticks"] < 1:
        raise ValidationError("ticks must be >= 1")

    # priority levels
    levels: dict[str, dict] = {}
    default_count = 0
    for i, lvl in enumerate(_list(data.get("priority_levels", []), "priority_levels")):
        name = str(_require(lvl, "name", f"priority_levels[{i}]"))
        if name in levels:
            raise ValidationError(f"duplicate priority level {name!r}")
        entry = {
            "name": name,
            "value": _number(int, _require(lvl, "value", f"priority_levels[{i}]"),
                             f"priority_levels[{i}].value"),
            "preemption": bool(lvl.get("preemption", True)),
            "global_default": bool(lvl.get("global_default", False)),
        }
        default_count += entry["global_default"]
        levels[name] = entry
    if default_count > 1:
        raise ValidationError("more than one priority level marked global_default")
    if default_count == 0:
        if "default" in levels:
            raise ValidationError(
                "a level named 'default' exists but no level is marked global_default"
            )
        levels["default"] = {
            "name": "default", "value": 0, "preemption": False, "global_default": True,
        }
    norm["priority_levels"] = sorted(levels.values(), key=lambda l: l["name"])
    fallback = next(l["name"] for l in norm["priority_levels"] if l["global_default"])

    # topology (an already-normalized document keeps nodes at the top level)
    topo = data.get("topology")
    if topo is None:
        topo = {"nodes": data["nodes"]} if "nodes" in data else _require(
            data, "topology", "scenario"
        )
    nodes: dict[str, dict] = {}
    node_regions: dict[str, str] = {}
    for i, node in enumerate(_list(_require(topo, "nodes", "topology"), "topology.nodes")):
        node_id = str(_require(node, "id", f"topology.nodes[{i}]"))
        if node_id in nodes:
            raise ValidationError(f"duplicate node id {node_id!r}")
        cpu = _number(int, _require(node, "cpu", f"node {node_id}"), f"node {node_id}: cpu")
        memory = _number(
            int, _require(node, "memory", f"node {node_id}"), f"node {node_id}: memory"
        )
        if cpu <= 0 or memory <= 0:
            raise ValidationError(f"node {node_id}: capacity must be positive")
        taints = []
        for j, taint in enumerate(_list(node.get("taints", []), f"node {node_id}: taints")):
            effect = _require(taint, "effect", f"node {node_id} taint[{j}]")
            _one_of(effect, EFFECTS, "taint effect", f"node {node_id}")
            taints.append({"key": str(_require(taint, "key", f"node {node_id} taint[{j}]")),
                           "effect": effect})
        nodes[node_id] = {
            "id": node_id,
            "region": str(_require(node, "region", f"node {node_id}")),
            "cpu": cpu,
            "memory": memory,
            "taints": sorted(taints, key=lambda t: (t["key"], t["effect"])),
        }
        node_regions[node_id] = nodes[node_id]["region"]
    norm["nodes"] = sorted(nodes.values(), key=lambda n: n["id"])
    regions = {n["region"] for n in norm["nodes"]}
    overlap = regions & set(nodes)
    if overlap:
        raise ValidationError(f"region names collide with node ids: {sorted(overlap)}")

    # agents
    agent_entries: dict[str, dict] = {}
    for i, raw in enumerate(_list(data.get("agents", []), "agents")):
        agent_id = str(_require(raw, "id", f"agents[{i}]"))
        if agent_id in agent_entries:
            raise ValidationError(f"duplicate agent id {agent_id!r}")
        role = _one_of(raw.get("role", "scaler"), ROLES, "role", f"agent {agent_id}")
        scope = [str(s) for s in _list(_require(raw, "scope", f"agent {agent_id}"),
                                       f"agent {agent_id}: scope")]
        try:
            agents_mod.classify_size(frozenset(scope), node_regions)
        except (EmptyScope, ValueError) as exc:
            raise ValidationError(f"agent {agent_id}: {exc}") from None
        priority = str(raw.get("priority", fallback))
        if priority not in levels:
            raise ValidationError(f"agent {agent_id}: unknown priority {priority!r}")
        entry = {"id": agent_id, "role": role, "scope": sorted(scope), "priority": priority}
        for key, default in AGENT_DEFAULTS.items():
            value = raw.get(key, default)
            entry[key] = _number(type(default), value, f"agent {agent_id}: {key}")
        if not 0.0 < entry["alpha"] <= 1.0:
            raise ValidationError(f"agent {agent_id}: alpha must be in (0, 1]")
        if not 0.0 <= entry["watermark_low"] < entry["watermark_high"]:
            raise ValidationError(f"agent {agent_id}: need 0 <= low < high watermarks")
        if entry["period"] < 1:
            raise ValidationError(f"agent {agent_id}: period must be >= 1")
        if entry["span_ticks"] < 1:
            raise ValidationError(f"agent {agent_id}: span_ticks must be >= 1")
        if entry["hysteresis_ticks"] < 0:
            raise ValidationError(f"agent {agent_id}: hysteresis_ticks must be >= 0")
        if not entry["pod_capacity_units"] > 0:
            raise ValidationError(f"agent {agent_id}: pod_capacity_units must be > 0")
        entry["target"] = str(raw.get("target", f"svc-{agent_id}"))
        template = raw.get("pod_template")
        if template is not None:
            entry["pod_template"] = {
                "cpu": _amount(template, "cpu", f"agent {agent_id} pod_template"),
                "memory": _amount(template, "memory", f"agent {agent_id} pod_template"),
                "tolerations": _norm_tolerations(
                    template.get("tolerations"), f"agent {agent_id}"
                ),
            }
        else:
            entry["pod_template"] = None
        agent_entries[agent_id] = entry
    norm["agents"] = sorted(agent_entries.values(), key=lambda a: a["id"])

    # initial pods
    pods: dict[str, dict] = {}
    for i, raw in enumerate(_list(data.get("initial_pods", []), "initial_pods")):
        pod_id = str(_require(raw, "id", f"initial_pods[{i}]"))
        if pod_id in pods:
            raise ValidationError(f"duplicate pod id {pod_id!r}")
        node_id = str(_require(raw, "node", f"pod {pod_id}"))
        if node_id not in nodes:
            raise ValidationError(f"pod {pod_id}: unknown node {node_id!r}")
        priority = str(raw.get("priority", fallback))
        if priority not in levels:
            raise ValidationError(f"pod {pod_id}: unknown priority {priority!r}")
        pods[pod_id] = {
            "id": pod_id,
            "owner": str(_require(raw, "owner", f"pod {pod_id}")),
            "node": node_id,
            "cpu": _amount(raw, "cpu", f"pod {pod_id}"),
            "memory": _amount(raw, "memory", f"pod {pod_id}"),
            "priority": priority,
            "tolerations": _norm_tolerations(raw.get("tolerations"), f"pod {pod_id}"),
        }
    norm["initial_pods"] = sorted(pods.values(), key=lambda p: p["id"])
    # an agent names the pods it creates <id>-pod-<n>, counting on from the
    # initial pods it owns; no initial pod may hold one of those names
    owned = Counter(p["owner"] for p in pods.values())
    for pod_id in pods:
        match = re.fullmatch(r"(.+)-pod-(0|[1-9][0-9]*)", pod_id)
        if match and match[1] in agent_entries and int(match[2]) >= owned[match[1]]:
            raise ValidationError(
                f"pod {pod_id}: id is taken by the pods agent {match[1]!r} creates "
                f"({match[1]}-pod-{owned[match[1]]} onward)"
            )

    # trust relationships
    trust: dict[str, list] = {}
    for source, entries in _mapping(data.get("trust") or {}, "trust").items():
        if source not in agent_entries:
            raise ValidationError(f"trust: unknown source agent {source!r}")
        where = f"trust[{source}]"
        pairs = []
        for entry in _list(entries, where):
            if isinstance(entry, dict):
                target = str(_require(entry, "acl", where))
                kinds = _list(_require(entry, "kinds", where), f"{where}.kinds")
            else:  # already-normalized [target, kind] pair
                target, kind = _pair(entry, where)
                target, kinds = str(target), [kind]
            if target not in agent_entries:
                raise ValidationError(f"{where}: unknown agent {target!r}")
            for kind in kinds:
                pairs.append([target, _one_of(kind, ARTIFACT_KINDS, "artifact kind", where)])
        trust[str(source)] = sorted(pairs)
    norm["trust"] = dict(sorted(trust.items()))

    # manager configuration
    raw_mgr = _mapping(data.get("manager") or {}, "manager")
    mgr: dict = {"e2e_period": _number(
        int, raw_mgr.get("e2e_period", MANAGER_DEFAULTS["e2e_period"]), "manager.e2e_period"
    )}
    if mgr["e2e_period"] < 1:
        raise ValidationError("manager.e2e_period must be >= 1")
    for section in ("coherency", "lifecycle", "interference", "knowledge"):
        defaults = MANAGER_DEFAULTS[section]
        raw_section = _mapping(raw_mgr.get(section) or {}, f"manager.{section}")
        block = {}
        for key, default in defaults.items():
            block[key] = _number(
                type(default), raw_section.get(key, default), f"manager.{section}.{key}"
            )
        mgr[section] = block
    if mgr["coherency"]["window"] < 1 or mgr["coherency"]["min_history"] < 1:
        raise ValidationError("manager.coherency: window and min_history must be >= 1")
    if not 0.0 <= mgr["knowledge"]["model_bonus"] <= 1.0:
        raise ValidationError("manager.knowledge.model_bonus must be in [0, 1]")
    norm["manager"] = mgr

    # traffic
    profiles = {}
    for region, raw in _mapping(data.get("traffic") or {}, "traffic").items():
        if region not in regions:
            raise ValidationError(f"traffic: unknown region {region!r}")
        _mapping(raw, f"traffic[{region}]")
        profile = {}
        for key, default in TRAFFIC_DEFAULTS.items():
            profile[key] = _number(type(default), raw.get(key, default),
                                   f"traffic[{region}].{key}")
        if profile["period"] < 1:
            raise ValidationError(f"traffic[{region}]: period must be >= 1")
        if profile["sigma"] < 0:
            raise ValidationError(f"traffic[{region}]: sigma must be >= 0")
        for key in ("base", "amplitude", "sigma", "phase"):
            _demand(profile[key], f"traffic[{region}].{key}")
        steps = []
        for j, step in enumerate(_list(raw.get("steps", []), f"traffic[{region}].steps")):
            where = f"traffic[{region}].steps[{j}]"
            if isinstance(step, dict):
                at = _require(step, "at", where)
                base = _require(step, "base", where)
            else:  # already-normalized [at, base] pair
                at, base = _pair(step, where)
            steps.append([_number(int, at, f"{where}.at"),
                          _demand(_number(float, base, f"{where}.base"), f"{where}.base")])
        profile["steps"] = sorted(steps)
        profiles[str(region)] = profile
    for region in regions:
        profiles.setdefault(region, dict(TRAFFIC_DEFAULTS, steps=[]))
    norm["traffic"] = dict(sorted(profiles.items()))

    # injected events
    agent_roles = {a: e["role"] for a, e in agent_entries.items()}
    norm["injected"] = normalize_events(data.get("injected", []), set(nodes), agent_roles)

    _check_initial_placement(norm)
    return norm


def normalize_events(
    raw_events, nodes: set[str], agent_roles: dict[str, str], label: str = "injected"
) -> list[dict]:
    """Validate and normalize a list of injectable events against a topology."""
    out = []
    for i, raw in enumerate(_list(raw_events, label)):
        where = f"{label}[{i}]"
        kind = _one_of(_require(raw, "kind", where), EVENT_KINDS, "event kind", where)
        tick = _number(int, _require(raw, "tick", where), f"{where}.tick")
        if tick < 0:
            raise ValidationError(f"{where}: tick must be >= 0")
        event: dict = {"tick": tick, "kind": kind}
        if kind in ("taint", "remove-taint"):
            node_id = str(_require(raw, "node", where))
            if node_id not in nodes:
                raise ValidationError(f"{where}: unknown node {node_id!r}")
            event["node"] = node_id
            event["key"] = str(_require(raw, "key", where))
            effect = _require(raw, "effect", where) if kind == "taint" else raw.get("effect")
            if kind == "taint" or effect is not None:
                _one_of(effect, EFFECTS, "effect", where)
            event["effect"] = effect
        elif kind == "slice-request":
            agent_id = str(_require(raw, "agent", where))
            if agent_id not in agent_roles:
                raise ValidationError(f"{where}: unknown agent {agent_id!r}")
            if agent_roles[agent_id] != AgentRole.SLICE.value:
                raise ValidationError(f"{where}: agent {agent_id!r} does not place slices")
            chain = _list(_require(raw, "chain", where), f"{where}.chain")
            if not chain:
                raise ValidationError(f"{where}: empty slice chain")
            event["agent"] = agent_id
            event["chain"] = [
                {
                    "cpu": _amount(link, "cpu", f"{where}.chain[{j}]"),
                    "memory": _amount(link, "memory", f"{where}.chain[{j}]"),
                    "tolerations": _norm_tolerations(
                        link.get("tolerations"), f"{where}.chain[{j}]"
                    ),
                }
                for j, link in enumerate(chain)
            ]
        elif kind == "exchange-request":
            for field_name in ("source", "target"):
                acl = str(_require(raw, field_name, where))
                if acl not in agent_roles:
                    raise ValidationError(f"{where}: unknown agent {acl!r}")
                event[field_name] = acl
            event["artifact"] = _one_of(
                _require(raw, "artifact", where), ARTIFACT_KINDS, "artifact kind", where
            )
        else:  # release
            event["acl"] = str(_require(raw, "acl", where))
        out.append(event)
    return out


def _check_initial_placement(norm: dict) -> None:
    """Initial pods must tolerate their node and fit together."""
    state, _ = build_state(norm)
    del state  # build_state raises ValidationError on any violation


def scenario_hash(norm: dict) -> str:
    dump = json.dumps(norm, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(dump.encode()).hexdigest()


def from_dict(data: dict, seed: int | None = None, ticks: int | None = None) -> Scenario:
    if not isinstance(data, dict):
        raise ValidationError("scenario document must be a mapping")
    data = dict(data)
    if seed is not None:
        data["seed"] = seed
    if ticks is not None:
        data["ticks"] = ticks
    norm = normalize(data)
    return Scenario(norm["name"], norm["seed"], norm["ticks"], scenario_hash(norm), norm)


def loads(text: str, seed: int | None = None, ticks: int | None = None) -> Scenario:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ParseError(f"invalid scenario YAML: {exc}", line) from None
    return from_dict(data or {}, seed=seed, ticks=ticks)


def load_scenario(source: str, seed: int | None = None, ticks: int | None = None) -> Scenario:
    """Load a built-in scenario by name, or any YAML file by path."""
    if source in BUILTIN_SCENARIOS:
        return loads(BUILTIN_SCENARIOS[source], seed=seed, ticks=ticks)
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            return loads(fh.read(), seed=seed, ticks=ticks)
    raise ParseError(f"no built-in scenario or file named {source!r}")


def list_scenarios() -> list[str]:
    return sorted(BUILTIN_SCENARIOS)


# -- builders ---------------------------------------------------------------


def priority_levels(norm: dict) -> dict[str, PriorityLevel]:
    return {
        l["name"]: PriorityLevel(l["name"], l["value"], l["preemption"], l["global_default"])
        for l in norm["priority_levels"]
    }


def build_state(norm: dict) -> tuple[ClusterState, dict[str, str]]:
    levels = priority_levels(norm)
    nodes = {
        entry["id"]: Node(
            id=entry["id"],
            region=entry["region"],
            capacity=ResourceVector(entry["cpu"], entry["memory"]),
            taints=frozenset(
                Taint(t["key"], TaintEffect(t["effect"])) for t in entry["taints"]
            ),
        )
        for entry in norm["nodes"]
    }
    state = ClusterState(nodes)
    for entry in norm["initial_pods"]:
        pod = Pod(
            id=entry["id"],
            owner=entry["owner"],
            request=ResourceVector(entry["cpu"], entry["memory"]),
            tolerations=_tolerations(entry["tolerations"]),
            priority=levels[entry["priority"]],
        )
        cluster.add_pod(state, pod)
        try:
            cluster.bind(state, pod.id, entry["node"])
        except Exception as exc:
            raise ValidationError(f"initial pod {pod.id}: {exc}") from None
    node_regions = {n["id"]: n["region"] for n in norm["nodes"]}
    return state, node_regions


def build_agents(norm: dict) -> dict[str, LoopAgent]:
    levels = priority_levels(norm)
    node_regions = {n["id"]: n["region"] for n in norm["nodes"]}
    agents: dict[str, LoopAgent] = {}
    owned = {}
    for pod in norm["initial_pods"]:
        owned[pod["owner"]] = owned.get(pod["owner"], 0) + 1
    for entry in norm["agents"]:
        scope = frozenset(entry["scope"])
        template = None
        if entry["pod_template"] is not None:
            template = PodSpec(
                request=ResourceVector(
                    entry["pod_template"]["cpu"], entry["pod_template"]["memory"]
                ),
                tolerations=_tolerations(entry["pod_template"]["tolerations"]),
            )
        agent = LoopAgent(
            id=entry["id"],
            role=AgentRole(entry["role"]),
            scope=scope,
            size=agents_mod.classify_size(scope, node_regions),
            priority=levels[entry["priority"]],
            predictor=PredictorState(alpha=entry["alpha"]),
            pod_template=template,
            pod_capacity_units=entry["pod_capacity_units"],
            node_capacity_units=entry["node_capacity_units"],
            watermark_high=entry["watermark_high"],
            watermark_low=entry["watermark_low"],
            hysteresis_ticks=entry["hysteresis_ticks"],
            idle_ticks=entry["idle_ticks"],
            period=entry["period"],
            span_ticks=entry["span_ticks"],
            target=entry["target"],
            pod_seq=owned.get(entry["id"], 0),
        )
        agents[agent.id] = agent
    return agents


def build_units(norm: dict, agents: dict[str, LoopAgent]) -> dict[str, SchedulerUnit]:
    levels = priority_levels(norm)
    units = {
        acl: SchedulerUnit(acl, agent.priority, []) for acl, agent in agents.items()
    }
    for pod in norm["initial_pods"]:
        owner = pod["owner"]
        if owner not in units:
            units[owner] = SchedulerUnit(owner, levels[pod["priority"]], [])
    return units


def build_manager_config(norm: dict) -> ManagerConfig:
    mgr = norm["manager"]
    return ManagerConfig(
        e2e_period=mgr["e2e_period"],
        coherency_window=mgr["coherency"]["window"],
        coherency_min_history=mgr["coherency"]["min_history"],
        coherency_k_sigma=mgr["coherency"]["k_sigma"],
        coherency_epsilon=mgr["coherency"]["epsilon"],
        suspend_after=mgr["lifecycle"]["suspend_after"],
        reinstate_after=mgr["lifecycle"]["reinstate_after"],
        interference_window=mgr["interference"]["window_ticks"],
        toggle_threshold=mgr["interference"]["toggle_threshold"],
        freeze_cooldown=mgr["interference"]["cooldown_ticks"],
        model_bonus=mgr["knowledge"]["model_bonus"],
    )


def build_traffic(norm: dict) -> TrafficModel:
    profiles = {
        region: RegionProfile(
            base=raw["base"],
            amplitude=raw["amplitude"],
            period=raw["period"],
            phase=raw["phase"],
            sigma=raw["sigma"],
            steps=tuple((int(t), float(v)) for t, v in raw["steps"]),
        )
        for region, raw in norm["traffic"].items()
    }
    return TrafficModel(profiles, norm["seed"])


def build_trust(norm: dict) -> dict[str, set[tuple[str, str]]]:
    return {
        source: {(target, kind) for target, kind in pairs}
        for source, pairs in norm["trust"].items()
    }


def chain_specs(event: dict) -> tuple[PodSpec, ...]:
    return tuple(
        PodSpec(
            request=ResourceVector(link["cpu"], link["memory"]),
            tolerations=_tolerations(link["tolerations"]),
        )
        for link in event["chain"]
    )


# -- built-in scenarios --------------------------------------------------------

BUILTIN_SCENARIOS: dict[str, str] = {
    "case1": """\
name: case1
seed: 42
ticks: 4
priority_levels:
  - {name: gold, value: 10}
  - {name: silver, value: 5}
topology:
  nodes:
    - {id: core-toronto, region: toronto, cpu: 8000, memory: 16384}
    - {id: edge-calgary, region: calgary, cpu: 2000, memory: 4096}
    - id: edge-waterloo
      region: waterloo
      cpu: 2000
      memory: 4096
      taints:
        - {key: acl1, effect: PreferNoSchedule}
        - {key: acl2, effect: PreferNoSchedule}
agents:
  - id: acl1
    role: scaler
    scope: [waterloo]
    priority: gold
    alpha: 1.0
    pod_capacity_units: 2500
    pod_template:
      cpu: 1500
      memory: 3072
      tolerations:
        - {key: acl1, effects: [PreferNoSchedule]}
  - id: acl2
    role: scaler
    scope: [waterloo]
    priority: silver
    alpha: 1.0
    pod_capacity_units: 2500
    pod_template:
      cpu: 1500
      memory: 3072
      tolerations:
        - {key: acl2, effects: [PreferNoSchedule]}
traffic:
  waterloo: {base: 1000}
""",
    "case2": """\
name: case2
seed: 7
ticks: 3
priority_levels:
  - {name: gold, value: 10}
  - {name: silver, value: 5}
  - {name: bronze, value: 3}
topology:
  nodes:
    - {id: core-toronto, region: toronto, cpu: 8000, memory: 16384}
    - id: edge-calgary
      region: calgary
      cpu: 2000
      memory: 4096
      taints:
        - {key: acl1, effect: PreferNoSchedule}
        - {key: acl2, effect: PreferNoSchedule}
    - {id: edge-waterloo, region: waterloo, cpu: 2000, memory: 4096}
agents:
  - id: acl1
    role: scaler
    scope: [waterloo]
    priority: gold
    alpha: 1.0
    pod_capacity_units: 1500
    pod_template:
      cpu: 1500
      memory: 3072
      tolerations:
        - {key: acl1, effects: [NoExecute]}
initial_pods:
  - id: stream-a
    owner: acl2
    node: edge-waterloo
    cpu: 1000
    memory: 2048
    priority: silver
    tolerations:
      - {key: acl2, effects: [PreferNoSchedule]}
  - id: stream-b
    owner: acl3
    node: edge-waterloo
    cpu: 1000
    memory: 2048
    priority: bronze
  - id: tenant-web
    owner: tenant
    node: edge-calgary
    cpu: 500
    memory: 1024
traffic:
  waterloo: {base: 1200}
injected:
  - {tick: 0, kind: taint, node: edge-waterloo, key: acl1, effect: NoExecute}
""",
    "three-acl-conflict": """\
name: three-acl-conflict
seed: 11
ticks: 16
priority_levels:
  - {name: platinum, value: 20}
  - {name: gold, value: 10}
  - {name: silver, value: 5}
topology:
  nodes:
    - {id: core-toronto, region: toronto, cpu: 8000, memory: 16384}
    - {id: edge-calgary, region: calgary, cpu: 2000, memory: 4096}
    - id: edge-waterloo
      region: waterloo
      cpu: 2000
      memory: 4096
      taints:
        - {key: slice, effect: PreferNoSchedule}
agents:
  - id: ran
    role: scaler
    scope: [waterloo]
    priority: gold
    alpha: 1.0
    pod_capacity_units: 2000
    pod_template: {cpu: 1000, memory: 2048}
  - id: core
    role: scaler
    scope: [toronto]
    priority: silver
    alpha: 1.0
    pod_capacity_units: 2000
    pod_template: {cpu: 1000, memory: 2048}
  - id: slice
    role: slice
    scope: [e2e]
    priority: platinum
initial_pods:
  - {id: ran-edge-a, owner: ran, node: edge-waterloo, cpu: 1000, memory: 2048, priority: gold}
  - {id: core-svc-a, owner: core, node: core-toronto, cpu: 1000, memory: 2048, priority: silver}
trust:
  ran:
    - {acl: core, kinds: [Model]}
traffic:
  waterloo:
    base: 1000
    sigma: 10
    steps:
      - {at: 7, base: 400}
  toronto:
    base: 1000
    sigma: 10
    steps:
      - {at: 7, base: 400}
injected:
  - {tick: 2, kind: exchange-request, source: ran, target: core, artifact: Model}
  - tick: 7
    kind: slice-request
    agent: slice
    chain:
      - cpu: 500
        memory: 1024
        tolerations:
          - {key: slice, effects: [PreferNoSchedule]}
      - cpu: 500
        memory: 1024
""",
    "pingpong": """\
name: pingpong
seed: 5
ticks: 12
priority_levels:
  - {name: flow, value: 7}
  - {name: watt, value: 3}
topology:
  nodes:
    - {id: core-toronto, region: toronto, cpu: 8000, memory: 16384}
    - {id: edge-calgary, region: calgary, cpu: 2000, memory: 4096}
    - {id: edge-waterloo, region: waterloo, cpu: 2000, memory: 4096}
agents:
  - id: energy-saver
    role: energy
    scope: [calgary]
    priority: watt
    idle_ticks: 2
  - id: load-router
    role: balancer
    scope: [calgary]
    priority: flow
    alpha: 1.0
    node_capacity_units: 1000
traffic:
  calgary: {base: 500}
""",
}
