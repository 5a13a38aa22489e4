"""Scenario files: parsing, validation, normalization, and built-ins.

A scenario is a YAML document describing the topology, the control loops, the
demand signals, and any events injected mid-run.  Loading normalizes the
document (all defaults made explicit) and hashes the result; the hash is
stamped into every trace so replays can refuse a mismatched scenario.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass

import yaml

from . import agents as agents_mod
from . import cluster
from .agents import AgentRole, LoopAgent, PodSpec, PredictorState
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
from .errors import EmptyScope, ParseError, ValidationError
from .scheduler import PendingQueue
from .traffic import RegionProfile, TrafficModel

# Largest traffic base, amplitude, sigma or step base, in demand units (and
# phase, in ticks).  A region's demand stays within a few times this, so
# summing the demand of every region an agent watches cannot overflow to
# infinity, and neither can the sine's argument.
MAX_DEMAND = 1e15

# PyYAML's LibYAML bindings when it has them: the same data as its pure-Python
# loader, about 8x faster.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

# Deepest nesting of collections a scenario document may have; the built-ins
# nest at most 8 deep.  Both loaders build the tree by recursion: the
# pure-Python one raises RecursionError past about 1000 levels, and LibYAML's
# crashes the process with a segmentation fault past some tens of thousands.
MAX_DEPTH = 64

EFFECTS = frozenset(e.value for e in TaintEffect)
ROLES = frozenset(r.value for r in AgentRole)
ARTIFACT_KINDS = frozenset({"Model", "Dataset"})

REQUIRED = object()  # the default of a field that has none


@dataclass(frozen=True)
class Field:
    """One scalar key of a scenario mapping.

    *kind* is int, float, str, bool or the frozenset of allowed strings; str
    accepts any scalar and converts it, and bool accepts only a bool.  A field
    without a default is required, and one whose default is None may also be
    given as null.  A number must lie within [*low*, *high*], or (*low*,
    *high*] when *low_open*; a missing bound is no bound.  A str field with a
    *ref*, ``"node"`` or ``"agent"``, must name one that exists.
    """

    kind: object
    default: object = REQUIRED
    low: float | None = None
    high: float | None = None
    low_open: bool = False
    ref: str | None = None

    def bounds(self) -> str:
        """The allowed range as text, such as ``>= 1`` or ``in (0, 1]``."""
        if self.low is None:
            return ""
        if self.high is None:
            return f"{'>' if self.low_open else '>='} {self.low:g}"
        return f"in {'(' if self.low_open else '['}{self.low:g}, {self.high:g}]"


# The field tables, each reference to a node or an agent included.  normalize
# reads the lists, those of unique names through _keyed, and checks by hand the
# other rules that tie two fields together.
SCENARIO = {"name": Field(str), "seed": Field(int, 0), "ticks": Field(int, 20, low=1)}
PRIORITY_LEVEL = {
    "name": Field(str),
    "value": Field(int),
    "preemption": Field(bool, True),
    "global_default": Field(bool, False),
}
NODE = {
    "region": Field(str),
    "cpu": Field(int, low=0, low_open=True),
    "memory": Field(int, low=0, low_open=True),
}
TAINT = {"key": Field(str), "effect": Field(EFFECTS)}
TOLERATION = {"key": Field(str)}
# a negative request would lower node usage
REQUEST = {"cpu": Field(int, low=0), "memory": Field(int, low=0)}
INITIAL_POD = {"owner": Field(str), "node": Field(str, ref="node"), **REQUEST}
AGENT = {
    "role": Field(ROLES, "scaler"),
    "alpha": Field(float, 0.3, low=0, high=1, low_open=True),
    "watermark_high": Field(float, 0.8),
    "watermark_low": Field(float, 0.3, low=0),
    "hysteresis_ticks": Field(int, 3, low=0),
    "idle_ticks": Field(int, 5, low=0),
    "period": Field(int, 1, low=1),
    "span_ticks": Field(int, 10, low=1),
    "pod_capacity_units": Field(float, 1000.0, low=0, low_open=True),
    "node_capacity_units": Field(float, 1000.0, low=0, low_open=True),
}
# a nested table is a section that may be left out or null
MANAGER = {
    "e2e_period": Field(int, 5, low=1),
    "coherency": {
        "window": Field(int, 50, low=1),
        "min_history": Field(int, 10, low=1),
        "k_sigma": Field(float, 3.0, low=0),
        "epsilon": Field(float, 1e-6, low=0),
    },
    "lifecycle": {
        "suspend_after": Field(int, 3, low=1),
        "reinstate_after": Field(int, 5, low=1),
    },
    "interference": {
        "window_ticks": Field(int, 10, low=1),
        "toggle_threshold": Field(int, 3, low=1),
        "cooldown_ticks": Field(int, 10, low=0),
    },
    # a huge bonus would overflow the prediction
    "knowledge": {"model_bonus": Field(float, 0.2, low=0, high=1)},
}
TRAFFIC = {
    "base": Field(float, 0.0, -MAX_DEMAND, MAX_DEMAND),
    "amplitude": Field(float, 0.0, -MAX_DEMAND, MAX_DEMAND),
    "period": Field(int, 24, low=1),
    "phase": Field(int, 0, -MAX_DEMAND, MAX_DEMAND),
    "sigma": Field(float, 0.0, 0, MAX_DEMAND),
}
TRUST = {"acl": Field(str, ref="agent")}
STEP = {"at": Field(int), "base": Field(float, REQUIRED, -MAX_DEMAND, MAX_DEMAND)}
_TICK = {"tick": Field(int, low=0)}
_NODE, _AGENT = Field(str, ref="node"), Field(str, ref="agent")
EVENTS = {
    "taint": {**_TICK, "node": _NODE, "key": Field(str), "effect": Field(EFFECTS)},
    "remove-taint": {**_TICK, "node": _NODE, "key": Field(str), "effect": Field(EFFECTS, None)},
    "slice-request": {**_TICK, "agent": _AGENT},
    "exchange-request": {
        **_TICK, "source": _AGENT, "target": _AGENT, "artifact": Field(ARTIFACT_KINDS),
    },
    "release": {**_TICK, "acl": _AGENT},
}


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


def _shown(value) -> str:
    """*value* as an error message quotes it: a scalar's repr, a list's or a
    mapping's type name.  Through aliases a few bytes of YAML can name a list
    of any size."""
    if isinstance(value, (list, tuple, dict)):
        return type(value).__name__
    return repr(value)


def _text(value, where: str) -> str:
    """``str(value)`` for a scalar; a list or a mapping is refused."""
    if isinstance(value, (list, tuple, dict)):
        raise ValidationError(f"{where}: expected text, got {_shown(value)}")
    return str(value)


def _one_of(value, allowed, what: str, where: str) -> str:
    """*value* when it is one of the *allowed* strings (which an unhashable
    value, such as a list, cannot be)."""
    if not isinstance(value, str) or value not in allowed:
        raise ValidationError(f"{where}: unknown {what} {_shown(value)}")
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
        raise ValidationError(f"{where}: expected {kind.__name__}, got {_shown(value)}") from None
    if number != number or abs(number) > sys.float_info.max:
        raise ValidationError(f"{where}: must be finite, got {value!r}")
    return number


def _fields(raw, table: dict, where: str, names: dict | None = None) -> dict:
    """Check the mapping *raw* against a field *table* and return its fields
    in table order, defaults filled in.  Given *names*, a field with a ref
    must be one of ``names[ref]``.  A nested table's section may have no
    other keys; keys of *raw* outside the table are left to the caller."""
    _mapping(raw, where)
    out = {}
    for key, spec in table.items():
        if isinstance(spec, dict):
            section = raw.get(key) or {}
            out[key] = _fields(section, spec, f"{where}.{key}", names)
            _only(section, spec, f"{where}.{key}")
            continue
        value = raw.get(key, spec.default)
        if value is REQUIRED:
            raise ValidationError(f"{where}: missing required key {key!r}")
        if spec.kind is int or spec.kind is float:
            value = _number(spec.kind, value, f"{where}: {key}")
            low, high = spec.low, spec.high
            if (low is not None and (value <= low if spec.low_open else value < low)
                    or high is not None and value > high):
                raise ValidationError(f"{where}: {key} must be {spec.bounds()}, got {value!r}")
        elif spec.kind is str:
            value = _text(value, f"{where}: {key}")
            if spec.ref is not None and names is not None:
                _one_of(value, names[spec.ref], spec.ref, where)
        elif spec.kind is bool:
            if type(value) is not bool:  # bool("false") would be True
                raise ValidationError(f"{where}: {key}: expected bool, got {_shown(value)}")
        elif value is not None or spec.default is not None:
            _one_of(value, spec.kind, key, where)
        out[key] = value
    return out


def _keyed(raw, label: str, key: str, noun: str):
    """Each entry of the list *raw* as (index, name, entry), its name the text
    of its required *key*; a name an earlier entry has is refused."""
    seen = set()
    for i, entry in enumerate(_list(raw, label)):
        name = _text(_require(entry, key, f"{label}[{i}]"), f"{label}[{i}]: {key}")
        if name in seen:
            raise ValidationError(f"duplicate {noun} {name!r}")
        seen.add(name)
        yield i, name, entry


def _only(raw: dict, known, where: str) -> None:
    """Refuse the first key of the mapping *raw* that *known* (a field table,
    or the entry normalized from *raw*) lacks: a misspelt key would otherwise
    load as its default.  Called once every key of *raw* is read, so the
    errors those keys hold come first."""
    for key in raw:
        if key not in known:
            raise ValidationError(f"{where}: unknown key {_shown(key)}")


def _norm_tolerations(raw, where: str) -> list[dict]:
    out = []
    for i, tol in enumerate(_list(raw or [], f"{where}.tolerations")):
        at = f"{where}.tolerations[{i}]"
        entry = _fields(tol, TOLERATION, at)
        if entry["key"] == cluster.POWERED_OFF_KEY:
            raise ValidationError(f"{at}: the key {entry['key']!r} is reserved")
        effects = _list(_require(tol, "effects", at), f"{at}.effects")
        if not effects:
            raise ValidationError(f"{at}: empty effects list")
        for e in effects:
            _one_of(e, EFFECTS, "effect", at)
        entry["effects"] = sorted(effects)
        _only(tol, entry, at)
        out.append(entry)
    return sorted(out, key=lambda t: (t["key"], tuple(t["effects"])))


def _request(raw, where: str) -> dict:
    """A pod's resource request and tolerations."""
    request = {**_fields(raw, REQUEST, where),
               "tolerations": _norm_tolerations(raw.get("tolerations"), where)}
    _only(raw, request, where)
    return request


def _tolerations(norm: list[dict]) -> frozenset[Toleration]:
    return frozenset(
        Toleration(t["key"], frozenset(TaintEffect(e) for e in t["effects"]))
        for t in norm
    )


def _pod_spec(request: dict) -> PodSpec:
    """The pod spec of a normalized request (a pod template or a chain link)."""
    return PodSpec(
        request=ResourceVector(request["cpu"], request["memory"]),
        tolerations=_tolerations(request["tolerations"]),
    )


def normalize(data: dict) -> dict:
    """Validate a parsed scenario document and fill in every default.

    Raises ``ValidationError`` on structural problems or dangling references.
    Returns a plain-JSON dict whose canonical dump is stable for hashing.
    """
    norm = _fields(data, SCENARIO, "scenario")

    # priority levels
    levels: dict[str, dict] = {}
    for i, name, raw in _keyed(data.get("priority_levels", []), "priority_levels", "name",
                               "priority level"):
        levels[name] = _fields(raw, PRIORITY_LEVEL, f"priority_levels[{i}]")
        _only(raw, levels[name], f"priority_levels[{i}]")
    default_count = sum(level["global_default"] for level in levels.values())
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

    def priority(raw: dict, where: str) -> str:
        return _one_of(_text(raw.get("priority", fallback), f"{where}: priority"), levels,
                       "priority", where)

    topo = _require(data, "topology", "scenario")
    nodes: dict[str, dict] = {}
    for _, node_id, raw in _keyed(_require(topo, "nodes", "topology"), "topology.nodes", "id",
                                  "node id"):
        where = f"node {node_id}"
        taints = []
        for j, taint in enumerate(_list(raw.get("taints", []), f"{where}: taints")):
            taints.append(_fields(taint, TAINT, f"{where} taint[{j}]"))
            _only(taint, TAINT, f"{where} taint[{j}]")
        nodes[node_id] = {
            "id": node_id,
            **_fields(raw, NODE, where),
            "taints": sorted(taints, key=lambda t: (t["key"], t["effect"])),
        }
        _only(raw, nodes[node_id], where)
    _only(topo, ("nodes",), "topology")
    norm["nodes"] = sorted(nodes.values(), key=lambda n: n["id"])
    node_regions = {node_id: node["region"] for node_id, node in nodes.items()}
    regions = set(node_regions.values())
    overlap = regions & set(nodes)
    if overlap:
        raise ValidationError(f"region names collide with node ids: {sorted(overlap)}")

    # agents
    agent_entries: dict[str, dict] = {}
    for _, agent_id, raw in _keyed(data.get("agents", []), "agents", "id", "agent id"):
        where = f"agent {agent_id}"
        scope = [_text(s, f"{where}: scope")
                 for s in _list(_require(raw, "scope", where), f"{where}: scope")]
        try:
            agents_mod.resolve_scope(frozenset(scope), node_regions)
        except (EmptyScope, ValueError) as exc:
            raise ValidationError(f"{where}: {exc}") from None
        entry = {
            "id": agent_id,
            "scope": sorted(scope),
            "priority": priority(raw, where),
            **_fields(raw, AGENT, where),
            "target": _text(raw.get("target", f"svc-{agent_id}"), f"{where}: target"),
        }
        if not entry["watermark_low"] < entry["watermark_high"]:
            raise ValidationError(f"{where}: need 0 <= low < high watermarks")
        template = raw.get("pod_template")
        entry["pod_template"] = (
            None if template is None else _request(template, f"{where} pod_template")
        )
        _only(raw, entry, where)
        agent_entries[agent_id] = entry
    norm["agents"] = sorted(agent_entries.values(), key=lambda a: a["id"])
    names = {"node": nodes, "agent": agent_entries}  # what a field's ref names

    # initial pods
    pods: dict[str, dict] = {}
    for _, pod_id, raw in _keyed(data.get("initial_pods", []), "initial_pods", "id", "pod id"):
        where = f"pod {pod_id}"
        pods[pod_id] = {
            "id": pod_id,
            **_fields(raw, INITIAL_POD, where, names),
            "priority": priority(raw, where),
            "tolerations": _norm_tolerations(raw.get("tolerations"), where),
        }
        _only(raw, pods[pod_id], where)
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
        source = _one_of(source, agent_entries, "source agent", "trust")
        where = f"trust[{source}]"
        pairs = []
        for entry in _list(entries, where):
            target = _fields(entry, TRUST, where, names)["acl"]
            for kind in _list(_require(entry, "kinds", where), f"{where}.kinds"):
                pairs.append([target, _one_of(kind, ARTIFACT_KINDS, "artifact kind", where)])
            _only(entry, (*TRUST, "kinds"), where)
        trust[source] = sorted(pairs)
    norm["trust"] = dict(sorted(trust.items()))

    manager = data.get("manager") or {}
    norm["manager"] = _fields(manager, MANAGER, "manager")
    _only(manager, MANAGER, "manager")

    # traffic
    profiles = {}
    for region, raw in _mapping(data.get("traffic") or {}, "traffic").items():
        region = _one_of(region, regions, "region", "traffic")
        where = f"traffic[{region}]"
        profile = _fields(raw, TRAFFIC, where)
        steps = []
        for j, step in enumerate(_list(raw.get("steps", []), f"{where}.steps")):
            at = f"{where}.steps[{j}]"
            steps.append(list(_fields(step, STEP, at).values()))
            _only(step, STEP, at)
        profile["steps"] = sorted(steps)
        _only(raw, profile, where)
        profiles[region] = profile
    for region in regions:
        profiles.setdefault(region, {**_fields({}, TRAFFIC, "traffic"), "steps": []})
    norm["traffic"] = dict(sorted(profiles.items()))

    # injected events
    agent_roles = {a: e["role"] for a, e in agent_entries.items()}
    norm["injected"] = normalize_events(data.get("injected", []), set(nodes), agent_roles)
    _only(data, (*SCENARIO, "priority_levels", "topology", "agents", "initial_pods",
                 "trust", "manager", "traffic", "injected"), "scenario")

    # initial pods must tolerate their node and fit together: building the
    # state raises ValidationError on any violation
    build_state(norm)
    return norm


def normalize_events(
    raw_events, nodes: set[str], agent_roles: dict[str, str], label: str = "injected"
) -> list[dict]:
    """Validate and normalize a list of injectable events against a topology."""
    names = {"node": nodes, "agent": agent_roles}
    out = []
    for i, raw in enumerate(_list(raw_events, label)):
        where = f"{label}[{i}]"
        kind = _one_of(_require(raw, "kind", where), EVENTS, "event kind", where)
        event = {"kind": kind, **_fields(raw, EVENTS[kind], where, names)}
        if kind == "slice-request":
            if agent_roles[event["agent"]] != AgentRole.SLICE.value:
                raise ValidationError(f"{where}: agent {event['agent']!r} does not place slices")
            chain = _list(_require(raw, "chain", where), f"{where}.chain")
            if not chain:
                raise ValidationError(f"{where}: empty slice chain")
            event["chain"] = [
                _request(link, f"{where}.chain[{j}]") for j, link in enumerate(chain)
            ]
        _only(raw, event, where)
        out.append(event)
    return out


def scenario_hash(norm: dict) -> str:
    dump = json.dumps(norm, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(dump.encode()).hexdigest()


def _scenario(norm: dict) -> Scenario:
    return Scenario(norm["name"], norm["seed"], norm["ticks"], scenario_hash(norm), norm)


def _overridden(data: dict, seed, ticks) -> dict:
    """A copy of *data* with the *seed* and *ticks* that are not None."""
    return {**data, **{k: v for k, v in (("seed", seed), ("ticks", ticks)) if v is not None}}


def from_dict(data: dict, seed: int | None = None, ticks: int | None = None) -> Scenario:
    return _scenario(normalize(_overridden(_mapping(data, "scenario"), seed, ticks)))


def with_overrides(scn: Scenario, seed=None, ticks=None) -> Scenario:
    """*scn* run with another seed or tick count, each checked by the
    ``SCENARIO`` table as ``from_dict`` checks it, and hashed again.  No
    other field depends on either, so nothing else is normalized again."""
    data = _overridden(scn.data, seed, ticks)
    data.update(_fields(data, SCENARIO, "scenario"))
    return _scenario(data)


def _too_deep(event) -> ParseError:
    return ParseError(f"scenario nests deeper than {MAX_DEPTH} levels", event.start_mark.line + 1)


def _check_depth(text: str) -> None:
    """Raise a ``ParseError`` at the first event of *text* that nests deeper
    than ``MAX_DEPTH`` collections.  An alias is as deep as the node it names,
    and one inside the node it names is too deep (a cycle)."""
    heights = {}  # anchor -> the height of the node it names, in collections
    stack = []  # each open collection: [its anchor, the height of its tallest child]
    for event in yaml.parse(text, Loader=YAML_LOADER):
        kind = type(event)
        if kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
            if len(stack) == MAX_DEPTH:
                raise _too_deep(event)
            if event.anchor is not None:
                heights[event.anchor] = math.inf  # until it closes
            stack.append([event.anchor, 0])
            continue
        if kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
            anchor, tallest = stack.pop()
            height = tallest + 1
        elif kind is yaml.ScalarEvent:
            anchor, height = event.anchor, 0
        elif kind is yaml.AliasEvent:
            anchor, height = None, heights.get(event.anchor, 0)  # an unknown one fails to load
            if len(stack) + height > MAX_DEPTH:
                raise _too_deep(event)
        else:  # stream and document start and end
            continue
        if anchor is not None:
            heights[anchor] = height
        if stack and stack[-1][1] < height:
            stack[-1][1] = height


def loads(text: str, seed: int | None = None, ticks: int | None = None) -> Scenario:
    try:
        _check_depth(text)
        data = yaml.load(text, Loader=YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:
        # a ValueError is libyaml's lone surrogate or a scalar PyYAML cannot
        # build: an int over 4300 digits, a date with a 13th month
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
        l["name"]: PriorityLevel(l["name"], l["value"], l["preemption"])
        for l in norm["priority_levels"]
    }


def build_state(norm: dict) -> ClusterState:
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
    return state


def build_agents(norm: dict) -> dict[str, LoopAgent]:
    levels = priority_levels(norm)
    node_regions = {n["id"]: n["region"] for n in norm["nodes"]}
    agents: dict[str, LoopAgent] = {}
    owned = {}
    for pod in norm["initial_pods"]:
        owned[pod["owner"]] = owned.get(pod["owner"], 0) + 1
    for entry in norm["agents"]:
        size, regions, nodes = agents_mod.resolve_scope(frozenset(entry["scope"]), node_regions)
        template = entry["pod_template"]
        agent = LoopAgent(
            id=entry["id"],
            role=AgentRole(entry["role"]),
            size=size,
            regions=regions,
            nodes=nodes,
            priority=levels[entry["priority"]],
            predictor=PredictorState(alpha=entry["alpha"]),
            pod_template=None if template is None else _pod_spec(template),
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


def build_queue(norm: dict, agents: dict[str, LoopAgent]) -> PendingQueue:
    """An empty pending queue ranking each loop's pods at the loop's priority,
    and an initial pod's owner that is no loop at its first pod's priority."""
    levels = priority_levels(norm)
    queue = PendingQueue({acl: agent.priority.value for acl, agent in agents.items()})
    for pod in norm["initial_pods"]:
        queue.ranks.setdefault(pod["owner"], levels[pod["priority"]].value)
    return queue


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


def chain_specs(event: dict) -> tuple[PodSpec, ...]:
    return tuple(_pod_spec(link) for link in event["chain"])


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
