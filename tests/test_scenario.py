"""Scenario parsing, validation, defaults, and hashing."""

import copy
import json
import math
import re
from pathlib import Path

import pytest

from loopsim import scenario as scenario_mod
from loopsim.errors import ParseError, ValidationError
from loopsim.scenario import (
    from_dict,
    list_scenarios,
    load_scenario,
    loads,
    normalize,
)


RESERVED = [{"key": "powered-off", "effects": ["NoSchedule"]}]


def minimal(**overrides):
    data = {
        "name": "mini",
        "topology": {
            "nodes": [
                {"id": "n1", "region": "east", "cpu": 2000, "memory": 4096},
            ]
        },
    }
    data.update(overrides)
    return data


class TestBuiltins:
    def test_catalog(self):
        assert list_scenarios() == [
            "case1", "case2", "pingpong", "three-acl-conflict",
        ]

    def test_case1_shape(self):
        scn = load_scenario("case1")
        assert len(scn.data["nodes"]) == 3
        assert [a["id"] for a in scn.data["agents"]] == ["acl1", "acl2"]
        values = {l["name"]: l["value"] for l in scn.data["priority_levels"]}
        assert values["gold"] == 10 and values["silver"] == 5

    def test_case2_has_initial_pods(self):
        scn = load_scenario("case2")
        assert [p["id"] for p in scn.data["initial_pods"]] == [
            "stream-a", "stream-b", "tenant-web",
        ]

    def test_every_builtin_normalizes(self):
        for name in list_scenarios():
            scn = load_scenario(name)
            assert scn.name == name
            assert scn.ticks >= 1

    def test_unknown_source_raises(self):
        with pytest.raises(ParseError):
            load_scenario("no-such-scenario")

    def test_seed_and_ticks_overrides(self):
        scn = load_scenario("case1", seed=99, ticks=7)
        assert scn.seed == 99 and scn.ticks == 7
        assert scn.hash != load_scenario("case1").hash


class TestNormalize:
    def test_defaults_are_filled(self):
        norm = normalize(minimal())
        assert norm["seed"] == 0
        assert norm["ticks"] == 20
        assert norm["manager"]["e2e_period"] == 5
        assert norm["manager"]["coherency"]["window"] == 50
        assert norm["manager"]["lifecycle"] == {"suspend_after": 3, "reinstate_after": 5}
        assert norm["traffic"]["east"]["base"] == 0.0
        # a fallback default priority level appears when none is marked
        levels = {l["name"]: l for l in norm["priority_levels"]}
        assert levels["default"]["global_default"]

    def test_agent_defaults(self):
        norm = normalize(minimal(agents=[{"id": "a", "scope": ["east"]}]))
        agent = norm["agents"][0]
        assert agent["alpha"] == 0.3
        assert agent["watermark_high"] == 0.8
        assert agent["watermark_low"] == 0.3
        assert agent["hysteresis_ticks"] == 3
        assert agent["idle_ticks"] == 5
        assert agent["role"] == "scaler"
        assert agent["target"] == "svc-a"

    def test_hash_is_stable_and_sensitive(self):
        a = from_dict(minimal())
        b = from_dict(minimal())
        assert a.hash == b.hash
        c = from_dict(minimal(seed=1))
        assert c.hash != a.hash

    @pytest.mark.parametrize("data, message", [
        (minimal(topology={"nodes": [{"id": "n1", "region": "east", "cpu": 1, "memory": 1},
                                     {"id": "n1", "region": "east", "cpu": 1, "memory": 1}]}),
         "duplicate node id 'n1'"),
        (minimal(priority_levels=[{"name": "hi", "value": 1}, {"name": "hi", "value": 2}]),
         "duplicate priority level 'hi'"),
        (minimal(agents=[{"id": "a", "scope": ["east"]}, {"id": "a", "scope": ["east"]}]),
         "duplicate agent id 'a'"),
        (minimal(initial_pods=[{"id": "p", "owner": "x", "node": "n1", "cpu": 1, "memory": 1},
                               {"id": "p", "owner": "y", "node": "n1", "cpu": 2, "memory": 2}]),
         "duplicate pod id 'p'"),
        (minimal(priority_levels=[{"name": "hi", "value": 1, "global_default": True},
                                  {"name": "lo", "value": 0, "global_default": True}]),
         "more than one priority level marked global_default"),
        (minimal(priority_levels=[{"name": "default", "value": 1}, {"name": "lo", "value": 0}]),
         "a level named 'default' exists but no level is marked global_default"),
        (minimal(topology={"nodes": [{"id": "n1", "region": "east", "cpu": 1, "memory": 1},
                                     {"id": "east", "region": "west", "cpu": 1, "memory": 1}]}),
         "region names collide with node ids: ['east']"),
        (minimal(initial_pods=[{"id": "p", "owner": "x", "node": "n1", "cpu": 1, "memory": 1,
                                "tolerations": [{"key": "k", "effects": []}]}]),
         "pod p.tolerations[0]: empty effects list"),
        (minimal(agents=[{"id": "s", "role": "slice", "scope": ["e2e"]}],
                 injected=[{"tick": 1, "kind": "slice-request", "agent": "s", "chain": []}]),
         "injected[0]: empty slice chain"),
        (minimal(agents=[{"id": "a", "scope": ["east"], "priority": "imperial"}]),
         "agent a: unknown priority 'imperial'"),
        (minimal(agents=[{"id": "a", "scope": ["east"]}],
                 trust={"ghost": [{"acl": "a", "kinds": ["Model"]}]}),
         "trust: unknown source agent 'ghost'"),
        (minimal(agents=[{"id": "a", "scope": ["east"]}],
                 trust={"a": [{"acl": "ghost", "kinds": ["Model"]}]}),
         "trust[a]: unknown agent 'ghost'"),
        (minimal(traffic={"atlantis": {"base": 1}}), "traffic: unknown region 'atlantis'"),
        (minimal(agents=[{"id": "a", "scope": ["east"]}],
                 injected=[{"tick": 0, "kind": "slice-request", "agent": "a",
                            "chain": [{"cpu": 1, "memory": 1}]}]),
         "injected[0]: agent 'a' does not place slices"),
        (minimal(agents=[{"id": "a", "scope": ["east"],
                          "watermark_low": 0.9, "watermark_high": 0.5}]),
         "agent a: need 0 <= low < high watermarks"),
    ], ids=["duplicate-node", "duplicate-level", "duplicate-agent", "duplicate-pod",
            "two-global-defaults", "unmarked-default-level", "region-named-like-a-node",
            "empty-effects", "empty-slice-chain", "unknown-priority", "unknown-trust-source",
            "unknown-trust-acl", "unknown-traffic-region", "slice-request-to-a-non-slice-agent",
            "watermarks-out-of-order"])
    def test_cross_field_rule_rejected(self, data, message):
        # each document breaks one rule that relates fields, and only that one
        with pytest.raises(ValidationError) as err:
            normalize(data)
        assert str(err.value) == message

    def test_unknown_scope_entry_rejected(self):
        data = minimal(agents=[{"id": "a", "scope": ["atlantis"]}])
        with pytest.raises(ValidationError):
            normalize(data)

    @pytest.mark.parametrize("bogus", ["aaa-bogus", "zzz-bogus"])
    def test_unknown_scope_entry_beside_e2e_rejected(self, bogus):
        # whether the bad entry sorts before "e2e" or after it
        data = minimal(agents=[{"id": "a", "scope": ["e2e", bogus]}])
        with pytest.raises(ValidationError, match=f"agent a: scope entry '{bogus}'"):
            normalize(data)

    def test_bad_taint_effect_rejected(self):
        data = minimal()
        data["topology"]["nodes"][0]["taints"] = [{"key": "k", "effect": "Sometimes"}]
        with pytest.raises(ValidationError):
            normalize(data)

    def test_initial_pod_must_fit(self):
        data = minimal(initial_pods=[
            {"id": "p", "owner": "x", "node": "n1", "cpu": 9000, "memory": 10},
        ])
        with pytest.raises(ValidationError):
            normalize(data)

    def test_initial_pod_must_tolerate(self):
        data = minimal(initial_pods=[
            {"id": "p", "owner": "x", "node": "n1", "cpu": 10, "memory": 10},
        ])
        data["topology"]["nodes"][0]["taints"] = [
            {"key": "other", "effect": "NoSchedule"}
        ]
        with pytest.raises(ValidationError):
            normalize(data)

    def test_injected_event_validation(self):
        data = minimal(injected=[{"tick": 0, "kind": "taint", "node": "nope",
                                  "key": "k", "effect": "NoSchedule"}])
        with pytest.raises(ValidationError):
            normalize(data)
        data = minimal(injected=[{"tick": 0, "kind": "abracadabra"}])
        with pytest.raises(ValidationError):
            normalize(data)

    def test_release_names_a_known_agent(self):
        data = minimal(
            agents=[{"id": "a", "scope": ["east"]}],
            injected=[{"tick": 1, "kind": "release", "acl": "ghost"}],
        )
        with pytest.raises(ValidationError, match="unknown agent 'ghost'"):
            normalize(data)

    @pytest.mark.parametrize("data, message", [
        (minimal(agents=[{"id": "a", "scope": ["east"], "period": 0}]),
         "period must be >= 1"),
        (minimal(agents=[{"id": "a", "scope": ["east"], "pod_capacity_units": 0}]),
         "pod_capacity_units must be > 0"),
        (minimal(agents=[{"id": "a", "scope": ["east"],
                          "pod_template": {"cpu": -200, "memory": 256}}]),
         "cpu must be >= 0"),
        (minimal(agents=[{"id": "a", "scope": ["east"],
                          "pod_template": {"cpu": 200, "memory": -256}}]),
         "memory must be >= 0"),
        (minimal(initial_pods=[
            {"id": "p", "owner": "x", "node": "n1", "cpu": -10, "memory": 10},
        ]), "cpu must be >= 0"),
        (minimal(
            agents=[{"id": "s", "role": "slice", "scope": ["east"]}],
            injected=[{"tick": 0, "kind": "slice-request", "agent": "s",
                       "chain": [{"cpu": 1, "memory": -1}]}],
        ), r"chain\[0\]: memory must be >= 0"),
    ], ids=["period-0", "capacity-units-0", "template-cpu", "template-memory",
            "initial-pod-cpu", "chain-memory"])
    def test_out_of_range_values_rejected(self, data, message):
        with pytest.raises(ValidationError, match=message):
            normalize(data)

    @pytest.mark.parametrize("data, where", [
        (minimal(agents=[{"id": "a", "scope": ["east"], "pod_template": {
            "cpu": 1, "memory": 1, "tolerations": RESERVED}}]),
         r"agent a pod_template\.tolerations\[0\]"),
        (minimal(initial_pods=[{"id": "p", "owner": "x", "node": "n1", "cpu": 1,
                                "memory": 1, "tolerations": RESERVED}]),
         r"pod p\.tolerations\[0\]"),
        (minimal(
            agents=[{"id": "s", "role": "slice", "scope": ["east"]}],
            injected=[{"tick": 0, "kind": "slice-request", "agent": "s",
                       "chain": [{"cpu": 1, "memory": 1, "tolerations": RESERVED}]}],
        ), r"chain\[0\]\.tolerations\[0\]"),
    ], ids=["pod-template", "initial-pod", "chain-link"])
    def test_tolerating_powered_off_rejected(self, data, where):
        """No pod may tolerate the reserved key, so a powered-off node takes
        no new work."""
        with pytest.raises(ValidationError, match=f"{where}: the key 'powered-off' is reserved"):
            normalize(data)

    @pytest.mark.parametrize("data, message", [
        (minimal(agents=[{"id": "a", "scope": ["east"], "span_ticks": 0}]),
         "span_ticks must be >= 1"),
        (minimal(agents=[{"id": "a", "scope": ["east"], "span_ticks": -3}]),
         "span_ticks must be >= 1"),
        (minimal(agents=[{"id": "a", "scope": ["east"], "hysteresis_ticks": -1}]),
         "hysteresis_ticks must be >= 0"),
        (minimal(traffic={"east": {"base": 100, "sigma": -5}}), r"sigma must be in \[0, 1e\+15\]"),
        (minimal(traffic={"east": {"base": float("nan")}}), "base: must be finite"),
        (minimal(traffic={"east": {"base": float("inf")}}), "base: must be finite"),
        (minimal(traffic={"east": {"amplitude": float("-inf")}}), "amplitude: must be finite"),
        (minimal(traffic={"east": {"steps": [{"at": 3, "base": float("nan")}]}}),
         r"steps\[0\]: base: must be finite"),
        (minimal(agents=[{"id": "a", "scope": ["east"],
                          "node_capacity_units": float("inf")}]),
         "node_capacity_units: must be finite"),
        (minimal(manager={"coherency": {"k_sigma": float("nan")}}),
         "k_sigma: must be finite"),
        (minimal(agents=[{"id": "a", "scope": ["east"], "period": "abc"}]),
         "period: expected int"),
        (minimal(agents=[{"id": "a", "scope": ["east"], "period": float("nan")}]),
         "period: expected int"),
        (minimal(agents=[{"id": "a", "scope": ["east"], "alpha": "fast"}]),
         "alpha: expected float"),
        (minimal(ticks=float("inf")), "ticks: expected int"),
        (minimal(traffic={"east": {"period": None}}), "period: expected int"),
        (minimal(traffic={"east": {"period": 10**400}}), "period: must be finite"),
    ], ids=["span-0", "span-negative", "hysteresis-negative", "sigma-negative",
            "base-nan", "base-inf", "amplitude-inf", "step-base-nan",
            "node-units-inf", "k-sigma-nan", "period-text", "period-nan", "alpha-text",
            "ticks-inf", "traffic-period-null", "period-beyond-float"])
    def test_malformed_numbers_rejected(self, data, message):
        with pytest.raises(ValidationError, match=message):
            normalize(data)

    @pytest.mark.parametrize("traffic, message", [
        ({"east": {"base": 1e16}}, r"traffic\[east\]: base must be in \[-1e\+15, 1e\+15\]"),
        ({"east": {"base": -1e16}}, r"traffic\[east\]: base must be in \[-1e\+15, 1e\+15\]"),
        ({"east": {"amplitude": -1e300}}, r"traffic\[east\]: amplitude must be in \["),
        ({"east": {"sigma": 1e16}}, r"traffic\[east\]: sigma must be in \[0, 1e\+15\]"),
        ({"east": {"steps": [{"at": 3, "base": 1e308}]}},
         r"traffic\[east\].steps\[0\]: base must be in \["),
        ({"east": {"phase": 1e308}}, r"traffic\[east\]: phase must be in \["),
    ], ids=["base", "base-negative", "amplitude", "sigma", "step-base", "phase"])
    def test_demand_beyond_the_bound_rejected(self, traffic, message):
        with pytest.raises(ValidationError, match=message):
            normalize(minimal(traffic=traffic))

    @pytest.mark.parametrize("manager, message", [
        ({"coherency": {"min_history": 0}}, "manager.coherency: min_history must be >= 1"),
        ({"coherency": {"window": 0}}, "manager.coherency: window must be >= 1"),
        ({"knowledge": {"model_bonus": 1e308}}, r"model_bonus must be in \[0, 1\]"),
        ({"knowledge": {"model_bonus": -0.5}}, r"model_bonus must be in \[0, 1\]"),
    ], ids=["min-history-0", "window-0", "bonus-huge", "bonus-negative"])
    def test_manager_settings_out_of_range_rejected(self, manager, message):
        with pytest.raises(ValidationError, match=message):
            normalize(minimal(manager=manager))

    def test_demand_at_the_bound_accepted(self):
        limit = scenario_mod.MAX_DEMAND
        norm = normalize(minimal(traffic={"east": {
            "base": limit, "amplitude": -limit, "sigma": limit,
            "steps": [{"at": 2, "base": -limit}],
        }}))
        assert norm["traffic"]["east"]["base"] == limit

    @pytest.mark.parametrize("pod_id, owner, allowed", [
        ("a-pod-0", "tenant", False),   # a creates a-pod-0 first
        ("a-pod-7", "tenant", False),
        ("a-pod-1", "a", False),        # a owns one pod, so it starts at a-pod-1
        ("a-pod-0", "a", True),
        ("a-pod-01", "tenant", True),   # never generated: no leading zeros
        ("b-pod-0", "tenant", True),    # no agent b
        ("a-pods-0", "tenant", True),
    ])
    def test_initial_pod_may_not_take_a_generated_id(self, pod_id, owner, allowed):
        data = minimal(agents=[{"id": "a", "scope": ["east"]}])
        data["initial_pods"] = [
            {"id": pod_id, "owner": owner, "node": "n1", "cpu": 10, "memory": 10}
        ]
        if allowed:
            normalize(data)
        else:
            with pytest.raises(ValidationError, match="taken by the pods agent 'a'"):
                normalize(data)

    @pytest.mark.parametrize("data, message", [
        (minimal(priority_levels=5), "priority_levels: expected a list"),
        (minimal(priority_levels=[[1]]), r"priority_levels\[0\]: expected a mapping"),
        (minimal(agents={"a": 1}), "agents: expected a list"),
        (minimal(agents=[{"id": "a", "scope": ["east"], "role": ["scaler"]}]),
         "unknown role"),
        (minimal(agents=[{"id": "a", "scope": ["east"], "pod_template": 5}]),
         "pod_template: expected a mapping"),
        (minimal(agents=[{"id": "a", "scope": ["east"], "pod_template": {
            "cpu": 1, "memory": 1, "tolerations": [{"key": "k", "effects": "NoSchedule"}]}}]),
         r"tolerations\[0\].effects: expected a list"),
        (minimal(initial_pods=None), "initial_pods: expected a list"),
        (minimal(manager={"coherency": [1]}), "manager.coherency: expected a mapping"),
        (minimal(traffic={"east": 5}), r"traffic\[east\]: expected a mapping"),
        (minimal(traffic={"east": {"steps": [[1, 2]]}}),
         r"^traffic\[east\].steps\[0\]: expected a mapping, got list$"),
        (minimal(traffic={"east": {"steps": [[1, 2, 3]]}}),
         r"^traffic\[east\].steps\[0\]: expected a mapping, got list$"),
        (minimal(agents=[{"id": "a", "scope": ["east"]}], trust={"a": [["a", "Model"]]}),
         r"^trust\[a\]: expected a mapping, got list$"),
        (minimal(agents=[{"id": "a", "scope": ["east"]}], trust={"a": [["a"]]}),
         r"^trust\[a\]: expected a mapping, got list$"),
        ({"name": "mini", "nodes": minimal()["topology"]["nodes"]},
         "^scenario: missing required key 'topology'$"),
        (minimal(injected=[{"tick": 0, "kind": ["taint"]}]), "unknown event kind"),
        (minimal(injected=[{"tick": 0, "kind": "taint", "node": "n1", "key": "k",
                            "effect": None}]), "unknown effect None"),
    ], ids=["levels-int", "level-list", "agents-mapping", "role-list", "template-int",
            "effects-str", "initial-pods-null", "section-list", "profile-int",
            "step-pair", "step-triple", "trust-pair", "trust-single", "top-level-nodes",
            "kind-list", "taint-effect-null"])
    def test_misshapen_containers_rejected(self, data, message):
        with pytest.raises(ValidationError, match=message):
            normalize(data)

    def test_empty_agents_is_a_valid_degenerate_scenario(self):
        scn = from_dict(minimal())
        assert scn.data["agents"] == []


class TestLoads:
    def test_yaml_round_trip(self):
        text = """
name: tiny
seed: 3
ticks: 2
topology:
  nodes:
    - {id: n1, region: east, cpu: 1000, memory: 2048}
"""
        scn = loads(text)
        assert scn.name == "tiny"
        assert scn.seed == 3

    def test_bad_yaml_is_a_parse_error(self):
        with pytest.raises(ParseError):
            loads("name: [unclosed")

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ValidationError):
            loads("- just\n- a\n- list\n")

    def test_load_scenario_from_file(self, tmp_path):
        path = tmp_path / "scn.yaml"
        path.write_text(
            "name: filed\n"
            "topology:\n  nodes:\n    - {id: n1, region: east, cpu: 100, memory: 100}\n"
        )
        assert load_scenario(str(path)).name == "filed"


class TestBuilders:
    def test_build_state_places_initial_pods(self):
        scn = load_scenario("case2")
        state = scenario_mod.build_state(scn.data)
        assert state.bindings["tenant-web"] == "edge-calgary"
        assert state.nodes["edge-calgary"].region == "calgary"

    def test_build_agents_carry_scenario_settings(self):
        scn = load_scenario("case1")
        agents = scenario_mod.build_agents(scn.data)
        assert agents["acl1"].priority.value == 10
        assert agents["acl1"].predictor.alpha == 1.0
        assert agents["acl2"].priority.value == 5

    def test_pod_seq_skips_owned_initial_pods(self):
        # an agent that already owns n initial pods must not reuse their names
        data = minimal(agents=[{
            "id": "a", "scope": ["east"],
            "pod_template": {"cpu": 10, "memory": 10},
        }])
        data["initial_pods"] = [
            {"id": "a-pod-0", "owner": "a", "node": "n1", "cpu": 10, "memory": 10}
        ]
        agents = scenario_mod.build_agents(normalize(data))
        assert agents["a"].pod_seq == 1

    def test_build_queue_ranks_loops_and_other_initial_owners(self):
        # "ops" is no loop; its first pod by id, not by listing, sets its rank
        data = minimal(
            priority_levels=[{"name": "low", "value": 1}, {"name": "high", "value": 9}],
            agents=[{"id": "a", "scope": ["east"], "priority": "low"}],
        )
        data["initial_pods"] = [
            {"id": "ops-b", "owner": "ops", "node": "n1", "cpu": 10, "memory": 10,
             "priority": "high"},
            {"id": "ops-a", "owner": "ops", "node": "n1", "cpu": 10, "memory": 10,
             "priority": "low"},
        ]
        norm = normalize(data)
        queue = scenario_mod.build_queue(norm, scenario_mod.build_agents(norm))
        assert queue.ranks == {"a": 1, "ops": 1}
        assert queue.entries == []

    def test_trust_normalizes_to_sorted_pairs(self):
        data = minimal(agents=[{"id": a, "scope": ["east"]} for a in "abc"],
                       trust={"a": [{"acl": "c", "kinds": ["Model", "Dataset"]},
                                    {"acl": "b", "kinds": ["Model"]}]})
        assert normalize(data)["trust"] == {
            "a": [["b", "Model"], ["c", "Dataset"], ["c", "Model"]],
        }


# a valid document with one mapping for each field table
FIELDS_DOCUMENT = {
    "name": "fields",
    "priority_levels": [{"name": "gold", "value": 1}],
    "topology": {"nodes": [{
        "id": "n1", "region": "east", "cpu": 2000, "memory": 4096,
        "taints": [{"key": "k", "effect": "PreferNoSchedule"}],
    }]},
    "agents": [
        {"id": "a", "scope": ["east"], "pod_template": {"cpu": 1, "memory": 1}},
        {"id": "s", "role": "slice", "scope": ["e2e"]},
    ],
    "initial_pods": [{
        "id": "p", "owner": "x", "node": "n1", "cpu": 10, "memory": 10,
        "tolerations": [{"key": "k", "effects": ["NoSchedule"]}],
    }],
    "trust": {"a": [{"acl": "s", "kinds": ["Model"]}]},
    "manager": {"coherency": {}, "lifecycle": {}, "interference": {}, "knowledge": {}},
    "traffic": {"east": {"steps": [{"at": 1, "base": 1.0}]}},
    "injected": [
        {"tick": 0, "kind": "taint", "node": "n1", "key": "m", "effect": "NoSchedule"},
        {"tick": 0, "kind": "remove-taint", "node": "n1", "key": "m"},
        {"tick": 0, "kind": "slice-request", "agent": "s", "chain": [{"cpu": 1, "memory": 1}]},
        {"tick": 0, "kind": "exchange-request", "source": "a", "target": "s",
         "artifact": "Model"},
        {"tick": 0, "kind": "release", "acl": "a"},
    ],
}
# (README heading, table, path of its mapping in FIELDS_DOCUMENT, the
# location that messages name)
SITES = [
    ("Top level", scenario_mod.SCENARIO, (), "scenario"),
    ("`priority_levels[]`", scenario_mod.PRIORITY_LEVEL, ("priority_levels", 0),
     "priority_levels[0]"),
    ("`topology.nodes[]`", scenario_mod.NODE, ("topology", "nodes", 0), "node n1"),
    ("`topology.nodes[].taints[]`", scenario_mod.TAINT,
     ("topology", "nodes", 0, "taints", 0), "node n1 taint[0]"),
    ("`tolerations[]`", scenario_mod.TOLERATION, ("initial_pods", 0, "tolerations", 0),
     "pod p.tolerations[0]"),
    ("`initial_pods[]`", scenario_mod.INITIAL_POD, ("initial_pods", 0), "pod p"),
    ("`agents[]`", scenario_mod.AGENT, ("agents", 0), "agent a"),
    ("Pod requests", scenario_mod.REQUEST, ("agents", 0, "pod_template"),
     "agent a pod_template"),
    ("Pod requests", scenario_mod.REQUEST, ("injected", 2, "chain", 0),
     "injected[2].chain[0]"),
    ("`manager`", {k: v for k, v in scenario_mod.MANAGER.items()
                   if isinstance(v, scenario_mod.Field)}, ("manager",), "manager"),
    *[(f"`manager.{section}`", table, ("manager", section), f"manager.{section}")
      for section, table in scenario_mod.MANAGER.items() if isinstance(table, dict)],
    ("`trust.<agent>[]`", scenario_mod.TRUST, ("trust", "a", 0), "trust[a]"),
    ("`traffic.<region>`", scenario_mod.TRAFFIC, ("traffic", "east"), "traffic[east]"),
    ("`traffic.<region>.steps[]`", scenario_mod.STEP, ("traffic", "east", "steps", 0),
     "traffic[east].steps[0]"),
    *[(f"`injected[]` of kind `{kind}`", table, ("injected", i), f"injected[{i}]")
      for i, (kind, table) in enumerate(scenario_mod.EVENTS.items())],
]
FIELDS = [
    (heading, path, where, key, spec)
    for heading, table, path, where in SITES
    for key, spec in table.items()
]


def _nudge(spec, value, direction):
    """The next value of the field's kind past *value* in *direction*."""
    if spec.kind is int:
        return int(value) + direction
    return math.nextafter(value, direction * math.inf)


def _bound_cases(outside):
    for heading, path, where, key, spec in FIELDS:
        if spec.low is not None and (outside or not spec.low_open):
            value = spec.low if spec.low_open else _nudge(spec, spec.low, -1)
            yield pytest.param(path, where, key, spec, value if outside else spec.low,
                               id=f"{where}.{key}-low")
        if spec.high is not None:
            value = _nudge(spec, spec.high, 1) if outside else spec.high
            yield pytest.param(path, where, key, spec, value, id=f"{where}.{key}-high")


def _fields_document(path):
    doc = copy.deepcopy(FIELDS_DOCUMENT)
    mapping = doc
    for step in path:
        mapping = mapping[step]
    return doc, mapping


class TestFieldTables:
    def test_the_fields_document_normalizes(self):
        norm = normalize(FIELDS_DOCUMENT)
        assert [e["kind"] for e in norm["injected"]] == list(scenario_mod.EVENTS)

    @pytest.mark.parametrize("path, where, key, spec, value", _bound_cases(outside=True))
    def test_value_past_a_bound_rejected(self, path, where, key, spec, value):
        doc, mapping = _fields_document(path)
        mapping[key] = value
        with pytest.raises(ValidationError,
                           match=re.escape(f"{where}: {key} must be {spec.bounds()}")):
            normalize(doc)

    @pytest.mark.parametrize("path, where, key, spec, value", _bound_cases(outside=False))
    def test_value_at_an_inclusive_bound_accepted(self, path, where, key, spec, value):
        doc, mapping = _fields_document(path)
        mapping[key] = value
        normalize(doc)

    @pytest.mark.parametrize("path, where", [
        pytest.param(path, where, id=where)
        for path, where in dict.fromkeys(
            [(path, where) for _, _, path, where in SITES] + [(("topology",), "topology")])
    ])
    def test_unknown_key_rejected_and_named(self, path, where):
        doc, mapping = _fields_document(path)
        mapping["surplus"] = 1
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(where)}: unknown key 'surplus'$"):
            normalize(doc)

    @pytest.mark.parametrize("path, where, key", [
        pytest.param(path, where, key, id=f"{where}.{key}")
        for _, path, where, key, spec in FIELDS if spec.default is scenario_mod.REQUIRED
    ])
    def test_missing_required_field_rejected(self, path, where, key):
        doc, mapping = _fields_document(path)
        del mapping[key]
        with pytest.raises(ValidationError,
                           match=re.escape(f"{where}: missing required key {key!r}")):
            normalize(doc)

    @pytest.mark.parametrize("path, where, key, ref", [
        pytest.param(path, where, key, spec.ref, id=f"{where}.{key}")
        for _, path, where, key, spec in FIELDS if spec.ref is not None
    ])
    def test_a_reference_to_no_entry_rejected(self, path, where, key, ref):
        doc, mapping = _fields_document(path)
        mapping[key] = "ghost"
        with pytest.raises(ValidationError) as err:
            normalize(doc)
        assert str(err.value) == f"{where}: unknown {ref} 'ghost'"

    BOOL_FIELDS = [pytest.param(path, where, key, id=f"{where}.{key}")
                   for _, path, where, key, spec in FIELDS if spec.kind is bool]

    @pytest.mark.parametrize("path, where, key", BOOL_FIELDS)
    @pytest.mark.parametrize("value, shown", [
        ("false", "'false'"), ("true", "'true'"), ("no", "'no'"), (0, "0"), (1, "1"),
        (1.0, "1.0"), (None, "None"), ([True], "list"),
    ], ids=["text-false", "text-true", "text-no", "zero", "one", "float", "null", "list"])
    def test_a_bool_field_refuses_anything_but_a_bool(self, path, where, key, value, shown):
        doc, mapping = _fields_document(path)
        mapping[key] = value
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(f'{where}: {key}: expected bool, got {shown}')}$"):
            normalize(doc)

    @pytest.mark.parametrize("path, where, key", BOOL_FIELDS)
    @pytest.mark.parametrize("value", [True, False])
    def test_a_bool_field_keeps_the_bool_given(self, path, where, key, value):
        doc, mapping = _fields_document(path)
        mapping[key] = value
        levels = {l["name"]: l for l in normalize(doc)["priority_levels"]}
        assert levels[mapping["name"]][key] is value

    def test_readme_lists_every_field(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        sections = dict(re.findall(r"^#### (.+)\n((?:(?!#).*\n)*)", readme, re.M))
        missing = []
        for heading, _, _, key, spec in FIELDS:
            if isinstance(spec.kind, frozenset):
                kind = "one of " + ", ".join(f"`{v}`" for v in sorted(spec.kind))
            else:
                kind = spec.kind.__name__
            line = f"- `{key}`: {kind}, " + (
                "required" if spec.default is scenario_mod.REQUIRED
                else f"default `{json.dumps(spec.default)}`"
            ) + (f", {spec.bounds()}" if spec.bounds() else "") + (
                f", {'an' if spec.ref[0] in 'aeiou' else 'a'} {spec.ref} id" if spec.ref else ""
            )
            if line not in sections.get(heading, "").splitlines():
                missing.append(f"{heading}: {line}")
        assert missing == []
