"""Control-loop agents: sizing, monitoring, prediction, planning, intents in flight."""

import random
import sys
from pathlib import Path

import pytest

from helpers import GOLD, node, pod, rv, state_with, taint
from loopsim import agents as agents_mod
from loopsim.agents import (
    ActionKind,
    AgentRole,
    LifecycleState,
    LoopAgent,
    PodSpec,
    PredictorState,
    SizeClass,
    analyze,
    monitor,
    plan,
    resolve_scope,
)
from loopsim.cluster import POWERED_OFF_KEY
from loopsim.errors import EmptyScope, SuspendedAgent
from loopsim.scenario import list_scenarios, load_scenario, loads
from loopsim.sim import run
from test_acceptance import random_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

REGIONS = {
    "edge-calgary": "calgary",
    "edge-waterloo": "waterloo",
    "core-toronto": "toronto",
    "edge-calgary-2": "calgary",
}


def make_agent(role=AgentRole.SCALER, scope=("waterloo",), **overrides):
    size, regions, nodes = resolve_scope(frozenset(scope), REGIONS)
    defaults = dict(
        id="acl1",
        role=role,
        size=size,
        regions=regions,
        nodes=nodes,
        priority=GOLD,
        pod_template=PodSpec(rv(500, 1024)),
    )
    defaults.update(overrides)
    return LoopAgent(**defaults)


def waterloo():
    return state_with([node("w", region="waterloo")])


def calgary(*off):
    """The two calgary nodes, those named in *off* powered off."""
    return state_with([
        node(n, region="calgary", taints=[taint(POWERED_OFF_KEY)] if n in off else [])
        for n in ("edge-calgary", "edge-calgary-2")
    ])


class TestClassifySize:
    """``resolve_scope``: the size class, the sorted regions and the nodes of
    a scope."""

    def test_single_container_is_femto(self):
        assert resolve_scope(frozenset({"edge-calgary/cache"}), REGIONS) == (
            SizeClass.FEMTO, ("calgary",), ("edge-calgary",))

    def test_single_node_is_micro(self):
        assert resolve_scope(frozenset({"edge-calgary"}), REGIONS) == (
            SizeClass.MICRO, ("calgary",), ("edge-calgary",))

    def test_node_beside_others_in_its_region_names_only_itself(self):
        assert resolve_scope(frozenset({"edge-calgary-2"}), REGIONS) == (
            SizeClass.MICRO, ("calgary",), ("edge-calgary-2",))

    def test_region_scope_is_macro(self):
        assert resolve_scope(frozenset({"calgary"}), REGIONS) == (
            SizeClass.MACRO, ("calgary",), ("edge-calgary", "edge-calgary-2"))

    def test_two_nodes_one_region_is_macro(self):
        scope = frozenset({"edge-calgary", "edge-calgary-2"})
        assert resolve_scope(scope, REGIONS) == (
            SizeClass.MACRO, ("calgary",), ("edge-calgary", "edge-calgary-2"))

    def test_nodes_in_two_regions_is_mega(self):
        scope = frozenset({"edge-calgary", "edge-waterloo"})
        assert resolve_scope(scope, REGIONS) == (
            SizeClass.MEGA, ("calgary", "waterloo"), ("edge-calgary", "edge-waterloo"))

    def test_region_and_a_node_elsewhere_is_mega_ordered_by_region(self):
        scope = frozenset({"calgary", "core-toronto"})
        assert resolve_scope(scope, REGIONS) == (
            SizeClass.MEGA,
            ("calgary", "toronto"),
            ("edge-calgary", "edge-calgary-2", "core-toronto"),
        )

    def test_e2e_marker_is_mega(self):
        assert resolve_scope(frozenset({"e2e", "edge-calgary"}), REGIONS) == (
            SizeClass.MEGA,
            ("calgary", "toronto", "waterloo"),
            ("edge-calgary", "edge-calgary-2", "core-toronto", "edge-waterloo"),
        )

    def test_e2e_over_one_region_is_mega(self):
        assert resolve_scope(frozenset({"e2e"}), {"a": "r", "b": "r"}) == (
            SizeClass.MEGA, ("r",), ("a", "b"))

    def test_empty_scope_raises(self):
        with pytest.raises(EmptyScope):
            resolve_scope(frozenset(), REGIONS)

    def test_unknown_entry_raises(self):
        with pytest.raises(ValueError):
            resolve_scope(frozenset({"atlantis"}), REGIONS)

    @pytest.mark.parametrize("bogus", ["aaa-bogus", "zzz-bogus"])
    def test_unknown_entry_beside_e2e_raises(self, bogus):
        # whichever side of "e2e" the bad entry sorts to
        with pytest.raises(ValueError, match=bogus):
            resolve_scope(frozenset({"e2e", bogus}), REGIONS)

    def test_scope_regions_e2e_means_all(self):
        assert resolve_scope(frozenset({"e2e"}), REGIONS)[1] == (
            "calgary", "toronto", "waterloo",
        )


class TestMonitor:
    def test_window_is_last_span_ticks(self):
        agent = make_agent(span_ticks=3)
        samples = monitor(agent, lambda t: float(t * 10), tick=9)
        assert samples == ((7, 70.0), (8, 80.0), (9, 90.0))

    def test_tick_zero_single_sample(self):
        agent = make_agent(span_ticks=5)
        samples = monitor(agent, lambda t: 42.0, tick=0)
        assert samples == ((0, 42.0),)

    def test_samples_already_folded_are_left_out(self):
        agent = make_agent(span_ticks=100, predictor=PredictorState(last_seen=7))
        samples = monitor(agent, lambda t: float(t * 10), tick=9)
        assert samples == ((8, 80.0), (9, 90.0))

    def test_suspended_agent_cannot_monitor(self):
        agent = make_agent(lifecycle=LifecycleState.SUSPENDED)
        with pytest.raises(SuspendedAgent):
            monitor(agent, lambda t: 0.0, tick=3)


class TestAnalyze:
    def test_alpha_one_tracks_last_sample(self):
        window = ((0, 7.0), (1, 42.0))
        prediction, _ = analyze(window, PredictorState(alpha=1.0))
        assert prediction == 42.0

    def test_hand_folded_recurrence(self):
        # alpha 0.5, level 0: 10 -> 5, then 20 -> 12.5
        window = ((0, 10.0), (1, 20.0))
        prediction, state = analyze(window, PredictorState(alpha=0.5))
        assert prediction == pytest.approx(12.5)
        assert state.level == pytest.approx(12.5)
        assert state.last_seen == 1

    def test_samples_are_folded_once(self):
        window = ((0, 10.0), (1, 20.0))
        _, state = analyze(window, PredictorState(alpha=0.5))
        again, state2 = analyze(window, state)
        assert again == pytest.approx(12.5)  # nothing new to fold
        assert state2.level == state.level

    def test_shared_model_shrinks_error_toward_truth(self):
        window = ((0, 10.0), (1, 20.0))
        plain, _ = analyze(window, PredictorState(alpha=0.5))
        shared = PredictorState(alpha=0.5, accuracy_bonus=0.2)
        boosted, _ = analyze(window, shared, ground_truth=20.0)
        assert abs(boosted - 20.0) == pytest.approx(0.8 * abs(plain - 20.0))

    def test_shared_model_without_truth_behaves_like_ewma(self):
        window = ((0, 10.0),)
        shared = PredictorState(alpha=0.5, accuracy_bonus=0.2)
        boosted, _ = analyze(window, shared)
        plain, _ = analyze(window, PredictorState(alpha=0.5))
        assert boosted == plain


class TestPlanScaler:
    def test_high_utilization_scales_up(self):
        agent = make_agent()
        # no pods yet, 900 > 0.3*1000
        intents = plan(agent, 900.0, tick=0, state=waterloo(), idle_streaks={})
        assert [i.kind for i in intents] == [ActionKind.SCALE_UP]
        assert intents[0].pod_specs == (agent.pod_template,)
        assert intents[0].target == agent.target

    def test_dead_band_produces_nothing(self):
        agent = make_agent()
        state = state_with(
            [node("w", region="waterloo")],
            [pod("acl1-pod-0", owner="acl1")],
            [("acl1-pod-0", "w")],
        )
        # one replica at 500/1000 utilization sits between the watermarks
        assert plan(agent, 500.0, tick=0, state=state, idle_streaks={}) == []

    def test_low_utilization_scales_down_newest(self):
        agent = make_agent()
        state = state_with(
            [node("w", 4000, 8192, region="waterloo")],
            [pod("acl1-pod-0", owner="acl1"), pod("acl1-pod-1", owner="acl1")],
            [("acl1-pod-0", "w"), ("acl1-pod-1", "w")],
        )
        intents = plan(agent, 100.0, tick=0, state=state, idle_streaks={})
        assert [i.kind for i in intents] == [ActionKind.SCALE_DOWN]
        assert intents[0].pod_ids == ("acl1-pod-1",)

    def test_hysteresis_blocks_repeat_in_same_direction(self):
        agent = make_agent(hysteresis_ticks=3)
        state = waterloo()
        assert plan(agent, 900.0, tick=5, state=state, idle_streaks={}) != []
        assert (agent.last_scale_tick, agent.last_scale_direction) == (5, 1)
        assert plan(agent, 900.0, tick=6, state=state, idle_streaks={}) == []
        assert agent.last_scale_tick == 5  # a blocked plan records nothing
        assert plan(agent, 900.0, tick=8, state=state, idle_streaks={}) != []
        assert agent.last_scale_tick == 8

    def test_scale_down_records_its_direction(self):
        agent = make_agent()
        state = state_with(
            [node("w", region="waterloo")],
            [pod("acl1-pod-0", owner="acl1")],
            [("acl1-pod-0", "w")],
        )
        assert plan(agent, 100.0, tick=4, state=state, idle_streaks={}) != []
        assert (agent.last_scale_tick, agent.last_scale_direction) == (4, -1)

    def test_outstanding_receipt_suppresses_planning(self):
        agent = make_agent()
        assert plan(agent, 900.0, tick=0, state=waterloo(), idle_streaks={},
                    outstanding=frozenset({agent.target})) == []

    def test_zero_replicas_quiet_demand_stays_idle(self):
        agent = make_agent()
        assert plan(agent, 100.0, tick=0, state=waterloo(), idle_streaks={}) == []

    def test_suspended_agent_cannot_plan(self):
        agent = make_agent(lifecycle=LifecycleState.SUSPENDED)
        with pytest.raises(SuspendedAgent):
            plan(agent, 0.0, tick=0, state=waterloo(), idle_streaks={})


class TestPlanOtherRoles:
    def test_slice_agent_instantiates_pending_requests(self):
        agent = make_agent(role=AgentRole.SLICE, scope=("e2e",))
        chain = (PodSpec(rv(500, 1024)), PodSpec(rv(500, 1024)))
        intents = plan(agent, 0.0, tick=3, state=waterloo(), idle_streaks={},
                       slice_chains=(chain,))
        assert [i.kind for i in intents] == [ActionKind.INSTANTIATE]
        assert intents[0].pod_specs == chain

    def test_energy_agent_powers_off_idle_nodes(self):
        agent = make_agent(role=AgentRole.ENERGY, scope=("calgary",), idle_ticks=2,
                           nodes=("edge-calgary",))
        state = state_with([node("edge-calgary", region="calgary")])
        intents = plan(agent, 0.0, tick=0, state=state, idle_streaks={"edge-calgary": 2})
        assert [(i.kind, i.target) for i in intents] == [
            (ActionKind.POWER_OFF, "edge-calgary")
        ]

    def test_energy_agent_skips_busy_and_off_nodes(self):
        agent = make_agent(role=AgentRole.ENERGY, scope=("calgary",), idle_ticks=2,
                           nodes=("edge-calgary",))
        state = calgary()
        assert plan(agent, 0.0, tick=0, state=state, idle_streaks={"edge-calgary": 1}) == []
        assert plan(agent, 0.0, tick=0, state=calgary("edge-calgary"),
                    idle_streaks={"edge-calgary": 9}) == []

    def test_energy_agent_plans_over_its_own_nodes_only(self):
        agent = make_agent(role=AgentRole.ENERGY, scope=("edge-calgary",), idle_ticks=1)
        assert agent.nodes == ("edge-calgary",)
        intents = plan(agent, 0.0, tick=0, state=calgary(),
                       idle_streaks={"edge-calgary": 3, "edge-calgary-2": 3})
        assert [i.target for i in intents] == ["edge-calgary"]

    def test_balancer_powers_on_when_saturated(self):
        agent = make_agent(role=AgentRole.BALANCER, scope=("calgary",),
                           nodes=("edge-calgary", "edge-calgary-2"),
                           node_capacity_units=1000.0)
        state = calgary("edge-calgary-2")
        # supply is one powered node = 1000; demand above 0.8 * 1000 trips it
        intents = plan(agent, 900.0, tick=0, state=state, idle_streaks={})
        assert [(i.kind, i.target) for i in intents] == [
            (ActionKind.POWER_ON, "edge-calgary-2")
        ]
        assert plan(agent, 700.0, tick=0, state=state, idle_streaks={}) == []

    def test_balancer_counts_and_powers_on_its_own_nodes_only(self):
        agent = make_agent(role=AgentRole.BALANCER, scope=("edge-calgary-2",),
                           node_capacity_units=1000.0)
        assert agent.nodes == ("edge-calgary-2",)
        both_off = calgary("edge-calgary", "edge-calgary-2")
        intents = plan(agent, 1.0, tick=0, state=both_off, idle_streaks={})
        assert [i.target for i in intents] == ["edge-calgary-2"]
        # the neighbour's power is not the loop's supply
        neighbour_on = calgary("edge-calgary-2")
        intents = plan(agent, 1.0, tick=0, state=neighbour_on, idle_streaks={})
        assert [i.target for i in intents] == ["edge-calgary-2"]


class TestIntents:
    def test_outstanding_targets_are_each_loops_in_flight_targets(self):
        agent = make_agent()
        intents = plan(agent, 900.0, tick=0, state=waterloo(), idle_streaks={})
        other = make_agent(id="acl2", role=AgentRole.ENERGY, scope=("calgary",),
                           idle_ticks=1, nodes=("edge-calgary",))
        state = state_with([node("edge-calgary", region="calgary")])
        theirs = plan(other, 0.0, tick=0, state=state, idle_streaks={"edge-calgary": 1})
        assert [i.target for i in theirs] == ["edge-calgary"]
        assert agents_mod.outstanding_targets(theirs + intents) == {
            agent.id: {agent.target}, other.id: {"edge-calgary"}}
        assert agent.id not in agents_mod.outstanding_targets(theirs)
        assert agents_mod.outstanding_targets([]) == {}

    def test_a_slice_loops_two_intents_on_one_target_give_that_target_once(self):
        agent = make_agent(id="slice", role=AgentRole.SLICE, scope=("e2e",))
        chains = ((PodSpec(rv(100, 64)),), (PodSpec(rv(200, 64)),))
        intents = plan(agent, 0.0, tick=0, state=waterloo(), idle_streaks={},
                       slice_chains=chains)
        assert [i.target for i in intents] == [agent.target, agent.target]
        assert agents_mod.outstanding_targets(intents) == {"slice": {agent.target}}
        # one of the two settled: the other still holds the target
        assert agents_mod.outstanding_targets(intents[1:]) == {"slice": {agent.target}}

    def test_an_intent_out_of_flight_releases_its_target(self):
        agent = make_agent()
        state = waterloo()
        intents = plan(agent, 900.0, tick=0, state=state, idle_streaks={})
        in_flight = list(intents)
        blocked = agents_mod.outstanding_targets(in_flight)[agent.id]
        assert plan(agent, 900.0, tick=9, state=state, idle_streaks={},
                    outstanding=blocked) == []
        in_flight.remove(intents[0])  # applied or dropped
        free = agents_mod.outstanding_targets(in_flight)
        assert free == {}
        intents = plan(agent, 900.0, tick=9, state=state, idle_streaks={},
                       outstanding=free.get(agent.id, frozenset()))
        assert [i.kind for i in intents] == [ActionKind.SCALE_UP]

    def test_intent_ids_are_unique_and_ordered(self):
        agent = make_agent(role=AgentRole.SLICE, scope=("e2e",))
        chains = tuple((PodSpec(rv(i + 1, 1)),) for i in range(3))
        intents = plan(agent, 0.0, tick=0, state=waterloo(), idle_streaks={},
                       slice_chains=chains)
        assert [i.intent_id for i in intents] == [
            "acl1-t0-0", "acl1-t0-1", "acl1-t0-2",
        ]
        assert [i.pod_specs for i in intents] == list(chains)


def cluster_snapshot(state):
    """Everything of the cluster a plan could read, copied."""
    return (
        dict(state.pods),
        dict(state.bindings),
        {node_id: node.taints for node_id, node in state.nodes.items()},
        set(state.powered_off),
        dict(state.node_info),
        {owner: set(pods) for owner, pods in state.by_owner.items()},
    )


class TestPlanningLeavesTheClusterUnchanged:
    """Energy and balancer loops read ``state.powered_off`` itself, which
    holds only because no plan changes the cluster: checked around every
    ``plan`` call of whole runs."""

    @pytest.fixture
    def roles(self, monkeypatch):
        planned = []
        original = agents_mod.plan

        def checked(agent, prediction, tick, state, *args):
            before = cluster_snapshot(state)
            intents = original(agent, prediction, tick, state, *args)
            assert cluster_snapshot(state) == before, (agent.id, tick)
            planned.append(agent.role)
            return intents

        monkeypatch.setattr(agents_mod, "plan", checked)
        return planned

    @pytest.mark.parametrize("name", list_scenarios())
    def test_builtins(self, roles, name):
        run(load_scenario(name))
        assert roles

    def test_fuzz(self, roles):
        rng = random.Random(20260814)
        for i in range(20):
            run(random_scenario(rng, i))
        # every role that reads the cluster
        assert {AgentRole.SCALER, AgentRole.ENERGY, AgentRole.BALANCER} <= set(roles)

    def test_contended(self, roles):
        run(loads(workloads.generate("contended", 1), ticks=150))
        assert roles


class FakeGrant:
    def __init__(self, kind, bonus=0.2, samples=5):
        self.kind = kind
        self.accuracy_bonus = bonus
        self.sample_count = samples


class TestAbsorbKnowledge:
    def test_model_grant_upgrades_predictor(self):
        agent = make_agent()
        level_before = agent.predictor.level
        agents_mod.absorb_knowledge(agent, FakeGrant("Model"))
        assert agent.predictor.accuracy_bonus == 0.2
        assert agent.predictor.level == level_before  # learning is not reset

    def test_dataset_grant_widens_window(self):
        agent = make_agent(span_ticks=10)
        agents_mod.absorb_knowledge(agent, FakeGrant("Dataset", samples=5))
        assert agent.span_ticks == 15
