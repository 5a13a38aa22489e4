"""Conflict management: coherency, lifecycle, brokering, detection, arbitration."""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import manager_settings, node, pod, rv, state_with, taint, tol
from loopsim import cluster, conflicts, scheduler
from loopsim.agents import (
    ActionIntent,
    ActionKind,
    AgentRole,
    LifecycleState,
    LoopAgent,
    PodSpec,
    resolve_scope,
)
from loopsim.conflicts import (
    CoherencyBaseline,
    ConflictKind,
    ConflictManager,
    Denial,
    Grant,
    Verdict,
)
from loopsim.cluster import PriorityLevel
from loopsim.scenario import list_scenarios, load_scenario, loads
from loopsim.sim import run
from test_acceptance import random_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

REGIONS = {
    "edge-calgary": "calgary",
    "edge-waterloo": "waterloo",
    "core-toronto": "toronto",
}


def make_agent(aid, value=10, scope=("waterloo",), role=AgentRole.SCALER):
    size, regions, nodes = resolve_scope(frozenset(scope), REGIONS)
    return LoopAgent(
        id=aid,
        role=role,
        size=size,
        regions=regions,
        nodes=nodes,
        priority=PriorityLevel(f"lvl-{aid}", value),
    )


def make_manager(*agents, trust=None, **settings):
    """A manager of *agents* whose ``manager`` section takes *settings*,
    by the names a scenario uses."""
    return ConflictManager(manager_settings(**settings), {a.id: a for a in agents},
                           trust or {})


def topology():
    """A cluster of the nodes in ``REGIONS``."""
    return state_with([node(n, region=r) for n, r in REGIONS.items()])


def make_intent(acl, tick, kind, target="svc", iid=None, specs=(), pods=(),
                magnitude=1.0):
    return ActionIntent(
        intent_id=iid or f"{acl}-t{tick}-0",
        acl_id=acl,
        kind=kind,
        target=target,
        magnitude=magnitude,
        pod_specs=tuple(specs),
        pod_ids=tuple(pods),
    )


class TestCoherencyBaseline:
    def test_flat_history_flags_a_spike(self):
        baseline = CoherencyBaseline(window=50, min_history=10, epsilon=1e-6)
        for _ in range(20):
            assert baseline.check(2.0, 3.0) is Verdict.NORMAL
        assert baseline.check(10.0, 3.0) is Verdict.ANOMALOUS

    def test_magnitude_at_mean_is_normal(self):
        baseline = CoherencyBaseline(window=50, min_history=10, epsilon=1e-6)
        for value in (1.0, 2.0, 3.0) * 5:
            baseline.check(value, 3.0)
        assert baseline.check(2.0, 3.0) is Verdict.NORMAL

    def test_warm_up_is_always_normal(self):
        baseline = CoherencyBaseline(window=50, min_history=10, epsilon=1e-6)
        for value in (1.0, 500.0, -3.0, 9000.0):
            assert baseline.check(value, 3.0) is Verdict.NORMAL

    def test_verdict_sample_still_enters_history(self):
        baseline = CoherencyBaseline(window=50, min_history=1, epsilon=1e-6)
        baseline.check(2.0, 3.0)
        baseline.check(100.0, 3.0)
        assert list(baseline.history) == [2.0, 100.0]

    def test_window_is_bounded(self):
        baseline = CoherencyBaseline(window=5, min_history=1, epsilon=1e-6)
        for i in range(9):
            baseline.check(float(i), 3.0)
        assert list(baseline.history) == [4.0, 5.0, 6.0, 7.0, 8.0]


class TestLifecycle:
    def test_first_anomaly_puts_under_observation(self):
        agent = make_agent("a")
        mgr = make_manager(agent)
        change = mgr.update_lifecycle(agent, Verdict.ANOMALOUS)
        assert change == ("Active", "UnderObservation")
        assert agent.lifecycle is LifecycleState.UNDER_OBSERVATION

    def test_three_consecutive_anomalies_suspend(self):
        agent = make_agent("a")
        mgr = make_manager(agent)
        mgr.update_lifecycle(agent, Verdict.ANOMALOUS)
        assert mgr.update_lifecycle(agent, Verdict.ANOMALOUS) is None
        change = mgr.update_lifecycle(agent, Verdict.ANOMALOUS)
        assert change == ("UnderObservation", "Suspended")

    def test_normal_streak_reinstates(self):
        agent = make_agent("a")
        mgr = make_manager(agent, lifecycle={"reinstate_after": 5})
        mgr.update_lifecycle(agent, Verdict.ANOMALOUS)
        for _ in range(5):
            assert agent.lifecycle is LifecycleState.UNDER_OBSERVATION
            mgr.update_lifecycle(agent, Verdict.NORMAL)
        assert agent.lifecycle is LifecycleState.ACTIVE

    def test_anomaly_resets_the_normal_streak(self):
        agent = make_agent("a")
        mgr = make_manager(agent, lifecycle={"reinstate_after": 3})
        mgr.update_lifecycle(agent, Verdict.ANOMALOUS)
        mgr.update_lifecycle(agent, Verdict.NORMAL)
        mgr.update_lifecycle(agent, Verdict.NORMAL)
        mgr.update_lifecycle(agent, Verdict.ANOMALOUS)  # streak back to zero
        mgr.update_lifecycle(agent, Verdict.NORMAL)
        mgr.update_lifecycle(agent, Verdict.NORMAL)
        assert agent.lifecycle is LifecycleState.UNDER_OBSERVATION

    def test_suspension_is_absorbing_until_release(self):
        agent = make_agent("a")
        mgr = make_manager(agent)
        for _ in range(3):
            mgr.update_lifecycle(agent, Verdict.ANOMALOUS)
        assert agent.lifecycle is LifecycleState.SUSPENDED
        assert mgr.update_lifecycle(agent, Verdict.NORMAL) is None
        assert agent.lifecycle is LifecycleState.SUSPENDED
        assert mgr.release("a")
        assert agent.lifecycle is LifecycleState.ACTIVE
        assert not mgr.release("a")  # only suspended agents can be released

    def test_active_plus_normal_is_a_noop(self):
        agent = make_agent("a")
        mgr = make_manager(agent)
        assert mgr.update_lifecycle(agent, Verdict.NORMAL) is None
        assert agent.lifecycle is LifecycleState.ACTIVE


class TestBroker:
    def test_trusted_request_is_granted(self):
        ran, core = make_agent("ran"), make_agent("core", scope=("toronto",))
        mgr = make_manager(ran, core, trust={"ran": [["core", "Model"]]})
        result = mgr.broker_exchange("ran", "core", "Model")
        assert isinstance(result, Grant)
        assert result.accuracy_bonus == mgr.settings["knowledge"]["model_bonus"]

    def test_untrusted_target_is_denied(self):
        ran, core = make_agent("ran"), make_agent("core", scope=("toronto",))
        mgr = make_manager(ran, core)
        result = mgr.broker_exchange("ran", "core", "Model")
        assert result == Denial("ran", "core", "Model", "NotTrusted")

    def test_kind_mismatch_is_denied(self):
        ran, core = make_agent("ran"), make_agent("core", scope=("toronto",))
        mgr = make_manager(ran, core, trust={"ran": [["core", "Dataset"]]})
        result = mgr.broker_exchange("ran", "core", "Model")
        assert isinstance(result, Denial) and result.reason == "NotTrusted"

    def test_suspended_source_is_denied(self):
        ran, core = make_agent("ran"), make_agent("core", scope=("toronto",))
        ran.lifecycle = LifecycleState.SUSPENDED
        mgr = make_manager(ran, core, trust={"ran": [["core", "Model"]]})
        result = mgr.broker_exchange("ran", "core", "Model")
        assert isinstance(result, Denial) and result.reason == "SourceSuspended"

    def test_unknown_agent_is_denied(self):
        mgr = make_manager(make_agent("ran"))
        result = mgr.broker_exchange("ran", "ghost", "Model")
        assert isinstance(result, Denial) and result.reason == "UnknownAgent"

    def test_dataset_grant_carries_sample_count(self):
        ran = make_agent("ran", scope=("waterloo",))
        ran.span_ticks = 12
        core = make_agent("core", scope=("toronto",))
        mgr = make_manager(ran, core, trust={"ran": [["core", "Dataset"]]})
        grant = mgr.broker_exchange("ran", "core", "Dataset")
        assert grant.sample_count == 12
        assert grant.accuracy_bonus == 0.0

    def test_repeated_grants_get_distinct_artifact_ids(self):
        """Every grant is numbered, so a receiver needs no record of the
        artifacts it has absorbed to tell them apart."""
        ran, core = make_agent("ran"), make_agent("core", scope=("toronto",))
        mgr = make_manager(ran, core, trust={"ran": [["core", "Dataset"], ["core", "Model"]]})
        grants = [mgr.broker_exchange("ran", "core", kind)
                  for kind in ("Dataset", "Dataset", "Model", "Model", "Dataset")]
        assert all(isinstance(g, Grant) for g in grants)
        assert len({g.artifact_id for g in grants}) == len(grants)


class TestRouting:
    def test_single_region_scopes_stay_regional(self):
        a, b = make_agent("a"), make_agent("b")
        mgr = make_manager(a, b)
        instance = mgr.route(["a", "b"])
        assert (instance.name, instance.period) == ("regional:waterloo", 1)
        assert mgr.home["a"] is mgr.home["b"] is instance

    def test_mega_participant_escalates(self):
        a = make_agent("a")
        mega = make_agent("slice", scope=("e2e",))
        mgr = make_manager(a, mega)
        assert mgr.route(["a", "slice"]).name == "e2e"

    def test_cross_region_scopes_escalate(self):
        a = make_agent("a", scope=("waterloo",))
        b = make_agent("b", scope=("toronto",))
        mgr = make_manager(a, b)
        assert mgr.route(["a", "b"]).name == "e2e"

    def test_e2e_tick_arithmetic(self):
        mgr = make_manager(make_agent("a"), e2e_period=5)
        e2e = mgr.instances["e2e"]
        assert e2e.period == 5
        assert e2e.next_tick(7) == 10
        assert e2e.next_tick(10) == 10
        assert e2e.next_tick(0) == 0 and e2e.next_tick(5) == 5
        assert e2e.next_tick(3) != 3
        # a region's instance acts on every tick
        assert mgr.home["a"].next_tick(3) == 3


class TestDetection:
    def waterloo_state(self, *pods_with_binds):
        """One-node cluster so every placement claim lands on edge-waterloo."""
        pods = [p for p, _ in pods_with_binds]
        bound = [(p.id, n) for p, n in pods_with_binds if n]
        return state_with(
            [node("edge-waterloo", 2000, 4096, region="waterloo")], pods, bound
        )

    def test_two_claims_over_free_capacity_collide(self):
        a, b = make_agent("a"), make_agent("b", value=5)
        mgr = make_manager(a, b)
        state = self.waterloo_state()
        intents = [
            make_intent("a", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(1500, 3072))]),
            make_intent("b", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(1500, 3072))]),
        ]
        found = mgr.detect_resource_conflicts(0, intents, state)
        assert len(found) == 1
        record, implicated = found[0]
        assert record.kind is ConflictKind.RESOURCE_CONTENTION
        assert record.participants == ("a", "b")
        assert record.targets == ("edge-waterloo",)
        assert implicated == {i.intent_id for i in intents}

    def test_claims_that_fit_together_are_not_a_conflict(self):
        a, b = make_agent("a"), make_agent("b", value=5)
        mgr = make_manager(a, b)
        state = self.waterloo_state()
        intents = [
            make_intent("a", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(500, 1024))]),
            make_intent("b", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(500, 1024))]),
        ]
        assert mgr.detect_resource_conflicts(0, intents, state) == []

    @pytest.mark.parametrize("extra, collides", [
        ((0, 0), False), ((1, 0), True), ((0, 1), True),
    ], ids=["exactly-free", "one-millicore-more", "one-mib-more"])
    def test_claims_summing_to_the_free_room_fit(self, extra, collides):
        # a resident leaves 1700 millicores and 3596 MiB free, and the two
        # claims sum to exactly that, plus *extra*
        a, b = make_agent("a"), make_agent("b", value=5)
        mgr = make_manager(a, b)
        state = self.waterloo_state((pod("resident", 300, 500, owner="c"), "edge-waterloo"))
        intents = [
            make_intent("a", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(1000, 2000))]),
            make_intent("b", 0, ActionKind.SCALE_UP,
                        specs=[PodSpec(rv(700 + extra[0], 1596 + extra[1]))]),
        ]
        found = mgr.detect_resource_conflicts(0, intents, state)
        assert [record.kind for record, _ in found] == (
            [ConflictKind.RESOURCE_CONTENTION] if collides else [])

    def test_single_intent_is_never_a_conflict(self):
        a = make_agent("a")
        mgr = make_manager(a)
        state = self.waterloo_state()
        intents = [
            make_intent("a", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(1900, 4000))])
        ]
        assert mgr.detect_resource_conflicts(0, intents, state) == []

    def test_opposite_directions_on_one_node_collide(self):
        a, b = make_agent("a"), make_agent("b", value=5)
        mgr = make_manager(a, b)
        resident = pod("b-pod", 500, 1024, owner="b")
        state = self.waterloo_state((resident, "edge-waterloo"))
        intents = [
            make_intent("a", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(100, 128))]),
            make_intent("b", 0, ActionKind.SCALE_DOWN, pods=["b-pod"]),
        ]
        found = mgr.detect_resource_conflicts(0, intents, state)
        assert len(found) == 1
        assert found[0][0].participants == ("a", "b")

    def test_interference_needs_enough_toggles(self):
        a, b = make_agent("a", value=3), make_agent("b", value=7)
        mgr = make_manager(a, b, interference={"window_ticks": 10, "toggle_threshold": 3})
        # off(1), on(2): two toggles so far (node starts powered-on)
        mgr.note_execution(1, "a", "edge-waterloo", -1)
        mgr.note_execution(2, "b", "edge-waterloo", +1)
        assert mgr.detect_interference(2, [], topology()) == []
        pending = [
            make_intent("a", 3, ActionKind.POWER_OFF, target="edge-waterloo")
        ]
        records = mgr.detect_interference(3, pending, topology())
        assert len(records) == 1
        assert records[0].kind is ConflictKind.INTERFERENCE
        assert records[0].participants == ("a", "b")

    def test_monotone_actions_never_interfere(self):
        a, b = make_agent("a"), make_agent("b", value=5)
        mgr = make_manager(a, b, interference={"toggle_threshold": 3})
        for t in range(6):
            mgr.note_execution(t, "a" if t % 2 else "b", "svc", +1)
        assert mgr.detect_interference(6, [], topology()) == []

    def test_single_actor_oscillation_is_not_interference(self):
        a = make_agent("a")
        mgr = make_manager(a, interference={"toggle_threshold": 3})
        for t, direction in enumerate((+1, -1, +1, -1, +1, -1)):
            mgr.note_execution(t, "a", "svc", direction)
        assert mgr.detect_interference(6, [], topology()) == []

    def test_old_history_falls_out_of_the_window(self):
        a, b = make_agent("a", value=3), make_agent("b", value=7)
        mgr = make_manager(a, b, interference={"window_ticks": 3, "toggle_threshold": 3})
        mgr.note_execution(0, "a", "edge-waterloo", -1)
        mgr.note_execution(1, "b", "edge-waterloo", +1)
        mgr.note_execution(2, "a", "edge-waterloo", -1)
        # at tick 9 all of that is stale
        assert mgr.detect_interference(9, [], topology()) == []

    def test_scaler_target_naming_a_node_starts_powered_on(self):
        # down, up, down: three toggles from powered-on, two from the first
        # observed direction, which a target that is no node starts from
        a, b = make_agent("a", value=3), make_agent("b", value=7)
        for target, found in (("edge-waterloo", 1), ("svc-waterloo", 0)):
            mgr = make_manager(a, b, interference={"toggle_threshold": 3})
            mgr.note_execution(1, "a", target, -1)
            mgr.note_execution(2, "b", target, +1)
            pending = [make_intent("a", 3, ActionKind.SCALE_DOWN, target=target)]
            assert len(mgr.detect_interference(3, pending, topology())) == found


ENGINE_CLAIMS = ConflictManager._claims
ENGINE_DETECT = ConflictManager.detect_resource_conflicts


REFERENCE_RANKINGS = []  # the toleration set of every fresh ranking below


def fresh_ranking(state, tolerations):
    """Tier, most free cpu, most free memory, id, over a fresh filter: no
    index of the state is read."""
    REFERENCE_RANKINGS.append(tolerations)

    def key(node_id):
        free = cluster.free_capacity(state, node_id)
        return (scheduler.score_tier(state, tolerations, node_id), -free.cpu_millicores,
                -free.memory_mib, node_id)

    return sorted(scheduler.filter_nodes(state, tolerations), key=key)


def per_spec_claims(manager, intent, state, top_node):
    """Reference claims: a fresh filter and ranking for every pod spec."""
    if intent.kind not in (ActionKind.SCALE_UP, ActionKind.INSTANTIATE):
        return ENGINE_CLAIMS(manager, intent, state, top_node)
    out = []
    for spec in intent.pod_specs:
        ranked = fresh_ranking(state, spec.tolerations)
        if ranked:
            out.append((ranked[0], spec.request))
    return out


class TestRankingPerTolerationSet:
    """Detection ranks the nodes (``score_nodes``) once per toleration set, not
    once per spec, and finds what a fresh ranking per spec finds."""

    @pytest.fixture
    def rankings(self, monkeypatch):
        REFERENCE_RANKINGS.clear()
        calls = []
        score_nodes = scheduler.score_nodes

        def counted(state, tolerations):
            calls.append(tolerations)
            return score_nodes(state, tolerations)

        monkeypatch.setattr(scheduler, "score_nodes", counted)
        return calls

    @staticmethod
    def reference(monkeypatch, mgr, *args):
        seq = mgr._conflict_seq
        with monkeypatch.context() as m:
            m.setattr(ConflictManager, "_claims", per_spec_claims)
            want = ENGINE_DETECT(mgr, *args)
        mgr._conflict_seq = seq
        return want

    def test_many_specs_rank_once_per_set(self, monkeypatch, rankings):
        agents = [make_agent(a, value=v) for a, v in (("a", 10), ("b", 5), ("c", 1))]
        mgr = make_manager(*agents)
        state = state_with([
            node("core-toronto", 8000, 16384, region="toronto"),
            node("edge-calgary", 2000, 4096, region="calgary", taints=[taint("a")]),
            node("edge-waterloo", 2000, 4096, region="waterloo",
                 taints=[taint("b", "PreferNoSchedule")]),
        ])
        sets = [(), (tol("a"),), (tol("b", "PreferNoSchedule"),)]
        intents = [
            make_intent(acl, 0, ActionKind.SCALE_UP, iid=f"{acl}-{n}", specs=[
                PodSpec(rv(700, 512), frozenset(sets[(n + i) % 3])) for i in range(10)
            ])
            for n, acl in enumerate(("a", "b", "c", "a"))
        ]
        want = self.reference(monkeypatch, mgr, 0, intents, state)
        assert len(REFERENCE_RANKINGS) == 40
        assert rankings == []
        found = mgr.detect_resource_conflicts(0, intents, state)
        assert len(rankings) == 3
        assert set(rankings) == {frozenset(s) for s in sets}
        assert found == want
        assert [r.targets for r, _ in found] == [
            ("core-toronto",), ("edge-calgary",), ("edge-waterloo",),
        ]

    def test_records_match_the_reference_over_whole_runs(self, monkeypatch, rankings):
        seen = {"records": 0, "reference rankings": 0, "rankings": 0}

        def checked(mgr, tick, intents, state):
            reference_before, before = len(REFERENCE_RANKINGS), len(rankings)
            want = self.reference(monkeypatch, mgr, tick, intents, state)
            assert len(rankings) == before
            got = ENGINE_DETECT(mgr, tick, intents, state)
            assert got == want, f"tick {tick}"
            seen["records"] += len(got)
            seen["reference rankings"] += len(REFERENCE_RANKINGS) - reference_before
            seen["rankings"] += len(rankings) - before
            return got

        monkeypatch.setattr(ConflictManager, "detect_resource_conflicts", checked)
        rng = random.Random(20260814)
        scenarios = [load_scenario(name) for name in list_scenarios()]
        scenarios += [random_scenario(rng, i) for i in range(20)]
        for scn in scenarios:
            run(scn)
        assert seen["records"] > 0
        assert seen["rankings"] < seen["reference rankings"]


class TestResolve:
    def test_contention_goes_to_highest_priority(self):
        a, b = make_agent("acl1", value=10), make_agent("acl2", value=5)
        mgr = make_manager(a, b)
        record = mgr._record(0, ConflictKind.RESOURCE_CONTENTION,
                             ["acl1", "acl2"], ["edge-waterloo"])
        resolved = mgr.resolve(record, 0)
        assert resolved.resolution.kind == "arbitrated"
        assert resolved.resolution.winner == "acl1"
        assert resolved.resolution.losers == ("acl2",)

    def test_equal_priorities_tie_break_lexicographically(self):
        a, b = make_agent("beta", value=5), make_agent("alfa", value=5)
        mgr = make_manager(a, b)
        record = mgr._record(0, ConflictKind.RESOURCE_CONTENTION,
                             ["alfa", "beta"], ["edge-waterloo"])
        assert mgr.resolve(record, 0).resolution.winner == "alfa"

    def test_interference_freezes_the_lowest_priority(self):
        energy = make_agent("energy", value=3, scope=("calgary",))
        balancer = make_agent("balancer", value=7, scope=("calgary",))
        mgr = make_manager(energy, balancer, interference={"cooldown_ticks": 10})
        record = mgr._record(4, ConflictKind.INTERFERENCE,
                             ["balancer", "energy"], ["edge-calgary"])
        resolved = mgr.resolve(record, 4)
        assert resolved.resolution.kind == "frozen"
        assert resolved.resolution.frozen_acl == "energy"
        assert resolved.resolution.until_tick == 14
        # the freeze holds the frozen loop on that target up to tick 13 and
        # ends at 14; the other participant is never held
        state = state_with([node("edge-calgary", region="calgary")])
        for tick, acl, frozen in ((5, "energy", True), (5, "balancer", False),
                                  (13, "energy", True), (14, "energy", False)):
            intent = make_intent(acl, tick, ActionKind.POWER_OFF, target="edge-calgary")
            out = mgr.process_tick(tick, [intent], state)
            assert out.dropped == ([(intent, "frozen")] if frozen else []), (tick, acl)
            assert out.survivors == ([] if frozen else [intent]), (tick, acl)

    def test_a_freeze_with_no_cooldown_ends_with_its_ruling_tick(self):
        energy = make_agent("energy", value=3, scope=("calgary",))
        balancer = make_agent("balancer", value=7, scope=("calgary",))
        mgr = make_manager(energy, balancer,
                           interference={"cooldown_ticks": 0, "toggle_threshold": 3})
        state = state_with([node("edge-calgary", region="calgary")])
        mgr.note_execution(1, "energy", "edge-calgary", -1)
        mgr.note_execution(2, "balancer", "edge-calgary", +1)
        off = make_intent("energy", 3, ActionKind.POWER_OFF, target="edge-calgary")
        out = mgr.process_tick(3, [off], state)
        assert [(r.resolution.frozen_acl, r.resolution.until_tick)
                for r in out.resolved] == [("energy", 3)]
        assert out.dropped == [(off, "frozen")]
        # two toggles in the window now, under the threshold: only a freeze
        # left standing could drop this
        on = make_intent("energy", 4, ActionKind.POWER_ON, target="edge-calgary")
        out = mgr.process_tick(4, [on], state)
        assert out.dropped == [] and out.detected == []
        assert out.survivors == [on]

    def test_scaling_priorities_preserves_the_winner(self):
        for factor in (1, 3, 100):
            a = make_agent("a", value=4 * factor)
            b = make_agent("b", value=9 * factor)
            mgr = make_manager(a, b)
            record = mgr._record(0, ConflictKind.RESOURCE_CONTENTION,
                                 ["a", "b"], ["edge-waterloo"])
            assert mgr.resolve(record, 0).resolution.winner == "b"


class TestProcessTick:
    def test_regional_contention_resolves_same_tick(self):
        a, b = make_agent("acl1", value=10), make_agent("acl2", value=5)
        mgr = make_manager(a, b)
        state = state_with([node("edge-waterloo", 2000, 4096, region="waterloo")])
        intents = [
            make_intent("acl1", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(1500, 3072))]),
            make_intent("acl2", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(1500, 3072))]),
        ]
        out = mgr.process_tick(0, intents, state)
        assert [r.kind for r in out.detected] == [ConflictKind.RESOURCE_CONTENTION]
        assert [r.resolution.winner for r in out.resolved] == ["acl1"]
        assert [i.acl_id for i in out.survivors] == ["acl1"]
        assert [i.acl_id for i in out.requeued] == ["acl2"]
        assert out.requeued[0] is intents[1]  # the same object, not a copy
        assert mgr.held() == [intents[1]]

    def test_anomalous_magnitude_drops_the_intent(self):
        a = make_agent("acl1")
        mgr = make_manager(a, coherency={"min_history": 3})
        state = state_with([node("edge-waterloo", region="waterloo")])
        for t in range(4):
            out = mgr.process_tick(
                t, [make_intent("acl1", t, ActionKind.SCALE_UP, iid=f"i{t}",
                                specs=[PodSpec(rv(10, 10))], magnitude=5.0)],
                state,
            )
            assert not out.dropped
        out = mgr.process_tick(
            4, [make_intent("acl1", 4, ActionKind.SCALE_UP, iid="spike",
                            specs=[PodSpec(rv(10, 10))], magnitude=500.0)],
            state,
        )
        assert [(i.intent_id, reason) for i, reason in out.dropped] == [
            ("spike", "anomalous")
        ]
        assert a.lifecycle is LifecycleState.UNDER_OBSERVATION

    def test_a_requeued_intent_is_not_checked_again(self):
        a, b = make_agent("acl1", value=10), make_agent("acl2", value=5)
        mgr = make_manager(a, b)
        state = state_with([node("edge-waterloo", 2000, 4096, region="waterloo")])
        intents = [
            make_intent("acl1", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(1500, 3072))]),
            make_intent("acl2", 0, ActionKind.SCALE_UP, specs=[PodSpec(rv(1500, 3072))]),
        ]
        out = mgr.process_tick(0, intents, state)
        assert out.requeued == [intents[1]]
        seen = len(mgr.baselines["acl2"].history)
        out = mgr.process_tick(1, [], state)
        assert out.verdicts == []
        assert len(mgr.baselines["acl2"].history) == seen
        assert out.survivors == [intents[1]]
        assert mgr.held() == []

    def test_frozen_agent_intents_are_dropped(self):
        energy = make_agent("energy", value=3, scope=("calgary",))
        balancer = make_agent("balancer", value=7, scope=("calgary",))
        mgr = make_manager(energy, balancer, interference={"cooldown_ticks": 10})
        mgr.freezes[("energy", "edge-calgary")] = 12
        state = state_with([node("edge-calgary", region="calgary")])
        intent = make_intent("energy", 5, ActionKind.POWER_OFF, target="edge-calgary")
        out = mgr.process_tick(5, [intent], state)
        assert [(i.intent_id, r) for i, r in out.dropped] == [
            (intent.intent_id, "frozen")
        ]
        assert out.survivors == []

    def test_mega_conflicts_wait_for_the_e2e_tick(self):
        ran = make_agent("ran", value=10, scope=("waterloo",))
        slice_acl = make_agent("slice", value=20, scope=("e2e",),
                               role=AgentRole.SLICE)
        mgr = make_manager(ran, slice_acl, e2e_period=5)
        state = state_with([node("edge-waterloo", 2000, 4096, region="waterloo")])
        intents = [
            make_intent("ran", 7, ActionKind.SCALE_UP, specs=[PodSpec(rv(1500, 3072))]),
            make_intent("slice", 7, ActionKind.INSTANTIATE,
                        specs=[PodSpec(rv(1500, 3072))]),
        ]
        out7 = mgr.process_tick(7, intents, state)
        assert [r.instance.name for r in out7.detected] == ["e2e"]
        assert out7.detected[0].instance is mgr.home["slice"]
        assert out7.resolved == []          # buffered, not settled
        assert out7.survivors == []
        held = [i.intent_id for i in intents]
        assert [i.intent_id for i in mgr.held()] == held
        out8 = mgr.process_tick(8, [], state)
        assert out8.resolved == []
        assert [i.intent_id for i in mgr.held()] == held
        out10 = mgr.process_tick(10, [], state)
        assert mgr.held() == [intents[0]]   # the loser, requeued for tick 11
        assert [r.resolution.winner for r in out10.resolved] == ["slice"]
        assert [i.acl_id for i in out10.survivors] == ["slice"]
        assert [i.acl_id for i in out10.requeued] == ["ran"]

    def test_unconflicted_mega_intents_are_buffered_to_period(self):
        slice_acl = make_agent("slice", value=20, scope=("e2e",), role=AgentRole.SLICE)
        mgr = make_manager(slice_acl, e2e_period=5)
        state = state_with([node("edge-waterloo", region="waterloo")])
        intent = make_intent("slice", 7, ActionKind.INSTANTIATE,
                             specs=[PodSpec(rv(10, 10))])
        out7 = mgr.process_tick(7, [intent], state)
        assert [i.intent_id for i in out7.buffered] == [intent.intent_id]
        assert out7.survivors == []
        assert mgr.held() == [intent]
        out10 = mgr.process_tick(10, [], state)
        assert [i.intent_id for i in out10.survivors] == [intent.intent_id]
        assert mgr.held() == []


def test_a_tick_of_many_conflicts_is_linear_work():
    """One regional tick with n conflicts, a scale-down against a power-on on
    each of n nodes, costs work linear in n: each ruling touches only its own
    intents.  Work is the number of line events traced in ``conflicts.py``,
    so the bound does not move with the host's speed."""
    def lines(n):
        names = [f"n{i:04d}" for i in range(n)]
        state = state_with([node(nid, region="waterloo") for nid in names],
                           [pod(f"p-{nid}", owner="down") for nid in names],
                           [(f"p-{nid}", nid) for nid in names])
        mgr = make_manager(make_agent("down", value=10), make_agent("up", value=5))
        intents = [make_intent("down", 0, ActionKind.SCALE_DOWN, iid=f"d-{nid}",
                               pods=[f"p-{nid}"]) for nid in names]
        intents += [make_intent("up", 0, ActionKind.POWER_ON, iid=f"u-{nid}", target=nid)
                    for nid in names]
        count = 0

        def trace(frame, event, arg):
            nonlocal count
            if frame.f_code.co_filename != conflicts.__file__:
                return None
            count += event == "line"
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            out = mgr.process_tick(0, intents, state)
        finally:
            sys.settrace(previous)
        assert len(out.resolved) == n
        assert [i.intent_id for i in out.requeued] == [f"u-{nid}" for nid in names]
        return count

    assert lines(400) / lines(100) <= 5


def test_each_submitted_intent_gets_one_coherency_check():
    """On every tick of the built-ins, the fuzz scenarios and a contended run,
    the trace holds one coherency verdict per intent submitted that tick, so
    an intent requeued for a retry is not checked again."""
    rng = random.Random(20260814)
    scenarios = [load_scenario(name) for name in list_scenarios()]
    scenarios += [random_scenario(rng, i) for i in range(20)]
    scenarios.append(loads(workloads.generate("contended", 1)))
    requeued = 0
    for scn in scenarios:
        trace, _, _ = run(scn)
        counts = Counter((e["tick"], e["kind"]) for e in trace.events)
        for tick in range(scn.ticks):
            assert counts[tick, "coherency"] == counts[tick, "intent-submitted"], (
                scn.name, tick)
        requeued += sum(n for (_, kind), n in counts.items() if kind == "intent-requeued")
    assert requeued > 0


def mega_loops(data: dict) -> set[str]:
    """The loops a scenario's own scopes make Mega: a scope with an ``e2e``
    entry, or with entries over two or more regions."""
    region_of = {n["id"]: n["region"] for n in data["nodes"]}
    regions = set(region_of.values())
    mega = set()
    for agent in data["agents"]:
        touched = {entry if entry in regions else region_of[entry.split("/", 1)[0]]
                   for entry in agent["scope"] if entry != "e2e"}
        if "e2e" in agent["scope"] or len(touched) >= 2:
            mega.add(agent["id"])
    return mega


def test_each_submitted_intent_carries_its_home_instances_check_tick():
    """On the built-ins, the fuzz scenarios and both workloads, an
    ``intent-submitted`` of a Mega loop carries the first multiple of
    ``e2e_period`` at or after its tick as ``check_tick``, and any other its
    own tick."""
    rng = random.Random(20260814)
    scenarios = [load_scenario(name) for name in list_scenarios()]
    scenarios += [random_scenario(rng, i) for i in range(20)]
    scenarios += [loads(workloads.generate(name, 1), ticks=150)
                  for name in ("steady-long", "contended")]
    seen = Counter()
    for scn in scenarios:
        mega = mega_loops(scn.data)
        period = scn.data["manager"]["e2e_period"]
        trace, _, _ = run(scn)
        for e in trace.events:
            if e["kind"] != "intent-submitted":
                continue
            tick = e["tick"]
            want = next(t for t in range(tick, tick + period) if t % period == 0) \
                if e["acl"] in mega else tick
            assert e["check_tick"] == want, (scn.name, e)
            seen["mega" if e["acl"] in mega else "other"] += 1
            seen["later"] += want > tick
    assert seen["mega"] and seen["other"] and seen["later"], seen
