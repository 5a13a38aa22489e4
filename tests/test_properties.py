"""Property-based tests for the invariants the engine promises to hold."""

import copy
import math
import random
from collections import Counter

import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import icm_oracle
import oracle
from helpers import manager_settings, node, pod, rv, state_with, taint, tol
from loopsim.agents import (
    ActionIntent,
    ActionKind,
    AgentRole,
    LoopAgent,
    PodSpec,
    PredictorState,
    SizeClass,
    analyze,
    resolve_scope,
)
from loopsim.cluster import (
    PriorityLevel,
    bind,
    evict,
    free_capacity,
    tolerates,
    used_capacity,
)
from loopsim.conflicts import (
    CoherencyBaseline,
    ConflictKind,
    ConflictManager,
    ConflictRecord,
    Instance,
    Verdict,
)
from loopsim.errors import ValidationError
from loopsim.scenario import BUILTIN_SCENARIOS, from_dict, list_scenarios
from loopsim.scheduler import coordinate, filter_nodes
from loopsim.sim import check_invariants, run, verify_trace
from test_acceptance import random_document

KEYS = ("zone", "tier", "power")
EFFECTS = ("NoSchedule", "PreferNoSchedule", "NoExecute")

taints_st = st.sets(
    st.tuples(st.sampled_from(KEYS), st.sampled_from(EFFECTS)), max_size=3
).map(lambda pairs: tuple(taint(k, e) for k, e in sorted(pairs)))

tols_st = st.dictionaries(
    st.sampled_from(KEYS),
    st.frozensets(st.sampled_from(EFFECTS), min_size=1),
    max_size=3,
).map(lambda d: tuple(tol(k, *sorted(d[k])) for k in sorted(d)))


def small_cluster(taint_sets):
    return state_with([
        node(f"n{i}", taints=ts) for i, ts in enumerate(taint_sets)
    ])


class TestTolerationMonotonicity:
    @given(
        st.lists(taints_st, min_size=1, max_size=4),
        tols_st,
        st.sampled_from(KEYS),
    )
    def test_adding_a_toleration_never_shrinks_the_feasible_set(
        self, taint_sets, tols, extra_key
    ):
        state = small_cluster(taint_sets)
        before = filter_nodes(state, frozenset(tols))
        after = filter_nodes(state, frozenset(tols) | {tol(extra_key)})
        assert before <= after

    @given(st.lists(taints_st, min_size=1, max_size=4), tols_st)
    def test_tolerating_everything_admits_every_node(self, taint_sets, tols):
        state = small_cluster(taint_sets)
        everything = frozenset(tol(k) for k in KEYS)
        assert filter_nodes(state, everything) == set(state.nodes)

    @given(st.lists(taints_st, min_size=1, max_size=4), tols_st)
    def test_filter_agrees_with_the_pairwise_predicate(self, taint_sets, tols):
        state = small_cluster(taint_sets)
        tolerations = frozenset(tols)
        expected = {
            nid for nid, n in state.nodes.items() if tolerates(tolerations, n)
        }
        assert filter_nodes(state, tolerations) == expected


class TestPhaseMachine:
    @given(st.integers(1, 1900), st.integers(1, 4000))
    def test_bind_evict_restores_capacity_and_pending(self, cpu, mem):
        state = state_with([node("n1")], pods=[pod("p", cpu=cpu, mem=mem)])
        free0 = free_capacity(state, "n1")
        bind(state, "p", "n1")
        assert used_capacity(state, "n1") == rv(cpu, mem)
        evict(state, "p")
        assert free_capacity(state, "n1") == free0
        assert "p" in state.pods
        assert "p" not in state.bindings

    @given(st.lists(st.integers(100, 900), min_size=1, max_size=5))
    def test_used_plus_free_is_total_capacity(self, cpus):
        pods = [pod(f"p{i}", cpu=c, mem=c) for i, c in enumerate(cpus)]
        state = state_with([node("n1", cpu=8000, mem=8000)], pods=pods)
        for p in pods:
            if free_capacity(state, "n1").covers(p.request):
                bind(state, p.id, "n1")
        total = used_capacity(state, "n1") + free_capacity(state, "n1")
        assert total == state.nodes["n1"].capacity


class TestSmoothing:
    samples_st = st.lists(
        st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=30,
    )

    @given(samples_st, st.floats(0.01, 1.0))
    def test_level_stays_within_the_sample_envelope(self, values, alpha):
        window = tuple(enumerate(values))
        start = values[0]
        _, predictor = analyze(window, PredictorState(alpha=alpha, level=start))
        slack = 1e-9 * max(1.0, abs(max(values)))  # float rounding headroom
        assert min(values) - slack <= predictor.level <= max(values) + slack

    @given(samples_st, st.floats(0.01, 1.0))
    def test_refolding_the_same_window_changes_nothing(self, values, alpha):
        window = tuple(enumerate(values))
        first, predictor = analyze(window, PredictorState(alpha=alpha))
        second, again = analyze(window, predictor)
        assert again == predictor
        assert second == first

    @given(samples_st)
    def test_alpha_one_tracks_the_latest_sample(self, values):
        window = tuple(enumerate(values))
        prediction, _ = analyze(window, PredictorState(alpha=1.0))
        assert prediction == values[-1]


class TestSchedulingMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_agrees_with_the_brute_force_oracle(self, seed):
        self.agrees(oracle.random_instance(random.Random(seed)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tied_victim_sets_agree_with_the_brute_force_oracle(self, seed):
        self.agrees(oracle.tied_victims_instance(random.Random(seed)))

    @staticmethod
    def agrees(inst: dict) -> None:
        evictions, decisions, placement, problems = oracle.run_round(inst)
        assert problems == []
        state, queue = oracle.to_engine(inst)
        result = coordinate(state, queue)
        assert result.taint_evictions == evictions
        assert oracle.normalize_decisions(result.decisions) == decisions
        assert state.bindings == placement


class TestProcessTickMatchesReference:
    """``process_tick`` against ``icm_oracle`` over a few ticks of random small
    intent sets: regional and Mega loops, every action kind, and settings
    that reach coherency drops, freezes and their expiry, interference,
    arbitration with requeue, and end-to-end buffering."""

    @staticmethod
    def engine_intent(intent: dict) -> ActionIntent:
        return ActionIntent(
            intent_id=intent["id"],
            acl_id=intent["acl"],
            kind=ActionKind(intent["kind"]),
            target=intent["target"],
            magnitude=intent["magnitude"],
            pod_specs=tuple(
                PodSpec(rv(s["cpu"], s["mem"]),
                        frozenset(tol(k, *sorted(e)) for k, e in s["tols"].items()))
                for s in intent["specs"]
            ),
            pod_ids=tuple(intent["pods"]),
        )

    @staticmethod
    def plain(out) -> dict:
        resolved = []
        for r in out.resolved:
            res = r.resolution
            tail = ((res.winner, res.losers) if res.kind == "arbitrated"
                    else (res.frozen_acl, res.until_tick))
            resolved.append((r.conflict_id, r.kind.value, r.instance.name, r.tick,
                             res.kind, *tail))
        return {
            "verdicts": [(acl, m, v.value) for acl, m, v in out.verdicts],
            "lifecycle": list(out.lifecycle_changes),
            "detected": [(r.conflict_id, r.tick, r.kind.value, r.participants,
                          r.targets, r.instance.name) for r in out.detected],
            "resolved": resolved,
            "dropped": [(i.intent_id, reason) for i, reason in out.dropped],
            "requeued": [i.intent_id for i in out.requeued],
            "buffered": [i.intent_id for i in out.buffered],
            "survivors": [i.intent_id for i in out.survivors],
        }

    def run_case(self, seed: int) -> list[tuple]:
        """Both sides over one random case.  For each tick: the tick, the
        reference's freezes before it, its outcome, and every intent so far
        by id."""
        rng = random.Random(seed)
        inst = oracle.random_instance(rng)
        nodes, pods = inst["nodes"], inst["pods"]
        state, _ = oracle.to_engine(inst)
        settings_ = icm_oracle.random_settings(rng)
        agents = icm_oracle.random_agents(rng)
        ref = icm_oracle.new_manager(settings_, agents)
        mgr = ConflictManager(manager_settings(**settings_), {
            acl: LoopAgent(id=acl, role=AgentRole.SCALER,
                           size=SizeClass.MEGA if a["mega"] else SizeClass.MACRO,
                           regions=tuple(a["regions"]), nodes=(),
                           priority=PriorityLevel(f"lvl-{acl}", a["prio"]))
            for acl, a in agents.items()
        }, {})
        by_id, outcomes = {}, []
        start = rng.randint(0, 4)
        for tick in range(start, start + rng.randint(1, 8)):
            intents = icm_oracle.random_intents(rng, agents, tick, nodes, pods)
            engine_intents = [self.engine_intent(i) for i in intents]
            by_id.update((i["id"], i) for i in intents)
            assert [mgr.home[i.acl_id].next_tick(tick) for i in engine_intents] == [
                icm_oracle.check_tick(ref, i) for i in intents]
            before = dict(ref["freezes"])
            want = icm_oracle.process_tick(ref, tick, intents, nodes, pods)
            out = mgr.process_tick(tick, engine_intents, state)
            assert self.plain(out) == want, tick
            assert [i.intent_id for i in mgr.held()] == [
                i["id"] for i in icm_oracle.held(ref)]
            assert {acl: a.lifecycle.value for acl, a in mgr.agents.items()} == {
                acl: life["state"] for acl, life in ref["life"].items()}
            for intent in out.survivors:
                mgr.note_execution(tick, intent.acl_id, intent.target, intent.direction)
            icm_oracle.note_applied(ref, tick, [by_id[i] for i in want["survivors"]])
            outcomes.append((tick, before, want, by_id))
        return outcomes

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_engine_agrees_with_the_reference(self, seed):
        self.run_case(seed)

    def test_random_cases_reach_every_rule(self):
        seen = Counter()
        for seed in range(150):
            for tick, before, out, by_id in self.run_case(seed):
                seen.update(reason for _, reason in out["dropped"])
                seen.update(r[4] + " " + r[2].split(":")[0] for r in out["resolved"])
                seen.update("settled late" for r in out["resolved"] if r[3] < tick)
                seen.update(after for _, _, after in out["lifecycle"])
                seen["requeued"] += len(out["requeued"])
                seen["buffered"] += len(out["buffered"])
                for iid in out["survivors"] + out["requeued"] + out["buffered"]:
                    pair = by_id[iid]["acl"], by_id[iid]["target"]
                    seen["through as its freeze ends"] += before.get(pair) == tick
                for iid, reason in out["dropped"]:
                    pair = by_id[iid]["acl"], by_id[iid]["target"]
                    seen["held by a standing freeze"] += before.get(pair, tick) > tick
        rules = ("anomalous", "frozen", "frozen regional", "frozen e2e",
                 "held by a standing freeze", "through as its freeze ends",
                 "arbitrated regional", "arbitrated e2e", "settled late", "requeued",
                 "buffered", "UnderObservation", "Suspended", "Active")
        assert all(seen[rule] for rule in rules), seen


class TestArbitrationScaling:
    priorities_st = st.dictionaries(
        st.sampled_from(("acl1", "acl2", "acl3", "acl4")),
        st.integers(0, 50),
        min_size=2,
        max_size=4,
    )

    def manager_with(self, values):
        agents = {
            aid: LoopAgent(
                id=aid,
                role=AgentRole.SCALER,
                size=SizeClass.MICRO,
                regions=("east",),
                nodes=("n-east",),
                priority=PriorityLevel(f"lvl-{aid}", value),
            )
            for aid, value in values.items()
        }
        return ConflictManager(manager_settings(), agents, {})

    def record(self, kind, participants):
        return ConflictRecord(
            conflict_id="c0",
            tick=4,
            kind=kind,
            participants=tuple(sorted(participants)),
            targets=("n1",),
            instance=Instance("regional:east", 1),
        )

    @given(priorities_st, st.integers(1, 9))
    def test_contention_winner_survives_positive_scaling(self, values, k):
        plain = self.manager_with(values)
        scaled = self.manager_with({a: v * k for a, v in values.items()})
        record = self.record(ConflictKind.RESOURCE_CONTENTION, values)
        assert (
            plain.resolve(record, 4).resolution.winner
            == scaled.resolve(record, 4).resolution.winner
        )

    @given(priorities_st, st.integers(1, 9))
    def test_interference_victim_survives_positive_scaling(self, values, k):
        plain = self.manager_with(values)
        scaled = self.manager_with({a: v * k for a, v in values.items()})
        record = self.record(ConflictKind.INTERFERENCE, values)
        assert (
            plain.resolve(record, 4).resolution.frozen_acl
            == scaled.resolve(record, 4).resolution.frozen_acl
        )

    @given(priorities_st)
    def test_contention_winner_has_the_highest_priority(self, values):
        manager = self.manager_with(values)
        record = self.record(ConflictKind.RESOURCE_CONTENTION, values)
        winner = manager.resolve(record, 4).resolution.winner
        assert values[winner] == max(values.values())


class TestRoutingPartition:
    regions = {"n-east": "east", "n-west": "west"}

    scopes_st = st.lists(
        st.sampled_from([
            frozenset({"east"}),
            frozenset({"west"}),
            frozenset({"east", "west"}),
            frozenset({"n-east"}),
            frozenset({"n-west"}),
            frozenset({"n-east/cache"}),
            frozenset({"e2e"}),
        ]),
        min_size=1,
        max_size=3,
    )

    def manager_with(self, scopes):
        agents = {}
        for i, scope in enumerate(scopes):
            aid = f"acl{i}"
            size, regions, nodes = resolve_scope(scope, self.regions)
            agents[aid] = LoopAgent(
                id=aid,
                role=AgentRole.SCALER,
                size=size,
                regions=regions,
                nodes=nodes,
                priority=PriorityLevel("lvl", 1),
            )
        return ConflictManager(manager_settings(), agents, {})

    @given(scopes_st)
    def test_every_group_routes_to_exactly_one_instance(self, scopes):
        manager = self.manager_with(scopes)
        ids = sorted(manager.agents)
        instance = manager.route(ids)
        valid = {"e2e", "regional:east", "regional:west"}
        assert instance.name in valid
        assert instance is manager.instances[instance.name]

    @given(scopes_st)
    def test_e2e_exactly_when_mega_or_straddling(self, scopes):
        manager = self.manager_with(scopes)
        ids = sorted(manager.agents)
        instance = manager.route(ids)
        touched = set()
        mega = False
        for i, scope in enumerate(scopes):
            mega = mega or manager.agents[f"acl{i}"].size is SizeClass.MEGA
            for item in scope:
                touched.add(self.regions.get(item.split("/")[0], item))
        if mega or len(touched) != 1:
            assert instance.name == "e2e"
        else:
            assert instance.name == f"regional:{touched.pop()}"
            assert instance.period == 1

    @given(st.integers(0, 40))
    def test_e2e_submission_ticks_land_on_the_period(self, tick):
        manager = self.manager_with([frozenset({"e2e"})])
        instance = manager.home["acl0"]
        assert instance.name == "e2e"
        when = instance.next_tick(tick)
        period = manager.settings["e2e_period"]
        assert when % period == 0
        assert tick <= when < tick + period


class TestCoherencyProperties:
    @given(
        st.floats(0.5, 100.0, allow_nan=False),
        st.integers(10, 60),
        st.floats(1.0, 5.0),
    )
    def test_steady_magnitudes_are_always_normal(self, magnitude, repeats, k):
        baseline = CoherencyBaseline(window=50, min_history=10, epsilon=1e-6)
        verdicts = {baseline.check(magnitude, k) for _ in range(repeats)}
        assert verdicts == {Verdict.NORMAL}

    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False), max_size=9))
    def test_warm_up_never_flags(self, values):
        baseline = CoherencyBaseline(window=50, min_history=10, epsilon=1e-6)
        assert all(baseline.check(v, 3.0) is Verdict.NORMAL for v in values)

    @given(st.floats(1.0, 100.0), st.floats(1.0, 3.0))
    def test_a_big_enough_spike_always_flags(self, magnitude, k):
        baseline = CoherencyBaseline(window=50, min_history=10, epsilon=1e-6)
        for _ in range(12):
            baseline.check(magnitude, k)
        spike = magnitude + k * max(magnitude * 0.5, 1.0) + 1.0
        # history is flat so the spread floor is epsilon
        assert baseline.check(spike, k) is Verdict.ANOMALOUS

    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=80))
    def test_history_never_exceeds_the_window(self, values):
        baseline = CoherencyBaseline(window=20, min_history=5, epsilon=1e-6)
        for v in values:
            baseline.check(v, 3.0)
        assert len(baseline.history) <= 20


class TestWholeRunDeterminism:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(0, 2**16),
        st.integers(1, 2),
        st.floats(50.0, 400.0),
        st.floats(0.0, 80.0),
    )
    def test_random_small_scenarios_replay_byte_identically(
        self, seed, node_count, base, amplitude
    ):
        scn = from_dict({
            "name": "prop",
            "seed": seed,
            "ticks": 12,
            "topology": {"nodes": [
                {"id": f"n{i}", "region": "east", "cpu": 4000, "memory": 4096}
                for i in range(node_count)
            ]},
            "agents": [{"id": "acl1", "scope": ["east"]}],
            "traffic": {"east": {
                "base": base, "amplitude": amplitude, "period": 6, "sigma": 5.0,
            }},
        })
        first, _, _ = run(scn)
        second, _, _ = run(scn)
        assert first.dumps() == second.dumps()
        report = verify_trace(first, scn)
        assert report.ok
        assert check_invariants(scn.data, first.events) == []


# Shapes and extremes a misshapen document may hold in place of any value.
REPLACEMENTS = (0, -1, 7, 10**6, "x", [], [1], {}, {"k": 1}, None,
                1e308, -1e308, math.nan)


def _source_documents() -> list[dict]:
    docs = [yaml.safe_load(BUILTIN_SCENARIOS[name]) for name in list_scenarios()]
    rng = random.Random(20260814)
    docs += [random_document(rng, i) for i in range(4)]
    return docs


SOURCE_DOCUMENTS = _source_documents()


@st.composite
def misshapen_documents(draw):
    """A built-in or fuzz scenario document with one value or list entry,
    at any depth, replaced by another shape or an extreme number."""
    doc = copy.deepcopy(draw(st.sampled_from(SOURCE_DOCUMENTS)))
    container = doc
    while True:
        key = draw(st.sampled_from(
            sorted(container) if isinstance(container, dict) else range(len(container))
        ))
        inner = container[key]
        if not (isinstance(inner, (dict, list)) and inner) or draw(st.booleans()):
            break
        container = inner
    container[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
    return doc


class TestMisshapenDocuments:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(misshapen_documents(), st.integers(1, 8))
    def test_a_document_is_rejected_or_runs_and_verifies(self, doc, ticks):
        try:
            scn = from_dict(doc, ticks=ticks)
        except ValidationError:
            return
        trace, _, _ = run(scn)
        assert verify_trace(trace, scn).ok
