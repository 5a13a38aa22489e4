"""Differential checks: every index the engine carries equals a brute-force
re-derivation, after every tick of the built-ins, the fuzz scenarios and a
contended benchmark run.

The re-derivations scan the bindings, the live pods, and the trace (every
pod created and terminated, every intent submitted and settled), so they do
not lean on the indexes they check; the intents a loop has in flight, read
from ``ConflictManager.held()`` (requeued, buffered alone or inside a
buffered conflict), are held against the trace the same way.
"""

import math
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from helpers import node, pod, state_with, taint, tol
from loopsim import agents as agents_mod
from loopsim import cluster, scheduler
from loopsim.cluster import NodeInfo, ZERO
from loopsim.conflicts import CoherencyBaseline
from loopsim.errors import CapacityExceeded, InvalidPhase, TaintViolation, UnknownPod
from loopsim.scenario import list_scenarios, load_scenario, loads
from loopsim.sim import World
from test_acceptance import random_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


class TraceLedger:
    """Pods and intents as the trace tells them, read incrementally."""

    def __init__(self, world: World):
        self.world = world
        self.read = 0
        self.owner = {p["id"]: p["owner"] for p in world.scenario.data["initial_pods"]}
        self.terminated: set[str] = set()
        self.unsettled: dict[str, tuple[str, str]] = {}  # intent id -> (acl, target)

    def catch_up(self) -> None:
        events = self.world.trace.events
        for event in events[self.read:]:
            kind = event["kind"]
            if kind == "pod-created":
                self.owner[event["pod"]] = event["acl"]
            elif kind == "pod-terminated":
                self.terminated.add(event["pod"])
            elif kind == "intent-submitted":
                entry = (event["acl"], event["target"])
                # only a slice loop may stack a second intent on one target
                if self.world.agents[event["acl"]].role is not agents_mod.AgentRole.SLICE:
                    assert entry not in self.unsettled.values(), event
                self.unsettled[event["id"]] = entry
            elif kind in ("intent-applied", "intent-dropped"):
                del self.unsettled[event["id"]]
        self.read = len(events)


def powered_off_by_scan(state: cluster.ClusterState) -> set[str]:
    return {n.id for n in state.nodes.values()
            if any(t.key == cluster.POWERED_OFF_KEY for t in n.taints)}


def no_execute_by_scan(state: cluster.ClusterState) -> set[str]:
    return {n.id for n in state.nodes.values()
            if any(t.effect is cluster.TaintEffect.NO_EXECUTE for t in n.taints)}


def eligibility_by_scan(state: cluster.ClusterState, tolerations) -> dict[str, int]:
    return {n: scheduler.score_tier(state, tolerations, n)
            for n in sorted(scheduler.filter_nodes(state, tolerations))}


def check_indexes(world: World, ledger: TraceLedger) -> None:
    ledger.catch_up()
    state = world.state

    # per-node usage and pod set vs a scan of the bindings
    for node_id in state.nodes:
        on = sorted(p for p, n in state.bindings.items() if n == node_id)
        used = ZERO
        for pod_id in on:
            used = used + state.pods[pod_id].request
        assert cluster.pods_on(state, node_id) == on
        assert cluster.used_capacity(state, node_id) == used
        assert cluster.free_capacity(state, node_id) == state.nodes[node_id].capacity - used

    # live state vs every pod ever created
    live = {p for p in ledger.owner if p not in ledger.terminated}
    assert set(state.pods) == live
    assert state.retired == ledger.terminated
    owners = {}
    for pod_id in live:
        owners.setdefault(ledger.owner[pod_id], set()).add(pod_id)
    assert state.by_owner == owners

    node_region = {n["id"]: n["region"] for n in world.scenario.data["nodes"]}
    named_nodes = {}
    for entry in world.scenario.data["agents"]:
        named = named_nodes[entry["id"]] = set()
        for item in entry["scope"]:
            if item == "e2e":
                named.update(node_region)
            elif item in node_region:
                named.add(item)
            elif item in node_region.values():
                named.update(n for n, r in node_region.items() if r == item)
            else:  # a container, <node>/<name>
                named.add(item.split("/", 1)[0])

    # the powered-off and NoExecute sets vs a scan of the taints; every kept
    # eligibility entry vs a fresh filter and tiering
    assert state.powered_off == powered_off_by_scan(state)
    assert state.no_execute == no_execute_by_scan(state)
    for tolerations, tiers in state.eligible.items():
        assert tiers == eligibility_by_scan(state, tolerations)

    in_flight = world.manager.held()
    targets = agents_mod.outstanding_targets(in_flight)
    assert set(targets) <= set(world.agents)
    for acl, agent in world.agents.items():
        # each agent's live pods vs a scan of all created pods
        expected = sorted(
            p for p, owner in ledger.owner.items()
            if owner == acl and p not in ledger.terminated
        )
        assert sorted(state.by_owner.get(acl, ())) == expected
        # the nodes a loop plans over vs its scope entries read by hand
        assert agent.nodes == tuple(
            sorted(named_nodes[acl], key=lambda n: (node_region[n], n)))
        # intents in flight vs every intent the trace has submitted but not
        # yet applied or dropped
        unsettled = {i: target for i, (a, target) in ledger.unsettled.items() if a == acl}
        ids = [i.intent_id for i in in_flight if i.acl_id == acl]
        assert len(ids) == len(set(ids))
        assert set(ids) == set(unsettled)
        assert targets.get(acl, set()) == set(unsettled.values())


def run_checked(scn) -> None:
    world = World(scn)
    ledger = TraceLedger(world)
    check_indexes(world, ledger)
    for _ in range(scn.ticks):
        world.step()
        check_indexes(world, ledger)


@pytest.mark.parametrize("name", list_scenarios())
def test_builtin_indexes_match_rescans(name):
    run_checked(load_scenario(name))


def test_fuzz_indexes_match_rescans():
    rng = random.Random(20260814)
    for i in range(20):
        run_checked(random_scenario(rng, i))


def test_contended_indexes_match_rescans():
    run_checked(loads(workloads.generate("contended", 1), ticks=150))


def test_retired_id_stays_reserved():
    state = state_with([node("n")], [pod("p")], [("p", "n")])
    cluster.terminate(state, "p")
    assert "p" not in state.pods
    assert cluster.pods_on(state, "n") == []
    with pytest.raises(ValueError, match="duplicate"):
        cluster.add_pod(state, pod("p"))


def test_terminate_twice_raises_unknown_pod():
    state = state_with([node("n")], [pod("p")], [("p", "n")])
    cluster.terminate(state, "p")
    with pytest.raises(UnknownPod):
        cluster.terminate(state, "p")
    assert state.retired == {"p"}
    assert cluster.used_capacity(state, "n") == ZERO


POOL = [pod(f"p{i}", cpu=200 * (i + 1), mem=100 * (i + 1), owner=f"acl{i % 2}")
        for i in range(5)]
OPERATIONS = ("add_pod", "bind", "evict", "terminate")


def assert_indexes_match_a_rescan(state: cluster.ClusterState) -> None:
    for node_id in state.nodes:
        on = sorted(p for p, n in state.bindings.items() if n == node_id)
        used = ZERO
        for pod_id in on:
            used = used + state.pods[pod_id].request
        assert state.node_info[node_id] == NodeInfo(used, tuple(on))
    owners: dict[str, set[str]] = {}
    for p in state.pods.values():
        owners.setdefault(p.owner, set()).add(p.id)
    assert state.by_owner == owners


@given(st.lists(st.tuples(st.sampled_from(OPERATIONS), st.integers(0, len(POOL) - 1),
                          st.sampled_from(("n0", "n1"))), max_size=40))
def test_random_operations_keep_the_indexes(steps):
    """add_pod/bind/evict/terminate on one state against a model of ids alone:
    each call raises exactly when the model says it must, and after every step
    the indexes equal a rescan and every terminated id stays reserved."""
    state = state_with([node("n0", 1000, 1000), node("n1", 600, 600)])
    capacity = {n: state.nodes[n].capacity for n in state.nodes}
    live: set[str] = set()
    bound: dict[str, str] = {}
    gone: set[str] = set()
    for op, i, node_id in steps:
        p = POOL[i]
        if op == "add_pod":
            if p.id in live or p.id in gone:
                with pytest.raises(ValueError, match="duplicate"):
                    cluster.add_pod(state, p)
            else:
                cluster.add_pod(state, p)
                live.add(p.id)
        elif op == "bind":
            used = ZERO
            for other, on in bound.items():
                if on == node_id:
                    used = used + POOL[int(other[1:])].request
            if p.id not in live:
                expected = UnknownPod
            elif p.id in bound:
                expected = InvalidPhase
            elif not (capacity[node_id] - used).covers(p.request):
                expected = CapacityExceeded
            else:
                expected = None
            if expected is None:
                cluster.bind(state, p.id, node_id)
                bound[p.id] = node_id
            else:
                with pytest.raises(expected):
                    cluster.bind(state, p.id, node_id)
        elif op == "evict":
            if p.id not in live:
                with pytest.raises(UnknownPod):
                    cluster.evict(state, p.id)
            elif p.id not in bound:
                with pytest.raises(InvalidPhase):
                    cluster.evict(state, p.id)
            else:
                cluster.evict(state, p.id)
                del bound[p.id]
        else:
            if p.id not in live:
                with pytest.raises(UnknownPod):
                    cluster.terminate(state, p.id)
            else:
                cluster.terminate(state, p.id)
                live.discard(p.id)
                bound.pop(p.id, None)
                gone.add(p.id)

        assert set(state.pods) == live
        assert state.bindings == bound
        assert state.retired == gone
        assert_indexes_match_a_rescan(state)
        for pod_id in gone:
            with pytest.raises(ValueError, match="duplicate"):
                cluster.add_pod(state, POOL[int(pod_id[1:])])
        assert set(state.pods) == live


TAINTS = [taint(cluster.POWERED_OFF_KEY), taint("a"), taint("a", "NoExecute"),
          taint("b", "PreferNoSchedule"), taint("c")]
TOLERATION_SETS = [frozenset(), frozenset({tol("a")}), frozenset({tol("a", "NoSchedule")}),
                   frozenset({tol("b", "PreferNoSchedule")}), frozenset({tol("a"), tol("c")})]
SHAPED = [pod(f"q{i}", cpu=300 * (i + 1), mem=200, tols=TOLERATION_SETS[i])
          for i in range(len(TOLERATION_SETS))]
TAINT_OPERATIONS = st.one_of(
    st.tuples(st.just("apply_taint"), st.sampled_from(("n0", "n1", "n2")),
              st.sampled_from(TAINTS)),
    st.tuples(st.just("remove_taint"), st.sampled_from(("n0", "n1", "n2")),
              st.sampled_from([(t.key, t.effect) for t in TAINTS]
                              + [(t.key, None) for t in TAINTS])),
    st.tuples(st.sampled_from(("bind", "evict", "schedule")),
              st.integers(0, len(SHAPED) - 1), st.sampled_from(("n0", "n1", "n2"))),
)


def reference_ranking(state: cluster.ClusterState, tolerations) -> list[str]:
    """The ranking as it read before the eligibility index: a fresh filter,
    then tier, most free cpu, most free memory and id from ``free_capacity``."""
    def key(node_id):
        free = cluster.free_capacity(state, node_id)
        return (scheduler.score_tier(state, tolerations, node_id), -free.cpu_millicores,
                -free.memory_mib, node_id)
    return sorted(scheduler.filter_nodes(state, tolerations), key=key)


@given(st.lists(TAINT_OPERATIONS, max_size=40))
def test_taint_changes_keep_the_eligibility_and_powered_off_indexes(steps):
    """apply_taint/remove_taint/bind/evict, with schedule filling the
    eligibility index: after every step each kept entry equals a fresh
    derivation, every toleration set ranks as it did before the index, and
    the powered-off and NoExecute sets equal a scan of the taints."""
    state = state_with([node("n0", 1000, 1000), node("n1", 800, 800),
                        node("n2", 600, 600, taints=[taint(cluster.POWERED_OFF_KEY)])],
                       SHAPED)
    for op, a, b in steps:
        if op == "apply_taint":
            cluster.apply_taint(state, a, b)
        elif op == "remove_taint":
            cluster.remove_taint(state, a, *b)
        elif op == "schedule":
            p = SHAPED[a]
            assert scheduler.schedule(state, p).node_id in (
                None, *(n for n in reference_ranking(state, p.tolerations)))
        elif op == "bind":
            p = SHAPED[a]
            try:
                cluster.bind(state, p.id, b)
            except (InvalidPhase, CapacityExceeded, TaintViolation):
                pass
        else:
            try:
                cluster.evict(state, SHAPED[a].id)
            except InvalidPhase:
                pass

        assert state.powered_off == powered_off_by_scan(state)
        assert state.no_execute == no_execute_by_scan(state)
        assert set(state.eligible) <= set(TOLERATION_SETS)
        for tolerations, tiers in state.eligible.items():
            assert tiers == eligibility_by_scan(state, tolerations)
        for tolerations in TOLERATION_SETS:
            ranked = scheduler.score_nodes(state, tolerations)
            assert ranked == reference_ranking(state, tolerations)
        assert_indexes_match_a_rescan(state)


def test_a_taint_between_two_schedule_calls_changes_the_answer():
    state = state_with([node("n0", 1000, 1000), node("n1", 2000, 2000)], [pod("p", 100, 100)])
    p = state.pods["p"]
    assert scheduler.schedule(state, p).node_id == "n1"  # the most free room
    assert set(state.eligible) == {p.tolerations}
    cluster.apply_taint(state, "n1", taint("a"))
    assert state.eligible == {}
    assert scheduler.schedule(state, p).node_id == "n0"
    cluster.remove_taint(state, "n1", "a")
    assert scheduler.schedule(state, p).node_id == "n1"
    # a soft taint keeps the node eligible but moves it to the last tier
    cluster.apply_taint(state, "n1", taint("b", "PreferNoSchedule"))
    assert scheduler.schedule(state, p).node_id == "n0"
    assert scheduler.eligible_nodes(state, p.tolerations) == {"n0": 1, "n1": 2}


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150)


def exact_pstdev(data) -> float:
    """Population standard deviation rounded once: an exact Fraction variance,
    then the float nearest to its square root.

    Scaled by 4**k, the root lies in [root, root + 1) with root >= 2**100, so
    every rounding boundary between floats there is an integer.  An inexact
    root is stood in for by root + 1/2, which rounds the same way, and the
    Fraction-to-float conversion rounds correctly.
    """
    xs = [Fraction(v) for v in data]
    mean = sum(xs, Fraction(0)) / len(xs)
    var = sum(((x - mean) ** 2 for x in xs), Fraction(0)) / len(xs)
    n, d = var.numerator, var.denominator
    k = max(0, 101 - (n.bit_length() - d.bit_length()) // 2)
    scaled = n << 2 * k
    root = math.isqrt(scaled // d)
    inexact = root * root * d != scaled
    return float(Fraction(2 * root + inexact, 1 << (k + 1)))


def test_exact_pstdev_reference():
    assert exact_pstdev([0.0, 0.0, 29.0]) == 13.67073110293992
    assert exact_pstdev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) == 2.0
    assert math.copysign(1.0, exact_pstdev([3.0, 3.0])) == 1.0
    # roots that fall exactly between two subnormals round to the even one
    assert exact_pstdev([0.0, 5e-324]) == 0.0
    assert exact_pstdev([0.0, 1.5e-323]) == 1e-323


@given(st.lists(finite | st.floats(0.0, 1e-300) | st.integers(-10, 10).map(float),
                min_size=1, max_size=120),
       st.integers(1, 40))
def test_running_spread_is_pstdev_bit_for_bit(values, window):
    baseline = CoherencyBaseline(window=window, min_history=1, epsilon=0.0)
    for value in values:
        baseline.check(value, 3.0)
        expected = exact_pstdev(baseline.history)
        assert math.copysign(1.0, baseline.spread()) == math.copysign(1.0, expected)
        assert baseline.spread() == expected


@given(st.lists(finite | st.floats(0.0, 1e-300) | st.integers(-10, 10).map(float),
                min_size=1, max_size=120),
       st.integers(1, 40))
def test_running_mean_is_fmean_bit_for_bit(values, window):
    baseline = CoherencyBaseline(window=window, min_history=1, epsilon=0.0)
    for value in values:
        baseline.check(value, 3.0)
        assert baseline.mean() == statistics.fmean(list(baseline.history))


def test_a_history_given_up_front_seeds_the_sums():
    baseline = CoherencyBaseline(window=5, min_history=1, epsilon=0.0,
                                 history=[1.0, 2.0, 4.0])
    assert baseline.spread() == exact_pstdev([1.0, 2.0, 4.0])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_magnitude_is_refused(value):
    baseline = CoherencyBaseline(window=5, min_history=1, epsilon=0.0,
                                 history=[1.0, 2.0])
    with pytest.raises(ValueError, match="not finite"):
        baseline.check(value, 3.0)
    assert list(baseline.history) == [1.0, 2.0]
    assert baseline.spread() == 0.5
    with pytest.raises(ValueError, match="not finite"):
        CoherencyBaseline(window=5, min_history=1, epsilon=0.0, history=[1.0, value])
