"""Scheduler engine: filtering, scoring, preemption, eviction, coordination."""

import heapq
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from helpers import BRONZE, GOLD, SILVER, node, pod, state_with, taint, tol
from loopsim import cluster, scheduler
from loopsim.cluster import PriorityLevel
from loopsim.errors import InvalidPhase
from loopsim.scheduler import DecisionKind, PendingQueue


def queue_of(state, *pod_ids, ranks=None):
    """A pending queue holding *pod_ids* in order; an owner missing from
    *ranks* plays at its first pod's priority."""
    queue = PendingQueue(dict(ranks or {}))
    for pod_id in pod_ids:
        queue.push(state.pods[pod_id])
    return queue


def drain(queue):
    """The queued pod ids in order of play, emptying *queue*."""
    return [heapq.heappop(queue.entries)[3] for _ in range(len(queue.entries))]


def three_node_state(extra_pods=(), bound=()):
    """Core + two edges, as used throughout the walkthrough scenarios."""
    return state_with(
        [
            node("core-toronto", 8000, 16384, region="toronto"),
            node("edge-calgary", 2000, 4096, region="calgary"),
            node("edge-waterloo", 2000, 4096, region="waterloo",
                 taints=[taint("acl1", "PreferNoSchedule"),
                         taint("acl2", "PreferNoSchedule")]),
        ],
        extra_pods,
        bound,
    )


class TestFilterNodes:
    def test_untainted_nodes_all_pass(self):
        state = state_with([node("a"), node("b"), node("c")])
        assert scheduler.filter_nodes(state, frozenset()) == {"a", "b", "c"}

    def test_hard_taint_excludes_intolerant_pod(self):
        state = state_with(
            [node("a"), node("w", taints=[taint("acl1", "NoExecute")])]
        )
        assert scheduler.filter_nodes(state, frozenset()) == {"a"}

    def test_tolerating_pod_keeps_tainted_node(self):
        state = state_with([node("w", taints=[taint("acl1", "NoExecute")])])
        tols = frozenset({tol("acl1", "NoExecute")})
        assert scheduler.filter_nodes(state, tols) == {"w"}

    def test_capacity_is_not_filtering(self):
        # full nodes stay feasible; preemption may still win them
        state = state_with([node("n", 500, 1024)], [pod("full", 500, 1024)], [("full", "n")])
        assert scheduler.filter_nodes(state, frozenset()) == {"n"}


class TestScoreNodes:
    def test_tolerated_taint_attracts_first(self):
        # a node tainted for this pod's owner outranks a clean, larger node
        state = state_with(
            [
                node("big-clean", 8000, 16384),
                node("marked", 2000, 4096, taints=[taint("acl1", "PreferNoSchedule")]),
            ]
        )
        tols = frozenset({tol("acl1", "PreferNoSchedule")})
        assert scheduler.score_nodes(state, tols) == ["marked", "big-clean"]

    def test_clean_node_beats_foreign_soft_taint(self):
        state = three_node_state()
        ranked = scheduler.score_nodes(state, frozenset())  # tolerates nothing
        # waterloo's soft taints belong to someone else, so it ranks last
        assert ranked == ["core-toronto", "edge-calgary", "edge-waterloo"]

    def test_free_capacity_breaks_ties(self):
        state = state_with(
            [node("small", 2000, 4096), node("big", 2000, 4096)],
            [pod("filler", 1500, 3072)],
            [("filler", "small")],
        )
        # small has (500, 1024) free, big has (1500, 3072) free
        ranked = scheduler.score_nodes(state, frozenset())
        assert ranked == ["big", "small"]

    def test_node_id_is_final_tiebreak(self):
        state = state_with([node("b"), node("a")])
        assert scheduler.score_nodes(state, frozenset()) == ["a", "b"]

    def test_singleton(self):
        state = state_with([node("only")])
        assert scheduler.score_nodes(state, frozenset()) == ["only"]

    def test_untolerated_nodes_are_left_out(self):
        state = state_with([node("a"), node("w", taints=[taint("acl1", "NoSchedule")])])
        assert scheduler.score_nodes(state, frozenset()) == ["a"]
        state = state_with([node("w", taints=[taint("acl1", "NoSchedule")])])
        assert scheduler.score_nodes(state, frozenset()) == []


class TestSelectPreemptionVictims:
    def test_single_cheapest_victim(self):
        state = state_with(
            [node("n", 2000, 4096)],
            [
                pod("mid", 1000, 2048, owner="acl2", priority=SILVER),
                pod("low", 1000, 2048, owner="acl3", priority=BRONZE),
            ],
            [("mid", "n"), ("low", "n")],
        )
        incoming = pod("hi", 800, 1024, owner="acl1", priority=GOLD)
        # either single eviction frees enough room; the lower priority goes
        assert scheduler.select_preemption_victims(state, incoming, "n") == {"low"}

    def test_equal_priority_is_never_preempted(self):
        state = state_with(
            [node("n", 2000, 4096)],
            [pod("peer", 2000, 4096, owner="acl2", priority=GOLD)],
            [("peer", "n")],
        )
        incoming = pod("hi", 500, 1024, owner="acl1", priority=GOLD)
        assert scheduler.select_preemption_victims(state, incoming, "n") is None

    def test_multi_victim_set_when_one_is_not_enough(self):
        state = state_with(
            [node("n", 2000, 4096)],
            [
                pod("a", 1000, 2048, owner="acl2", priority=SILVER),
                pod("b", 1000, 2048, owner="acl3", priority=BRONZE),
            ],
            [("a", "n"), ("b", "n")],
        )
        incoming = pod("hi", 1800, 4000, owner="acl1", priority=GOLD)
        assert scheduler.select_preemption_victims(state, incoming, "n") == {"a", "b"}

    def test_fewest_victims_beats_lowest_priority_sum(self):
        state = state_with(
            [node("n", 3000, 6144)],
            [
                pod("one-big", 1500, 3072, owner="acl2", priority=SILVER),
                pod("small1", 800, 1536, owner="acl3", priority=BRONZE),
                pod("small2", 700, 1536, owner="acl3", priority=BRONZE),
            ],
            [("one-big", "n"), ("small1", "n"), ("small2", "n")],
        )
        incoming = pod("hi", 1500, 3072, owner="acl1", priority=GOLD)
        # a single silver eviction wins over two bronze ones
        assert scheduler.select_preemption_victims(state, incoming, "n") == {"one-big"}

    def test_lexicographic_tiebreak_on_ids(self):
        state = state_with(
            [node("n", 2000, 4096)],
            [
                pod("pa", 1000, 2048, owner="acl2", priority=SILVER),
                pod("pb", 1000, 2048, owner="acl2", priority=SILVER),
            ],
            [("pa", "n"), ("pb", "n")],
        )
        incoming = pod("hi", 800, 1024, owner="acl1", priority=GOLD)
        assert scheduler.select_preemption_victims(state, incoming, "n") == {"pa"}

    # few shapes, so that candidates share a class
    SHAPES = ((100, 256), (200, 256), (200, 512), (500, 1024))

    @settings(max_examples=200, deadline=None)
    @given(
        # (id number, request, priority value): below, equal to and above the
        # preemptor's 5
        residents=st.lists(
            st.tuples(st.integers(0, 99), st.sampled_from(SHAPES), st.sampled_from((1, 3, 5, 8))),
            min_size=3, max_size=12, unique_by=lambda r: r[0]),
        room=st.tuples(st.integers(0, 1000), st.integers(0, 2048)),
        # what the preemptor asks beyond the free room, in steps of 150
        # millicores and 300 MiB; at most 0 when it already fits
        short=st.tuples(st.integers(-2, 8), st.integers(-2, 8)),
    )
    @example(residents=[], room=(0, 0), short=(1, 1))
    @example(residents=[(7, (100, 256), 1), (3, (100, 256), 1)], room=(500, 512), short=(-2, 0))
    def test_agrees_with_the_brute_force_oracle(self, residents, room, short):
        """The class search against ``oracle.best_victims``, which tries every
        subset, on at most 12 candidates: random free room and shortfall, an
        empty candidate set, and a preemptor that already fits (it still
        names one victim)."""
        levels = {value: PriorityLevel(f"p{value}", value) for value in (1, 3, 5, 8)}
        pods = [pod(f"r{n:02d}", cpu, mem, owner="low", priority=levels[value])
                for n, (cpu, mem), value in residents]
        cpu = room[0] + sum(p.request.cpu_millicores for p in pods)
        mem = room[1] + sum(p.request.memory_mib for p in pods)
        state = state_with([node("n", cpu, mem)], pods, [(p.id, "n") for p in pods])
        request = (max(0, room[0] + 150 * short[0]), max(0, room[1] + 300 * short[1]))
        incoming = pod("hi", *request, owner="high", priority=levels[5])
        expected = oracle.best_victims(
            {"n": {"cpu": cpu, "mem": mem}},
            {p.id: {"cpu": p.request.cpu_millicores, "mem": p.request.memory_mib,
                    "prio": p.priority.value, "phase": "bound", "node": "n"} for p in pods},
            "n",
            {"cpu": request[0], "mem": request[1], "prio": 5},
        )
        found = scheduler.select_preemption_victims(state, incoming, "n")
        assert found == (None if expected is None else frozenset(expected))

    @staticmethod
    def search_lines(state, incoming):
        """The victims, and the line events the search runs in ``scheduler.py``:
        a work count that does not move with the host's speed."""
        count = 0

        def trace(frame, event, arg):
            nonlocal count
            if frame.f_code.co_filename != scheduler.__file__:
                return None
            count += event == "line"
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            victims = scheduler.select_preemption_victims(state, incoming, "n")
        finally:
            sys.settrace(previous)
        return victims, count

    def test_forty_unit_pods_decide_without_enumerating_subsets(self):
        # 20 of 40 equal pods: C(40, 20) subsets of that size alone
        units = [pod(f"u{i:02d}", 100, 100, owner="low", priority=BRONZE) for i in range(40)]
        state = state_with([node("n", 4000, 4000)], units, [(u.id, "n") for u in units])
        incoming = pod("hi", 2000, 2000, owner="high", priority=GOLD)
        victims, lines = self.search_lines(state, incoming)
        assert victims == {f"u{i:02d}" for i in range(20)}
        assert lines < 1500

    def test_forty_pods_in_three_shapes_break_ties_on_ids(self):
        # pod i has shape i % 3, and each pod frees 500 of cpu and memory
        # together, so a cover needs 8 pods that free exactly 2000 of each: as
        # many of shape 0 as of shape 1.  Every such choice sums to priority
        # 24, so the smallest ids decide: 3 + 3 + 2 pods, s00 to s07
        shapes = [(100, 400, BRONZE), (400, 100, SILVER), (250, 250, PriorityLevel("p3", 3))]
        pods = [pod(f"s{i:02d}", *shapes[i % 3][:2], owner="low", priority=shapes[i % 3][2])
                for i in range(40)]
        state = state_with([node("n", 9850, 10150)], pods, [(p.id, "n") for p in pods])
        incoming = pod("hi", 2000, 2000, owner="high", priority=GOLD)
        victims, lines = self.search_lines(state, incoming)
        assert victims == {f"s{i:02d}" for i in range(8)}
        assert lines < 3500


class TestSchedule:
    def test_binds_to_best_free_node(self):
        state = three_node_state()
        p = pod("p", 1500, 3072, owner="acl3")
        decision = scheduler.schedule(state, p)
        assert decision.kind is DecisionKind.BOUND
        assert decision.node_id == "core-toronto"

    def test_pod_larger_than_every_node_is_pending(self):
        state = state_with([node("a", 1000, 2048), node("b", 1000, 2048)])
        decision = scheduler.schedule(state, pod("huge", 5000, 9000))
        assert decision.kind is DecisionKind.PENDING
        assert decision.reason == "unschedulable"

    def test_preempts_when_nothing_fits(self):
        state = state_with(
            [node("n", 2000, 4096)],
            [pod("low", 1500, 3072, owner="acl3", priority=BRONZE)],
            [("low", "n")],
        )
        decision = scheduler.schedule(
            state, pod("hi", 1500, 3072, owner="acl1", priority=GOLD)
        )
        assert decision.kind is DecisionKind.PREEMPT
        assert decision.node_id == "n"
        assert decision.victims == ("low",)

    def test_preempts_on_the_next_node_when_the_first_has_no_victim_set(self):
        state = state_with(
            [node("a", 2000, 4096), node("b", 2000, 4096)],
            [pod("peer", 1500, 3072, owner="acl2", priority=GOLD),
             pod("low", 1800, 3584, owner="acl3", priority=BRONZE)],
            [("peer", "a"), ("low", "b")],
        )
        incoming = pod("hi", 1500, 3072, owner="acl1", priority=GOLD)
        assert scheduler.score_nodes(state, incoming.tolerations) == ["a", "b"]
        assert scheduler.select_preemption_victims(state, incoming, "a") is None
        decision = scheduler.schedule(state, incoming)
        assert decision.kind is DecisionKind.PREEMPT
        assert (decision.node_id, decision.victims) == ("b", ("low",))

    def test_disabled_preemption_stays_pending(self):
        state = state_with(
            [node("n", 2000, 4096)],
            [pod("low", 1500, 3072, owner="acl3", priority=BRONZE)],
            [("low", "n")],
        )
        no_preempt = pod(
            "meek", 1500, 3072, owner="acl1",
            priority=cluster.PriorityLevel("meek", 10, preemption_enabled=False),
        )
        decision = scheduler.schedule(state, no_preempt)
        assert decision.kind is DecisionKind.PENDING


class TestEnforceNoExecute:
    def test_only_the_indexed_nodes_are_enforced_in_id_order(self):
        # built already bound, as a scenario's initial pods are
        nodes = [node("a", taints=[taint("m", "NoExecute")]), node("b"),
                 node("c", taints=[taint("m", "NoExecute"), taint("k", "NoSchedule")])]
        pods = [pod("p", owner="acl2"), pod("q", owner="acl2"), pod("r", owner="acl2")]
        state = cluster.ClusterState(nodes={n.id: n for n in nodes},
                                     pods={p.id: p for p in pods},
                                     bindings={"r": "c", "q": "b", "p": "a"})
        assert state.no_execute == {"a", "c"}
        assert scheduler.enforce_no_execute(state) == [("a", "p"), ("c", "r")]
        assert state.bindings == {"q": "b"}
        cluster.remove_taint(state, "c", "m")
        assert state.no_execute == {"a"}

    def test_intolerant_bound_pod_is_evicted(self):
        state = state_with([node("n")], [pod("p", owner="acl2")], [("p", "n")])
        cluster.apply_taint(state, "n", taint("acl1", "NoExecute"))
        evicted = scheduler.enforce_no_execute(state)
        assert evicted == [("n", "p")]
        assert "p" in state.pods and "p" not in state.bindings

    def test_tolerating_pod_stays(self):
        state = state_with(
            [node("n")],
            [pod("p", owner="acl1", tols=[tol("acl1", "NoExecute")])],
            [("p", "n")],
        )
        cluster.apply_taint(state, "n", taint("acl1", "NoExecute"))
        evicted = scheduler.enforce_no_execute(state)
        assert evicted == []
        assert state.bindings == {"p": "n"}

    def test_no_schedule_taint_does_not_evict(self):
        state = state_with([node("n")], [pod("p", owner="acl2")], [("p", "n")])
        cluster.apply_taint(state, "n", taint("acl1", "NoSchedule"))
        evicted = scheduler.enforce_no_execute(state)
        assert evicted == []

    def test_no_schedule_taint_beside_a_tolerated_no_execute_does_not_evict(self):
        state = state_with(
            [node("n")],
            [pod("p", owner="acl1", tols=[tol("m", "NoExecute")])],
            [("p", "n")],
        )
        cluster.apply_taint(state, "n", taint("k", "NoSchedule"))
        cluster.apply_taint(state, "n", taint("m", "NoExecute"))
        assert scheduler.enforce_no_execute(state) == []
        assert state.bindings == {"p": "n"}

    def test_one_untolerated_no_execute_taint_evicts(self):
        state = state_with(
            [node("n")],
            [pod("p", owner="acl1", tols=[tol("m", "NoExecute")])],
            [("p", "n")],
        )
        cluster.apply_taint(state, "n", taint("m", "NoExecute"))
        cluster.apply_taint(state, "n", taint("x", "NoExecute"))
        assert scheduler.enforce_no_execute(state) == [("n", "p")]


class TestCoordinate:
    def test_a_victim_of_equal_priority_is_refused(self, monkeypatch):
        # two gold pods that each need the whole node: a search that named the
        # bound one would let each evict the other in turn, and the round
        # would never end
        state = state_with([node("n", 1000, 1000)],
                           [pod("a", 1000, 1000, owner="acl1"), pod("b", 1000, 1000, owner="acl2")],
                           [("a", "n")])
        monkeypatch.setattr(scheduler, "select_preemption_victims",
                            lambda state, p, node_id: frozenset(state.node_info[node_id].pods))
        with pytest.raises(InvalidPhase, match="'a' is not below the priority of its preemptor 'b'"):
            scheduler.coordinate(state, queue_of(state, "b"))
        assert state.bindings == {"a": "n"}

    def test_both_units_bind_in_priority_order(self):
        # two loops with one pod each competing for the marked edge:
        # gold goes first and takes it, silver falls back to the big core node
        state = three_node_state(
            [
                pod("acl1-pod", 1500, 3072, owner="acl1", priority=GOLD,
                    tols=[tol("acl1", "PreferNoSchedule")]),
                pod("acl2-pod", 1500, 3072, owner="acl2", priority=SILVER,
                    tols=[tol("acl2", "PreferNoSchedule")]),
            ]
        )
        result = scheduler.coordinate(state, queue_of(state, "acl2-pod", "acl1-pod"))
        assert oracle_pairs(result.decisions) == [
            ("acl1-pod", "edge-waterloo"),
            ("acl2-pod", "core-toronto"),
        ]

    def test_empty_queues_empty_decisions(self):
        state = three_node_state()
        result = scheduler.coordinate(state, PendingQueue({"acl1": GOLD.value}))
        assert result.decisions == []
        assert result.taint_evictions == []

    def test_no_execute_victims_are_requeued_within_round(self):
        # a fresh NoExecute taint displaces two residents; both rebind elsewhere
        state = state_with(
            [node("w", 2000, 4096), node("c", 8000, 16384)],
            [
                pod("a", 1500, 3072, owner="acl2", priority=SILVER),
                pod("b", 400, 512, owner="acl3", priority=BRONZE),
            ],
            [("a", "w"), ("b", "w")],
        )
        cluster.apply_taint(state, "w", taint("acl1", "NoExecute"))
        result = scheduler.coordinate(state, PendingQueue())
        assert result.taint_evictions == [("w", "a"), ("w", "b")]
        assert state.bindings == {"a": "c", "b": "c"}
        # every displaced pod got an explicit decision
        assert {d.pod_id for d in result.decisions} == {"a", "b"}

    def test_preemption_victim_rebinds_or_pends(self):
        state = state_with(
            [node("n", 2000, 4096)],
            [
                pod("low", 1500, 3072, owner="acl3", priority=BRONZE),
                pod("hi", 1500, 3072, owner="acl1", priority=GOLD),
            ],
            [("low", "n")],
        )
        queue = queue_of(state, "hi")
        result = scheduler.coordinate(state, queue)
        kinds = {d.pod_id: d.kind for d in result.decisions}
        assert kinds["hi"] is DecisionKind.PREEMPT
        assert kinds["low"] is DecisionKind.PENDING
        assert state.bindings == {"hi": "n"}
        assert "low" in state.pods
        # the displaced pod stays queued for next round, at its owner's rank
        assert queue.ranks["acl3"] == BRONZE.value
        assert drain(queue) == ["low"]

    def test_priority_order_not_submission_order(self):
        state = state_with(
            [node("n", 2000, 4096)],
            [
                pod("silver-pod", 1500, 3072, owner="b-acl", priority=SILVER),
                pod("gold-pod", 1500, 3072, owner="a-acl", priority=GOLD),
            ],
        )
        result = scheduler.coordinate(state, queue_of(state, "silver-pod", "gold-pod"))
        assert result.decisions[0].pod_id == "gold-pod"
        assert result.decisions[0].kind is DecisionKind.BOUND

    def test_stale_queue_entries_are_skipped(self):
        state = state_with([node("n")], [pod("p")], [("p", "n")])
        queue = queue_of(state, "p")
        result = scheduler.coordinate(state, queue)
        assert result.decisions == []  # already bound, nothing to do
        assert queue.entries == []

    def test_loop_rank_not_pod_priority_orders_play(self):
        # a loop ranked above another plays first even with lower-priority pods
        state = state_with(
            [node("n", 8000, 16384)],
            [pod("a", owner="lo", priority=GOLD), pod("b", owner="hi", priority=BRONZE)],
        )
        queue = queue_of(state, "a", "b", ranks={"hi": 10, "lo": 5})
        assert drain(queue) == ["b", "a"]

    def test_left_pending_precedes_a_later_pod_of_its_loop(self):
        # round 1 leaves "old" Pending behind a blocker; round 2 frees room
        # for one of "old" and "new", and "old", queued first, takes it
        state = state_with(
            [node("n", 1000, 1000)],
            [pod("blocker", 1000, 500, owner="ops"), pod("old", 500, 500)],
            [("blocker", "n")],
        )
        queue = queue_of(state, "old")
        first = scheduler.coordinate(state, queue)
        assert [(d.kind, d.pod_id) for d in first.decisions] == [(DecisionKind.PENDING, "old")]
        cluster.terminate(state, "blocker")
        cluster.add_pod(state, pod("new", 1000, 500))
        queue.push(state.pods["new"])
        second = scheduler.coordinate(state, queue)
        assert [(d.kind, d.pod_id) for d in second.decisions] == [
            (DecisionKind.BOUND, "old"),
            (DecisionKind.PENDING, "new"),
        ]
        assert drain(queue) == ["new"]

    def test_pending_entries_are_restored_as_a_heap(self):
        # "lo" sets "u" aside, then "t" preempts "h", which ranks above
        # everything "lo" queued: left Pending after "u", it must play first
        state = state_with(
            [node("n", 1000, 1000)],
            [
                pod("h", 1000, 500, owner="hi", priority=BRONZE),
                pod("u", 2000, 500, owner="lo", priority=SILVER),
                pod("t", 1000, 500, owner="lo", priority=SILVER),
            ],
            [("h", "n")],
        )
        queue = queue_of(state, "u", "t", ranks={"hi": 10, "lo": 5})
        result = scheduler.coordinate(state, queue)
        assert [(d.kind, d.pod_id) for d in result.decisions] == [
            (DecisionKind.PENDING, "u"),
            (DecisionKind.PREEMPT, "t"),
            (DecisionKind.PENDING, "h"),
        ]
        assert drain(queue) == ["h", "u"]


class TestPendingMemo:
    """``coordinate`` answers a repeated unschedulable shape without ``schedule``."""

    @pytest.fixture
    def schedule_calls(self, monkeypatch):
        calls = []
        schedule = scheduler.schedule

        def counted(state, p):
            calls.append(p.id)
            return schedule(state, p)

        monkeypatch.setattr(scheduler, "schedule", counted)
        return calls

    @pytest.mark.parametrize("cpu, calls", [(2000, 1), (600, 2)], ids=["none-fit", "one-fits"])
    def test_identical_pods_schedule_until_the_answer_repeats(self, schedule_calls, cpu, calls):
        # none-fit: the first Pending answer serves all 30 pods; one-fits: the
        # first pod binds, which clears the memo, and the second's answer
        # serves the other 28
        state = state_with([node("n", 1000, 1000)], [pod(f"p{i:02d}", cpu, 500) for i in range(30)])
        result = scheduler.coordinate(state, queue_of(state, *sorted(state.pods)))
        pending = [d for d in result.decisions if d.kind is DecisionKind.PENDING]
        assert len(result.decisions) == 30
        assert len(pending) == 30 - (calls - 1)
        assert {d.reason for d in pending} == {"unschedulable"}
        assert schedule_calls == ["p00", "p01"][:calls]

    def test_a_preemption_clears_the_memo(self, schedule_calls):
        # s1 cannot fit and may not preempt; t preempts the big bronze pod and
        # leaves room that s2, of s1's shape, now fits into
        no_preempt = PriorityLevel("gold-no-preempt", GOLD.value, preemption_enabled=False)
        state = state_with(
            [node("n", 1000, 1000)],
            [
                pod("v", 900, 500, owner="batch", priority=BRONZE),
                pod("s1", 500, 100, priority=no_preempt),
                pod("t", 300, 100, priority=GOLD),
                pod("s2", 500, 100, priority=no_preempt),
            ],
            [("v", "n")],
        )
        result = scheduler.coordinate(state, queue_of(state, "s1", "t", "s2"))
        assert [(d.kind, d.pod_id) for d in result.decisions] == [
            (DecisionKind.PENDING, "s1"),
            (DecisionKind.PREEMPT, "t"),
            (DecisionKind.BOUND, "s2"),
            (DecisionKind.PENDING, "v"),
        ]
        assert schedule_calls == ["s1", "t", "s2", "v"]

    def test_matches_the_oracle_on_repeated_shapes(self, schedule_calls):
        rng = random.Random(20261018)
        mismatches, problems = [], []
        kinds, evictions = Counter(), 0
        for i in range(200):
            inst = oracle.repeated_shape_instance(rng)
            want_evictions, want_decisions, want_placement, bad = oracle.run_round(inst)
            problems.extend(f"instance {i}: {p}" for p in bad)
            state, queue = oracle.to_engine(inst)
            result = scheduler.coordinate(state, queue)
            got = (
                result.taint_evictions,
                oracle.normalize_decisions(result.decisions),
                state.bindings,
            )
            if got != (want_evictions, want_decisions, want_placement):
                mismatches.append(i)
            kinds.update(d.kind for d in result.decisions)
            evictions += len(result.taint_evictions)
        assert mismatches == []
        assert problems == []
        # the memo answered most Pending decisions, with every way a round
        # changes node state in between
        assert len(schedule_calls) < kinds[DecisionKind.PENDING] / 2
        assert min(kinds[DecisionKind.BOUND], kinds[DecisionKind.PREEMPT], evictions) >= 50


def oracle_pairs(decisions):
    return [
        (d.pod_id, d.node_id)
        for d in decisions
        if d.kind is DecisionKind.BOUND
    ]
