"""Cluster state: vectors, taints, bindings, and capacity arithmetic."""

import pytest

from helpers import (
    BRONZE,
    DEFAULT,
    GOLD,
    SILVER,
    node,
    pod,
    rv,
    state_with,
    taint,
    tol,
)
from loopsim import cluster
from loopsim.cluster import TaintEffect
from loopsim.errors import (
    CapacityExceeded,
    InvalidPhase,
    TaintViolation,
    UnknownNode,
    UnknownPod,
)


class TestResourceVector:
    def test_add_and_sub(self):
        assert rv(2000, 4096) - rv(500, 1024) == rv(1500, 3072)
        assert rv(1500, 3072) + rv(500, 1024) == rv(2000, 4096)

    def test_sub_never_goes_negative(self):
        with pytest.raises(ValueError):
            rv(100, 100) - rv(200, 50)
        with pytest.raises(ValueError):
            rv(100, 100) - rv(50, 200)

    def test_covers_is_component_wise(self):
        assert rv(2000, 4096).covers(rv(2000, 4096))
        assert rv(2000, 4096).covers(rv(0, 0))
        assert not rv(2000, 4096).covers(rv(2001, 1))
        assert not rv(2000, 4096).covers(rv(1, 4097))


class TestTolerates:
    def test_no_taints_vacuously_true(self):
        assert cluster.tolerates(frozenset(), node("n"))

    def test_matching_no_execute_toleration(self):
        n = node("n", taints=[taint("acl1", "NoExecute")])
        assert cluster.tolerates(frozenset({tol("acl1", "NoExecute")}), n)

    def test_unmatched_hard_taint_blocks(self):
        n = node("n", taints=[taint("acl1", "NoExecute")])
        assert not cluster.tolerates(frozenset(), n)

    def test_prefer_no_schedule_is_soft(self):
        n = node("n", taints=[taint("acl1", "PreferNoSchedule")])
        assert cluster.tolerates(frozenset(), n)

    def test_toleration_must_match_key_and_effect(self):
        n = node("n", taints=[taint("acl1", "NoSchedule")])
        assert not cluster.tolerates(frozenset({tol("acl2", "NoSchedule")}), n)
        assert not cluster.tolerates(frozenset({tol("acl1", "NoExecute")}), n)
        assert cluster.tolerates(frozenset({tol("acl1", "NoSchedule")}), n)

    def test_every_hard_taint_needs_a_match(self):
        n = node("n", taints=[taint("acl1", "NoSchedule"), taint("acl2", "NoExecute")])
        assert not cluster.tolerates(frozenset({tol("acl1", "NoSchedule")}), n)
        both = frozenset({tol("acl1", "NoSchedule"), tol("acl2", "NoExecute")})
        assert cluster.tolerates(both, n)


class TestCapacity:
    def test_free_capacity_of_empty_node(self):
        state = state_with([node("n", 2000, 4096)])
        assert cluster.free_capacity(state, "n") == rv(2000, 4096)

    def test_free_capacity_subtracts_bound_pods(self):
        state = state_with(
            [node("n", 2000, 4096)], [pod("p", 500, 1024)], [("p", "n")]
        )
        assert cluster.free_capacity(state, "n") == rv(1500, 3072)
        assert cluster.used_capacity(state, "n") == rv(500, 1024)

    def test_fits_respects_current_occupancy(self):
        state = state_with([node("n", 2000, 4096)], [pod("a", 1500, 3072), pod("b", 1500, 3072)])
        assert cluster.fits(state, state.pods["a"], "n")
        cluster.bind(state, "a", "n")
        assert not cluster.fits(state, state.pods["b"], "n")

    def test_zero_request_always_fits(self):
        state = state_with([node("n", 1, 1)], [pod("z", 0, 0)])
        assert cluster.fits(state, state.pods["z"], "n")

    def test_unknown_node_raises(self):
        state = state_with([node("n")])
        with pytest.raises(UnknownNode):
            cluster.free_capacity(state, "ghost")


class TestPhaseMachine:
    def test_bind_then_evict_restores_capacity(self):
        state = state_with([node("n", 2000, 4096)], [pod("p", 500, 1024)])
        before = cluster.free_capacity(state, "n")
        cluster.bind(state, "p", "n")
        cluster.evict(state, "p")
        assert cluster.free_capacity(state, "n") == before
        assert "p" in state.pods
        assert "p" not in state.bindings

    def test_bind_rejects_capacity_overflow(self):
        state = state_with([node("n", 400, 4096)], [pod("p", 500, 1024)])
        with pytest.raises(CapacityExceeded):
            cluster.bind(state, "p", "n")

    def test_bind_rejects_intolerable_taint(self):
        state = state_with(
            [node("n", taints=[taint("acl9", "NoSchedule")])], [pod("p")]
        )
        with pytest.raises(TaintViolation):
            cluster.bind(state, "p", "n")

    def test_bind_twice_is_invalid(self):
        state = state_with([node("n")], [pod("p")], [("p", "n")])
        with pytest.raises(InvalidPhase):
            cluster.bind(state, "p", "n")

    def test_evicted_pod_can_bind_again(self):
        state = state_with([node("n")], [pod("p")], [("p", "n")])
        cluster.evict(state, "p")
        cluster.bind(state, "p", "n")
        assert state.bindings == {"p": "n"}
        assert cluster.pods_on(state, "n") == ["p"]

    def test_evict_only_from_bound(self):
        state = state_with([node("n")], [pod("p")])
        with pytest.raises(InvalidPhase):
            cluster.evict(state, "p")

    def test_terminate_unbinds_and_is_final(self):
        state = state_with([node("n")], [pod("p")], [("p", "n")])
        cluster.terminate(state, "p")
        assert "p" not in state.pods
        assert "p" not in state.bindings
        assert cluster.pods_on(state, "n") == []
        with pytest.raises(UnknownPod):
            cluster.terminate(state, "p")

    def test_terminate_a_pending_pod(self):
        state = state_with([node("n")], [pod("p")])
        cluster.terminate(state, "p")
        assert state.pods == {} and state.by_owner == {}
        assert state.retired == {"p"}

    def test_unknown_pod_raises(self):
        state = state_with([node("n")])
        with pytest.raises(UnknownPod):
            cluster.evict(state, "ghost")


class TestTaints:
    def test_apply_taint_never_evicts(self):
        state = state_with([node("n")], [pod("p")], [("p", "n")])
        cluster.apply_taint(state, "n", taint("acl9", "NoExecute"))
        assert state.bindings == {"p": "n"}
        assert taint("acl9", "NoExecute") in state.nodes["n"].taints

    def test_apply_duplicate_taint_is_idempotent(self):
        state = state_with([node("n", taints=[taint("k", "NoSchedule")])])
        cluster.apply_taint(state, "n", taint("k", "NoSchedule"))
        assert state.nodes["n"].taints == frozenset({taint("k", "NoSchedule")})

    def test_multiple_taints_coexist(self):
        state = state_with([node("n", taints=[taint("acl1", "PreferNoSchedule")])])
        cluster.apply_taint(state, "n", taint("acl2", "PreferNoSchedule"))
        assert len(state.nodes["n"].taints) == 2

    def test_remove_taint_by_key(self):
        state = state_with(
            [node("n", taints=[taint("k", "NoSchedule"), taint("k", "NoExecute")])]
        )
        cluster.remove_taint(state, "n", "k")
        assert state.nodes["n"].taints == frozenset()

    def test_remove_taint_by_key_and_effect(self):
        state = state_with(
            [node("n", taints=[taint("k", "NoSchedule"), taint("k", "NoExecute")])]
        )
        cluster.remove_taint(state, "n", "k", TaintEffect.NO_EXECUTE)
        assert state.nodes["n"].taints == frozenset({taint("k", "NoSchedule")})


class TestTopologyQueries:
    def test_pods_on_sorted(self):
        state = state_with(
            [node("n", 4000, 8192)],
            [pod("z", 100, 100), pod("a", 100, 100)],
            [("z", "n"), ("a", "n")],
        )
        assert cluster.pods_on(state, "n") == ["a", "z"]

    def test_priority_defaults(self):
        assert DEFAULT.value == 0 and not DEFAULT.preemption_enabled
        assert GOLD.value > SILVER.value > BRONZE.value
