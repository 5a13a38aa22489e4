"""End-to-end simulator runs, trace verification, and the invariant checker."""

import copy
import dataclasses
import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from loopsim import cluster, scheduler
from loopsim.agents import PodSpec
from loopsim.cluster import Pod, ResourceVector
from loopsim.errors import (
    CapacityExceeded, HashMismatch, IndexDrift, InvalidPhase, ParseError, ValidationError,
)
from loopsim.scenario import from_dict, list_scenarios, load_scenario, loads
from loopsim.sim import (
    Metrics, World, check_invariants, load_events_file, run, summarize, verify_trace,
)
from loopsim.trace import Trace, load_trace, parse_trace
from loopsim.traffic import TrafficModel

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def events_of(trace, kind):
    return [e for e in trace.events if e["kind"] == kind]


@pytest.fixture(scope="module")
def case1_run():
    return run(load_scenario("case1"))


@pytest.fixture(scope="module")
def case2_run():
    return run(load_scenario("case2"))


@pytest.fixture(scope="module")
def three_acl_run():
    return run(load_scenario("three-acl-conflict"))


@pytest.fixture(scope="module")
def pingpong_run():
    return run(load_scenario("pingpong"))


class TestCase1Walkthrough:
    @pytest.fixture
    def result(self, case1_run):
        return case1_run

    def test_final_placements(self, result):
        _, _, world = result
        assert world.state.bindings == {
            "acl1-pod-0": "edge-waterloo",
            "acl2-pod-0": "core-toronto",
        }

    def test_single_regional_contention_won_by_gold(self, result):
        trace, metrics, _ = result
        detected = events_of(trace, "conflict-detected")
        assert len(detected) == 1
        assert detected[0]["conflict"] == "ResourceContention"
        assert detected[0]["participants"] == ["acl1", "acl2"]
        assert detected[0]["instance"] == "regional:waterloo"
        resolved = events_of(trace, "conflict-resolved")
        assert len(resolved) == 1
        assert resolved[0]["winner"] == "acl1"
        assert resolved[0]["losers"] == ["acl2"]
        # regional conflicts settle on the tick they appear
        assert resolved[0]["tick"] == detected[0]["tick"] == 0

    def test_loser_requeues_and_lands_on_the_core(self, result):
        trace, _, _ = result
        requeued = events_of(trace, "intent-requeued")
        assert [(e["acl"], e["next_tick"]) for e in requeued] == [("acl2", 1)]
        bound = {e["pod"]: (e["tick"], e["node"]) for e in events_of(trace, "pod-bound")}
        assert bound["acl1-pod-0"] == (0, "edge-waterloo")
        assert bound["acl2-pod-0"] == (1, "core-toronto")

    def test_no_evictions(self, result):
        _, metrics, _ = result
        assert sum(metrics.evictions.values()) == 0
        assert metrics.bindings == 2


class TestCase2Walkthrough:
    @pytest.fixture
    def result(self, case2_run):
        return case2_run

    def test_no_execute_displaces_both_residents(self, result):
        trace, _, _ = result
        evicted = [(e["pod"], e["cause"]) for e in events_of(trace, "pod-evicted")]
        assert evicted == [("stream-a", "no-execute"), ("stream-b", "no-execute")]

    def test_rebinding_targets(self, result):
        _, _, world = result
        assert world.state.bindings == {
            "acl1-pod-0": "edge-waterloo",
            "stream-a": "edge-calgary",
            "stream-b": "core-toronto",
            "tenant-web": "edge-calgary",
        }

    def test_untouched_resident_is_never_disturbed(self, result):
        trace, _, _ = result
        touched = [
            e for e in trace.events
            if e.get("pod") == "tenant-web"
            and e["kind"] in ("pod-evicted", "pod-terminated", "pod-pending")
        ]
        assert touched == []

    def test_displaced_pods_resolve_within_the_same_tick(self, result):
        trace, metrics, _ = result
        assert metrics.reschedules == 2
        by_tick = {}
        for e in trace.events:
            if e["kind"] in ("pod-evicted", "pod-bound"):
                by_tick.setdefault(e["pod"], []).append((e["kind"], e["tick"]))
        assert by_tick["stream-a"] == [("pod-evicted", 0), ("pod-bound", 0)]
        assert by_tick["stream-b"] == [("pod-evicted", 0), ("pod-bound", 0)]


class TestThreeAclWalkthrough:
    @pytest.fixture
    def result(self, three_acl_run):
        return three_acl_run

    def test_contentions_escalate_to_e2e_and_wait(self, result):
        trace, _, _ = result
        detected = events_of(trace, "conflict-detected")
        assert [e["instance"] for e in detected] == ["e2e", "e2e"]
        assert {e["tick"] for e in detected} == {7}
        resolved = events_of(trace, "conflict-resolved")
        assert {e["tick"] for e in resolved} == {10}  # next multiple of the period
        assert all(e["winner"] == "slice" for e in resolved)
        assert {l for e in resolved for l in e["losers"]} == {"core", "ran"}

    def test_slice_chain_lands_on_both_regions(self, result):
        trace, _, world = result
        assert world.state.bindings == {
            "slice-pod-0": "edge-waterloo",
            "slice-pod-1": "core-toronto",
        }
        terminated = {e["pod"] for e in events_of(trace, "pod-terminated")}
        assert terminated == {"core-svc-a", "ran-edge-a"}

    def test_knowledge_exchange_happened(self, result):
        trace, _, world = result
        granted = events_of(trace, "exchange-granted")
        assert [(e["source"], e["target"]) for e in granted] == [("ran", "core")]
        absorbed = events_of(trace, "knowledge-absorbed")
        assert [e["acl"] for e in absorbed] == ["core"]

    def test_losing_intents_requeue_after_the_e2e_tick(self, result):
        trace, _, _ = result
        requeued = events_of(trace, "intent-requeued")
        assert [(e["acl"], e["next_tick"]) for e in requeued] == [
            ("core", 11), ("ran", 11),
        ]


class TestPingpongWalkthrough:
    @pytest.fixture
    def result(self, pingpong_run):
        return pingpong_run

    def test_power_toggles_then_interference(self, result):
        trace, _, _ = result
        assert [e["tick"] for e in events_of(trace, "power-off")] == [2]
        assert [e["tick"] for e in events_of(trace, "power-on")] == [3]
        detected = events_of(trace, "conflict-detected")
        assert len(detected) == 1
        assert detected[0]["conflict"] == "Interference"
        assert detected[0]["targets"] == ["edge-calgary"]

    def test_lowest_priority_agent_is_frozen(self, result):
        trace, _, _ = result
        resolved = events_of(trace, "conflict-resolved")
        assert len(resolved) == 1
        assert resolved[0]["outcome"] == "frozen"
        assert resolved[0]["frozen"] == "energy-saver"
        assert resolved[0]["until"] == resolved[0]["tick"] + 10

    def test_frozen_intents_never_materialize(self, result):
        trace, metrics, _ = result
        frozen_tick = events_of(trace, "conflict-resolved")[0]["tick"]
        dropped = [
            e for e in events_of(trace, "intent-dropped") if e["reason"] == "frozen"
        ]
        assert dropped and all(e["acl"] == "energy-saver" for e in dropped)
        assert all(frozen_tick <= e["tick"] < frozen_tick + 10 for e in dropped)
        applied = {e["acl"] for e in events_of(trace, "intent-applied")
                   if e["tick"] > frozen_tick}
        assert "energy-saver" not in applied


class TestTraceFormat:
    def test_header_then_events(self):
        trace, _, _ = run(load_scenario("case1"))
        text = trace.dumps()
        assert text.endswith("\n")
        lines = text[:-1].split("\n")
        header = json.loads(lines[0])
        assert header["format"] == "loopsim-trace/1"
        assert header["scenario"] == "case1"
        assert [json.loads(line) for line in lines[1:]] == trace.events

    def test_seq_strictly_increasing_ticks_monotone(self):
        trace, _, _ = run(load_scenario("three-acl-conflict"))
        seqs = [e["seq"] for e in trace.events]
        assert seqs == list(range(len(seqs)))
        ticks = [e["tick"] for e in trace.events]
        assert ticks == sorted(ticks)

    def test_parse_round_trip(self):
        trace, _, _ = run(load_scenario("case2"))
        again = parse_trace(trace.dumps())
        assert again.header == trace.header
        assert again.events == trace.events

    def test_write_and_load(self, tmp_path):
        trace, _, _ = run(load_scenario("case1"))
        path = tmp_path / "t.jsonl"
        trace.write(str(path))
        assert load_trace(str(path)).dumps() == trace.dumps()

    BROKEN = (None, 1, 1.5, "x", [], ["x"], [1], {}, True)

    def broken(self, obj: dict):
        """*obj* with one key dropped or given another JSON shape, every way."""
        for key in obj:
            yield {k: v for k, v in obj.items() if k != key}
            for value in self.BROKEN:
                yield {**obj, key: value}

    def test_a_broken_event_is_rejected_or_read_cleanly(self):
        samples = {}  # one event of each kind the built-ins write
        for name in list_scenarios():
            scn = load_scenario(name)
            trace, _, _ = run(scn)
            for event in trace.events:
                samples.setdefault(event["kind"], (scn, trace.header, event))
        assert len(samples) >= 18
        for scn, header, event in samples.values():
            for broken in self.broken(event):
                try:
                    trace = parse_trace(json.dumps(header) + "\n\n" + json.dumps(broken))
                    trace.events
                except ParseError as exc:
                    assert exc.line == 3
                    continue
                summarize(trace)
                check_invariants(scn.data, trace.events)

    def test_a_broken_header_is_rejected_or_read_cleanly(self):
        scn = load_scenario("case1")
        trace, _, _ = run(scn)
        events = trace.dumps().split("\n", 1)[1]
        headers = list(self.broken(trace.header))
        headers += [{**trace.header, "initial": [entry]}
                    for entry in self.broken({"pod": "acl1-pod-0", "node": "core-toronto"})]
        for header in headers:
            try:
                parsed = parse_trace(json.dumps(header) + "\n" + events)
            except ParseError as exc:
                assert exc.line == 1
                continue
            summarize(parsed)
            try:
                verify_trace(parsed, scn)
            except (HashMismatch, ValidationError):
                pass


class TestDeterminismAndVerify:
    def test_repeat_runs_are_byte_identical(self):
        for name in ("case1", "case2", "pingpong", "three-acl-conflict"):
            scn = load_scenario(name)
            first, _, _ = run(scn)
            second, _, _ = run(load_scenario(name))
            assert first.dumps() == second.dumps(), name

    def test_untampered_trace_verifies_clean(self):
        scn = load_scenario("case1")
        trace, _, _ = run(scn)
        report = verify_trace(trace, scn)
        assert report.ok
        assert report.describe() == (
            "trace verified: replay identical, all invariants hold"
        )

    def test_seed_override_reconstructs_the_scenario(self):
        trace, _, _ = run(load_scenario("case1", seed=99))
        report = verify_trace(trace, load_scenario("case1"))
        assert report.ok

    def test_edited_event_is_a_divergence(self):
        scn = load_scenario("case1")
        trace, _, _ = run(scn)
        doctored = copy.deepcopy(trace)
        victim = next(e for e in doctored.events if e["kind"] == "pod-bound")
        victim["node"] = "core-toronto" if victim["node"] != "core-toronto" else "edge-calgary"
        report = verify_trace(doctored, scn)
        assert not report.ok
        assert report.divergences
        assert report.divergences[0]["line"] == victim["seq"] + 2  # header is line 1

    def test_a_trace_from_a_run_verifies_as_its_text_does(self):
        scn = load_scenario("case1")
        trace, _, _ = run(scn)
        edited, cut, longer = (copy.deepcopy(trace) for _ in range(3))
        edited.events[3]["node"] = "nowhere"
        del cut.events[-2:]
        longer.events.append(dict(longer.events[-1], seq=len(longer.events)))
        for t in (trace, edited, cut, longer):
            assert verify_trace(t, scn) == verify_trace(parse_trace(t.dumps()), scn)
        assert not verify_trace(cut, scn).ok and not verify_trace(longer, scn).ok

    def test_verifying_a_run_holds_its_text_a_line_at_a_time(self):
        # the parsed trace's text is held before the measure starts; a trace
        # straight from a run must not build its whole text to be compared
        scn = loads(workloads.generate("steady-long", 1000), ticks=300)
        trace, _, _ = run(scn)
        parsed = parse_trace(trace.dumps())

        def peak(t) -> int:
            tracemalloc.start()
            try:
                assert verify_trace(t, scn).ok
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(trace) <= 1.5 * peak(parsed)

    def test_wrong_hash_is_fatal(self):
        scn = load_scenario("case1")
        trace, _, _ = run(scn)
        trace.header["scenario_hash"] = "0" * 64
        with pytest.raises(HashMismatch):
            verify_trace(trace, scn)

    def test_mismatched_scenario_is_fatal(self):
        trace, _, _ = run(load_scenario("case2"))
        with pytest.raises(HashMismatch):
            verify_trace(trace, load_scenario("case1"))


class TestInvariantChecker:
    def doctored(self, name="case2"):
        scn = load_scenario(name)
        trace, _, _ = run(scn)
        return scn, copy.deepcopy(trace.events)

    def test_clean_traces_have_no_violations(self):
        for name in ("case1", "case2", "pingpong", "three-acl-conflict"):
            scn = load_scenario(name)
            trace, _, _ = run(scn)
            assert check_invariants(scn.data, trace.events) == []

    def test_overcommitted_binding_is_caught(self):
        scn, events = self.doctored("case1")
        bound = [e for e in events if e["kind"] == "pod-bound"]
        bound[1]["node"] = "edge-waterloo"  # second pod piles onto the small edge
        violations = check_invariants(scn.data, events)
        assert any("over capacity" in v for v in violations)

    def test_missing_follow_up_decision_is_caught(self):
        scn, events = self.doctored("case2")
        rebind = next(
            e for e in events if e["kind"] == "pod-bound" and e["pod"] == "stream-a"
        )
        events.remove(rebind)
        violations = check_invariants(scn.data, events)
        assert any("no follow-up decision" in v for v in violations)

    def test_preemption_of_a_peer_or_superior_is_caught(self):
        scn, events = self.doctored("case2")
        # claim the bronze pod's rebinding displaced the silver pod
        bound = next(
            e for e in events if e["kind"] == "pod-bound" and e["pod"] == "stream-b"
        )
        bound["preempted"] = ["stream-a"]
        violations = check_invariants(scn.data, events)
        assert any("lower priority" in v for v in violations)

    def test_phase_disorder_is_caught(self):
        scn, events = self.doctored("case1")
        traffic = next(e for e in events if e["kind"] == "traffic")
        bound = next(e for e in events if e["kind"] == "pod-bound")
        i, j = events.index(traffic), events.index(bound)
        events[i], events[j] = events[j], events[i]
        violations = check_invariants(scn.data, events)
        assert any("phase order" in v for v in violations)

    def test_unknown_event_kind_is_caught(self):
        scn, events = self.doctored("case1")
        events[0]["kind"] = "confetti"
        violations = check_invariants(scn.data, events)
        assert any("unknown event kind" in v for v in violations)

    def test_conservation_mismatch_is_caught(self):
        scn, events = self.doctored("case1")
        end = next(e for e in events if e["kind"] == "tick-end")
        end["bound"] += 1
        violations = check_invariants(scn.data, events)
        assert any("conservation mismatch" in v for v in violations)


class TestSuspensionAndRelease:
    """A demand spike trips the coherency check, suspends the loop, and an
    operator release brings it back."""

    def scenario(self):
        return from_dict({
            "name": "hotswing",
            "seed": 3,
            "ticks": 30,
            "topology": {"nodes": [
                {"id": "n1", "region": "east", "cpu": 64000, "memory": 64000},
            ]},
            "agents": [{
                "id": "burst", "scope": ["east"], "alpha": 1.0,
                "pod_capacity_units": 1.0, "hysteresis_ticks": 1,
                "pod_template": {"cpu": 1, "memory": 1},
            }],
            "traffic": {"east": {"base": 1000.0, "steps": [{"at": 20, "base": 5000.0}]}},
        })

    def test_spike_walks_through_observation_to_suspension(self):
        trace, _, world = run(self.scenario())
        changes = [
            (e["tick"], e["before"], e["after"])
            for e in events_of(trace, "lifecycle")
        ]
        assert changes == [
            (20, "Active", "UnderObservation"),
            (22, "UnderObservation", "Suspended"),
        ]
        anomalous = [
            e["tick"] for e in events_of(trace, "coherency")
            if e["verdict"] == "Anomalous"
        ]
        assert anomalous == [20, 21, 22]

    def test_suspended_agent_goes_silent(self):
        trace, _, _ = run(self.scenario())
        submitted = [e["tick"] for e in events_of(trace, "intent-submitted")]
        assert max(submitted) == 22
        dropped = [
            e for e in events_of(trace, "intent-dropped") if e["reason"] == "anomalous"
        ]
        assert [e["tick"] for e in dropped] == [20, 21, 22]

    def test_operator_release_reinstates(self):
        release = [{"tick": 25, "kind": "release", "acl": "burst"}]
        trace, _, world = run(self.scenario(), extra_events=release)
        assert [e["tick"] for e in events_of(trace, "agent-released")] == [25]
        revived = [
            e["tick"] for e in events_of(trace, "intent-submitted") if e["tick"] > 22
        ]
        assert revived and min(revived) == 25
        assert world.agents["burst"].lifecycle.value == "Active"

    def test_summary_names_the_suspended_agent(self):
        trace, _, _ = run(self.scenario())
        assert "suspended agents: burst" in summarize(trace).split("\n")
        assert "suspended agents:" not in summarize(run(self.scenario(), extra_events=[
            {"tick": 25, "kind": "release", "acl": "burst"}])[0])

    def test_extra_events_are_recorded_in_the_header(self):
        release = [{"tick": 25, "kind": "release", "acl": "burst"}]
        trace, _, _ = run(self.scenario(), extra_events=release)
        assert trace.header["extra_events"] == [
            {"tick": 25, "kind": "release", "acl": "burst"}
        ]
        # and the replay with those events embedded matches byte for byte
        report = verify_trace(trace, self.scenario())
        assert report.ok

    def test_extra_events_are_validated(self):
        with pytest.raises(ValidationError):
            run(self.scenario(), extra_events=[{"tick": 0, "kind": "nonsense"}])

    def test_an_events_line_nested_too_deeply_is_named(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        path.write_text('{"tick": 1, "kind": "release", "acl": "x"}\n\n'
                        + "[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(ValidationError) as err:
            load_events_file(str(path))
        assert str(err.value) == f"{path}:3: bad event line: nested too deeply"


class TestSummarize:
    def test_placement_table(self):
        trace, _, _ = run(load_scenario("case2"))
        text = summarize(trace)
        assert "scenario case2 (seed 7, 3 ticks)" in text
        assert "edge-calgary: stream-a, tenant-web" in text
        assert "edge-waterloo: acl1-pod-0" in text
        assert "core-toronto: stream-b" in text

    def test_conflicts_and_exchanges_are_counted(self):
        trace, _, _ = run(load_scenario("three-acl-conflict"))
        text = summarize(trace)
        assert "ResourceContention=2" in text
        assert "granted=1" in text

    def test_initial_pods_show_even_if_nothing_happens(self):
        scn = from_dict({
            "name": "idle",
            "topology": {"nodes": [
                {"id": "n1", "region": "east", "cpu": 1000, "memory": 1000},
            ]},
            "ticks": 1,
            "initial_pods": [
                {"id": "keeper", "owner": "ops", "node": "n1", "cpu": 1, "memory": 1},
            ],
        })
        trace, _, _ = run(scn)
        assert "n1: keeper" in summarize(trace)

    def test_a_loop_with_no_predictions_has_no_error(self):
        trace, _, _ = run(load_scenario("case1"))
        events = [e for e in trace.events if (e["kind"], e.get("acl")) != ("prediction", "acl2")]
        metrics = Metrics.from_trace(Trace(trace.header, events))
        assert list(metrics.predictions) == ["acl1"]
        assert metrics.mae("acl2") == 0.0


class TestIdleScenario:
    def test_no_agents_still_ticks(self):
        scn = from_dict({
            "name": "empty",
            "ticks": 3,
            "topology": {"nodes": [
                {"id": "n1", "region": "east", "cpu": 1000, "memory": 1000},
            ]},
        })
        trace, metrics, _ = run(scn)
        assert metrics.ticks == 3
        assert [e["tick"] for e in events_of(trace, "tick-end")] == [0, 1, 2]
        assert metrics.intents_submitted == 0


class TestScopeReach:
    def test_micro_energy_loop_powers_off_only_its_node(self):
        # nodes a and b share region r; the loop's scope names a alone
        scn = from_dict({
            "name": "micro",
            "ticks": 3,
            "topology": {"nodes": [
                {"id": "a", "region": "r", "cpu": 1000, "memory": 1000},
                {"id": "b", "region": "r", "cpu": 1000, "memory": 1000},
            ]},
            "agents": [{"id": "e", "role": "energy", "scope": ["a"], "idle_ticks": 1}],
        })
        trace, _, world = run(scn)
        assert world.agents["e"].nodes == ("a",)
        assert [(e["tick"], e["node"]) for e in events_of(trace, "power-off")] == [(1, "a")]
        assert verify_trace(parse_trace(trace.dumps()), scn).ok


class TestSliceRequests:
    def test_requests_wait_for_the_loop_to_plan_then_go_whole(self):
        # the slice loop plans on even ticks; two requests arrive at tick 1
        request = {"kind": "slice-request", "agent": "s", "chain": [{"cpu": 1, "memory": 1}]}
        world = World(from_dict({
            "name": "slices",
            "ticks": 4,
            "topology": {"nodes": [{"id": "n", "region": "r", "cpu": 1000, "memory": 1000}]},
            "agents": [{"id": "s", "role": "slice", "scope": ["e2e"], "period": 2}],
            "injected": [{"tick": 1, **request}, {"tick": 1, **request}],
        }))
        world.step()
        world.step()
        # a pending request is its chain; the trace numbers the requests
        assert world.pending_slices["s"] == [(PodSpec(ResourceVector(1, 1)),)] * 2
        assert [e["id"] for e in events_of(world.trace, "slice-requested")] == [
            "slice-req-0", "slice-req-1"]
        world.step()
        assert world.pending_slices == {}
        submitted = events_of(world.trace, "intent-submitted")
        assert [(e["tick"], e["acl"]) for e in submitted] == [(2, "s"), (2, "s")]


class TestDatasetGrant:
    """A granted Dataset widens the taker's ``span_ticks`` by the giver's.
    ``monitor`` starts after the last tick the predictor folded, so the wider
    span shows only in a loop whose ``period`` exceeds its ``span_ticks``."""

    @staticmethod
    def taker_predictions(period: int, span: int, kinds: list[str]):
        scn = from_dict({
            "name": "dataset",
            "ticks": 60,
            "topology": {"nodes": [{"id": "n", "region": "r", "cpu": 8000, "memory": 8192}]},
            "agents": [{"id": "giver", "scope": ["r"], "span_ticks": 10},
                       {"id": "taker", "scope": ["r"], "period": period, "span_ticks": span}],
            "trust": {"giver": [{"acl": "taker", "kinds": kinds}]},
            "traffic": {"r": {"base": 500, "amplitude": 200, "period": 24, "sigma": 20}},
            "injected": [{"tick": 1, "kind": "exchange-request", "source": "giver",
                          "target": "taker", "artifact": "Dataset"}],
        })
        trace, metrics, _ = run(scn)
        assert verify_trace(trace, scn).ok
        return trace, [value for _, value, _ in metrics.predictions["taker"]]

    @pytest.mark.parametrize("period, span, differ, of", [
        (20, 5, 2, 3), (6, 5, 9, 10), (10, 3, 5, 6), (1, 5, 0, 60), (5, 5, 0, 12),
    ])
    def test_granted_and_denied_predictions(self, period, span, differ, of):
        granted, with_grant = self.taker_predictions(period, span, ["Dataset"])
        denied, without = self.taker_predictions(period, span, ["Model"])
        assert [e["artifact_kind"] for e in events_of(granted, "knowledge-absorbed")] == [
            "Dataset"]
        assert [e["reason"] for e in events_of(denied, "exchange-denied")] == ["NotTrusted"]
        assert len(with_grant) == len(without) == of
        assert sum(a != b for a, b in zip(with_grant, without)) == differ


class TestNoExecuteEnforcement:
    def test_tolerated_no_execute_beside_no_schedule_keeps_the_pod(self):
        scn = from_dict({
            "name": "no-execute",
            "ticks": 4,
            "topology": {"nodes": [
                {"id": "n1", "region": "r", "cpu": 1000, "memory": 1000},
                {"id": "n2", "region": "r", "cpu": 1000, "memory": 1000},
            ]},
            "initial_pods": [{
                "id": "p", "owner": "o", "node": "n1", "cpu": 100, "memory": 100,
                "tolerations": [{"key": "m", "effects": ["NoExecute"]}],
            }],
            "injected": [
                {"tick": 1, "kind": "taint", "node": "n1", "key": "k", "effect": "NoSchedule"},
                {"tick": 2, "kind": "taint", "node": "n1", "key": "m", "effect": "NoExecute"},
            ],
        })
        trace, _, world = run(scn)
        assert events_of(trace, "pod-evicted") == []
        assert world.state.bindings == {"p": "n1"}
        assert verify_trace(parse_trace(trace.dumps()), scn).ok


class TestFlatCost:
    def test_wide_span_samples_each_tick_once(self, monkeypatch):
        # a span longer than the run: monitor must still only draw the
        # sample analyze has not folded, so the calls per tick stay flat
        scn = from_dict({
            "name": "wide-span",
            "ticks": 300,
            "topology": {"nodes": [
                {"id": "n1", "region": "east", "cpu": 1000, "memory": 1000},
            ]},
            "agents": [{"id": "a", "scope": ["east"], "span_ticks": 100000}],
            "traffic": {"east": {"base": 100, "sigma": 5}},
        })
        calls = []
        sample = TrafficModel.sample

        def counted(self, region, tick):
            calls[-1] += 1
            return sample(self, region, tick)

        monkeypatch.setattr(TrafficModel, "sample", counted)
        world = World(scn)
        for _ in range(scn.ticks):
            calls.append(0)
            world.step()
        # one draw for the traffic event, one for the agent's monitor
        assert calls == [2] * scn.ticks


class TestWorkCounts:
    """What a tick derives, counted by call: the counts depend on the scenario
    alone, not on the host."""

    @pytest.fixture(scope="class", params=["steady-long", "contended"])
    def counted(self, request):
        scn = loads(workloads.generate(request.param, 1), ticks=200)
        world = World(scn)
        truths = Counter()     # (region, tick) -> truth calls while loops plan
        tolerates = Counter()  # (taint changes so far, tolerations, node) -> calls outside bind
        seen = Counter()       # calls of the counted operations
        inside = set()         # the flagged operations running now
        patches = []

        def patch(owner, name, wrapper):
            original = getattr(owner, name)
            patches.append((owner, name, original))
            setattr(owner, name, wrapper(original))

        def counting(key, flag=False):
            def wrapper(fn):
                def wrapped(*args):
                    seen[key] += 1
                    if flag:
                        inside.add(key)
                    try:
                        return fn(*args)
                    finally:
                        inside.discard(key)
                return wrapped
            return wrapper

        def truth(fn):
            def wrapped(self, region, tick):
                if "agents" in inside:
                    truths[region, tick] += 1
                return fn(self, region, tick)
            return wrapped

        def tolerates_(fn):
            def wrapped(tolerations, n):
                if "binds" in inside:
                    seen["bind_checks"] += 1
                else:
                    tolerates[seen["taint_changes"], tolerations, n.id] += 1
                return fn(tolerations, n)
            return wrapped

        patch(World, "_phase_agents", counting("agents", flag=True))
        patch(TrafficModel, "truth", truth)
        patch(cluster, "tolerates", tolerates_)
        patch(cluster, "bind", counting("binds", flag=True))
        patch(cluster, "apply_taint", counting("taint_changes"))
        patch(cluster, "remove_taint", counting("taint_changes"))
        patch(scheduler, "schedule", counting("schedules"))
        try:
            for _ in range(scn.ticks):
                world.step()
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)
        return world, truths, tolerates, seen

    def test_loops_ask_each_region_truth_once_a_tick(self, counted):
        # ten or eleven loops over two regions share each region's truth
        world, truths, _, _ = counted
        assert len(world.agents) >= 10
        assert set(truths.values()) == {1}
        assert len(truths) == 2 * 200

    def test_eligibility_is_derived_once_per_toleration_set_and_taint_change(self, counted):
        world, _, tolerates, seen = counted
        nodes = len(world.state.nodes)
        assert set(tolerates.values()) == {1}
        # one derivation per (taint change, toleration set): every node once
        per_epoch = Counter((epoch, tols) for epoch, tols, _ in tolerates)
        assert set(per_epoch.values()) == {nodes}
        sets = {tols for _, tols, _ in tolerates}
        assert len(tolerates) <= len(sets) * nodes * (seen["taint_changes"] + 1)
        # not once per pod scheduled
        assert len(per_epoch) < seen["schedules"] / 2
        # bind keeps its own taint check
        assert seen["bind_checks"] == seen["binds"] > 0


class TestBookkeepingChecks:
    """The end-of-tick checks raise, so they hold under ``python -O`` too."""

    @pytest.fixture
    def world(self):
        return World(from_dict({
            "name": "resident",
            "ticks": 1,
            "topology": {"nodes": [
                {"id": "n1", "region": "east", "cpu": 1000, "memory": 1000},
            ]},
            "initial_pods": [
                {"id": "keeper", "owner": "ops", "node": "n1", "cpu": 500, "memory": 500},
            ],
        }))

    def test_over_committed_node_raises(self, world):
        node = world.state.nodes["n1"]
        shrunk = dataclasses.replace(node, capacity=ResourceVector(100, 100))
        world.state = dataclasses.replace(world.state, nodes={"n1": shrunk})
        with pytest.raises(CapacityExceeded, match="n1"):
            world._phase_bookkeeping()

    def test_evicted_pod_left_undecided_raises(self, world):
        cluster.evict(world.state, "keeper")
        with pytest.raises(InvalidPhase, match="keeper"):
            world._phase_bookkeeping()

    def test_pending_pod_in_no_queue_raises(self, world):
        cluster.add_pod(world.state, Pod("stray", "ops", ResourceVector(1, 1)))
        with pytest.raises(InvalidPhase, match="'stray' is Pending but in no scheduler queue"):
            world._phase_bookkeeping()

    def test_queued_pending_pod_passes(self, world):
        cluster.add_pod(world.state, Pod("waiting", "ops", ResourceVector(1, 1)))
        world.queue.push(world.state.pods["waiting"])
        world._phase_bookkeeping()
        assert world.trace.events[-1]["pending"] == 1

    def test_usage_index_drifting_from_bindings_raises(self, world):
        # an index that forgot the bound pod: fits would still pass against it
        world.state.node_info["n1"] = cluster.NodeInfo()
        with pytest.raises(IndexDrift, match="n1"):
            world._phase_bookkeeping()
