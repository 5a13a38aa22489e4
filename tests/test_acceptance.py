"""Acceptance gate: the behavioral guarantees the package ships with.

Each test covers one numbered criterion and prints a single PASS line when it
holds (run with -s to see them; under -v the test outcome itself is the
per-criterion line).  Tolerances and budgets are asserted, not aspirational.
"""

import random
import time

import yaml

import oracle
from loopsim.conflicts import CoherencyBaseline, Verdict
from loopsim.scenario import BUILTIN_SCENARIOS, from_dict, load_scenario
from loopsim.scheduler import coordinate
from loopsim.sim import check_invariants, run, verify_trace


def events_of(trace, kind):
    return [e for e in trace.events if e["kind"] == kind]


def report(n, text):
    print(f"criterion {n}: PASS — {text}")


# -- criterion 1: two loops race for one edge node ------------------------------

def test_criterion_01_contention_round_trip():
    started = time.perf_counter()
    trace, metrics, world = run(load_scenario("case1"))
    elapsed = time.perf_counter() - started

    assert world.state.bindings == {
        "acl1-pod-0": "edge-waterloo",
        "acl2-pod-0": "core-toronto",
    }
    detected = events_of(trace, "conflict-detected")
    resolved = events_of(trace, "conflict-resolved")
    assert len(detected) == len(resolved) == 1
    assert detected[0]["conflict"] == "ResourceContention"
    assert resolved[0]["outcome"] == "arbitrated"
    assert resolved[0]["winner"] == "acl1"
    assert metrics.conflicts == {"ResourceContention": 1}
    assert elapsed < 1.0
    report(1, f"case1 placements, one arbitrated contention, {elapsed:.3f}s")


# -- criterion 2: NoExecute displacement without collateral damage ---------------

def test_criterion_02_eviction_and_replacement():
    started = time.perf_counter()
    trace, metrics, world = run(load_scenario("case2"))
    elapsed = time.perf_counter() - started

    assert world.state.bindings["acl1-pod-0"] == "edge-waterloo"
    evicted = [(e["pod"], e["cause"]) for e in events_of(trace, "pod-evicted")]
    assert evicted == [("stream-a", "no-execute"), ("stream-b", "no-execute")]
    assert world.state.bindings["stream-a"] == "edge-calgary"
    assert world.state.bindings["stream-b"] == "core-toronto"
    # the unrelated resident on edge-calgary is never terminated or displaced
    assert world.state.bindings["tenant-web"] == "edge-calgary"
    assert all(e["pod"] != "tenant-web" for e in events_of(trace, "pod-terminated"))
    assert elapsed < 1.0
    report(2, f"case2 displacement lands on calgary+toronto, {elapsed:.3f}s")


# -- criterion 3: the scheduler agrees with a brute-force oracle -----------------

def test_criterion_03_scheduler_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260814)
    mismatches = []
    problems = []
    # 200 random instances, then 100 where victim sets tie on count and priority sum
    draws = [oracle.random_instance] * 200 + [oracle.tied_victims_instance] * 100
    for i, draw in enumerate(draws):
        inst = draw(rng)
        want_evictions, want_decisions, want_placement, bad = oracle.run_round(inst)
        problems.extend(f"instance {i}: {p}" for p in bad)
        state, queue = oracle.to_engine(inst)
        result = coordinate(state, queue)
        got = (
            result.taint_evictions,
            oracle.normalize_decisions(result.decisions),
            state.bindings,
        )
        if got != (want_evictions, want_decisions, want_placement):
            mismatches.append(i)
    elapsed = time.perf_counter() - started
    assert mismatches == []
    assert problems == []
    assert elapsed < 30.0
    report(3, f"300 instances (100 with tied victim sets), 0 mismatches, "
              f"victim sets minimal, {elapsed:.1f}s")


# -- criterion 4: randomized runs never break the core invariants ----------------

REGION_POOL = ["aurora", "banff", "churchill", "dawson", "esker"]


def random_document(rng, index):
    """The scenario document of fuzz scenario *index*."""
    regions = rng.sample(REGION_POOL, rng.randint(2, 3))
    nodes = []
    for r in regions:
        for j in range(rng.randint(1, 2)):
            taints = []
            if rng.random() < 0.3:
                taints.append({"key": f"pool-{r}", "effect": rng.choice(
                    ["PreferNoSchedule", "PreferNoSchedule", "NoSchedule"])})
            nodes.append({
                "id": f"{r}-n{j}",
                "region": r,
                "cpu": rng.choice([2000, 4000, 8000]),
                "memory": rng.choice([4096, 8192, 16384]),
                "taints": taints,
            })
    agents = []
    for i in range(rng.randint(2, 3)):
        region = rng.choice(regions)
        agents.append({
            "id": f"scaler{i}",
            "scope": [region],
            "priority": rng.choice(["high", "mid", "low"]),
            "alpha": rng.choice([0.3, 0.5, 1.0]),
            "pod_capacity_units": rng.choice([500.0, 1000.0]),
            "pod_template": {
                "cpu": rng.choice([200, 400, 600]),
                "memory": rng.choice([256, 512, 1024]),
                "tolerations": [
                    {"key": f"pool-{r}", "effects": ["NoSchedule", "PreferNoSchedule"]}
                    for r in regions if rng.random() < 0.5
                ],
            },
        })
    if rng.random() < 0.5:  # antagonistic pair to provoke toggling
        region = rng.choice(regions)
        agents.append({"id": "energy", "role": "energy", "scope": [region],
                       "priority": "low", "idle_ticks": 2})
        agents.append({"id": "router", "role": "balancer", "scope": [region],
                       "priority": "mid", "alpha": 1.0})
    traffic = {}
    for r in regions:
        base = rng.uniform(400, 1600)
        traffic[r] = {
            "base": base,
            "amplitude": rng.uniform(0.2, 0.8) * base,
            "period": rng.randint(6, 20),
            "phase": rng.randint(0, 5),
            "sigma": rng.uniform(0.0, 30.0),
        }
    clean_nodes = [n["id"] for n in nodes if not n["taints"]]
    initial = []
    for k in range(rng.randint(0, 2)):
        if not clean_nodes:
            break
        initial.append({
            "id": f"resident-{k}",
            "owner": "tenant",
            "node": rng.choice(clean_nodes),
            "cpu": 200, "memory": 256,
            "priority": rng.choice(["mid", "low"]),
        })
    injected = []
    for _ in range(rng.randint(0, 2)):  # surprise maintenance taints
        victim = rng.choice(nodes)["id"]
        at = rng.randint(5, 40)
        injected.append({"tick": at, "kind": "taint", "node": victim,
                         "key": "maint", "effect": "NoExecute"})
        if rng.random() < 0.7:
            injected.append({"tick": min(at + rng.randint(2, 6), 49),
                             "kind": "remove-taint", "node": victim, "key": "maint"})
    return {
        "name": f"fuzz-{index}",
        "seed": rng.randint(0, 2**31),
        "ticks": 50,
        "priority_levels": [
            {"name": "high", "value": 10},
            {"name": "mid", "value": 5},
            {"name": "low", "value": 1},
        ],
        "topology": {"nodes": nodes},
        "agents": agents,
        "initial_pods": initial,
        "traffic": traffic,
        "injected": injected,
    }


def random_scenario(rng, index):
    return from_dict(random_document(rng, index))


def test_criterion_04_invariants_hold_over_randomized_runs():
    rng = random.Random(20260814)
    total_ticks = 0
    failures = []
    for i in range(20):
        scn = random_scenario(rng, i)
        trace, metrics, _ = run(scn)
        total_ticks += metrics.ticks
        violations = check_invariants(scn.data, trace.events)
        if violations:
            failures.append((scn.name, violations[:3]))
        if not verify_trace(trace, scn).ok:
            failures.append((scn.name, "replay diverged"))
    assert total_ticks == 1000
    assert failures == []
    report(4, "20 scenarios x 50 ticks, zero invariant violations")


# -- criterion 5: ping-pong interference freezes the junior agent ----------------

def test_criterion_05_pingpong_detection_and_freeze():
    trace, metrics, _ = run(load_scenario("pingpong"))
    detected = events_of(trace, "conflict-detected")
    assert len(detected) == 1
    assert detected[0]["conflict"] == "Interference"
    toggles = [e["tick"] for e in trace.events
               if e["kind"] == "intent-submitted" and e["action"].startswith("power")]
    third = toggles[2]
    assert third <= detected[0]["tick"] <= third + 10  # inside the toggle window

    resolved = events_of(trace, "conflict-resolved")[0]
    assert resolved["outcome"] == "frozen"
    assert resolved["frozen"] == "energy-saver"  # value 3 loses to 7
    frozen_span = range(resolved["tick"], resolved["until"])
    applied = [e for e in events_of(trace, "intent-applied")
               if e["acl"] == "energy-saver" and e["tick"] in frozen_span]
    assert applied == []
    assert metrics.intents_dropped["frozen"] > 0

    # control: the same scenario without the antagonist acts monotonically
    control_doc = yaml.safe_load(BUILTIN_SCENARIOS["pingpong"])
    control_doc["agents"] = [a for a in control_doc["agents"] if a["id"] != "load-router"]
    control_trace, _, _ = run(from_dict(control_doc))
    assert events_of(control_trace, "conflict-detected") == []
    report(5, "one Interference record, junior frozen, monotone control clean")


# -- criterion 6: coherency checks quarantine an erratic loop --------------------

def hotswing_scenario():
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


def test_criterion_06_spike_suspends_the_loop():
    # twenty stationary ticks, then demand jumps 5x
    trace, _, world = run(hotswing_scenario())
    verdicts = [(e["tick"], e["verdict"]) for e in events_of(trace, "coherency")]
    assert all(v == "Normal" for t, v in verdicts if t < 20)
    assert [t for t, v in verdicts if v == "Anomalous"] == [20, 21, 22]
    changes = [(e["tick"], e["after"]) for e in events_of(trace, "lifecycle")]
    assert changes == [(20, "UnderObservation"), (22, "Suspended")]
    submitted = [e["tick"] for e in events_of(trace, "intent-submitted")]
    assert max(submitted) == 22  # silent once suspended
    assert world.agents["burst"].lifecycle.value == "Suspended"
    report(6, "5x spike: UnderObservation at 20, Suspended at 22, then silent")


def test_criterion_06_false_positive_rate_on_stationary_noise():
    rng = random.Random(123)
    baseline = CoherencyBaseline(window=50, min_history=10, epsilon=1e-6)
    flagged = sum(
        baseline.check(rng.gauss(100.0, 10.0), 3.0) is Verdict.ANOMALOUS
        for _ in range(10_000)
    )
    rate = flagged / 10_000
    assert rate <= 0.01
    report(6, f"stationary noise: {flagged}/10000 flagged ({rate:.2%} <= 1%)")


# -- criterion 7: a shared model must actually help the receiver -----------------

def brokering_scenario(trusted):
    doc = {
        "name": "brokering",
        "seed": 42,
        "ticks": 200,
        "topology": {"nodes": [
            {"id": "ran-edge", "region": "ran-land", "cpu": 8000, "memory": 16384},
            {"id": "core-dc", "region": "core-land", "cpu": 8000, "memory": 16384},
        ]},
        "agents": [
            {"id": "ran", "scope": ["ran-land"]},
            {"id": "core", "scope": ["core-land"]},
        ],
        "traffic": {
            "ran-land": {"base": 900.0, "amplitude": 300.0, "period": 24, "sigma": 25.0},
            "core-land": {"base": 1100.0, "amplitude": 400.0, "period": 30, "sigma": 25.0},
        },
        "injected": [{
            "tick": 5, "kind": "exchange-request",
            "source": "ran", "target": "core", "artifact": "Model",
        }],
    }
    if trusted:
        doc["trust"] = {"ran": [{"acl": "core", "kinds": ["Model"]}]}
    return from_dict(doc)


def test_criterion_07_shared_model_lowers_prediction_error():
    trace_shared, shared, _ = run(brokering_scenario(trusted=True))
    trace_alone, alone, _ = run(brokering_scenario(trusted=False))

    granted = events_of(trace_shared, "exchange-granted")
    assert [(e["source"], e["target"]) for e in granted] == [("ran", "core")]
    denied = events_of(trace_alone, "exchange-denied")
    assert [(e["reason"]) for e in denied] == ["NotTrusted"]

    assert shared.mae("core") < alone.mae("core")  # strictly better with the model
    assert shared.mae("ran") == alone.mae("ran")   # the sender is unaffected
    report(7, f"core mae {shared.mae('core'):.2f} < baseline {alone.mae('core'):.2f};"
              " untrusted request denied NotTrusted")


# -- criterion 8: cross-region conflicts settle only on the coarse period --------

def test_criterion_08_hierarchy_routing():
    trace, _, _ = run(load_scenario("three-acl-conflict"))
    detected = events_of(trace, "conflict-detected")
    resolved = events_of(trace, "conflict-resolved")
    assert len(detected) == 2
    assert all(e["instance"] == "e2e" for e in detected)
    assert all(e["instance"] == "e2e" for e in resolved)
    assert all(e["tick"] % 5 == 0 for e in resolved)  # only on the coarse period
    assert all(e["tick"] > d["tick"] for e, d in zip(resolved, detected))

    # a purely regional conflict never shows an e2e instance
    regional_trace, _, _ = run(load_scenario("case1"))
    instances = {
        e["instance"]
        for e in regional_trace.events
        if e["kind"] in ("conflict-detected", "conflict-resolved")
    }
    assert instances == {"regional:waterloo"}
    report(8, "mega contention held for tick 10; regional conflicts stay regional")


# -- criterion 9: everything replays byte-for-byte -------------------------------

def test_criterion_09_determinism_and_clean_verify():
    scenarios = [
        load_scenario("case1"),
        load_scenario("case2"),
        load_scenario("pingpong"),
        load_scenario("three-acl-conflict"),
        hotswing_scenario(),
        brokering_scenario(trusted=True),
    ]
    for scn in scenarios:
        first, _, _ = run(scn)
        second, _, _ = run(scn)
        assert first.dumps() == second.dumps(), scn.name
        rep = verify_trace(first, scn)
        assert rep.divergences == [] and rep.violations == [], scn.name
    report(9, f"{len(scenarios)} scenarios replay byte-identically and verify clean")
