"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (puts the checkout's src/ on sys.path)
import tracer  # noqa: E402
import workloads  # noqa: E402
from loopsim import cluster, scenario, sim  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_generator_is_deterministic_and_seed_only_sets_the_scenario_seed():
    for name in workloads.WORKLOADS:
        text = workloads.generate(name, 5)
        assert workloads.generate(name, 5) == text
        doc, other = yaml.safe_load(text), yaml.safe_load(workloads.generate(name, 6))
        assert (doc.pop("seed"), other.pop("seed")) == (5, 6)
        assert doc == other


def test_metric_names_are_valid_and_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} <= set(workloads.WORKLOADS)
    for section, units in (("end_to_end", bench.END_TO_END),
                           ("per_layer", bench.per_layer_units())):
        assert {m["name"]: m["unit"] for m in declared[section]} == units
        assert len(units) == len(declared[section])
        for name, unit in units.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_tracer_leaves_the_trace_unchanged_and_restores_every_name():
    text = workloads.generate("contended", 1)
    plain = sim.run(scenario.loads(text, ticks=80))[0].dumps()
    originals = (cluster.free_capacity, sim.World.step, bench.scenario.loads)
    with tracer.Tracer() as tr:
        traced = sim.run(scenario.loads(text, ticks=80))[0].dumps()
    assert traced == plain
    assert (cluster.free_capacity, sim.World.step, bench.scenario.loads) == originals
    metrics = tr.metrics()
    assert set(metrics) == set(tracer.metric_units())
    assert metrics["sim.step.calls"][0] == 80
    # reached through the scheduler's `cluster.` module attribute
    assert metrics["scheduler.score_nodes.calls"][0] > 0
    assert metrics["cluster.free_capacity.calls"][0] > 0
    assert all(tick is not None for name, *_, tick in tr.spans if name == "cluster.bind")


def test_tracer_leaves_observer_time_out_of_spans(monkeypatch):
    monkeypatch.setitem(tracer.OBSERVERS, "scenario.normalize",
                        lambda counts, args, result: time.sleep(0.2))
    with tracer.Tracer() as tr:
        scenario.loads(workloads.generate("steady-long", 1))
    metrics = tr.metrics()
    assert metrics["scenario.normalize.calls"][0] == 1
    assert metrics["scenario.loads.ms"][0] < 200


def test_workloads_match_their_pinned_digests_and_do_their_job():
    seed = bench.PINNED["default_seed"]
    for name in workloads.WORKLOADS:
        sample = bench.pipeline(name, workloads.generate(name, seed), verify=False)
        assert sample.digest == bench.PINNED["sha256"][name], name
        assert sample.problems == [], name


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_replays_must_match_the_verified_play(monkeypatch):
    monkeypatch.setitem(workloads.SHAPES, "steady-long", (2, 3, 3, 40))
    monkeypatch.setattr(bench, "MAX_SCENARIOS", 2)
    run = bench.Run("steady-long")
    metrics = bench.measured_metrics(run, "steady-long", 1, 600)
    assert (run.attempted, run.failed) == (2 * bench.PLAYS["steady-long"], 0)
    assert metrics["verify_s"] > 0

    real = bench.pipeline

    def diverging(name, text, **kw):
        sample = real(name, text, **kw)
        return sample if kw.get("verify", True) else replace(sample, digest="0" * 64)
    monkeypatch.setattr(bench, "pipeline", diverging)
    run = bench.Run("steady-long")
    bench.measured_metrics(run, "steady-long", 1, 600)
    assert run.failed == 2 * (bench.PLAYS["steady-long"] - 1)
