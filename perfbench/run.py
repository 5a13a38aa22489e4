"""loopsim benchmark: host time per tick, dumps, verify and memory.

One workload per process, so that ``peak_rss_mb`` belongs to that workload:

    python3 perfbench/run.py --workload steady-long --seed 1 --seconds 55 --trace 0

With ``--trace 0`` a run repeats the user's pipeline until ``--seconds`` is
spent and prints the end-to-end metrics (see ``end_to_end`` for how the
repetitions are combined). Each repetition is what
``loopsim run --out`` then ``loopsim verify`` pay for: scenario YAML text to a
``World`` (``scenario.loads`` then ``World``, ``SETUP_REPEATS`` times), one
``World.step`` per tick, ``Trace.dumps`` (``DUMPS_REPEATS`` times), then
``parse_trace`` and ``verify_trace``. A run plays scenario seeds
``seed * SEED_STRIDE``, ``seed * SEED_STRIDE + 1``, ..., each ``PLAYS``
times in a row; a replay skips ``verify_trace`` (see
``measured_metrics``). With ``--trace 1`` it plays scenario seed
``seed * SEED_STRIDE`` in pairs of one untraced and one ``tracer.Tracer``
repetition (see ``traced_metrics``) and prints the per-layer metrics; the
first traced repetition's spans go to ``perfbench/out/``. Without
``--workload`` it runs every workload both ways in child processes and prints
every metric as a table.

Every run first plays the workload at ``digests.json``'s default seed and
compares the trace's SHA-256 with the pinned one; this is also the warm-up.
A repetition counts as failed when it raises, its trace does not verify
clean, its digest differs from the pinned one (default seed), from the
first play's (replay) or from the untraced one (traced repetition), or the
workload no longer does its job (see ``job_problems``). The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every repetition passed.

Timings are wall-clock host time from ``time.perf_counter``; simulated time
is ticks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import loopsim  # noqa: E402
from loopsim import scenario, sim  # noqa: E402
from loopsim import trace as trace_mod  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

if Path(loopsim.__file__).resolve().parent != ROOT / "src" / "loopsim":
    raise SystemExit(f"loopsim imported from {loopsim.__file__}, not from {ROOT / 'src'}")

# few set-ups per repetition: one takes ~65 ms on contended, and the time they
# leave buys more repetitions, each one more late window for tick_us_late
SETUP_REPEATS = 5
DUMPS_REPEATS = 3
MAX_SCENARIOS = 1000
MAX_TRACED_PAIRS = 5
# scenario i of a run with --seed n is scenario seed n * SEED_STRIDE + i, so
# one scenario seed's traffic does not set a run's numbers; with
# SEED_STRIDE >= MAX_SCENARIOS runs with distinct seeds share no scenario
SEED_STRIDE = 1000
# repetitions per scenario seed; a workload not named plays each once
PLAYS = {"steady-long": 2}
PINNED = json.loads((HERE / "digests.json").read_text())
OUT_DIR = HERE / "out"

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "tick_us_p50": "us",
    "tick_us_p99": "us",
    "tick_us_late": "us",
    "dumps_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = tracer.metric_units()
    units.update({
        "trace.bytes": "B",
        "trace.events": "count",
        "sim.step.late_ratio": "ratio",
        "tracer.overhead": "ratio",
    })
    return units


@dataclass
class Sample:
    """One repetition of the pipeline."""

    setup_s: list[float]
    step_ns: list[int]
    run_s: float
    dumps_s: list[float]
    verify_s: float | None  # None when the repetition skipped verify_trace
    digest: str
    problems: list[str]
    text_bytes: int
    events: int


def job_problems(name: str, events: list[dict]) -> list[str]:
    """Why the trace no longer loads the layers its workload was chosen for.

    ``contended`` must preempt, evict for NoExecute and detect both conflict
    kinds; the other two must never preempt.
    """
    conflicts = Counter(e["conflict"] for e in events if e["kind"] == "conflict-detected")
    preemptions = sum(1 for e in events if e["kind"] == "pod-bound" and e.get("preempted"))
    no_execute = sum(
        1 for e in events if e["kind"] == "pod-evicted" and e["cause"] == "no-execute"
    )
    if name != "contended":
        return [f"{preemptions} preemptions"] if preemptions else []
    problems = []
    if not preemptions:
        problems.append("no preemption")
    if not no_execute:
        problems.append("no NoExecute eviction")
    for kind in ("ResourceContention", "Interference"):
        if not conflicts[kind]:
            problems.append(f"no {kind} conflict")
    return problems


def pipeline(name: str, text: str, *, measure: bool = False, verify: bool = True,
             summarize: bool = False) -> Sample:
    """One repetition; *measure* repeats set-up and dumps to sample them more."""
    clock = time.perf_counter
    setup_s = []
    for _ in range(SETUP_REPEATS if measure else 1):
        t0 = clock()
        scn = scenario.loads(text)
        world = sim.World(scn)
        setup_s.append(clock() - t0)

    step_ns = []
    tick_clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(scn.ticks):
        start = tick_clock()
        world.step()
        step_ns.append(tick_clock() - start)
    run_s = clock() - t0

    dumps_s = []
    for _ in range(DUMPS_REPEATS if measure else 1):
        t0 = clock()
        out = world.trace.dumps()
        dumps_s.append(clock() - t0)
    if summarize:
        sim.summarize(world.trace)

    problems = job_problems(name, world.trace.events)
    verify_s = None
    if verify:
        t0 = clock()
        report = sim.verify_trace(trace_mod.parse_trace(out), scn)
        verify_s = clock() - t0
        if not report.ok:
            problems.append(f"verify failed: {report.describe()}")
    return Sample(setup_s, step_ns, run_s, dumps_s, verify_s,
                  hashlib.sha256(out.encode()).hexdigest(), problems,
                  len(out.encode()), len(world.trace.events))


def last_tenth(step_ns: list[int]) -> list[int]:
    return step_ns[-max(1, len(step_ns) // 10):]


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """``tick_us_p99`` pools every tick of the run. The others are each
    repetition's value (for set-up the mean of its set-ups, for dumps and
    per-tick metrics the median within the repetition) averaged over the
    run's repetitions; ``verify_s`` over those that ran ``verify_trace``.

    The host's speed switches between a fast and a slow mode every few
    seconds (about 1.4x apart on a 2-vCPU machine), so per-sample times are
    bimodal: a median across repetitions jumps between the modes, while the
    mean follows the share of time spent in each. Recomputed both ways from
    the same ten 35 s runs of ``wide`` and of ``contended``, the quartile
    spread of ``tick_us_p50`` went from 12% and 18% to 9% and 18%, and that
    of ``tick_us_late`` from 23% and 26% to 18% and 20%.
    """
    def mean_of(per_rep):
        return statistics.fmean(per_rep(s) for s in samples)

    steps = [ns / 1e3 for s in samples for ns in s.step_ns]
    return {
        "setup_s": mean_of(lambda s: statistics.fmean(s.setup_s)),
        "run_s": mean_of(lambda s: s.run_s),
        "tick_us_p50": mean_of(lambda s: statistics.median(s.step_ns)) / 1e3,
        "tick_us_p99": statistics.quantiles(steps, n=100, method="inclusive")[98],
        "tick_us_late": mean_of(lambda s: statistics.median(last_tenth(s.step_ns))) / 1e3,
        "dumps_s": mean_of(lambda s: statistics.median(s.dumps_s)),
        "verify_s": statistics.fmean(s.verify_s for s in samples if s.verify_s is not None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class Run:
    """Counts attempted and failed repetitions of one benchmark process."""

    def __init__(self, name: str):
        self.name = name
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, fn, expected_digest: str | None = None) -> Sample | None:
        self.attempted += 1
        try:
            sample = fn()
        except Exception:  # a crash is a failed repetition, not a failed benchmark
            traceback.print_exc()
            self.failed += 1
            return None
        problems = list(sample.problems)
        if expected_digest is not None and sample.digest != expected_digest:
            problems.append(f"digest {sample.digest} != expected {expected_digest}")
        if problems:
            print(f"{self.name} {label}: FAILED: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
        return sample


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    run = Run(name)
    default_seed = PINNED["default_seed"]
    # warm-up, and the pinned-digest check that holds for every seed's run; a
    # trace equal to the pinned one verified clean when it was pinned
    run.attempt(f"seed {default_seed} (pinned)",
                lambda: pipeline(name, workloads.generate(name, default_seed),
                                 verify=False),
                PINNED["sha256"][name])

    if traced:
        metrics = traced_metrics(run, name, seed * SEED_STRIDE, seconds)
    else:
        metrics = measured_metrics(run, name, seed, seconds)
    units = per_layer_units() if traced else END_TO_END
    correct = run.failed == 0 and metrics is not None
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}
        if metrics is not None else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def repetitions(name: str, seed: int):
    """(scenario seed, text, verify) of each repetition of a run, in order."""
    for i in range(MAX_SCENARIOS):
        scenario_seed = seed * SEED_STRIDE + i
        text = workloads.generate(name, scenario_seed)
        for play in range(PLAYS.get(name, 1)):
            yield scenario_seed, text, play == 0


def measured_metrics(run: Run, name: str, seed: int, seconds: float):
    """End-to-end metrics of the repetitions that fit in *seconds*.

    Each scenario seed is played ``PLAYS[name]`` times in a row (once if
    *name* is not listed). The first play runs the whole pipeline; a replay
    skips ``verify_trace`` and must give the first play's digest, so the
    verified trace covers it too. Replays are for ``tick_us_late``: a
    repetition gives one window of late ticks, on ``steady-long`` half a
    second at the end of a ten-second repetition, so each window samples the
    host's speed at one moment where ``run_s`` averages over the whole play.
    A replay takes half as long as a verified play, so a run holds more
    windows. ``steady-long``'s scenario seeds make nearly the same work, so
    fewer distinct seeds cost little; ``contended``'s differ by up to a
    third, so it plays each seed once. A repetition starts only if the last
    one of its kind (verified or replay) would still end before the deadline.
    """
    samples: list[Sample] = []
    took: dict[bool, float] = {}
    digests: dict[int, str] = {}
    start = time.perf_counter()
    deadline = start + seconds
    for scenario_seed, text, verify in repetitions(name, seed):
        expected = took.get(verify, took.get(True))
        if expected is not None and time.perf_counter() + expected > deadline:
            break
        t0 = time.perf_counter()
        sample = run.attempt(
            f"scenario seed {scenario_seed}{'' if verify else ' replay'}",
            lambda: pipeline(name, text, measure=True, verify=verify),
            digests.get(scenario_seed))
        if sample is None:
            return None
        took[verify] = time.perf_counter() - t0
        digests.setdefault(scenario_seed, sample.digest)
        samples.append(sample)
    ticks = sum(len(s.step_ns) for s in samples)
    print(f"{name} seed={seed}: {len(samples)} repetitions of {len(digests)} scenario "
          f"seeds from {seed * SEED_STRIDE} in {time.perf_counter() - start:.1f} s, "
          f"{ticks} ticks ({len(samples[0].step_ns)} per repetition), "
          f"{sum(len(s.setup_s) for s in samples)} set-ups")
    return end_to_end(samples)


def traced_metrics(run: Run, name: str, seed: int, seconds: float):
    """Per-layer metrics of scenario *seed*, with the tracing overhead.

    Plays the scenario in pairs of one untraced and one traced repetition,
    alternating which runs first, until *seconds* is spent (at least one
    pair, at most ``MAX_TRACED_PAIRS``). ``tracer.overhead`` is the median
    over pairs of traced ``run_s`` / untraced ``run_s``; one pair cannot
    resolve an overhead smaller than the host's speed swings. The per-layer
    numbers and the span file come from the first traced repetition, the
    only one that also runs ``summarize`` and is verified; every later
    repetition must give the first untraced repetition's digest.
    """
    text = workloads.generate(name, seed)
    start = time.perf_counter()
    plain = run.attempt(f"seed {seed} untraced", lambda: pipeline(name, text))
    if plain is None:
        return None
    with tracer.Tracer() as tr:
        traced = run.attempt(f"seed {seed} traced",
                             lambda: pipeline(name, text, summarize=True),
                             plain.digest)
    if traced is None:
        return None
    ratios = [traced.run_s / plain.run_s]
    last = time.perf_counter() - start
    while len(ratios) < MAX_TRACED_PAIRS and time.perf_counter() + last <= start + seconds:
        t0 = time.perf_counter()
        run_s = {}
        for is_traced in (True, False) if len(ratios) % 2 else (False, True):
            with tracer.Tracer() if is_traced else contextlib.nullcontext():
                sample = run.attempt(
                    f"seed {seed} {'traced' if is_traced else 'untraced'} pair {len(ratios) + 1}",
                    lambda: pipeline(name, text, verify=False), plain.digest)
            if sample is None:
                return None
            run_s[is_traced] = sample.run_s
        ratios.append(run_s[True] / run_s[False])
        last = time.perf_counter() - t0
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-{seed}.jsonl.gz"
    tr.write_spans(spans_path)
    print(f"{name} seed={seed}: traced digest {traced.digest}, untraced {plain.digest}; "
          f"{len(tr.spans)} spans in {spans_path.relative_to(ROOT)}; overhead ratios "
          + " ".join(f"{r:.3f}" for r in ratios))
    metrics = {k: v for k, (v, _) in tr.metrics().items()}
    late = statistics.median(last_tenth(plain.step_ns))
    first = statistics.median(plain.step_ns[:max(1, len(plain.step_ns) // 10)])
    metrics.update({
        "trace.bytes": traced.text_bytes,
        "trace.events": traced.events,
        "sim.step.late_ratio": late / first,
        "tracer.overhead": statistics.median(ratios),
    })
    return metrics


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            status |= proc.returncode != 0
            if not lines:
                print(f"== {name} trace={traced}: exit {proc.returncode}, no result")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"== {name} trace={traced}: {result['attempted']} attempted, "
                  f"{result['failed']} failed, correct={result['correct']}")
            for line in lines[:-1]:
                print(f"   {line}")
            for metric, value in result["metrics"].items():
                print(f"   {metric:<52} {value['value']:>16.6g} {value['unit']}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=PINNED["default_seed"])
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
