"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads wide,contended] [--out FILE]

Runs ``BENCHMARK.json``'s command once per workload and seed, one process at
a time, with tracing off. For each end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the metric's bound. With ``--traced-seed N``
it adds one traced run per workload and keeps its per-layer metrics. With
``--out`` it writes all of it as JSON; ``baseline.json`` was made this way.
Exits 1 if a run fails or any spread exceeds its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, traced: int) -> dict:
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(BENCH["run_seconds"]), "--trace", str(traced)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {traced}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {traced}: incorrect")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    report: dict = {"run_seconds": BENCH["run_seconds"], "seeds": args.seeds, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            metrics = run_once(workload, seed, 0)["metrics"]
            for name in bounds:
                values[name].append(metrics[name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={metrics[n]['value']:.4g}" for n in bounds), flush=True)
        entry: dict = {"end_to_end": {}}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": spread, "values": vals}
            over = spread > bounds[name]
            status |= over
            print(f"  {name:<14} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.1%} (bound {bounds[name]:.0%})"
                  f"{'  OVER BOUND' if over else ''}", flush=True)
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, 1)
            entry["per_layer_seed"] = args.traced_seed
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
