"""Seeded synthetic scenarios for the benchmark.

Every workload is one YAML document built from a fixed layout and the seed.
The seed becomes the scenario's own ``seed`` (it drives the traffic noise);
nothing else about the document depends on it, so one workload keeps the same
shape on every seed and the program sees only the generated text.

``steady-long`` and ``wide`` are the synthetic family from ROADMAP item 1:
R regions x M nodes (8000m/16384Mi), K scalers per region (100 units per pod,
hysteresis 1, 200m/256Mi pods, priorities cycling high/mid/low), one energy
loop (idle 2) and one balancer loop (alpha 1.0) per region, and traffic of
base 1000, amplitude 800, period 40, phase r, sigma 50 in region r.
``contended`` keeps that region layout on small nodes and adds contention:
high-priority scalers with 400m pods, a low-priority batch scaler per region
that never scales down, an end-to-end slice loop fed 3-link chains, and
NoExecute maintenance taints that come and go.
"""

from __future__ import annotations

import yaml

PRIORITIES = ("high", "mid", "low")

# name -> (regions, nodes per region, scalers per region, ticks)
SHAPES = {
    "steady-long": (2, 3, 3, 1200),
    "wide": (6, 4, 4, 150),
    "contended": (2, 3, 3, 400),
}

WORKLOADS = tuple(SHAPES)

# contended: a slice request every SLICE_EVERY ticks, and a NoExecute
# maintenance window of MAINT_LENGTH ticks every MAINT_EVERY ticks, rotating
# over the nodes
SLICE_EVERY = 7
MAINT_EVERY = 25
MAINT_LENGTH = 6


def _nodes(regions: int, per_region: int, cpu: int, memory: int) -> list[dict]:
    return [
        {"id": f"r{r}-n{m}", "region": f"r{r}", "cpu": cpu, "memory": memory}
        for r in range(regions)
        for m in range(per_region)
    ]


def _traffic(regions: int) -> dict:
    return {
        f"r{r}": {"base": 1000, "amplitude": 800, "period": 40, "phase": r, "sigma": 50}
        for r in range(regions)
    }


def _region_loops(r: int) -> list[dict]:
    return [
        {"id": f"r{r}-energy", "role": "energy", "scope": [f"r{r}"], "idle_ticks": 2},
        {"id": f"r{r}-bal", "role": "balancer", "scope": [f"r{r}"], "alpha": 1.0},
    ]


def _scaler(r: int, k: int, priority: str, cpu: int, **extra) -> dict:
    return {
        "id": f"r{r}-s{k}",
        "role": "scaler",
        "scope": [f"r{r}"],
        "priority": priority,
        "pod_capacity_units": 100,
        "hysteresis_ticks": 1,
        "pod_template": {"cpu": cpu, "memory": 256},
        **extra,
    }


def _levels() -> list[dict]:
    return [{"name": p, "value": 30 - 10 * i} for i, p in enumerate(PRIORITIES)]


def _family(name: str, seed: int) -> dict:
    regions, per_region, scalers, ticks = SHAPES[name]
    agents = []
    for r in range(regions):
        agents += [_scaler(r, k, PRIORITIES[k % 3], 200) for k in range(scalers)]
        agents += _region_loops(r)
    return {
        "name": f"bench-{name}",
        "seed": seed,
        "ticks": ticks,
        "priority_levels": _levels(),
        "topology": {"nodes": _nodes(regions, per_region, 8000, 16384)},
        "agents": agents,
        "traffic": _traffic(regions),
    }


def _contended(seed: int) -> dict:
    regions, per_region, scalers, ticks = SHAPES["contended"]
    nodes = _nodes(regions, per_region, 4000, 8192)
    agents = []
    for r in range(regions):
        agents += [_scaler(r, k, "high", 400) for k in range(scalers)]
        agents.append(
            _scaler(r, scalers, "low", 400, id=f"r{r}-batch", watermark_low=0.0)
        )
        agents += _region_loops(r)
    agents.append({"id": "slicer", "role": "slice", "scope": ["e2e"], "priority": "mid"})
    injected = [
        {"tick": t, "kind": "slice-request", "agent": "slicer",
         "chain": [{"cpu": 300, "memory": 256}] * 3}
        for t in range(SLICE_EVERY, ticks, SLICE_EVERY)
    ]
    for i, t in enumerate(range(MAINT_EVERY, ticks - MAINT_LENGTH, MAINT_EVERY)):
        node = nodes[i % len(nodes)]["id"]
        injected.append({"tick": t, "kind": "taint", "node": node,
                         "key": "maint", "effect": "NoExecute"})
        injected.append({"tick": t + MAINT_LENGTH, "kind": "remove-taint",
                         "node": node, "key": "maint"})
    return {
        "name": "bench-contended",
        "seed": seed,
        "ticks": ticks,
        "priority_levels": _levels(),
        "topology": {"nodes": nodes},
        "agents": agents,
        "traffic": _traffic(regions),
        "injected": injected,
    }


def generate(name: str, seed: int) -> str:
    """The scenario document of workload *name* at *seed*, as YAML text."""
    if name not in SHAPES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    doc = _contended(seed) if name == "contended" else _family(name, seed)
    return yaml.safe_dump(doc, sort_keys=False)
