"""Plain-dict re-implementation of the scheduling rules, used as a reference.

The production engine and this module were written against the same rules but
share no code.  Everything here is brute force — full powerset search for
eviction sets, no early exits, dict arithmetic instead of dataclasses — so
agreement over randomized instances is meaningful evidence rather than an
echo of the implementation.

Instance layout (plain dicts throughout):

    nodes:  id -> {"region", "cpu", "mem", "taints": {(key, effect), ...}}
    pods:   id -> {"owner", "cpu", "mem", "prio", "preempt",
                   "tols": {key: {effect, ...}}, "phase", "node",
                   optional "level": the owner whose level the pod has}
    units:  acl -> {"prio": int, "queue": [pod ids]}
    levels: acl -> (priority value, preemption enabled)
"""

from __future__ import annotations

import copy
import itertools
import random

from loopsim.cluster import (
    ClusterState,
    Node,
    Pod,
    PriorityLevel,
    ResourceVector,
    Taint,
    TaintEffect,
    Toleration,
)
from loopsim.scheduler import DecisionKind, PendingQueue

HARD = {"NoSchedule", "NoExecute"}
SOFT = "PreferNoSchedule"

EFFECTS = ("NoSchedule", "PreferNoSchedule", "NoExecute")
OWNERS = ("acl1", "acl2", "acl3")
PRIORITY_VALUES = (0, 2, 5, 8, 12)
CPU_CHOICES = (200, 500, 800, 1200, 1800)
MEM_CHOICES = (256, 512, 1024, 2048, 3072)


# -- rule re-implementation ---------------------------------------------------


def tolerates(pod: dict, node: dict) -> bool:
    return all(
        effect in pod["tols"].get(key, ())
        for key, effect in node["taints"]
        if effect in HARD
    )


def bound_on(pods: dict, nid: str) -> list[str]:
    return sorted(
        p for p, entry in pods.items()
        if entry["phase"] == "bound" and entry["node"] == nid
    )


def free(nodes: dict, pods: dict, nid: str) -> tuple[int, int]:
    cpu, mem = nodes[nid]["cpu"], nodes[nid]["mem"]
    for p in bound_on(pods, nid):
        cpu -= pods[p]["cpu"]
        mem -= pods[p]["mem"]
    return cpu, mem


def tier(pod: dict, node: dict) -> int:
    if any(effect in pod["tols"].get(key, ()) for key, effect in node["taints"]):
        return 0
    if any(effect == SOFT for _, effect in node["taints"]):
        return 2
    return 1


def ranked_nodes(nodes: dict, pods: dict, pod: dict) -> list[str]:
    feasible = [nid for nid, n in nodes.items() if tolerates(pod, n)]

    def key(nid):
        fc, fm = free(nodes, pods, nid)
        return (tier(pod, nodes[nid]), -fc, -fm, nid)

    return sorted(feasible, key=key)


def best_victims(nodes: dict, pods: dict, nid: str, pod: dict):
    """Cheapest sufficient eviction set by (count, summed priority, ids)."""
    fc, fm = free(nodes, pods, nid)
    lower = sorted(
        p for p in bound_on(pods, nid) if pods[p]["prio"] < pod["prio"]
    )
    best = None
    for r in range(1, len(lower) + 1):
        for combo in itertools.combinations(lower, r):
            cpu = fc + sum(pods[v]["cpu"] for v in combo)
            mem = fm + sum(pods[v]["mem"] for v in combo)
            if cpu < pod["cpu"] or mem < pod["mem"]:
                continue
            rank = (len(combo), sum(pods[v]["prio"] for v in combo), combo)
            if best is None or rank < best:
                best = rank
    return None if best is None else best[2]


def schedule_one(nodes: dict, pods: dict, pid: str) -> tuple:
    pod = pods[pid]
    ranked = ranked_nodes(nodes, pods, pod)
    for nid in ranked:
        fc, fm = free(nodes, pods, nid)
        if fc >= pod["cpu"] and fm >= pod["mem"]:
            return ("bound", pid, nid)
    if pod["preempt"]:
        for nid in ranked:
            victims = best_victims(nodes, pods, nid, pod)
            if victims is not None:
                return ("preempt", pid, nid, victims)
    return ("pending", pid)


def check_minimality(nodes: dict, pods: dict, pid: str, nid: str,
                     victims: tuple) -> list[str]:
    """Problems with an eviction choice, given the pre-decision placement."""
    problems = []
    pod = pods[pid]
    for v in victims:
        if pods[v]["prio"] >= pod["prio"]:
            problems.append(f"victim {v} not strictly lower priority than {pid}")
        if pods[v]["phase"] != "bound" or pods[v]["node"] != nid:
            problems.append(f"victim {v} not bound to {nid}")
    fc, fm = free(nodes, pods, nid)

    def admits(combo):
        cpu = fc + sum(pods[v]["cpu"] for v in combo)
        mem = fm + sum(pods[v]["mem"] for v in combo)
        return cpu >= pod["cpu"] and mem >= pod["mem"]

    if not admits(victims):
        problems.append(f"victim set {victims} insufficient for {pid} on {nid}")
    for v in victims:
        if admits(tuple(x for x in victims if x != v)):
            problems.append(f"victim {v} unnecessary in {victims}")
    best = best_victims(nodes, pods, nid, pod)

    def rank(combo):
        return (len(combo), sum(pods[v]["prio"] for v in combo), tuple(sorted(combo)))

    if best is not None and rank(best) < rank(tuple(victims)):
        problems.append(f"cheaper set {best} beats {victims}")
    return problems


def run_round(inst: dict) -> tuple[list, list, dict, list[str]]:
    """One full coordinated round on a deep copy of the instance.

    Returns (taint evictions, decision tuples, final pod placement,
    minimality problems found along the way).
    """
    inst = copy.deepcopy(inst)
    nodes, pods = inst["nodes"], inst["pods"]
    units = {
        acl: {"prio": u["prio"], "queue": list(u["queue"])}
        for acl, u in inst["units"].items()
    }

    def owner_unit(pid):
        owner = pods[pid]["owner"]
        if owner not in units:
            units[owner] = {"prio": pods[pid]["prio"], "queue": []}
        return units[owner]

    evictions = []
    for nid in sorted(nodes):
        # only an untolerated NoExecute taint evicts a running pod
        no_execute = [key for key, e in nodes[nid]["taints"] if e == "NoExecute"]
        for pid in bound_on(pods, nid):
            if not all("NoExecute" in pods[pid]["tols"].get(key, ()) for key in no_execute):
                pods[pid]["phase"] = "pending"
                pods[pid]["node"] = None
                evictions.append((nid, pid))
                owner_unit(pid)["queue"].append(pid)

    decisions = []
    problems = []
    while True:
        live = [(a, u) for a, u in units.items() if u["queue"]]
        if not live:
            break
        _, unit = min(live, key=lambda kv: (-kv[1]["prio"], kv[0]))
        pid = unit["queue"].pop(0)
        if pods[pid]["phase"] != "pending":
            continue
        decision = schedule_one(nodes, pods, pid)
        decisions.append(decision)
        if decision[0] == "bound":
            pods[pid]["phase"] = "bound"
            pods[pid]["node"] = decision[2]
        elif decision[0] == "preempt":
            _, _, nid, victims = decision
            problems.extend(check_minimality(nodes, pods, pid, nid, victims))
            for victim in victims:
                pods[victim]["phase"] = "pending"
                pods[victim]["node"] = None
                owner_unit(victim)["queue"].append(victim)
            pods[pid]["phase"] = "bound"
            pods[pid]["node"] = nid
    placement = {p: pods[p]["node"] for p in pods if pods[p]["phase"] == "bound"}
    return evictions, decisions, placement, problems


# -- randomized instances ------------------------------------------------------


def random_instance(rng: random.Random) -> dict:
    nodes = {}
    for i in range(rng.randint(1, 4)):
        nid = f"n{i}"
        nodes[nid] = {
            "region": rng.choice(("east", "west")),
            "cpu": rng.choice((1000, 2000, 3000)),
            "mem": rng.choice((2048, 4096, 8192)),
            "taints": set(),
        }
        for _ in range(rng.randint(0, 2)):
            nodes[nid]["taints"].add((rng.choice(OWNERS), rng.choice(EFFECTS)))

    levels = {
        owner: (rng.choice(PRIORITY_VALUES), rng.random() < 0.8)
        for owner in OWNERS
    }
    pods = {}
    for i in range(rng.randint(1, 6)):
        owner = rng.choice(OWNERS)
        tols: dict[str, set] = {}
        for _ in range(rng.randint(0, 2)):
            key = rng.choice(OWNERS)
            effects = rng.sample(EFFECTS, rng.randint(1, 3))
            tols.setdefault(key, set()).update(effects)
        pods[f"p{i}"] = {
            "owner": owner,
            "cpu": rng.choice(CPU_CHOICES),
            "mem": rng.choice(MEM_CHOICES),
            "prio": levels[owner][0],
            "preempt": levels[owner][1],
            "tols": tols,
            "phase": "pending",
            "node": None,
        }

    # pre-bind a random prefix wherever placement is currently legal
    for pid in sorted(pods)[: rng.randint(0, len(pods))]:
        entry = pods[pid]
        candidates = []
        for nid in sorted(nodes):
            fc, fm = free(nodes, pods, nid)
            if tolerates(entry, nodes[nid]) and fc >= entry["cpu"] and fm >= entry["mem"]:
                candidates.append(nid)
        if candidates and rng.random() < 0.7:
            entry["phase"] = "bound"
            entry["node"] = rng.choice(candidates)

    # a surprise taint applied after binding can strand intolerant pods,
    # exercising the NoExecute enforcement pass
    if rng.random() < 0.4:
        nid = rng.choice(sorted(nodes))
        nodes[nid]["taints"].add((rng.choice(OWNERS), rng.choice(EFFECTS)))

    units: dict[str, dict] = {}
    pending = [p for p in sorted(pods) if pods[p]["phase"] == "pending"]
    rng.shuffle(pending)
    for pid in pending:
        owner = pods[pid]["owner"]
        unit = units.setdefault(owner, {"prio": pods[pid]["prio"], "queue": []})
        unit["queue"].append(pid)
    return {"nodes": nodes, "pods": pods, "units": units, "levels": levels}


def repeated_shape_instance(rng: random.Random) -> dict:
    """Like ``random_instance``, but each owner submits many pods of one or two
    shapes (request and tolerations) to nodes too small for them all.

    A round then holds runs of Pending decisions for one shape, broken by
    binds, by preemptions (owners differ in priority) and, after a surprise
    NoExecute taint, by evicted pods rejoining the queues.  Some groups carry
    another owner's priority level, as an initial pod may, so a unit can hold
    one request at two priorities and drain a higher-priority pod after a
    lower one.
    """
    nodes = {}
    for i in range(rng.randint(1, 3)):
        nid = f"n{i}"
        nodes[nid] = {
            "region": "east",
            "cpu": rng.choice((1000, 2000)),
            "mem": rng.choice((2048, 4096)),
            "taints": set(),
        }
        if rng.random() < 0.4:
            nodes[nid]["taints"].add((rng.choice(OWNERS), rng.choice(EFFECTS)))

    levels = {
        owner: (rng.choice(PRIORITY_VALUES), rng.random() < 0.8)
        for owner in OWNERS
    }
    pods = {}
    for owner in OWNERS:
        cpu, mem, tols = 0, 0, {}
        for group in range(rng.randint(1, 2)):
            if group == 0 or rng.random() < 0.5:
                cpu, mem = rng.choice((400, 700, 1000)), rng.choice((512, 1024, 2048))
                tols = {}
                if rng.random() < 0.5:
                    tols[rng.choice(OWNERS)] = set(rng.sample(EFFECTS, rng.randint(1, 3)))
            level = owner if rng.random() < 0.7 else rng.choice(OWNERS)
            for _ in range(rng.randint(1, 7)):
                pods[f"p{len(pods):02d}"] = {
                    "owner": owner,
                    "level": level,
                    "cpu": cpu,
                    "mem": mem,
                    "prio": levels[level][0],
                    "preempt": levels[level][1],
                    "tols": copy.deepcopy(tols),
                    "phase": "pending",
                    "node": None,
                }

    for pid in sorted(pods):
        entry = pods[pid]
        if rng.random() < 0.7:
            continue
        for nid in sorted(nodes):
            fc, fm = free(nodes, pods, nid)
            if tolerates(entry, nodes[nid]) and fc >= entry["cpu"] and fm >= entry["mem"]:
                entry["phase"] = "bound"
                entry["node"] = nid
                break

    if rng.random() < 0.5:
        nid = rng.choice(sorted(nodes))
        nodes[nid]["taints"].add((rng.choice(OWNERS), "NoExecute"))

    units: dict[str, dict] = {}
    pending = [p for p in sorted(pods) if pods[p]["phase"] == "pending"]
    rng.shuffle(pending)
    for pid in pending:
        owner = pods[pid]["owner"]
        unit = units.setdefault(owner, {"prio": levels[owner][0], "queue": []})
        unit["queue"].append(pid)
    return {"nodes": nodes, "pods": pods, "units": units, "levels": levels}


def tied_victims_instance(rng: random.Random) -> dict:
    """One node full of ``acl1``'s pods in two shapes at one priority, and
    pending ``acl2`` pods of a higher one that each need two or more of them.

    Neither shape asks more of both resources than the other, so no one pod
    covers a pending one, and every victim set of one size ties on count and
    priority sum: only the ids tell them apart.  A pending pod either needs a
    random two or three of the low pods, or is covered by any two of them,
    one shape or both.  The ids are dealt to the pods at random, so the set
    with the smallest ids is not always the one a search over the shapes in
    sorted order meets first.
    """
    cpus = sorted(rng.sample((200, 300, 500, 700), 2))
    mems = sorted(rng.sample((256, 512, 768, 1024), 2), reverse=True)
    low = [shape for shape in zip(cpus, mems) for _ in range(rng.randint(2, 3))]
    high = rng.randint(1, 2)
    ids = [f"p{i:02d}" for i in range(len(low) + high)]
    rng.shuffle(ids)
    slack_cpu, slack_mem = rng.choice((0, 100)), rng.choice((0, 128))
    nodes = {"n0": {
        "region": "east",
        "cpu": sum(cpu for cpu, _ in low) + slack_cpu,
        "mem": sum(mem for _, mem in low) + slack_mem,
        "taints": set(),
    }}
    levels = {"acl1": (rng.choice((0, 2)), True), "acl2": (rng.choice((5, 8)), True)}

    def pod(owner, cpu, mem, node):
        return {"owner": owner, "cpu": cpu, "mem": mem, "prio": levels[owner][0],
                "preempt": True, "tols": {}, "phase": "bound" if node else "pending",
                "node": node}

    pods = {pid: pod("acl1", cpu, mem, "n0") for pid, (cpu, mem) in zip(ids, low)}
    queue = []
    for pid in ids[len(low):]:
        if rng.random() < 0.5:
            wanted = rng.sample(low, rng.randint(2, 3))
            cpu, mem = sum(cpu for cpu, _ in wanted), sum(mem for _, mem in wanted)
        else:  # more cpu than the first shape has, more memory than the second
            cpu, mem = cpus[0] + rng.choice((100, cpus[0])), mems[1] + rng.choice((128, mems[1]))
        pods[pid] = pod("acl2", slack_cpu + cpu, slack_mem + mem, None)
        queue.append(pid)
    units = {"acl2": {"prio": levels["acl2"][0], "queue": queue}}
    return {"nodes": nodes, "pods": pods, "units": units, "levels": levels}


def to_engine(inst: dict) -> tuple[ClusterState, PendingQueue]:
    """Translate a dict instance into engine values.

    Bound pods are written directly into the state (the equivalent of binding
    first and tainting afterwards, which the generator guarantees is legal).
    """
    levels = {
        owner: PriorityLevel(f"lvl-{owner}", value, preempt)
        for owner, (value, preempt) in inst["levels"].items()
    }
    nodes = {
        nid: Node(
            nid,
            n["region"],
            ResourceVector(n["cpu"], n["mem"]),
            frozenset(Taint(k, TaintEffect(e)) for k, e in n["taints"]),
        )
        for nid, n in inst["nodes"].items()
    }
    pods = {}
    bindings = {}
    for pid in sorted(inst["pods"]):
        entry = inst["pods"][pid]
        tols = frozenset(
            Toleration(key, frozenset(TaintEffect(e) for e in effects))
            for key, effects in entry["tols"].items()
        )
        pods[pid] = Pod(
            pid,
            entry["owner"],
            ResourceVector(entry["cpu"], entry["mem"]),
            tols,
            levels[entry.get("level", entry["owner"])],
        )
        if entry["phase"] == "bound":
            bindings[pid] = entry["node"]
    state = ClusterState(nodes=nodes, pods=pods, bindings=bindings)
    queue = PendingQueue({acl: levels[acl].value for acl in inst["units"]})
    for unit in inst["units"].values():
        for pid in unit["queue"]:
            queue.push(pods[pid])
    return state, queue


def normalize_decisions(decisions) -> list[tuple]:
    out = []
    for d in decisions:
        if d.kind is DecisionKind.BOUND:
            out.append(("bound", d.pod_id, d.node_id))
        elif d.kind is DecisionKind.PREEMPT:
            out.append(("preempt", d.pod_id, d.node_id, d.victims))
        else:
            out.append(("pending", d.pod_id))
    return out
