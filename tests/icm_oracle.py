"""Plain-dict re-implementation of the conflict manager's per-tick rules.

The engine's ``ConflictManager.process_tick`` and this module follow the same
rules but share no code.  Everything here is brute force: every pass walks the
whole pool or the whole history again, freezes are compared with their
``until`` wherever they are read, and a ranking of nodes comes from
``oracle.ranked_nodes``.  Agreement over random intent sets is therefore
evidence about the rules, not an echo of the engine's indexes.

Layout (plain dicts throughout; ``nodes`` and ``pods`` as in ``oracle``):

    agents:  acl -> {"prio": int, "mega": bool, "regions": [region, ...]}
    intent:  {"id", "acl", "tick", "kind", "target", "magnitude",
              "specs": [{"cpu", "mem", "tols": {key: {effect, ...}}}],
              "pods": [pod id, ...]}
    manager: see ``new_manager``

A tick's outcome is a dict of plain lists, the shape ``outcome`` below gives.
"""

from __future__ import annotations

import random
import statistics

import oracle

UP_KINDS = ("scale-up", "instantiate", "power-on")
TOGGLES = ("scale-up", "scale-down", "power-on", "power-off")
KINDS = ("scale-up", "scale-down", "instantiate", "power-on", "power-off")
MAGNITUDES = (1.0, 2.0, 3.0, 40.0)
SCOPES = ("east", "west", "both", "mega")


def direction(intent: dict) -> int:
    return 1 if intent["kind"] in UP_KINDS else -1


def new_manager(settings: dict, agents: dict) -> dict:
    return {
        "settings": settings,
        "agents": agents,
        "life": {acl: {"state": "Active", "anomalies": 0, "normals": 0} for acl in agents},
        "magnitudes": {acl: [] for acl in agents},
        "freezes": {},                 # (acl, target) -> until
        "executed": [],                # (tick, acl, target, direction), every one
        "requeued": [],
        "e2e_conflicts": [],           # (record, [intent]) in detection order
        "e2e_intents": [],
        "seq": 0,
    }


def instance(mgr: dict, acls) -> str:
    """``e2e`` when any loop is Mega or the loops' regions are not exactly one,
    else ``regional:<that region>``."""
    regions = set()
    for acl in acls:
        if mgr["agents"][acl]["mega"]:
            return "e2e"
        regions.update(mgr["agents"][acl]["regions"])
    return f"regional:{regions.pop()}" if len(regions) == 1 else "e2e"


def acts(mgr: dict, name: str, tick: int) -> bool:
    return name != "e2e" or tick % mgr["settings"]["e2e_period"] == 0


def check_tick(mgr: dict, intent: dict) -> int:
    """The first tick at or after the intent's on which its loop's instance acts."""
    tick = intent["tick"]
    while not acts(mgr, instance(mgr, [intent["acl"]]), tick):
        tick += 1
    return tick


def held(mgr: dict) -> list[dict]:
    return (mgr["requeued"] + mgr["e2e_intents"]
            + [i for _, intents in mgr["e2e_conflicts"] for i in intents])


def verdict(mgr: dict, acl: str, magnitude: float) -> str:
    cfg = mgr["settings"]["coherency"]
    history = mgr["magnitudes"][acl]
    result = "Normal"
    if len(history) >= cfg["min_history"]:
        spread = max(statistics.pstdev(history), cfg["epsilon"])
        if abs(magnitude - statistics.fmean(history)) > cfg["k_sigma"] * spread:
            result = "Anomalous"
    history.append(magnitude)
    del history[:-cfg["window"]]
    return result


def advance(mgr: dict, acl: str, result: str):
    """The loop's lifecycle after one verdict: (before, after) on a change."""
    cfg = mgr["settings"]["lifecycle"]
    life = mgr["life"][acl]
    before = life["state"]
    if before == "Suspended":
        return None
    if result == "Anomalous":
        life["anomalies"] += 1
        life["normals"] = 0
        life["state"] = ("Suspended" if life["anomalies"] >= cfg["suspend_after"]
                         else "UnderObservation")
    else:
        life["normals"] += 1
        life["anomalies"] = 0
        if before == "UnderObservation" and life["normals"] >= cfg["reinstate_after"]:
            life["state"] = "Active"
    return None if life["state"] == before else (before, life["state"])


def record(mgr: dict, tick: int, kind: str, participants, target: str) -> dict:
    rec = {"id": f"c{mgr['seq']}", "tick": tick, "kind": kind,
           "participants": sorted(participants), "targets": [target],
           "instance": instance(mgr, participants)}
    mgr["seq"] += 1
    return rec


def winner(mgr: dict, rec: dict) -> str:
    prio = mgr["agents"]
    return min(rec["participants"], key=lambda a: (-prio[a]["prio"], a))


def arbitrated(mgr: dict, rec: dict) -> tuple:
    win = winner(mgr, rec)
    losers = tuple(a for a in rec["participants"] if a != win)
    return (rec["id"], rec["kind"], rec["instance"], rec["tick"], "arbitrated", win, losers)


def interference(mgr: dict, tick: int, pool: list[dict], nodes: dict) -> list[dict]:
    cfg = mgr["settings"]["interference"]
    entries: dict[str, list] = {}
    for t, acl, target, d in mgr["executed"]:
        if tick - cfg["window_ticks"] < t <= tick:
            entries.setdefault(target, []).append((t, acl, d))
    for intent in pool:
        if intent["kind"] in TOGGLES:
            entries.setdefault(intent["target"], []).append(
                (tick, intent["acl"], direction(intent)))
    records = []
    for target in sorted(entries):
        if any(t == target and until > tick for (_, t), until in mgr["freezes"].items()):
            continue
        seq = sorted(entries[target])
        prev = 1 if target in nodes else seq[0][2]
        toggles = 0
        for _, _, d in seq:
            toggles += d != prev
            prev = d
        actors = {acl for _, acl, _ in seq}
        if toggles >= cfg["toggle_threshold"] and len(actors) >= 2:
            records.append(record(mgr, tick, "Interference", actors, target))
    return records


def claims(intent: dict, nodes: dict, pods: dict) -> list[tuple]:
    """(node, (cpu, mem) or None) for each node the intent acts on."""
    if intent["kind"] in ("scale-up", "instantiate"):
        out = []
        for spec in intent["specs"]:
            ranked = oracle.ranked_nodes(nodes, pods, spec)
            if ranked:
                out.append((ranked[0], (spec["cpu"], spec["mem"])))
        return out
    if intent["kind"] == "scale-down":
        return [(pods[p]["node"], None) for p in intent["pods"]
                if p in pods and pods[p]["phase"] == "bound"]
    return [(intent["target"], None)]


def contention(mgr: dict, tick: int, pool: list[dict], nodes: dict,
               pods: dict) -> list[tuple[dict, set]]:
    touched = sorted({n for i in pool for n, _ in claims(i, nodes, pods)})
    found = []
    for node in touched:
        up, down, claimed = [], [], []
        for intent in pool:
            for n, request in claims(intent, nodes, pods):
                if n != node:
                    continue
                (up if direction(intent) > 0 else down).append(intent)
                if request is not None:
                    claimed.append((intent, request))
        participants, implicated = set(), set()
        if len({i["acl"] for i, _ in claimed}) >= 2:
            cpu, mem = oracle.free(nodes, pods, node)
            if (sum(r[0] for _, r in claimed) > cpu
                    or sum(r[1] for _, r in claimed) > mem):
                participants |= {i["acl"] for i, _ in claimed}
                implicated |= {i["id"] for i, _ in claimed}
        if up and down and {i["acl"] for i in up} != {i["acl"] for i in down}:
            participants |= {i["acl"] for i in up + down}
            implicated |= {i["id"] for i in up + down}
        if participants:
            found.append((record(mgr, tick, "ResourceContention", participants, node),
                          implicated))
    return found


def outcome() -> dict:
    return {key: [] for key in ("verdicts", "lifecycle", "detected", "resolved",
                                "dropped", "requeued", "buffered", "survivors")}


def detected(rec: dict) -> tuple:
    return (rec["id"], rec["tick"], rec["kind"], tuple(rec["participants"]),
            tuple(rec["targets"]), rec["instance"])


def process_tick(mgr: dict, tick: int, intents: list[dict], nodes: dict,
                 pods: dict) -> dict:
    out = outcome()
    retry, mgr["requeued"] = mgr["requeued"], []
    pool = []

    # buffered end-to-end work, on the end-to-end instance's ticks
    if acts(mgr, "e2e", tick):
        for rec, intents_held in mgr["e2e_conflicts"]:
            out["resolved"].append(arbitrated(mgr, rec))
            for intent in intents_held:
                if intent["acl"] == winner(mgr, rec):
                    pool.append(intent)
                else:
                    out["requeued"].append(intent)
        pool += mgr["e2e_intents"]
        mgr["e2e_conflicts"], mgr["e2e_intents"] = [], []

    # coherency on fresh intents only
    passed = []
    for intent in sorted(intents, key=lambda i: (i["acl"], i["id"])):
        result = verdict(mgr, intent["acl"], intent["magnitude"])
        out["verdicts"].append((intent["acl"], intent["magnitude"], result))
        change = advance(mgr, intent["acl"], result)
        if change:
            out["lifecycle"].append((intent["acl"], *change))
        if result == "Anomalous":
            out["dropped"].append((intent["id"], "anomalous"))
        else:
            passed.append(intent)
    pool += sorted(retry + passed, key=lambda i: (i["acl"], i["id"]))

    # standing freezes
    for intent in list(pool):
        until = mgr["freezes"].get((intent["acl"], intent["target"]))
        if until is not None and until > tick:
            out["dropped"].append((intent["id"], "frozen"))
            pool.remove(intent)

    # interference: freeze the lowest priority participant
    for rec in interference(mgr, tick, pool, nodes):
        out["detected"].append(detected(rec))
        prio = mgr["agents"]
        frozen = min(rec["participants"], key=lambda a: (prio[a]["prio"], a))
        until = tick + mgr["settings"]["interference"]["cooldown_ticks"]
        for target in rec["targets"]:
            mgr["freezes"][frozen, target] = until
        out["resolved"].append(
            (rec["id"], rec["kind"], rec["instance"], rec["tick"], "frozen", frozen, until))
        for intent in list(pool):
            if intent["acl"] == frozen and intent["target"] in rec["targets"]:
                out["dropped"].append((intent["id"], "frozen"))
                pool.remove(intent)

    # contention: arbitrate on the instance's tick, else buffer
    for rec, implicated in contention(mgr, tick, pool, nodes, pods):
        out["detected"].append(detected(rec))
        mine = [i for i in pool if i["id"] in implicated]
        if not acts(mgr, rec["instance"], tick):
            mgr["e2e_conflicts"].append((rec, mine))
            pool = [i for i in pool if i not in mine]
            continue
        out["resolved"].append(arbitrated(mgr, rec))
        for intent in mine:
            if intent["acl"] != winner(mgr, rec):
                out["requeued"].append(intent)
                pool.remove(intent)

    # the rest: apply now, or wait for the loop's own instance
    for intent in pool:
        if acts(mgr, instance(mgr, [intent["acl"]]), tick):
            out["survivors"].append(intent["id"])
        else:
            mgr["e2e_intents"].append(intent)
            out["buffered"].append(intent["id"])
    mgr["requeued"] = list(out["requeued"])
    out["requeued"] = [i["id"] for i in out["requeued"]]
    return out


def note_applied(mgr: dict, tick: int, intents: list[dict]) -> None:
    for intent in intents:
        mgr["executed"].append((tick, intent["acl"], intent["target"], direction(intent)))


# -- random cases ------------------------------------------------------------------


def random_settings(rng: random.Random) -> dict:
    return {
        "e2e_period": rng.randint(1, 4),
        "coherency": {"window": rng.randint(2, 6), "min_history": rng.randint(1, 4),
                      "k_sigma": rng.choice((0.5, 1.0, 3.0)), "epsilon": 1e-6},
        "lifecycle": {"suspend_after": rng.randint(1, 3),
                      "reinstate_after": rng.randint(1, 3)},
        "interference": {"window_ticks": rng.randint(1, 6),
                         "toggle_threshold": rng.randint(1, 3),
                         "cooldown_ticks": rng.randint(0, 4)},
        "knowledge": {"model_bonus": 0.2},
    }


def random_agents(rng: random.Random) -> dict:
    agents = {}
    for acl in oracle.OWNERS + ("slice",)[: rng.randint(0, 1)]:
        scope = "mega" if acl == "slice" else rng.choice(SCOPES)
        agents[acl] = {
            "prio": rng.choice(oracle.PRIORITY_VALUES),
            "mega": scope == "mega",
            "regions": ["east", "west"] if scope in ("both", "mega") else [scope],
        }
    return agents


def random_intents(rng: random.Random, agents: dict, tick: int, nodes: dict,
                   pods: dict) -> list[dict]:
    """0 to 5 intents; their targets mostly shared, so that they collide."""
    intents = []
    for n in range(rng.randint(0, 5)):
        acl = rng.choice(sorted(agents))
        kind = rng.choice(KINDS)
        targets = sorted(nodes) + ["svc"]
        intent = {"id": f"{acl}-t{tick}-{n}", "acl": acl, "tick": tick, "kind": kind,
                  "target": rng.choice(targets), "magnitude": rng.choice(MAGNITUDES),
                  "specs": [], "pods": []}
        if kind in ("scale-up", "instantiate"):
            for _ in range(rng.randint(1, 2)):
                tols: dict[str, set] = {}
                if rng.random() < 0.4:
                    tols[rng.choice(oracle.OWNERS)] = set(oracle.EFFECTS)
                intent["specs"].append({"cpu": rng.choice(oracle.CPU_CHOICES),
                                        "mem": rng.choice(oracle.MEM_CHOICES),
                                        "tols": tols})
        elif kind == "scale-down":
            intent["pods"] = rng.sample(sorted(pods), rng.randint(1, min(2, len(pods))))
        intents.append(intent)
    return intents
