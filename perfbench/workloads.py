"""The three workloads' inputs, generated from a seed.

Every generator fixes the make-up of a round (how many envelopes of each
kind, the catalog size, the held set) and lets the seed choose only keys,
levels and amounts, so that two seeds cost about the same to replay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from script import InstanceType, Script, Spec

LONG = 1_000_000  # a duration that outlives every round


@dataclass
class Workload:
    name: str
    spec: Spec
    script: Script
    prefill: int  # leading steps that are set-up, not timed


def _instance_type(rng, name, prop, n_levels, domain_prop, domain, count, prefix):
    order = [f"{prop}-{i:02d}" for i in range(n_levels)]
    levels = [i * n_levels // count for i in range(count)]
    rng.shuffle(levels)
    instances = {f"{prefix}{i:04d}": (levels[i], rng.choice(domain)) for i in range(count)}
    return InstanceType(name, prop, order, domain_prop, domain, instances)


def _free_instance(rng, script, rtype, min_level=0):
    """An untaken instance that no active promise names, or None."""
    named = {d[2] for h in script.model.active.values() for d in h.demands
             if d[0] == "named" and d[1] == rtype}
    levels = script.model.levels[rtype]
    keys = [k for k, lv in levels.items()
            if lv >= min_level and (rtype, k) not in script.model.taken and k not in named]
    return rng.choice(sorted(keys)) if keys else None


# --- feasibility-rooms ---

def feasibility_rooms(seed: int, rooms: int = 80, seats: int = 40, cycles: int = 4) -> Workload:
    """Deciding feasibility dominates: many Property promises over two
    instance types, checked against every instance on every envelope."""
    rng = random.Random(f"feasibility-rooms/{seed}")
    room = _instance_type(rng, "room", "grade", 24, "view", ["sea", "city", "garden", "court"],
                          rooms, "r")
    seat = _instance_type(rng, "seat", "tier", 16, "zone", ["north", "south", "east"], seats, "s")
    spec = Spec({"linen": 200, "meal": 200}, {"room": room, "seat": seat})
    script = Script(spec, tick=1)
    n_levels = {"room": 24, "seat": 16}

    def thresholds(rtype, count):
        # a fixed, top-heavy spread of levels: the seed only deals them out
        top = n_levels[rtype] - 1
        levels = [top - int(((j + 0.5) / count) ** 2 * (top + 1)) for j in range(count)]
        rng.shuffle(levels)
        return levels

    def fresh(form, rtype, old=None):
        if form == "property":
            _, _, level, amount = old
            level = min(n_levels[rtype] - 1, max(0, level + rng.choice((-1, 0, 1))))
            return ("property", rtype, level, amount)
        if form == "named":
            return ("named", rtype, _free_instance(rng, script, rtype))
        return ("quantity", rtype, old[2] + rng.choice((-1, 0, 1)))

    initial = ([("property", "room", level, 1 + j % 3)
               for j, level in enumerate(thresholds("room", 12))]
              + [("property", "seat", level, 1 + j % 3)
                 for j, level in enumerate(thresholds("seat", 8))]
              + [("named", "room", None)] * 5 + [("named", "seat", None)] * 3
              + [("quantity", "linen", 40), ("quantity", "linen", 50), ("quantity", "meal", 40),
                 ("quantity", "meal", 50), ("quantity", "room", 3), ("quantity", "room", 5),
                 ("quantity", "seat", 3), ("quantity", "seat", 5)])
    rng.shuffle(initial)
    queue = []  # (handle, form, type), oldest first
    for demand in initial:
        if demand[0] == "named":
            demand = fresh("named", demand[1])
        handle = script.request((demand,), LONG)
        if handle is not None:
            queue.append((handle, demand[0], demand[1]))
    prefill = len(script.steps)

    def exchange():
        handle, form, rtype = queue.pop(0)
        old = script.model.active[handle].demands[0]
        new = script.request((fresh(form, rtype, old),), LONG, release=(handle,))
        queue.append((new, form, rtype) if new is not None else (handle, form, rtype))

    for cycle in range(cycles):
        rtype = ("room", "seat")[cycle % 2]
        exchange()
        held = next(((h, f, t) for h, f, t in queue if f == "named" and t == rtype), None)
        if held is not None:
            queue.remove(held)
            key = script.model.active[held[0]].demands[0][2]
            script.act(("take", rtype, key), env=((held[0], True),))
        else:
            script.act(None)
        key = _free_instance(rng, script, rtype)
        new = script.request((("named", rtype, key),), LONG)
        if new is not None:
            queue.append((new, "named", rtype))
        target = _free_instance(rng, script, rtype, min_level=n_levels[rtype] * 2 // 3)
        script.act(("take", rtype, target) if target else None)
        exchange()
        pool = ("linen", "meal")[cycle // 2 % 2]
        if cycle % 4 < 2:
            script.act(("purchase", pool, rng.randint(40, 120)))
        else:
            script.act(("restock", pool, rng.randint(40, 120)))
    return Workload("feasibility-rooms", spec, script, prefill)


# --- history-churn ---

def history_churn(seed: int, cycles: int = 1000) -> Workload:
    """Feasibility is trivial; dead records pile up in the promise table."""
    rng = random.Random(f"history-churn/{seed}")
    desk = _instance_type(rng, "desk", "size", 3, "wing", ["east", "west"], 6, "d")
    spec = Spec({"token": 40}, {"desk": desk})
    script = Script(spec, tick=1)
    # a long-lived promise keeps the unpromised purchases honest
    script.request((("quantity", "token", 12),), LONG)
    prefill = len(script.steps)
    for _ in range(cycles):
        amount = rng.randint(2, 8)
        held = script.request((("quantity", "token", amount),), rng.randint(2, 8))
        named = script.request((("named", "desk", _free_instance(rng, script, "desk")),),
                               rng.randint(2, 8))
        excess = script.model.pools["token"] - 12 - amount
        script.act(("purchase", "token",
                    max(1, excess + rng.choice((-1, 1)) * rng.randint(1, 3))))
        if held is not None:
            script.act(("purchase", "token", amount), env=((held, True),))
        else:
            script.act(None)
        if named is not None:
            script.act(None, env=((named, True),))
        else:
            script.act(None)
        gap = 40 - script.model.pools["token"]
        script.act(("restock", "token", gap) if gap > 0 else None)
    return Workload("history-churn", spec, script, prefill)


# --- wire-mixed ---

def wire_mixed(seed: int, cycles: int = 125) -> tuple:
    """Small feasibility problems, so the codec, framing, thread handoff
    and the manager's lock dominate. One script per connection; each
    connection only touches its own pool and its own seats, so its replies
    do not depend on how the server interleaves the two connections."""
    rng = random.Random(f"wire-mixed/{seed}")
    pools, types = {}, {}
    for side in ("a", "b"):
        pools[f"{side}-stock"] = 20
        types[f"{side}-seat"] = _instance_type(rng, f"{side}-seat", "class", 3, "aisle",
                                               ["left", "right"], 6, f"{side}")
    spec = Spec(pools, types)
    scripts = []
    for side in ("a", "b"):
        stock, seat = f"{side}-stock", f"{side}-seat"
        script = Script(spec, tick=0)
        for _ in range(cycles):
            amount = rng.randint(1, 4)
            held = script.request((("quantity", stock, amount),), LONG)
            excess = script.model.pools[stock] - amount
            script.act(("purchase", stock,
                        max(1, excess + rng.choice((-1, 1)) * rng.randint(1, 3))))
            script.act(("purchase", stock, amount), env=((held, True),))
            gap = 20 - script.model.pools[stock]
            script.act(("restock", stock, gap) if gap > 0 else None)
            named = script.request((("named", seat, _free_instance(rng, script, seat)),), LONG)
            script.act(None, env=((named, True),))
            level = rng.randrange(3)
            held = script.request((("property", seat, level, 1),), LONG)
            script.act(None, env=((held, True),))
        scripts.append(script)
    return spec, scripts
