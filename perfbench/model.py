"""Independent outcome model of the promise manager.

The benchmark predicts every reply from this bookkeeping and counts each
disagreement as a failed operation. It shares no code with the manager's
feasibility engine: instead of a max-flow it uses the structure of the
benchmark's own predicates.

Demands are tuples:

  ("quantity", type, amount)           - units of a pool, or any untaken
                                          instances of an instance type
  ("named", type, key)                 - one specific instance
  ("property", type, threshold, amount) - instances whose single ordered
                                          property is at least the level
                                          with index `threshold`

Every Property demand on a type constrains only that type's one ordered
property with `at-least-in-order`, so the sets of instances that the
demands of one type accept are nested (upward-closed in level). By Hall's
theorem such a set of demands can be served exactly when, for every
level, the demand at or above that level fits in the free instances at or
above it. A Named demand owns its instance outright, so named instances
are taken out of the free set first. Pools only need the sum of their
Quantity demands to fit in the quantity on hand.
"""

from __future__ import annotations

from dataclasses import dataclass

SUCCEEDED = "succeeded"
FAILED = "failed"
VIOLATION = "rejected-by-promise-violation"
EXPIRED = "promise-expired"


@dataclass
class Held:
    demands: tuple
    expires_at: int


class Model:
    """Pools, instance levels, taken instances and the active promise set.

    Promises are known by handles that the workload generator chooses;
    the manager's own identifiers are bound to them when replies arrive.
    """

    def __init__(self, pools: dict[str, int], levels: dict[str, dict[str, int]],
                 n_levels: dict[str, int]):
        self.pools = dict(pools)
        self.levels = {t: dict(keys) for t, keys in levels.items()}
        self.n_levels = dict(n_levels)
        self.taken: set[tuple[str, str]] = set()
        self.active: dict[int, Held] = {}

    # --- feasibility by Hall's theorem on nested demands ---

    def feasible(self, held) -> bool:
        pool_need: dict[str, int] = {}
        named: set[tuple[str, str]] = set()
        need: dict[str, list[int]] = {}
        for demands in held:
            for d in demands:
                kind, rtype = d[0], d[1]
                if kind == "named":
                    ref = (rtype, d[2])
                    if ref in named or ref in self.taken:
                        return False
                    named.add(ref)
                elif kind == "quantity" and rtype in self.pools:
                    pool_need[rtype] = pool_need.get(rtype, 0) + d[2]
                else:
                    threshold, amount = (0, d[2]) if kind == "quantity" else (d[2], d[3])
                    need.setdefault(rtype, [0] * self.n_levels[rtype])[threshold] += amount
        for pool, amount in pool_need.items():
            if amount > self.pools[pool]:
                return False
        for rtype, by_level in need.items():
            free = [0] * self.n_levels[rtype]
            for key, level in self.levels[rtype].items():
                if (rtype, key) not in self.taken and (rtype, key) not in named:
                    free[level] += 1
            demand = supply = 0
            for level in range(len(free) - 1, -1, -1):
                demand += by_level[level]
                supply += free[level]
                if demand > supply:
                    return False
        return True

    def _held(self, exclude=()):
        return [h.demands for handle, h in self.active.items() if handle not in exclude]

    # --- the envelope pipeline, in the order of docs/wire-protocol.md ---

    def sweep(self, now: int) -> None:
        for handle in [h for h, rec in self.active.items() if rec.expires_at <= now]:
            del self.active[handle]

    def request(self, handle: int, demands: tuple, duration: int, now: int,
                release=()) -> bool:
        """Grant, or exchange when `release` is given. True when accepted."""
        if any(h not in self.active for h in release):
            return False
        if not self.feasible(self._held(exclude=release) + [demands]):
            return False
        for h in release:
            del self.active[h]
        self.active[handle] = Held(demands, now + duration)
        return True

    def action(self, effect, env=()) -> str:
        """Status of an action with `effect`, run under `env`.

        `env` lists (handle, release_after_success). `effect` is None for a
        no-op, or ("take", type, key), ("purchase", pool, amount) or
        ("restock", pool, amount).
        """
        for handle, _ in env:
            if handle not in self.active:
                return EXPIRED
        undo = self._apply(effect)
        if undo is False:
            return FAILED
        released = {h for h, release in env if release}
        if self.feasible(self._held(exclude=released)):
            for h in released:
                del self.active[h]
            return SUCCEEDED
        if undo is not None:
            undo()
        return VIOLATION

    def _apply(self, effect):
        if effect is None:
            return None
        kind = effect[0]
        if kind == "take":
            ref = (effect[1], effect[2])
            if ref in self.taken:
                return False
            self.taken.add(ref)
            return lambda: self.taken.discard(ref)
        pool, amount = effect[1], effect[2]
        if kind == "purchase":
            if self.pools[pool] < amount:
                return False
            amount = -amount
        self.pools[pool] += amount
        return lambda: self.pools.__setitem__(pool, self.pools[pool] - amount)

    # --- what an end-of-round check compares against ---

    def active_after(self, now: int) -> set[int]:
        return {h for h, rec in self.active.items() if rec.expires_at > now}
