"""Exhaustive feasibility oracle.

Independent of the engine's augmenting-path search: enumerates concrete
assignments of supply units to predicates by backtracking over
combinations. Exponential, so only for small instances (the fuzz and
acceptance suites stay within 8 instances and 6 predicates).
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Sequence

from .catalog import (
    STATUS_AVAILABLE,
    STATUS_PROMISED,
    STATUS_TAKEN,
    CatalogSchema,
    InstanceRecord,
    PropertyDecl,
    ResourceCatalog,
    ResourceTypeDecl,
)
from .predicates import (
    AT_LEAST_IN_ORDER,
    EQUALS,
    InstanceId,
    Named,
    Predicate,
    Property,
    PropertyConstraint,
    Quantity,
    satisfies,
)


def brute_force_satisfiable(predicates: Sequence[Predicate], view: ResourceCatalog) -> bool:
    """Existence of a complete assignment, found by exhaustive search."""
    pools = dict(view.pools)
    usable = [r for r in view.instances if r.status != STATUS_TAKEN]
    free = {r.id: r for r in usable}
    preds = list(predicates)

    def eligible(p: Predicate) -> list[InstanceId]:
        return sorted(iid for iid, rec in free.items() if satisfies(rec, p, view.schema))

    def assign(i: int) -> bool:
        if i == len(preds):
            return True
        p = preds[i]
        if isinstance(p, Quantity):
            if p.resource_type in pools:
                if pools[p.resource_type] < p.amount:
                    return False
                pools[p.resource_type] -= p.amount
                if assign(i + 1):
                    return True
                pools[p.resource_type] += p.amount
                return False
            candidates = sorted(iid for iid in free if iid.resource_type == p.resource_type)
            return choose(candidates, p.amount, i)
        if isinstance(p, Named):
            if p.instance not in free:
                return False
            rec = free.pop(p.instance)
            if assign(i + 1):
                return True
            free[p.instance] = rec
            return False
        return choose(eligible(p), p.amount, i)

    def choose(candidates: list[InstanceId], amount: int, i: int) -> bool:
        if len(candidates) < amount:
            return False
        for picked in combinations(candidates, amount):
            taken = [free.pop(iid) for iid in picked]
            if assign(i + 1):
                return True
            for rec in taken:
                free[rec.id] = rec
        return False

    return assign(0)


# --- randomized case generation (shared by tests and the fuzz harness) ---

_ORDER = ("economy", "business", "first")
_COLORS = ("red", "blue")


def oracle_schema() -> CatalogSchema:
    return CatalogSchema({
        "bulk": ResourceTypeDecl("bulk", pool_backed=True),
        "thing": ResourceTypeDecl("thing", pool_backed=False, properties={
            "color": PropertyDecl("color", domain=_COLORS),
            "grade": PropertyDecl("grade", order=_ORDER),
        }),
    })


def random_case(rng: random.Random, max_instances: int = 8,
                max_predicates: int = 6) -> tuple[list[Predicate], ResourceCatalog]:
    """A small catalog plus a mixed-form predicate list.

    Skewed toward near-critical cases: amounts are drawn so that roughly
    half the generated sets sit at or just past the feasibility boundary.
    """
    schema = oracle_schema()
    n_inst = rng.randint(0, max_instances)
    instances = []
    for i in range(n_inst):
        instances.append(InstanceRecord(
            InstanceId("thing", f"t{i:02d}"),
            {"color": rng.choice(_COLORS), "grade": rng.choice(_ORDER)},
            rng.choice((STATUS_AVAILABLE, STATUS_AVAILABLE, STATUS_PROMISED, STATUS_TAKEN)),
        ))
    pools = {"bulk": rng.randint(0, 6)}
    view = ResourceCatalog(schema, pools, instances)

    preds: list[Predicate] = []
    for _ in range(rng.randint(0, max_predicates)):
        roll = rng.random()
        if roll < 0.35:
            rt = "bulk" if rng.random() < 0.6 else "thing"
            preds.append(Quantity(rt, rng.randint(1, 4)))
        elif roll < 0.6:
            if n_inst and rng.random() < 0.9:
                key = f"t{rng.randrange(n_inst):02d}"
            else:
                key = "missing"
            preds.append(Named(InstanceId("thing", key)))
        else:
            constraints = [PropertyConstraint(
                "grade", AT_LEAST_IN_ORDER, rng.choice(_ORDER))]
            if rng.random() < 0.5:
                constraints.insert(0, PropertyConstraint(
                    "color", EQUALS, rng.choice(_COLORS)))
            preds.append(Property("thing", tuple(constraints), rng.randint(1, 3)))
    return preds, view
