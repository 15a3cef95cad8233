"""The standard action set: the handlers a manager serves scenarios and
fuzzing with, and what each takes, registered beside it: the manager
decides from it which promises cover the action (README, "Covers").

A manager that serves the standard actions imports only this module;
`promisekit.driver` holds the scenario driver, the wire clients and the
fuzzer that exercise it.
"""

from __future__ import annotations

from .catalog import (
    STATUS_AVAILABLE,
    DecrementPool,
    ResourceCatalog,
    SetInstanceStatus,
    SetProperty,
)
from .predicates import (
    InstanceId,
    Named,
    PredicateInvalid,
    Quantity,
    predicate_from_wire,
    satisfies,
    validate_predicate,
)
from .service import (
    ACTION_NO_OP,
    ACTION_TABLE_DUMP,
    ActionFailure,
    PromiseManager,
    ResourceUnavailable,
)


# --- standard action handlers used by scenarios and fuzzing ---

def _purchase_stock(payload, unit, catalog: ResourceCatalog):
    rt, amount = _fields(payload, "resource-type", "amount")
    catalog.apply_mutation(unit, DecrementPool(rt, amount))
    return {"resource-type": rt, "amount": amount}


def _restock(payload, unit, catalog: ResourceCatalog):
    rt, amount = _fields(payload, "resource-type", "amount")
    catalog.apply_mutation(unit, DecrementPool(rt, -amount))
    return {"resource-type": rt, "amount": amount}


def _take_named(payload, unit, catalog: ResourceCatalog):
    rt, key = _fields(payload, "resource-type", "key")
    iid = InstanceId(rt, key)
    rec = catalog.instance(iid)
    if rec is None:
        raise ActionFailure(f"no instance {iid}")
    if rec.status == "taken":
        raise ResourceUnavailable("resource-unavailable")
    catalog.apply_mutation(unit, SetInstanceStatus(iid, "taken"))
    return {"key": key}


def _matching(payload):
    rt, raw = _fields(payload, "resource-type", "constraints")
    try:
        return predicate_from_wire({"form": "property", "resource-type": rt, "constraints": raw})
    except ValueError as exc:
        raise ActionFailure(f"bad constraints: {exc}") from exc


def _take_matching(payload, unit, catalog: ResourceCatalog):
    pred = _matching(payload)
    try:
        validate_predicate(pred, catalog.schema)
    except PredicateInvalid as exc:
        raise ActionFailure(f"bad constraints: {exc}") from exc
    # a value no instance can hold is the caller's error, not a shortage
    for c in pred.constraints:
        if not catalog.schema.property_decl(pred.resource_type, c.property_name).allows(c.value):
            raise ActionFailure(f"bad constraints: {c.value!r} is outside the domain "
                                f"of {c.property_name!r}")
    view = catalog.snapshot_availability(unit)
    for rec in view.instances_of(pred.resource_type):
        if rec.status == STATUS_AVAILABLE and satisfies(rec, pred, catalog.schema):
            catalog.apply_mutation(unit, SetInstanceStatus(rec.id, "taken"))
            return {"key": rec.id.key}
    raise ResourceUnavailable("resource-unavailable")


def _set_property(payload, unit, catalog: ResourceCatalog):
    rt, key, prop, value = _fields(payload, "resource-type", "key", "property", "value")
    catalog.apply_mutation(unit, SetProperty(InstanceId(rt, key), prop, value))
    return {"key": key, "property": prop}


def _fail(payload, unit, catalog):
    reason = "scripted failure"
    if isinstance(payload, dict) and payload.get("reason"):
        reason = payload["reason"]
    raise ActionFailure(reason)


STANDARD_HANDLERS = {
    "purchase-stock": _purchase_stock,
    "restock": _restock,
    "take-named": _take_named,
    "take-matching": _take_matching,
    "set-property": _set_property,
    "fail": _fail,
}


_NAME_FIELDS = frozenset(("resource-type", "key", "property"))


def _fields(payload, *names):
    """The named members of a payload object. An `amount` must be a
    positive integer and a resource-type, key or property a non-empty
    string; anything else fails the action."""
    if not isinstance(payload, dict):
        raise ActionFailure("payload must be an object")
    for name in names:
        if name not in payload:
            raise ActionFailure(f"payload is missing {name!r}")
    values = []
    for name in names:
        value = payload[name]
        if name == "amount" and (type(value) is not int or value < 1):
            raise ActionFailure("amount must be a positive integer")
        if name in _NAME_FIELDS and (not isinstance(value, str) or not value):
            raise ActionFailure(f"{name} must be a non-empty string")
        values.append(value)
    return values


# the predicate a promise must imply to cover each consuming standard
# action (README.md, "Covers"); every other standard action is covered by none
_TAKES = {
    "purchase-stock": lambda payload: Quantity(*_fields(payload, "resource-type", "amount")),
    "take-named": lambda payload: Named(InstanceId(*_fields(payload, "resource-type", "key"))),
    "take-matching": _matching,
}


def register_standard_handlers(manager: PromiseManager) -> None:
    for name, fn in STANDARD_HANDLERS.items():
        manager.register_handler(name, fn, takes=_TAKES.get(name))


KNOWN_ACTIONS = tuple(sorted(STANDARD_HANDLERS)) + (ACTION_NO_OP, ACTION_TABLE_DUMP)
