"""Predicate language for resource promises.

Three closed forms cover the supported resource views:

  Quantity  - N units from a fungible pool ("at least 5 pink widgets")
  Named     - one specific instance, addressed by its identifier
  Property  - N instances matching property constraints; the binding of
              concrete instances is deferred until an action takes them

Validation checks predicate shape against a catalog schema: declared
resource types, declared properties, comparator legality, positive
amounts. It deliberately does not check satisfiability; a predicate can
be well-formed yet impossible to meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Union

if TYPE_CHECKING:  # pragma: no cover
    from .catalog import CatalogSchema

Scalar = Union[str, int, bool]

EQUALS = "equals"
AT_LEAST_IN_ORDER = "at-least-in-order"
COMPARATORS = (EQUALS, AT_LEAST_IN_ORDER)


class PredicateInvalid(Exception):
    """A predicate failed shape validation against a catalog schema."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class FormMismatch(Exception):
    """The predicate form cannot be evaluated against a single instance."""


class InstanceId(NamedTuple):
    """A tuple, so that hashing and comparing ids, which every lookup by
    instance does, runs in C. Ids order by type, then key."""

    resource_type: str
    key: str

    def __str__(self) -> str:
        return f"{self.resource_type}/{self.key}"


@dataclass(frozen=True)
class PropertyConstraint:
    property_name: str
    comparator: str
    value: Scalar


@dataclass(frozen=True)
class Quantity:
    """Demand for `amount` interchangeable units of a resource type."""

    resource_type: str
    amount: int


@dataclass(frozen=True)
class Named:
    """Demand for one specific instance."""

    instance: InstanceId


@dataclass(frozen=True)
class Property:
    """Demand for `amount` distinct instances matching every constraint."""

    resource_type: str
    constraints: tuple[PropertyConstraint, ...]
    amount: int = 1

    def __post_init__(self):
        # tolerate hand-written list literals
        if isinstance(self.constraints, list):
            object.__setattr__(self, "constraints", tuple(self.constraints))


Predicate = Union[Quantity, Named, Property]


def resource_type_of(p: Predicate) -> str:
    if isinstance(p, Named):
        return p.instance.resource_type
    return p.resource_type


def amount_of(p: Predicate) -> int:
    return 1 if isinstance(p, Named) else p.amount


def scalar_eq(a: Scalar, b: Scalar) -> bool:
    # bool is an int subtype in Python; keep True distinct from 1
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    return a == b


def scalar_key(value: Scalar) -> tuple:
    """Hashable key under which two scalars collide iff `scalar_eq` holds."""
    return (isinstance(value, bool), value)


def validate_predicate(p: Predicate, schema: "CatalogSchema") -> None:
    """Accept or raise PredicateInvalid. Shape only, not satisfiability.

    Codes: unknown-resource-type, unknown-property, illegal-comparator,
    non-positive-amount, empty-constraints, duplicate-property.
    """
    rt = resource_type_of(p)
    if not schema.has_type(rt):
        raise PredicateInvalid("unknown-resource-type", f"resource type {rt!r} is not declared")

    if isinstance(p, (Quantity, Property)):
        if not isinstance(p.amount, int) or isinstance(p.amount, bool) or p.amount < 1:
            raise PredicateInvalid("non-positive-amount", f"amount must be a positive integer, got {p.amount!r}")

    if isinstance(p, Property):
        if not p.constraints:
            raise PredicateInvalid("empty-constraints", "property predicate needs at least one constraint")
        seen: set[str] = set()
        for c in p.constraints:
            if c.property_name in seen:
                raise PredicateInvalid("duplicate-property", f"property {c.property_name!r} constrained twice")
            seen.add(c.property_name)
            decl = schema.property_decl(rt, c.property_name)
            if decl is None:
                raise PredicateInvalid("unknown-property", f"property {c.property_name!r} is not declared for {rt!r}")
            if c.comparator not in COMPARATORS:
                raise PredicateInvalid("illegal-comparator", f"unknown comparator {c.comparator!r}")
            if c.comparator == AT_LEAST_IN_ORDER and decl.order is None:
                raise PredicateInvalid(
                    "illegal-comparator",
                    f"{c.property_name!r} declares no order; at-least-in-order is not applicable",
                )


def satisfies(instance, p: Predicate, schema: "CatalogSchema") -> bool:
    """Whether a single instance record meets a Named or Property predicate.

    `instance` carries `.id` (InstanceId) and `.properties` (mapping).
    Quantity predicates evaluate against pool counts, not instances, so
    passing one raises FormMismatch.
    """
    if isinstance(p, Quantity):
        raise FormMismatch("quantity predicates evaluate against pool counts, not instances")
    if isinstance(p, Named):
        return instance.id == p.instance

    if instance.id.resource_type != p.resource_type:
        return False
    for c in p.constraints:
        if c.property_name not in instance.properties:
            return False
        actual = instance.properties[c.property_name]
        if c.comparator == EQUALS:
            if not scalar_eq(actual, c.value):
                return False
        else:
            decl = schema.property_decl(p.resource_type, c.property_name)
            if decl is None or decl.order is None:
                return False
            have = decl.rank(actual)
            want = decl.rank(c.value)
            if have < 0 or want < 0 or have < want:
                return False
    return True


# --- wire form, shared with the protocol module ---

def predicate_to_wire(p: Predicate) -> dict:
    if isinstance(p, Quantity):
        return {"form": "quantity", "resource-type": p.resource_type, "amount": p.amount}
    if isinstance(p, Named):
        return {"form": "named", "resource-type": p.instance.resource_type, "key": p.instance.key}
    if isinstance(p, Property):
        return {
            "form": "property",
            "resource-type": p.resource_type,
            "amount": p.amount,
            "constraints": [
                {"property": c.property_name, "comparator": c.comparator, "value": c.value}
                for c in p.constraints
            ],
        }
    raise TypeError(f"not a predicate: {p!r}")


_WIRE_FIELDS = {
    "quantity": frozenset(("form", "resource-type", "amount")),
    "named": frozenset(("form", "resource-type", "key")),
    "property": frozenset(("form", "resource-type", "amount", "constraints")),
}
_CONSTRAINT_FIELDS = frozenset(("property", "comparator", "value"))
_SCALAR_TYPES = (str, int, bool)


def predicate_from_wire(doc) -> Predicate:
    """Parse one wire predicate object. Raises ValueError on bad shape.

    Each value is checked as it is read; a form's member set is checked by
    counting, since every member the form requires has been read by then."""
    if type(doc) is not dict:
        raise ValueError("predicate must be an object")
    form = doc.get("form")
    rt = doc.get("resource-type")
    if type(rt) is not str or not rt:
        raise ValueError("predicate needs a non-empty resource-type")
    if form == "quantity":
        amount = doc.get("amount")
        if type(amount) is not int or amount < 1 or len(doc) != 3:
            raise _bad_predicate(doc, form)
        return Quantity(rt, amount)
    if form == "named":
        key = doc.get("key")
        if type(key) is not str or not key or len(doc) != 3:
            raise _bad_predicate(doc, form)
        return Named(InstanceId(rt, key))
    if form == "property":
        amount = doc.get("amount", 1)
        raw = doc.get("constraints")
        if type(amount) is not int or amount < 1 or type(raw) is not list or not raw \
                or len(doc) != 3 + ("amount" in doc):
            raise _bad_predicate(doc, form)
        constraints = []
        for c in raw:
            if type(c) is not dict:
                raise ValueError("constraint must be an object")
            name = c.get("property")
            comparator = c.get("comparator")
            value = c.get("value")
            if type(name) is not str or not name or comparator not in COMPARATORS \
                    or type(value) not in _SCALAR_TYPES or len(c) != 3:
                raise _bad_constraint(c)
            constraints.append(PropertyConstraint(name, comparator, value))
        return Property(rt, tuple(constraints), amount)
    raise ValueError(f"unknown predicate form {form!r}")


def _bad_predicate(doc: dict, form: str) -> ValueError:
    """Which rule a predicate of a known form broke."""
    fields = _WIRE_FIELDS[form]
    if not fields.issuperset(doc):
        return ValueError(f"unknown predicate fields {sorted(set(doc) - fields)}")
    if form == "named":
        return ValueError("named predicate needs a non-empty key")
    amount = doc.get("amount", 1)
    if type(amount) is not int or amount < 1:
        return ValueError(f"amount must be a positive integer, got {amount!r}")
    return ValueError("property predicate needs a non-empty constraints list")


def _bad_constraint(c: dict) -> ValueError:
    if not _CONSTRAINT_FIELDS.issuperset(c):
        return ValueError(f"unknown constraint fields {sorted(set(c) - _CONSTRAINT_FIELDS)}")
    name = c.get("property")
    if type(name) is not str or not name:
        return ValueError("constraint needs a non-empty property name")
    if c.get("comparator") not in COMPARATORS:
        return ValueError(f"unknown comparator {c.get('comparator')!r}")
    if "value" not in c:
        return ValueError("constraint needs a value")
    return ValueError(f"constraint value must be a scalar, got {type(c['value']).__name__}")
