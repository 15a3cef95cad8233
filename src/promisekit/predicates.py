"""Predicate language for resource promises.

Three closed forms cover the supported resource views:

  Quantity  - N units from a fungible pool ("at least 5 pink widgets")
  Named     - one specific instance, addressed by its identifier
  Property  - N instances matching property constraints; the binding of
              concrete instances is deferred until an action takes them

Each predicate is an immutable value that carries, computed once when
it is built, what the engine reads of it on every request: its demand
`key` (`demand_key`), its `resource_type` and its `amount`, which is 1
for Named. Building one checks nothing.

Validation checks predicate shape against a catalog schema: declared
resource types, declared properties, comparator legality, positive
amounts. It deliberately does not check satisfiability; a predicate can
be well-formed yet impossible to meet.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

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


class PropertyConstraint(NamedTuple):
    property_name: str
    comparator: str
    value: Scalar


def demand_key(form: str, subject, constraints: Optional[tuple] = None) -> tuple:
    """The identity of a demand up to its amount: its form, its resource
    type (a Named demand's instance) and a Property demand's constraints as
    a set, whose values compare as `scalar_eq` does. Predicates with equal
    keys are met by the same instances and merge into one demand.

    Every predicate calls this once, when it is built, and keeps the key."""
    if constraints is None:
        return (form, subject)
    return (form, subject, frozenset([(c.property_name, c.comparator, scalar_key(c.value))
                                      for c in constraints]))


def _field(index: int) -> property:
    return property(itemgetter(index))


_tuple_new = tuple.__new__


# Each form is a tuple of its constructor's arguments followed by what is
# derived from them: its demand `key` and, for Named, its `resource_type`
# and `amount`. A tuple is immutable, as the engine's table, journal and
# expiry heap share predicates, and compares and hashes in C.

class Quantity(tuple):
    """Demand for `amount` interchangeable units of a resource type."""

    __slots__ = ()

    def __new__(cls, resource_type: str, amount: int):
        return _tuple_new(cls, (resource_type, amount, demand_key("quantity", resource_type)))

    resource_type = _field(0)
    amount = _field(1)
    key = _field(2)

    def __getnewargs__(self):
        return self[:2]

    def __repr__(self) -> str:
        return f"Quantity(resource_type={self[0]!r}, amount={self[1]!r})"


class Named(tuple):
    """Demand for one specific instance: one unit of its resource type."""

    __slots__ = ()

    def __new__(cls, instance: InstanceId):
        return _tuple_new(cls, (instance, demand_key("named", instance), instance.resource_type, 1))

    instance = _field(0)
    key = _field(1)
    resource_type = _field(2)
    amount = _field(3)

    def __getnewargs__(self):
        return self[:1]

    def __repr__(self) -> str:
        return f"Named(instance={self[0]!r})"


class Property(tuple):
    """Demand for `amount` distinct instances matching every constraint.
    `constraints` may be any iterable of PropertyConstraint; it is kept as
    a tuple."""

    __slots__ = ()

    def __new__(cls, resource_type: str, constraints, amount: int = 1):
        constraints = tuple(constraints)
        return _tuple_new(cls, (resource_type, constraints, amount,
                                demand_key("property", resource_type, constraints)))

    resource_type = _field(0)
    constraints = _field(1)
    amount = _field(2)
    key = _field(3)

    def __getnewargs__(self):
        return self[:3]

    def __repr__(self) -> str:
        return f"Property(resource_type={self[0]!r}, constraints={self[1]!r}, amount={self[2]!r})"


Predicate = Union[Quantity, Named, Property]


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
    rt = p.resource_type
    if not schema.has_type(rt):
        raise PredicateInvalid("unknown-resource-type", f"resource type {rt!r} is not declared")

    amount = p.amount  # always 1 for Named
    if not isinstance(amount, int) or isinstance(amount, bool) or amount < 1:
        raise PredicateInvalid("non-positive-amount", f"amount must be a positive integer, got {amount!r}")

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


def implies(have: Predicate, need: Predicate, schema: "CatalogSchema") -> bool:
    """Whether every state that meets `have` meets `need`, decided from the
    two predicates and the schema alone: the same Named instance, or a
    Quantity or Property of at least the amount on the same type, whose
    constraints, for a Property, imply each of `need`'s. An `equals` is
    implied only by an `equals` of the same value (`true` is not `1`), an
    `at-least-in-order` by a promised value ranked at or above it."""
    if isinstance(need, Named) or type(have) is not type(need) \
            or have.resource_type != need.resource_type:
        return have == need
    return have.amount >= need.amount and (isinstance(need, Quantity) or all(
        any(_constraint_implies(h, c, schema.property_decl(need.resource_type, c.property_name))
            for h in have.constraints) for c in need.constraints))


def _constraint_implies(have: PropertyConstraint, want: PropertyConstraint, decl) -> bool:
    if have.property_name != want.property_name:
        return False
    if want.comparator == EQUALS:
        return have.comparator == EQUALS and scalar_eq(have.value, want.value)
    wanted = decl.rank(want.value) if decl is not None else -1
    return 0 <= wanted <= decl.rank(have.value)


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
        return Property(rt, constraints, amount)
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
