"""Resource manager state: typed pools, named instances, undo-logged units.

Design rules:
  - A resource type is either pool-backed (a bare count) or instance-backed
    (named instances with property values and an availability status), never
    both. For instance-backed types the quantity on hand is derived as the
    number of instances currently available, so there is no second count to
    drift.
  - All mutations run inside a unit; one unit may be active at a time. Every
    applied mutation records a raw inverse entry, and rollback replays the
    inverses newest first, restoring the exact prior state.
  - A mutation that fails validation applies nothing and marks the unit
    aborted: committing is refused until the caller rolls back (fully, or to
    a savepoint taken before the failure).
  - Status moves only along available->promised, promised->taken,
    promised->available, available->taken. Undo bypasses this check because
    it restores recorded prior state.
  - The set of instances is fixed at load: mutations change statuses,
    properties and pool counts, never which instances exist. So each
    type's instances are sorted by id once, and views read them by type.
  - For the engine's kept assignments, the catalog tells per type what
    changed: a property version bumped by every property change and its
    undo, and the set of instances whose status moved to or from taken,
    which the engine drains.
  - Reads go through one live `AvailabilityView` over the catalog's own
    pools and records, which copies nothing. While a unit is open only its
    token may ask for the view, so no caller mistakes pending mutations
    for committed state.

Catalog documents are JSON; the exact field names are fixed in
docs/file-formats.md and `dump_state` emits the same shape `load_catalog`
accepts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import AbstractSet, Iterable, Mapping, Optional, Union

from .predicates import InstanceId, Scalar, scalar_eq, scalar_key

STATUS_AVAILABLE = "available"
STATUS_PROMISED = "promised"
STATUS_TAKEN = "taken"
INSTANCE_STATUSES = (STATUS_AVAILABLE, STATUS_PROMISED, STATUS_TAKEN)

_NO_MOVES: AbstractSet = frozenset()

LEGAL_TRANSITIONS = {
    (STATUS_AVAILABLE, STATUS_PROMISED),
    (STATUS_PROMISED, STATUS_TAKEN),
    (STATUS_PROMISED, STATUS_AVAILABLE),
    (STATUS_AVAILABLE, STATUS_TAKEN),
}


class CatalogError(Exception):
    """Catalog failure with a stable code.

    Codes: parse-error, schema-violation, pool-underflow,
    illegal-status-transition, unknown-resource, unit-error.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class PropertyDecl:
    name: str
    domain: Optional[tuple[Scalar, ...]] = None  # None = open domain
    order: Optional[tuple[Scalar, ...]] = None   # total order; doubles as domain
    _ranks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ranks = {scalar_key(v): i for i, v in enumerate(self.order or ())}
        object.__setattr__(self, "_ranks", ranks)

    def allows(self, value: Scalar) -> bool:
        allowed = self.order if self.order is not None else self.domain
        if allowed is None:
            return isinstance(value, (str, int, bool))
        return any(scalar_eq(v, value) for v in allowed)

    def rank(self, value: Scalar) -> int:
        """Position of `value` in the declared order, -1 if absent or unordered."""
        return self._ranks.get(scalar_key(value), -1)


@dataclass(frozen=True)
class ResourceTypeDecl:
    name: str
    pool_backed: bool
    properties: Mapping[str, PropertyDecl] = field(default_factory=dict)


class CatalogSchema:
    """Declared resource types, their properties and property orders."""

    def __init__(self, types: Mapping[str, ResourceTypeDecl]):
        self.types = dict(types)

    def has_type(self, name: str) -> bool:
        return name in self.types

    def property_decl(self, resource_type: str, prop: str) -> Optional[PropertyDecl]:
        decl = self.types.get(resource_type)
        if decl is None:
            return None
        return decl.properties.get(prop)


@dataclass
class InstanceRecord:
    id: InstanceId
    properties: dict[str, Scalar]
    status: str = STATUS_AVAILABLE


class AvailabilityView:
    """Availability: pool counts plus instance records, indexed by type.

    The view holds the pool dict and the instance objects it is given and
    copies neither. Built from copies it is a fixed snapshot; built over a
    catalog's own pools and records it is live, and every read sees the
    mutations applied so far. Callers only read through it.
    """

    def __init__(self, schema: CatalogSchema, pools: dict[str, int], instances: Iterable[InstanceRecord]):
        self.schema = schema
        self.pools = pools
        by_type: dict[str, list] = {}
        for r in sorted(instances, key=lambda r: r.id):
            by_type.setdefault(r.id.resource_type, []).append(r)
        self._by_type = {rt: tuple(rs) for rt, rs in by_type.items()}
        self._by_id = {r.id: r for rs in self._by_type.values() for r in rs}

    @property
    def instances(self) -> tuple[InstanceRecord, ...]:
        """Every instance, sorted by id."""
        return tuple(r for rt in sorted(self._by_type) for r in self._by_type[rt])

    def instance(self, iid: InstanceId) -> Optional[InstanceRecord]:
        return self._by_id.get(iid)

    def instances_of(self, resource_type: str) -> tuple[InstanceRecord, ...]:
        """The instances of one type, sorted by id."""
        return self._by_type.get(resource_type, ())

    def quantity_on_hand(self, resource_type: str) -> int:
        if resource_type in self.pools:
            return self.pools[resource_type]
        return sum(1 for r in self.instances_of(resource_type) if r.status == STATUS_AVAILABLE)


# --- mutations ---

@dataclass(frozen=True)
class DecrementPool:
    resource_type: str
    amount: int  # negative restocks


@dataclass(frozen=True)
class SetInstanceStatus:
    instance: InstanceId
    status: str


@dataclass(frozen=True)
class SetProperty:
    instance: InstanceId
    property_name: str
    value: Scalar


Mutation = Union[DecrementPool, SetInstanceStatus, SetProperty]


class UnitToken:
    """Handle for one mutation unit. Not reusable after commit/rollback."""

    __slots__ = ("log", "active", "aborted")

    def __init__(self):
        self.log: list[tuple] = []  # raw inverse entries, append order
        self.active = True
        self.aborted = False


class ResourceCatalog:
    """In-process resource manager with exact-inverse rollback.

    Single-writer: units are meant to be serialized by the caller; one unit
    may be active at a time. The view is live and is read under the same
    serialization.
    """

    def __init__(self, schema: CatalogSchema,
                 pools: Mapping[str, int],
                 instances: Iterable[InstanceRecord]):
        self.schema = schema
        self._pools: dict[str, int] = dict(pools)
        self._instances: dict[InstanceId, InstanceRecord] = {}
        for rec in instances:
            self._instances[rec.id] = rec
        self._live = AvailabilityView(schema, self._pools, self._instances.values())
        self._unit: Optional[UnitToken] = None
        self._property_changes: dict[str, int] = {}  # per type, bumped by every SetProperty and its undo
        self._taken_moves: dict[str, set[InstanceId]] = {}  # per type, see `taken_moves`

    # --- units ---

    def begin_unit(self) -> UnitToken:
        if self._unit is not None:
            raise CatalogError("unit-error", "a unit is already active")
        self._unit = UnitToken()
        return self._unit

    def apply_mutation(self, token: UnitToken, m: Mutation) -> None:
        self._require_active(token)
        if token.aborted:
            raise CatalogError("unit-error", "unit is aborted; roll back before continuing")
        try:
            self._validate_mutation(m)
        except CatalogError:
            token.aborted = True
            raise
        token.log.append(self._apply(m))

    def savepoint(self, token: UnitToken) -> int:
        self._require_active(token)
        return len(token.log)

    def touched_types(self, token: UnitToken, mark: int) -> set[str]:
        """Resource types changed by the mutations applied after `mark`."""
        self._require_active(token)
        return {entry[1] if entry[0] == "pool" else entry[1].resource_type
                for entry in token.log[mark:]}

    def rollback_to(self, token: UnitToken, mark: int) -> None:
        """Undo everything applied after `mark`; clears an aborted flag."""
        self._require_active(token)
        while len(token.log) > mark:
            self._undo(token.log.pop())
        token.aborted = False

    def commit_unit(self, token: UnitToken) -> None:
        self._require_active(token)
        if token.aborted:
            raise CatalogError("unit-error", "unit is aborted and cannot commit")
        token.log.clear()
        token.active = False
        self._unit = None

    def rollback_unit(self, token: UnitToken) -> None:
        if not token.active:
            return  # already finalized; rollback is idempotent
        while token.log:
            self._undo(token.log.pop())
        token.active = False
        token.aborted = False
        self._unit = None

    def _require_active(self, token: UnitToken) -> None:
        if token is not self._unit or not token.active:
            raise CatalogError("unit-error", "token does not name the active unit")

    # --- mutation mechanics ---

    def _validate_mutation(self, m: Mutation) -> None:
        if isinstance(m, DecrementPool):
            if m.resource_type not in self._pools:
                raise CatalogError("unknown-resource",
                                   f"{m.resource_type!r} is not a pool-backed resource type")
            if self._pools[m.resource_type] - m.amount < 0:
                raise CatalogError("pool-underflow",
                                   f"{m.resource_type!r}: cannot remove {m.amount} of "
                                   f"{self._pools[m.resource_type]}")
        elif isinstance(m, SetInstanceStatus):
            rec = self._instances.get(m.instance)
            if rec is None:
                raise CatalogError("unknown-resource", f"no instance {m.instance}")
            if m.status not in INSTANCE_STATUSES:
                raise CatalogError("illegal-status-transition", f"unknown status {m.status!r}")
            if (rec.status, m.status) not in LEGAL_TRANSITIONS:
                raise CatalogError("illegal-status-transition",
                                   f"{m.instance}: {rec.status} -> {m.status} is not allowed")
        elif isinstance(m, SetProperty):
            rec = self._instances.get(m.instance)
            if rec is None:
                raise CatalogError("unknown-resource", f"no instance {m.instance}")
            decl = self.schema.property_decl(m.instance.resource_type, m.property_name)
            if decl is None:
                raise CatalogError("schema-violation",
                                   f"property {m.property_name!r} is not declared for "
                                   f"{m.instance.resource_type!r}")
            if not decl.allows(m.value):
                raise CatalogError("schema-violation",
                                   f"{m.value!r} is outside the domain of {m.property_name!r}")
        else:
            raise CatalogError("unit-error", f"unknown mutation {m!r}")

    def _apply(self, m: Mutation) -> tuple:
        if isinstance(m, DecrementPool):
            old = self._pools[m.resource_type]
            self._pools[m.resource_type] = old - m.amount
            return ("pool", m.resource_type, old)
        if isinstance(m, SetInstanceStatus):
            rec = self._instances[m.instance]
            old = rec.status
            rec.status = m.status
            if STATUS_TAKEN in (old, m.status):
                self._note_taken_move(m.instance)
            return ("status", m.instance, old)
        rec = self._instances[m.instance]
        old = rec.properties[m.property_name]
        rec.properties[m.property_name] = m.value
        self._bump_properties(m.instance.resource_type)
        return ("prop", m.instance, m.property_name, old)

    def _undo(self, entry: tuple) -> None:
        kind = entry[0]
        if kind == "pool":
            self._pools[entry[1]] = entry[2]
        elif kind == "status":
            rec = self._instances[entry[1]]
            if STATUS_TAKEN in (rec.status, entry[2]):
                self._note_taken_move(entry[1])
            rec.status = entry[2]
        else:
            self._instances[entry[1]].properties[entry[2]] = entry[3]
            self._bump_properties(entry[1].resource_type)

    def _note_taken_move(self, iid: InstanceId) -> None:
        moved = self._taken_moves.get(iid.resource_type)
        if moved is None:
            moved = self._taken_moves[iid.resource_type] = set()
        moved.add(iid)

    def taken_moves(self, resource_type: str) -> AbstractSet[InstanceId]:
        """The type's instances whose status moved to or from taken, by a
        mutation or its undo, since `drain_taken_moves` last returned them.
        At most one entry per instance, however often it moved."""
        return self._taken_moves.get(resource_type, _NO_MOVES)

    def drain_taken_moves(self, resource_type: str) -> AbstractSet[InstanceId]:
        """`taken_moves`, which then starts empty again."""
        return self._taken_moves.pop(resource_type, _NO_MOVES)

    def _bump_properties(self, resource_type: str) -> None:
        self._property_changes[resource_type] = self._property_changes.get(resource_type, 0) + 1

    def property_version(self, resource_type: str) -> int:
        """A counter that changes whenever a property of the type's instances
        is set or rolled back, so that what was derived from them can tell
        it is stale."""
        return self._property_changes.get(resource_type, 0)

    # --- views ---

    def snapshot_availability(self, token: Optional[UnitToken] = None) -> AvailabilityView:
        """The live availability view.

        It copies and sorts nothing, and it is not a snapshot: each read
        sees the mutations applied by then, so a caller that needs the state
        as it was must read before mutating.

        While a unit is open, only its token may ask for the view. With no
        token, the view would show the unit's pending mutations as if they
        were committed, so the request raises `unit-error`.
        """
        if token is not None:
            self._require_active(token)
        elif self._unit is not None:
            raise CatalogError("unit-error", "a unit is open; pass its token to read its state")
        return self._live

    def quantity_on_hand(self, resource_type: str) -> int:
        return self._live.quantity_on_hand(resource_type)

    def instance(self, iid: InstanceId) -> Optional[InstanceRecord]:
        return self._instances.get(iid)

    # --- persistence ---

    def dump_state(self) -> dict:
        """Document in the load format reflecting current state.

        Full fidelity: promised tags appear as-is so state digests are
        exact. Such a dump only re-loads once no instance is promised;
        promised is derived state owned by a live promise table.
        """
        out = []
        for name in sorted(self.schema.types):
            decl = self.schema.types[name]
            if decl.pool_backed:
                out.append({"name": name, "pool": self._pools[name]})
                continue
            props = []
            for pname in sorted(decl.properties):
                pdecl = decl.properties[pname]
                entry: dict = {"name": pname}
                if pdecl.order is not None:
                    entry["order"] = list(pdecl.order)
                elif pdecl.domain is not None:
                    entry["domain"] = list(pdecl.domain)
                props.append(entry)
            instances = []
            for rec in self._live.instances_of(name):
                instances.append({
                    "key": rec.id.key,
                    "properties": {k: rec.properties[k] for k in sorted(rec.properties)},
                    "status": rec.status,
                })
            out.append({"name": name, "properties": props, "instances": instances})
        return {"resource-types": out}

    def state_digest(self) -> str:
        return digest_document(self.dump_state())


def digest_document(doc) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# --- loading ---

def load_catalog(document) -> ResourceCatalog:
    """Build a catalog from a parsed document.

    Raises CatalogError with code parse-error for structural problems and
    schema-violation for domain problems.
    """
    if not isinstance(document, dict):
        raise CatalogError("parse-error", "catalog document must be an object")
    entries = document.get("resource-types", [])
    if not isinstance(entries, list):
        raise CatalogError("parse-error", "resource-types must be a list")

    types: dict[str, ResourceTypeDecl] = {}
    pools: dict[str, int] = {}
    instances: list[InstanceRecord] = []

    for entry in entries:
        if not isinstance(entry, dict):
            raise CatalogError("parse-error", "resource type entry must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise CatalogError("parse-error", "resource type needs a non-empty name")
        if name in types:
            raise CatalogError("schema-violation", f"duplicate resource type {name!r}")

        has_pool = "pool" in entry
        has_instances = "instances" in entry or "properties" in entry
        if has_pool and has_instances:
            raise CatalogError("schema-violation",
                               f"{name!r} declares both a pool count and instances; "
                               "instance-backed counts are derived")
        if not has_pool and not has_instances:
            raise CatalogError("parse-error", f"{name!r} declares neither a pool nor instances")

        if has_pool:
            count = entry["pool"]
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise CatalogError("schema-violation", f"pool count for {name!r} must be a non-negative integer")
            types[name] = ResourceTypeDecl(name, pool_backed=True)
            pools[name] = count
            continue

        prop_decls = _parse_properties(name, entry.get("properties", []))
        types[name] = ResourceTypeDecl(name, pool_backed=False, properties=prop_decls)
        seen_keys: set[str] = set()
        raw_instances = entry.get("instances", [])
        if not isinstance(raw_instances, list):
            raise CatalogError("parse-error", f"instances of {name!r} must be a list")
        for raw in raw_instances:
            instances.append(_parse_instance(name, raw, prop_decls, seen_keys))

    return ResourceCatalog(CatalogSchema(types), pools, instances)


def _parse_properties(type_name: str, raw) -> dict[str, PropertyDecl]:
    if not isinstance(raw, list):
        raise CatalogError("parse-error", f"properties of {type_name!r} must be a list")
    decls: dict[str, PropertyDecl] = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise CatalogError("parse-error", "property declaration must be an object")
        pname = entry.get("name")
        if not isinstance(pname, str) or not pname:
            raise CatalogError("parse-error", "property declaration needs a non-empty name")
        if pname in decls:
            raise CatalogError("schema-violation", f"duplicate property {pname!r} on {type_name!r}")
        if "order" in entry and "domain" in entry:
            raise CatalogError("schema-violation",
                               f"{pname!r} gives both order and domain; an order is its own domain")
        order = domain = None
        if "order" in entry:
            order = _parse_scalars(pname, entry["order"])
            if len(set(map(scalar_key, order))) != len(order):
                raise CatalogError("schema-violation", f"order of {pname!r} repeats a value")
            if not order:
                raise CatalogError("schema-violation", f"order of {pname!r} is empty")
        elif "domain" in entry:
            domain = _parse_scalars(pname, entry["domain"])
        decls[pname] = PropertyDecl(pname, domain=domain, order=order)
    return decls


def _parse_instance(type_name: str, raw, decls: dict[str, PropertyDecl],
                    seen_keys: set[str]) -> InstanceRecord:
    if not isinstance(raw, dict):
        raise CatalogError("parse-error", "instance must be an object")
    key = raw.get("key")
    if not isinstance(key, str) or not key:
        raise CatalogError("parse-error", f"instance of {type_name!r} needs a non-empty key")
    if key in seen_keys:
        raise CatalogError("schema-violation", f"duplicate instance key {key!r} in {type_name!r}")
    seen_keys.add(key)

    props = raw.get("properties", {})
    if not isinstance(props, dict):
        raise CatalogError("parse-error", f"properties of instance {key!r} must be an object")
    for pname, value in props.items():
        decl = decls.get(pname)
        if decl is None:
            raise CatalogError("schema-violation",
                               f"instance {key!r} sets undeclared property {pname!r}")
        if not isinstance(value, (str, int, bool)):
            raise CatalogError("schema-violation",
                               f"property {pname!r} of {key!r} must be a scalar")
        if not decl.allows(value):
            raise CatalogError("schema-violation",
                               f"property {pname!r} of {key!r}: {value!r} outside declared domain")
    missing = set(decls) - set(props)
    if missing:
        raise CatalogError("schema-violation",
                           f"instance {key!r} is missing declared properties {sorted(missing)}")

    status = raw.get("status", STATUS_AVAILABLE)
    if status not in (STATUS_AVAILABLE, STATUS_TAKEN):
        # 'promised' is derived from the promise table, never loaded
        raise CatalogError("schema-violation",
                           f"instance {key!r}: initial status must be available or taken")
    return InstanceRecord(InstanceId(type_name, key), dict(props), status)


def _parse_scalars(pname: str, raw) -> tuple[Scalar, ...]:
    if not isinstance(raw, list):
        raise CatalogError("parse-error", f"values of {pname!r} must be a list")
    for v in raw:
        if not isinstance(v, (str, int, bool)):
            raise CatalogError("schema-violation", f"{pname!r} lists a non-scalar value {v!r}")
    return tuple(raw)


def load_catalog_text(text: str) -> ResourceCatalog:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError("parse-error", f"not valid JSON: {exc}") from exc
    return load_catalog(doc)


def load_catalog_file(path) -> ResourceCatalog:
    with open(path, "r", encoding="utf-8") as fh:
        return load_catalog_text(fh.read())
