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
  - A unit's token is live exactly while it is the open unit: every unit
    operation tests that one identity, and refuses a token from a unit
    that has committed or rolled back, even while a later unit is open.
  - A mutation that fails validation applies nothing and marks the unit
    aborted: committing is refused until the caller rolls back (fully, or to
    a savepoint taken before the failure).
  - Status moves only along available->promised, promised->taken,
    promised->available, available->taken. Undo bypasses this check because
    it restores recorded prior state.
  - The set of instances is fixed at load: mutations change statuses,
    properties and pool counts, never which instances exist. So each
    type's instances are sorted by id once, and reads take them by type.
  - For the engine's kept assignments, the catalog keeps one record per
    type of the instances that moved: a status move to or from taken, a
    property set, and the undo of either. Each moved instance is noted
    once, flagged if a property of it was set, and the engine drains the
    record.
  - The catalog is its own read view: `pools`, `instances_of` and
    `instance` read the current state, and nothing is copied. While a unit
    is open only its token may ask for that view (`snapshot_availability`),
    so no caller mistakes pending mutations for committed state.

Catalog documents are JSON; the exact field names are fixed in
docs/file-formats.md and `dump_state` emits the same shape `load_catalog`
accepts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Container, Iterable, Mapping, Optional, Union

from .predicates import InstanceId, Scalar, scalar_key

# the interpreter's own SHA-256 (`_sha2` since 3.12, `_sha256` before), so a
# digest loads no OpenSSL; hashlib only where neither module is built
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

STATUS_AVAILABLE = "available"
STATUS_PROMISED = "promised"
STATUS_TAKEN = "taken"
INSTANCE_STATUSES = (STATUS_AVAILABLE, STATUS_PROMISED, STATUS_TAKEN)

_NO_MOVES: Mapping = MappingProxyType({})

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
    _allowed: Optional[Container] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ranks = {scalar_key(v): i for i, v in enumerate(self.order or ())}
        object.__setattr__(self, "_ranks", ranks)
        # the allowed values, looked up by scalar key; None for an open domain
        if self.order is not None:
            allowed = ranks
        elif self.domain is not None:
            allowed = frozenset(map(scalar_key, self.domain))
        else:
            allowed = None
        object.__setattr__(self, "_allowed", allowed)

    def allows(self, value: Scalar) -> bool:
        # a float is no scalar, even one equal to an allowed int: a catalog
        # document cannot hold it, so `dump_state` could not be loaded back
        if not isinstance(value, (str, int, bool)):
            return False
        return self._allowed is None or scalar_key(value) in self._allowed

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


# --- mutations ---

@dataclass(slots=True)
class DecrementPool:
    resource_type: str
    amount: int  # negative restocks


@dataclass(slots=True)
class SetInstanceStatus:
    instance: InstanceId
    status: str


@dataclass(slots=True)
class SetProperty:
    instance: InstanceId
    property_name: str
    value: Scalar


Mutation = Union[DecrementPool, SetInstanceStatus, SetProperty]


class UnitToken:
    """Handle for one mutation unit. Live while it is the catalog's open
    unit; dead once that unit commits or rolls back."""

    __slots__ = ("log", "aborted")

    def __init__(self):
        self.log: list[tuple] = []  # raw inverse entries, append order
        self.aborted = False


def _dead_token():
    raise CatalogError("unit-error", "token does not name the active unit")


class ResourceCatalog:
    """In-process resource manager with exact-inverse rollback.

    Single-writer: units are meant to be serialized by the caller; one unit
    may be active at a time. Reads see the current state and are made
    under the same serialization.

    It holds the instance records it is given and copies none of them.
    """

    def __init__(self, schema: CatalogSchema,
                 pools: Mapping[str, int],
                 instances: Iterable[InstanceRecord]):
        self.schema = schema
        self.pools: dict[str, int] = dict(pools)
        by_type: dict[str, list] = {}
        for rec in sorted(instances, key=lambda r: r.id):
            by_type.setdefault(rec.id.resource_type, []).append(rec)
        self._by_type = {rt: tuple(rs) for rt, rs in by_type.items()}
        self._instances = {r.id: r for rs in self._by_type.values() for r in rs}
        self._unit: Optional[UnitToken] = None
        self._moves: dict[str, dict[InstanceId, bool]] = {}  # per type, see `moves`

    # --- units ---

    def begin_unit(self) -> UnitToken:
        if self._unit is not None:
            raise CatalogError("unit-error", "a unit is already active")
        self._unit = UnitToken()
        return self._unit

    def apply_mutation(self, token: UnitToken, m: Mutation) -> None:
        """Validate `m`, then apply it and log its inverse. A refused
        mutation applies nothing and marks the unit aborted."""
        if token is not self._unit:
            _dead_token()
        if token.aborted:
            raise CatalogError("unit-error", "unit is aborted; roll back before continuing")
        try:
            if isinstance(m, SetInstanceStatus):
                rec = self._instances.get(m.instance)
                if rec is None:
                    raise CatalogError("unknown-resource", f"no instance {m.instance}")
                old = rec.status
                if (old, m.status) not in LEGAL_TRANSITIONS:
                    raise CatalogError("illegal-status-transition",
                                       f"unknown status {m.status!r}"
                                       if m.status not in INSTANCE_STATUSES
                                       else f"{m.instance}: {old} -> {m.status} is not allowed")
                rec.status = m.status
                if old == STATUS_TAKEN or m.status == STATUS_TAKEN:
                    self._note_move(m.instance, False)
                token.log.append(("status", m.instance, old))
            elif isinstance(m, DecrementPool):
                old = self.pools.get(m.resource_type)
                if old is None:
                    raise CatalogError("unknown-resource",
                                       f"{m.resource_type!r} is not a pool-backed resource type")
                if old - m.amount < 0:
                    raise CatalogError("pool-underflow",
                                       f"{m.resource_type!r}: cannot remove {m.amount} of {old}")
                self.pools[m.resource_type] = old - m.amount
                token.log.append(("pool", m.resource_type, old))
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
                old = rec.properties[m.property_name]
                rec.properties[m.property_name] = m.value
                self._note_move(m.instance, True)
                token.log.append(("prop", m.instance, m.property_name, old))
            else:
                raise CatalogError("unit-error", f"unknown mutation {m!r}")
        except CatalogError:
            token.aborted = True
            raise

    def savepoint(self, token: UnitToken) -> int:
        if token is not self._unit:
            _dead_token()
        return len(token.log)

    def supply_cut_types(self, token: UnitToken, mark: int) -> set[str]:
        """Resource types whose supply the mutations applied after `mark`
        may have cut: a pool that now holds less than it did at `mark`, an
        instance moved to taken, or a property change. A restock, or a
        promise tag moving between available and promised, cuts nothing,
        and neither does a unit that logged nothing after `mark`."""
        if token is not self._unit:
            _dead_token()
        cut: set[str] = set()
        if len(token.log) == mark:
            return cut
        pools_at_mark: dict[str, int] = {}
        # backwards, so a pool's first entry after `mark`, which holds its
        # value at `mark`, is the one left in pools_at_mark
        for entry in reversed(token.log[mark:]):
            if entry[0] == "pool":
                pools_at_mark[entry[1]] = entry[2]
            elif entry[0] == "prop" or self._instances[entry[1]].status == STATUS_TAKEN:
                # taken is final, so an instance taken now was moved there
                cut.add(entry[1].resource_type)
        for rt, held in pools_at_mark.items():
            if self.pools[rt] < held:
                cut.add(rt)
        return cut

    def rollback_to(self, token: UnitToken, mark: int) -> None:
        """Undo everything applied after `mark`; clears an aborted flag."""
        if token is not self._unit:
            _dead_token()
        while len(token.log) > mark:
            self._undo(token.log.pop())
        token.aborted = False

    def commit_unit(self, token: UnitToken) -> None:
        if token is not self._unit:
            _dead_token()
        if token.aborted:
            raise CatalogError("unit-error", "unit is aborted and cannot commit")
        self._unit = None

    def rollback_unit(self, token: UnitToken) -> None:
        """Undo the whole unit. A token that is no longer live is a no-op,
        so rolling back is idempotent."""
        if token is not self._unit:
            return
        while token.log:
            self._undo(token.log.pop())
        self._unit = None

    # --- mutation mechanics ---

    def _undo(self, entry: tuple) -> None:
        kind = entry[0]
        if kind == "pool":
            self.pools[entry[1]] = entry[2]
        elif kind == "status":
            rec = self._instances[entry[1]]
            if STATUS_TAKEN in (rec.status, entry[2]):
                self._note_move(entry[1], False)
            rec.status = entry[2]
        else:
            self._instances[entry[1]].properties[entry[2]] = entry[3]
            self._note_move(entry[1], True)

    def _note_move(self, iid: InstanceId, property_set: bool) -> None:
        moved = self._moves.get(iid.resource_type)
        if moved is None:
            moved = self._moves[iid.resource_type] = {}
        moved[iid] = property_set or moved.get(iid, False)

    def moves(self, resource_type: str) -> Mapping[InstanceId, bool]:
        """The type's instances that moved since `drain_moves` last returned
        them: whose status moved to or from taken, or a property of which
        was set, by a mutation or its undo. Each maps to whether a property
        of it was set; one entry per instance, however often it moved."""
        return self._moves.get(resource_type, _NO_MOVES)

    def drain_moves(self, resource_type: str) -> Mapping[InstanceId, bool]:
        """`moves`, which then starts empty again."""
        return self._moves.pop(resource_type, _NO_MOVES)

    # --- reads ---

    def snapshot_availability(self, token: Optional[UnitToken] = None) -> ResourceCatalog:
        """The catalog itself, which callers read availability from.

        It copies and sorts nothing, and it is not a snapshot: each read
        sees the mutations applied by then, so a caller that needs the state
        as it was must read before mutating.

        While a unit is open, only its token may ask for the view. With no
        token, the view would show the unit's pending mutations as if they
        were committed, so the request raises `unit-error`.
        """
        if token is not None:
            if token is not self._unit:
                _dead_token()
        elif self._unit is not None:
            raise CatalogError("unit-error", "a unit is open; pass its token to read its state")
        return self

    @property
    def instances(self) -> tuple[InstanceRecord, ...]:
        """Every instance, sorted by id."""
        return tuple(r for rt in sorted(self._by_type) for r in self._by_type[rt])

    def instances_of(self, resource_type: str) -> tuple[InstanceRecord, ...]:
        """The instances of one type, sorted by id."""
        return self._by_type.get(resource_type, ())

    def instance(self, iid: InstanceId) -> Optional[InstanceRecord]:
        return self._instances.get(iid)

    def quantity_on_hand(self, resource_type: str) -> int:
        if resource_type in self.pools:
            return self.pools[resource_type]
        return sum(1 for r in self.instances_of(resource_type) if r.status == STATUS_AVAILABLE)

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
                out.append({"name": name, "pool": self.pools[name]})
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
            for rec in self.instances_of(name):
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
    return sha256(blob).hexdigest()


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
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise CatalogError("parse-error", f"not valid JSON: {exc}") from exc
    return load_catalog(doc)


def load_catalog_file(path) -> ResourceCatalog:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CatalogError("parse-error", f"not UTF-8 text: {exc}") from exc
    return load_catalog_text(text)
