"""Promise table and promise checking.

Feasibility of a predicate set is decided one resource type at a time.
No demand can draw on another type's supply, so the set is satisfiable
iff each type's share of it is:

  - a pool-backed type iff its Quantity amounts sum to at most the
    quantity on hand (a pool has no instances for the other forms);
  - an instance-backed type iff an integer max-flow from its untaken
    instances to its demands saturates every demand. An edge means that
    supply can legally serve that demand.

The flow problem merges nodes. Identical predicates become one demand
node with their amounts summed. Untaken instances that satisfy the same
Property demands are interchangeable and become one supply node of
capacity k; `satisfies` runs once per Property demand and distinct value
of the properties the type's demands constrain, not once per instance.
An instance a Named demand picks is not interchangeable: it stays a node
of its own, with edges from every Quantity and Property demand it can
also serve.

Checks are scoped by one invariant: the committed active set is
feasible on every type. A grant or exchange then only has to decide the
types its new predicates name, since releasing only removes demand, and
a post-action check only the types the action's catalog mutations
touched. Whole-state checks (`types=None`: the self-check and the
harness invariants) still decide every type, so they catch anything
that breaks the invariant instead of relying on it.

Re-solving from scratch on every check is what makes reallocation
implicit: nothing binds an instance to a particular predicate between
checks, so a newly arrived request can displace a tentative pairing as
long as some complete assignment still exists.

The engine assumes external serialization (it runs inside the manager
pipeline); checks on immutable views are pure and may run anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection, Iterable, Optional, Sequence, Union

from .catalog import (
    STATUS_AVAILABLE,
    STATUS_PROMISED,
    STATUS_TAKEN,
    AvailabilityView,
    ResourceCatalog,
    SetInstanceStatus,
    UnitToken,
)
from .predicates import (
    InstanceId,
    Named,
    Predicate,
    Property,
    Quantity,
    amount_of,
    predicate_to_wire,
    resource_type_of,
    satisfies,
    scalar_key,
)

PROMISE_ACTIVE = "active"
PROMISE_RELEASED = "released"
PROMISE_EXPIRED = "expired"


class UnknownPromiseId(Exception):
    def __init__(self, promise_id: str):
        super().__init__(f"unknown promise id {promise_id!r}")
        self.promise_id = promise_id


@dataclass(frozen=True)
class Rejection:
    """Protocol-level refusal of a grant or exchange. Not an error."""

    reason: str = "unsatisfiable with current promises and availability"


@dataclass(frozen=True)
class PromiseRecord:
    id: str
    predicates: tuple[Predicate, ...]
    granted_at: int
    expires_at: int
    status: str = PROMISE_ACTIVE


# --- feasibility problem ---

@dataclass(frozen=True)
class DemandNode:
    predicate: Predicate
    amount: int


@dataclass(frozen=True)
class SupplyNode:
    key: str       # "inst:<type>/<key>" or "class:<type>/<key>+<k-1>"
    capacity: int  # for a class: k interchangeable instances, named by the first


@dataclass(frozen=True)
class FeasibilityProblem:
    demands: tuple[DemandNode, ...]
    supplies: tuple[SupplyNode, ...]
    edges: tuple[tuple[int, ...], ...]  # per demand, indices into supplies

    @property
    def total_demand(self) -> int:
        return sum(d.amount for d in self.demands)


def _demand_key(p: Predicate):
    """Identity of a demand up to its amount; values compare as `scalar_eq` does."""
    if isinstance(p, Property):
        return ("property", p.resource_type,
                frozenset((c.property_name, c.comparator, scalar_key(c.value))
                          for c in p.constraints))
    if isinstance(p, Named):
        return ("named", p.instance)
    return ("quantity", p.resource_type)


def build_feasibility_problem(predicates: Sequence[Predicate],
                              view: AvailabilityView) -> FeasibilityProblem:
    """Flow problem for `predicates` over the untaken instances of the types they name.

    Instance-backed types only: `check_satisfiable` decides a pool-backed
    type by a sum, so a pool contributes no supply here.
    """
    merged: dict = {}
    for p in predicates:
        slot = merged.setdefault(_demand_key(p), [p, 0])
        slot[1] += amount_of(p)
    demands = tuple(DemandNode(p, n) for p, n in merged.values())
    named = {d.predicate.instance: j for j, d in enumerate(demands)
             if isinstance(d.predicate, Named)}
    of_type: dict[str, list[int]] = {}
    for j, d in enumerate(demands):
        of_type.setdefault(resource_type_of(d.predicate), []).append(j)
    usable: dict[str, list] = {rt: [] for rt in of_type}
    for r in view.instances:  # sorted by id already
        bucket = usable.get(r.id.resource_type)
        if bucket is not None and r.status != STATUS_TAKEN:
            bucket.append(r)

    supplies: list[SupplyNode] = []
    fans: list[list[int]] = [[] for _ in demands]
    for rt in sorted(of_type):
        nodes = []
        props = [(j, demands[j].predicate) for j in of_type[rt]
                 if isinstance(demands[j].predicate, Property)]
        watched = sorted({c.property_name for _, p in props for c in p.constraints})
        signatures: dict = {}  # watched values -> indices of the Property demands met
        groups: dict = {}      # instance id or signature -> [first instance, count, signature]
        for r in usable[rt]:
            values = tuple(scalar_key(r.properties.get(name)) for name in watched)
            sig = signatures.get(values)
            if sig is None:
                sig = signatures[values] = tuple(
                    j for j, p in props if satisfies(r, p, view.schema))
            group = groups.setdefault(r.id if r.id in named else sig, [r, 0, sig])
            group[1] += 1
        for first, count, sig in groups.values():
            i = len(supplies)
            key = f"inst:{first.id}" if count == 1 else f"class:{first.id}+{count - 1}"
            supplies.append(SupplyNode(key, count))
            nodes.append(i)
            for j in sig:
                fans[j].append(i)
            if first.id in named:
                fans[named[first.id]].append(i)
        for j in of_type[rt]:
            if isinstance(demands[j].predicate, Quantity):
                fans[j] = nodes
    return FeasibilityProblem(demands, tuple(supplies), tuple(tuple(f) for f in fans))


class _FlowNet:
    """Dinic max-flow on a small dense-ish graph."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[list[int]]] = [[] for _ in range(n)]  # [to, cap, rev-index]

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append([v, cap, len(self.adj[v])])
        self.adj[v].append([u, 0, len(self.adj[u]) - 1])

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if not pushed:
                    break
                flow += pushed

    def _bfs(self, s: int, t: int):
        level = [-1] * self.n
        level[s] = 0
        queue = [s]
        for u in queue:
            for e in self.adj[u]:
                if e[1] > 0 and level[e[0]] < 0:
                    level[e[0]] = level[u] + 1
                    queue.append(e[0])
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level, it) -> int:
        """Push flow along one s-t path of the level graph; 0 if none is left.

        Depth-first with an explicit stack, so a long augmenting path
        cannot exhaust the interpreter's recursion limit. `it[u]` skips
        the edges of u already found to lead nowhere.
        """
        adj = self.adj
        path: list[list[int]] = []  # edges from s to u
        u = s
        while u != t:
            edges = adj[u]
            while it[u] < len(edges):
                e = edges[it[u]]
                if e[1] > 0 and level[e[0]] == level[u] + 1:
                    path.append(e)
                    u = e[0]
                    break
                it[u] += 1
            else:
                if not path:
                    return 0
                e = path.pop()  # dead end: retreat and skip the edge into u
                u = adj[e[0]][e[2]][0]
                it[u] += 1
        pushed = min(e[1] for e in path)
        for e in path:
            e[1] -= pushed
            adj[e[0]][e[2]][1] += pushed
        return pushed


def solve_feasibility(problem: FeasibilityProblem) -> bool:
    if not problem.demands:
        return True
    if any(not fan and d.amount > 0 for d, fan in zip(problem.demands, problem.edges)):
        return False
    n_sup = len(problem.supplies)
    n_dem = len(problem.demands)
    # node ids: 0 source, 1..n_sup supplies, n_sup+1..n_sup+n_dem demands, last sink
    net = _FlowNet(n_sup + n_dem + 2)
    sink = n_sup + n_dem + 1
    for i, sup in enumerate(problem.supplies):
        if sup.capacity > 0:
            net.add_edge(0, 1 + i, sup.capacity)
    for j, dem in enumerate(problem.demands):
        net.add_edge(n_sup + 1 + j, sink, dem.amount)
        for i in problem.edges[j]:
            net.add_edge(1 + i, n_sup + 1 + j, dem.amount)
    return net.max_flow(0, sink) == problem.total_demand


def check_satisfiable(predicates: Sequence[Predicate], view: AvailabilityView,
                      types: Optional[Collection[str]] = None) -> bool:
    """True iff every predicate can draw its full amount from disjoint supply.

    With `types`, only the predicates of those resource types are
    decided; callers that pass it rely on the others being feasible.
    """
    by_type: dict[str, list[Predicate]] = {}
    for p in predicates:
        rt = resource_type_of(p)
        if types is None or rt in types:
            by_type.setdefault(rt, []).append(p)
    for rt, group in by_type.items():
        if rt in view.pools:
            # a pool has no instances for a Named or Property demand to draw on
            if any(not isinstance(p, Quantity) and amount_of(p) > 0 for p in group):
                return False
            if sum(amount_of(p) for p in group) > view.pools[rt]:
                return False
        elif not solve_feasibility(build_feasibility_problem(group, view)):
            return False
    return True


# --- the engine ---

class PromiseEngine:
    """Promise table plus grant/release/exchange/expiry over a catalog.

    Mutating operations take the active catalog unit token so that the
    instance-status tags they maintain roll back with the rest of the
    request; passing None runs the tag writes in a self-contained unit.
    """

    def __init__(self, catalog: ResourceCatalog):
        self.catalog = catalog
        self.table: dict[str, PromiseRecord] = {}
        self._issued = 0
        self.counters = {"grants": 0, "rejections": 0, "releases": 0, "expiries": 0}

    # --- queries ---

    def record(self, promise_id: str) -> Optional[PromiseRecord]:
        return self.table.get(promise_id)

    def active_records(self, exclude: Iterable[str] = ()) -> list[PromiseRecord]:
        skip = set(exclude)
        return [r for r in self.table.values()
                if r.status == PROMISE_ACTIVE and r.id not in skip]

    def active_predicates(self, exclude: Iterable[str] = ()) -> list[Predicate]:
        preds: list[Predicate] = []
        for rec in self.active_records(exclude):
            preds.extend(rec.predicates)
        return preds

    def snapshot(self) -> dict[str, PromiseRecord]:
        return dict(self.table)

    def restore(self, snapshot: dict[str, PromiseRecord]) -> None:
        self.table = dict(snapshot)

    # --- operations ---

    def grant(self, predicates: Sequence[Predicate], duration: int, now: int,
              unit: Optional[UnitToken] = None) -> Union[PromiseRecord, Rejection]:
        """All-or-nothing: insert a new active record iff the whole active
        set plus the request is satisfiable against current availability."""
        if not predicates:
            raise ValueError("a promise needs at least one predicate")
        if duration <= 0:
            raise ValueError("duration must be positive")
        view = self._view(unit)
        if not check_satisfiable(self.active_predicates() + list(predicates), view,
                                 _types_of(predicates)):
            self.counters["rejections"] += 1
            return Rejection()
        rec = self._insert(tuple(predicates), duration, now, unit)
        return rec

    def release(self, ids: Sequence[str], unit: Optional[UnitToken] = None) -> None:
        """Mark records released; released/expired ids are a no-op."""
        records = []
        for pid in ids:
            rec = self.table.get(pid)
            if rec is None:
                raise UnknownPromiseId(pid)
            records.append(rec)
        for rec in records:
            if rec.status != PROMISE_ACTIVE:
                continue
            self.table[rec.id] = replace(rec, status=PROMISE_RELEASED)
            self._clear_tags(rec, unit)
            self.counters["releases"] += 1

    def exchange(self, predicates: Sequence[Predicate], duration: int,
                 release_ids: Sequence[str], now: int,
                 unit: Optional[UnitToken] = None
                 ) -> Union[PromiseRecord, None, Rejection]:
        """Atomically release `release_ids` while granting `predicates`.

        On rejection nothing changes and the old promises stay in force.
        With an empty predicate list this degenerates to a release and
        returns None.
        """
        release = list(dict.fromkeys(release_ids))
        for pid in release:
            rec = self.table.get(pid)
            if rec is None or rec.status != PROMISE_ACTIVE:
                raise UnknownPromiseId(pid)
        if predicates and duration <= 0:
            raise ValueError("duration must be positive")
        view = self._view(unit)
        candidate = self.active_predicates(exclude=release) + list(predicates)
        if not check_satisfiable(candidate, view, _types_of(predicates)):
            self.counters["rejections"] += 1
            return Rejection()
        self.release(release, unit)
        if not predicates:
            return None
        return self._insert(tuple(predicates), duration, now, unit)

    def expire_sweep(self, now: int, unit: Optional[UnitToken] = None) -> list[str]:
        """Expire every active record with expires_at <= now."""
        expired = []
        for rec in list(self.table.values()):
            if rec.status == PROMISE_ACTIVE and rec.expires_at <= now:
                self.table[rec.id] = replace(rec, status=PROMISE_EXPIRED)
                self._clear_tags(rec, unit)
                self.counters["expiries"] += 1
                expired.append(rec.id)
        return sorted(expired)

    def post_action_check(self, released_ids: Sequence[str], view: AvailabilityView,
                          types: Optional[Collection[str]] = None) -> bool:
        """True iff the remaining active promises survive the action's effects.

        Call with the released ids already provisionally marked; a False
        result tells the pipeline to roll the action back. `types` names
        the resource types the action changed; None checks every type.
        """
        for pid in released_ids:
            rec = self.table.get(pid)
            assert rec is None or rec.status != PROMISE_ACTIVE, \
                "released ids must be marked before the post-action check"
        return check_satisfiable(self.active_predicates(), view, types)

    # --- invariant helpers (used by self-checks, fuzzing and tests) ---

    def named_conflicts(self) -> list[InstanceId]:
        """Instance ids referenced by more than one active promise."""
        seen: dict[InstanceId, int] = {}
        for rec in self.active_records():
            for p in rec.predicates:
                if isinstance(p, Named):
                    seen[p.instance] = seen.get(p.instance, 0) + 1
        return sorted(iid for iid, n in seen.items() if n > 1)

    def pool_overcommit(self, view: AvailabilityView) -> dict[str, tuple[int, int]]:
        """Pure pools where promised quantity exceeds quantity on hand."""
        promised: dict[str, int] = {}
        for p in self.active_predicates():
            if isinstance(p, Quantity) and p.resource_type in view.pools:
                promised[p.resource_type] = promised.get(p.resource_type, 0) + p.amount
        return {rt: (total, view.pools[rt])
                for rt, total in promised.items() if total > view.pools[rt]}

    def dump(self) -> dict:
        """Diagnostic promise-table dump, deterministic field order."""
        rows = []
        for pid in sorted(self.table, key=_id_sort_key):
            rec = self.table[pid]
            rows.append({
                "promise-identifier": rec.id,
                "status": rec.status,
                "granted-at": rec.granted_at,
                "expires-at": rec.expires_at,
                "predicates": [predicate_to_wire(p) for p in rec.predicates],
            })
        return {"promises": rows, "counters": dict(self.counters)}

    # --- internals ---

    def _insert(self, predicates: tuple[Predicate, ...], duration: int, now: int,
                unit: Optional[UnitToken]) -> PromiseRecord:
        self._issued += 1
        rec = PromiseRecord(f"p-{self._issued}", predicates, now, now + duration)
        self.table[rec.id] = rec
        # allocated tag: named instances get marked while the promise lives
        for p in predicates:
            if isinstance(p, Named):
                inst = self.catalog.instance(p.instance)
                if inst is not None and inst.status == STATUS_AVAILABLE:
                    self._set_status(p.instance, STATUS_PROMISED, unit)
        self.counters["grants"] += 1
        return rec

    def _clear_tags(self, rec: PromiseRecord, unit: Optional[UnitToken]) -> None:
        for p in rec.predicates:
            if isinstance(p, Named):
                inst = self.catalog.instance(p.instance)
                if inst is not None and inst.status == STATUS_PROMISED:
                    self._set_status(p.instance, STATUS_AVAILABLE, unit)

    def _set_status(self, iid: InstanceId, status: str, unit: Optional[UnitToken]) -> None:
        if unit is not None:
            self.catalog.apply_mutation(unit, SetInstanceStatus(iid, status))
        else:
            token = self.catalog.begin_unit()
            try:
                self.catalog.apply_mutation(token, SetInstanceStatus(iid, status))
                self.catalog.commit_unit(token)
            except Exception:
                self.catalog.rollback_unit(token)
                raise

    def _view(self, unit: Optional[UnitToken]) -> AvailabilityView:
        return self.catalog.snapshot_availability(unit)


def _types_of(predicates: Iterable[Predicate]) -> set[str]:
    return {resource_type_of(p) for p in predicates}


def _id_sort_key(pid: str):
    head, _, tail = pid.partition("-")
    return (head, int(tail)) if tail.isdigit() else (pid, 0)
