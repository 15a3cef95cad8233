"""Promise table and promise checking.

Feasibility of a predicate set is decided one resource type at a time.
No demand can draw on another type's supply, so the set is satisfiable
iff each type's share of it is:

  - a pool-backed type iff its Quantity amounts sum to at most the
    quantity on hand (a pool has no instances for the other forms);
  - an instance-backed type iff its demand units can be assigned to
    distinct untaken instances that each meet the demand they serve.

Identical predicates merge into one demand (`_demand_key`) with their
amounts summed. The engine indexes the merged demands of the active
promises by type, so a check reads one type's demands, not the whole
active set.

Checks are scoped by one invariant: the committed active set is
feasible on every type. A grant or exchange then only has to decide the
types its new predicates name, since releasing only removes demand, and
a post-action check only the types the action's catalog mutations
touched.

Instance-backed types are decided by allocation. The engine keeps, per
type, the assignment of demand units to instances that its last check
found, and a check repairs it rather than solving from scratch:

  - it drops every pair that is no longer valid: its demand is gone or
    over-assigned, its instance is taken, or its instance no longer
    meets the demand;
  - it fills each demand's deficit one unit at a time by a breadth-first
    augmenting path over the residual graph (the augmenting step of
    Hopcroft and Karp). A path may move units held by other demands onto
    other instances, so reallocation happens along these paths: a new
    request can displace an earlier pairing as long as a complete
    assignment still exists. If some unit has no augmenting path, none
    exists (Berge), and the answer is infeasible.

The kept assignment is only a hint. Nothing trusts it until the repair
has checked it again, so rolling an envelope back needs no journal of
it: a stale pair is dropped the next time the type is checked. Which
instances meet a Property demand is cached until the catalog reports
that a property of that type changed.

A type's first check has no assignment to repair. It builds a flow
problem (`build_feasibility_problem`) and solves it by Dinic max-flow
(`solve_feasibility`); the kept assignment starts empty, and the next
check fills it by augmenting paths. The flow problem merges nodes: untaken instances that satisfy the same
Property demands are interchangeable and become one supply node of
capacity k, and `satisfies` runs once per Property demand and distinct
value of the properties the type's demands constrain. An instance a
Named demand picks stays a node of its own, with edges from every
Quantity and Property demand it can also serve. Whole-state checks
(`check_satisfiable` with `types=None`: the self-check and the harness
invariants) always take this path, so they decide every type
independently of the kept assignments and catch anything that breaks
the invariant instead of relying on it. `index_problems` also reports a
kept assignment marked current that is not a complete assignment.

The promise table keeps per-envelope work independent of history:

  - `table` holds every record ever issued, released and expired ones
    included, because `dump`, `record()` and the digests report them;
  - `active` indexes the active records by id, and every check, conflict
    count and overcommit test reads it or the demand index alone;
  - a heap of (expires_at, issue order, id) lets the sweep pop only the
    due records. A record that leaves early keeps its entry until the
    sweep pops it or the heap, grown past twice the active set, is
    rebuilt from `active`;
  - every table write made under a catalog unit is journaled as (id,
    previous record). `snapshot` is the journal's length and `restore`
    undoes the writes after it, so rolling back costs what the envelope
    changed, not the table's size. The pipeline clears the journal
    (`commit`) once the unit commits.

The engine assumes external serialization (it runs inside the manager
pipeline). `check_satisfiable` is pure, and a copied view may be read
anywhere.
"""

from __future__ import annotations

import heapq
from itertools import chain
from dataclasses import dataclass, replace
from typing import Collection, Iterable, Optional, Sequence, Union

from .catalog import (
    STATUS_AVAILABLE,
    STATUS_PROMISED,
    STATUS_TAKEN,
    AvailabilityView,
    InstanceView,
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


def _group_by_values(instances: Sequence[InstanceView],
                    names: tuple[str, ...]) -> dict[tuple, list[int]]:
    """Positions in `instances` grouped by their values (as `scalar_key`)
    of the properties `names`, groups in order of first appearance.

    Instances in one group meet exactly the same Property demands that
    constrain only those properties, so `satisfies` need run once per group.
    """
    groups: dict[tuple, list[int]] = {}
    for pos, r in enumerate(instances):
        groups.setdefault(tuple(scalar_key(r.properties.get(n)) for n in names), []).append(pos)
    return groups


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
    usable = {rt: [r for r in view.instances_of(rt) if r.status != STATUS_TAKEN]
              for rt in of_type}

    supplies: list[SupplyNode] = []
    fans: list[list[int]] = [[] for _ in demands]
    for rt in sorted(of_type):
        nodes = []
        props = [(j, demands[j].predicate) for j in of_type[rt]
                 if isinstance(demands[j].predicate, Property)]
        watched = tuple(sorted({c.property_name for _, p in props for c in p.constraints}))
        rs = usable[rt]
        met = [()] * len(rs)  # per instance, indices of the Property demands it meets
        for members in _group_by_values(rs, watched).values():
            sig = tuple(j for j, p in props if satisfies(rs[members[0]], p, view.schema))
            for pos in members:
                met[pos] = sig
        groups: dict = {}  # instance id or signature -> [first instance, count, signature]
        for r, sig in zip(rs, met):
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

class _TypeState:
    """What the engine keeps about one resource type's active promises.

    An instance-backed type's instances are named by their position in
    the view's `instances_of`, which is fixed at load.
    """

    __slots__ = ("demands", "version", "position", "pairs", "certified", "eligible",
                 "groups", "eligible_at")

    def __init__(self):
        self.demands: dict = {}  # _demand_key -> [first predicate, merged amount]
        self.version = 0         # bumped whenever `demands` changes
        self.position: dict[InstanceId, int] = {}  # the type's instances, by id
        # the kept assignment, instance position -> demand key, for an
        # instance-backed type once it has been decided; a hint, re-validated
        # before every use
        self.pairs: Optional[dict] = None
        self.certified: Optional[tuple] = None  # (version, property version) it was complete at
        self.eligible: dict = {}  # demand key -> (positions in order, the same as a set)
        # property names -> {their values: positions of the instances that have them}
        self.groups: dict = {}
        self.eligible_at = -1     # the catalog property version the two above hold for


class PromiseEngine:
    """Promise table plus grant/release/exchange/expiry over a catalog.

    Mutating operations take the active catalog unit token so that the
    instance-status tags they maintain roll back with the rest of the
    request; passing None runs the tag writes in a self-contained unit.
    Only table writes made under a unit are journaled, so `snapshot` and
    `restore` roll back those alone.

    Views passed in must show the catalog's current state: the kept
    assignments and eligibility sets are checked against it.
    """

    def __init__(self, catalog: ResourceCatalog):
        self.catalog = catalog
        self.table: dict[str, PromiseRecord] = {}
        self.active: dict[str, PromiseRecord] = {}
        self._expiry: list[tuple] = []  # heap of _expiry_entry; may hold ids no longer active
        self._journal: list[tuple[str, Optional[PromiseRecord]]] = []  # (id, previous record)
        self._types: dict[str, _TypeState] = {}
        self._issued = 0
        self.counters = {"grants": 0, "rejections": 0, "releases": 0, "expiries": 0}

    # --- queries ---

    def record(self, promise_id: str) -> Optional[PromiseRecord]:
        return self.table.get(promise_id)

    def active_records(self, exclude: Iterable[str] = ()) -> list[PromiseRecord]:
        skip = set(exclude)
        return [r for r in self.active.values() if r.id not in skip]

    def active_predicates(self, exclude: Iterable[str] = ()) -> list[Predicate]:
        preds: list[Predicate] = []
        for rec in self.active_records(exclude):
            preds.extend(rec.predicates)
        return preds

    def snapshot(self) -> int:
        """A mark for `restore`: the length of the journal."""
        return len(self._journal)

    def restore(self, mark: int) -> None:
        """Undo the journaled table writes made since `snapshot` returned `mark`."""
        while len(self._journal) > mark:
            pid, previous = self._journal.pop()
            if previous is None:
                del self.table[pid]
                gone = self.active.pop(pid, None)
                if gone is not None:
                    self._count(gone, -1)
            else:
                self._index(previous)

    def commit(self) -> None:
        """Forget the journal: the writes it holds are final."""
        self._journal.clear()

    def index_problems(self) -> list[str]:
        """Where `active`, the expiry heap, the demand index or a kept
        assignment marked current disagree with the table and the catalog."""
        problems = []
        in_table = {pid: r for pid, r in self.table.items() if r.status == PROMISE_ACTIVE}
        if self.active != in_table:
            problems.append("active index disagrees with the table")
        if not self.active.keys() <= {pid for _, _, pid in self._expiry}:
            problems.append("an active promise has no expiry entry")
        merged: dict = {}
        for rec in in_table.values():
            for p in rec.predicates:
                key = (resource_type_of(p), _demand_key(p))
                merged[key] = merged.get(key, 0) + amount_of(p)
        if merged != {(rt, key): slot[1] for rt, st in self._types.items()
                      for key, slot in st.demands.items()}:
            problems.append("demand index disagrees with the table")
        for rt in sorted(self._types):
            st = self._types[rt]
            if st.pairs is not None and st.certified == self._stamp(rt, st) \
                    and not self._is_certificate(st):
                problems.append(f"kept assignment of {rt!r} is marked current but is "
                                "not a complete assignment")
        return problems

    # --- operations ---

    def grant(self, predicates: Sequence[Predicate], duration: int, now: int,
              unit: Optional[UnitToken] = None) -> Union[PromiseRecord, Rejection]:
        """All-or-nothing: insert a new active record iff the whole active
        set plus the request is satisfiable against current availability."""
        if not predicates:
            raise ValueError("a promise needs at least one predicate")
        if duration <= 0:
            raise ValueError("duration must be positive")
        wanted = self._wanted(predicates)
        if not self._feasible(wanted, self._view(unit)):
            self.counters["rejections"] += 1
            return Rejection()
        rec = self._insert(tuple(predicates), duration, now, unit)
        self._certify(wanted)
        return rec

    def release(self, ids: Sequence[str], unit: Optional[UnitToken] = None) -> None:
        """Mark records released; released/expired ids are a no-op."""
        records = []
        for pid in dict.fromkeys(ids):
            rec = self.table.get(pid)
            if rec is None:
                raise UnknownPromiseId(pid)
            records.append(rec)
        for rec in records:
            if rec.status != PROMISE_ACTIVE:
                continue
            self._put(replace(rec, status=PROMISE_RELEASED), unit)
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
            if pid not in self.active:
                raise UnknownPromiseId(pid)
        if predicates and duration <= 0:
            raise ValueError("duration must be positive")
        wanted = self._wanted(predicates, [self.active[pid] for pid in release])
        if not self._feasible(wanted, self._view(unit)):
            self.counters["rejections"] += 1
            return Rejection()
        self.release(release, unit)
        if not predicates:
            return None
        rec = self._insert(tuple(predicates), duration, now, unit)
        self._certify(wanted)
        return rec

    def expire_sweep(self, now: int, unit: Optional[UnitToken] = None) -> list[str]:
        """Expire every active record with expires_at <= now; returns their ids in issue order."""
        expired = []
        while self._expiry and self._expiry[0][0] <= now:
            rec = self.active.get(heapq.heappop(self._expiry)[2])
            if rec is None:
                continue  # released or expired already
            self._put(replace(rec, status=PROMISE_EXPIRED), unit)
            self._clear_tags(rec, unit)
            self.counters["expiries"] += 1
            expired.append(rec.id)
        return sorted(expired, key=_id_sort_key)

    def post_action_check(self, released_ids: Sequence[str], view: AvailabilityView,
                          types: Optional[Collection[str]] = None) -> bool:
        """True iff the remaining active promises survive the action's effects.

        Call with the released ids already provisionally marked; a False
        result tells the pipeline to roll the action back. `types` names
        the resource types the action changed; None checks every type.
        """
        for pid in released_ids:
            assert pid not in self.active, \
                "released ids must be marked before the post-action check"
        wanted = {rt: st.demands for rt, st in self._types.items()
                  if st.demands and (types is None or rt in types)}
        if not self._feasible(wanted, view):
            return False
        self._certify(wanted)
        return True

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

    # --- feasibility by type ---

    def _state(self, rt: str) -> _TypeState:
        st = self._types.get(rt)
        if st is None:
            st = self._types[rt] = _TypeState()
        return st

    def _wanted(self, predicates: Iterable[Predicate],
                leaving: Iterable[PromiseRecord] = ()) -> dict[str, dict]:
        """The demands of each type `predicates` name, once they are added
        to the active set and the `leaving` records are taken out of it."""
        wanted: dict[str, dict] = {}
        for p in predicates:
            rt = resource_type_of(p)
            demands = wanted.get(rt)
            if demands is None:
                demands = wanted[rt] = {k: list(slot) for k, slot in self._state(rt).demands.items()}
            demands.setdefault(_demand_key(p), [p, 0])[1] += amount_of(p)
        for rec in leaving:
            for p in rec.predicates:
                demands = wanted.get(resource_type_of(p))
                if demands is not None:
                    key = _demand_key(p)
                    demands[key][1] -= amount_of(p)
                    if not demands[key][1]:
                        del demands[key]
        return wanted

    def _feasible(self, wanted: dict[str, dict], view: AvailabilityView) -> bool:
        """True iff each type's demands in `wanted` can be met."""
        for rt, demands in wanted.items():
            if rt in view.pools:
                # a pool has no instances for a Named or Property demand to draw on
                if any(key[0] != "quantity" for key in demands):
                    return False
                if sum(n for _, n in demands.values()) > view.pools[rt]:
                    return False
            elif not self._decide(rt, demands, view):
                return False
        return True

    def _decide(self, rt: str, demands: dict, view: AvailabilityView) -> bool:
        """Decide one instance-backed type and leave its kept assignment as
        complete as the demands allow.

        The first decision of a type builds and solves its flow problem and
        starts the assignment empty. Every later one repairs the assignment:
        it drops the pairs that are no longer valid, then fills each
        demand's deficit one unit at a time by an augmenting path. If some
        unit has none, no complete assignment exists (Berge).
        """
        st = self._state(rt)
        st.certified = None
        records = view.instances_of(rt)
        if st.pairs is None:
            st.position = {r.id: pos for pos, r in enumerate(records)}
            st.pairs = {}
            return solve_feasibility(build_feasibility_problem(_expand(demands.values()), view))
        eligible = self._eligible(rt, st, demands, records)
        # per demand: [units still to place, eligible positions as a set]
        need = {key: [slot[1], eligible[key][1]] for key, slot in demands.items()}
        pairs = st.pairs
        for pos, key in list(pairs.items()):
            left = need.get(key)
            if left is None or not left[0] or pos not in left[1] \
                    or records[pos].status == STATUS_TAKEN:
                del pairs[pos]
            else:
                left[0] -= 1
        for key, (left, _) in need.items():
            for _ in range(left):
                if not _augment(key, pairs, eligible, records):
                    return False
        return True

    def _eligible(self, rt: str, st: _TypeState, demands: dict, records) -> dict:
        """For each demand key in `demands`, the positions of the instances,
        taken or not, that can serve it, in order and as a set.

        Cached per demand key until a property of the type's instances
        changes. Instances are grouped by the values of the properties a
        Property demand constrains, and `satisfies` runs once per group.
        """
        version = self.catalog.property_version(rt)
        cache = st.eligible
        # the keys of promises long gone would otherwise pile up
        if st.eligible_at != version or len(cache) > 2 * len(demands) + 64:
            cache.clear()
            st.groups.clear()
            st.eligible_at = version
        out = {}
        for key, (p, _) in demands.items():
            found = cache.get(key)
            if found is None:
                if isinstance(p, Named):
                    pos = st.position.get(p.instance)
                    found = () if pos is None else (pos,)
                elif isinstance(p, Quantity):
                    found = tuple(range(len(records)))
                else:
                    names = tuple(sorted({c.property_name for c in p.constraints}))
                    groups = st.groups.get(names)
                    if groups is None:
                        groups = st.groups[names] = _group_by_values(records, names)
                    found = tuple(sorted(chain.from_iterable(
                        group for group in groups.values()
                        if satisfies(records[group[0]], p, self.catalog.schema))))
                found = cache[key] = (found, frozenset(found))
            out[key] = found
        return out

    def _certify(self, wanted: dict[str, dict]) -> None:
        """Mark the kept assignments of the types just decided as current.

        Call once the table holds exactly the demands they were decided
        for; any later change of demand or property unmarks them.
        """
        for rt in wanted:
            st = self._types[rt]
            # a type's first decision leaves its assignment empty for the next to fill
            if st.pairs is not None and len(st.pairs) == sum(n for _, n in st.demands.values()):
                st.certified = self._stamp(rt, st)

    def _stamp(self, rt: str, st: _TypeState) -> tuple:
        return (st.version, self.catalog.property_version(rt))

    def _is_certificate(self, st: _TypeState) -> bool:
        """Whether the kept assignment puts every active demand unit on a
        distinct untaken instance that meets the demand, read from the
        catalog itself rather than the engine's caches."""
        ids = list(st.position)
        held: dict = {}
        for pos, key in st.pairs.items():
            slot = st.demands.get(key)
            inst = self.catalog.instance(ids[pos])
            if slot is None or inst is None or inst.status == STATUS_TAKEN:
                return False
            p = slot[0]
            if isinstance(p, Quantity):
                if inst.id.resource_type != p.resource_type:
                    return False
            elif not satisfies(inst, p, self.catalog.schema):
                return False
            held[key] = held.get(key, 0) + 1
        return held == {key: slot[1] for key, slot in st.demands.items()}

    # --- internals ---

    def _insert(self, predicates: tuple[Predicate, ...], duration: int, now: int,
                unit: Optional[UnitToken]) -> PromiseRecord:
        self._issued += 1
        rec = PromiseRecord(f"p-{self._issued}", predicates, now, now + duration)
        self._put(rec, unit)
        # allocated tag: named instances get marked while the promise lives
        for p in predicates:
            if isinstance(p, Named):
                inst = self.catalog.instance(p.instance)
                if inst is not None and inst.status == STATUS_AVAILABLE:
                    self._set_status(p.instance, STATUS_PROMISED, unit)
        self.counters["grants"] += 1
        return rec

    def _put(self, rec: PromiseRecord, unit: Optional[UnitToken]) -> None:
        """The one way records enter or change in the table."""
        if unit is not None:
            self._journal.append((rec.id, self.table.get(rec.id)))
        self._index(rec)

    def _index(self, rec: PromiseRecord) -> None:
        self.table[rec.id] = rec
        was = self.active.get(rec.id)
        if rec.status == PROMISE_ACTIVE:
            if was is None:
                self._count(rec, 1)
            self.active[rec.id] = rec
            heapq.heappush(self._expiry, _expiry_entry(rec))
            return
        if was is not None:
            del self.active[rec.id]
            self._count(was, -1)
        # entries of records that left before expiring would otherwise pile up
        if len(self._expiry) > 2 * len(self.active) + 1:
            self._expiry[:] = [_expiry_entry(r) for r in self.active.values()]
            heapq.heapify(self._expiry)

    def _count(self, rec: PromiseRecord, sign: int) -> None:
        """Add (sign 1) or take out (-1) an active record's demands in the index."""
        for p in rec.predicates:
            st = self._state(resource_type_of(p))
            key = _demand_key(p)
            slot = st.demands.setdefault(key, [p, 0])
            slot[1] += sign * amount_of(p)
            if not slot[1]:
                del st.demands[key]
            st.version += 1

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


def _augment(start, pairs: dict, eligible: dict, records) -> bool:
    """Give demand `start` one more instance along a shortest augmenting path.

    Breadth-first over demand keys: a demand may take an untaken eligible
    instance that is free, or one that another demand holds if that demand
    can in turn be given another. On success the instances along the path
    move one step and `start` holds one more; on failure `pairs` is unchanged.
    """
    parent: dict = {start: None}  # demand -> (demand that wants its instance, that instance)
    queue = [start]
    for key in queue:
        for pos in eligible[key][0]:
            owner = pairs.get(pos)
            if owner is None:
                if records[pos].status == STATUS_TAKEN:
                    continue
                step = (key, pos)
                while step is not None:
                    key, pos = step
                    pairs[pos] = key
                    step = parent[key]
                return True
            if owner not in parent:
                parent[owner] = (key, pos)
                queue.append(owner)
    return False


def _expand(slots: Iterable[list]) -> list[Predicate]:
    """Predicates with the merged amounts of `slots` ([predicate, amount] pairs)."""
    preds: list[Predicate] = []
    for p, n in slots:
        if isinstance(p, Named):
            preds.extend([p] * n)
        else:
            preds.append(replace(p, amount=n))
    return preds


def _expiry_entry(rec: PromiseRecord) -> tuple:
    return (rec.expires_at, _id_sort_key(rec.id), rec.id)


def _id_sort_key(pid: str):
    head, _, tail = pid.partition("-")
    return (head, int(tail)) if tail.isdigit() else (pid, 0)
