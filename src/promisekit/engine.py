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
promises by type, with a running total of their units, so a check reads
one type's demands, not the whole active set. A grant or exchange passes
only the demands whose amount it changes (`_wanted`), laid over that
index; a pool-backed type is decided from the running total and those
changes.

Checks are scoped by one invariant: the committed active set is
feasible on every type. A grant or exchange then only has to decide the
types its new predicates name, since releasing only removes demand, and
a post-action check only the types the action's catalog mutations
touched.

Instance-backed types are decided by allocation. The engine keeps, per
type, the assignment of demand units to instances that its checks
built, with the positions each demand holds, the untaken instances no
demand holds, and the demands whose held count may differ from their
amount ("dirty"). A check repairs the assignment where it may have gone
wrong since the type was last decided, so it costs what changed, not
the units held on the type or the demands on it:

  - it drops the pairs on instances that became taken. The catalog
    records, per type, the instances whose status moved to or from
    taken, and the check drains that record;
  - it trims each demand the request changes, and each dirty demand,
    down to its amount;
  - it fills each deficit one unit at a time by a breadth-first
    augmenting path over the residual graph (the augmenting step of
    Hopcroft and Karp). A path may move units held by other demands onto
    other instances, so reallocation happens along these paths: a new
    request can displace an earlier pairing as long as a complete
    assignment still exists. A search starts from a free eligible
    instance if there is one, and only then walks the demands holding
    the eligible ones. If some unit has no augmenting path, none exists
    (Berge), and the answer is infeasible.

Which instances meet a demand is looked up when the demand first needs
a unit and cached until a property of that type changes. A Property demand
reads per-property value buckets: for `equals`, the bucket of the
value; for `at-least-in-order`, the buckets of the wanted rank and
above. A property change (the catalog's per-type `property_version`
moves) re-checks every kept pair, as each pair's eligibility may have
changed.

The kept assignment is a hint that needs no journal: rolling an
envelope back leaves at worst dirty demands, pairs that hold more than
the restored amounts, and taken moves the next check drains.

A type's first check has no assignment to repair. It still builds a cold
problem (`build_feasibility_problem`) and solves it
(`solve_feasibility`), because the benchmark's per-layer metrics wrap
those two functions; the kept assignment starts empty, and the next
check fills it. The cold problem merges nodes: untaken instances that
satisfy the same Property demands are interchangeable and become one
supply node of capacity k, and `satisfies` runs once per Property demand
and distinct value of the properties the type's demands constrain. An
instance a Named demand picks stays a node of its own, with edges from
every Quantity and Property demand it can also serve. The solve expands
each node into its units and places demand units with the repair's
search (`_augment`). The one invariant checker, `problems`, always takes
this path for its whole-state check, so it decides every type
independently of the kept assignments and catches anything that breaks
the invariant instead of relying on it.

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
pipeline). `check_satisfiable` is pure; the catalog's view it reads is
live, so it is read under the same serialization.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from itertools import accumulate, islice
from typing import Collection, Iterable, NamedTuple, Optional, Sequence, Union

from .catalog import (
    STATUS_AVAILABLE,
    STATUS_PROMISED,
    STATUS_TAKEN,
    AvailabilityView,
    InstanceRecord,
    ResourceCatalog,
    SetInstanceStatus,
    UnitToken,
)
from .predicates import (
    EQUALS,
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


class Problem(NamedTuple):
    """One way the state breaks an invariant: `name` says which
    one (see `PromiseEngine.problems`), `message` what is wrong."""

    name: str
    message: str


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


def _group_by_values(instances: Sequence[InstanceRecord],
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
    """Cold problem for `predicates` over the untaken instances of the types they name.

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
        # instance id or signature -> [first instance, count, signature]. The
        # two kinds of key cannot collide: an InstanceId is a tuple of two
        # strings and a signature a tuple of demand indices, which are ints.
        groups: dict = {}
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


def solve_feasibility(problem: FeasibilityProblem) -> bool:
    """True iff every demand unit can be placed on its own supply unit.

    Each supply node is expanded into `capacity` units. Starting from an
    empty assignment, each demand takes the free units it can in one pass
    over its eligible ones, and `_augment` places the rest one by one.
    Demands with the fewest eligible units go first, so a nested
    `at-least-in-order` chain needs no re-routing.
    """
    starts = [0, *accumulate(sup.capacity for sup in problem.supplies)]
    eligible: dict = {}
    for j, fan in enumerate(problem.edges):
        order = [u for i in fan for u in range(starts[i], starts[i + 1])]
        eligible[j] = (order, frozenset(order))
    pairs, held, free = {}, {}, set(range(starts[-1]))
    for j in sorted(eligible, key=lambda j: len(eligible[j][0])):
        amount = problem.demands[j].amount
        mine = held[j] = set(islice((u for u in eligible[j][0] if u in free), amount))
        free -= mine
        pairs.update(dict.fromkeys(mine, j))
        for _ in range(amount - len(mine)):
            if not _augment(pairs, held, free, eligible, j):
                return False
    return True


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
    the view's `instances_of`, which is fixed at load. Once the type has
    been decided, `pairs`, `held`, `free` and `dirty` describe the kept
    assignment; every change to one of them keeps the others in step.
    """

    __slots__ = ("demands", "total", "position", "pairs", "held", "free", "dirty",
                 "eligible", "buckets", "eligible_at")

    def __init__(self):
        self.demands: dict = {}  # _demand_key -> [first predicate, merged amount]
        self.total = 0           # the sum of the merged amounts
        self.position: dict[InstanceId, int] = {}  # the type's instances, by id
        # the kept assignment, instance position -> demand key; None until
        # the type is first decided
        self.pairs: Optional[dict] = None
        self.held: dict = {}      # demand key -> the positions `pairs` gives it
        self.free: set = set()    # untaken positions that `pairs` leaves unused
        self.dirty: set = set()   # demand keys whose held count may differ from their amount
        # demand key -> (eligible positions in order, a container to test
        # membership in), computed when first needed and kept while held
        self.eligible: dict = {}
        self.buckets: dict = {}   # property name -> {scalar_key(value): positions in order}
        self.eligible_at = -1     # the catalog property version the pairs were checked at

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

    def problems(self, unit: Optional[UnitToken] = None) -> list[Problem]:
        """Every way the state breaks an invariant, by name:

          - "index": `active`, the expiry heap, the demand index or a type's
            kept assignment and its bookkeeping disagree with the table and
            the catalog. A kept assignment counts as current, and must then
            be complete, once no demand is dirty, no taken move is unread
            and no property changed since its pairs were checked;
          - "feasibility": the table's active predicates, decided cold over
            every type, are not satisfiable;
          - "pool-additivity": a pool's count is negative or below what is
            promised on it;
          - "named-exclusivity": active promises name an instance twice.

        Pool totals and Named amounts are read from the demand index, which
        "index" compares with the table. While a unit is open, only its
        token may ask, and the state checked is the unit's.
        """
        view = self.catalog.snapshot_availability(unit)
        index = []
        in_table = {pid: r for pid, r in self.table.items() if r.status == PROMISE_ACTIVE}
        if self.active != in_table:
            index.append("active index disagrees with the table")
        if not self.active.keys() <= {pid for _, _, pid in self._expiry}:
            index.append("an active promise has no expiry entry")
        merged: dict = {}
        for rec in in_table.values():
            for p in rec.predicates:
                key = (resource_type_of(p), _demand_key(p))
                merged[key] = merged.get(key, 0) + amount_of(p)
        if merged != {(rt, key): slot[1] for rt, st in self._types.items()
                      for key, slot in st.demands.items()}:
            index.append("demand index disagrees with the table")
        for rt in sorted(self._types):
            index.extend(self._type_problems(rt, self._types[rt]))
        found = [Problem("index", message) for message in index]
        if not check_satisfiable([p for r in in_table.values() for p in r.predicates], view):
            found.append(Problem("feasibility", "active set is not satisfiable"))
        for rt, on_hand in sorted(view.pools.items()):
            promised = self._types[rt].total if rt in self._types else 0
            if on_hand < 0:
                found.append(Problem("pool-additivity", f"pool {rt!r} holds {on_hand}"))
            elif promised > on_hand:
                found.append(Problem("pool-additivity",
                                     f"pool {rt!r}: {promised} promised, {on_hand} on hand"))
        named = sorted((p.instance, n) for st in self._types.values()
                       for key, (p, n) in st.demands.items() if key[0] == "named" and n > 1)
        found.extend(Problem("named-exclusivity", f"instance {iid} is named {n} times "
                             "by active promises") for iid, n in named)
        return found

    def _type_problems(self, rt: str, st: _TypeState) -> list[str]:
        problems = []
        if st.total != sum(slot[1] for slot in st.demands.values()):
            problems.append(f"running total of {rt!r} disagrees with its demands")
        if st.pairs is None:
            return problems
        by_key: dict = {}
        for pos, key in st.pairs.items():
            by_key.setdefault(key, set()).add(pos)
        if by_key != {key: have for key, have in st.held.items() if have}:
            problems.append(f"held positions of {rt!r} disagree with its kept assignment")
        amounts = {key: slot[1] for key, slot in st.demands.items()}
        if any(len(st.held.get(key, ())) != amounts.get(key, 0) and key not in st.dirty
               for key in amounts.keys() | st.held.keys()):
            problems.append(f"a demand of {rt!r} that holds other than its amount is not dirty")
        # an instance whose move the next decision has yet to read may disagree
        moved = {st.position[iid] for iid in self.catalog.taken_moves(rt)}
        unused = {pos for pos, iid in enumerate(st.position)
                  if self.catalog.instance(iid).status != STATUS_TAKEN and pos not in st.pairs}
        if (st.free ^ unused) - moved:
            problems.append(f"free instances of {rt!r} disagree with the catalog")
        current = not st.dirty and not moved \
            and st.eligible_at == self.catalog.property_version(rt)
        if current and not self._is_certificate(st):
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
        return self._insert(tuple(predicates), duration, now, unit)

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
            self._put(PromiseRecord(rec.id, rec.predicates, rec.granted_at, rec.expires_at,
                                   PROMISE_RELEASED), unit)
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
        return self._insert(tuple(predicates), duration, now, unit)

    def expire_sweep(self, now: int, unit: Optional[UnitToken] = None) -> list[str]:
        """Expire every active record with expires_at <= now; returns their ids in issue order."""
        expired = []
        while self._expiry and self._expiry[0][0] <= now:
            rec = self.active.get(heapq.heappop(self._expiry)[2])
            if rec is None:
                continue  # released or expired already
            self._put(PromiseRecord(rec.id, rec.predicates, rec.granted_at, rec.expires_at,
                                   PROMISE_EXPIRED), unit)
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
        return self._feasible({rt: {} for rt, st in self._types.items()
                               if st.demands and (types is None or rt in types)}, view)

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
        """For each type `predicates` name, the demands whose amount changes
        once they are added to the active set and the `leaving` records are
        taken out of it, as demand key -> [predicate, new amount]; the new
        amount may be 0. The type's other demands keep the amounts of its
        demand index."""
        wanted: dict[str, dict] = {}
        for p in predicates:
            rt = resource_type_of(p)
            changes = wanted.get(rt)
            if changes is None:
                changes = wanted[rt] = {}
            key = _demand_key(p)
            slot = changes.get(key)
            if slot is None:
                now = self._state(rt).demands.get(key)
                slot = changes[key] = [p, now[1] if now else 0]
            slot[1] += amount_of(p)
        for rec in leaving:
            for p in rec.predicates:
                rt = resource_type_of(p)
                changes = wanted.get(rt)
                if changes is not None:
                    key = _demand_key(p)
                    slot = changes.get(key)
                    if slot is None:
                        slot = changes[key] = list(self._types[rt].demands[key])
                    slot[1] -= amount_of(p)
        return wanted

    def _feasible(self, wanted: dict[str, dict], view: AvailabilityView) -> bool:
        """True iff each type in `wanted` can meet its demands with the
        changes `wanted` gives it."""
        for rt, changes in wanted.items():
            if rt in view.pools:
                st = self._types[rt]
                total = st.total
                for key, (_, n) in changes.items():
                    # a pool has no instances for a Named or Property demand to draw on
                    if n and key[0] != "quantity":
                        return False
                    now = st.demands.get(key)
                    total += n - (now[1] if now else 0)
                if total > view.pools[rt]:
                    return False
            elif not self._decide(rt, changes, view):
                return False
        return True

    def _decide(self, rt: str, changes: dict, view: AvailabilityView) -> bool:
        """Decide one instance-backed type, with `changes` (as `_wanted`
        gives them) over its demand index, and leave its kept assignment as
        complete as the demands allow.

        The first decision of a type builds and solves its cold problem and
        starts the assignment empty. Every later one repairs the assignment
        where it may have gone wrong since the last decision:
          - it drops the pairs on instances that became taken, which the
            catalog reports (a moved property version re-checks every pair);
          - it trims each changed or dirty demand down to its amount;
          - it fills each deficit one unit at a time by an augmenting path.
        If some unit has none, no complete assignment exists (Berge).
        """
        st = self._state(rt)
        moved = self.catalog.drain_taken_moves(rt)
        records = view.instances_of(rt)
        pairs = st.pairs
        if pairs is None:
            return self._seed(rt, st, changes, records, view)
        version = self.catalog.property_version(rt)
        if st.eligible_at != version:
            self._revalidate(st, changes, records, version)
        elif moved:
            _read_moves(st, moved, records)
        eligible = st.eligible
        if len(eligible) > 2 * len(st.demands) + 64:
            # the keys of long-gone promises would pile up; a search reads the held ones
            st.eligible = eligible = {key: found for key, found in eligible.items()
                                      if key in st.held}
        deficits: list = []
        for key, slot in changes.items():
            _trim(st, key, slot[1], deficits)
        demands = st.demands
        for key in st.dirty:
            if key not in changes:
                slot = demands.get(key)
                _trim(st, key, slot[1] if slot else 0, deficits)
        for key, n in deficits:
            self._eligible(st, key, changes, records)
            for _ in range(n):
                if not _augment(pairs, st.held, st.free, eligible, key):
                    st.dirty.update(changes)
                    return False
        # every demand looked at now holds what `changes` gives it
        st.dirty.clear()
        for key, (_, n) in changes.items():
            now = demands.get(key)
            if n != (now[1] if now else 0):
                st.dirty.add(key)
        return True

    def _seed(self, rt: str, st: _TypeState, changes: dict, records, view) -> bool:
        """A type's first decision: solve its cold problem, and start the
        kept assignment empty for the next decision to fill."""
        st.position = {r.id: pos for pos, r in enumerate(records)}
        st.pairs, st.held = {}, {}
        st.free = {pos for pos, r in enumerate(records) if r.status != STATUS_TAKEN}
        st.dirty = set(st.demands)
        st.eligible_at = self.catalog.property_version(rt)
        merged = dict(st.demands)
        merged.update(changes)
        return solve_feasibility(build_feasibility_problem(
            _expand(slot for slot in merged.values() if slot[1]), view))

    def _revalidate(self, st: _TypeState, changes: dict, records, version: int) -> None:
        """After a property of the type changed: forget what was derived
        from the properties and drop every pair that is no longer valid."""
        st.eligible.clear()
        st.buckets.clear()
        st.eligible_at = version
        pairs = st.pairs
        held: dict = {}
        for pos, key in list(pairs.items()):
            if (key in changes or key in st.demands) and records[pos].status != STATUS_TAKEN \
                    and pos in self._eligible(st, key, changes, records)[1]:
                held.setdefault(key, set()).add(pos)
            else:
                del pairs[pos]
                st.dirty.add(key)
        st.held = held
        st.free = {pos for pos, r in enumerate(records)
                   if r.status != STATUS_TAKEN and pos not in pairs}

    def _eligible(self, st: _TypeState, key, changes: dict, records) -> tuple:
        """The positions of the instances, taken or not, that can serve
        demand `key`: in order, and as a container to test membership in.

        Cached per demand key until a property of the type's instances
        changes. A Property demand reads the per-property value buckets:
        for `at-least-in-order`, the buckets of the wanted rank and above.
        """
        found = st.eligible.get(key)
        if found is not None:
            return found
        p = (changes.get(key) or st.demands[key])[0]
        if isinstance(p, Quantity):
            every = range(len(records))
            found = (every, every)
        elif isinstance(p, Named):
            pos = st.position.get(p.instance)
            found = ((), ()) if pos is None else ((pos,), (pos,))
        else:
            found = _matching(st, p, records, self.catalog.schema)
        st.eligible[key] = found
        return found

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
        """Add (sign 1) or take out (-1) an active record's demands in the
        index, and mark each demand dirty or clean by whether the kept
        assignment holds its new amount."""
        for p in rec.predicates:
            st = self._state(resource_type_of(p))
            key = _demand_key(p)
            n = sign * amount_of(p)
            st.total += n
            slot = st.demands.get(key)
            if slot is None:
                slot = st.demands[key] = [p, 0]
            slot[1] += n
            if not slot[1]:
                del st.demands[key]
            if st.pairs is not None:
                have = st.held.get(key)
                if (len(have) if have else 0) == slot[1]:
                    st.dirty.discard(key)
                else:
                    st.dirty.add(key)

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


def _read_moves(st: _TypeState, moved, records) -> None:
    """Bring `free` and the pairs up to date with instances whose status
    moved to or from taken: a pair on a taken instance is dropped and its
    demand marked dirty; an untaken instance no demand holds is free."""
    pairs, free, held = st.pairs, st.free, st.held
    for iid in moved:
        pos = st.position[iid]
        if records[pos].status != STATUS_TAKEN:
            if pos not in pairs:
                free.add(pos)
            continue
        free.discard(pos)
        key = pairs.pop(pos, None)
        if key is not None:
            have = held[key]
            have.discard(pos)
            if not have:
                del held[key]
            st.dirty.add(key)


def _trim(st: _TypeState, key, want: int, deficits: list) -> None:
    """Drop the units demand `key` holds beyond `want`; note a shortfall."""
    have = st.held.get(key)
    n = len(have) if have else 0
    if n > want:
        pairs, free = st.pairs, st.free
        for _ in range(n - want):
            pos = have.pop()
            del pairs[pos]
            free.add(pos)
        if not have:
            del st.held[key]
    elif n < want:
        deficits.append((key, want - n))


def _augment(pairs: dict, held: dict, free: set, eligible: dict, start) -> bool:
    """Give demand `start` one more unit along a shortest augmenting path.

    `pairs` maps each assigned unit to the demand holding it, `held` each
    demand to its units, `free` holds the unassigned units and `eligible`
    each demand that `start` or `pairs` names to its eligible units, in
    order and as a container to test membership in. Breadth-first over
    demands: a demand may take an eligible free unit, or one that another
    demand holds if that demand can in turn be given another. On success the
    units along the path move one step and `start` holds one more; on
    failure nothing changes, and no assignment places this unit and every
    unit placed so far (Berge).
    """
    if not free:
        return False
    parent: dict = {start: None}  # demand -> (demand that wants its unit, that unit)
    queue = [start]
    for key in queue:
        order, members = eligible[key]
        pos = _first_free(order, members, free)
        if pos is not None:
            free.discard(pos)
            while True:
                owner = pairs.get(pos)
                if owner is not None:
                    held[owner].discard(pos)
                pairs[pos] = key
                mine = held.get(key)
                if mine is None:
                    mine = held[key] = set()
                mine.add(pos)
                step = parent[key]
                if step is None:
                    return True
                key, pos = step
        for pos in order:
            owner = pairs.get(pos)
            if owner is not None and owner not in parent:
                parent[owner] = (key, pos)
                queue.append(owner)
    return False


def _first_free(order, members, free: set):
    """A position that is both eligible and free, or None; walks the smaller side."""
    if len(free) < len(order):
        for pos in free:
            if pos in members:
                return pos
    else:
        for pos in order:
            if pos in free:
                return pos
    return None


def _matching(st: _TypeState, p: Property, records, schema) -> tuple:
    """Eligibility of a Property demand, from the value buckets of the
    properties it constrains; the same instances `satisfies` accepts."""
    hits = []
    for c in p.constraints:
        buckets = st.buckets.get(c.property_name)
        if buckets is None:
            buckets = st.buckets[c.property_name] = {}
            for pos, r in enumerate(records):
                if c.property_name in r.properties:
                    buckets.setdefault(scalar_key(r.properties[c.property_name]), []).append(pos)
        if c.comparator == EQUALS:
            hits.append(buckets.get(scalar_key(c.value), ()))
            continue
        decl = schema.property_decl(p.resource_type, c.property_name)
        want = decl.rank(c.value) if decl is not None and decl.order is not None else -1
        hits.append(() if want < 0 else
                    [pos for v in decl.order[want:] for pos in buckets.get(scalar_key(v), ())])
    hits.sort(key=len)
    found = tuple(hits[0])
    if len(hits) > 1:
        others = [frozenset(h) for h in hits[1:]]
        found = tuple(pos for pos in found if all(pos in o for o in others))
    return (found, frozenset(found))


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
