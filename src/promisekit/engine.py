"""Promise table and promise checking.

Feasibility of a predicate set is decided one resource type at a time.
No demand can draw on another type's supply, so the set is satisfiable
iff each type's share of it is:

  - a pool-backed type iff its Quantity amounts sum to at most the
    quantity on hand (a pool has no instances for the other forms);
  - an instance-backed type iff its demand units can be assigned to
    distinct untaken instances that each meet the demand they serve.

Predicates with the same demand key (`key`, which each predicate
computes once, when it is built) merge into one demand with their
amounts summed. The engine indexes the merged demands of the active
promises by type, with a running total of their units, so a check reads
one type's demands, not the whole active set. A request's changes to
the index are derived once: a grant's are its predicates merged
(`_merge`), with the demands of the records it releases on grant taken
out (`_wanted`). Its decision lays them over the index (a pool-backed
type is decided from the running total plus the changes), and once the
request is granted the same changes are written into it. An action's
post-check lays the demands of the records the action releases after
success over the index the same way, and writes nothing: the pipeline
releases them only once it says yes. A record keeps its merged demands,
which a release, an expiry and an undone table write take out of the
index or put back. One writer, `_count`, updates the index.

Checks are scoped by one invariant: the committed active set is
feasible on every type. A grant then only has to decide the types its
new predicates name, since releasing only removes demand, and a
post-action check only the types whose supply the action's catalog
mutations cut.

Instance-backed types are decided by allocation. The engine keeps, per
type, the assignment of demand units to instances that its checks
built, with the positions each demand holds, the untaken instances no
demand holds, and the demands whose held count may differ from their
amount ("dirty"). A check repairs the assignment where it may have gone
wrong since the type was last decided, so it costs what changed, not
the units held on the type or the demands on it:

  - it re-tests the pairs on instances that moved. The catalog records,
    per type, the instances whose status moved to or from taken or a
    property of which was set, and the check drains that record: a pair
    on a taken instance is dropped, and so is one on an instance whose
    new properties its demand no longer accepts;
  - it trims each demand the request changes, and each dirty demand,
    down to its amount;
  - it gives each deficit the free eligible instances it can in one
    pass, and fills the rest one unit at a time by a breadth-first
    augmenting path over the residual graph (the augmenting step of
    Hopcroft and Karp). A path may move units held by other demands onto
    other instances, so reallocation happens along these paths: a new
    request can displace an earlier pairing as long as a complete
    assignment still exists. If some unit has no augmenting path, none
    exists (Berge), and the answer is infeasible.

Which instances meet a demand is looked up when the demand first needs
a unit and cached until a property of that type is set. A Property
demand reads per-property value buckets: for `equals`, the bucket of the
value; for `at-least-in-order`, the buckets of the wanted rank and
above. A property set flushes these caches and derives each holding
demand's eligibility again, but only the pairs on the moved instances
are re-tested: no other instance's eligibility changed.

The kept assignment is a hint that needs no journal: rolling an
envelope back leaves at worst dirty demands, pairs that hold more than
the restored amounts, and moves the next check drains.

Every instance-backed type's kept state exists from the engine's start:
`build_feasibility_problem` makes it as an empty assignment over the
type's untaken instances, so a type's first decision is one in which
every demand is short. A type the catalog does not declare gets no
state: it has no supply, and a grant that names it is refused. Every
decision fills its deficits through one loop, `solve_feasibility`,
fewest eligible first; `check_satisfiable` builds a problem from one
type's merged demands and fills them all.

Every answer of `check_satisfiable` is checked by `_certifies`, which
reads only the instance records and `satisfies`. A feasible answer's
certificate is its assignment; an infeasible one's is a Hall violator,
the demands the failing search reached, which want more units than there
are untaken instances eligible for any of them. The one invariant
checker, `problems`, decides every type this way and checks each current
kept assignment with `_certifies` too, so a wrong eligibility or search
shows at any size, not only where the exhaustive oracle fits.

The promise table keeps both per-envelope work and memory independent of
history:

  - the table, `active`, holds the active records by id, and nothing
    else. A record is an immutable tuple that carries its issue number,
    the N of its id `p-N`, so the table, the journal and the heap share
    records, and ordering them needs no parse of the id;
  - ids are issued in sequence, and `_history` keeps one status byte per
    issued id, at index N - 1: active, released or expired. A release or
    an expiry deletes the record and writes its final status there, so a
    retired promise costs one byte, and `status()` tells a retired id
    from one never issued;
  - a heap of (expires_at, issue number, id) lets the sweep pop only the
    due records. A record that leaves early keeps its entry until the
    sweep pops it or the heap, grown past twice the table, is rebuilt
    from it;
  - every table write made under a catalog unit is journaled as (id,
    previous record), None for an insert. `snapshot` is the journal's
    length and `restore` undoes the writes after it, so rolling back
    costs what the envelope changed, not the table's size. An undone
    insert gives its id back and drops its status byte. The pipeline
    clears the journal (`commit`) once the unit commits.

The engine assumes external serialization (it runs inside the manager
pipeline). `check_satisfiable` is pure; the catalog it reads shows its
current state, so it is read under the same serialization.
"""

from __future__ import annotations

import heapq
import json
from typing import Collection, Iterable, NamedTuple, Optional, Sequence, Union

from .catalog import (
    STATUS_AVAILABLE,
    STATUS_PROMISED,
    STATUS_TAKEN,
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
    predicate_to_wire,
    satisfies,
    scalar_key,
)

PROMISE_ACTIVE = "active"
PROMISE_RELEASED = "released"
PROMISE_EXPIRED = "expired"
# the status bytes of `PromiseEngine._history`
_ACTIVE, _RELEASED, _EXPIRED = b"are"
_STATUS = {_ACTIVE: PROMISE_ACTIVE, _RELEASED: PROMISE_RELEASED, _EXPIRED: PROMISE_EXPIRED}


class UnknownPromiseId(Exception):
    def __init__(self, promise_id: str):
        super().__init__(f"unknown promise id {promise_id!r}")
        self.promise_id = promise_id


class Rejection:
    """Protocol-level refusal of a grant. Not an error. It carries nothing
    yet: the certified violator that decided it is meant to be its first
    field."""


class PromiseRecord(NamedTuple):
    """One active promise. Immutable, because the table, the journal and
    the expiry heap share it. `issue` is the N of its id `p-N`; `demands`
    are its predicates merged by type and demand key (as `_merge` gives
    them), what the record adds to the demand index while it is active,
    and are never written after the record is built."""

    id: str
    predicates: tuple[Predicate, ...]
    granted_at: int
    expires_at: int
    issue: int
    demands: dict


class Problem(NamedTuple):
    """One way the state breaks an invariant: `name` says which
    one (see `PromiseEngine.problems`), `message` what is wrong."""

    name: str
    message: str


# --- feasibility problem ---

class UncertifiedAnswer(Exception):
    """A feasibility answer whose certificate does not check out against
    the instance records: the engine's eligibility or its search is wrong."""


class FeasibilityProblem:
    """One resource type's demands and an assignment of their units to the
    type's instances, each named by its position in the catalog's
    `instances_of`, which is fixed at load.

    `build_feasibility_problem` makes one with an empty assignment and
    `solve_feasibility` fills its deficits. The engine keeps one per
    resource type from its start, with `demands` its index of the active
    promises' demands and `total` their running sum; for an
    instance-backed type, `pairs`, `held`, `free` and `dirty` describe the
    kept assignment, and every change to one of them keeps the others in
    step. A pool-backed type's state has no instances and uses only the
    demand index.
    """

    __slots__ = ("demands", "total", "position", "pairs", "held", "free", "dirty",
                 "eligible", "buckets")

    def __init__(self, records: Sequence[InstanceRecord] = (), demands: Optional[dict] = None):
        # demand key -> [first predicate, merged amount]
        self.demands = {} if demands is None else demands
        self.total = 0
        self.position = {r.id: pos for pos, r in enumerate(records)}
        self.pairs: dict = {}     # the assignment, instance position -> demand key
        self.held: dict = {}      # demand key -> the positions `pairs` gives it
        # untaken positions `pairs` leaves unused
        self.free = {pos for pos, r in enumerate(records) if r.status != STATUS_TAKEN}
        self.dirty: set = set()   # demand keys whose held count may differ from their amount
        # demand key -> (eligible positions in order, a container to test
        # membership in), computed when first needed and kept while held
        self.eligible: dict = {}
        self.buckets: dict = {}   # property name -> {scalar_key(value): positions in order}

    @property
    def edges(self) -> tuple:
        """Per demand, its eligible positions."""
        return tuple(self.eligible[key][0] for key in self.demands)


def build_feasibility_problem(rt: str, demands: dict,
                              view: ResourceCatalog) -> FeasibilityProblem:
    """What a decision of type `rt` starts from: its `demands`, merged by
    demand key (demand key -> [predicate, amount]); an empty assignment
    over its untaken instances, of which a pool has none; and each demand's
    eligible positions, read from the value buckets every decision reads.
    """
    records = view.instances_of(rt)
    problem = FeasibilityProblem(records, demands)
    for key in demands:
        _eligible(problem, key, {}, records, view.schema)
    return problem


def solve_feasibility(problem: FeasibilityProblem, deficits: Sequence[tuple]) -> Optional[set]:
    """Place in `problem`'s assignment the units `deficits` lack, given as
    (demand key, units short) pairs whose eligibility is already known.
    Returns None when every unit is placed, else the demand keys of a Hall
    violator: the demands the failing search reached, or every demand when
    no position was free.

    Each demand, fewest eligible positions first, takes the free ones it
    can in one pass (`_take_free`), and `_augment` places the rest one by
    one, so a nested `at-least-in-order` chain needs no re-routing.
    """
    pairs, held, free, eligible = problem.pairs, problem.held, problem.free, problem.eligible
    if len(deficits) > 1:  # most decisions have one deficit or none
        deficits = sorted(deficits, key=lambda deficit: len(eligible[deficit[0]][0]))
    for key, n in deficits:
        for _ in range(n - _take_free(pairs, held, free, eligible[key], key, n)):
            reached = _augment(pairs, held, free, eligible, key)
            if reached is not None:
                return set(reached or problem.demands)
    return None


def _certifies(problem: FeasibilityProblem, records: Sequence[InstanceRecord], schema,
               violator: Optional[Collection] = None) -> bool:
    """Whether a certificate proves an answer for `problem`, read from
    `records`, the type's instances by position, and `satisfies` alone,
    not from any eligibility the engine derived:

      - with no `violator`, the certificate of a feasible answer is the
        problem's assignment: it must put every demand unit on a distinct
        untaken instance that meets its demand;
      - a `violator` (demand keys) is the certificate of an infeasible
        answer: its demands must want more units than there are untaken
        instances meeting any of them, which no assignment can give (Hall).
        Each instance is tried first against the violator demand that holds
        it in the failed assignment, which meets it unless that assignment
        is wrong, so the count costs about one `satisfies` call per instance.
    """
    demands = problem.demands
    if violator is None:
        held: dict = {}
        for pos, key in problem.pairs.items():
            slot = demands.get(key)
            if slot is None or not 0 <= pos < len(records) \
                    or not _meets(records[pos], slot[0], schema):
                return False
            held[key] = held.get(key, 0) + 1
        return held == {key: n for key, (_, n) in demands.items() if n}
    wanted = {key: demands[key] for key in violator if key in demands}
    pairs = problem.pairs
    supply = 0
    for pos, r in enumerate(records):
        holder = wanted.get(pairs.get(pos))
        if holder is not None and _meets(r, holder[0], schema) \
                or any(_meets(r, p, schema) for p, _ in wanted.values()):
            supply += 1
    return sum(n for _, n in wanted.values()) > supply


def _meets(record: InstanceRecord, p: Predicate, schema) -> bool:
    """Whether an instance can serve one unit of demand `p` now."""
    if record.status == STATUS_TAKEN:
        return False
    if isinstance(p, Quantity):
        return record.id.resource_type == p.resource_type
    return satisfies(record, p, schema)


def check_satisfiable(predicates: Sequence[Predicate], view: ResourceCatalog) -> bool:
    """True iff every predicate can draw its full amount from disjoint supply.

    Each instance-backed type's answer is checked against its certificate
    (`_certifies`); one that does not check out raises UncertifiedAnswer.
    """
    for rt, demands in _merge(predicates).items():
        if rt in view.pools:
            # a pool has no instances for a Named or Property demand to draw on
            if any(key[0] != "quantity" and n for key, (_, n) in demands.items()):
                return False
            if sum(n for _, n in demands.values()) > view.pools[rt]:
                return False
            continue
        problem = build_feasibility_problem(rt, demands, view)
        violator = solve_feasibility(problem, [(key, n) for key, (_, n) in demands.items() if n])
        if not _certifies(problem, view.instances_of(rt), view.schema, violator):
            answer = "feasible" if violator is None else "infeasible"
            raise UncertifiedAnswer(f"the {answer} answer for {rt!r} does not check out "
                                    "against the catalog")
        if violator is not None:
            return False
    return True


def _merge(predicates: Iterable[Predicate]) -> dict[str, dict]:
    """Per resource type, the demands of `predicates` merged by demand
    key: demand key -> [predicate, amount]."""
    by_type: dict[str, dict] = {}
    for p in predicates:
        rt = p.resource_type
        demands = by_type.get(rt)
        if demands is None:
            demands = by_type[rt] = {}
        slot = demands.get(p.key)
        if slot is None:
            demands[p.key] = [p, p.amount]
        else:
            slot[1] += p.amount
    return by_type


# --- the engine ---

class PromiseEngine:
    """Promise table plus grant/release/expiry over a catalog.

    Mutating operations take the active catalog unit token so that the
    instance-status tags they maintain roll back with the rest of the
    request; passing None runs the tag writes in a self-contained unit.
    Only table writes made under a unit are journaled, so `snapshot` and
    `restore` roll back those alone.

    A view passed in must be the engine's own catalog, as
    `snapshot_availability` gives it: the kept assignments and eligibility
    sets are checked against its current state.
    """

    def __init__(self, catalog: ResourceCatalog):
        self.catalog = catalog
        self.active: dict[str, PromiseRecord] = {}  # the promise table
        # the status byte of each issued id p-N at index N - 1; its length
        # is the issue counter
        self._history = bytearray()
        self._expiry: list[tuple] = []  # heap of _expiry_entry; may hold ids no longer active
        self._journal: list[tuple[str, Optional[PromiseRecord]]] = []  # (id, previous record)
        # every declared type's state, an empty assignment over its untaken
        # instances; a pool has none, and uses its demand index alone
        view = catalog.snapshot_availability()
        self._types: dict[str, FeasibilityProblem] = {}
        for rt in catalog.schema.types:
            self._types[rt] = build_feasibility_problem(rt, {}, view)

    # --- queries ---

    def status(self, promise_id: str) -> Optional[str]:
        """`active`, `released` or `expired` for an issued id, None for any
        other string. An issued id has the canonical form `p-N`, with
        1 <= N <= the issue counter and no leading zero."""
        digits = promise_id[2:]
        if not promise_id.startswith("p-") or not digits.isascii() or not digits.isdigit() \
                or digits[0] == "0" or len(digits) > len(str(len(self._history))):
            return None  # the length check keeps int() to digits it will convert
        n = int(digits)
        return _STATUS[self._history[n - 1]] if n <= len(self._history) else None

    def history(self) -> str:
        """The status byte of every issued id, in issue order, as text:
        `a` active, `r` released, `e` expired."""
        return self._history.decode("ascii")

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
        """Undo the journaled table writes made since `snapshot` returned
        `mark`. An undone insert gives its id back to the next grant, and
        an undone retirement puts the record back."""
        while len(self._journal) > mark:
            pid, previous = self._journal.pop()
            if previous is None:
                # the last id issued: a later retirement of it was undone first
                self._count(self.active.pop(pid).demands, -1)
                del self._history[-1]
            else:
                self._history[previous.issue - 1] = _ACTIVE
                self._admit(previous)
                self._count(previous.demands, 1)

    def commit(self) -> None:
        """Forget the journal: the writes it holds are final."""
        self._journal.clear()

    def problems(self, unit: Optional[UnitToken] = None) -> list[Problem]:
        """Every way the state breaks an invariant, by name:

          - "index": the status bytes, the expiry heap, the demand index or
            a type's kept assignment and its bookkeeping disagree with the
            table and the catalog. A kept assignment counts as current, and
            must then be complete, once no demand is dirty and no move of
            its type is unread;
          - "feasibility": the table's predicates, decided over every type
            from an empty assignment, are not satisfiable, or the answer for
            a type does not check out against its certificate;
          - "pool-additivity": a pool's count is negative or below what is
            promised on it;
          - "named-exclusivity": active promises name an instance twice.

        Pool totals and Named amounts are read from the demand index, which
        "index" compares with the table. While a unit is open, only its
        token may ask, and the state checked is the unit's.
        """
        view = self.catalog.snapshot_availability(unit)
        index = []
        if any(pid != f"p-{r.issue}" or self.status(pid) != PROMISE_ACTIVE
               for pid, r in self.active.items()) \
                or self._history.count(_ACTIVE) != len(self.active):
            index.append("status bytes disagree with the table")
        if not {(r.expires_at, pid) for pid, r in self.active.items()} \
                <= {(at, pid) for at, _, pid in self._expiry}:
            index.append("an active promise has no expiry entry")
        predicates = [p for r in self.active.values() for p in r.predicates]
        merged = {(rt, key): n for rt, demands in _merge(predicates).items()
                  for key, (_, n) in demands.items()}
        if merged != {(rt, key): n for rt, st in self._types.items()
                      for key, (_, n) in st.demands.items()}:
            index.append("demand index disagrees with the table")
        if any(r.demands != _merge(r.predicates) for r in self.active.values()):
            index.append("a record's demands disagree with its predicates")
        for rt in sorted(self._types):
            index.extend(self._type_problems(rt, self._types[rt], view))
        found = [Problem("index", message) for message in index]
        try:
            if not check_satisfiable(predicates, view):
                found.append(Problem("feasibility", "active set is not satisfiable"))
        except UncertifiedAnswer as exc:
            found.append(Problem("feasibility", str(exc)))
        for rt, on_hand in sorted(view.pools.items()):
            promised = self._types[rt].total
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

    def _type_problems(self, rt: str, st: FeasibilityProblem, view: ResourceCatalog) -> list[str]:
        problems = []
        if st.total != sum(slot[1] for slot in st.demands.values()):
            problems.append(f"running total of {rt!r} disagrees with its demands")
        if not st.position:
            return problems  # a pool, or a type with no instances, keeps no assignment
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
        moved = {st.position[iid] for iid in self.catalog.moves(rt)}
        unused = {pos for pos, iid in enumerate(st.position)
                  if self.catalog.instance(iid).status != STATUS_TAKEN and pos not in st.pairs}
        if (st.free ^ unused) - moved:
            problems.append(f"free instances of {rt!r} disagree with the catalog")
        if not st.dirty and not moved and not _certifies(st, view.instances_of(rt), view.schema):
            problems.append(f"kept assignment of {rt!r} is marked current but is "
                            "not a complete assignment")
        return problems

    # --- operations ---

    def grant(self, predicates: Sequence[Predicate], duration: int, now: int,
              unit: Optional[UnitToken] = None,
              release: Sequence[str] = ()) -> Union[PromiseRecord, Rejection]:
        """All-or-nothing: insert a new active record iff the whole active
        set plus the request is satisfiable against current availability.

        The active promises that `release` names are released in the same
        step (release-on-grant), so the decision counts their units as
        free; an id among them that is not active raises UnknownPromiseId.
        On rejection nothing changes and they stay in force."""
        if not predicates:
            raise ValueError("a promise needs at least one predicate")
        if duration <= 0:
            raise ValueError("duration must be positive")
        demands = changes = decided = _merge(predicates)
        leaving = ()
        if release:
            leaving, changes = self._wanted(demands, release)
            # releasing only removes demand: only the types the request names need deciding
            decided = {rt: changes[rt] for rt in demands}
        if not self._feasible(decided, self.catalog.snapshot_availability(unit)):
            return Rejection()
        for rec in leaving:
            self._retire(rec, _RELEASED, unit)
        return self._insert(tuple(predicates), duration, now, unit, demands, changes)

    def release(self, ids: Sequence[str], unit: Optional[UnitToken] = None) -> None:
        """Retire active records as released; released/expired ids are a
        no-op, and an id never issued raises UnknownPromiseId."""
        records = []
        for pid in dict.fromkeys(ids):
            rec = self.active.get(pid)
            if rec is not None:
                records.append(rec)
            elif self.status(pid) is None:
                raise UnknownPromiseId(pid)
        for rec in records:
            self._retire(rec, _RELEASED, unit)
            self._count(rec.demands, -1)

    def expire_sweep(self, now: int, unit: Optional[UnitToken] = None) -> list[str]:
        """Expire every active record with expires_at <= now; returns their ids in issue order."""
        if not self._expiry or self._expiry[0][0] > now:
            return []
        expired = []
        while self._expiry and self._expiry[0][0] <= now:
            expires_at, issue, pid = heapq.heappop(self._expiry)
            rec = self.active.get(pid)
            if rec is None or rec.expires_at != expires_at:
                continue  # released or expired already, or a rolled-back record's entry
            self._retire(rec, _EXPIRED, unit)
            self._count(rec.demands, -1)
            expired.append((issue, pid))
        expired.sort()
        return [pid for _, pid in expired]

    def post_action_check(self, unit: Optional[UnitToken], types: Optional[Collection[str]] = None,
                          release: Sequence[str] = ()) -> bool:
        """True iff the active promises, less those `release` names, survive
        the action's effects in `unit`. It writes nothing: like a grant's
        release-on-grant it lays the released records' demands over the index,
        so the caller releases them only after a yes. An id in `release` that
        is not active raises UnknownPromiseId. `types` names the resource
        types whose supply the action cut; None checks every type.
        """
        changes = self._wanted({}, release)[1] if release else {}
        states = self._types
        decided = states if types is None else types
        return self._feasible({rt: changes.get(rt, {}) for rt in decided if states[rt].demands},
                              self.catalog.snapshot_availability(unit))

    def dump(self, after: int = 0, page_bytes: Optional[int] = None) -> dict:
        """Diagnostic promise-table dump: the active records issued after
        `p-{after}` (all of them by default) in issue order, with
        deterministic field order.

        With `page_bytes`, rows are listed while their JSON text stays
        within that many bytes, and always at least one; when rows remain,
        `next` is the issue number of the last row listed, the `after` of
        the following page."""
        rows: list = []
        doc = {"promises": rows}
        size, last = 0, after
        for rec in sorted((rec for rec in self.active.values() if rec.issue > after),
                          key=lambda rec: rec.issue):
            row = {
                "promise-identifier": rec.id,
                "status": PROMISE_ACTIVE,
                "granted-at": rec.granted_at,
                "expires-at": rec.expires_at,
                "predicates": [predicate_to_wire(p) for p in rec.predicates],
            }
            if page_bytes is not None:
                size += len(json.dumps(row, separators=(",", ":"))) + 1
                if size > page_bytes and rows:
                    doc["next"] = last
                    break
            rows.append(row)
            last = rec.issue
        return doc

    def _wanted(self, demands: dict[str, dict],
                release: Sequence[str]) -> tuple[list[PromiseRecord], dict[str, dict]]:
        """The active records `release` names, each once, and the changes to
        the demand index of granting `demands` (as `_merge` gives them) while
        those records are released: per type that either names, demand key
        -> [predicate, change in amount]. A change may be negative, or 0. An
        id that is not active raises UnknownPromiseId."""
        wanted = {rt: {key: [p, n] for key, (p, n) in changes.items()}
                  for rt, changes in demands.items()}
        leaving = []
        for pid in dict.fromkeys(release):
            rec = self.active.get(pid)
            if rec is None:
                raise UnknownPromiseId(pid)
            leaving.append(rec)
            for rt, gone in rec.demands.items():
                changes = wanted.get(rt)
                if changes is None:
                    changes = wanted[rt] = {}
                for key, (p, n) in gone.items():
                    slot = changes.get(key)
                    if slot is None:
                        changes[key] = [p, -n]
                    else:
                        slot[1] -= n
        return leaving, wanted

    # --- feasibility by type ---

    def _feasible(self, wanted: dict[str, dict], view: ResourceCatalog) -> bool:
        """True iff each type in `wanted` can meet its demands with the
        changes `wanted` (as `_wanted` gives them) makes to its demand index."""
        for rt, changes in wanted.items():
            if rt in view.pools:
                total = self._types[rt].total
                for key, (_, n) in changes.items():
                    # a pool has no instances for a Named or Property demand to
                    # draw on, so its index holds none
                    if n > 0 and key[0] != "quantity":
                        return False
                    total += n
                if total > view.pools[rt]:
                    return False
            elif not self._decide(rt, changes, view):
                return False
        return True

    def _decide(self, rt: str, changes: dict, view: ResourceCatalog) -> bool:
        """Decide one instance-backed type, with `changes` (as `_wanted`
        gives them) made to its demand index, and leave its kept assignment
        as complete as the demands allow.

        It repairs the assignment where it may have gone wrong since the
        last decision, or since the engine's start built it empty:
          - it re-tests the pairs on the instances that moved, which the
            catalog reports (`_read_moves`);
          - it trims each changed or dirty demand down to its amount;
          - it fills the deficits with `solve_feasibility`.
        """
        st = self._types.get(rt)
        if st is None:
            return False  # a type the catalog does not declare has no supply
        moved = self.catalog.drain_moves(rt)
        records = view.instances_of(rt)
        if moved:
            _read_moves(st, moved, changes, records, self.catalog.schema)
        if len(st.eligible) > 2 * len(st.demands) + 64:
            # the keys of long-gone promises would pile up; a search reads the held ones
            st.eligible = {key: found for key, found in st.eligible.items() if key in st.held}
        deficits: list = []
        demands = st.demands
        for key, (_, n) in changes.items():
            now = demands.get(key)
            _trim(st, key, n + (now[1] if now else 0), deficits)
        for key in st.dirty:
            if key not in changes:
                slot = demands.get(key)
                _trim(st, key, slot[1] if slot else 0, deficits)
        for key, _ in deficits:
            _eligible(st, key, changes, records, self.catalog.schema)
        return _settle(st, changes, solve_feasibility(st, deficits) is None)

    # --- internals ---

    def _insert(self, predicates: tuple[Predicate, ...], duration: int, now: int,
                unit: Optional[UnitToken], demands: dict, changes: dict) -> PromiseRecord:
        """Issue a record for `predicates`, which keeps their merged
        `demands`, and write into the demand index the `changes` its
        decision checked (as `_wanted` gives them)."""
        self._history.append(_ACTIVE)
        issue = len(self._history)
        rec = PromiseRecord(f"p-{issue}", predicates, now, now + duration, issue, demands)
        if unit is not None:
            self._journal.append((rec.id, None))
        self._admit(rec)
        self._count(changes, 1)
        # allocated tag: named instances get marked while the promise lives
        for p in predicates:
            if isinstance(p, Named):
                inst = self.catalog.instance(p.instance)
                if inst is not None and inst.status == STATUS_AVAILABLE:
                    self._set_status(p.instance, STATUS_PROMISED, unit)
        return rec

    def _admit(self, rec: PromiseRecord) -> None:
        """Put an active record in the table and the heap. The caller adds
        its demands to the index (`_count`)."""
        self.active[rec.id] = rec
        heapq.heappush(self._expiry, _expiry_entry(rec))

    def _retire(self, rec: PromiseRecord, status: int, unit: Optional[UnitToken]) -> None:
        """Clear the allocated tags of an active record's Named instances,
        then take it out of the table, leaving its final status byte
        (`_RELEASED` or `_EXPIRED`) behind. The caller takes its demands out
        of the index (`_count`). A tag write the catalog refuses raises
        before the table is touched, so `restore` finds no half retirement."""
        for p in rec.predicates:
            if isinstance(p, Named):
                inst = self.catalog.instance(p.instance)
                if inst is not None and inst.status == STATUS_PROMISED:
                    self._set_status(p.instance, STATUS_AVAILABLE, unit)
        if unit is not None:
            self._journal.append((rec.id, rec))
        del self.active[rec.id]
        self._history[rec.issue - 1] = status
        # entries of records that left before expiring would otherwise pile up
        if len(self._expiry) > 2 * len(self.active) + 1:
            self._expiry[:] = [_expiry_entry(r) for r in self.active.values()]
            heapq.heapify(self._expiry)

    def _count(self, changes: dict[str, dict], sign: int) -> None:
        """Add (sign 1) or take out (-1) `changes` in the demand index and
        its running totals: per type, demand key -> [predicate, change in
        amount], as a record's `demands` or `_wanted` give them. Mark each
        demand of a type with instances dirty or clean by whether the kept
        assignment holds its new amount. The one writer of the index."""
        for rt, deltas in changes.items():
            st = self._types[rt]
            index = st.demands
            for key, (p, n) in deltas.items():
                if not n:
                    continue
                n *= sign
                st.total += n
                slot = index.get(key)
                if slot is None:
                    slot = index[key] = [p, n]
                else:
                    slot[1] += n
                    if not slot[1]:
                        del index[key]
                if st.position:
                    have = st.held.get(key)
                    if (len(have) if have else 0) == slot[1]:
                        st.dirty.discard(key)
                    else:
                        st.dirty.add(key)

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


def _read_moves(st: FeasibilityProblem, moved, changes: dict, records, schema) -> None:
    """Bring `free` and the pairs up to date with the instances that moved,
    as the catalog's `moves` gives them: a pair on a taken instance, or on
    one whose demand no longer accepts its new properties, is dropped and
    its demand marked dirty; an untaken instance no demand holds is free.
    A property set forgets what was derived from the properties and derives
    each holder's eligibility again, but re-tests only the moved instances'
    pairs: no other instance's eligibility changed."""
    pairs, free, held, eligible = st.pairs, st.free, st.held, st.eligible
    if any(moved.values()):
        eligible.clear()
        st.buckets.clear()
        for key in held:
            if key in changes or key in st.demands:  # any other holder's trim drops all it holds
                _eligible(st, key, changes, records, schema)
    for iid, property_set in moved.items():
        pos = st.position[iid]
        key = pairs.get(pos)
        taken = records[pos].status == STATUS_TAKEN
        if key is not None:
            if not taken and (not property_set or key in eligible and pos in eligible[key][1]):
                continue
            del pairs[pos]
            have = held[key]
            have.discard(pos)
            if not have:
                del held[key]
            st.dirty.add(key)
        (free.discard if taken else free.add)(pos)


def _trim(st: FeasibilityProblem, key, want: int, deficits: list) -> None:
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


def _settle(st: FeasibilityProblem, changes: dict, feasible: bool) -> bool:
    """End a decision that gave every demand it looked at its amount with
    `changes` made (`feasible`), or that failed: mark dirty each demand
    whose held count may now differ from its amount in the demand index."""
    if not feasible:
        st.dirty.update(changes)
        return False
    st.dirty.clear()
    for key, (_, n) in changes.items():
        if n:
            st.dirty.add(key)
    return True


def _eligible(st: FeasibilityProblem, key, changes: dict, records, schema) -> tuple:
    """The positions of the instances, taken or not, that can serve demand
    `key` (its predicate read from `changes`, else from `st.demands`): in
    order, and as a container to test membership in.

    Cached in `st.eligible` until a property of the type's instances
    changes. A Property demand reads the per-property value buckets: for
    `at-least-in-order`, the buckets of the wanted rank and above.
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
        found = _matching(st, p, records, schema)
    st.eligible[key] = found
    return found


def _take_free(pairs: dict, held: dict, free: set, found: tuple, key, n: int) -> int:
    """Give demand `key` up to `n` units that are eligible (`found`, as
    `_augment` reads it) and free, in one pass over the smaller side;
    returns how many it took."""
    order, members = found
    walk, test = (free, members) if len(free) < len(order) else (order, free)
    mine = []
    for pos in walk:
        if pos in test:
            mine.append(pos)
            if len(mine) == n:
                break
    if mine:
        free.difference_update(mine)
        pairs.update(dict.fromkeys(mine, key))
        have = held.get(key)
        if have is None:
            held[key] = set(mine)
        else:
            have.update(mine)
    return len(mine)


def _augment(pairs: dict, held: dict, free: set, eligible: dict, start):
    """Give demand `start` one more unit along a shortest augmenting path.

    `pairs` maps each assigned unit to the demand holding it, `held` each
    demand to its units, `free` holds the unassigned units and `eligible`
    each demand that `start` or `pairs` names to its eligible units, in
    order and as a container to test membership in. Breadth-first over
    demands: a demand may take an eligible free unit, or one that another
    demand holds if that demand can in turn be given another. On success the
    units along the path move one step, `start` holds one more and the
    result is None. On failure nothing changes, and no assignment places
    this unit and every unit placed so far (Berge). The result is then the
    demands the search reached, which hold every untaken unit eligible for
    any of them and want one more; or (), when no unit is free.
    """
    if not free:
        return ()
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
                    return None
                key, pos = step
        for pos in order:
            owner = pairs.get(pos)
            if owner is not None and owner not in parent:
                parent[owner] = (key, pos)
                queue.append(owner)
    return parent


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


def _matching(st: FeasibilityProblem, p: Property, records, schema) -> tuple:
    """Eligibility of a Property demand, from the value buckets (kept in
    `st.buckets`) of the properties it constrains; the same instances
    `satisfies` accepts."""
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


def _expiry_entry(rec: PromiseRecord) -> tuple:
    return (rec.expires_at, rec.issue, rec.id)
