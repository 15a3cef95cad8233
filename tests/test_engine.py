import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promisekit import engine
from promisekit.catalog import (
    STATUS_AVAILABLE,
    STATUS_PROMISED,
    STATUS_TAKEN,
    AvailabilityView,
    CatalogSchema,
    DecrementPool,
    InstanceRecord,
    PropertyDecl,
    ResourceTypeDecl,
    load_catalog,
)
from promisekit.clock import LogicalClock
from promisekit.engine import (
    DemandNode,
    FeasibilityProblem,
    Problem,
    PromiseEngine,
    Rejection,
    SupplyNode,
    UnknownPromiseId,
    build_feasibility_problem,
    check_satisfiable,
    solve_feasibility,
)
from promisekit.oracle import brute_force_satisfiable, random_case
from promisekit.predicates import (
    AT_LEAST_IN_ORDER,
    EQUALS,
    InstanceId,
    Named,
    Property,
    PropertyConstraint,
    Quantity,
)
from promisekit.protocol import Envelope, PromisePart, make_request
from promisekit.service import PromiseManager

from conftest import HOTEL_DOC, SEAT_DOC, widget_doc


def balance_catalog(amount):
    return load_catalog({"resource-types": [{"name": "balance", "pool": amount}]})


def view_of(catalog):
    return catalog.snapshot_availability()


# --- check_satisfiable ---

def test_two_pool_promises_need_their_sum_on_hand():
    preds = [Quantity("balance", 100), Quantity("balance", 50)]
    assert not check_satisfiable(preds, view_of(balance_catalog(120)))
    assert check_satisfiable(preds, view_of(balance_catalog(150)))


def test_empty_predicate_set_is_vacuously_feasible():
    assert check_satisfiable([], view_of(balance_catalog(0)))


def test_property_demands_share_rooms_without_collision(hotel_catalog):
    # oracle-confirmed: 512 covers floor-5, 610 covers the view demand
    view_pred = Property("room", (PropertyConstraint("view", EQUALS, True),), 1)
    floor5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)
    view = view_of(hotel_catalog)
    assert brute_force_satisfiable([view_pred, floor5], view)
    assert check_satisfiable([view_pred, floor5], view)
    # two floor-5 demands compete for the single 512
    assert not brute_force_satisfiable([floor5, floor5], view)
    assert not check_satisfiable([floor5, floor5], view)


def test_named_instance_is_excluded_from_anonymous_counting(seat_catalog):
    eng = PromiseEngine(seat_catalog)
    granted = eng.grant([Named(InstanceId("seat", "24G"))], 30, 0)
    assert not isinstance(granted, Rejection)
    # two seats remain unpromised; asking for three must fail even though
    # three untaken seats exist
    outcome = eng.grant([Quantity("seat", 3)], 30, 0)
    assert isinstance(outcome, Rejection)
    assert not isinstance(eng.grant([Quantity("seat", 2)], 30, 0), Rejection)


def test_named_predicate_for_missing_instance_is_infeasible(seat_catalog):
    view = view_of(seat_catalog)
    assert not check_satisfiable([Named(InstanceId("seat", "99Z"))], view)


def test_problem_shape(hotel_catalog):
    floor5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)
    prob = build_feasibility_problem(
        [Named(InstanceId("room", "512")), floor5, Quantity("room", 1)],
        view_of(hotel_catalog))
    assert [s.key for s in prob.supplies] == ["inst:room/512", "inst:room/610"]
    assert prob.edges[0] == (0,)        # named: exactly one edge
    assert prob.edges[1] == (0,)        # only 512 is on floor 5
    assert prob.edges[2] == (0, 1)      # quantity over the instance-backed type
    assert prob.total_demand == 3


def test_interchangeable_instances_merge_and_named_picks_keep_their_edges(monkeypatch):
    cat = load_catalog({"resource-types": [{
        "name": "seat",
        "properties": [{"name": "class", "order": ["economy", "business", "first"]}],
        "instances": [{"key": k, "properties": {"class": c}} for k, c in
                      [("24G", "economy"), ("24H", "economy"), ("24J", "economy"),
                       ("2A", "first")]],
    }]})
    calls = []
    real = engine.satisfies
    monkeypatch.setattr(engine, "satisfies", lambda *a: calls.append(a) or real(*a))
    business = Property("seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, "business"),), 1)
    economy = Property("seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, "economy"),), 1)
    prob = build_feasibility_problem(
        [Named(InstanceId("seat", "24G")), business, economy, Quantity("seat", 1),
         business, Quantity("seat", 1)],
        view_of(cat))
    # identical predicates are one demand with the amounts summed
    assert [d.amount for d in prob.demands] == [1, 2, 1, 2]
    # 24H and 24J meet the same demands; the named 24G stays apart
    assert [(s.key, s.capacity) for s in prob.supplies] == [
        ("inst:seat/24G", 1), ("class:seat/24H+1", 2), ("inst:seat/2A", 1)]
    assert prob.edges[0] == (0,)
    assert prob.edges[1] == (2,)
    assert prob.edges[2] == (0, 1, 2)   # the named pick still serves Property...
    assert prob.edges[3] == (0, 1, 2)   # ...and Quantity demands
    # one evaluation per Property demand and distinct class value
    assert len(calls) == 2 * 2


def test_long_augmenting_path_needs_no_recursion():
    # A staircase: demand j fits slot j or j+1, the last demand only its own
    # slot. Supplies are listed from the top, so the first phase gives every
    # demand j < n-1 slot j+1, and the last demand then needs an augmenting
    # path through all 2n nodes.
    n = 2000
    index = [n - 1 - pos for pos in range(n)]
    supplies = tuple(SupplyNode(f"inst:slot/{n - 1 - i}", 1) for i in range(n))
    edges = tuple((index[j], index[j + 1]) if j + 1 < n else (index[j],) for j in range(n))
    demands = tuple(DemandNode(Quantity("slot", 1), 1) for _ in range(n))
    assert solve_feasibility(FeasibilityProblem(demands, supplies, edges))
    crowded = FeasibilityProblem(demands + (DemandNode(Quantity("slot", 1), 1),),
                                 supplies, edges + ((index[0],),))
    assert not solve_feasibility(crowded)


def _planted_matching(n, extra, rng):
    """n unit supplies and n unit demands: demand j meets its own supply
    (a shuffled one) and `extra` random others, so a perfect matching exists."""
    own = list(range(n))
    rng.shuffle(own)
    supplies = tuple(SupplyNode(f"inst:slot/{i}", 1) for i in range(n))
    edges = tuple(tuple(sorted({own[j]} | {rng.randrange(n) for _ in range(extra)}))
                  for j in range(n))
    demands = tuple(DemandNode(Quantity("slot", 1), 1) for _ in range(n))
    return FeasibilityProblem(demands, supplies, edges)


def test_a_planted_perfect_matching_is_feasible():
    assert solve_feasibility(_planted_matching(3000, 3, random.Random(7)))


def test_a_planted_matching_with_one_demand_over_the_supply_is_infeasible():
    rng = random.Random(7)
    prob = _planted_matching(3000, 3, rng)
    more = FeasibilityProblem(prob.demands + (DemandNode(Quantity("slot", 1), 1),),
                              prob.supplies,
                              prob.edges + (tuple(sorted({rng.randrange(3000) for _ in range(3)})),))
    assert not solve_feasibility(more)


def test_a_long_at_least_in_order_chain_stays_feasible():
    # level k is met by the instances of level k and above, so the 600
    # grants, made in a shuffled order, fit only as one instance per level
    levels = [f"l{k}" for k in range(600)]
    cat = load_catalog({"resource-types": [{
        "name": "room", "properties": [{"name": "level", "order": levels}],
        "instances": [{"key": f"r{k}", "properties": {"level": v}}
                      for k, v in enumerate(levels)]}]})
    mgr = PromiseManager(cat, clock=LogicalClock())
    order = list(range(600))
    random.Random(3).shuffle(order)
    for k in order:
        pred = Property("room", (PropertyConstraint("level", AT_LEAST_IN_ORDER, levels[k]),), 1)
        reply = mgr.handle(Envelope(promise_part=PromisePart(
            requests=(make_request(f"q{k}", [pred], 100),))))
        assert reply.promise_part.responses[0].result == "accepted"
    assert mgr.engine.problems() == []
    top = Property("room", (PropertyConstraint("level", AT_LEAST_IN_ORDER, "l0"),), 1)
    assert isinstance(mgr.engine.grant([top], 100, 0), Rejection)


# --- per-type decomposition ---

_GRADES = ("low", "mid", "high")
_COLORS = ("red", "blue")
_INSTANCE_TYPES = ("gadget", "widget")


def _decomposition_schema():
    props = {"grade": PropertyDecl("grade", order=_GRADES),
             "color": PropertyDecl("color", domain=_COLORS)}
    types = {"bulk": ResourceTypeDecl("bulk", pool_backed=True)}
    for rt in _INSTANCE_TYPES:
        types[rt] = ResourceTypeDecl(rt, pool_backed=False, properties=props)
    return CatalogSchema(types)


@st.composite
def decomposition_cases(draw):
    """A pool and two instance types, with demands that overlap on purpose:
    Named demands pick instances Property demands also match, and some
    predicates repeat."""
    instances = []
    for rt in _INSTANCE_TYPES:
        for i in range(draw(st.integers(0, 4))):
            instances.append(InstanceRecord(
                InstanceId(rt, f"{rt[0]}{i}"),
                {"grade": draw(st.sampled_from(_GRADES)),
                 "color": draw(st.sampled_from(_COLORS))},
                draw(st.sampled_from((STATUS_AVAILABLE, STATUS_PROMISED, STATUS_TAKEN)))))
    view = AvailabilityView(_decomposition_schema(), {"bulk": draw(st.integers(0, 5))},
                            instances)
    keys = [r.id for r in instances] + [InstanceId("gadget", "missing")]
    predicate = st.one_of(
        st.builds(Quantity, st.sampled_from(("bulk",) + _INSTANCE_TYPES), st.integers(1, 3)),
        st.builds(Named, st.sampled_from(keys)),
        st.builds(
            Property, st.sampled_from(_INSTANCE_TYPES),
            st.lists(st.one_of(
                st.builds(PropertyConstraint, st.just("grade"), st.just(AT_LEAST_IN_ORDER),
                          st.sampled_from(_GRADES)),
                st.builds(PropertyConstraint, st.just("color"), st.just(EQUALS),
                          st.sampled_from(_COLORS))),
                min_size=1, max_size=2, unique_by=lambda c: c.property_name).map(tuple),
            st.integers(1, 2)))
    preds = draw(st.lists(predicate, max_size=5))
    if preds:
        preds += draw(st.lists(st.sampled_from(preds), max_size=3))
    return draw(st.permutations(preds)), view


def _twin_gadgets():
    twins = [InstanceRecord(InstanceId("gadget", key), {"grade": "low", "color": "red"},
                            STATUS_AVAILABLE) for key in ("g0", "g1")]
    return AvailabilityView(_decomposition_schema(), {"bulk": 0}, twins)


@settings(max_examples=150, deadline=None)
@given(decomposition_cases())
@example(([Named(InstanceId("gadget", "g0"))] * 2, _twin_gadgets()))
def test_decomposed_check_agrees_with_the_oracle(case):
    preds, view = case
    full = check_satisfiable(preds, view)
    assert full == brute_force_satisfiable(preds, view)
    everything = ("bulk",) + _INSTANCE_TYPES
    for rt in everything:
        others = [t for t in everything if t != rt]
        if check_satisfiable(preds, view, others):
            assert check_satisfiable(preds, view, [rt]) == full


def _two_type_engine():
    return PromiseEngine(load_catalog({"resource-types": [
        {"name": "bulk", "pool": 5}, HOTEL_DOC["resource-types"][0],
        SEAT_DOC["resource-types"][0]]}))


def test_grant_builds_only_the_types_it_names(decisions, builds):
    eng = _two_type_engine()
    first = Property("seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, "first"),), 1)
    assert not isinstance(eng.grant([first], 30, 0), Rejection)
    floor5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)
    assert not isinstance(eng.grant([floor5], 30, 0), Rejection)
    assert not isinstance(eng.exchange([Named(InstanceId("room", "610"))], 30, [], 0),
                          Rejection)
    assert decisions == [{"seat"}, {"room"}, {"room"}]
    assert builds == [{"seat"}, {"room"}]  # the exchange repairs the room assignment


def test_grant_on_a_type_with_a_kept_assignment_builds_nothing(builds):
    eng = _two_type_engine()
    floor5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)
    assert not isinstance(eng.grant([floor5], 30, 0), Rejection)
    assert builds == [{"room"}]
    builds.clear()
    assert not isinstance(eng.grant([Quantity("room", 1)], 30, 0), Rejection)
    assert builds == []
    assert eng.problems() == []  # the repaired assignment is complete
    builds.clear()  # the checker's cold reference builds its own problem
    assert isinstance(eng.grant([Named(InstanceId("room", "512"))], 30, 0), Rejection)
    assert builds == []


def test_pool_grants_build_no_flow_problem(builds, decisions):
    eng = _two_type_engine()
    eng.grant([Named(InstanceId("seat", "2A"))], 30, 0)
    builds.clear()
    decisions.clear()
    assert not isinstance(eng.grant([Quantity("bulk", 3)], 30, 0), Rejection)
    assert isinstance(eng.grant([Quantity("bulk", 3)], 30, 0), Rejection)
    assert decisions == []
    assert builds == []


# --- grant ---

def test_grant_with_enough_stock():
    eng = PromiseEngine(load_catalog(widget_doc(10)))
    rec = eng.grant([Quantity("pink-widget", 5)], 30, 0)
    assert rec.status == "active" and rec.expires_at == 30
    assert eng.record(rec.id) is rec


def test_grant_rejected_when_short_and_table_unchanged():
    eng = PromiseEngine(load_catalog(widget_doc(3)))
    before = dict(eng.table)
    assert isinstance(eng.grant([Quantity("pink-widget", 5)], 30, 0), Rejection)
    assert eng.table == before


def test_multi_predicate_grant_is_all_or_nothing():
    cat = load_catalog({"resource-types": [
        {"name": "flight-seat", "pool": 5},
        {"name": "rental-car", "pool": 0},
        {"name": "hotel-room", "pool": 5},
    ]})
    eng = PromiseEngine(cat)
    bundle = [Quantity("flight-seat", 1), Quantity("rental-car", 1), Quantity("hotel-room", 1)]
    assert isinstance(eng.grant(bundle, 60, 0), Rejection)
    assert eng.table == {}
    assert not isinstance(eng.grant(bundle[::2], 60, 0), Rejection)


def test_grant_requires_predicates_and_positive_duration():
    eng = PromiseEngine(load_catalog(widget_doc(1)))
    with pytest.raises(ValueError):
        eng.grant([], 10, 0)
    with pytest.raises(ValueError):
        eng.grant([Quantity("pink-widget", 1)], 0, 0)


def test_rejected_then_smaller_retry_never_errors():
    eng = PromiseEngine(load_catalog(widget_doc(4)))
    eng.grant([Quantity("pink-widget", 3)], 30, 0)
    assert isinstance(eng.grant([Quantity("pink-widget", 2)], 30, 0), Rejection)
    outcome = eng.grant([Quantity("pink-widget", 1)], 30, 0)
    assert not isinstance(outcome, Rejection)


# --- release ---

def test_release_returns_capacity():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    first = eng.grant([Quantity("pink-widget", 5)], 30, 0)
    assert isinstance(eng.grant([Quantity("pink-widget", 5)], 30, 0), Rejection)
    eng.release([first.id])
    assert not isinstance(eng.grant([Quantity("pink-widget", 5)], 30, 0), Rejection)


def test_release_is_idempotent():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    rec = eng.grant([Quantity("pink-widget", 1)], 30, 0)
    eng.release([rec.id])
    eng.release([rec.id])
    assert eng.record(rec.id).status == "released"


def test_release_unknown_id():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    with pytest.raises(UnknownPromiseId):
        eng.release(["p-404"])


def test_release_checks_all_ids_before_mutating():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    rec = eng.grant([Quantity("pink-widget", 1)], 30, 0)
    with pytest.raises(UnknownPromiseId):
        eng.release([rec.id, "p-404"])
    assert eng.record(rec.id).status == "active"


def test_an_id_listed_twice_is_released_and_journaled_once():
    cat = load_catalog(widget_doc(5))
    eng = PromiseEngine(cat)
    rec = eng.grant([Quantity("pink-widget", 2)], 30, 0)
    unit = cat.begin_unit()
    mark = eng.snapshot()
    eng.release([rec.id, rec.id], unit)
    assert eng.snapshot() == mark + 1
    assert eng.counters["releases"] == 1
    cat.commit_unit(unit)
    eng.commit()
    assert eng.problems() == []


# --- exchange ---

def test_exchange_to_a_stronger_promise_is_rejected_and_old_retained():
    eng = PromiseEngine(balance_catalog(150))
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    outcome = eng.exchange([Quantity("balance", 200)], 50, [old.id], 0)
    assert isinstance(outcome, Rejection)
    assert eng.record(old.id).status == "active"


def test_exchange_to_a_weaker_promise():
    eng = PromiseEngine(balance_catalog(150))
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    new = eng.exchange([Quantity("balance", 50)], 50, [old.id], 0)
    assert not isinstance(new, Rejection) and new is not None
    assert eng.record(old.id).status == "released"
    assert [r.predicates for r in eng.active_records()] == [(Quantity("balance", 50),)]


def test_exchange_with_no_new_predicates_is_a_release():
    eng = PromiseEngine(balance_catalog(150))
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    assert eng.exchange([], 1, [old.id], 0) is None
    assert eng.record(old.id).status == "released"


def test_exchange_of_inactive_or_unknown_id():
    eng = PromiseEngine(balance_catalog(150))
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    eng.release([old.id])
    with pytest.raises(UnknownPromiseId):
        eng.exchange([Quantity("balance", 10)], 50, [old.id], 0)
    with pytest.raises(UnknownPromiseId):
        eng.exchange([Quantity("balance", 10)], 50, ["p-404"], 0)


def test_exchange_may_reuse_capacity_it_releases():
    eng = PromiseEngine(balance_catalog(100))
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    new = eng.exchange([Quantity("balance", 100)], 50, [old.id], 5)
    assert not isinstance(new, Rejection)
    assert eng.record(old.id).status == "released"


# --- expiry ---

def test_sweep_expires_at_the_boundary():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    rec = eng.grant([Quantity("pink-widget", 1)], 10, 0)
    assert eng.expire_sweep(9) == []
    assert eng.expire_sweep(10) == [rec.id]
    assert eng.record(rec.id).status == "expired"


def test_conflicting_grant_succeeds_after_expiry():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    eng.grant([Quantity("pink-widget", 5)], 10, 0)
    assert isinstance(eng.grant([Quantity("pink-widget", 1)], 10, 5), Rejection)
    eng.expire_sweep(10)
    assert not isinstance(eng.grant([Quantity("pink-widget", 1)], 10, 10), Rejection)


def test_releasing_an_expired_promise_is_a_no_op():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    rec = eng.grant([Quantity("pink-widget", 1)], 10, 0)
    eng.expire_sweep(10)
    eng.release([rec.id])
    assert eng.record(rec.id).status == "expired"


def test_sweep_returns_ids_in_issue_order():
    eng = PromiseEngine(load_catalog(widget_doc(20)))
    for i in range(12):
        eng.grant([Quantity("pink-widget", 1)], 12 - i, 0)  # later ids expire sooner
    assert eng.expire_sweep(12) == [f"p-{n}" for n in range(1, 13)]


def test_promises_that_leave_early_leave_no_pile_of_expiry_entries():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    for _ in range(1000):
        eng.release([eng.grant([Quantity("pink-widget", 1)], 10**6, 0).id])
    assert len(eng._expiry) <= 2


def _active_in_table(eng):
    return {pid: r for pid, r in eng.table.items() if r.status == "active"}


def test_active_index_sweep_and_journal_agree_with_the_table():
    rng = random.Random(11)
    cat = load_catalog({"resource-types": [{"name": "bulk", "pool": 5},
                                           SEAT_DOC["resource-types"][0]]})
    eng = PromiseEngine(cat)
    now = 0

    def step(unit):
        nonlocal now
        op = rng.random()
        held = list(eng.active)
        if op < 0.45:
            eng.grant([rng.choice([
                Quantity("bulk", rng.randint(1, 3)),
                Named(InstanceId("seat", rng.choice(["24G", "24H", "2A"]))),
                Property("seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, "business"),), 1),
            ])], rng.randint(1, 12), now, unit)
        elif op < 0.65 and held:
            eng.release([rng.choice(held)], unit)
        elif op < 0.8 and held:
            eng.exchange([Quantity("bulk", 1)], rng.randint(1, 12), [rng.choice(held)], now, unit)
        else:
            now += rng.randint(0, 3)
            due = [pid for pid, r in _active_in_table(eng).items() if r.expires_at <= now]
            assert eng.expire_sweep(now, unit) == sorted(due, key=lambda pid: int(pid[2:]))
        assert eng.active == _active_in_table(eng)
        assert eng.problems(unit) == []

    for _ in range(200):
        unit = cat.begin_unit()
        step(unit)
        if rng.random() < 0.3:
            mark, cat_mark = eng.snapshot(), cat.savepoint(unit)
            table, active = dict(eng.table), dict(eng.active)
            for _ in range(rng.randint(1, 6)):
                step(unit)
            eng.restore(mark)
            cat.rollback_to(unit, cat_mark)
            assert eng.table == table and eng.active == active
            assert eng.problems(unit) == []
        cat.commit_unit(unit)
        eng.commit()
        assert eng.problems() == []


def test_index_problems_reports_a_wrong_demand_index_or_kept_assignment():
    eng = _two_type_engine()
    floor5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)
    eng.grant([floor5], 30, 0)
    eng.grant([Quantity("room", 1)], 30, 0)
    assert eng.problems() == []
    rooms = eng._types["room"]
    # swap the two pairs, bookkeeping and all: 610 cannot serve the floor-5 demand
    (a, key_a), (b, key_b) = sorted(rooms.pairs.items())
    rooms.pairs.update({a: key_b, b: key_a})
    rooms.held = {key_a: {b}, key_b: {a}}
    assert eng.problems() == [Problem(
        "index", "kept assignment of 'room' is marked current but is not a complete assignment")]
    rooms.demands[("quantity", "room")][1] += 1
    assert eng.problems()[0] == Problem("index", "demand index disagrees with the table")


def _held_rooms():
    eng = _two_type_engine()
    eng.grant([Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)], 30, 0)
    eng.grant([Quantity("room", 1)], 30, 0)
    assert eng.problems() == []
    rooms = eng._types["room"]
    assert rooms.pairs and not rooms.dirty and not rooms.free
    return eng, rooms


def test_index_problems_reports_wrong_assignment_bookkeeping():
    eng, rooms = _held_rooms()
    pos = next(iter(rooms.pairs))
    del rooms.pairs[pos]
    rooms.free.add(pos)
    assert Problem("index", "held positions of 'room' disagree with its kept assignment") \
        in eng.problems()

    eng, rooms = _held_rooms()
    rooms.total += 1
    assert eng.problems() == [
        Problem("index", "running total of 'room' disagrees with its demands")]

    eng, rooms = _held_rooms()
    pos, key = next(iter(rooms.pairs.items()))
    del rooms.pairs[pos]
    del rooms.held[key]
    rooms.free.add(pos)
    assert eng.problems() == [
        Problem("index", "a demand of 'room' that holds other than its amount is not dirty"),
        Problem("index", "kept assignment of 'room' is marked current but is not a complete "
                         "assignment")]
    rooms.dirty.add(key)  # marked, the shortfall is what the next decision repairs
    assert eng.problems() == []

    eng, rooms = _held_rooms()
    rooms.free.add(next(iter(rooms.pairs)))
    assert eng.problems() == [
        Problem("index", "free instances of 'room' disagree with the catalog")]


# --- allocated tags for named promises ---

def test_named_grant_tags_and_release_untags(seat_catalog):
    eng = PromiseEngine(seat_catalog)
    iid = InstanceId("seat", "24G")
    rec = eng.grant([Named(iid)], 30, 0)
    assert seat_catalog.instance(iid).status == "promised"
    eng.release([rec.id])
    assert seat_catalog.instance(iid).status == "available"


def test_expiry_untags_named_instances(seat_catalog):
    eng = PromiseEngine(seat_catalog)
    iid = InstanceId("seat", "24G")
    eng.grant([Named(iid)], 10, 0)
    eng.expire_sweep(10)
    assert seat_catalog.instance(iid).status == "available"


def test_double_named_grant_is_rejected(seat_catalog):
    eng = PromiseEngine(seat_catalog)
    iid = InstanceId("seat", "24G")
    eng.grant([Named(iid)], 30, 0)
    assert isinstance(eng.grant([Named(iid)], 30, 0), Rejection)
    assert eng.problems() == []


# --- post-action check ---

def _consume(catalog, amount, unit):
    catalog.apply_mutation(unit, DecrementPool("pink-widget", amount))


def test_post_action_check_passes_when_remaining_promises_fit():
    cat = load_catalog(widget_doc(10))
    eng = PromiseEngine(cat)
    mine = eng.grant([Quantity("pink-widget", 5)], 30, 0)
    eng.grant([Quantity("pink-widget", 5)], 30, 0)
    unit = cat.begin_unit()
    _consume(cat, 5, unit)
    eng.release([mine.id], unit)
    assert eng.post_action_check([mine.id], cat.snapshot_availability(unit))
    cat.commit_unit(unit)


def test_post_action_check_flags_overconsumption():
    cat = load_catalog(widget_doc(10))
    eng = PromiseEngine(cat)
    mine = eng.grant([Quantity("pink-widget", 5)], 30, 0)
    eng.grant([Quantity("pink-widget", 5)], 30, 0)
    unit = cat.begin_unit()
    _consume(cat, 6, unit)
    eng.release([mine.id], unit)
    assert not eng.post_action_check([mine.id], cat.snapshot_availability(unit))
    cat.rollback_unit(unit)
    assert cat.quantity_on_hand("pink-widget") == 10


def test_actions_touching_nothing_promised_stay_ok():
    cat = load_catalog({"resource-types": [
        {"name": "pink-widget", "pool": 10}, {"name": "blue-widget", "pool": 4}]})
    eng = PromiseEngine(cat)
    eng.grant([Quantity("pink-widget", 10)], 30, 0)
    unit = cat.begin_unit()
    cat.apply_mutation(unit, DecrementPool("blue-widget", 4))
    assert eng.post_action_check([], cat.snapshot_availability(unit))
    cat.commit_unit(unit)


# --- table invariants ---

def test_pool_overcommit_helper():
    eng = PromiseEngine(balance_catalog(100))
    eng.grant([Quantity("balance", 60)], 30, 0)
    eng.grant([Quantity("balance", 40)], 30, 0)
    assert eng.problems() == []
    unit = eng.catalog.begin_unit()  # a purchase no post-check saw
    eng.catalog.apply_mutation(unit, DecrementPool("balance", 10))
    eng.catalog.commit_unit(unit)
    assert eng.problems() == [
        Problem("feasibility", "active set is not satisfiable"),
        Problem("pool-additivity", "pool 'balance': 100 promised, 90 on hand")]
    eng.catalog._pools["balance"] = -1
    assert Problem("pool-additivity", "pool 'balance' holds -1") in eng.problems()


def test_table_stays_feasible_after_random_operations():
    rng = random.Random(7)
    cat = load_catalog({"resource-types": [
        {"name": "bulk", "pool": 5},
        SEAT_DOC["resource-types"][0],
    ]})
    eng = PromiseEngine(cat)
    now = 0
    for _ in range(300):
        op = rng.random()
        if op < 0.5:
            preds = [rng.choice([
                Quantity("bulk", rng.randint(1, 3)),
                Named(InstanceId("seat", rng.choice(["24G", "24H", "2A"]))),
                Property("seat", (PropertyConstraint(
                    "class", AT_LEAST_IN_ORDER,
                    rng.choice(["economy", "business", "first"])),), 1),
            ])]
            eng.grant(preds, rng.randint(1, 10), now)
        elif op < 0.75 and eng.active_records():
            eng.release([rng.choice(eng.active_records()).id])
        elif op < 0.9:
            now += rng.randint(0, 3)
            eng.expire_sweep(now)
        elif eng.active_records():
            eng.exchange([Quantity("bulk", 1)], rng.randint(1, 10),
                         [rng.choice(eng.active_records()).id], now)
        view = view_of(cat)
        preds = eng.active_predicates()
        assert check_satisfiable(preds, view)
        assert brute_force_satisfiable(preds, view)
        assert eng.problems() == []


def test_flow_matches_exhaustive_oracle_on_random_cases():
    rng = random.Random(20240809)
    for _ in range(400):
        preds, view = random_case(rng)
        assert check_satisfiable(preds, view) == brute_force_satisfiable(preds, view)


def test_dump_is_deterministic_and_ordered():
    eng = PromiseEngine(load_catalog(widget_doc(9)))
    for _ in range(3):
        eng.grant([Quantity("pink-widget", 3)], 30, 0)
    dump = eng.dump()
    ids = [row["promise-identifier"] for row in dump["promises"]]
    assert ids == ["p-1", "p-2", "p-3"]
    assert dump["counters"]["grants"] == 3
