import inspect
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promisekit import engine
from promisekit.catalog import (
    STATUS_AVAILABLE,
    STATUS_PROMISED,
    STATUS_TAKEN,
    CatalogSchema,
    DecrementPool,
    InstanceRecord,
    PropertyDecl,
    ResourceCatalog,
    ResourceTypeDecl,
    SetInstanceStatus,
    SetProperty,
    load_catalog,
)
from promisekit.clock import LogicalClock
from promisekit.engine import (
    FeasibilityProblem,
    Problem,
    PromiseEngine,
    Rejection,
    UncertifiedAnswer,
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


def _problem(predicates, view):
    """The problem `check_satisfiable` builds for `predicates`, all of one type."""
    (rt, demands), = engine._merge(predicates).items()
    return build_feasibility_problem(rt, demands, view)


def _solve(problem):
    """Fill `problem`'s every demand from empty; the violator, or None."""
    return solve_feasibility(problem, [(key, n) for key, (_, n) in problem.demands.items()])


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
    named = Named(InstanceId("room", "512"))
    prob = _problem([named, floor5, Quantity("room", 1)], view_of(hotel_catalog))
    assert list(prob.position) == [InstanceId("room", "512"), InstanceId("room", "610")]
    assert [n for _, n in prob.demands.values()] == [1, 1, 1]
    assert [tuple(edge) for edge in prob.edges] == [
        (0,),       # named: exactly its own instance
        (0,),       # only 512 is on floor 5
        (0, 1),     # quantity over the instance-backed type
    ]
    assert prob.pairs == {} and prob.free == {0, 1}  # the search starts from empty
    # 512 cannot serve both the named pick and the floor-5 demand
    assert _solve(prob) == {named.key, floor5.key}


def test_identical_predicates_are_one_demand_with_their_amounts_summed(monkeypatch):
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
    prob = _problem(
        [Named(InstanceId("seat", "24G")), business, economy, Quantity("seat", 1),
         business, Quantity("seat", 1)],
        view_of(cat))
    assert [n for _, n in prob.demands.values()] == [1, 2, 1, 2]
    assert calls == []  # eligibility comes from the value buckets


def test_long_augmenting_path_needs_no_recursion():
    # A staircase: demand j holds slot j and also fits slot j+1, and the
    # only free slot is the last one. A new demand that fits only slot 0
    # gets it along an augmenting path through every demand of the chain.
    n = 2000
    pairs = {j: j for j in range(n)}  # slot -> the demand holding it
    held = {j: {j} for j in range(n)}
    eligible = {j: ((j, j + 1), frozenset((j, j + 1))) for j in range(n)}
    eligible["new"] = ((0,), frozenset((0,)))
    free = {n}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        assert engine._augment(pairs, held, free, eligible, "new") is None
    finally:
        sys.setrecursionlimit(limit)
    assert held == {"new": {0}, **{j: {j + 1} for j in range(n)}}
    assert pairs == {0: "new", **{j + 1: j for j in range(n)}}
    assert free == set()
    # The same staircase solved from empty, crowded by one demand more than
    # it has slots: the demand that fits only slot 0 goes first, so the
    # search for the last slot runs across the whole chain and fails, and
    # every demand is in the violator it leaves.
    assert _solve(_unit_problem([(j, j + 1) if j + 1 < n else (j,) for j in range(n)])) is None
    crowded = _unit_problem([(j, j + 1) if j + 1 < n else (j,) for j in range(n)] + [(0,)])
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        violator = _solve(crowded)
    finally:
        sys.setrecursionlimit(limit)
    assert violator == set(range(n + 1))


def _unit_problem(fans):
    """A problem of unit demands over unit slots: demand j may take the
    slots in `fans[j]`, and no slot is taken."""
    problem = FeasibilityProblem(demands={j: [Quantity("slot", 1), 1] for j in range(len(fans))})
    problem.free = {pos for fan in fans for pos in fan}
    problem.eligible.update((j, (tuple(fan), frozenset(fan))) for j, fan in enumerate(fans))
    return problem


def test_a_warm_fill_takes_free_units_without_searching(monkeypatch):
    # the first grant fills 20,000 units from empty and the second repairs
    # a deficit of 5,000 units; every unit either takes is free
    eng = PromiseEngine(load_catalog({"resource-types": [{
        "name": "slot", "instances": [{"key": f"s{i}"} for i in range(30000)]}]}))
    calls = []
    real = engine._augment
    monkeypatch.setattr(engine, "_augment", lambda *a: calls.append(a) or real(*a))
    assert not isinstance(eng.grant([Quantity("slot", 20000)], 30, 0), Rejection)
    assert not isinstance(eng.grant([Quantity("slot", 5000)], 30, 0), Rejection)
    assert calls == []
    assert eng.problems() == []


def _planted_matching(n, extra, rng):
    """The slots each of n unit demands over n unit slots may take: demand
    j its own slot (a shuffled one) and `extra` random others, so a
    perfect matching exists."""
    own = list(range(n))
    rng.shuffle(own)
    return [sorted({own[j]} | {rng.randrange(n) for _ in range(extra)}) for j in range(n)]


def test_a_planted_perfect_matching_is_feasible():
    assert _solve(_unit_problem(_planted_matching(3000, 3, random.Random(7)))) is None


def test_a_planted_matching_with_one_demand_over_the_supply_is_infeasible():
    rng = random.Random(7)
    fans = _planted_matching(3000, 3, rng)
    more = _unit_problem(fans + [sorted({rng.randrange(3000) for _ in range(3)})])
    violator = _solve(more)
    # a Hall violator: its demands can reach fewer slots than they want
    reach = {pos for j in violator for pos in more.eligible[j][0]}
    assert len(violator) > len(reach)


def test_a_long_at_least_in_order_chain_stays_feasible(monkeypatch):
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
    calls = []
    real = engine.satisfies
    monkeypatch.setattr(engine, "satisfies", lambda *a: calls.append(a) or real(*a))
    assert mgr.engine.problems() == []
    # one call per pair of the kept assignment and one per pair of the
    # answer solved from empty; no eligibility is derived with `satisfies`
    assert len(calls) == 2 * 600
    top = Property("room", (PropertyConstraint("level", AT_LEAST_IN_ORDER, "l0"),), 1)
    assert isinstance(mgr.engine.grant([top], 100, 0), Rejection)


def test_an_infeasible_answer_is_certified_with_one_satisfies_call_per_instance(monkeypatch):
    """A staircase of 1000 one-unit `at-least-in-order` demands, one per
    level, over 1000 instances, plus a Named demand on the lowest: one unit
    too many. The violator check tries each instance first against the
    demand that holds it in the failed assignment, which meets it, so the
    count does not depend on the order of the violator's set."""
    levels = list(range(1000))
    cat = load_catalog({"resource-types": [{
        "name": "slot", "properties": [{"name": "level", "order": levels}],
        "instances": [{"key": f"s{k}", "properties": {"level": k}} for k in levels]}]})
    staircase = [Property("slot", (PropertyConstraint("level", AT_LEAST_IN_ORDER, k),), 1)
                 for k in levels]
    calls = []
    real = engine.satisfies
    monkeypatch.setattr(engine, "satisfies", lambda *a: calls.append(a) or real(*a))
    assert not check_satisfiable(staircase + [Named(InstanceId("slot", "s0"))], view_of(cat))
    assert len(calls) == 1000


# --- certificates and the first check ---

_FLOOR5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)


def _floor5_rooms():
    """Nine floor-5 rooms and three floor-6 ones, with each floor-5 room
    promised by its own grant: nine predicates, more than the oracle takes."""
    eng = PromiseEngine(load_catalog({"resource-types": [{
        "name": "room", "properties": [{"name": "floor", "domain": [5, 6]}],
        "instances": [{"key": f"r{i:02}", "properties": {"floor": 5 if i < 9 else 6}}
                      for i in range(12)]}]}))
    for _ in range(9):
        assert not isinstance(eng.grant([_FLOOR5], 30, 0), Rejection)
    assert eng.problems() == []
    return eng


def _plant(monkeypatch, fault):
    """Make `_matching` return what `fault` makes of its eligible positions."""
    real = engine._matching

    def planted(st, p, records, schema):
        order = fault(real(st, p, records, schema)[0], records)
        return order, frozenset(order)

    monkeypatch.setattr(engine, "_matching", planted)


def test_an_ineligible_position_in_the_eligibility_is_caught(monkeypatch):
    eng = _floor5_rooms()
    _plant(monkeypatch, lambda order, records: (
        next(pos for pos, r in enumerate(records) if r.properties["floor"] != 5),) + order)
    assert eng.problems() == [Problem(
        "feasibility", "the feasible answer for 'room' does not check out against the catalog")]
    with pytest.raises(UncertifiedAnswer):
        check_satisfiable(eng.active_predicates(), view_of(eng.catalog))


def test_a_dropped_eligible_position_is_caught(monkeypatch):
    eng = _floor5_rooms()
    _plant(monkeypatch, lambda order, records: order[1:])
    assert eng.problems() == [Problem(
        "feasibility", "the infeasible answer for 'room' does not check out against the catalog")]
    with pytest.raises(UncertifiedAnswer):
        check_satisfiable(eng.active_predicates(), view_of(eng.catalog))


def test_a_first_grant_keeps_the_assignment_it_solved(hotel_catalog, decisions):
    eng = PromiseEngine(hotel_catalog)
    floor5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)
    assert not isinstance(eng.grant([floor5, Quantity("room", 1)], 30, 0), Rejection)
    rooms = eng._types["room"]
    key5, key1 = floor5.key, Quantity("room", 1).key
    assert rooms.pairs == {0: key5, 1: key1}  # 512 is the only floor-5 room
    assert rooms.held == {key5: {0}, key1: {1}}
    assert rooms.free == set() and rooms.dirty == set()
    assert decisions == [{"room"}]
    assert eng.problems() == []


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
    view = ResourceCatalog(_decomposition_schema(), {"bulk": draw(st.integers(0, 5))},
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
    return ResourceCatalog(_decomposition_schema(), {"bulk": 0}, twins)


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
        if check_satisfiable([p for p in preds if p.resource_type in others], view):
            assert check_satisfiable([p for p in preds if p.resource_type == rt], view) == full


def _two_type_catalog():
    return load_catalog({"resource-types": [
        {"name": "bulk", "pool": 5}, HOTEL_DOC["resource-types"][0],
        SEAT_DOC["resource-types"][0]]})


def _two_type_engine():
    return PromiseEngine(_two_type_catalog())


def test_grant_decides_only_the_types_it_names(decisions):
    eng = _two_type_engine()
    first = Property("seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, "first"),), 1)
    assert not isinstance(eng.grant([first], 30, 0), Rejection)
    floor5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)
    assert not isinstance(eng.grant([floor5], 30, 0), Rejection)
    assert not isinstance(eng.grant([Quantity("room", 1)], 30, 0), Rejection)
    assert eng.problems() == []  # the repaired assignment is complete
    assert isinstance(eng.grant([Named(InstanceId("room", "512"))], 30, 0), Rejection)
    assert decisions == [{"seat"}, {"room"}, {"room"}, {"room"}]


def test_pool_grants_decide_no_instance_type(decisions):
    eng = _two_type_engine()
    eng.grant([Named(InstanceId("seat", "2A"))], 30, 0)
    decisions.clear()
    assert not isinstance(eng.grant([Quantity("bulk", 3)], 30, 0), Rejection)
    assert isinstance(eng.grant([Quantity("bulk", 3)], 30, 0), Rejection)
    assert decisions == []


def test_only_the_engines_start_builds_a_problem(monkeypatch):
    built = []
    real = engine.build_feasibility_problem

    def spy(rt, demands, view):
        built.append((rt, dict(demands)))
        return real(rt, demands, view)

    monkeypatch.setattr(engine, "build_feasibility_problem", spy)
    cat = _two_type_catalog()
    eng = PromiseEngine(cat)
    assert built == [("bulk", {}), ("room", {}), ("seat", {})]
    built.clear()
    floor5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)
    first = Property("seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, "first"),), 1)
    held = eng.grant([floor5, Quantity("bulk", 2)], 5, 0)
    assert not isinstance(eng.grant([first, Quantity("room", 1)], 30, 0), Rejection)
    swapped = eng.grant([Named(InstanceId("room", "610"))], 5, 1, release=[held.id])
    assert not isinstance(swapped, Rejection)
    unit = cat.begin_unit()
    cat.apply_mutation(unit, SetInstanceStatus(InstanceId("room", "512"), STATUS_TAKEN))
    assert not eng.post_action_check(unit, {"room"})
    cat.rollback_unit(unit)
    assert eng.expire_sweep(6) == [swapped.id]
    assert not isinstance(eng.grant([Named(InstanceId("seat", "24G"))], 30, 6), Rejection)
    assert built == []
    assert eng.problems() == []


@pytest.mark.parametrize("set_property", [True, False])
def test_a_state_built_before_the_first_decision_follows_the_catalog(set_property):
    # before any promise on the type: one room taken, one moved off floor
    # 5 (a property set, which the first decision reads with the status
    # moves), and a take rolled back; grants then answer as the checker
    # does
    cat = load_catalog({"resource-types": [{
        "name": "room", "properties": [{"name": "floor", "domain": [5, 6]}],
        "instances": [{"key": f"r{i}", "properties": {"floor": 5}} for i in range(6)]}]})
    eng = PromiseEngine(cat)
    for mutation, commit in ((SetInstanceStatus(InstanceId("room", "r0"), STATUS_TAKEN), True),
                             (SetProperty(InstanceId("room", "r1"), "floor", 6), True),
                             (SetInstanceStatus(InstanceId("room", "r2"), STATUS_TAKEN), False)):
        if isinstance(mutation, SetProperty) and not set_property:
            continue
        unit = cat.begin_unit()
        cat.apply_mutation(unit, mutation)
        (cat.commit_unit if commit else cat.rollback_unit)(unit)
    assert eng.problems() == []
    floor5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)
    answers = []
    for request in ([Property(floor5.resource_type, floor5.constraints, 2)], [Named(InstanceId("room", "r0"))],
                    [Named(InstanceId("room", "r1"))], [floor5], [Quantity("room", 1)],
                    [Named(InstanceId("room", "r2"))], [Quantity("room", 1)]):
        expected = check_satisfiable(eng.active_predicates() + request, view_of(cat))
        answers.append(not isinstance(eng.grant(request, 30, 0), Rejection))
        assert answers[-1] == expected
        assert eng.problems() == []
    # five untaken rooms: r0 is taken, and then every room is promised
    assert answers == [True, False, True, True, True, False, False]


# --- grant ---

def test_grant_with_enough_stock():
    eng = PromiseEngine(load_catalog(widget_doc(10)))
    rec = eng.grant([Quantity("pink-widget", 5)], 30, 0)
    assert eng.status(rec.id) == "active" and rec.expires_at == 30
    assert eng.active[rec.id] is rec


def test_a_record_is_immutable():
    # the table, the journal and the expiry heap share it
    eng = PromiseEngine(load_catalog(widget_doc(10)))
    rec = eng.grant([Quantity("pink-widget", 5)], 30, 0)
    with pytest.raises(AttributeError):
        rec.expires_at = 0
    assert eng.active[rec.id].expires_at == 30


def test_grant_rejected_when_short_and_table_unchanged():
    eng = PromiseEngine(load_catalog(widget_doc(3)))
    before = dict(eng.active), eng.history()
    assert isinstance(eng.grant([Quantity("pink-widget", 5)], 30, 0), Rejection)
    assert (eng.active, eng.history()) == before


def test_a_grant_on_an_undeclared_type_is_refused_and_keeps_no_state():
    cat = load_catalog(widget_doc(3))
    eng = PromiseEngine(cat)
    assert isinstance(eng.grant([Quantity("ghost", 1)], 5, 0), Rejection)
    assert set(eng._types) == set(cat.schema.types)
    assert eng.problems() == []


def test_multi_predicate_grant_is_all_or_nothing():
    cat = load_catalog({"resource-types": [
        {"name": "flight-seat", "pool": 5},
        {"name": "rental-car", "pool": 0},
        {"name": "hotel-room", "pool": 5},
    ]})
    eng = PromiseEngine(cat)
    bundle = [Quantity("flight-seat", 1), Quantity("rental-car", 1), Quantity("hotel-room", 1)]
    assert isinstance(eng.grant(bundle, 60, 0), Rejection)
    assert eng.active == {} and eng.history() == ""
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
    assert eng.status(rec.id) == "released"


def test_release_unknown_id():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    with pytest.raises(UnknownPromiseId):
        eng.release(["p-404"])


def test_release_checks_all_ids_before_mutating():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    rec = eng.grant([Quantity("pink-widget", 1)], 30, 0)
    with pytest.raises(UnknownPromiseId):
        eng.release([rec.id, "p-404"])
    assert eng.status(rec.id) == "active"


def test_an_id_listed_twice_is_released_and_journaled_once():
    cat = load_catalog(widget_doc(5))
    eng = PromiseEngine(cat)
    rec = eng.grant([Quantity("pink-widget", 2)], 30, 0)
    unit = cat.begin_unit()
    mark = eng.snapshot()
    eng.release([rec.id, rec.id], unit)
    assert eng.snapshot() == mark + 1
    assert eng.history().count("r") == 1
    cat.commit_unit(unit)
    eng.commit()
    assert eng.problems() == []


# --- exchange ---

def test_exchange_to_a_stronger_promise_is_rejected_and_old_retained():
    eng = PromiseEngine(balance_catalog(150))
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    outcome = eng.grant([Quantity("balance", 200)], 50, 0, release=[old.id])
    assert isinstance(outcome, Rejection)
    assert eng.status(old.id) == "active"


def test_exchange_to_a_weaker_promise():
    eng = PromiseEngine(balance_catalog(150))
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    new = eng.grant([Quantity("balance", 50)], 50, 0, release=[old.id])
    assert not isinstance(new, Rejection) and new is not None
    assert eng.status(old.id) == "released"
    assert [r.predicates for r in eng.active_records()] == [(Quantity("balance", 50),)]


def test_exchange_with_no_new_predicates_is_refused():
    eng = PromiseEngine(balance_catalog(150))
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    with pytest.raises(ValueError):
        eng.grant([], 1, 0, release=[old.id])
    assert eng.status(old.id) == "active"


def test_exchange_of_inactive_or_unknown_id():
    eng = PromiseEngine(balance_catalog(150))
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    eng.release([old.id])
    with pytest.raises(UnknownPromiseId):
        eng.grant([Quantity("balance", 10)], 50, 0, release=[old.id])
    with pytest.raises(UnknownPromiseId):
        eng.grant([Quantity("balance", 10)], 50, 0, release=["p-404"])


def test_exchange_may_reuse_capacity_it_releases():
    eng = PromiseEngine(balance_catalog(100))
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    new = eng.grant([Quantity("balance", 100)], 50, 5, release=[old.id])
    assert not isinstance(new, Rejection)
    assert eng.status(old.id) == "released"


# --- expiry ---

def test_sweep_expires_at_the_boundary():
    eng = PromiseEngine(load_catalog(widget_doc(5)))
    rec = eng.grant([Quantity("pink-widget", 1)], 10, 0)
    assert eng.expire_sweep(9) == []
    assert eng.expire_sweep(10) == [rec.id]
    assert eng.status(rec.id) == "expired"


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
    assert eng.status(rec.id) == "expired"


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
            eng.grant([Quantity("bulk", 1)], rng.randint(1, 12), now, unit, release=[rng.choice(held)])
        else:
            now += rng.randint(0, 3)
            due = [pid for pid, r in eng.active.items() if r.expires_at <= now]
            assert eng.expire_sweep(now, unit) == sorted(due, key=lambda pid: int(pid[2:]))
            assert all(eng.status(pid) == "expired" for pid in due)
        assert eng.history().count("a") == len(eng.active)
        assert eng.problems(unit) == []

    for _ in range(200):
        unit = cat.begin_unit()
        step(unit)
        if rng.random() < 0.3:
            mark, cat_mark = eng.snapshot(), cat.savepoint(unit)
            history, active = eng.history(), dict(eng.active)
            for _ in range(rng.randint(1, 6)):
                step(unit)
            eng.restore(mark)
            cat.rollback_to(unit, cat_mark)
            assert eng.history() == history and eng.active == active
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

    eng, rooms = _held_rooms()
    rec = next(iter(eng.active.values()))
    eng.active[rec.id] = rec._replace(demands={})  # what its release would take out
    assert eng.problems() == [
        Problem("index", "a record's demands disagree with its predicates")]


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
    assert eng.post_action_check(unit, release=[mine.id])
    cat.commit_unit(unit)


def test_post_action_check_flags_overconsumption():
    cat = load_catalog(widget_doc(10))
    eng = PromiseEngine(cat)
    mine = eng.grant([Quantity("pink-widget", 5)], 30, 0)
    eng.grant([Quantity("pink-widget", 5)], 30, 0)
    unit = cat.begin_unit()
    _consume(cat, 6, unit)
    assert not eng.post_action_check(unit, release=[mine.id])
    cat.rollback_unit(unit)
    assert cat.quantity_on_hand("pink-widget") == 10


def test_post_action_check_writes_nothing_and_refuses_an_id_not_active():
    cat = load_catalog(widget_doc(11))
    eng = PromiseEngine(cat)
    mine = eng.grant([Quantity("pink-widget", 5)], 30, 0)
    eng.grant([Quantity("pink-widget", 5)], 30, 0)
    gone = eng.grant([Quantity("pink-widget", 1)], 30, 0)
    eng.release([gone.id])
    unit = cat.begin_unit()
    _consume(cat, 6, unit)
    for pid in ("p-404", gone.id):  # never issued, and released already
        with pytest.raises(UnknownPromiseId):
            eng.post_action_check(unit, release=[mine.id, pid])
    assert not eng.post_action_check(unit)
    assert eng.post_action_check(unit, release=[mine.id, mine.id])
    assert eng.status(mine.id) == "active" and eng.history() == "aar"
    cat.rollback_unit(unit)
    assert eng.problems() == []


def test_actions_touching_nothing_promised_stay_ok():
    cat = load_catalog({"resource-types": [
        {"name": "pink-widget", "pool": 10}, {"name": "blue-widget", "pool": 4}]})
    eng = PromiseEngine(cat)
    eng.grant([Quantity("pink-widget", 10)], 30, 0)
    unit = cat.begin_unit()
    cat.apply_mutation(unit, DecrementPool("blue-widget", 4))
    assert eng.post_action_check(unit)
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
    eng.catalog.pools["balance"] = -1
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
            eng.grant([Quantity("bulk", 1)], rng.randint(1, 10), now,
                      release=[rng.choice(eng.active_records()).id])
        view = view_of(cat)
        preds = eng.active_predicates()
        assert check_satisfiable(preds, view)
        assert brute_force_satisfiable(preds, view)
        assert eng.problems() == []


def _take_only(problem):
    """The solve from empty without re-routing: demands with the fewest
    eligible positions first, each takes the free ones it can and moves
    no other's."""
    free = set(problem.free)
    for key in sorted(problem.demands, key=lambda key: len(problem.eligible[key][0])):
        amount = problem.demands[key][1]
        mine = [pos for pos in problem.eligible[key][0] if pos in free][:amount]
        if len(mine) < amount:
            return False
        free -= set(mine)
    return True


def _rerouting_cases(rng, count):
    """Oracle-sized Property cases that are satisfiable but that the
    take-only solve rejects: only a solver that moves placed units gets
    them right."""
    found = []
    while len(found) < count:
        instances = [InstanceRecord(InstanceId("gadget", f"g{i}"),
                                    {"grade": rng.choice(_GRADES), "color": rng.choice(_COLORS)},
                                    STATUS_AVAILABLE) for i in range(rng.randint(3, 7))]
        view = ResourceCatalog(_decomposition_schema(), {"bulk": 0}, instances)
        preds = []
        for _ in range(rng.randint(2, 4)):
            constraints = [PropertyConstraint("grade", AT_LEAST_IN_ORDER, rng.choice(_GRADES))]
            if rng.random() < 0.5:
                constraints.append(PropertyConstraint("color", EQUALS, rng.choice(_COLORS)))
            preds.append(Property("gadget", tuple(constraints), rng.randint(1, 2)))
        if brute_force_satisfiable(preds, view) \
                and not _take_only(_problem(preds, view)):
            found.append((preds, view))
    return found


def test_cases_that_need_rerouting_match_the_oracle():
    for preds, view in _rerouting_cases(random.Random(11), 25):
        assert check_satisfiable(preds, view) == brute_force_satisfiable(preds, view)


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
    assert len(eng.history()) == 3
    unit = eng.catalog.begin_unit()
    mark = eng.snapshot()
    eng.release(["p-1"], unit)
    eng.restore(mark)  # p-1 re-enters the table after p-3, and is listed first
    eng.catalog.rollback_unit(unit)
    eng.release(["p-2"])
    assert [row["promise-identifier"] for row in eng.dump()["promises"]] == ["p-1", "p-3"]
