import pytest
from hypothesis import given
from hypothesis import strategies as st

from promisekit.catalog import CatalogSchema, PropertyDecl, ResourceTypeDecl
from promisekit.predicates import (
    AT_LEAST_IN_ORDER,
    EQUALS,
    FormMismatch,
    InstanceId,
    Named,
    PredicateInvalid,
    Property,
    PropertyConstraint,
    Quantity,
    predicate_from_wire,
    predicate_to_wire,
    satisfies,
    validate_predicate,
)


def schema():
    return CatalogSchema({
        "pink-widget": ResourceTypeDecl("pink-widget", pool_backed=True),
        "room": ResourceTypeDecl("room", pool_backed=False, properties={
            "floor": PropertyDecl("floor", domain=tuple(range(1, 13))),
            "view": PropertyDecl("view", domain=(True, False)),
        }),
        "seat": ResourceTypeDecl("seat", pool_backed=False, properties={
            "class": PropertyDecl("class", order=("economy", "business", "first")),
        }),
    })


class Inst:
    def __init__(self, rt, key, **props):
        self.id = InstanceId(rt, key)
        self.properties = props


def test_quantity_against_declared_pool_is_valid():
    validate_predicate(Quantity("pink-widget", 5), schema())


def test_zero_amount_rejected():
    with pytest.raises(PredicateInvalid) as exc:
        validate_predicate(Quantity("pink-widget", 0), schema())
    assert exc.value.code == "non-positive-amount"


def test_validation_checks_shape_not_satisfiability():
    # floor 13 can never be met (declared domain stops at 12) but the
    # predicate itself is well-formed
    p = Property("room", (PropertyConstraint("floor", EQUALS, 13),), 1)
    validate_predicate(p, schema())


def test_unknown_resource_type():
    with pytest.raises(PredicateInvalid) as exc:
        validate_predicate(Quantity("blue-widget", 1), schema())
    assert exc.value.code == "unknown-resource-type"


def test_unknown_property():
    p = Property("room", (PropertyConstraint("smoking", EQUALS, False),), 1)
    with pytest.raises(PredicateInvalid) as exc:
        validate_predicate(p, schema())
    assert exc.value.code == "unknown-property"


def test_at_least_needs_a_declared_order():
    p = Property("room", (PropertyConstraint("floor", AT_LEAST_IN_ORDER, 5),), 1)
    with pytest.raises(PredicateInvalid) as exc:
        validate_predicate(p, schema())
    assert exc.value.code == "illegal-comparator"


def test_unknown_comparator():
    p = Property("room", (PropertyConstraint("floor", "greater-than", 5),), 1)
    with pytest.raises(PredicateInvalid) as exc:
        validate_predicate(p, schema())
    assert exc.value.code == "illegal-comparator"


def test_empty_and_duplicate_constraints():
    with pytest.raises(PredicateInvalid) as exc:
        validate_predicate(Property("room", (), 1), schema())
    assert exc.value.code == "empty-constraints"
    dup = Property("room", (PropertyConstraint("floor", EQUALS, 5),
                            PropertyConstraint("floor", EQUALS, 6)), 1)
    with pytest.raises(PredicateInvalid) as exc:
        validate_predicate(dup, schema())
    assert exc.value.code == "duplicate-property"


def test_named_predicate_validates_type_only():
    validate_predicate(Named(InstanceId("room", "512")), schema())
    with pytest.raises(PredicateInvalid):
        validate_predicate(Named(InstanceId("suite", "1")), schema())


def test_room_with_view_satisfies_view_constraint():
    room = Inst("room", "512", floor=5, view=True)
    p = Property("room", (PropertyConstraint("view", EQUALS, True),), 1)
    assert satisfies(room, p, schema())


def test_named_is_identity_on_identifiers():
    room = Inst("room", "512", floor=5, view=True)
    assert satisfies(room, Named(InstanceId("room", "512")), schema())
    assert not satisfies(room, Named(InstanceId("room", "610")), schema())


def test_ordered_acceptability_upgrade():
    at_least_business = Property(
        "seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, "business"),), 1)
    economy = Inst("seat", "24G", **{"class": "economy"})
    first = Inst("seat", "1A", **{"class": "first"})
    assert not satisfies(economy, at_least_business, schema())
    assert satisfies(first, at_least_business, schema())


def test_quantity_form_mismatch():
    room = Inst("room", "512", floor=5, view=True)
    with pytest.raises(FormMismatch):
        satisfies(room, Quantity("room", 1), schema())


def test_missing_property_fails_constraint():
    bare = Inst("room", "700")
    p = Property("room", (PropertyConstraint("view", EQUALS, True),), 1)
    assert not satisfies(bare, p, schema())


def test_wrong_type_never_satisfies_property():
    seat = Inst("seat", "24G", **{"class": "first"})
    p = Property("room", (PropertyConstraint("view", EQUALS, True),), 1)
    assert not satisfies(seat, p, schema())


def test_bool_and_int_values_stay_distinct():
    room = Inst("room", "512", floor=1, view=True)
    floor_true = Property("room", (PropertyConstraint("floor", EQUALS, True),), 1)
    view_one = Property("room", (PropertyConstraint("view", EQUALS, 1),), 1)
    assert not satisfies(room, floor_true, schema())
    assert not satisfies(room, view_one, schema())


def test_order_ranks_keep_bool_and_int_apart():
    decl = PropertyDecl("level", order=(0, 1, True))
    assert [decl.rank(v) for v in (0, 1, True, False, "1")] == [0, 1, 2, -1, -1]
    s = CatalogSchema({"dial": ResourceTypeDecl("dial", pool_backed=False,
                                                properties={"level": decl})})
    at_least_true = Property("dial", (PropertyConstraint("level", AT_LEAST_IN_ORDER, True),), 1)
    assert not satisfies(Inst("dial", "a", level=1), at_least_true, s)
    assert satisfies(Inst("dial", "b", level=True), at_least_true, s)


@given(st.data())
def test_at_least_is_monotone_in_the_declared_order(data):
    levels = ("economy", "business", "first")
    have = data.draw(st.sampled_from(levels))
    want = data.draw(st.sampled_from(levels))
    seat = Inst("seat", "x", **{"class": have})
    p = Property("seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, want),), 1)
    result = satisfies(seat, p, schema())
    assert result == (levels.index(have) >= levels.index(want))
    if result:
        for weaker in levels[:levels.index(want) + 1]:
            weaker_p = Property(
                "seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, weaker),), 1)
            assert satisfies(seat, weaker_p, schema())


def test_exactly_one_instance_satisfies_a_named_predicate():
    instances = [Inst("seat", f"s{i}") for i in range(5)]
    target = Named(InstanceId("seat", "s3"))
    hits = [i for i in instances if satisfies(i, target, schema())]
    assert len(hits) == 1 and hits[0].id.key == "s3"


def test_validation_is_deterministic():
    p = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 2)
    for _ in range(3):
        validate_predicate(p, schema())


@pytest.mark.parametrize("pred", [
    Quantity("pink-widget", 5),
    Named(InstanceId("room", "512")),
    Property("seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, "business"),), 2),
])
def test_wire_form_round_trips(pred):
    assert predicate_from_wire(predicate_to_wire(pred)) == pred


@pytest.mark.parametrize("doc", [
    {"form": "quantity", "resource-type": "x"},
    {"form": "quantity", "resource-type": "x", "amount": 0},
    {"form": "quantity", "resource-type": "", "amount": 1},
    {"form": "named", "resource-type": "x"},
    {"form": "property", "resource-type": "x", "amount": 1, "constraints": []},
    {"form": "property", "resource-type": "x", "amount": 1,
     "constraints": [{"property": "p", "comparator": "nope", "value": 1}]},
    {"form": "teleport", "resource-type": "x"},
    {"form": "quantity", "resource-type": "x", "amount": 1, "extra": True},
    {"form": "property", "resource-type": "x", "amount": 1,
     "constraints": [{"property": "p", "comparator": "equals", "value": 1, "x": 2}]},
    "not-an-object",
])
def test_bad_wire_predicates_raise(doc):
    with pytest.raises(ValueError):
        predicate_from_wire(doc)
