import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promisekit.catalog import (
    CatalogError,
    DecrementPool,
    SetInstanceStatus,
    SetProperty,
    load_catalog,
    load_catalog_file,
    load_catalog_text,
)
from promisekit.predicates import InstanceId

from conftest import HOTEL_DOC, UNREADABLE, widget_doc


ROOM_512 = InstanceId("room", "512")


# --- loading ---

def test_load_pool_count():
    cat = load_catalog(widget_doc(10))
    assert cat.quantity_on_hand("pink-widget") == 10


def test_empty_document_is_an_empty_catalog():
    cat = load_catalog({})
    assert cat.schema.types == {}
    assert cat.dump_state() == {"resource-types": []}


def test_instance_property_outside_domain_is_rejected():
    doc = {"resource-types": [{
        "name": "room",
        "properties": [{"name": "floor", "domain": list(range(1, 13))}],
        "instances": [{"key": "1301", "properties": {"floor": 13}}],
    }]}
    with pytest.raises(CatalogError) as exc:
        load_catalog(doc)
    assert exc.value.code == "schema-violation"


def test_pool_and_instances_are_mutually_exclusive():
    doc = {"resource-types": [{"name": "room", "pool": 3, "instances": []}]}
    with pytest.raises(CatalogError) as exc:
        load_catalog(doc)
    assert exc.value.code == "schema-violation"


def test_initial_promised_status_is_rejected():
    doc = {"resource-types": [{
        "name": "room", "properties": [],
        "instances": [{"key": "512", "properties": {}, "status": "promised"}],
    }]}
    with pytest.raises(CatalogError) as exc:
        load_catalog(doc)
    assert exc.value.code == "schema-violation"


def test_missing_declared_property_is_rejected():
    doc = {"resource-types": [{
        "name": "room",
        "properties": [{"name": "view", "domain": [True, False]}],
        "instances": [{"key": "512", "properties": {}}],
    }]}
    with pytest.raises(CatalogError):
        load_catalog(doc)


@pytest.mark.parametrize("doc,code", [
    ([], "parse-error"),
    ({"resource-types": "x"}, "parse-error"),
    ({"resource-types": [{"pool": 3}]}, "parse-error"),
    ({"resource-types": [{"name": "a"}]}, "parse-error"),
    ({"resource-types": [{"name": "a", "pool": -1}]}, "schema-violation"),
    ({"resource-types": [{"name": "a", "pool": 1}, {"name": "a", "pool": 2}]}, "schema-violation"),
    ({"resource-types": [{"name": "a", "properties": [
        {"name": "p", "order": ["x", "x"]}], "instances": []}]}, "schema-violation"),
    ({"resource-types": [{"name": "a", "properties": [
        {"name": "p", "order": ["x"], "domain": ["x"]}], "instances": []}]}, "schema-violation"),
])
def test_bad_documents(doc, code):
    with pytest.raises(CatalogError) as exc:
        load_catalog(doc)
    assert exc.value.code == code


def test_load_not_json():
    with pytest.raises(CatalogError) as exc:
        load_catalog_text("{nope")
    assert exc.value.code == "parse-error"


@UNREADABLE
def test_a_file_that_is_not_json_text_is_a_parse_error(tmp_path, data):
    path = tmp_path / "catalog.json"
    path.write_bytes(data)
    with pytest.raises(CatalogError) as exc:
        load_catalog_file(path)
    assert exc.value.code == "parse-error"


def test_dump_load_round_trip():
    cat = load_catalog(HOTEL_DOC)
    again = load_catalog(cat.dump_state())
    assert again.state_digest() == cat.state_digest()


# --- units ---

def test_decrement_and_commit():
    cat = load_catalog(widget_doc(10))
    unit = cat.begin_unit()
    cat.apply_mutation(unit, DecrementPool("pink-widget", 5))
    cat.commit_unit(unit)
    assert cat.quantity_on_hand("pink-widget") == 5


def test_underflow_aborts_and_leaves_state_unchanged():
    cat = load_catalog(widget_doc(3))
    before = cat.state_digest()
    unit = cat.begin_unit()
    with pytest.raises(CatalogError) as exc:
        cat.apply_mutation(unit, DecrementPool("pink-widget", 5))
    assert exc.value.code == "pool-underflow"
    # the unit is now aborted: committing is refused until a rollback
    with pytest.raises(CatalogError):
        cat.commit_unit(unit)
    cat.rollback_unit(unit)
    assert cat.state_digest() == before


def test_status_rollback_restores_exact_state(hotel_catalog):
    unit = hotel_catalog.begin_unit()
    hotel_catalog.apply_mutation(unit, SetInstanceStatus(ROOM_512, "promised"))
    hotel_catalog.commit_unit(unit)
    before = hotel_catalog.state_digest()

    unit = hotel_catalog.begin_unit()
    hotel_catalog.apply_mutation(unit, SetInstanceStatus(ROOM_512, "taken"))
    assert hotel_catalog.instance(ROOM_512).status == "taken"
    hotel_catalog.rollback_unit(unit)
    assert hotel_catalog.instance(ROOM_512).status == "promised"
    assert hotel_catalog.state_digest() == before


def test_negative_decrement_restocks():
    cat = load_catalog(widget_doc(1))
    unit = cat.begin_unit()
    cat.apply_mutation(unit, DecrementPool("pink-widget", -4))
    cat.commit_unit(unit)
    assert cat.quantity_on_hand("pink-widget") == 5


@pytest.mark.parametrize("start,target", [
    ("taken", "available"),
    ("taken", "promised"),
    ("available", "available"),
    ("promised", "promised"),
])
def test_illegal_status_transitions(hotel_catalog, start, target):
    unit = hotel_catalog.begin_unit()
    if start != "available":
        if start == "taken":
            hotel_catalog.apply_mutation(unit, SetInstanceStatus(ROOM_512, "taken"))
        else:
            hotel_catalog.apply_mutation(unit, SetInstanceStatus(ROOM_512, start))
    with pytest.raises(CatalogError) as exc:
        hotel_catalog.apply_mutation(unit, SetInstanceStatus(ROOM_512, target))
    assert exc.value.code == "illegal-status-transition"
    hotel_catalog.rollback_unit(unit)


def test_decrement_is_only_for_pool_backed_types(hotel_catalog):
    unit = hotel_catalog.begin_unit()
    with pytest.raises(CatalogError) as exc:
        hotel_catalog.apply_mutation(unit, DecrementPool("room", 1))
    assert exc.value.code == "unknown-resource"
    hotel_catalog.rollback_unit(unit)


def test_set_property_respects_domain(hotel_catalog):
    unit = hotel_catalog.begin_unit()
    hotel_catalog.apply_mutation(unit, SetProperty(ROOM_512, "floor", 7))
    with pytest.raises(CatalogError) as exc:
        hotel_catalog.apply_mutation(unit, SetProperty(ROOM_512, "floor", 13))
    assert exc.value.code == "schema-violation"
    hotel_catalog.rollback_unit(unit)
    assert hotel_catalog.instance(ROOM_512).properties["floor"] == 5


def test_one_unit_at_a_time(widget_catalog):
    unit = widget_catalog.begin_unit()
    with pytest.raises(CatalogError):
        widget_catalog.begin_unit()
    widget_catalog.rollback_unit(unit)
    widget_catalog.begin_unit()  # usable again


def test_finished_token_is_dead(widget_catalog):
    unit = widget_catalog.begin_unit()
    widget_catalog.commit_unit(unit)
    with pytest.raises(CatalogError):
        widget_catalog.apply_mutation(unit, DecrementPool("pink-widget", 1))
    with pytest.raises(CatalogError):
        widget_catalog.commit_unit(unit)
    widget_catalog.rollback_unit(unit)  # idempotent no-op


@pytest.mark.parametrize("finish", ["commit_unit", "rollback_unit"])
def test_a_stale_token_is_refused_while_a_later_unit_is_open(hotel_catalog, finish):
    cat = hotel_catalog
    stale = cat.begin_unit()
    getattr(cat, finish)(stale)
    unit = cat.begin_unit()
    cat.apply_mutation(unit, SetInstanceStatus(ROOM_512, "taken"))
    room_610 = InstanceId("room", "610")
    for use in (lambda: cat.apply_mutation(stale, SetInstanceStatus(room_610, "taken")),
                lambda: cat.savepoint(stale),
                lambda: cat.rollback_to(stale, 0),
                lambda: cat.supply_cut_types(stale, 0),
                lambda: cat.commit_unit(stale),
                lambda: cat.snapshot_availability(stale)):
        with pytest.raises(CatalogError) as info:
            use()
        assert info.value.code == "unit-error"
    cat.rollback_unit(stale)  # a no-op: the open unit keeps its mutation
    assert cat.instance(ROOM_512).status == "taken"
    assert cat.instance(room_610).status == "available"
    cat.commit_unit(unit)  # the refusals did not abort the open unit
    assert cat.instance(ROOM_512).status == "taken"


def test_savepoint_rollback_to(widget_catalog):
    unit = widget_catalog.begin_unit()
    widget_catalog.apply_mutation(unit, DecrementPool("pink-widget", 2))
    mark = widget_catalog.savepoint(unit)
    widget_catalog.apply_mutation(unit, DecrementPool("pink-widget", 3))
    widget_catalog.rollback_to(unit, mark)
    widget_catalog.commit_unit(unit)
    assert widget_catalog.quantity_on_hand("pink-widget") == 8


@pytest.mark.parametrize("mutations,cut", [
    ([], set()),
    ([DecrementPool("pink-widget", 2)], {"pink-widget"}),
    ([DecrementPool("pink-widget", -2)], set()),
    ([DecrementPool("pink-widget", -3), DecrementPool("pink-widget", 2)], set()),
    ([DecrementPool("pink-widget", 2), DecrementPool("pink-widget", -2)], set()),
    ([SetInstanceStatus(ROOM_512, "promised")], set()),
    ([SetInstanceStatus(ROOM_512, "promised"), SetInstanceStatus(ROOM_512, "available")], set()),
    ([SetInstanceStatus(ROOM_512, "promised"), SetInstanceStatus(ROOM_512, "taken")], {"room"}),
    ([SetProperty(ROOM_512, "floor", 7)], {"room"}),
    ([SetInstanceStatus(ROOM_512, "taken"), DecrementPool("pink-widget", -1)], {"room"}),
])
def test_supply_cut_types_names_the_types_whose_supply_fell_after_the_mark(mutations, cut):
    cat = load_catalog({"resource-types": widget_doc()["resource-types"]
                        + HOTEL_DOC["resource-types"]})
    unit = cat.begin_unit()
    # what came before the mark is not the action's doing
    cat.apply_mutation(unit, DecrementPool("pink-widget", 1))
    cat.apply_mutation(unit, SetInstanceStatus(InstanceId("room", "610"), "taken"))
    mark = cat.savepoint(unit)
    for m in mutations:
        cat.apply_mutation(unit, m)
    assert cat.supply_cut_types(unit, mark) == cut


def test_rollback_to_clears_abort(widget_catalog):
    unit = widget_catalog.begin_unit()
    widget_catalog.apply_mutation(unit, DecrementPool("pink-widget", 2))
    mark = widget_catalog.savepoint(unit)
    with pytest.raises(CatalogError):
        widget_catalog.apply_mutation(unit, DecrementPool("pink-widget", 100))
    widget_catalog.rollback_to(unit, mark)
    widget_catalog.commit_unit(unit)  # abort cleared by rolling back past it
    assert widget_catalog.quantity_on_hand("pink-widget") == 8


# --- snapshots ---

def test_snapshot_reflects_loaded_state(widget_catalog):
    view = widget_catalog.snapshot_availability()
    assert view.quantity_on_hand("pink-widget") == 10


def test_snapshot_without_the_token_is_refused_while_a_unit_is_open(hotel_catalog):
    # while a unit is open only its token reads the state it is changing
    unit = hotel_catalog.begin_unit()
    hotel_catalog.apply_mutation(unit, SetInstanceStatus(ROOM_512, "taken"))
    with pytest.raises(CatalogError) as info:
        hotel_catalog.snapshot_availability()
    assert info.value.code == "unit-error"
    assert hotel_catalog.snapshot_availability(unit).instance(ROOM_512).status == "taken"
    hotel_catalog.rollback_unit(unit)
    assert hotel_catalog.snapshot_availability().instance(ROOM_512).status == "available"


def test_snapshot_outside_a_unit_is_the_live_view(widget_catalog):
    # with no unit open the view is the live committed state, not a copy
    view = widget_catalog.snapshot_availability()
    unit = widget_catalog.begin_unit()
    assert widget_catalog.snapshot_availability(unit) is view
    widget_catalog.apply_mutation(unit, DecrementPool("pink-widget", 9))
    widget_catalog.rollback_unit(unit)
    assert view.quantity_on_hand("pink-widget") == 10
    unit = widget_catalog.begin_unit()
    widget_catalog.apply_mutation(unit, DecrementPool("pink-widget", 9))
    widget_catalog.commit_unit(unit)
    assert view.quantity_on_hand("pink-widget") == 1
    assert widget_catalog.snapshot_availability() is view


def test_in_unit_view_is_live(hotel_catalog):
    unit = hotel_catalog.begin_unit()
    view = hotel_catalog.snapshot_availability(unit)
    hotel_catalog.apply_mutation(unit, SetInstanceStatus(ROOM_512, "taken"))
    assert view.instance(ROOM_512).status == "taken"
    assert view.quantity_on_hand("room") == 1
    hotel_catalog.rollback_unit(unit)


def test_snapshot_projects_instance_statuses(hotel_catalog):
    unit = hotel_catalog.begin_unit()
    hotel_catalog.apply_mutation(unit, SetInstanceStatus(ROOM_512, "promised"))
    hotel_catalog.commit_unit(unit)
    view = hotel_catalog.snapshot_availability()
    statuses = {str(r.id): r.status for r in view.instances}
    assert statuses == {"room/512": "promised", "room/610": "available"}
    assert view.quantity_on_hand("room") == 1  # derived: available instances only


def test_derived_pool_count_tracks_statuses(hotel_catalog):
    assert hotel_catalog.quantity_on_hand("room") == 2
    unit = hotel_catalog.begin_unit()
    hotel_catalog.apply_mutation(unit, SetInstanceStatus(ROOM_512, "taken"))
    hotel_catalog.commit_unit(unit)
    assert hotel_catalog.quantity_on_hand("room") == 1


# --- rollback is an exact inverse, property-tested ---

_mutations = st.lists(
    st.one_of(
        st.builds(DecrementPool, resource_type=st.just("pink-widget"),
                  amount=st.integers(-3, 6)),
        st.builds(SetInstanceStatus, instance=st.just(ROOM_512),
                  status=st.sampled_from(["available", "promised", "taken"])),
        st.builds(SetProperty, instance=st.just(InstanceId("room", "610")),
                  property_name=st.just("floor"), value=st.integers(0, 14)),
    ),
    max_size=12,
)


@settings(max_examples=120, deadline=None)
@given(_mutations)
def test_random_mutation_sequences_roll_back_exactly(mutations):
    doc = {"resource-types": [
        {"name": "pink-widget", "pool": 4},
        HOTEL_DOC["resource-types"][0],
    ]}
    cat = load_catalog(doc)
    before = cat.state_digest()
    unit = cat.begin_unit()
    for m in mutations:
        try:
            cat.apply_mutation(unit, m)
        except CatalogError:
            break  # first failure aborts the unit
    cat.rollback_unit(unit)
    assert cat.state_digest() == before


@settings(max_examples=60, deadline=None)
@given(_mutations)
def test_commit_then_reload_round_trips(mutations):
    doc = {"resource-types": [
        {"name": "pink-widget", "pool": 4},
        HOTEL_DOC["resource-types"][0],
    ]}
    cat = load_catalog(doc)
    unit = cat.begin_unit()
    for m in mutations:
        try:
            cat.apply_mutation(unit, m)
        except CatalogError:
            cat.rollback_unit(unit)
            return
    cat.commit_unit(unit)
    view = cat.snapshot_availability()
    if any(r.status == "promised" for r in view.instances):
        return  # promised tags are derived from a live table; not reloadable
    again = load_catalog(cat.dump_state())
    assert again.state_digest() == cat.state_digest()
