import copy
import socket
import threading
import tracemalloc

import pytest

from promisekit import cli
from promisekit.catalog import CatalogError, DecrementPool, load_catalog
from promisekit.clock import LogicalClock
from promisekit.engine import PromiseEngine, UnknownPromiseId
from promisekit.harness import register_standard_handlers
from promisekit import predicates, service
from promisekit.predicates import (
    AT_LEAST_IN_ORDER,
    EQUALS,
    InstanceId,
    Named,
    Property,
    PropertyConstraint,
    Quantity,
)
from promisekit.protocol import (
    MAX_FRAME_BODY,
    MAX_REQUEST_ID,
    ActionMsg,
    Envelope,
    EnvironmentMsg,
    PromisePart,
    decode,
    encode,
    make_request,
    recv_frame,
    send_frame,
)
from promisekit.service import (
    PromiseManager,
    RecentRequestIds,
    Server,
    ServiceError,
    serve,
    ServiceConfig,
)

from conftest import HOTEL_DOC, NESTED_TOO_DEEP, SEAT_DOC, widget_doc


def widget_manager(count=10, **kwargs):
    mgr = PromiseManager(load_catalog(widget_doc(count)),
                         clock=LogicalClock(), **kwargs)
    register_standard_handlers(mgr)
    return mgr


def grant_envelope(amount, rid="r-1", duration=30, release=()):
    req = make_request(rid, [Quantity("pink-widget", amount)], duration, release)
    return Envelope(promise_part=PromisePart(requests=(req,)))


def purchase_envelope(amount, env_ids=(), options=()):
    env = EnvironmentMsg(tuple(env_ids), tuple(options)) if env_ids else None
    return Envelope(action=ActionMsg("purchase-stock",
                                     {"resource-type": "pink-widget", "amount": amount}),
                    environment=env)


def first_response(reply):
    return reply.promise_part.responses[0]


# --- the ordering flow end to end, in process ---

def test_order_process_flow():
    mgr = widget_manager(10)
    reply = mgr.handle(grant_envelope(5))
    resp = first_response(reply)
    assert resp.result == "accepted"

    reply = mgr.handle(purchase_envelope(5, (resp.promise_id,), ("release-after-success",)))
    assert reply.action.status == "succeeded"
    assert mgr.catalog.quantity_on_hand("pink-widget") == 5
    assert mgr.engine.status(resp.promise_id) == "released"


def test_reject_when_stock_is_short():
    mgr = widget_manager(3)
    resp = first_response(mgr.handle(grant_envelope(5)))
    assert resp.result == "rejected" and resp.promise_id is None


def test_failed_action_keeps_the_promise():
    mgr = widget_manager(10)
    resp = first_response(mgr.handle(grant_envelope(5)))
    before = mgr.state_digest()
    env = EnvironmentMsg((resp.promise_id,), ("release-after-success",))
    reply = mgr.handle(Envelope(
        action=ActionMsg("fail", {"reason": "no shipper available"}),
        environment=env))
    assert reply.action.status == "failed"
    assert reply.action.payload == {"reason": "no shipper available"}
    assert mgr.engine.status(resp.promise_id) == "active"
    assert mgr.state_digest() == before


def test_action_under_an_expired_promise():
    mgr = widget_manager(10)
    resp = first_response(mgr.handle(grant_envelope(5, duration=10)))
    mgr.clock.advance(10)
    before = mgr.state_digest()
    reply = mgr.handle(purchase_envelope(5, (resp.promise_id,), ("release-after-success",)))
    assert reply.action.status == "promise-expired"
    # table changed (record is now expired) but resources did not
    assert mgr.catalog.quantity_on_hand("pink-widget") == 10
    assert mgr.engine.status(resp.promise_id) == "expired"
    assert mgr.state_digest() != before


def test_overdrawing_an_unrelated_promise_rolls_back():
    mgr = widget_manager(10)
    first_response(mgr.handle(grant_envelope(5)))  # someone else's guarantee
    reply = mgr.handle(purchase_envelope(6))       # unprotected action
    assert reply.action.status == "rejected-by-promise-violation"
    assert mgr.catalog.quantity_on_hand("pink-widget") == 10
    assert mgr.counters["violations-rolled-back"] == 1


def test_retain_option_keeps_the_promise_on_success():
    mgr = widget_manager(4)
    resp = first_response(mgr.handle(grant_envelope(4)))
    reply = mgr.handle(purchase_envelope(4, (resp.promise_id,), ("retain",)))
    # consuming the last units while retaining the guarantee violates it
    assert reply.action.status == "rejected-by-promise-violation"
    assert mgr.engine.status(resp.promise_id) == "active"
    assert mgr.catalog.quantity_on_hand("pink-widget") == 4

    reply = mgr.handle(Envelope(action=ActionMsg("no-op"),
                                environment=EnvironmentMsg((resp.promise_id,), ("retain",))))
    assert reply.action.status == "succeeded"
    assert mgr.engine.status(resp.promise_id) == "active"


def test_release_only_happens_on_success():
    mgr = widget_manager(10)
    resp = first_response(mgr.handle(grant_envelope(4)))
    env = EnvironmentMsg((resp.promise_id,), ("release-after-success",))
    reply = mgr.handle(Envelope(action=ActionMsg("fail"), environment=env))
    assert reply.action.status == "failed"
    assert mgr.engine.status(resp.promise_id) == "active"
    reply = mgr.handle(Envelope(action=ActionMsg("no-op"), environment=env))
    assert reply.action.status == "succeeded"
    assert mgr.engine.status(resp.promise_id) == "released"


def test_grants_from_the_same_envelope_stand_when_the_action_fails():
    mgr = widget_manager(10)
    req = make_request("r-9", [Quantity("pink-widget", 2)], 30)
    reply = mgr.handle(Envelope(promise_part=PromisePart(requests=(req,)),
                                action=ActionMsg("fail")))
    resp = first_response(reply)
    assert resp.result == "accepted"
    assert reply.action.status == "failed"
    assert mgr.engine.status(resp.promise_id) == "active"


def test_unknown_action_still_processes_promise_requests():
    mgr = widget_manager(10)
    req = make_request("r-1", [Quantity("pink-widget", 2)], 30)
    reply = mgr.handle(Envelope(promise_part=PromisePart(requests=(req,)),
                                action=ActionMsg("untaught-verb")))
    assert first_response(reply).result == "accepted"
    assert reply.action.status == "unknown-action"


def test_environment_with_unknown_and_inactive_ids():
    mgr = widget_manager(10)
    reply = mgr.handle(purchase_envelope(1, ("p-404",), ("retain",)))
    assert reply.action.status == "unknown-promise-id"
    assert mgr.catalog.quantity_on_hand("pink-widget") == 10

    resp = first_response(mgr.handle(grant_envelope(1)))
    mgr.handle(Envelope(action=ActionMsg("no-op"),
                        environment=EnvironmentMsg((resp.promise_id,),
                                                   ("release-after-success",))))
    reply = mgr.handle(purchase_envelope(1, (resp.promise_id,), ("retain",)))
    assert reply.action.status == "promise-expired"


def test_exchange_via_release_on_grant():
    mgr = widget_manager(10)
    resp = first_response(mgr.handle(grant_envelope(8, rid="a")))
    stronger = first_response(mgr.handle(
        grant_envelope(11, rid="b", release=(resp.promise_id,))))
    assert stronger.result == "rejected"
    assert mgr.engine.status(resp.promise_id) == "active"
    weaker = first_response(mgr.handle(
        grant_envelope(3, rid="c", release=(resp.promise_id,))))
    assert weaker.result == "accepted"
    assert mgr.engine.status(resp.promise_id) == "released"


def test_invalid_predicate_is_rejected_not_crashed():
    mgr = widget_manager(10)
    req = make_request("r-1", [Quantity("no-such-type", 1)], 30)
    resp = first_response(mgr.handle(Envelope(promise_part=PromisePart(requests=(req,)))))
    assert resp.result == "rejected"


def test_every_rejected_request_is_counted():
    mgr = widget_manager(10)
    p1 = first_response(mgr.handle(grant_envelope(1))).promise_id
    mgr.handle(Envelope(action=ActionMsg("no-op"),
                        environment=EnvironmentMsg((p1,), ("release-after-success",))))
    invalid = make_request("bad", [Quantity("no-such-type", 1)], 30)
    replies = [mgr.handle(grant_envelope(11, rid="short")),
               mgr.handle(grant_envelope(1, rid="unknown", release=("p-404",))),
               mgr.handle(grant_envelope(1, rid="inactive", release=(p1,))),
               mgr.handle(Envelope(promise_part=PromisePart(requests=(invalid,))))]
    assert [first_response(r).result for r in replies] == ["rejected"] * 4
    assert mgr.counters["rejections"] == 4


def test_handle_leaves_the_envelope_it_is_given_unchanged():
    # messages are mutable; the pipeline only reads them
    mgr = widget_manager(10)
    p1 = first_response(mgr.handle(grant_envelope(2))).promise_id
    exchange = grant_envelope(1, rid="r-2", release=(p1,))
    before = copy.deepcopy(exchange)
    p2 = first_response(mgr.handle(exchange)).promise_id
    assert p2 is not None and exchange == before
    for envelope in (grant_envelope(3, rid="r-3"),
                     purchase_envelope(1, (p2,), ("release-after-success",))):
        before = copy.deepcopy(envelope)
        reply = mgr.handle(envelope)
        assert reply.error is None and envelope == before
    assert mgr.engine.status(p2) == "released"


def test_duration_cap_shortens_the_guarantee():
    mgr = widget_manager(10, duration_cap=10)
    resp = first_response(mgr.handle(grant_envelope(1, duration=500)))
    assert resp.granted_duration == 10
    mgr.clock.advance(10)
    reply = mgr.handle(purchase_envelope(1, (resp.promise_id,), ("retain",)))
    assert reply.action.status == "promise-expired"


@pytest.mark.parametrize("cap", [0, -5, "60", True])
def test_duration_cap_must_be_a_positive_integer(cap):
    with pytest.raises(ServiceError) as exc:
        widget_manager(10, duration_cap=cap)
    assert exc.value.code == "config-error"


def test_handler_registration_guards():
    mgr = widget_manager(10)
    with pytest.raises(ServiceError) as exc:
        mgr.register_handler("purchase-stock", lambda p, u, c: {})
    assert exc.value.code == "duplicate-handler"


def test_nothing_to_process():
    mgr = widget_manager(1)
    reply = mgr.handle(Envelope(error="hello"))
    assert reply.error == "nothing-to-process"


def test_catalog_error_in_handler_is_a_business_failure():
    mgr = widget_manager(2)
    reply = mgr.handle(purchase_envelope(5))
    assert reply.action.status == "failed"
    assert reply.action.payload == {"reason": "pool-underflow"}
    assert mgr.catalog.quantity_on_hand("pink-widget") == 2


def test_promise_table_dump_action():
    mgr = widget_manager(10)
    first_response(mgr.handle(grant_envelope(5)))
    reply = mgr.handle(Envelope(action=ActionMsg("promise-table-dump")))
    dump = reply.action.payload
    assert reply.action.status == "succeeded"
    assert len(dump["promises"]) == 1
    assert dump["promises"][0]["predicates"] == [
        {"form": "quantity", "resource-type": "pink-widget", "amount": 5}]
    assert "catalog-digest" in dump


def test_a_dump_page_counts_the_grants_but_not_the_rejections_of_its_own_envelope():
    """Grants stand in the table as soon as they are made; a rejection is
    counted once its reply commits, after the page is written."""
    mgr = widget_manager(10)
    requests = (make_request("r-1", [Quantity("pink-widget", 3)], 30),
                make_request("r-2", [Quantity("pink-widget", 20)], 30))
    reply = mgr.handle(Envelope(promise_part=PromisePart(requests=requests),
                                action=ActionMsg("promise-table-dump")))
    assert [r.result for r in reply.promise_part.responses] == ["accepted", "rejected"]
    assert reply.action.payload["counters"] == {
        "grants": 1, "rejections": 0, "releases": 0, "expiries": 0}
    page = mgr.handle(Envelope(action=ActionMsg("promise-table-dump"))).action.payload
    assert page["counters"] == {"grants": 1, "rejections": 1, "releases": 0, "expiries": 0}


# --- post-action checks cover only the types the action changed ---

def seats_and_rooms_manager():
    mgr = PromiseManager(load_catalog({"resource-types": [
        widget_doc()["resource-types"][0], HOTEL_DOC["resource-types"][0],
        SEAT_DOC["resource-types"][0]]}), clock=LogicalClock())
    register_standard_handlers(mgr)
    return mgr


def hold(mgr, predicate, rid):
    req = make_request(rid, [predicate], 30)
    resp = first_response(mgr.handle(Envelope(promise_part=PromisePart(requests=(req,)))))
    assert resp.result == "accepted"
    return resp.promise_id


FIRST_CLASS = Property("seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER, "first"),), 1)


def test_no_op_with_release_checks_nothing(decisions):
    mgr = seats_and_rooms_manager()
    pid = hold(mgr, FIRST_CLASS, "r-1")
    hold(mgr, Quantity("room", 1), "r-2")  # stays held: a check of every type would decide it
    decisions.clear()
    reply = mgr.handle(Envelope(action=ActionMsg("no-op"),
                                environment=EnvironmentMsg((pid,), ("release-after-success",))))
    assert reply.action.status == "succeeded"
    assert mgr.engine.status(pid) == "released"
    assert decisions == []


def test_action_is_checked_on_the_type_it_changes_only(decisions):
    mgr = seats_and_rooms_manager()
    hold(mgr, FIRST_CLASS, "r-1")
    hold(mgr, Quantity("room", 1), "r-2")
    decisions.clear()
    reply = mgr.handle(Envelope(action=ActionMsg(
        "take-named", {"resource-type": "room", "key": "512"})))
    assert reply.action.status == "succeeded"
    assert decisions == [{"room"}]
    decisions.clear()
    assert mgr.handle(purchase_envelope(3)).action.status == "succeeded"
    assert decisions == []


def test_only_an_action_that_cuts_supply_is_post_checked(monkeypatch):
    mgr = widget_manager(10)
    assert first_response(mgr.handle(grant_envelope(5))).result == "accepted"
    checked = []
    real = PromiseEngine.post_action_check

    def spy(self, view, types=None, release=()):
        checked.append(set(types))
        return real(self, view, types, release)

    monkeypatch.setattr(PromiseEngine, "post_action_check", spy)
    restock = Envelope(action=ActionMsg("restock", {"resource-type": "pink-widget", "amount": 3}))
    assert mgr.handle(restock).action.status == "succeeded"
    assert checked == []
    assert mgr.handle(purchase_envelope(2)).action.status == "succeeded"
    assert checked == [{"pink-widget"}]


@pytest.mark.parametrize("name,payload", [
    ("purchase-stock", {"resource-type": "pink-widget", "amount": -5}),
    ("purchase-stock", {"resource-type": "pink-widget", "amount": 0}),
    ("purchase-stock", {"resource-type": "pink-widget", "amount": 2.5}),
    ("restock", {"resource-type": "pink-widget", "amount": True}),
    ("restock", {"resource-type": "pink-widget", "amount": "1"}),
    ("purchase-stock", {"resource-type": ["pink-widget"], "amount": 1}),
    ("restock", {"resource-type": "", "amount": 1}),
    ("take-named", {"resource-type": "room", "key": ["512"]}),
    ("take-named", {"resource-type": "room", "key": ""}),
    ("take-matching", {"resource-type": ["room"], "constraints": []}),
    ("take-matching", {"resource-type": "room",
                       "constraints": [{"property": ["floor"], "comparator": "equals", "value": 5}]}),
    ("set-property", {"resource-type": "room", "key": "512", "property": ["floor"], "value": 6}),
    ("set-property", {"resource-type": "room", "key": None, "property": "floor", "value": 6}),
], ids=["negative-amount", "zero-amount", "fractional-amount", "bool-amount", "string-amount",
        "list-type", "empty-type", "list-key", "empty-key", "take-matching-list-type",
        "take-matching-list-property", "list-property", "null-key"])
def test_a_standard_handler_fails_a_payload_field_of_the_wrong_type(name, payload):
    mgr = seats_and_rooms_manager()
    before = mgr.state_digest()
    reply = mgr.handle(Envelope(action=ActionMsg(name, payload)))
    assert reply.error is None
    assert reply.action.status == "failed"
    assert mgr.state_digest() == before
    assert mgr.counters["internal-failures"] == 0


@pytest.mark.parametrize("rt,constraint", [
    ("room", {"property": "colour", "comparator": "equals", "value": "red"}),
    ("room", {"property": "floor", "comparator": "at-least-in-order", "value": 5}),
    ("castle", {"property": "floor", "comparator": "equals", "value": 5}),
    ("room", {"property": "floor", "comparator": "equals", "value": 99}),
    ("room", {"property": "view", "comparator": "equals", "value": 1}),
], ids=["undeclared-property", "order-on-a-domain", "undeclared-type",
        "value-outside-the-domain", "int-on-a-bool-domain"])
def test_take_matching_reports_a_bad_constraint_as_one(rt, constraint):
    """A constraint the schema refuses is the caller's error, not a
    shortage: the reason must not read as `resource-unavailable`."""
    mgr = seats_and_rooms_manager()
    before = mgr.state_digest()
    reply = mgr.handle(Envelope(action=ActionMsg(
        "take-matching", {"resource-type": rt, "constraints": [constraint]})))
    assert reply.action.status == "failed"
    assert reply.action.payload["reason"].startswith("bad constraints: ")
    assert mgr.state_digest() == before


def test_property_change_that_breaks_a_held_promise_is_rolled_back(decisions):
    mgr = seats_and_rooms_manager()
    hold(mgr, FIRST_CLASS, "r-1")
    before = mgr.state_digest()
    decisions.clear()
    reply = mgr.handle(Envelope(action=ActionMsg("set-property", {
        "resource-type": "seat", "key": "2A", "property": "class", "value": "economy"})))
    assert reply.action.status == "rejected-by-promise-violation"
    assert decisions == [{"seat"}]
    assert mgr.state_digest() == before
    assert mgr.counters["violations-rolled-back"] == 1


def test_grants_and_post_checks_copy_no_instances(decisions):
    mgr = seats_and_rooms_manager()
    hold(mgr, FIRST_CLASS, "r-1")
    hold(mgr, Quantity("room", 1), "r-2")
    reply = mgr.handle(Envelope(action=ActionMsg(
        "take-named", {"resource-type": "room", "key": "512"})))
    assert reply.action.status == "succeeded"
    assert decisions == [{"seat"}, {"room"}, {"room"}]  # two grants and the post-check


# --- history: a retired promise costs one status byte ---

def test_memory_and_envelopes_stay_flat_over_a_long_history():
    mgr = seats_and_rooms_manager()
    eng = mgr.engine
    traced = []
    tracemalloc.start()
    try:
        for _ in range(3):
            for _ in range(20_000):
                eng.grant([Quantity("pink-widget", 1)], 1, 0)
                eng.expire_sweep(1)
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # 20k, 40k and 60k expired promises: 15 MB more from 20k to 60k with a
    # record kept for each
    assert traced[2] - traced[0] < 200_000, traced
    assert eng.history() == "e" * 60_000 and not eng.active
    mgr.clock.advance(1)

    held = hold(mgr, Quantity("pink-widget", 2), "r-grant")
    swap = make_request("r-swap", [Quantity("pink-widget", 1)], 30, (held,))
    swapped = first_response(mgr.handle(Envelope(promise_part=PromisePart(requests=(swap,)))))
    assert swapped.result == "accepted" and eng.status(held) == "released"
    reply = mgr.handle(purchase_envelope(1, (swapped.promise_id,), ("release-after-success",)))
    assert reply.action.status == "succeeded"
    assert eng.status(swapped.promise_id) == "released"

    hold(mgr, FIRST_CLASS, "r-seat")
    reply = mgr.handle(Envelope(action=ActionMsg("set-property", {
        "resource-type": "seat", "key": "2A", "property": "class", "value": "economy"})))
    assert reply.action.status == "rejected-by-promise-violation"

    short = first_response(mgr.handle(grant_envelope(1, rid="r-short", duration=1)))
    mgr.clock.advance(1)
    assert mgr.handle(Envelope(action=ActionMsg("no-op"))).action.status == "succeeded"
    assert eng.status(short.promise_id) == "expired"
    assert eng.problems() == []


def test_the_table_dump_survives_a_long_history():
    mgr = widget_manager(10)
    eng = mgr.engine
    for _ in range(5_000):
        eng.release([eng.grant([Quantity("pink-widget", 1)], 30, 0).id])
        eng.grant([Quantity("pink-widget", 1)], 1, 0)
        eng.expire_sweep(1)
    mgr.clock.advance(1)
    live = [first_response(mgr.handle(grant_envelope(2, rid=rid))).promise_id
            for rid in ("r-1", "r-2")]
    body = mgr.handle_bytes(encode(Envelope(action=ActionMsg("promise-table-dump"))))
    reply = decode(body)
    assert reply.action.status == "succeeded" and len(body) <= MAX_FRAME_BODY
    assert [(row["promise-identifier"], row["status"]) for row in reply.action.payload["promises"]] \
        == [(pid, "active") for pid in live] == [("p-10001", "active"), ("p-10002", "active")]


def test_a_large_table_dumps_in_pages_that_each_fit_a_frame():
    mgr = widget_manager(10_000)
    eng = mgr.engine
    for _ in range(10_000):
        eng.grant([Quantity("pink-widget", 1)], 30, 0)
    listed, cursor, pages = [], None, 0
    while True:
        body = mgr.handle_bytes(encode(Envelope(action=ActionMsg("promise-table-dump", cursor))))
        reply = decode(body)
        assert reply.action.status == "succeeded" and len(body) <= MAX_FRAME_BODY
        page = reply.action.payload
        listed += [row["promise-identifier"] for row in page["promises"]]
        pages += 1
        if "next" not in page:
            break
        assert page["next"] == int(listed[-1][2:])
        cursor = {"after": page["next"]}
    assert pages > 1
    assert listed == [f"p-{n}" for n in range(1, 10_001)]


@pytest.mark.parametrize("cursor", [
    {"after": -1}, {"after": "3"}, {"after": True}, {"after": 1.5}, {"after": None},
    {"before": 3}, {"after": 3, "limit": 2}, [3], "3", 3,
], ids=["negative", "string", "bool", "fraction", "null", "other-member", "extra-member",
        "list", "string-payload", "number-payload"])
def test_a_malformed_dump_cursor_fails(cursor):
    mgr = widget_manager(10)
    first_response(mgr.handle(grant_envelope(1)))
    before = mgr.state_digest()
    reply = mgr.handle(Envelope(action=ActionMsg("promise-table-dump", cursor)))
    assert reply.action.status == "failed"
    assert mgr.state_digest() == before and mgr.counters["internal-failures"] == 0


def test_a_dump_cursor_lists_the_promises_issued_after_it():
    mgr = widget_manager(10)
    for rid in ("r-1", "r-2", "r-3"):
        first_response(mgr.handle(grant_envelope(1, rid=rid)))

    def listed(cursor):
        page = mgr.handle(Envelope(action=ActionMsg("promise-table-dump", cursor))).action.payload
        assert "next" not in page
        return [row["promise-identifier"] for row in page["promises"]]

    assert listed(None) == listed({}) == listed({"after": 0}) == ["p-1", "p-2", "p-3"]
    assert listed({"after": 2}) == ["p-3"]
    assert listed({"after": 3}) == listed({"after": 10 ** 30}) == []


def test_retired_and_malformed_ids_in_an_environment():
    mgr = widget_manager(20)
    released, expired = (first_response(mgr.handle(grant_envelope(1, rid=rid, duration=5)))
                         .promise_id for rid in ("r-1", "r-2"))
    for i in range(8):  # p-7 is issued, so a lenient parse of p-007 or p-\u0667 would find it
        first_response(mgr.handle(grant_envelope(1, rid=f"r-more-{i}", duration=30)))
    mgr.handle(Envelope(action=ActionMsg("no-op"),
                        environment=EnvironmentMsg((released,), ("release-after-success",))))
    mgr.clock.advance(5)

    def answer(pid):
        return mgr.handle(purchase_envelope(1, (pid,), ("retain",))).action.status

    for pid in ("p-0", "p-007", "p-1x", "q-1", "p-" + "9" * 5000, "p-\u0667", "p-", "p-11"):
        assert answer(pid) == "unknown-promise-id", pid
    assert answer(released) == answer(expired) == "promise-expired"
    assert (mgr.engine.status(released), mgr.engine.status(expired)) == ("released", "expired")

    before, counters = mgr.state_digest(), mgr.counters
    mgr.engine.release([released, expired])
    assert mgr.state_digest() == before and mgr.counters == counters
    with pytest.raises(UnknownPromiseId):
        mgr.engine.release(["p-007"])


class _UnscannableAssignment(dict):
    """A kept assignment that allows lookups and writes but no pass over its pairs."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the kept assignment was scanned or copied")

    __iter__ = keys = values = items = copy = __copy__ = __deepcopy__ = _refuse

    def plain(self) -> dict:
        """The pairs as a plain dict, read past the refusal."""
        return {pos: dict.__getitem__(self, pos) for pos in dict.__iter__(self)}


def test_warm_checks_never_scan_the_units_held_on_their_type(decisions):
    grades = ["low", "high"]
    mgr = PromiseManager(load_catalog({"resource-types": [{
        "name": "room", "properties": [{"name": "grade", "order": grades}],
        "instances": [{"key": f"r{i:04d}", "properties": {"grade": grades[i % 2]}}
                      for i in range(2000)]}]}), clock=LogicalClock())
    register_standard_handlers(mgr)
    high = (PropertyConstraint("grade", AT_LEAST_IN_ORDER, "high"),)
    for i in range(5):
        hold(mgr, Property("room", high, 100), f"r-high-{i}")
        hold(mgr, Quantity("room", 100), f"r-any-{i}")
    hold(mgr, Quantity("room", 1), "r-fill")  # the first warm check fills the first grant's share
    rooms = mgr.engine._types["room"]
    assert len(rooms.pairs) == 1001
    rooms.pairs = _UnscannableAssignment(rooms.pairs)
    decisions.clear()

    one = hold(mgr, Quantity("room", 1), "r-one")
    swap = make_request("r-swap", [Property("room", high, 1)], 30, (one,))
    swapped = first_response(mgr.handle(Envelope(promise_part=PromisePart(requests=(swap,)))))
    assert swapped.result == "accepted"
    used = next(iter(rooms.held[next(key for key in rooms.held if key[0] == "property")]))
    instance = mgr.catalog.snapshot_availability().instances_of("room")[used]
    reply = mgr.handle(Envelope(action=ActionMsg(
        "take-named", {"resource-type": "room", "key": instance.id.key})))
    assert reply.action.status == "succeeded"
    assert decisions == [{"room"}] * 3
    rooms.pairs = rooms.pairs.plain()
    assert used not in rooms.pairs and len(rooms.pairs) == 1002
    assert mgr.engine.problems() == []


def test_self_check_reports_a_stale_active_index():
    mgr = widget_manager(10, self_check=True)
    pid = first_response(mgr.handle(grant_envelope(2))).promise_id
    assert mgr.self_check_failures == []
    mgr.engine._history[int(pid[2:]) - 1] = ord("r")  # a status byte that says retired
    mgr.handle(Envelope(action=ActionMsg("no-op")))
    assert mgr.self_check_failures[-1]["problems"] == ["status bytes disagree with the table"]


# --- injected faults roll the whole envelope back ---

class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("stage", ["sweep", "requests", "action", "post-check", "commit"])
def test_fault_at_each_stage_restores_the_exact_state(stage):
    mgr = widget_manager(10)
    first_response(mgr.handle(grant_envelope(2, rid="warmup", duration=3)))
    mgr.clock.advance(1)
    before = mgr.state_digest()

    def hook(current):
        if current == stage:
            raise _Boom(stage)

    mgr.fault_hook = hook
    req = make_request("r-f", [Quantity("pink-widget", 1)], 30)
    reply = mgr.handle(Envelope(
        promise_part=PromisePart(requests=(req,)),
        action=ActionMsg("purchase-stock", {"resource-type": "pink-widget", "amount": 1})))
    mgr.fault_hook = None
    assert reply.error == "internal-failure"
    assert mgr.state_digest() == before
    assert mgr.counters["internal-failures"] == 1
    # the pipeline still works afterwards
    assert first_response(mgr.handle(grant_envelope(1, rid="after"))).result == "accepted"


@pytest.mark.parametrize("envelope, stages", [
    (Envelope(promise_part=PromisePart(requests=(
        make_request("r-s", [Quantity("pink-widget", 1)], 30),)),
        action=ActionMsg("purchase-stock", {"resource-type": "pink-widget", "amount": 1})),
     ["sweep", "requests", "action", "post-check", "commit"]),
    (Envelope(action=ActionMsg("restock", {"resource-type": "pink-widget", "amount": 1})),
     ["sweep", "requests", "action", "post-check", "commit"]),
    (grant_envelope(1, rid="r-s"), ["sweep", "requests", "commit"]),
], ids=["grant-and-cutting-action", "action-that-cuts-nothing", "grant-only"])
def test_the_hook_sees_each_stage_once_in_order(envelope, stages):
    mgr = widget_manager(10)
    first_response(mgr.handle(grant_envelope(2)))
    seen = []
    mgr.fault_hook = seen.append
    reply = mgr.handle(envelope)
    mgr.fault_hook = None
    assert reply.error is None
    assert seen == stages


def test_fault_rollback_restores_expired_records_for_resweep():
    mgr = widget_manager(10)
    resp = first_response(mgr.handle(grant_envelope(2, duration=2)))
    mgr.clock.advance(5)
    mgr.fault_hook = lambda stage: (_ for _ in ()).throw(_Boom()) \
        if stage == "commit" else None
    assert mgr.handle(grant_envelope(1, rid="r-x")).error == "internal-failure"
    mgr.fault_hook = None
    assert mgr.engine.status(resp.promise_id) == "active"  # rolled back
    mgr.handle(Envelope(action=ActionMsg("no-op")))
    assert mgr.engine.status(resp.promise_id) == "expired"  # re-swept


def _fault_at(stage):
    def hook(current):
        if current == stage:
            raise _Boom(stage)
    return hook


def test_a_whole_envelope_rollback_restores_the_counters():
    mgr = widget_manager(4)
    first_response(mgr.handle(grant_envelope(2)))
    short = first_response(mgr.handle(grant_envelope(1, rid="r-short", duration=5))).promise_id
    swapped = first_response(mgr.handle(grant_envelope(1, rid="r-swap"))).promise_id
    before = mgr.counters
    mgr.fault_hook = _fault_at("commit")
    # the unprotected purchase is a violation, then the commit fails
    assert mgr.handle(purchase_envelope(1)).error == "internal-failure"
    # and so is a rejected grant
    assert mgr.handle(grant_envelope(1, rid="r-2")).error == "internal-failure"
    # and an envelope that sweeps an expiry and grants by exchange
    mgr.clock.advance(5)
    exchange = grant_envelope(1, rid="r-3", release=(swapped,))
    assert mgr.handle(exchange).error == "internal-failure"
    mgr.fault_hook = None
    assert mgr.counters == {**before, "internal-failures": 3}
    assert (mgr.engine.status(short), mgr.engine.status(swapped)) == ("active", "active")
    # committed, the same envelope moves the counters the rollback put back
    assert first_response(mgr.handle(exchange)).result == "accepted"
    assert mgr.counters == {**before, "grants": before["grants"] + 1,
                            "releases": before["releases"] + 1,
                            "expiries": before["expiries"] + 1, "internal-failures": 3}


def test_a_rolled_back_grant_gives_its_id_back():
    mgr = widget_manager(10)
    assert first_response(mgr.handle(grant_envelope(1))).promise_id == "p-1"
    mgr.fault_hook = _fault_at("commit")
    assert mgr.handle(grant_envelope(1, rid="r-2")).error == "internal-failure"
    mgr.fault_hook = None
    assert first_response(mgr.handle(grant_envelope(1, rid="r-3"))).promise_id == "p-2"


def test_a_reissued_id_expires_at_its_own_time():
    mgr = widget_manager(10)
    mgr.fault_hook = _fault_at("commit")
    assert mgr.handle(grant_envelope(1, duration=2)).error == "internal-failure"
    mgr.fault_hook = None
    pid = first_response(mgr.handle(grant_envelope(1, rid="r-2", duration=10))).promise_id
    assert pid == "p-1"
    mgr.clock.advance(3)  # past the rolled-back record's expiry, not the reissue's
    assert mgr.handle(Envelope(action=ActionMsg("no-op"))).action.status == "succeeded"
    assert mgr.engine.status(pid) == "active"
    assert mgr.engine.problems() == []


# --- the demand index is written once per grant or exchange ---

_ROOM_512 = Named(InstanceId("room", "512"))
_FLOOR_5 = Property("room", (PropertyConstraint("floor", EQUALS, 5),), 1)


@pytest.mark.parametrize("held, wanted", [
    ([Quantity("room", 1)], [Quantity("room", 2)]),                 # the shared key rises
    ([Quantity("room", 2)], [Quantity("room", 1)]),                 # the shared key falls
    ([Quantity("room", 1), _ROOM_512], [_ROOM_512]),               # one key goes to 0
    ([_ROOM_512], [_ROOM_512]),                                     # the shared key stays
    ([_FLOOR_5], [Named(InstanceId("room", "610"))]),              # to 0 on a decided type
    ([Quantity("pink-widget", 3)], [Quantity("room", 1)]),          # a type the request does not name
])
def test_an_exchange_writes_the_index_once_and_a_commit_fault_undoes_it(
        monkeypatch, held, wanted):
    mgr = seats_and_rooms_manager()
    hold(mgr, Quantity("pink-widget", 2), "other")
    req = make_request("held", held, 30)
    pid = first_response(mgr.handle(Envelope(promise_part=PromisePart(requests=(req,))))).promise_id
    exchange = Envelope(promise_part=PromisePart(
        requests=(make_request("swap", wanted, 30, (pid,)),)))
    before, index = mgr.state_digest(), copy.deepcopy(mgr.engine._types)

    mgr.fault_hook = _fault_at("commit")
    assert mgr.handle(exchange).error == "internal-failure"
    mgr.fault_hook = None
    assert mgr.state_digest() == before and mgr.engine.problems() == []
    assert {rt: (st.total, st.demands) for rt, st in mgr.engine._types.items()} \
        == {rt: (st.total, st.demands) for rt, st in index.items()}

    writes = []
    real = PromiseEngine._count
    monkeypatch.setattr(PromiseEngine, "_count",
                        lambda self, *a: writes.append(a) or real(self, *a))
    assert first_response(mgr.handle(exchange)).result == "accepted"
    assert len(writes) == 1
    assert mgr.engine.problems() == []
    assert mgr.engine.status(pid) == "released"


def test_a_grant_and_an_exchange_build_each_predicate_key_once(monkeypatch):
    """Through `handle_bytes`, each predicate's demand key is computed once,
    when the decoder builds it; the engine reads the key it carries."""
    mgr = seats_and_rooms_manager()
    grant = encode(Envelope(promise_part=PromisePart(requests=(make_request(
        "g", [Quantity("pink-widget", 2), _ROOM_512, FIRST_CLASS], 30),))))
    keys = []
    real = predicates.demand_key
    monkeypatch.setattr(predicates, "demand_key", lambda *a: keys.append(a) or real(*a))
    assert first_response(decode(mgr.handle_bytes(grant))).result == "accepted"
    assert len(keys) == 3

    monkeypatch.setattr(predicates, "demand_key", real)
    exchange = encode(Envelope(promise_part=PromisePart(requests=(make_request(
        "x", [Quantity("pink-widget", 3), _FLOOR_5], 30, ("p-1",)),))))
    keys.clear()
    monkeypatch.setattr(predicates, "demand_key", lambda *a: keys.append(a) or real(*a))
    assert first_response(decode(mgr.handle_bytes(exchange))).result == "accepted"
    assert len(keys) == 2
    assert mgr.engine.problems() == []


def test_an_action_rolled_back_for_a_violation_restores_the_release_count():
    mgr = widget_manager(10)
    p1 = first_response(mgr.handle(grant_envelope(5))).promise_id
    first_response(mgr.handle(grant_envelope(5, rid="r-2")))
    reply = mgr.handle(purchase_envelope(6, (p1,), ("release-after-success",)))
    assert reply.action.status == "rejected-by-promise-violation"
    assert mgr.engine.status(p1) == "active"
    assert mgr.counters["releases"] == 0
    assert mgr.counters["violations-rolled-back"] == 1


def test_an_action_rolled_back_for_a_violation_leaves_the_table_as_it_was():
    # the post-check decides without the released promise and writes
    # nothing, so the rollback has no record to put back in the table
    mgr = widget_manager(10)
    p1 = first_response(mgr.handle(grant_envelope(5))).promise_id
    first_response(mgr.handle(grant_envelope(5, rid="r-2")))
    expiry, history, before = list(mgr.engine._expiry), mgr.engine.history(), mgr.state_digest()
    reply = mgr.handle(purchase_envelope(6, (p1,), ("release-after-success",)))
    assert reply.action.status == "rejected-by-promise-violation"
    assert mgr.engine._expiry == expiry and len(expiry) == 2
    assert mgr.engine.history() == history
    assert mgr.state_digest() == before
    assert mgr.engine.problems() == []


def test_a_release_that_fails_after_the_post_check_rolls_the_whole_envelope_back():
    # the handler swallows a refused mutation, which leaves its unit
    # aborted, so the release written after the post-check cannot clear
    # the promise tag of room 512: nothing of the envelope may stand
    mgr = seats_and_rooms_manager()
    pid = hold(mgr, Named(InstanceId("room", "512")), "r-1")

    def swallowing(payload, unit, catalog):
        try:
            catalog.apply_mutation(unit, DecrementPool("pink-widget", 99))
        except CatalogError:
            pass
        return {}

    mgr.register_handler("swallowing", swallowing)
    before = mgr.state_digest()
    reply = mgr.handle(Envelope(action=ActionMsg("swallowing"), environment=EnvironmentMsg(
        (pid,), ("release-after-success",))))
    assert reply.error == "internal-failure"
    assert mgr.engine.status(pid) == "active" and mgr.state_digest() == before
    assert mgr.engine.problems() == []


def test_handle_bytes_answers_undecodable_bytes_as_malformed():
    mgr = widget_manager(10)
    for body in (b"\xff\xfe", b"{", b"[]", b'{"promise-part": 5}'):
        assert mgr.handle_bytes(body) == encode(Envelope(error="malformed-message"))
    assert mgr.engine.active == {} and mgr.engine.history() == ""


def test_handle_bytes_is_handle_between_decode_and_encode():
    mgr, twin = widget_manager(10), widget_manager(10)
    for body in (encode(grant_envelope(4)), encode(grant_envelope(7, rid="r-2")),
                 encode(purchase_envelope(3))):
        assert mgr.handle_bytes(body) == encode(twin.handle(decode(body)))
    assert mgr.state_digest() == twin.state_digest()


def _with_unwritable_cut(mgr):
    """`mgr` with a "cut" handler that takes 3 widgets, then returns a
    payload that JSON cannot write."""
    def cut(payload, unit, catalog):
        catalog.apply_mutation(unit, DecrementPool("pink-widget", 3))
        return {"x": object()}

    mgr.register_handler("cut", cut)
    return mgr


_CUT_WITH_A_GRANT = Envelope(
    promise_part=PromisePart(requests=(make_request("r-cut", [Quantity("pink-widget", 2)], 30),)),
    action=ActionMsg("cut"))


def test_an_unwritable_reply_rolls_the_envelope_back():
    mgr = _with_unwritable_cut(widget_manager(10))
    before = mgr.state_digest()
    reply = decode(mgr.handle_bytes(encode(_CUT_WITH_A_GRANT)))
    assert reply.error == "internal-failure"
    assert mgr.state_digest() == before
    assert mgr.catalog.quantity_on_hand("pink-widget") == 10


# --- wire endpoint ---

class WireClient:
    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)

    def send_bytes(self, data):
        self.sock.sendall(data)

    def roundtrip(self, envelope):
        send_frame(self.sock, encode(envelope))
        return decode(recv_frame(self.sock))

    def close(self):
        self.sock.close()


@pytest.fixture
def server():
    mgr = widget_manager(10)
    srv = Server(mgr)
    yield mgr, srv
    srv.stop()


def test_wire_result_matches_in_process_result(server):
    mgr, srv = server
    twin = widget_manager(10)
    client = WireClient(srv.address)
    try:
        for envelope in [grant_envelope(5), grant_envelope(5, rid="r-2"),
                         grant_envelope(5, rid="r-3")]:
            assert client.roundtrip(envelope) == twin.handle(envelope)
    finally:
        client.close()


def test_a_dump_page_carries_every_counter_over_the_wire(server):
    mgr, srv = server
    _with_unwritable_cut(mgr)
    client = WireClient(srv.address)
    try:
        held = first_response(client.roundtrip(grant_envelope(5))).promise_id
        assert first_response(client.roundtrip(grant_envelope(6, rid="r-2"))).result == "rejected"
        assert client.roundtrip(purchase_envelope(6)).action.status \
            == "rejected-by-promise-violation"
        first_response(client.roundtrip(grant_envelope(2, rid="r-3", duration=5)))
        assert client.roundtrip(Envelope(action=ActionMsg("no-op"), environment=EnvironmentMsg(
            (held,), ("release-after-success",)))).action.status == "succeeded"
        mgr.clock.advance(5)
        assert client.roundtrip(Envelope(action=ActionMsg("no-op"))).action.status == "succeeded"
        assert client.roundtrip(_CUT_WITH_A_GRANT).error == "internal-failure"
        page = client.roundtrip(Envelope(action=ActionMsg("promise-table-dump"))).action.payload
    finally:
        client.close()
    assert page["promises"] == []
    assert page["counters"] == {"grants": 2, "rejections": 1, "releases": 1, "expiries": 1}
    assert page["service-counters"] == {"violations-rolled-back": 1, "internal-failures": 1}


def _with_oversized_cut(mgr, length):
    """`mgr` with a "cut" handler that takes 3 widgets, then returns a
    string of `length` characters."""
    def cut(payload, unit, catalog):
        catalog.apply_mutation(unit, DecrementPool("pink-widget", 3))
        return "x" * length

    mgr.register_handler("cut", cut)
    return mgr


def test_a_payload_over_the_frame_limit_rolls_the_envelope_back():
    mgr = _with_oversized_cut(widget_manager(10), MAX_FRAME_BODY)
    srv = Server(mgr)
    client = WireClient(srv.address)
    try:
        assert client.roundtrip(Envelope(action=ActionMsg("cut"))).error == "internal-failure"
        assert mgr.catalog.quantity_on_hand("pink-widget") == 10
        assert client.roundtrip(Envelope(action=ActionMsg("no-op"))).action.status == "succeeded"
    finally:
        client.close()
        srv.stop()


def test_a_reply_over_the_frame_limit_rolls_the_envelope_back_in_process():
    # the payload fits alone, but not with the response beside it
    mgr = _with_oversized_cut(widget_manager(10), MAX_FRAME_BODY - 100)
    before = mgr.state_digest()
    reply = decode(mgr.handle_bytes(encode(_CUT_WITH_A_GRANT)))
    assert reply.error == "internal-failure"
    assert mgr.catalog.quantity_on_hand("pink-widget") == 10
    assert mgr.state_digest() == before
    assert mgr.counters["internal-failures"] == 1


def test_a_committed_reply_over_the_frame_limit_is_answered_on_an_open_connection():
    # the payload fits alone, but not with the response beside it
    mgr = _with_oversized_cut(widget_manager(10), MAX_FRAME_BODY - 100)
    before = mgr.state_digest()
    srv = Server(mgr)
    client = WireClient(srv.address)
    try:
        assert client.roundtrip(_CUT_WITH_A_GRANT).error == "internal-failure"
        assert mgr.catalog.quantity_on_hand("pink-widget") == 10
        assert mgr.state_digest() == before
        assert client.roundtrip(Envelope(action=ActionMsg("no-op"))).action.status == "succeeded"
    finally:
        client.close()
        srv.stop()


def test_two_clients_race_for_the_last_widget():
    mgr = widget_manager(1)
    srv = Server(mgr)
    barrier = threading.Barrier(2)
    results = []

    def racer(name):
        client = WireClient(srv.address)
        try:
            barrier.wait()
            reply = client.roundtrip(grant_envelope(1, rid=f"{name}-r"))
            results.append(first_response(reply).result)
        finally:
            client.close()

    threads = [threading.Thread(target=racer, args=(n,)) for n in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    srv.stop()
    assert sorted(results) == ["accepted", "rejected"]


def test_concurrent_history_is_serializable():
    """Responses observed concurrently must match some sequential merge."""
    from itertools import combinations

    mgr = widget_manager(5)
    srv = Server(mgr)
    a_envelopes = [grant_envelope(3, rid="a1"), grant_envelope(2, rid="a2")]
    b_envelopes = [grant_envelope(4, rid="b1"), grant_envelope(1, rid="b2")]
    observed = {}
    barrier = threading.Barrier(2)

    def run_client(name, envelopes):
        client = WireClient(srv.address)
        try:
            barrier.wait()
            observed[name] = [client.roundtrip(e) for e in envelopes]
        finally:
            client.close()

    threads = [threading.Thread(target=run_client, args=("a", a_envelopes)),
               threading.Thread(target=run_client, args=("b", b_envelopes))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    srv.stop()

    # try every merge that preserves each client's own order
    def merges():
        for a_slots in combinations(range(4), 2):
            order = []
            a_iter = iter([("a", i) for i in range(2)])
            b_iter = iter([("b", i) for i in range(2)])
            for slot in range(4):
                order.append(next(a_iter) if slot in a_slots else next(b_iter))
            yield order

    source = {"a": a_envelopes, "b": b_envelopes}
    for order in merges():
        twin = widget_manager(5)
        replayed = {"a": [], "b": []}
        for name, idx in order:
            replayed[name].append(twin.handle(source[name][idx]))
        if replayed == observed:
            return
    raise AssertionError(f"no sequential order explains {observed}")


def test_malformed_body_gets_an_error_and_the_connection_survives(server):
    _, srv = server
    client = WireClient(srv.address)
    try:
        send_frame(client.sock, b"this is not json")
        reply = decode(recv_frame(client.sock))
        assert reply.error == "malformed-message"
        assert first_response(client.roundtrip(grant_envelope(1))).result == "accepted"
    finally:
        client.close()


def test_an_overlong_request_identifier_is_malformed_and_the_connection_survives(server):
    _, srv = server
    longest = "r" * MAX_REQUEST_ID
    body = encode(grant_envelope(1, rid=longest))
    client = WireClient(srv.address)
    try:
        send_frame(client.sock, body.replace(longest.encode(), longest.encode() + b"r"))
        assert decode(recv_frame(client.sock)).error == "malformed-message"
        response = first_response(client.roundtrip(grant_envelope(1, rid=longest)))
        assert response.result == "accepted" and response.correlation == longest
    finally:
        client.close()


def test_an_unwritable_reply_is_answered_and_the_connection_survives(server):
    mgr, srv = server
    _with_unwritable_cut(mgr)
    before = mgr.state_digest()
    client = WireClient(srv.address)
    try:
        assert client.roundtrip(_CUT_WITH_A_GRANT).error == "internal-failure"
        assert client.roundtrip(Envelope(action=ActionMsg("no-op"))).action.status == "succeeded"
        assert mgr.state_digest() == before
    finally:
        client.close()


def test_broken_framing_is_reported_then_closed(server):
    _, srv = server
    client = WireClient(srv.address)
    try:
        client.send_bytes(b"GARBAGEHEADER---")
        reply = decode(recv_frame(client.sock))
        assert reply.error == "malformed-message"
        try:
            assert client.sock.recv(1) == b""  # server hung up
        except ConnectionResetError:
            pass  # also a hangup: unread bytes make close() send RST
    finally:
        client.close()


def test_slow_sender_is_not_desynced(server):
    import time

    _, srv = server
    client = WireClient(srv.address)
    try:
        from promisekit.protocol import frame

        data = frame(encode(grant_envelope(1, rid="slow")))
        client.send_bytes(data[:6])   # header split across a long pause
        time.sleep(0.6)
        client.send_bytes(data[6:])
        reply = decode(recv_frame(client.sock))
        assert first_response(reply).result == "accepted"
    finally:
        client.close()


def test_duplicate_request_identifier_per_connection(server):
    _, srv = server
    client = WireClient(srv.address)
    try:
        assert first_response(client.roundtrip(grant_envelope(1, rid="dup"))).result == "accepted"
        reply = client.roundtrip(grant_envelope(1, rid="dup"))
        assert reply.error == "duplicate-request-identifier"
    finally:
        client.close()


def test_a_duplicate_older_than_the_window_is_handled_anew(monkeypatch):
    monkeypatch.setattr(service, "RECENT_REQUEST_IDS", 2)
    mgr, seen = widget_manager(10), RecentRequestIds()

    def ask(*rids):
        requests = tuple(make_request(rid, [Quantity("pink-widget", 1)], 30) for rid in rids)
        return decode(mgr.handle_bytes(encode(Envelope(promise_part=PromisePart(requests))), seen))

    assert first_response(ask("a")).result == "accepted"
    assert ask("a").error == "duplicate-request-identifier"
    assert ask("x", "a").error == "duplicate-request-identifier"  # remembers neither
    assert first_response(ask("b", "x")).result == "accepted"  # "a" falls out
    assert ask("b").error == ask("x").error == "duplicate-request-identifier"
    assert first_response(ask("a")).result == "accepted"
    assert ask("x").error == "duplicate-request-identifier"
    assert first_response(ask("b")).result == "accepted"
    assert len(mgr.engine.dump()["promises"]) == 5  # a refused envelope grants nothing


def test_the_duplicate_window_holds_over_one_connection(server, monkeypatch):
    monkeypatch.setattr(service, "RECENT_REQUEST_IDS", 2)
    _, srv = server
    client = WireClient(srv.address)
    try:
        for rid, want in [("dup", "accepted"), ("dup", None), ("r-2", "accepted"),
                          ("r-3", "accepted"), ("r-3", None), ("dup", "accepted")]:
            reply = client.roundtrip(grant_envelope(1, rid=rid))
            if want is None:
                assert reply.error == "duplicate-request-identifier"
            else:
                assert first_response(reply).result == want
    finally:
        client.close()


def test_bind_failure_is_reported():
    mgr = widget_manager(1)
    srv = Server(mgr)
    try:
        with pytest.raises(ServiceError) as exc:
            Server(widget_manager(1), host=srv.address[0], port=srv.address[1])
        assert exc.value.code == "bind-failure"
    finally:
        srv.stop()


def test_serve_from_config(tmp_path, monkeypatch):
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text('{"resource-types": [{"name": "pink-widget", "pool": 4}]}')
    config_path = tmp_path / "config.json"
    config_path.write_text(
        '{"host": "127.0.0.1", "port": 0, "catalog": "%s", "duration-cap": 60}'
        % catalog_path)
    monkeypatch.setenv("PROMISEKIT_CONFIG", str(config_path))
    srv = serve(ServiceConfig.resolve(None))
    try:
        client = WireClient(srv.address)
        resp = first_response(client.roundtrip(grant_envelope(4, duration=500)))
        assert resp.result == "accepted"
        assert resp.granted_duration == 60
        client.close()
    finally:
        srv.stop()


@pytest.mark.parametrize("text", [
    "not json", "[]", '{"self-check": "false"}', '{"port": "7341"}', '{"port": true}',
    '{"port": 70000}', '{"host": 7}', '{"catalog": 7}',
])
def test_config_file_errors_are_config_errors(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ServiceError) as exc:
        ServiceConfig.from_file(path)
    assert exc.value.code == "config-error"


@pytest.mark.parametrize("config,catalog,error", [
    (b"not json", b"", "error: config-error"),
    (b'{"catalog": "%s", "duration-cap": 0}', b'{"resource-types": []}', "error: config-error"),
    (b'{"catalog": "%s"}', b"not json", "error: parse-error"),
    pytest.param(b"\xff", b"", "error: config-error: ", id="config-not-utf-8"),
    pytest.param(NESTED_TOO_DEEP, b"", "error: config-error: ", id="config-nested-too-deep"),
    pytest.param(b'{"catalog": "%s"}', b"\xff", "error: parse-error: ", id="catalog-not-utf-8"),
    pytest.param(b'{"catalog": "%s"}', NESTED_TOO_DEEP, "error: parse-error: ",
                 id="catalog-nested-too-deep"),
])
def test_serve_reports_a_bad_config_and_exits_2(tmp_path, monkeypatch, capsys,
                                                config, catalog, error):
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_bytes(catalog)
    config_path = tmp_path / "config.json"
    config_path.write_bytes(config.replace(b"%s", bytes(catalog_path)))
    monkeypatch.delenv("PROMISEKIT_CONFIG", raising=False)
    assert cli.main(["serve", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(error)
