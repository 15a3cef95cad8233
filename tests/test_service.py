import copy
import socket
import threading

import pytest

from promisekit import cli
from promisekit.catalog import DecrementPool, load_catalog
from promisekit.clock import LogicalClock
from promisekit.engine import PromiseEngine
from promisekit.harness import register_standard_handlers
from promisekit.predicates import (
    AT_LEAST_IN_ORDER,
    Property,
    PropertyConstraint,
    Quantity,
)
from promisekit.protocol import (
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
    Server,
    ServiceError,
    serve,
    ServiceConfig,
)

from conftest import HOTEL_DOC, SEAT_DOC, widget_doc


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
    assert mgr.engine.record(resp.promise_id).status == "released"


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
    assert mgr.engine.record(resp.promise_id).status == "active"
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
    assert mgr.engine.record(resp.promise_id).status == "expired"
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
    assert mgr.engine.record(resp.promise_id).status == "active"
    assert mgr.catalog.quantity_on_hand("pink-widget") == 4

    reply = mgr.handle(Envelope(action=ActionMsg("no-op"),
                                environment=EnvironmentMsg((resp.promise_id,), ("retain",))))
    assert reply.action.status == "succeeded"
    assert mgr.engine.record(resp.promise_id).status == "active"


def test_release_only_happens_on_success():
    mgr = widget_manager(10)
    resp = first_response(mgr.handle(grant_envelope(4)))
    env = EnvironmentMsg((resp.promise_id,), ("release-after-success",))
    reply = mgr.handle(Envelope(action=ActionMsg("fail"), environment=env))
    assert reply.action.status == "failed"
    assert mgr.engine.record(resp.promise_id).status == "active"
    reply = mgr.handle(Envelope(action=ActionMsg("no-op"), environment=env))
    assert reply.action.status == "succeeded"
    assert mgr.engine.record(resp.promise_id).status == "released"


def test_grants_from_the_same_envelope_stand_when_the_action_fails():
    mgr = widget_manager(10)
    req = make_request("r-9", [Quantity("pink-widget", 2)], 30)
    reply = mgr.handle(Envelope(promise_part=PromisePart(requests=(req,)),
                                action=ActionMsg("fail")))
    resp = first_response(reply)
    assert resp.result == "accepted"
    assert reply.action.status == "failed"
    assert mgr.engine.record(resp.promise_id).status == "active"


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
    assert mgr.engine.record(resp.promise_id).status == "active"
    weaker = first_response(mgr.handle(
        grant_envelope(3, rid="c", release=(resp.promise_id,))))
    assert weaker.result == "accepted"
    assert mgr.engine.record(resp.promise_id).status == "released"


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
    assert mgr.engine.counters["rejections"] == 4


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
    assert mgr.engine.record(p2).status == "released"


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


def test_no_op_with_release_checks_nothing(builds, decisions):
    mgr = seats_and_rooms_manager()
    pid = hold(mgr, FIRST_CLASS, "r-1")
    hold(mgr, Quantity("room", 1), "r-2")  # stays held: a check of every type would decide it
    builds.clear()
    decisions.clear()
    reply = mgr.handle(Envelope(action=ActionMsg("no-op"),
                                environment=EnvironmentMsg((pid,), ("release-after-success",))))
    assert reply.action.status == "succeeded"
    assert mgr.engine.record(pid).status == "released"
    assert decisions == []
    assert builds == []


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

    def spy(self, released_ids, view, types=None):
        checked.append(set(types))
        return real(self, released_ids, view, types)

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


# --- per-envelope work does not depend on dead history ---

class _UnscannableTable(dict):
    """A promise table that allows lookups and writes but no pass over its records."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the promise table was scanned or copied")

    __iter__ = keys = values = items = copy = _refuse


def test_envelopes_never_scan_dead_history():
    mgr = seats_and_rooms_manager()
    eng = mgr.engine
    for _ in range(2500):
        eng.release([eng.grant([Quantity("pink-widget", 1)], 30, 0).id])
        eng.grant([Quantity("pink-widget", 1)], 1, 0)
        eng.expire_sweep(1)
    assert len(eng.table) == 5000 and not eng.active
    eng.table = _UnscannableTable(eng.table)
    mgr.clock.advance(1)

    held = hold(mgr, Quantity("pink-widget", 2), "r-grant")
    swap = make_request("r-swap", [Quantity("pink-widget", 1)], 30, (held,))
    swapped = first_response(mgr.handle(Envelope(promise_part=PromisePart(requests=(swap,)))))
    assert swapped.result == "accepted" and eng.record(held).status == "released"
    reply = mgr.handle(purchase_envelope(1, (swapped.promise_id,), ("release-after-success",)))
    assert reply.action.status == "succeeded"
    assert eng.record(swapped.promise_id).status == "released"

    hold(mgr, FIRST_CLASS, "r-seat")
    reply = mgr.handle(Envelope(action=ActionMsg("set-property", {
        "resource-type": "seat", "key": "2A", "property": "class", "value": "economy"})))
    assert reply.action.status == "rejected-by-promise-violation"

    short = first_response(mgr.handle(grant_envelope(1, rid="r-short", duration=1)))
    mgr.clock.advance(1)
    assert mgr.handle(Envelope(action=ActionMsg("no-op"))).action.status == "succeeded"
    assert eng.record(short.promise_id).status == "expired"


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
    del mgr.engine.active[pid]
    mgr.handle(Envelope(action=ActionMsg("no-op")))
    assert mgr.self_check_failures[-1]["problems"] == ["active index disagrees with the table"]


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


def test_fault_rollback_restores_expired_records_for_resweep():
    mgr = widget_manager(10)
    resp = first_response(mgr.handle(grant_envelope(2, duration=2)))
    mgr.clock.advance(5)
    mgr.fault_hook = lambda stage: (_ for _ in ()).throw(_Boom()) \
        if stage == "commit" else None
    assert mgr.handle(grant_envelope(1, rid="r-x")).error == "internal-failure"
    mgr.fault_hook = None
    assert mgr.engine.record(resp.promise_id).status == "active"  # rolled back
    mgr.handle(Envelope(action=ActionMsg("no-op")))
    assert mgr.engine.record(resp.promise_id).status == "expired"  # re-swept


def _fault_at(stage):
    def hook(current):
        if current == stage:
            raise _Boom(stage)
    return hook


def test_a_whole_envelope_rollback_restores_the_counters():
    mgr = widget_manager(2)
    first_response(mgr.handle(grant_envelope(2)))
    service_before, engine_before = dict(mgr.counters), dict(mgr.engine.counters)
    mgr.fault_hook = _fault_at("commit")
    # the unprotected purchase is a violation, then the commit fails
    assert mgr.handle(purchase_envelope(1)).error == "internal-failure"
    # and so is a rejected grant
    assert mgr.handle(grant_envelope(1, rid="r-2")).error == "internal-failure"
    mgr.fault_hook = None
    assert mgr.counters == {**service_before, "internal-failures": 2}
    assert mgr.engine.counters == engine_before


def test_an_action_rolled_back_for_a_violation_restores_the_release_count():
    mgr = widget_manager(10)
    p1 = first_response(mgr.handle(grant_envelope(5))).promise_id
    first_response(mgr.handle(grant_envelope(5, rid="r-2")))
    reply = mgr.handle(purchase_envelope(6, (p1,), ("release-after-success",)))
    assert reply.action.status == "rejected-by-promise-violation"
    assert mgr.engine.record(p1).status == "active"
    assert mgr.engine.counters["releases"] == 0
    assert mgr.counters["violations-rolled-back"] == 1


def test_handle_bytes_answers_undecodable_bytes_as_malformed():
    mgr = widget_manager(10)
    for body in (b"\xff\xfe", b"{", b"[]", b'{"promise-part": 5}'):
        assert mgr.handle_bytes(body) == encode(Envelope(error="malformed-message"))
    assert mgr.engine.table == {}


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
    ("not json", "", "error: config-error"),
    ('{"catalog": "%s", "duration-cap": 0}', '{"resource-types": []}', "error: config-error"),
    ('{"catalog": "%s"}', "not json", "error: parse-error"),
])
def test_serve_reports_a_bad_config_and_exits_2(tmp_path, monkeypatch, capsys,
                                                config, catalog, error):
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(catalog)
    config_path = tmp_path / "config.json"
    config_path.write_text(config.replace("%s", str(catalog_path)))
    monkeypatch.delenv("PROMISEKIT_CONFIG", raising=False)
    assert cli.main(["serve", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(error)
