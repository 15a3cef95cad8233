"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random

from promisekit.catalog import digest_document, load_catalog
from promisekit.clock import LogicalClock
from promisekit.engine import PromiseEngine, Rejection, check_satisfiable
from promisekit.driver import contention_run, run_script
from promisekit.harness import register_standard_handlers
from promisekit.oracle import brute_force_satisfiable, random_case
from promisekit.predicates import InstanceId, Named, Quantity
from promisekit.protocol import (
    ActionMsg,
    Envelope,
    EnvironmentMsg,
    MalformedMessage,
    PromisePart,
    PromiseResponseMsg,
    decode,
    encode,
    make_request,
)
from promisekit.service import PromiseManager

from conftest import widget_doc


def _ok(number, text):
    print(f"PASS criterion {number}: {text}")


def _pool_engine(amount):
    return PromiseEngine(load_catalog({"resource-types": [{"name": "balance",
                                                           "pool": amount}]}))


def test_criterion_1_additive_promises():
    eng = _pool_engine(120)
    assert not isinstance(eng.grant([Quantity("balance", 100)], 50, 0), Rejection)
    assert isinstance(eng.grant([Quantity("balance", 50)], 50, 0), Rejection)

    eng = _pool_engine(150)
    assert not isinstance(eng.grant([Quantity("balance", 100)], 50, 0), Rejection)
    assert not isinstance(eng.grant([Quantity("balance", 50)], 50, 0), Rejection)
    _ok(1, "two pool promises demand their sum: 100+50 needs 150 on hand, not 120")


def test_criterion_2_merchant_scenario_reproduction():
    report = run_script("merchant")
    assert report.ok, report.to_document()["invariants"]
    assert report.clients == {
        "alice": ["request 1: accepted", "action purchase-stock: succeeded"],
        "bob": ["request 1: accepted"],
        "carol": ["request 1: rejected"],
    }
    # stock dropped by exactly the purchased amount and the released
    # predicate no longer constrains anything: the final table holds the
    # active promise alone, and `expect-final` read p-1 as released
    table = {row["promise-identifier"]: row for row in report.final["promise-table"]}
    assert list(table) == ["p-2"] and table["p-2"]["status"] == "active"
    assert {"name": "final-state", "ok": True, "detail": ""} in report.invariants
    _ok(2, "bundled merchant script reproduces accept/reject/purchase+release exactly")


def test_criterion_3_atomicity_triad():
    # (a) multi-predicate grant is all-or-nothing when one pool is empty
    doc = {"resource-types": [
        {"name": "flight-seat", "pool": 5},
        {"name": "rental-car", "pool": 0},
        {"name": "hotel-room", "pool": 5},
    ]}
    mgr = PromiseManager(load_catalog(doc), clock=LogicalClock())
    twin = PromiseManager(load_catalog(doc), clock=LogicalClock())
    req = make_request("r-1", [Quantity("flight-seat", 1), Quantity("rental-car", 1),
                               Quantity("hotel-room", 1)], 60)
    reply = mgr.handle(Envelope(promise_part=PromisePart(requests=(req,))))
    assert reply.promise_part.responses[0].result == "rejected"
    assert mgr.state_digest() == twin.state_digest()

    # (b) a failed action retains its release-after-success promise
    gallery = PromiseManager(load_catalog({"resource-types": [
        {"name": "painting", "properties": [],
         "instances": [{"key": "sunset", "properties": {}}]}]}), clock=LogicalClock())
    register_standard_handlers(gallery)
    hold = make_request("r-1", [Named(InstanceId("painting", "sunset"))], 60)
    pid = gallery.handle(Envelope(promise_part=PromisePart(requests=(hold,)))) \
        .promise_part.responses[0].promise_id
    before = gallery.state_digest()
    reply = gallery.handle(Envelope(
        action=ActionMsg("fail", {"reason": "no shipper"}),
        environment=EnvironmentMsg((pid,), ("release-after-success",))))
    assert reply.action.status == "failed"
    assert gallery.state_digest() == before
    assert gallery.engine.status(pid) == "active"

    # (c) exchange keeps the old set on rejection, swaps exactly on grant
    eng = _pool_engine(150)
    old = eng.grant([Quantity("balance", 100)], 50, 0)
    before = digest_document(eng.dump()["promises"])
    assert isinstance(eng.grant([Quantity("balance", 200)], 50, 0, release=[old.id]), Rejection)
    assert digest_document(eng.dump()["promises"]) == before

    new = eng.grant([Quantity("balance", 50)], 50, 0, release=[old.id])
    expected = [
        {"promise-identifier": "p-2", "status": "active",
         "granted-at": 0, "expires-at": 50,
         "predicates": [{"form": "quantity", "resource-type": "balance", "amount": 50}]},
    ]
    assert digest_document(eng.dump()["promises"]) == digest_document(expected)
    assert eng.status(old.id) == "released"
    assert [r.id for r in eng.active_records()] == [new.id]
    _ok(3, "grant bundles, action+release units and exchanges are each atomic")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(1007)
    disagreements = 0
    for _ in range(1000):
        preds, view = random_case(rng, max_instances=8, max_predicates=6)
        if check_satisfiable(preds, view) != brute_force_satisfiable(preds, view):
            disagreements += 1
    assert disagreements == 0
    _ok(4, "max-flow equals the exhaustive assignment oracle on 1000 random instances")


def test_criterion_5_isolation_under_contention():
    report = contention_run(n_clients=8, envelopes_each=200, seed=0)
    inv = {i["name"]: i for i in report.invariants}
    assert inv["literal-guarantee"]["ok"], inv
    assert inv["per-step-self-check"]["ok"], inv  # promised sums checked per commit
    assert inv["named-exclusivity"]["ok"], inv
    assert inv["pool-additivity"]["ok"], inv
    assert report.ok
    _ok(5, "8 clients x 200 envelopes: no promised client saw unavailability")


def test_criterion_6_rollback_exactness():
    rng = random.Random(99)
    stages = ("sweep", "requests", "action", "post-check", "commit")
    exact = 0
    total = 0
    for run in range(20):
        mgr = PromiseManager(load_catalog(widget_doc(rng.randint(6, 12))),
                             clock=LogicalClock(), self_check=True)
        register_standard_handlers(mgr)
        # a little random history first
        for i in range(rng.randint(0, 4)):
            req = make_request(f"seed-{i}", [Quantity("pink-widget", rng.randint(1, 3))],
                               rng.randint(2, 9))
            mgr.handle(Envelope(promise_part=PromisePart(requests=(req,))))
        mgr.clock.advance(rng.randint(0, 3))

        for stage in stages:
            total += 1
            before = mgr.state_digest()

            def hook(current, armed=stage):
                if current == armed:
                    raise RuntimeError(f"injected at {armed}")

            mgr.fault_hook = hook
            req = make_request(f"fault-{run}-{stage}",
                               [Quantity("pink-widget", 1)], 5)
            reply = mgr.handle(Envelope(
                promise_part=PromisePart(requests=(req,)),
                action=ActionMsg("purchase-stock",
                                 {"resource-type": "pink-widget", "amount": 1})))
            mgr.fault_hook = None
            assert reply.error == "internal-failure"
            if mgr.state_digest() == before:
                exact += 1
    assert exact == total == 100
    _ok(6, "100/100 injected faults across all pipeline stages rolled back exactly")


def _random_envelope(rng):
    requests = []
    for i in range(rng.randint(0, 2)):
        preds = []
        for _ in range(rng.randint(1, 2)):
            form = rng.random()
            if form < 0.4:
                preds.append(Quantity(f"type-{rng.randint(0, 3)}", rng.randint(1, 9)))
            elif form < 0.7:
                preds.append(Named(InstanceId(f"type-{rng.randint(0, 3)}",
                                              f"k{rng.randint(0, 9)}")))
            else:
                from promisekit.predicates import Property, PropertyConstraint
                preds.append(Property(
                    f"type-{rng.randint(0, 3)}",
                    (PropertyConstraint(f"prop-{rng.randint(0, 2)}", "equals",
                                        rng.choice([True, 7, "x"])),),
                    rng.randint(1, 3)))
        requests.append(make_request(
            f"r{i}", preds, rng.randint(1, 400),
            tuple({f"p-{rng.randint(1, 9)}" for _ in range(rng.randint(0, 2))})))
    responses = []
    for i in range(rng.randint(0, 2)):
        accepted = rng.random() < 0.5
        responses.append(PromiseResponseMsg(
            f"p-{i}" if accepted else None,
            "accepted" if accepted else "rejected",
            rng.randint(0, 400), f"c{i}"))
    part = PromisePart(tuple(requests), tuple(responses)) \
        if requests or responses else None
    action = None
    environment = None
    if part is None or rng.random() < 0.5:
        action = ActionMsg(f"verb-{rng.randint(0, 5)}",
                           rng.choice([None, {"n": rng.randint(0, 9)}, "blob", 17]),
                           rng.choice([None, "succeeded", "failed"]))
        if rng.random() < 0.5:
            n = rng.randint(0, 3)
            environment = EnvironmentMsg(
                tuple(f"p-{j}" for j in range(n)),
                tuple(rng.choice(["retain", "release-after-success"])
                      for _ in range(n)))
    return Envelope(part, environment, action)


def test_criterion_7_protocol_round_trip_and_robustness():
    rng = random.Random(77)
    for _ in range(1000):
        envelope = _random_envelope(rng)
        assert decode(encode(envelope)) == envelope
    for _ in range(1000):
        blob = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 120)))
        try:
            decode(blob)
        except MalformedMessage:
            pass
    _ok(7, "1000 envelopes round-trip; 1000 byte blobs never crash the decoder")


def test_criterion_8_expiry_semantics():
    d = 5
    mgr = PromiseManager(load_catalog(widget_doc(10)), clock=LogicalClock())
    register_standard_handlers(mgr)
    req = make_request("r-1", [Quantity("pink-widget", 10)], d)
    pid = mgr.handle(Envelope(promise_part=PromisePart(requests=(req,)))) \
        .promise_part.responses[0].promise_id

    # a competing request is blocked while the promise lives
    rival = make_request("r-2", [Quantity("pink-widget", 5)], d)
    mgr.clock.advance(d - 1)
    assert mgr.handle(Envelope(promise_part=PromisePart(requests=(rival,)))) \
        .promise_part.responses[0].result == "rejected"

    # usable at d-1
    use = Envelope(action=ActionMsg("no-op"),
                   environment=EnvironmentMsg((pid,), ("retain",)))
    assert mgr.handle(use).action.status == "succeeded"

    # expired exactly at d
    mgr.clock.advance(1)
    assert mgr.handle(use).action.status == "promise-expired"

    # and the previously blocked grant now goes through
    rival2 = make_request("r-3", [Quantity("pink-widget", 5)], d)
    assert mgr.handle(Envelope(promise_part=PromisePart(requests=(rival2,)))) \
        .promise_part.responses[0].result == "accepted"
    _ok(8, "duration d: usable at d-1, promise-expired at d, capacity returns after sweep")
