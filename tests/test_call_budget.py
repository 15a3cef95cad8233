"""The Python-level calls one envelope makes inside promisekit, as a budget.

Each count is the number of `sys.setprofile` "call" events in frames of
promisekit's own files while `PromiseManager.handle_bytes` runs one
envelope. It is exact and repeats run to run, unlike a wall time, so a
change that adds bookkeeping to the per-envelope path shows here and has
to raise the budget it exceeds on purpose.
"""

import sys
from pathlib import Path

import promisekit
from promisekit.catalog import load_catalog
from promisekit.clock import LogicalClock
from promisekit.harness import register_standard_handlers
from promisekit.predicates import InstanceId, Named, Quantity
from promisekit.protocol import (
    ActionMsg,
    Envelope,
    EnvironmentMsg,
    PromisePart,
    decode,
    encode,
    make_request,
)
from promisekit.service import PromiseManager

from conftest import HOTEL_DOC, widget_doc

PACKAGE = str(Path(promisekit.__file__).resolve().parent)

# envelope kind -> the most calls it may make
BUDGET = {"no-op": 20, "purchase": 26, "named-grant": 42, "named-exchange": 53,
          "named-release": 31, "violated-release": 35}


def _calls(manager, envelope):
    """The reply to `envelope`, and the calls its handling made."""
    body = encode(envelope)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(count)
    try:
        out = manager.handle_bytes(body)
    finally:
        sys.setprofile(None)
    return decode(out), calls


def _manager():
    manager = PromiseManager(load_catalog({"resource-types": widget_doc()["resource-types"]
                                           + HOTEL_DOC["resource-types"]}),
                             clock=LogicalClock())
    register_standard_handlers(manager)
    return manager


def _grant(request_id, key, release=()):
    return Envelope(promise_part=PromisePart(requests=(make_request(
        request_id, [Named(InstanceId("room", key))], 30, release_on_grant=release),)))


def test_each_envelope_kind_stays_within_its_call_budget():
    manager = _manager()
    counts = {}

    reply, counts["no-op"] = _calls(manager, Envelope(action=ActionMsg("no-op")))
    assert reply.action.status == "succeeded"
    reply, counts["purchase"] = _calls(manager, Envelope(action=ActionMsg(
        "purchase-stock", {"resource-type": "pink-widget", "amount": 1})))
    assert reply.action.status == "succeeded"
    reply, counts["named-grant"] = _calls(manager, _grant("r-1", "512"))
    pid = reply.promise_part.responses[0].promise_id
    assert pid is not None
    reply, counts["named-release"] = _calls(manager, Envelope(
        action=ActionMsg("no-op"), environment=EnvironmentMsg((pid,), ("release-after-success",))))
    assert reply.action.status == "succeeded" and manager.engine.status(pid) == "released"

    # a grant that releases on grant, in a manager whose one record it releases
    manager = _manager()
    held = manager.handle(_grant("r-1", "512")).promise_part.responses[0].promise_id
    reply, counts["named-exchange"] = _calls(manager, _grant("r-2", "610", release=(held,)))
    assert reply.promise_part.responses[0].promise_id is not None
    assert manager.engine.status(held) == "released"

    # a purchase under a promise it would release after success, which
    # the post-check refuses: the other promise needs the widgets it takes
    manager = _manager()
    held = [manager.handle(Envelope(promise_part=PromisePart(requests=(make_request(
        f"r-{n}", [Quantity("pink-widget", 5)], 30),)))).promise_part.responses[0].promise_id
        for n in (1, 2)]
    reply, counts["violated-release"] = _calls(manager, Envelope(
        action=ActionMsg("purchase-stock", {"resource-type": "pink-widget", "amount": 6}),
        environment=EnvironmentMsg((held[0],), ("release-after-success",))))
    assert reply.action.status == "rejected-by-promise-violation"
    assert manager.engine.status(held[0]) == "active"

    assert all(counts[kind] <= BUDGET[kind] for kind in BUDGET), counts
