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
from promisekit.predicates import InstanceId, Named
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
BUDGET = {"no-op": 21, "purchase": 27, "named-grant": 45, "named-release": 32}


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


def test_each_envelope_kind_stays_within_its_call_budget():
    manager = PromiseManager(load_catalog({"resource-types": widget_doc()["resource-types"]
                                           + HOTEL_DOC["resource-types"]}),
                             clock=LogicalClock())
    register_standard_handlers(manager)
    room = Named(InstanceId("room", "512"))
    counts = {}

    reply, counts["no-op"] = _calls(manager, Envelope(action=ActionMsg("no-op")))
    assert reply.action.status == "succeeded"
    reply, counts["purchase"] = _calls(manager, Envelope(action=ActionMsg(
        "purchase-stock", {"resource-type": "pink-widget", "amount": 1})))
    assert reply.action.status == "succeeded"
    reply, counts["named-grant"] = _calls(manager, Envelope(promise_part=PromisePart(
        requests=(make_request("r-1", [room], 30),))))
    pid = reply.promise_part.responses[0].promise_id
    assert pid is not None
    reply, counts["named-release"] = _calls(manager, Envelope(
        action=ActionMsg("no-op"), environment=EnvironmentMsg((pid,), ("release-after-success",))))
    assert reply.action.status == "succeeded" and manager.engine.status(pid) == "released"

    assert all(counts[kind] <= BUDGET[kind] for kind in BUDGET), counts
