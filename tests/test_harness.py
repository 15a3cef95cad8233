import hashlib
import json
import random
import sys

import pytest

import promisekit.driver as driver
import promisekit.harness as harness
from promisekit import cli
from promisekit.catalog import load_catalog
from promisekit.clock import LogicalClock
from promisekit.engine import Problem, PromiseEngine
from promisekit.driver import (
    RunReport,
    ScenarioError,
    contention_run,
    fuzz,
    load_script,
    run_script,
)
from promisekit.harness import register_standard_handlers
from promisekit.predicates import InstanceId, Named
from promisekit.protocol import ActionMsg, Envelope
from promisekit.service import PromiseManager, ServiceError

from conftest import NESTED_TOO_DEEP, SEAT_DOC, UNREADABLE, widget_doc


BUNDLED = ["merchant", "hotel", "travel", "banking", "gallery"]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_pass(name):
    report = run_script(name)
    assert report.ok, report.to_document()["invariants"]


def test_merchant_outcome_sequence_is_exact():
    report = run_script("merchant")
    assert report.clients == {
        "alice": ["request 1: accepted", "action purchase-stock: succeeded"],
        "bob": ["request 1: accepted"],
        "carol": ["request 1: rejected"],
    }
    assert report.counters["grants"] == 2
    assert report.counters["rejections"] == 1
    assert report.counters["releases"] == 1


def test_hotel_bookings_never_collide():
    report = run_script("hotel")
    inv = {i["name"]: i for i in report.invariants}
    assert inv["final-state"]["ok"]
    assert inv["named-exclusivity"]["ok"]


@pytest.mark.parametrize("seed", [0, 5])
def test_seeded_hotel_reports_instead_of_crashing(seed):
    # these schedules reject a request whose save-as a later step uses
    script = load_script("hotel")
    script["schedule"] = "seeded"
    script["seed"] = seed
    report = run_script(script)
    assert isinstance(report, RunReport)
    assert "digest" in report.to_document()


def test_unbound_reference_fails_expectations_and_the_run_goes_on():
    request = {"kind": "request", "duration": 5, "save-as": "p",
               "predicates": [{"form": "quantity", "resource-type": "pink-widget",
                               "amount": 3}]}
    purchase = {"kind": "action", "name": "purchase-stock",
                "payload": {"resource-type": "pink-widget", "amount": 1}}
    report = run_script({
        "name": "unbound", "catalog-inline": widget_doc(2), "clock": "logical",
        "clients": [{"name": "only", "steps": [
            request,
            dict(request, **{"release-on-grant": ["$p"], "save-as": "q"}),
            dict(purchase, environment=[{"promise": "$p"}]),
            purchase,
        ]}],
    })
    inv = {i["name"]: i for i in report.invariants}
    assert report.clients["only"] == [
        "request 1: rejected", "request skipped: $p unbound", "action skipped: $p unbound",
        "action purchase-stock: succeeded"]
    assert not inv["expectations"]["ok"]
    assert inv["expectations"]["detail"].count("$p never bound") == 2
    assert all(i["ok"] for name, i in inv.items() if name != "expectations")


def test_scripted_runs_are_deterministic():
    assert run_script("merchant").digest == run_script("merchant").digest


def test_seeded_schedule_is_deterministic_and_seed_sensitive():
    script = load_script("merchant")
    script["schedule"] = "seeded"
    script.pop("expect-final", None)
    for client in script["clients"]:
        for step in client["steps"]:
            step.pop("expect", None)  # order-dependent outcomes are fine here
    a = run_script(dict(script))
    b = run_script(dict(script))
    assert a.digest == b.digest
    script["seed"] = 2
    c = run_script(dict(script))
    assert c.digest != a.digest or c.clients == a.clients


def test_inline_catalog_and_dict_script():
    script = {
        "name": "inline",
        "catalog-inline": widget_doc(2),
        "clock": "logical",
        "clients": [{"name": "only", "steps": [
            {"kind": "request", "duration": 5, "expect": "accepted",
             "predicates": [{"form": "quantity", "resource-type": "pink-widget",
                             "amount": 2}]},
            {"kind": "advance-clock", "by": 5},
            {"kind": "request", "duration": 5, "expect": "accepted",
             "predicates": [{"form": "quantity", "resource-type": "pink-widget",
                             "amount": 2}]},
        ]}],
    }
    report = run_script(script)
    assert report.ok
    assert report.counters["expiries"] == 1


@pytest.mark.parametrize("mutate,message", [
    (lambda s: s["clients"][0]["steps"].append(
        {"kind": "action", "name": "undeclared-verb"}), "unknown action"),
    (lambda s: s["clients"][0]["steps"].append(
        {"kind": "request", "duration": 5,
         "predicates": [{"form": "quantity", "resource-type": "nope", "amount": 1}]}),
     "bad predicate"),
    (lambda s: s["clients"][0]["steps"].append(
        {"kind": "action", "name": "no-op",
         "environment": [{"promise": "$ghost"}]}), "before it is bound"),
    (lambda s: s.update(clock="lunar"), "unknown clock"),
    (lambda s: s.update(clients=[]), "no clients"),
    (lambda s: s["clients"][0]["steps"].append(
        {"kind": "request",
         "predicates": [{"form": "quantity", "resource-type": "pink-widget", "amount": 1}]}),
     "positive integer duration"),
    (lambda s: [s], "a script must be a JSON object"),
    (lambda s: s.update(clients=[{"steps": []}]), "a client needs a name"),
    (lambda s: s["clients"][0]["steps"].append("request"), "a step must be an object"),
    (lambda s: s["clients"][0]["steps"].append({"kind": "advance-clock", "by": -4}),
     "non-negative integer"),
    (lambda s: s["clients"][0]["steps"].extend([
        {"kind": "request", "duration": 5, "save-as": "p",
         "predicates": [{"form": "quantity", "resource-type": "pink-widget", "amount": 1}]},
        {"kind": "request", "duration": 5, "release-on-grant": "$p",
         "predicates": [{"form": "quantity", "resource-type": "pink-widget", "amount": 1}]}]),
     "release-on-grant must be a list"),
    (lambda s: s["clients"][0]["steps"].append(
        {"kind": "fault", "stage": "lunch", "step": {"kind": "action", "name": "no-op"}}),
     "unknown fault stage"),
    (lambda s: s["clients"][0]["steps"].append(
        {"kind": "fault", "stage": "commit", "step": {"kind": "advance-clock"}}),
     "must be a request or an action"),
    (lambda s: s.update(clock="wall", clients=[{"name": "c", "steps": [{"kind": "think",
                                                                         "ms": -1}]}]),
     "think needs ms >= 0"),
    (lambda s: s.update({"expect-final": {"pools": ["pink-widget"]}}), "expect-final"),
])
def test_script_validation_errors(tmp_path, mutate, message):
    script = {
        "name": "broken",
        "catalog-inline": widget_doc(2),
        "clock": "logical",
        "clients": [{"name": "c", "steps": []}],
    }
    script = mutate(script) or script  # a mutation may return a whole new document
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(script))
    with pytest.raises(ScenarioError) as exc:
        run_script(str(path))
    assert message in str(exc.value)


@pytest.mark.parametrize("cap", [0, -5, "60"])
def test_script_duration_cap_must_be_a_positive_integer(cap):
    script = {"name": "capped", "catalog-inline": widget_doc(2), "duration-cap": cap,
              "clients": [{"name": "c", "steps": []}]}
    with pytest.raises(ServiceError) as exc:
        run_script(script)
    assert exc.value.code == "config-error"


@pytest.mark.parametrize("text,message", [
    *[(json.dumps({"name": "seeded", "catalog-inline": widget_doc(2), "seed": seed,
                   "clients": [{"name": "c", "steps": []}]}), "error: seed must be an integer")
      for seed in ["x", True, 2.5]],
    ('{"name": "cut short", "clients": [', "error: script is not a JSON document"),
    pytest.param(NESTED_TOO_DEEP.decode(), "error: script is not a JSON document",
                 id="nested-too-deep"),
])
def test_cli_reports_a_malformed_script_and_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "script.json"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(message)


@UNREADABLE
def test_cli_reports_an_unreadable_catalog_and_exits_2(tmp_path, capsys, data):
    path = tmp_path / "catalog.json"
    path.write_bytes(data)
    assert cli.main(["run", "hotel", "--catalog", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: parse-error: ")


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_cli_refuses_a_fuzz_run_of_no_steps(capsys, steps):
    assert cli.main(["fuzz", "--steps", steps]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "--steps" in err
    assert out == ""


def test_unknown_bundled_name():
    with pytest.raises(ScenarioError):
        run_script("atlantis")


def test_fuzz_smoke_seed_zero():
    report = fuzz(0, n_steps=25)
    assert report.ok, report.to_document()


@pytest.mark.parametrize("seed", range(10))
def test_a_200_step_fuzz_holds_every_invariant(seed):
    # the check after each step verifies every feasibility answer against
    # its certificate, whatever the number of active predicates
    report = fuzz(seed, n_steps=200)
    assert report.ok, report.to_document()


def test_fuzz_is_deterministic():
    assert fuzz(5, n_steps=40).digest == fuzz(5, n_steps=40).digest


def test_fuzz_reports_are_json_serializable(tmp_path):
    doc = fuzz(2, n_steps=30).to_document()
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    assert json.loads(path.read_text())["digest"] == doc["digest"]


def _one_client_script(catalog_doc, steps):
    return {"name": "script", "clock": "logical", "catalog-inline": catalog_doc,
            "clients": [{"name": "f", "steps": steps}]}


def test_fault_steps_verify_exact_rollback():
    steps = [
        {"kind": "request", "duration": 9,
         "predicates": [{"form": "quantity", "resource-type": "bulk", "amount": 2}]},
        {"kind": "fault", "stage": "commit",
         "step": {"kind": "request", "duration": 9,
                  "predicates": [{"form": "quantity", "resource-type": "bulk", "amount": 1}]}},
    ]
    run = driver._ScriptRun(_one_client_script(driver._fuzz_catalog_doc(random.Random(0)),
                                               steps))
    report = run.run(in_process=True)
    assert run.failure is None and report.ok
    assert report.clients["f"][1] == "fault at commit: rolled back"


PURCHASE = {"kind": "action", "name": "purchase-stock",
            "payload": {"resource-type": "pink-widget", "amount": 1}}


@pytest.mark.parametrize("stage,step,outcome", [
    ("commit", PURCHASE, "fault at commit: rolled back"),
    ("post-check", {"kind": "action", "name": "fail"},
     "fault at post-check: not reached (action fail: failed)"),
])
def test_fault_steps_run_over_the_wire(stage, step, outcome):
    # a failing handler raises ActionFailure before the post-check stage runs
    report = run_script(_one_client_script(widget_doc(3), [
        PURCHASE, {"kind": "fault", "stage": stage, "step": step}, PURCHASE]))
    assert report.ok, report.to_document()["invariants"]
    assert report.clients["f"][1] == outcome
    assert report.counters["internal-failures"] == (stage == "commit")


def test_a_fault_that_changes_state_fails_the_step(monkeypatch):
    digests = iter(["before", "after"])
    monkeypatch.setattr(PromiseManager, "state_digest", lambda manager: next(digests))
    report = run_script(_one_client_script(widget_doc(3), [
        {"kind": "fault", "stage": "commit", "step": PURCHASE}]))
    inv = {i["name"]: i for i in report.invariants}
    assert report.clients["f"] == ["fault at commit: state changed"]
    assert inv["step-invariants"]["detail"] == "step 0: fault rollback was not exact"
    assert all(i["ok"] for name, i in inv.items() if name != "step-invariants")


def test_minimization_shrinks_a_failing_trace(monkeypatch):
    # force a fake invariant into the checker: the bulk pool must never drop below 5
    original = PromiseEngine.problems

    def strict(engine):
        problems = original(engine)
        if engine.catalog.quantity_on_hand("bulk") < 5:
            problems.append(Problem("pool-additivity", "bulk dipped below 5"))
        return problems

    monkeypatch.setattr(PromiseEngine, "problems", strict)
    doc = {"resource-types": [{"name": "bulk", "pool": 5}]}
    noise = [{"kind": "advance-clock", "by": 1} for _ in range(4)]
    trigger = {"kind": "action", "name": "purchase-stock",
               "payload": {"resource-type": "bulk", "amount": 1}}
    script = _one_client_script(doc, noise[:2] + [trigger] + noise[2:])
    assert driver._step_failure(script) is not None
    assert driver._minimize(script)["clients"][0]["steps"] == [trigger]


def _plant_two_promise_limit(monkeypatch):
    real = driver._verify_stack

    def planted(manager):
        problems = real(manager)
        if len(manager.engine.active) >= 2:
            problems.append("two promises are active")
        return problems

    monkeypatch.setattr(driver, "_verify_stack", planted)


def test_a_failing_fuzz_run_reports_a_minimized_counterexample(monkeypatch):
    _plant_two_promise_limit(monkeypatch)
    report = fuzz(1)
    assert not report.ok
    failed = next(inv for inv in report.invariants if inv["name"] == "step-invariants")
    assert not failed["ok"] and failed["detail"].endswith("two promises are active")
    failing_prefix = int(failed["detail"].split(":")[0].removeprefix("step ")) + 1
    counterexample = report.to_document()["counterexample"]
    assert 0 < len(counterexample["clients"][0]["steps"]) < failing_prefix
    failure = driver._step_failure(counterexample)
    assert failure is not None and failure["problems"] == ["two promises are active"]


def test_a_fuzz_counterexample_replays_under_the_cli(monkeypatch, tmp_path, capsys):
    _plant_two_promise_limit(monkeypatch)
    fuzz_path, script_path, run_path = (tmp_path / name for name in ("fuzz", "script", "run"))
    assert cli.main(["fuzz", "--seed", "1", "--report", str(fuzz_path)]) == 1
    counterexample = json.loads(fuzz_path.read_text())["counterexample"]
    printed = capsys.readouterr().out
    assert all(json.dumps(step, sort_keys=True) in printed
               for step in counterexample["clients"][0]["steps"])
    script_path.write_text(json.dumps(counterexample))
    assert cli.main(["run", str(script_path), "--report", str(run_path)]) == 1
    invariants = {i["name"]: i for i in json.loads(run_path.read_text())["invariants"]}
    assert not invariants["step-invariants"]["ok"]
    assert invariants["step-invariants"]["detail"].endswith(": two promises are active")


def test_contention_smoke():
    report = contention_run(n_clients=3, envelopes_each=30, seed=1)
    assert report.ok, report.to_document()["invariants"]
    assert report.counters["observed-accepted"] > 0


def _raise_once(monkeypatch, owner, name):
    original = getattr(owner, name)
    fired = []

    def once(*args, **kwargs):
        if not fired:
            fired.append(True)
            raise RuntimeError("planted fault")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, once)


def test_a_pipeline_fault_fails_a_contention_run_and_every_client_finishes(monkeypatch):
    _raise_once(monkeypatch, PromiseEngine, "grant")
    report = contention_run(n_clients=3, envelopes_each=30, seed=1)
    inv = {i["name"]: i for i in report.invariants}
    assert not report.ok
    assert inv["client-failures"]["detail"].endswith("error reply internal-failure")
    assert "died" not in inv["client-failures"]["detail"]
    assert all(i["ok"] for name, i in inv.items() if name != "client-failures")
    assert report.counters["internal-failures"] == 1
    assert sum(report.counters[k] for k in driver.OBSERVED_COUNTERS
               if k != "observed-violations") == 3 * 30


def test_a_client_that_dies_fails_a_contention_run(monkeypatch):
    _raise_once(monkeypatch, driver._Client, "request")
    report = contention_run(n_clients=3, envelopes_each=30, seed=1)
    inv = {i["name"]: i for i in report.invariants}
    assert not report.ok
    assert "died of RuntimeError: planted fault" in inv["client-failures"]["detail"]


def test_wall_clock_clients_count_every_step_they_send():
    """More clients than cores and a short switch interval: a lost update to
    the shared observed counters would break the sums."""
    request = {"kind": "request", "duration": 600, "save-as": "p",
               "predicates": [{"form": "quantity", "resource-type": "pink-widget",
                               "amount": 1}]}
    purchase = {"kind": "action", "name": "purchase-stock", "environment": [{"promise": "$p"}],
                "payload": {"resource-type": "pink-widget", "amount": 1}}
    steps = [request, purchase, {"kind": "think", "ms": 1}] * 10
    script = {"name": "wall", "catalog-inline": widget_doc(100), "clock": "wall",
              "clients": [{"name": f"c{i}", "steps": steps} for i in range(4)]}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_script(script)
    finally:
        sys.setswitchinterval(interval)
    assert report.ok, report.to_document()["invariants"]
    assert report.counters["observed-accepted"] + report.counters["observed-rejected"] == 40
    assert report.counters["actions-succeeded"] + report.counters["actions-failed"] == 40
    assert report.counters["actions-succeeded"] == 40


PINNED_SCENARIO_DIGESTS = {
    "banking": "7cf6ddf8202db7d3", "gallery": "e56f8daec9a23d87", "hotel": "39f2bfbc442ac346",
    "merchant": "e63169d5d1873008", "travel": "de73ad1485284f54"}
PINNED_FUZZ_DIGESTS = ["be5a4fd438ac00ed", "cc85845ae77c4222", "fc5e50280202c998",
                       "37fdb1f6794198dc", "90945f3c84677a2c", "26802899c1f84663"]


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIO_DIGESTS))
def test_bundled_scenario_digest_is_pinned(name):
    """A change that moves a logical-clock digest on purpose updates the pin
    and says why in CHANGES.md."""
    assert run_script(name).digest[:16] == PINNED_SCENARIO_DIGESTS[name]


@pytest.mark.parametrize("seed", range(len(PINNED_FUZZ_DIGESTS)))
def test_fuzz_digest_is_pinned(seed):
    assert fuzz(seed).digest[:16] == PINNED_FUZZ_DIGESTS[seed]


# the count and SHA-256 of every reply body of fuzz seeds 0-299 and then the
# bundled scenarios in name order, all run in process
PINNED_REPLIES = (16262, "264537e0d9baa7f8b101dac850f44ef7306f8e06aefddef784439552ce1e1640")


def test_every_reply_body_is_pinned(monkeypatch):
    """Same answers, byte for byte: a change meant to keep every answer
    keeps this pin, and one that moves a reply on purpose updates it and
    says why in CHANGES.md."""
    replies = []
    real = PromiseManager.handle

    def handle(self, envelope):
        reply = real(self, envelope)
        replies.append(reply.encoded)
        return reply

    monkeypatch.setattr(PromiseManager, "handle", handle)
    for seed in range(300):
        fuzz(seed)
    for name in sorted(PINNED_SCENARIO_DIGESTS):
        driver._ScriptRun(load_script(name)).run(in_process=True)
    digest = hashlib.sha256()
    for body in replies:
        digest.update(body)
    assert (len(replies), digest.hexdigest()) == PINNED_REPLIES


def test_a_planted_fault_reads_the_same_to_every_checker_caller():
    """A second Named record for one instance, issued straight into the
    table past the grant's check, reaches the self-check, the report's
    `named-exclusivity` invariant and the fuzz verifier as one message."""
    mgr = PromiseManager(load_catalog(SEAT_DOC), clock=LogicalClock(), self_check=True)
    register_standard_handlers(mgr)
    seat = Named(InstanceId("seat", "2A"))
    held = mgr.engine.grant([seat], 30, 0)
    assert mgr.engine.problems() == []
    mgr.engine._insert((seat,), 30, 0, None, held.demands, held.demands)
    message = "instance seat/2A is named 2 times by active promises"

    mgr.handle(Envelope(action=ActionMsg("no-op")))
    assert message in mgr.self_check_failures[-1]["problems"]

    report = RunReport("planted", 0, "logical")
    driver._finish_report(report, mgr, {"observed-violations": 0})
    invariants = {inv["name"]: inv for inv in report.invariants}
    assert invariants["named-exclusivity"] == {
        "name": "named-exclusivity", "ok": False, "detail": message}
    assert not invariants["final-feasibility"]["ok"]

    assert message in driver._verify_stack(mgr)


# --- the paper's guarantee: `literal-guarantee` ---

GUARANTEE_DOC = {"resource-types": [
    {"name": "widget", "pool": 10},
    {"name": "seat",
     "properties": [{"name": "class", "order": ["economy", "business", "first"]},
                    {"name": "vip", "domain": [1, True]}],
     "instances": [{"key": "s1", "properties": {"class": "business", "vip": 1}},
                   {"key": "s2", "properties": {"class": "first", "vip": True}}]},
]}


def _plant_unavailability(monkeypatch, *actions):
    def unavailable(payload, unit, catalog):
        raise harness.ActionFailure("resource-unavailable")

    for action in actions:
        monkeypatch.setitem(harness.STANDARD_HANDLERS, action, unavailable)


def _quantity(amount):
    return {"form": "quantity", "resource-type": "widget", "amount": amount}


def _seats(comparator, prop, value):
    return {"form": "property", "resource-type": "seat", "amount": 1,
            "constraints": [{"property": prop, "comparator": comparator, "value": value}]}


def _take_matching(comparator, prop, value):
    return ("take-matching", {"resource-type": "seat", "constraints": [
        {"property": prop, "comparator": comparator, "value": value}]})


def _named(key):
    return {"form": "named", "resource-type": "seat", "key": key}


PURCHASE_TWO = ("purchase-stock", {"resource-type": "widget", "amount": 2})


@pytest.mark.parametrize("promised,action,option,broken", [
    (_quantity(2), PURCHASE_TWO, "release-after-success", True),
    (_quantity(3), PURCHASE_TWO, "release-after-success", True),
    (_quantity(1), PURCHASE_TWO, "release-after-success", False),
    (_quantity(2), PURCHASE_TWO, "retain", False),
    (_quantity(2), PURCHASE_TWO, None, False),
    (_named("s1"), ("take-named", {"resource-type": "seat", "key": "s1"}), "release-after-success",
     True),
    (_named("s1"), ("take-named", {"resource-type": "seat", "key": "s2"}), "release-after-success",
     False),
    (_seats("at-least-in-order", "class", "business"),
     _take_matching("at-least-in-order", "class", "business"), "release-after-success", True),
    (_seats("equals", "class", "first"),
     _take_matching("at-least-in-order", "class", "business"), "release-after-success", True),
    (_seats("at-least-in-order", "class", "economy"),
     _take_matching("at-least-in-order", "class", "business"), "release-after-success", False),
    (_seats("equals", "vip", True), _take_matching("equals", "vip", True),
     "release-after-success", True),
    (_seats("equals", "vip", 1), _take_matching("equals", "vip", True),
     "release-after-success", False),
    (_seats("equals", "vip", True), _take_matching("equals", "class", "first"),
     "release-after-success", False),
], ids=["quantity", "larger-quantity", "smaller-quantity", "retain", "unpromised",
        "named", "another-instance", "same-rank", "equals-above-rank", "weaker-rank",
        "equals-true", "true-is-not-1", "another-property"])
def test_the_guarantee_check_fires_only_under_a_covering_promise(monkeypatch, promised, action,
                                                                 option, broken):
    """Every consuming handler is planted to fail for lack of the resource,
    so only the covering rule decides whether the guarantee was broken."""
    _plant_unavailability(monkeypatch, "purchase-stock", "take-named", "take-matching")
    name, payload = action
    act = {"kind": "action", "name": name, "payload": payload, "expect": "failed"}
    if option is not None:
        act["environment"] = [{"promise": "$p", "option": option}]
    report = run_script(_one_client_script(GUARANTEE_DOC, [
        {"kind": "request", "duration": 5, "save-as": "p", "predicates": [promised],
         "expect": "accepted"}, act]))
    inv = {i["name"]: i for i in report.invariants}
    assert inv["literal-guarantee"]["ok"] is not broken, inv["literal-guarantee"]
    assert all(i["ok"] for n, i in inv.items() if n != "literal-guarantee"), report.invariants
    if broken:
        assert inv["literal-guarantee"]["detail"].startswith(
            f"f: {name} {json.dumps(payload, sort_keys=True)} under a covering promise -> "
            "failed resource-unavailable")


def test_a_planted_unavailability_under_promise_fails_a_contention_run(monkeypatch):
    _plant_unavailability(monkeypatch, "purchase-stock")
    report = contention_run(n_clients=3, envelopes_each=30, seed=1)
    inv = {i["name"]: i for i in report.invariants}
    assert not inv["literal-guarantee"]["ok"]
    assert "purchase-stock" in inv["literal-guarantee"]["detail"]
    assert all(i["ok"] for n, i in inv.items() if n != "literal-guarantee"), report.invariants


def test_every_report_carries_the_literal_guarantee():
    wall = {"name": "wall", "catalog-inline": widget_doc(5), "clock": "wall",
            "clients": [{"name": "c", "steps": [{"kind": "think", "ms": 0}]}]}
    for report in (run_script("merchant"), fuzz(0, n_steps=10), run_script(wall),
                   contention_run(n_clients=2, envelopes_each=9, seed=0)):
        inv = {i["name"]: i for i in report.invariants}
        assert inv["literal-guarantee"] == {"name": "literal-guarantee", "ok": True, "detail": ""}


def _hotel(schedule=None, seed=None, reverse=False):
    script = load_script("hotel")
    if schedule is not None:
        script.update(schedule=schedule, seed=seed)
    if reverse:
        script["clients"] = script["clients"][::-1]
    return script


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: take-matching takes the first match")
@pytest.mark.parametrize("script", [_hotel(reverse=True), _hotel("seeded", 6),
                                    _hotel("seeded", 7)],
                         ids=["reversed", "seeded-6", "seeded-7"])
def test_hotel_keeps_the_literal_guarantee(script):
    inv = {i["name"]: i for i in run_script(script).invariants}
    assert inv["literal-guarantee"]["ok"], inv["literal-guarantee"]


def test_cli_reports_an_unwritable_report_path_and_exits_2(tmp_path, capsys):
    assert cli.main(["run", "merchant", "--report", str(tmp_path / "missing" / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
