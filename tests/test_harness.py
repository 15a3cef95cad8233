import json

import pytest

import promisekit.harness as harness
from promisekit.harness import (
    RunReport,
    ScenarioError,
    contention_run,
    fuzz,
    load_script,
    run_script,
)

from conftest import widget_doc


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
])
def test_script_validation_errors(mutate, message):
    script = {
        "name": "broken",
        "catalog-inline": widget_doc(2),
        "clock": "logical",
        "clients": [{"name": "c", "steps": []}],
    }
    mutate(script)
    with pytest.raises(ScenarioError) as exc:
        run_script(script)
    assert message in str(exc.value)


def test_unknown_bundled_name():
    with pytest.raises(ScenarioError):
        run_script("atlantis")


def test_fuzz_smoke_seed_zero():
    report = fuzz(0, n_clients=2, n_steps=25)
    assert report.ok, report.to_document()


def test_fuzz_is_deterministic():
    assert fuzz(5, n_steps=40).digest == fuzz(5, n_steps=40).digest


def test_fuzz_reports_are_json_serializable(tmp_path):
    doc = fuzz(2, n_steps=30).to_document()
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    assert json.loads(path.read_text())["digest"] == doc["digest"]


def test_fault_steps_verify_exact_rollback():
    steps = [
        {"client": 0, "kind": "grant", "duration": 9,
         "predicates": [{"form": "quantity", "resource-type": "bulk", "amount": 2}]},
        {"client": 0, "kind": "fault", "stage": "commit",
         "inner": {"client": 0, "kind": "grant", "duration": 9,
                   "predicates": [{"form": "quantity", "resource-type": "bulk",
                                   "amount": 1}]}},
    ]
    doc = harness._fuzz_catalog_doc(__import__("random").Random(0))
    failure, outcomes, _ = harness._replay(steps, doc)
    assert failure is None
    assert outcomes[1] == "fault at commit: rolled back"


def test_minimization_shrinks_a_failing_trace(monkeypatch):
    # force a fake invariant: the bulk pool must never drop below 5
    original = harness._verify_stack

    def strict(manager):
        problems = original(manager)
        if manager.catalog.quantity_on_hand("bulk") < 5:
            problems.append("bulk dipped below 5")
        return problems

    monkeypatch.setattr(harness, "_verify_stack", strict)
    doc = {"resource-types": [{"name": "bulk", "pool": 5}]}
    noise = [{"client": 0, "kind": "advance", "by": 1} for _ in range(4)]
    trigger = {"client": 0, "kind": "action", "name": "purchase-stock",
               "payload": {"resource-type": "bulk", "amount": 1}}
    steps = noise[:2] + [trigger] + noise[2:]
    assert harness._replay(steps, doc)[0] is not None
    assert harness._minimize(steps, doc) == [trigger]


def test_contention_smoke():
    report = contention_run(n_clients=3, envelopes_each=30, seed=1)
    assert report.ok, report.to_document()["invariants"]
    assert report.counters["observed-accepted"] > 0
