import json
import random
import sys

import pytest

import promisekit.harness as harness
from promisekit import cli
from promisekit.catalog import load_catalog
from promisekit.clock import LogicalClock
from promisekit.engine import Problem, PromiseEngine, PromiseRecord
from promisekit.harness import (
    RunReport,
    ScenarioError,
    contention_run,
    fuzz,
    load_script,
    register_standard_handlers,
    run_script,
)
from promisekit.predicates import InstanceId, Named
from promisekit.protocol import ActionMsg, Envelope
from promisekit.service import PromiseManager, ServiceError

from conftest import SEAT_DOC, widget_doc


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


@pytest.mark.parametrize("cap", [0, -5, "60"])
def test_script_duration_cap_must_be_a_positive_integer(cap):
    script = {"name": "capped", "catalog-inline": widget_doc(2), "duration-cap": cap,
              "clients": [{"name": "c", "steps": []}]}
    with pytest.raises(ServiceError) as exc:
        run_script(script)
    assert exc.value.code == "config-error"


@pytest.mark.parametrize("seed", ["x", True, 2.5])
def test_cli_reports_a_seed_that_is_not_an_integer_and_exits_2(tmp_path, capsys, seed):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"name": "seeded", "catalog-inline": widget_doc(2),
                                "seed": seed, "clients": [{"name": "c", "steps": []}]}))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be an integer")


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
    failure, outcomes, _, _ = harness._replay(steps, doc)
    assert failure is None
    assert outcomes[1] == "fault at commit: rolled back"


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
    noise = [{"client": 0, "kind": "advance", "by": 1} for _ in range(4)]
    trigger = {"client": 0, "kind": "action", "name": "purchase-stock",
               "payload": {"resource-type": "bulk", "amount": 1}}
    steps = noise[:2] + [trigger] + noise[2:]
    assert harness._replay(steps, doc)[0] is not None
    assert harness._minimize(steps, doc) == [trigger]


def test_a_failing_fuzz_run_reports_a_minimized_counterexample(monkeypatch):
    real = harness._verify_stack

    def planted(manager):
        problems = real(manager)
        if len(manager.engine.active) >= 2:
            problems.append("two promises are active")
        return problems

    monkeypatch.setattr(harness, "_verify_stack", planted)
    report = fuzz(1)
    assert not report.ok
    failed = next(inv for inv in report.invariants if inv["name"] == "step-invariants")
    assert not failed["ok"] and failed["detail"].endswith("two promises are active")
    failing_prefix = int(failed["detail"].split(":")[0].removeprefix("step ")) + 1
    counterexample = report.to_document()["counterexample"]
    assert 0 < len(counterexample) < failing_prefix
    doc = harness._fuzz_catalog_doc(random.Random(1))  # as fuzz(1) draws it
    failure = harness._replay(counterexample, doc)[0]
    assert failure is not None and failure["problems"] == ["two promises are active"]


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
    assert sum(report.counters[k] for k in harness.OBSERVED_COUNTERS
               if k != "observed-violations") == 3 * 30


def test_a_client_that_dies_fails_a_contention_run(monkeypatch):
    _raise_once(monkeypatch, harness._Client, "request")
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
    "banking": "9df87b35698250a7", "gallery": "b1237e8b4c89e792", "hotel": "c7888ba2e35734ea",
    "merchant": "db3de835f5b22445", "travel": "4dd4c96ebe24713d"}
PINNED_FUZZ_DIGESTS = ["96351c307b7e7564", "53e2bc0afd6e88a2", "0aac4df72ee7a165",
                       "142195dbed3e70d0", "8921595f3e807eb7", "18df628a9e44aaf5"]


@pytest.mark.parametrize("name", sorted(PINNED_SCENARIO_DIGESTS))
def test_bundled_scenario_digest_is_pinned(name):
    """A change that moves a logical-clock digest on purpose updates the pin
    and says why in CHANGES.md."""
    assert run_script(name).digest[:16] == PINNED_SCENARIO_DIGESTS[name]


@pytest.mark.parametrize("seed", range(len(PINNED_FUZZ_DIGESTS)))
def test_fuzz_digest_is_pinned(seed):
    assert fuzz(seed).digest[:16] == PINNED_FUZZ_DIGESTS[seed]


def test_a_planted_fault_reads_the_same_to_every_checker_caller():
    """A second Named record for one instance, written straight into the
    table past the grant's check, reaches the self-check, the report's
    `named-exclusivity` invariant and the fuzz verifier as one message."""
    mgr = PromiseManager(load_catalog(SEAT_DOC), clock=LogicalClock(), self_check=True)
    register_standard_handlers(mgr)
    seat = Named(InstanceId("seat", "2A"))
    mgr.engine.grant([seat], 30, 0)
    assert mgr.engine.problems() == []
    mgr.engine._put(PromiseRecord("p-99", (seat,), 0, 30), None)
    message = "instance seat/2A is named 2 times by active promises"

    mgr.handle(Envelope(action=ActionMsg("no-op")))
    assert message in mgr.self_check_failures[-1]["problems"]

    report = RunReport("planted", 0, "logical")
    harness._finish_report(report, mgr, {"observed-violations": 0})
    invariants = {inv["name"]: inv for inv in report.invariants}
    assert invariants["named-exclusivity"] == {
        "name": "named-exclusivity", "ok": False, "detail": message}
    assert not invariants["final-feasibility"]["ok"]

    assert message in harness._verify_stack(mgr)
