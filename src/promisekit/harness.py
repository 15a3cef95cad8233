"""Scenario and fuzz harness.

Drives a real server over the wire protocol with scripted or generated
clients, re-checks the system invariants as it goes, and produces a
deterministic RunReport.

Scheduling: under a logical clock the driver interleaves client steps
deterministically (round-robin, or a seeded shuffle), so a (script, seed)
pair always yields the same report digest. Under a wall clock the clients
free-run in threads and only the invariants are asserted, not ordering.

The fuzzer works in-process against the same pipeline, verifying after
every committed step that the max-flow feasibility answer matches the
exhaustive oracle and that the promise-table invariants hold. Failing
traces are minimized by greedy step removal.
"""

from __future__ import annotations

import json
import logging
import os
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from typing import Optional

from .catalog import (
    STATUS_AVAILABLE,
    DecrementPool,
    ResourceCatalog,
    SetInstanceStatus,
    SetProperty,
    digest_document,
    load_catalog,
    load_catalog_file,
)
from .clock import LogicalClock, WallClock
from .engine import check_satisfiable
from .oracle import brute_force_satisfiable
from .predicates import (
    AT_LEAST_IN_ORDER,
    EQUALS,
    InstanceId,
    Named,
    Property,
    PropertyConstraint,
    Quantity,
    PredicateInvalid,
    predicate_from_wire,
    satisfies,
    validate_predicate,
)
from .protocol import (
    ACTION_SUCCEEDED,
    OPTION_RELEASE_AFTER_SUCCESS,
    OPTION_RETAIN,
    RESULT_ACCEPTED,
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
from .service import (
    ACTION_NO_OP,
    ACTION_TABLE_DUMP,
    ActionFailure,
    PromiseManager,
    Server,
)

UNAVAILABLE_REASONS = ("resource-unavailable", "pool-underflow")


class ScenarioError(Exception):
    pass


# --- standard action handlers used by scenarios and fuzzing ---

def _purchase_stock(payload, unit, catalog: ResourceCatalog):
    rt, amount = _fields(payload, "resource-type", "amount")
    catalog.apply_mutation(unit, DecrementPool(rt, amount))
    return {"resource-type": rt, "amount": amount}


def _restock(payload, unit, catalog: ResourceCatalog):
    rt, amount = _fields(payload, "resource-type", "amount")
    if not isinstance(amount, int) or amount < 1:
        raise ActionFailure("restock amount must be a positive integer")
    catalog.apply_mutation(unit, DecrementPool(rt, -amount))
    return {"resource-type": rt, "amount": amount}


def _take_named(payload, unit, catalog: ResourceCatalog):
    rt, key = _fields(payload, "resource-type", "key")
    iid = InstanceId(rt, key)
    rec = catalog.instance(iid)
    if rec is None:
        raise ActionFailure(f"no instance {iid}")
    if rec.status == "taken":
        raise ActionFailure("resource-unavailable")
    catalog.apply_mutation(unit, SetInstanceStatus(iid, "taken"))
    return {"key": key}


def _take_matching(payload, unit, catalog: ResourceCatalog):
    rt, raw = _fields(payload, "resource-type", "constraints")
    try:
        constraints = tuple(
            PropertyConstraint(c["property"], c["comparator"], c["value"]) for c in raw)
        pred = Property(rt, constraints, 1)
    except (TypeError, KeyError) as exc:
        raise ActionFailure(f"bad constraints: {exc}") from exc
    view = catalog.snapshot_availability(unit)
    for rec in view.instances_of(rt):
        if rec.status == STATUS_AVAILABLE and satisfies(rec, pred, catalog.schema):
            catalog.apply_mutation(unit, SetInstanceStatus(rec.id, "taken"))
            return {"key": rec.id.key}
    raise ActionFailure("resource-unavailable")


def _set_property(payload, unit, catalog: ResourceCatalog):
    rt, key, prop, value = _fields(payload, "resource-type", "key", "property", "value")
    catalog.apply_mutation(unit, SetProperty(InstanceId(rt, key), prop, value))
    return {"key": key, "property": prop}


def _fail(payload, unit, catalog):
    reason = "scripted failure"
    if isinstance(payload, dict) and payload.get("reason"):
        reason = payload["reason"]
    raise ActionFailure(reason)


STANDARD_HANDLERS = {
    "purchase-stock": _purchase_stock,
    "restock": _restock,
    "take-named": _take_named,
    "take-matching": _take_matching,
    "set-property": _set_property,
    "fail": _fail,
}


def _fields(payload, *names):
    if not isinstance(payload, dict):
        raise ActionFailure("payload must be an object")
    try:
        return tuple(payload[n] for n in names)
    except KeyError as exc:
        raise ActionFailure(f"payload is missing {exc.args[0]!r}") from exc


def register_standard_handlers(manager: PromiseManager) -> None:
    for name, fn in STANDARD_HANDLERS.items():
        manager.register_handler(name, fn)


KNOWN_ACTIONS = tuple(sorted(STANDARD_HANDLERS)) + (ACTION_NO_OP, ACTION_TABLE_DUMP)


# --- run reports ---

@dataclass
class RunReport:
    name: str
    seed: int
    clock: str
    clients: dict[str, list[str]] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    invariants: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)
    trace: Optional[list] = None

    def add_invariant(self, name: str, ok: bool, detail: str = "") -> None:
        self.invariants.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return all(inv["ok"] for inv in self.invariants)

    def to_document(self) -> dict:
        doc = {
            "name": self.name,
            "seed": self.seed,
            "clock": self.clock,
            "clients": self.clients,
            "counters": self.counters,
            "invariants": self.invariants,
            "final": self.final,
            "ok": self.ok,
        }
        if self.trace is not None:
            doc["counterexample"] = self.trace
        doc["digest"] = digest_document(doc)
        return doc

    @property
    def digest(self) -> str:
        return self.to_document()["digest"]


def _collect_counters(manager: PromiseManager, observed: dict[str, int]) -> dict[str, int]:
    counters = dict(manager.engine.counters)
    counters.update(manager.counters)
    counters.update(observed)
    return counters


def _standard_invariants(report: RunReport, manager: PromiseManager,
                         observed_violations: int) -> None:
    view = manager.catalog.snapshot_availability()
    preds = manager.engine.active_predicates()
    report.add_invariant("final-feasibility", check_satisfiable(preds, view))
    overcommit = manager.engine.pool_overcommit(view)
    report.add_invariant("pool-additivity", not overcommit, detail=str(overcommit or ""))
    conflicts = manager.engine.named_conflicts()
    report.add_invariant("named-exclusivity", not conflicts,
                         detail=",".join(str(c) for c in conflicts))
    report.add_invariant("per-step-self-check", not manager.self_check_failures,
                         detail=f"{len(manager.self_check_failures)} failures")
    report.add_invariant(
        "violation-count-consistent",
        manager.counters["violations-rolled-back"] == observed_violations,
        detail=f"service={manager.counters['violations-rolled-back']} observed={observed_violations}")


# --- scripted scenarios ---

def bundled_scenario_path(name: str):
    ref = importlib_resources.files("promisekit").joinpath("scenarios", f"{name}.json")
    return ref


def load_script(source) -> dict:
    """Load a scenario script from a path, a bundled name, or a dict."""
    if isinstance(source, dict):
        script = dict(source)
        base = os.getcwd()
    else:
        path = str(source)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                script = json.load(fh)
            base = os.path.dirname(os.path.abspath(path))
        else:
            ref = bundled_scenario_path(path)
            if not ref.is_file():
                raise ScenarioError(f"no script file or bundled scenario named {path!r}")
            script = json.loads(ref.read_text(encoding="utf-8"))
            base = None  # bundled catalogs resolve inside the package
        script.setdefault("name", os.path.splitext(os.path.basename(path))[0])
        script["_base"] = base
    return script


def _script_catalog(script: dict, override=None) -> ResourceCatalog:
    if override is not None:
        return load_catalog_file(override)
    if "catalog-inline" in script:
        return load_catalog(script["catalog-inline"])
    name = script.get("catalog")
    if not name:
        raise ScenarioError("script names no catalog")
    base = script.get("_base", os.getcwd())
    if base is None:
        ref = importlib_resources.files("promisekit").joinpath("scenarios", name)
        if not ref.is_file():
            raise ScenarioError(f"bundled catalog {name!r} not found")
        return load_catalog(json.loads(ref.read_text(encoding="utf-8")))
    return load_catalog_file(os.path.join(base, name))


class _Unbound(Exception):
    """A step names a promise its client never got."""


class _WireClient:
    def __init__(self, name: str, steps: list, address):
        self.name = name
        self.steps = steps
        self.vars: dict[str, str] = {}
        self.outcomes: list[str] = []
        self.rid = 0
        self.sock = None
        self.address = address

    def connect(self):
        self.sock = socket.create_connection(self.address, timeout=30)

    def close(self):
        if self.sock is not None:
            self.sock.close()

    def roundtrip(self, envelope: Envelope) -> Envelope:
        send_frame(self.sock, encode(envelope))
        return decode(recv_frame(self.sock))

    def resolve(self, ref: str) -> str:
        if isinstance(ref, str) and ref.startswith("$"):
            if ref[1:] not in self.vars:
                raise _Unbound(ref)
            return self.vars[ref[1:]]
        return ref


class _ScriptRun:
    def __init__(self, script: dict, catalog_override=None, verbose=False):
        self.script = script
        self.verbose = verbose
        self.clock_mode = script.get("clock", "logical")
        if self.clock_mode not in ("logical", "wall"):
            raise ScenarioError(f"unknown clock mode {self.clock_mode!r}")
        self.seed = int(script.get("seed", 0))
        self.schedule = script.get("schedule", "round-robin")
        if self.schedule not in ("round-robin", "seeded"):
            raise ScenarioError(f"unknown schedule {self.schedule!r}")
        catalog = _script_catalog(script, catalog_override)
        clock = LogicalClock() if self.clock_mode == "logical" else WallClock()
        self.manager = PromiseManager(catalog, clock=clock,
                                      duration_cap=script.get("duration-cap"),
                                      self_check=True)
        register_standard_handlers(self.manager)
        self._validate_script(catalog)
        self.expect_failures: list[str] = []
        self.observed = {"observed-accepted": 0, "observed-rejected": 0,
                         "observed-violations": 0, "actions-succeeded": 0,
                         "actions-failed": 0}
        self.take_keys: list[str] = []

    def _validate_script(self, catalog: ResourceCatalog) -> None:
        clients = self.script.get("clients", [])
        if not clients:
            raise ScenarioError("script declares no clients")
        for client in clients:
            bound: set[str] = set()
            for step in client.get("steps", []):
                kind = step.get("kind")
                if kind == "request":
                    for raw in step.get("predicates", []):
                        try:
                            pred = predicate_from_wire(raw)
                            validate_predicate(pred, catalog.schema)
                        except (ValueError, PredicateInvalid) as exc:
                            raise ScenarioError(f"bad predicate in script: {exc}") from exc
                    for ref in step.get("release-on-grant", []):
                        self._check_ref(ref, bound, client["name"])
                    if step.get("save-as"):
                        bound.add(step["save-as"])
                elif kind == "action":
                    if step.get("name") not in KNOWN_ACTIONS:
                        raise ScenarioError(f"unknown action {step.get('name')!r}")
                    for entry in step.get("environment", []):
                        self._check_ref(entry.get("promise"), bound, client["name"])
                elif kind == "advance-clock":
                    if self.clock_mode != "logical":
                        raise ScenarioError("advance-clock requires the logical clock")
                elif kind == "think":
                    pass
                else:
                    raise ScenarioError(f"unknown step kind {kind!r}")

    @staticmethod
    def _check_ref(ref, bound: set[str], client: str) -> None:
        if not isinstance(ref, str) or not ref.startswith("$"):
            raise ScenarioError(f"{client}: promise references must look like $name, got {ref!r}")
        if ref[1:] not in bound:
            raise ScenarioError(f"{client}: {ref} is used before it is bound")

    def run(self) -> RunReport:
        server = Server(self.manager)
        clients = [_WireClient(c["name"], list(c.get("steps", [])), server.address)
                   for c in self.script.get("clients", [])]
        try:
            for c in clients:
                c.connect()
            if self.clock_mode == "logical":
                self._run_lockstep(clients)
            else:
                self._run_threads(clients)
        finally:
            for c in clients:
                c.close()
            server.stop()
        return self._report(clients)

    def _run_lockstep(self, clients: list[_WireClient]) -> None:
        rng = random.Random(self.seed)
        cursors = [0] * len(clients)
        if self.schedule == "round-robin":
            pending = True
            while pending:
                pending = False
                for i, c in enumerate(clients):
                    if cursors[i] < len(c.steps):
                        self._execute(c, c.steps[cursors[i]])
                        cursors[i] += 1
                        pending = pending or cursors[i] < len(c.steps)
        else:
            while True:
                ready = [i for i, c in enumerate(clients) if cursors[i] < len(c.steps)]
                if not ready:
                    break
                i = rng.choice(ready)
                self._execute(clients[i], clients[i].steps[cursors[i]])
                cursors[i] += 1

    def _run_threads(self, clients: list[_WireClient]) -> None:
        def worker(c: _WireClient):
            for step in c.steps:
                self._execute(c, step)

        threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def _execute(self, client: _WireClient, step: dict) -> None:
        """Run one step; skip it if it names a promise its client never got.

        The request that would have bound it was rejected, which a seeded
        schedule can cause; the skipped step counts as a failed expectation.
        """
        try:
            self._execute_step(client, step)
        except _Unbound as exc:
            client.outcomes.append(f"{step['kind']} skipped: {exc} unbound")
            self.expect_failures.append(
                f"{client.name}: {exc} never bound, so the step was skipped: {step}")

    def _execute_step(self, client: _WireClient, step: dict) -> None:
        kind = step["kind"]
        if kind == "advance-clock":
            self.manager.clock.advance(step.get("by", 1))
            client.outcomes.append(f"advance-clock {step.get('by', 1)}")
            return
        if kind == "think":
            if self.clock_mode == "wall":
                time.sleep(step.get("ms", 1) / 1000.0)
            client.outcomes.append("think")
            return
        if kind == "request":
            release = tuple(client.resolve(r) for r in step.get("release-on-grant", []))
            client.rid += 1
            rid = f"{client.name}-r{client.rid}"
            preds = tuple(predicate_from_wire(p) for p in step["predicates"])
            msg = make_request(rid, preds, step["duration"], release)
            reply = client.roundtrip(Envelope(promise_part=PromisePart(requests=(msg,))))
            response = reply.promise_part.responses[0] if reply.promise_part else None
            if response is not None and response.result == RESULT_ACCEPTED:
                outcome = "accepted"
                self.observed["observed-accepted"] += 1
                if step.get("save-as"):
                    client.vars[step["save-as"]] = response.promise_id
            else:
                outcome = "rejected" if reply.error is None else f"error {reply.error}"
                self.observed["observed-rejected"] += 1
            client.outcomes.append(f"request {client.rid}: {outcome}")
            self._expect(client, step, outcome)
            return
        if kind == "action":
            env = None
            entries = step.get("environment", [])
            if entries:
                env = EnvironmentMsg(
                    tuple(client.resolve(e["promise"]) for e in entries),
                    tuple(e.get("option", OPTION_RELEASE_AFTER_SUCCESS) for e in entries))
            envelope = Envelope(action=ActionMsg(step["name"], step.get("payload")),
                                environment=env)
            reply = client.roundtrip(envelope)
            if reply.action is not None:
                status = reply.action.status
                if status == ACTION_SUCCEEDED:
                    self.observed["actions-succeeded"] += 1
                    payload = reply.action.payload
                    if isinstance(payload, dict) and step["name"].startswith("take-"):
                        self.take_keys.append(payload.get("key"))
                else:
                    self.observed["actions-failed"] += 1
                if status == "rejected-by-promise-violation":
                    self.observed["observed-violations"] += 1
            else:
                status = f"error {reply.error}"
            client.outcomes.append(f"action {step['name']}: {status}")
            self._expect(client, step, status)
            return
        raise ScenarioError(f"unknown step kind {kind!r}")

    def _expect(self, client: _WireClient, step: dict, outcome: str) -> None:
        want = step.get("expect")
        if want is not None and want != outcome:
            self.expect_failures.append(
                f"{client.name}: expected {want!r}, got {outcome!r} at {step}")

    def _report(self, clients: list[_WireClient]) -> RunReport:
        report = RunReport(self.script.get("name", "scenario"), self.seed, self.clock_mode)
        for c in clients:
            report.clients[c.name] = c.outcomes
        report.counters = _collect_counters(self.manager, self.observed)
        report.add_invariant("expectations", not self.expect_failures,
                             detail="; ".join(self.expect_failures))
        _standard_invariants(report, self.manager, self.observed["observed-violations"])
        self._final_expectations(report, clients)
        report.final = {
            "catalog-digest": self.manager.catalog.state_digest(),
            "promise-table": self.manager.engine.dump()["promises"],
        }
        return report

    def _final_expectations(self, report: RunReport, clients: list[_WireClient]) -> None:
        want = self.script.get("expect-final")
        if not want:
            return
        problems = []
        by_name = {c.name: c for c in clients}
        for rt, count in want.get("pools", {}).items():
            actual = self.manager.catalog.quantity_on_hand(rt)
            if actual != count:
                problems.append(f"pool {rt}: expected {count}, got {actual}")
        for ref, status in want.get("promise-status", {}).items():
            client_name, _, var = ref.partition(".")
            client = by_name.get(client_name)
            pid = client.vars.get(var) if client else None
            rec = self.manager.engine.record(pid) if pid else None
            actual = rec.status if rec else "missing"
            if actual != status:
                problems.append(f"promise {ref}: expected {status}, got {actual}")
        for ref, status in want.get("instance-status", {}).items():
            rt, _, key = ref.partition("/")
            rec = self.manager.catalog.instance(InstanceId(rt, key))
            actual = rec.status if rec else "missing"
            if actual != status:
                problems.append(f"instance {ref}: expected {status}, got {actual}")
        if want.get("distinct-take-keys"):
            if len(self.take_keys) != len(set(self.take_keys)):
                problems.append(f"taken keys collide: {self.take_keys}")
        report.add_invariant("final-state", not problems, detail="; ".join(problems))


def run_script(source, catalog_override=None, verbose: bool = False) -> RunReport:
    script = load_script(source)
    return _ScriptRun(script, catalog_override, verbose).run()


# --- wall-clock contention load over the wire ---

def contention_run(n_clients: int = 8, envelopes_each: int = 200,
                   seed: int = 0) -> RunReport:
    """Concurrent clients hammer one pool and a few named seats.

    Asserts the isolation guarantee directly: an action performed under an
    active covering promise never fails for lack of resources.
    """
    catalog = load_catalog({
        "resource-types": [
            {"name": "widget", "pool": 15},
            {"name": "seat",
             "properties": [{"name": "class", "order": ["economy", "business", "first"]}],
             "instances": [
                 {"key": f"s{i}", "properties": {"class": cls}}
                 for i, cls in enumerate(["economy", "economy", "business", "business", "first"])
             ]},
        ]
    })
    manager = PromiseManager(catalog, clock=WallClock(), self_check=True)
    register_standard_handlers(manager)
    server = Server(manager)
    unavailable_under_promise: list[str] = []
    observed = {"observed-accepted": 0, "observed-rejected": 0,
                "observed-violations": 0, "actions-succeeded": 0, "actions-failed": 0}
    counter_lock = threading.Lock()

    def client(idx: int):
        rng = random.Random(f"{seed}-{idx}")
        c = _WireClient(f"c{idx}", [], server.address)
        c.connect()
        budget = envelopes_each
        rid = 0
        try:
            while budget > 0:
                def send(envelope) -> Envelope:
                    nonlocal budget
                    budget -= 1
                    return c.roundtrip(envelope)

                def request(preds, duration=600):
                    nonlocal rid
                    rid += 1
                    msg = make_request(f"c{idx}-r{rid}", preds, duration)
                    reply = send(Envelope(promise_part=PromisePart(requests=(msg,))))
                    resp = reply.promise_part.responses[0]
                    with counter_lock:
                        if resp.result == RESULT_ACCEPTED:
                            observed["observed-accepted"] += 1
                        else:
                            observed["observed-rejected"] += 1
                    return resp

                def action(name, payload, env_ids=(), options=()):
                    envmsg = EnvironmentMsg(tuple(env_ids), tuple(options)) if env_ids else None
                    reply = send(Envelope(action=ActionMsg(name, payload), environment=envmsg))
                    status = reply.action.status if reply.action else f"error {reply.error}"
                    reason = ""
                    if reply.action and isinstance(reply.action.payload, dict):
                        reason = reply.action.payload.get("reason", "")
                    with counter_lock:
                        if status == ACTION_SUCCEEDED:
                            observed["actions-succeeded"] += 1
                        else:
                            observed["actions-failed"] += 1
                        if status == "rejected-by-promise-violation":
                            observed["observed-violations"] += 1
                        if env_ids and (reason in UNAVAILABLE_REASONS
                                        or status == "rejected-by-promise-violation"):
                            unavailable_under_promise.append(
                                f"c{idx}: {name} under promise -> {status} ({reason})")
                    return status

                roll = rng.random()
                if roll < 0.55 and budget >= 3:
                    k = rng.randint(1, 3)
                    resp = request((Quantity("widget", k),))
                    if resp.result == RESULT_ACCEPTED:
                        action("purchase-stock", {"resource-type": "widget", "amount": k},
                               (resp.promise_id,), (OPTION_RELEASE_AFTER_SUCCESS,))
                        action("restock", {"resource-type": "widget", "amount": k})
                    else:
                        # unpromised consumption keeps the post-check busy
                        action("purchase-stock", {"resource-type": "widget", "amount": k})
                elif roll < 0.8 and budget >= 2:
                    key = f"s{rng.randrange(5)}"
                    resp = request((Named(InstanceId("seat", key)),))
                    if resp.result == RESULT_ACCEPTED:
                        action(ACTION_NO_OP, None,
                               (resp.promise_id,), (OPTION_RELEASE_AFTER_SUCCESS,))
                elif budget >= 2:
                    level = rng.choice(["economy", "business"])
                    resp = request((Property("seat",
                                             (PropertyConstraint("class", AT_LEAST_IN_ORDER, level),),
                                             1),))
                    if resp.result == RESULT_ACCEPTED:
                        action(ACTION_NO_OP, None,
                               (resp.promise_id,), (OPTION_RELEASE_AFTER_SUCCESS,))
                else:
                    send(Envelope(action=ActionMsg(ACTION_NO_OP, None)))
        finally:
            c.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server.stop()

    report = RunReport("contention", seed, "wall")
    report.clients = {f"c{i}": [] for i in range(n_clients)}
    report.counters = _collect_counters(manager, observed)
    report.add_invariant("no-unavailability-under-promise", not unavailable_under_promise,
                         detail="; ".join(unavailable_under_promise[:5]))
    _standard_invariants(report, manager, observed["observed-violations"])
    report.final = {"catalog-digest": manager.catalog.state_digest(),
                    "promise-table": manager.engine.dump()["promises"]}
    return report


# --- fuzzing ---

class _InjectedFault(RuntimeError):
    pass


def _fuzz_catalog_doc(rng: random.Random) -> dict:
    classes = ["economy", "business", "first"]
    n_inst = rng.randint(3, 6)
    return {
        "resource-types": [
            {"name": "bulk", "pool": rng.randint(3, 6)},
            {"name": "thing",
             "properties": [{"name": "color", "domain": ["red", "blue"]},
                            {"name": "grade", "order": classes}],
             "instances": [
                 {"key": f"t{i}", "properties": {"color": rng.choice(["red", "blue"]),
                                                 "grade": rng.choice(classes)}}
                 for i in range(n_inst)
             ]},
        ]
    }


def _gen_predicate(rng: random.Random, n_inst: int):
    roll = rng.random()
    if roll < 0.4:
        rt = "bulk" if rng.random() < 0.6 else "thing"
        return {"form": "quantity", "resource-type": rt, "amount": rng.randint(1, 2)}
    if roll < 0.65:
        return {"form": "named", "resource-type": "thing", "key": f"t{rng.randrange(n_inst)}"}
    constraints = [{"property": "grade", "comparator": AT_LEAST_IN_ORDER,
                    "value": rng.choice(["economy", "business", "first"])}]
    if rng.random() < 0.4:
        constraints.append({"property": "color", "comparator": EQUALS,
                            "value": rng.choice(["red", "blue"])})
    return {"form": "property", "resource-type": "thing",
            "amount": rng.randint(1, 2), "constraints": constraints}


def _gen_steps(rng: random.Random, n_clients: int, n_steps: int, n_inst: int) -> list[dict]:
    steps: list[dict] = []
    live_estimate: set[int] = set()  # grant step indices assumed still active
    for i in range(n_steps):
        client = rng.randrange(n_clients)
        roll = rng.random()
        if roll < 0.40 and len(live_estimate) < 6:
            step = {"client": client, "kind": "grant",
                    "predicates": [_gen_predicate(rng, n_inst)
                                   for _ in range(rng.randint(1, 2))],
                    "duration": rng.randint(2, 8)}
            live_estimate.add(i)
        elif roll < 0.52 and live_estimate:
            target = rng.choice(sorted(live_estimate))
            step = {"client": client, "kind": "release", "target": target}
            live_estimate.discard(target)
        elif roll < 0.62 and live_estimate:
            target = rng.choice(sorted(live_estimate))
            step = {"client": client, "kind": "exchange",
                    "predicates": [_gen_predicate(rng, n_inst)],
                    "duration": rng.randint(2, 8), "targets": [target]}
            live_estimate.discard(target)
            live_estimate.add(i)
        elif roll < 0.85:
            step = {"client": client, "kind": "action", **_gen_action(rng, n_inst)}
            if rng.random() < 0.5 and live_estimate:
                target = rng.choice(sorted(live_estimate))
                option = rng.choice((OPTION_RETAIN, OPTION_RELEASE_AFTER_SUCCESS))
                step["environment"] = [[target, option]]
                if option == OPTION_RELEASE_AFTER_SUCCESS:
                    live_estimate.discard(target)
        elif roll < 0.95:
            step = {"client": client, "kind": "advance", "by": rng.randint(1, 3)}
            live_estimate.clear()  # expiry may reap anything; stay conservative
        else:
            stage = rng.choice(("sweep", "requests", "action", "post-check", "commit"))
            if stage in ("action", "post-check"):
                inner = {"client": client, "kind": "action", **_gen_action(rng, n_inst)}
            else:
                inner = {"client": client, "kind": "grant",
                         "predicates": [_gen_predicate(rng, n_inst)],
                         "duration": rng.randint(2, 8)}
            step = {"client": client, "kind": "fault", "stage": stage, "inner": inner}
        steps.append(step)
    return steps


def _gen_action(rng: random.Random, n_inst: int) -> dict:
    roll = rng.random()
    if roll < 0.4:
        return {"name": "purchase-stock",
                "payload": {"resource-type": "bulk", "amount": rng.randint(1, 3)}}
    if roll < 0.55:
        return {"name": "restock",
                "payload": {"resource-type": "bulk", "amount": rng.randint(1, 2)}}
    if roll < 0.75:
        return {"name": "take-named",
                "payload": {"resource-type": "thing", "key": f"t{rng.randrange(n_inst)}"}}
    if roll < 0.9:
        return {"name": "take-matching",
                "payload": {"resource-type": "thing",
                            "constraints": [{"property": "grade",
                                             "comparator": AT_LEAST_IN_ORDER,
                                             "value": rng.choice(["economy", "business"])}]}}
    return {"name": "fail", "payload": {"reason": "injected business failure"}}


def _verify_stack(manager: PromiseManager) -> list[str]:
    problems = []
    view = manager.catalog.snapshot_availability()
    preds = manager.engine.active_predicates()
    flow = check_satisfiable(preds, view)
    if len(preds) <= 8:
        oracle = brute_force_satisfiable(preds, view)
        if flow != oracle:
            problems.append(f"flow={flow} oracle={oracle} disagree")
    if not flow:
        problems.append("committed active set is infeasible")
    overcommit = manager.engine.pool_overcommit(view)
    if overcommit:
        problems.append(f"pool overcommit {overcommit}")
    conflicts = manager.engine.named_conflicts()
    if conflicts:
        problems.append(f"double-promised {[str(c) for c in conflicts]}")
    if manager.self_check_failures:
        problems.append(f"self-check failures {manager.self_check_failures}")
    return problems


def _replay(steps: list[dict], catalog_doc: dict):
    """Run steps on a fresh stack. Returns (failure, outcomes, manager)."""
    manager = PromiseManager(load_catalog(catalog_doc), clock=LogicalClock(), self_check=True)
    register_standard_handlers(manager)
    granted: dict[int, str] = {}
    outcomes: list[str] = []

    def run_one(index: int, step: dict) -> str:
        kind = step["kind"]
        if kind == "advance":
            manager.clock.advance(step["by"])
            return f"advance {step['by']}"
        if kind == "fault":
            stage = step["stage"]
            before = manager.state_digest()

            def hook(current: str):
                if current == stage:
                    raise _InjectedFault(stage)

            manager.fault_hook = hook
            logger = logging.getLogger("promisekit")
            muffle = logger.level  # the rollback traceback is the expected outcome here
            logger.setLevel(logging.CRITICAL)
            try:
                reply = _apply_step(manager, granted, index, step["inner"])
            finally:
                manager.fault_hook = None
                logger.setLevel(muffle)
            fired = reply is not None and reply.error == "internal-failure"
            if not fired:
                # the armed stage never ran (e.g. handler failed first);
                # the envelope committed normally and no equality is owed
                return f"fault at {stage}: not reached ({_describe_reply(step['inner'], reply)})"
            after = manager.state_digest()
            if before != after:
                return f"fault at {stage}: STATE CHANGED"
            return f"fault at {stage}: rolled back"
        reply = _apply_step(manager, granted, index, step)
        return _describe_reply(step, reply)

    for i, step in enumerate(steps):
        outcome = run_one(i, step)
        outcomes.append(outcome)
        if "STATE CHANGED" in outcome:
            return {"step": i, "problems": ["fault rollback was not exact"]}, outcomes, manager
        problems = _verify_stack(manager)
        if problems:
            return {"step": i, "problems": problems}, outcomes, manager
    return None, outcomes, manager


def _resolve_target(granted: dict[int, str], target: int) -> Optional[str]:
    # a rejected grant leaves no id; fall back to the newest granted one so
    # release traffic stays high (deterministic either way)
    pid = granted.get(target)
    if pid is None and granted:
        return granted[max(granted)]
    return pid


def _apply_step(manager: PromiseManager, granted: dict[int, str],
                index: int, step: dict) -> Optional[Envelope]:
    kind = step["kind"]
    if kind in ("grant", "exchange"):
        release = []
        for target in step.get("targets", []):
            pid = _resolve_target(granted, target)
            if pid is None:
                return None  # nothing granted yet; skip deterministically
            release.append(pid)
        preds = tuple(predicate_from_wire(p) for p in step["predicates"])
        msg = make_request(f"f-{index}", preds, step["duration"], tuple(release))
        reply = manager.handle(Envelope(promise_part=PromisePart(requests=(msg,))))
        if reply.promise_part:
            resp = reply.promise_part.responses[0]
            if resp.result == RESULT_ACCEPTED:
                granted[index] = resp.promise_id
        return reply
    if kind == "release":
        pid = _resolve_target(granted, step["target"])
        if pid is None:
            return None
        env = EnvironmentMsg((pid,), (OPTION_RELEASE_AFTER_SUCCESS,))
        return manager.handle(Envelope(action=ActionMsg(ACTION_NO_OP, None), environment=env))
    if kind == "action":
        env = None
        entries = step.get("environment", [])
        if entries:
            ids, options = [], []
            for target, option in entries:
                pid = _resolve_target(granted, target)
                if pid is None:
                    continue
                ids.append(pid)
                options.append(option)
            if ids:
                env = EnvironmentMsg(tuple(ids), tuple(options))
        return manager.handle(Envelope(action=ActionMsg(step["name"], step.get("payload")),
                                       environment=env))
    raise ScenarioError(f"unknown fuzz step kind {kind!r}")


def _describe_reply(step: dict, reply: Optional[Envelope]) -> str:
    if reply is None:
        return f"{step['kind']}: skipped"
    if reply.error:
        return f"{step['kind']}: error {reply.error}"
    if reply.action is not None:
        return f"{step['kind']} {reply.action.action_name}: {reply.action.status}"
    if reply.promise_part and reply.promise_part.responses:
        resp = reply.promise_part.responses[0]
        tail = f" {resp.promise_id}" if resp.promise_id else ""
        return f"{step['kind']}: {resp.result}{tail}"
    return f"{step['kind']}: ok"


def _minimize(steps: list[dict], catalog_doc: dict) -> list[dict]:
    """Greedy step removal keeping the failure alive."""
    current = list(steps)
    shrunk = True
    while shrunk and len(current) > 1:
        shrunk = False
        for i in range(len(current)):
            candidate = current[:i] + current[i + 1:]
            failure, _, _ = _replay(candidate, catalog_doc)
            if failure is not None:
                current = candidate
                shrunk = True
                break
    return current


def fuzz(seed: int, n_clients: int = 3, n_steps: int = 60,
         verbose: bool = False) -> RunReport:
    rng = random.Random(seed)
    catalog_doc = _fuzz_catalog_doc(rng)
    n_inst = len(catalog_doc["resource-types"][1]["instances"])
    steps = _gen_steps(rng, n_clients, n_steps, n_inst)

    failure, outcomes, manager = _replay(steps, catalog_doc)

    report = RunReport("fuzz", seed, "logical")
    by_client: dict[str, list[str]] = {f"c{i}": [] for i in range(n_clients)}
    for step, outcome in zip(steps, outcomes):
        by_client[f"c{step['client']}"].append(outcome)
    report.clients = by_client
    observed_violations = sum(
        "rejected-by-promise-violation" in o for o in outcomes)
    report.counters = _collect_counters(
        manager, {"observed-violations": observed_violations})
    report.add_invariant("step-invariants", failure is None,
                         detail="" if failure is None else
                         f"step {failure['step']}: {'; '.join(failure['problems'])}")
    _standard_invariants(report, manager, observed_violations)
    report.final = {"catalog-digest": manager.catalog.state_digest(),
                    "promise-table": manager.engine.dump()["promises"]}
    if failure is not None:
        trace = _minimize(steps[:failure["step"] + 1], catalog_doc)
        report.trace = trace
    return report
