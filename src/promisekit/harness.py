"""Scenario and fuzz harness.

Drives a real server over the wire protocol with scripted or generated
clients, re-checks the system invariants as it goes, and produces a
deterministic RunReport.

Scheduling: under a logical clock the driver interleaves client steps
deterministically (round-robin, or a seeded shuffle), so a (script, seed)
pair always yields the same report digest. Under a wall clock the clients
free-run in threads and only the invariants are asserted, not ordering;
an error reply, or an exception that ends a client, fails the
`client-failures` invariant.

Scripts, the contention load and the fuzzer all send through one client,
which builds each envelope and counts its reply. The fuzzer hands it the
manager's `handle` instead of a wire connection, and after every step
checks that the promise-table invariants hold and that the engine's
feasibility answer matches the exhaustive oracle. Failing traces are
minimized by greedy step removal.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from typing import Callable, Optional

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
    ACTION_REJECTED_BY_PROMISE_VIOLATION,
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

log = logging.getLogger("promisekit")

UNAVAILABLE_REASONS = ("resource-unavailable", "pool-underflow")
OBSERVED_COUNTERS = ("observed-accepted", "observed-rejected", "observed-violations",
                     "actions-succeeded", "actions-failed")


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


def _finish_report(report: RunReport, manager: PromiseManager,
                   observed: dict[str, int]) -> RunReport:
    """Add the counters, the invariants every run ends with and the final state."""
    report.counters = {**manager.engine.counters, **manager.counters, **observed}
    by_name: dict = {"final-feasibility": [], "pool-additivity": [], "named-exclusivity": []}
    for p in manager.engine.problems():
        # any other problem ("index", "feasibility") says the final table is unsound
        by_name.get(p.name, by_name["final-feasibility"]).append(p.message)
    for name, messages in by_name.items():
        report.add_invariant(name, not messages, detail="; ".join(messages))
    report.add_invariant("per-step-self-check", not manager.self_check_failures,
                         detail=f"{len(manager.self_check_failures)} failures")
    observed_violations = observed["observed-violations"]
    report.add_invariant(
        "violation-count-consistent",
        manager.counters["violations-rolled-back"] == observed_violations,
        detail=f"service={manager.counters['violations-rolled-back']} observed={observed_violations}")
    report.final = {"catalog-digest": manager.catalog.state_digest(),
                    "promise-table": manager.engine.dump()["promises"]}
    return report


# --- clients ---

class _Unbound(Exception):
    """A step names a promise its client never got."""


class _Client:
    """One client of a run. `request` and `act` build an envelope, pass it
    to `send` (a wire round trip, or `PromiseManager.handle` in process)
    and count the reply in the run's `observed` counters under `lock`."""

    def __init__(self, name: str, send: Callable[[Envelope], Envelope],
                 observed: dict[str, int], lock: threading.Lock, steps=()):
        self.name = name
        self.send = send
        self.observed = observed
        self.lock = lock
        self.steps = list(steps)
        self.vars: dict[str, str] = {}
        self.outcomes: list[str] = []
        self.errors: list[str] = []  # every error reply, and the exception that ended it
        self.rid = self.sent = 0

    def _roundtrip(self, envelope: Envelope) -> Envelope:
        self.sent += 1
        reply = self.send(envelope)
        if reply.error is not None:
            self.errors.append(f"{self.name}: error reply {reply.error}")
        return reply

    def request(self, predicates, duration: int, release=()) -> tuple[Envelope, Optional[str]]:
        """Ask for one promise; returns the reply and the granted id, or None."""
        self.rid += 1
        msg = make_request(f"{self.name}-r{self.rid}", predicates, duration, release)
        reply = self._roundtrip(Envelope(promise_part=PromisePart(requests=(msg,))))
        resp = reply.promise_part.responses[0] if reply.promise_part else None
        pid = resp.promise_id if resp is not None and resp.result == RESULT_ACCEPTED else None
        with self.lock:
            self.observed["observed-rejected" if pid is None else "observed-accepted"] += 1
        return reply, pid

    def act(self, name: str, payload=None, environment=()) -> Envelope:
        """Run an action under `environment`, pairs of (promise id, release option)."""
        env = EnvironmentMsg(tuple(pid for pid, _ in environment),
                             tuple(option for _, option in environment)) if environment else None
        reply = self._roundtrip(Envelope(action=ActionMsg(name, payload), environment=env))
        if reply.action is not None:
            status = reply.action.status
            with self.lock:
                self.observed["actions-succeeded" if status == ACTION_SUCCEEDED
                              else "actions-failed"] += 1
                if status == ACTION_REJECTED_BY_PROMISE_VIOLATION:
                    self.observed["observed-violations"] += 1
        return reply

    def resolve(self, ref: str) -> str:
        if isinstance(ref, str) and ref.startswith("$"):
            if ref[1:] not in self.vars:
                raise _Unbound(ref)
            return self.vars[ref[1:]]
        return ref


def _wire(sock: socket.socket) -> Callable[[Envelope], Envelope]:
    def roundtrip(envelope: Envelope) -> Envelope:
        send_frame(sock, encode(envelope))
        return decode(recv_frame(sock))
    return roundtrip


@contextlib.contextmanager
def _serving(manager: PromiseManager, n_clients: int):
    """Serve `manager` on a local port; yield one wire round trip per client."""
    server = Server(manager)
    try:
        with contextlib.ExitStack() as stack:
            yield [_wire(stack.enter_context(socket.create_connection(server.address, timeout=30)))
                   for _ in range(n_clients)]
    finally:
        server.stop()


def _run_threads(report: RunReport, clients: list[_Client],
                 body: Callable[[_Client], None]) -> None:
    """Run `body(client)` for every client in its own thread. Every error
    reply, and every exception that ends a client, fails the report's
    `client-failures` invariant instead of dying with its thread."""
    def guarded(client: _Client) -> None:
        try:
            body(client)
        except Exception as exc:
            log.exception("client %s died", client.name)
            client.errors.append(f"{client.name}: died of {type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=guarded, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    failures = [e for c in clients for e in c.errors]
    report.add_invariant("client-failures", not failures,
                         detail=f"{len(failures)} failures: {'; '.join(failures[:5])}"
                         if failures else "")


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


class _ScriptRun:
    def __init__(self, script: dict, catalog_override=None):
        self.script = script
        self.clock_mode = script.get("clock", "logical")
        if self.clock_mode not in ("logical", "wall"):
            raise ScenarioError(f"unknown clock mode {self.clock_mode!r}")
        self.seed = script.get("seed", 0)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ScenarioError(f"seed must be an integer, got {self.seed!r}")
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
        report = RunReport(self.script.get("name", "scenario"), self.seed, self.clock_mode)
        scripted = self.script["clients"]
        observed, lock = dict.fromkeys(OBSERVED_COUNTERS, 0), threading.Lock()
        with _serving(self.manager, len(scripted)) as sends:
            clients = [_Client(c["name"], send, observed, lock, c.get("steps", []))
                       for c, send in zip(scripted, sends)]
            if self.clock_mode == "logical":
                self._run_lockstep(clients)
            else:
                _run_threads(report, clients, self._run_steps)
        report.clients = {c.name: c.outcomes for c in clients}
        report.add_invariant("expectations", not self.expect_failures,
                             detail="; ".join(self.expect_failures))
        _finish_report(report, self.manager, observed)
        self._final_expectations(report, clients)
        return report

    def _run_lockstep(self, clients: list[_Client]) -> None:
        rng = random.Random(self.seed)
        cursors = [0] * len(clients)
        while True:
            ready = [i for i, c in enumerate(clients) if cursors[i] < len(c.steps)]
            if not ready:
                return
            for i in ready if self.schedule == "round-robin" else [rng.choice(ready)]:
                self._execute(clients[i], clients[i].steps[cursors[i]])
                cursors[i] += 1

    def _run_steps(self, client: _Client) -> None:
        for step in client.steps:
            self._execute(client, step)

    def _execute(self, client: _Client, step: dict) -> None:
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

    def _execute_step(self, client: _Client, step: dict) -> None:
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
            release = [client.resolve(r) for r in step.get("release-on-grant", [])]
            preds = tuple(predicate_from_wire(p) for p in step["predicates"])
            reply, pid = client.request(preds, step["duration"], release)
            if pid is not None:
                outcome = "accepted"
                if step.get("save-as"):
                    client.vars[step["save-as"]] = pid
            else:
                outcome = "rejected" if reply.error is None else f"error {reply.error}"
            client.outcomes.append(f"request {client.rid}: {outcome}")
            self._expect(client, step, outcome)
            return
        if kind == "action":
            env = [(client.resolve(e["promise"]), e.get("option", OPTION_RELEASE_AFTER_SUCCESS))
                   for e in step.get("environment", [])]
            reply = client.act(step["name"], step.get("payload"), env)
            if reply.action is None:
                status = f"error {reply.error}"
            else:
                status, payload = reply.action.status, reply.action.payload
                if status == ACTION_SUCCEEDED and isinstance(payload, dict) \
                        and step["name"].startswith("take-"):
                    self.take_keys.append(payload.get("key"))
            client.outcomes.append(f"action {step['name']}: {status}")
            self._expect(client, step, status)
            return
        raise ScenarioError(f"unknown step kind {kind!r}")

    def _expect(self, client: _Client, step: dict, outcome: str) -> None:
        want = step.get("expect")
        if want is not None and want != outcome:
            self.expect_failures.append(
                f"{client.name}: expected {want!r}, got {outcome!r} at {step}")

    def _final_expectations(self, report: RunReport, clients: list[_Client]) -> None:
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


def run_script(source, catalog_override=None) -> RunReport:
    return _ScriptRun(load_script(source), catalog_override).run()


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
    observed, lock = dict.fromkeys(OBSERVED_COUNTERS, 0), threading.Lock()
    unavailable_under_promise: list[str] = []

    def act_under(c: _Client, pid: str, name: str, payload=None) -> None:
        reply = c.act(name, payload, [(pid, OPTION_RELEASE_AFTER_SUCCESS)])
        if reply.action is not None:
            status, body = reply.action.status, reply.action.payload
            reason = body.get("reason", "") if isinstance(body, dict) else ""
            if reason in UNAVAILABLE_REASONS or status == ACTION_REJECTED_BY_PROMISE_VIOLATION:
                with lock:
                    unavailable_under_promise.append(
                        f"{c.name}: {name} under promise -> {status} ({reason})")

    def drive(c: _Client) -> None:
        rng = random.Random(f"{seed}-{c.name}")
        while c.sent < envelopes_each:
            left = envelopes_each - c.sent
            roll = rng.random()
            if roll < 0.55 and left >= 3:
                k = rng.randint(1, 3)
                stock = {"resource-type": "widget", "amount": k}
                _, pid = c.request((Quantity("widget", k),), 600)
                if pid is not None:
                    act_under(c, pid, "purchase-stock", stock)
                    c.act("restock", stock)
                else:
                    # unpromised consumption keeps the post-check busy
                    c.act("purchase-stock", stock)
            elif left >= 2:
                if roll < 0.8:
                    pred = Named(InstanceId("seat", f"s{rng.randrange(5)}"))
                else:
                    level = rng.choice(["economy", "business"])
                    pred = Property("seat", (PropertyConstraint("class", AT_LEAST_IN_ORDER,
                                                                level),), 1)
                _, pid = c.request((pred,), 600)
                if pid is not None:
                    act_under(c, pid, ACTION_NO_OP)
            else:
                c.act(ACTION_NO_OP)

    report = RunReport("contention", seed, "wall")
    with _serving(manager, n_clients) as sends:
        clients = [_Client(f"c{i}", send, observed, lock) for i, send in enumerate(sends)]
        _run_threads(report, clients, drive)
    report.clients = {c.name: c.outcomes for c in clients}
    report.add_invariant("no-unavailability-under-promise", not unavailable_under_promise,
                         detail="; ".join(unavailable_under_promise[:5]))
    return _finish_report(report, manager, observed)


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
    """The table's problems and the checker's feasibility answer's
    disagreement with the exhaustive oracle (up to 8 predicates), after
    every step, rolled back or not."""
    found = manager.engine.problems()
    problems = [p.message for p in found]
    preds = manager.engine.active_predicates()
    if len(preds) <= 8:
        checker = all(p.name != "feasibility" for p in found)
        oracle = brute_force_satisfiable(preds, manager.catalog.snapshot_availability())
        if checker != oracle:
            problems.append(f"checker={checker} oracle={oracle} disagree")
    return problems


def _replay(steps: list[dict], catalog_doc: dict):
    """Run steps on a fresh stack. Returns (failure, outcomes, manager, observed)."""
    manager = PromiseManager(load_catalog(catalog_doc), clock=LogicalClock())
    register_standard_handlers(manager)
    observed = dict.fromkeys(OBSERVED_COUNTERS, 0)
    client = _Client("f", manager.handle, observed, threading.Lock())
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
                reply = _apply_step(client, granted, index, step["inner"])
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
        reply = _apply_step(client, granted, index, step)
        return _describe_reply(step, reply)

    for i, step in enumerate(steps):
        outcome = run_one(i, step)
        outcomes.append(outcome)
        problems = ["fault rollback was not exact"] if "STATE CHANGED" in outcome \
            else _verify_stack(manager)
        if problems:
            return {"step": i, "problems": problems}, outcomes, manager, observed
    return None, outcomes, manager, observed


def _resolve_target(granted: dict[int, str], target: int) -> Optional[str]:
    # a rejected grant leaves no id; fall back to the newest granted one so
    # release traffic stays high (deterministic either way)
    pid = granted.get(target)
    if pid is None and granted:
        return granted[max(granted)]
    return pid


def _apply_step(client: _Client, granted: dict[int, str],
                index: int, step: dict) -> Optional[Envelope]:
    kind = step["kind"]
    if kind in ("grant", "exchange"):
        release = [_resolve_target(granted, target) for target in step.get("targets", [])]
        if None in release:
            return None  # nothing granted yet; skip deterministically
        preds = tuple(predicate_from_wire(p) for p in step["predicates"])
        reply, pid = client.request(preds, step["duration"], release)
        if pid is not None:
            granted[index] = pid
        return reply
    if kind == "release":
        pid = _resolve_target(granted, step["target"])
        if pid is None:
            return None
        return client.act(ACTION_NO_OP, None, [(pid, OPTION_RELEASE_AFTER_SUCCESS)])
    if kind == "action":
        env = [(pid, option) for target, option in step.get("environment", [])
               if (pid := _resolve_target(granted, target)) is not None]
        return client.act(step["name"], step.get("payload"), env)
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
            failure = _replay(candidate, catalog_doc)[0]
            if failure is not None:
                current = candidate
                shrunk = True
                break
    return current


def fuzz(seed: int, n_clients: int = 3, n_steps: int = 60) -> RunReport:
    rng = random.Random(seed)
    catalog_doc = _fuzz_catalog_doc(rng)
    n_inst = len(catalog_doc["resource-types"][1]["instances"])
    steps = _gen_steps(rng, n_clients, n_steps, n_inst)

    failure, outcomes, manager, observed = _replay(steps, catalog_doc)

    report = RunReport("fuzz", seed, "logical", clients={f"c{i}": [] for i in range(n_clients)})
    for step, outcome in zip(steps, outcomes):
        report.clients[f"c{step['client']}"].append(outcome)
    report.add_invariant("step-invariants", failure is None,
                         detail="" if failure is None else
                         f"step {failure['step']}: {'; '.join(failure['problems'])}")
    # a fuzz report's counters carry only the violations among the observed
    # counters, so fuzz digests stay comparable across versions
    _finish_report(report, manager, {"observed-violations": observed["observed-violations"]})
    if failure is not None:
        report.trace = _minimize(steps[:failure["step"] + 1], catalog_doc)
    return report
