"""Scenario and fuzz driver.

Drives a promise manager, over the wire or in process, with scripted or
generated clients, re-checks the system invariants as it goes, and
produces a deterministic RunReport.

There is one step language, the scenario script's, and one driver. A
client's steps are its script list, or are drawn one at a time from what
the client has bound so far, as the fuzzer and the contention load do.
Every client builds each envelope, counts its reply and checks the
paper's guarantee (the `literal-guarantee` invariant). Under a logical
clock the driver interleaves client steps deterministically (round-robin,
or a seeded shuffle), so a (script, seed) pair always yields the same
report digest, and after every step it checks the promise-table
invariants and the engine's feasibility answer against the exhaustive
oracle. Under a wall clock the clients free-run in threads; an error
reply, or an exception that ends a client, fails `client-failures`.

The fuzzer draws a one-client script step by step and runs it in process
up to the first step that fails the check, then minimizes it by greedy
step removal. Its counterexample is that script, which `promisekit run`
replays.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import random
import threading
import time
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from typing import TYPE_CHECKING, Callable, Optional

from .catalog import (
    ResourceCatalog,
    digest_document,
    load_catalog,
    load_catalog_file,
)
from .clock import LogicalClock, WallClock
from .harness import KNOWN_ACTIONS, covers, register_standard_handlers
from .oracle import brute_force_satisfiable
from .predicates import (
    AT_LEAST_IN_ORDER,
    EQUALS,
    InstanceId,
    PredicateInvalid,
    predicate_from_wire,
    validate_predicate,
)
from .protocol import (
    ACTION_FAILED,
    ACTION_REJECTED_BY_PROMISE_VIOLATION,
    ACTION_SUCCEEDED,
    OPTION_RELEASE_AFTER_SUCCESS,
    OPTION_RETAIN,
    RELEASE_OPTIONS,
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
    PIPELINE_STAGES,
    PromiseManager,
    Server,
)

if TYPE_CHECKING:
    import socket

log = logging.getLogger("promisekit")

UNAVAILABLE_REASONS = ("resource-unavailable", "pool-underflow")
OBSERVED_COUNTERS = ("observed-accepted", "observed-rejected", "observed-violations",
                     "actions-succeeded", "actions-failed")


class ScenarioError(Exception):
    pass


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
    trace: Optional[dict] = None

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
    report.counters = {**manager.counters, **observed}
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
        report.counters["violations-rolled-back"] == observed_violations,
        detail=f"service={report.counters['violations-rolled-back']} observed={observed_violations}")
    report.final = {"catalog-digest": manager.catalog.state_digest(),
                    "promise-table": manager.engine.dump()["promises"]}
    return report


# --- clients ---

class _Unbound(Exception):
    """A step names a promise its client never got."""


class _Client:
    """One client of a run. `request` and `act` build an envelope, pass it
    to `send` (a wire round trip, or `PromiseManager.handle` in process)
    and count the reply in the run's `observed` counters under its lock."""

    def __init__(self, name: str, send: Callable[[Envelope], Envelope], run: "_ScriptRun"):
        self.name = name
        self.send = send
        self.run = run
        self.vars: dict[str, str] = {}
        self.granted: dict[str, tuple] = {}  # the predicates of each promise granted
        self.outcomes: list[str] = []
        self.errors: list[str] = []  # every error reply, and the exception that ended it
        self.broken: list[str] = []  # every action that failed under a covering promise
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
        with self.run.lock:
            self.run.observed["observed-rejected" if pid is None else "observed-accepted"] += 1
        if pid is not None:
            self.granted[pid] = tuple(predicates)
        return reply, pid

    def act(self, name: str, payload=None, environment=()) -> Envelope:
        """Run an action under `environment`, pairs of (promise id, release
        option), and record it in `broken` if it fails for lack of what an
        environment promise released after success covers."""
        env = EnvironmentMsg(tuple(pid for pid, _ in environment),
                             tuple(option for _, option in environment)) if environment else None
        reply = self._roundtrip(Envelope(action=ActionMsg(name, payload), environment=env))
        if reply.action is not None:
            status, body = reply.action.status, reply.action.payload
            with self.run.lock:
                self.run.observed["actions-succeeded" if status == ACTION_SUCCEEDED
                                  else "actions-failed"] += 1
                if status == ACTION_REJECTED_BY_PROMISE_VIOLATION:
                    self.run.observed["observed-violations"] += 1
            reason = body.get("reason") if status == ACTION_FAILED else None
            if (status == ACTION_REJECTED_BY_PROMISE_VIOLATION or reason in UNAVAILABLE_REASONS) \
                    and any(option == OPTION_RELEASE_AFTER_SUCCESS and covers(
                        name, payload, self.granted.get(pid, ()), self.run.manager.catalog.schema)
                        for pid, option in environment):
                self.broken.append(f"{self.name}: {name} {json.dumps(payload, sort_keys=True)} "
                                   f"under a covering promise -> {status} {reason or ''}".rstrip())
        return reply

    def resolve(self, ref: str) -> str:
        """The promise id a validated `$name` reference is bound to."""
        if ref[1:] not in self.vars:
            raise _Unbound(ref)
        return self.vars[ref[1:]]


def _wire(sock: socket.socket) -> Callable[[Envelope], Envelope]:
    def roundtrip(envelope: Envelope) -> Envelope:
        send_frame(sock, encode(envelope))
        return decode(recv_frame(sock))
    return roundtrip


@contextlib.contextmanager
def _serving(manager: PromiseManager, n_clients: int):
    """Serve `manager` on a local port; yield one wire round trip per client."""
    import socket  # only a wire run opens a connection

    server = Server(manager)
    try:
        with contextlib.ExitStack() as stack:
            yield [_wire(stack.enter_context(socket.create_connection(server.address, timeout=30)))
                   for _ in range(n_clients)]
    finally:
        server.stop()


# --- scripted scenarios ---

def _require(ok, message: str) -> None:
    if not ok:
        raise ScenarioError(message)


def _bundled(name: str):
    """A JSON document shipped in the package's scenarios directory."""
    ref = importlib_resources.files("promisekit").joinpath("scenarios", name)
    _require(ref.is_file(), f"{name!r} is neither a file nor a bundled scenario file")
    return json.loads(ref.read_text(encoding="utf-8"))


def load_script(source) -> dict:
    """Load a scenario script from a path, a bundled name, or a dict."""
    if isinstance(source, dict):
        script = dict(source)
    else:
        path = str(source)
        try:
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as fh:
                    script = json.load(fh)
                base = os.path.dirname(os.path.abspath(path))
            else:
                script = _bundled(f"{path}.json")
                base = None  # bundled catalogs resolve inside the package
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, nested too deep
            raise ScenarioError(f"script is not a JSON document ({path}): {exc}") from exc
        _require(isinstance(script, dict), f"{path}: a script must be a JSON object")
        script.setdefault("name", os.path.splitext(os.path.basename(path))[0])
        script["_base"] = base
    return script


def _script_catalog(script: dict, override=None) -> ResourceCatalog:
    if override is not None:
        return load_catalog_file(override)
    if "catalog-inline" in script:
        return load_catalog(script["catalog-inline"])
    name = script.get("catalog")
    _require(name, "script names no catalog")
    base = script.get("_base", os.getcwd())
    if base is None:
        return load_catalog(_bundled(name))
    return load_catalog_file(os.path.join(base, name))


class _ScriptRun:
    def __init__(self, script: dict, catalog_override=None):
        self.script = script
        self.clock_mode = script.get("clock", "logical")
        _require(self.clock_mode in ("logical", "wall"), f"unknown clock mode {self.clock_mode!r}")
        self.seed = script.get("seed", 0)
        _require(type(self.seed) is int, f"seed must be an integer, got {self.seed!r}")
        self.schedule = script.get("schedule", "round-robin")
        _require(self.schedule in ("round-robin", "seeded"), f"unknown schedule {self.schedule!r}")
        catalog = _script_catalog(script, catalog_override)
        clock = LogicalClock() if self.clock_mode == "logical" else WallClock()
        # a logical-clock run checks the whole stack after every step (`_execute`)
        self.manager = PromiseManager(catalog, clock=clock,
                                      duration_cap=script.get("duration-cap"),
                                      self_check=self.clock_mode == "wall")
        register_standard_handlers(self.manager)
        self._validate_script(catalog)
        self.observed, self.lock = dict.fromkeys(OBSERVED_COUNTERS, 0), threading.Lock()
        self.expect_failures: list[str] = []
        self.take_keys: list[str] = []
        self.steps_run = 0
        self.failure: Optional[dict] = None  # the first step the stack check failed

    def _validate_script(self, catalog: ResourceCatalog) -> None:
        clients = self.script.get("clients")
        _require(isinstance(clients, list) and clients, "script declares no clients")
        for client in clients:
            name = client.get("name") if isinstance(client, dict) else None
            _require(isinstance(name, str) and name, f"a client needs a name, got {client!r}")
            steps = client.get("steps", [])
            _require(isinstance(steps, list), f"{name}: steps must be a list")
            bound: set[str] = set()
            for step in steps:
                self._validate_step(step, bound, name, catalog)
        want = self.script.get("expect-final") or {}
        _require(isinstance(want, dict) and all(isinstance(want.get(k, {}), dict) for k in
                                                ("pools", "promise-status", "instance-status")),
                 "expect-final and its pools, promise-status and instance-status are objects")

    def _validate_step(self, step, bound: set[str], client: str,
                       catalog: ResourceCatalog) -> None:
        _require(isinstance(step, dict), f"{client}: a step must be an object, got {step!r}")
        kind = step.get("kind")
        if kind == "request":
            duration, predicates = step.get("duration"), step.get("predicates")
            _require(type(duration) is int and duration > 0,
                     f"{client}: a request needs a positive integer duration, got {duration!r}")
            _require(isinstance(predicates, list) and predicates,
                     f"{client}: a request needs a non-empty list of predicates")
            for raw in predicates:
                try:
                    validate_predicate(predicate_from_wire(raw), catalog.schema)
                except (ValueError, PredicateInvalid) as exc:
                    raise ScenarioError(f"bad predicate in script: {exc}") from exc
            refs = step.get("release-on-grant", [])
            _require(isinstance(refs, list), f"{client}: release-on-grant must be a list")
            for ref in refs:
                self._check_ref(ref, bound, client)
            _require(len(set(refs)) == len(refs), f"{client}: release-on-grant repeats {refs}")
            _require(isinstance(step.get("save-as", ""), str), f"{client}: save-as must be text")
            if step.get("save-as"):
                bound.add(step["save-as"])
        elif kind == "action":
            _require(step.get("name") in KNOWN_ACTIONS, f"unknown action {step.get('name')!r}")
            environment = step.get("environment", [])
            _require(isinstance(environment, list)
                     and all(isinstance(entry, dict) for entry in environment),
                     f"{client}: environment must be a list of objects")
            for entry in environment:
                self._check_ref(entry.get("promise"), bound, client)
                _require(entry.get("option", OPTION_RELEASE_AFTER_SUCCESS) in RELEASE_OPTIONS,
                         f"{client}: unknown release option {entry.get('option')!r}")
        elif kind == "advance-clock":
            by = step.get("by", 1)
            _require(self.clock_mode == "logical", "advance-clock requires the logical clock")
            _require(type(by) is int and by >= 0,
                     f"{client}: advance-clock needs a non-negative integer, got {by!r}")
        elif kind == "fault":
            _require(self.clock_mode == "logical", "fault requires the logical clock")
            _require(step.get("stage") in PIPELINE_STAGES,
                     f"{client}: unknown fault stage {step.get('stage')!r}")
            inner = step.get("step")
            _require(isinstance(inner, dict) and inner.get("kind") in ("request", "action"),
                     f"{client}: a fault's step must be a request or an action")
            self._validate_step(inner, bound, client, catalog)
        elif kind == "think":
            ms = step.get("ms", 1)
            _require(type(ms) in (int, float) and ms >= 0, f"{client}: think needs ms >= 0")
        else:
            raise ScenarioError(f"unknown step kind {kind!r}")

    @staticmethod
    def _check_ref(ref, bound: set[str], client: str) -> None:
        _require(isinstance(ref, str) and ref.startswith("$"),
                 f"{client}: promise references must look like $name, got {ref!r}")
        _require(ref[1:] in bound, f"{client}: {ref} is used before it is bound")

    def run(self, in_process: bool = False, draw=None) -> RunReport:
        """Run every client over the wire or, `in_process`, through
        `PromiseManager.handle`. Its steps are its script list, or the
        generator `draw(client)`, which may read its bound `$names`."""
        scripted = self.script["clients"]
        serving = contextlib.nullcontext([self.manager.handle] * len(scripted)) if in_process \
            else _serving(self.manager, len(scripted))
        with serving as sends:
            clients = [_Client(c["name"], send, self) for c, send in zip(scripted, sends)]
            sources = [iter(draw(client) if draw else c.get("steps", []))
                       for c, client in zip(scripted, clients)]
            if self.clock_mode == "logical":
                self._run_lockstep(clients, sources)
            else:
                threads = [threading.Thread(target=self._run_guarded, args=pair)
                           for pair in zip(clients, sources)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        report = RunReport(self.script.get("name", "scenario"), self.seed, self.clock_mode)
        report.clients = {c.name: c.outcomes for c in clients}
        if self.clock_mode == "wall":
            failures = [e for c in clients for e in c.errors]
            report.add_invariant("client-failures", not failures,
                                 detail=f"{len(failures)} failures: {'; '.join(failures[:5])}"
                                 if failures else "")
        report.add_invariant("expectations", not self.expect_failures,
                             detail="; ".join(self.expect_failures))
        broken = [b for c in clients for b in c.broken]
        report.add_invariant("literal-guarantee", not broken, detail="; ".join(broken[:5]))
        if self.clock_mode == "logical":
            failure = self.failure
            report.add_invariant("step-invariants", failure is None, detail="" if failure is None
                                 else f"step {failure['step']}: {'; '.join(failure['problems'])}")
        _finish_report(report, self.manager, self.observed)
        self._final_expectations(report, clients)
        return report

    def _run_lockstep(self, clients: list[_Client], sources) -> None:
        """Each client's next step is drawn once its last one has run, so a
        seeded schedule picks among the clients that have one."""
        rng = random.Random(self.seed)
        heads = [next(steps, None) for steps in sources]
        while True:
            ready = [i for i, step in enumerate(heads) if step is not None]
            if not ready:
                return
            for i in ready if self.schedule == "round-robin" else [rng.choice(ready)]:
                self._execute(clients[i], heads[i])
                heads[i] = next(sources[i], None)

    def _run_guarded(self, client: _Client, steps) -> None:
        """A wall-clock client's thread; an exception that ends the client
        fails `client-failures` instead of dying with its thread."""
        try:
            for step in steps:
                self._execute(client, step)
        except Exception as exc:
            log.exception("client %s died", client.name)
            client.errors.append(f"{client.name}: died of {type(exc).__name__}: {exc}")

    def _execute(self, client: _Client, step: dict) -> None:
        """Run one step and, under the logical clock, check the whole stack
        (wall-clock clients run outside one lock, so that check would race).

        A step that names a promise its client never got is skipped: the
        request that would have bound it was rejected, which a seeded
        schedule can cause; the skipped step counts as a failed expectation.
        """
        problems: list[str] = []
        try:
            if step["kind"] == "fault":
                problems = self._inject_fault(client, step)
            else:
                self._execute_step(client, step)
        except _Unbound as exc:
            client.outcomes.append(f"{step['kind']} skipped: {exc} unbound")
            self.expect_failures.append(
                f"{client.name}: {exc} never bound, so the step was skipped: {step}")
        if self.clock_mode == "logical":
            problems += _verify_stack(self.manager)
            if problems and self.failure is None:
                self.failure = {"step": self.steps_run, "problems": problems}
            self.steps_run += 1

    def _inject_fault(self, client: _Client, step: dict) -> list[str]:
        """Run the inner step with a failure injected at `stage`. An
        internal-failure reply must leave the committed state as it was; any
        other reply means the stage never ran (the handler failed first, say)
        and the envelope committed normally."""
        stage, before, muffle = step["stage"], self.manager.state_digest(), log.level

        def hook(current: str) -> None:
            if current == stage:
                raise RuntimeError(f"fault injected at {stage}")

        self.manager.fault_hook = hook
        log.setLevel(logging.CRITICAL)  # the rollback traceback is the expected outcome
        try:
            reply = self._execute_step(client, step["step"])
        finally:
            self.manager.fault_hook = None
            log.setLevel(muffle)
        inner = client.outcomes.pop()
        if reply.error != "internal-failure":
            outcome, problems = f"not reached ({inner})", []
        elif self.manager.state_digest() != before:
            outcome, problems = "state changed", ["fault rollback was not exact"]
        else:
            outcome, problems = "rolled back", []
        client.outcomes.append(f"fault at {stage}: {outcome}")
        return problems

    def _execute_step(self, client: _Client, step: dict) -> Optional[Envelope]:
        """Run a step; returns the reply of a request or an action."""
        kind = step["kind"]
        if kind == "advance-clock":
            self.manager.clock.advance(step.get("by", 1))
            client.outcomes.append(f"advance-clock {step.get('by', 1)}")
            return None
        if kind == "think":
            if self.clock_mode == "wall":
                time.sleep(step.get("ms", 1) / 1000.0)
            client.outcomes.append("think")
            return None
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
            return reply
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
        return reply

    def _expect(self, client: _Client, step: dict, outcome: str) -> None:
        want = step.get("expect")
        if want is not None and want != outcome:
            self.expect_failures.append(
                f"{client.name}: expected {want!r}, got {outcome!r} at {step}")

    def _final_expectations(self, report: RunReport, clients: list[_Client]) -> None:
        want = self.script.get("expect-final")
        if not want:
            return
        catalog, engine = self.manager.catalog, self.manager.engine
        bound = {f"{c.name}.{var}": pid for c in clients for var, pid in c.vars.items()}
        found = [(f"pool {rt}", count, catalog.quantity_on_hand(rt))
                 for rt, count in want.get("pools", {}).items()]
        found += [(f"promise {ref}", status, engine.status(bound.get(ref, "")) or "missing")
                  for ref, status in want.get("promise-status", {}).items()]
        for ref, status in want.get("instance-status", {}).items():
            rt, _, key = ref.partition("/")
            rec = catalog.instance(InstanceId(rt, key))
            found.append((f"instance {ref}", status, rec.status if rec else "missing"))
        problems = [f"{what}: expected {wanted}, got {actual}"
                    for what, wanted, actual in found if actual != wanted]
        if want.get("distinct-take-keys") and len(self.take_keys) != len(set(self.take_keys)):
            problems.append(f"taken keys collide: {self.take_keys}")
        report.add_invariant("final-state", not problems, detail="; ".join(problems))


def run_script(source, catalog_override=None) -> RunReport:
    return _ScriptRun(load_script(source), catalog_override).run()


# --- wall-clock contention load over the wire ---

def contention_run(n_clients: int = 8, envelopes_each: int = 200,
                   seed: int = 0) -> RunReport:
    """A `clock: wall` script whose clients hammer one pool and a few ordered
    seats, each drawing its steps as it goes, `envelopes_each` envelopes apiece."""
    script = {"name": "contention", "seed": seed, "clock": "wall", "catalog-inline": {
        "resource-types": [
            {"name": "widget", "pool": 15},
            {"name": "seat",
             "properties": [{"name": "class", "order": ["economy", "business", "first"]}],
             "instances": [{"key": f"s{i}", "properties": {"class": cls}} for i, cls in
                           enumerate(["economy", "economy", "business", "business", "first"])]},
        ]}, "clients": [{"name": f"c{i}"} for i in range(n_clients)]}

    def draw(client: _Client):
        rng = random.Random(f"{seed}-{client.name}")
        while client.sent < envelopes_each:
            left, roll, name = envelopes_each - client.sent, rng.random(), f"p{client.sent}"
            if roll < 0.55 and left >= 3:
                stock = {"resource-type": "widget", "amount": rng.randint(1, 3)}
                yield {"kind": "request", "duration": 600, "save-as": name,
                       "predicates": [{"form": "quantity", **stock}]}
                purchase = {"kind": "action", "name": "purchase-stock", "payload": stock}
                if name in client.vars:
                    yield {**purchase, "environment": [{"promise": f"${name}"}]}
                    yield {**purchase, "name": "restock"}
                else:
                    yield purchase  # unpromised consumption keeps the post-check busy
            elif left >= 2:
                if roll < 0.8:
                    pred = {"form": "named", "resource-type": "seat", "key": f"s{rng.randrange(5)}"}
                else:
                    pred = {"form": "property", "resource-type": "seat", "amount": 1,
                            "constraints": [{"property": "class", "comparator": AT_LEAST_IN_ORDER,
                                             "value": rng.choice(["economy", "business"])}]}
                yield {"kind": "request", "duration": 600, "save-as": name, "predicates": [pred]}
                if name in client.vars:
                    yield {"kind": "action", "name": ACTION_NO_OP,
                           "environment": [{"promise": f"${name}"}]}
            else:
                yield {"kind": "action", "name": ACTION_NO_OP}

    return _ScriptRun(script).run(draw=draw)


# --- fuzzing ---

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


def _draw_step(rng: random.Random, index: int, live: set[str], n_inst: int) -> dict:
    """The next fuzz step. `live` holds the save-as names of granted
    promises still assumed active; a step that may end one drops it."""
    roll = rng.random()
    if roll < 0.40 and len(live) < 6:
        return {"kind": "request",
                "predicates": [_gen_predicate(rng, n_inst) for _ in range(rng.randint(1, 2))],
                "duration": rng.randint(2, 8), "save-as": f"g{index}"}
    if roll < 0.62 and live:
        target = rng.choice(sorted(live))
        live.discard(target)
        if roll < 0.52:  # a release
            return {"kind": "action", "name": ACTION_NO_OP,
                    "environment": [{"promise": f"${target}",
                                     "option": OPTION_RELEASE_AFTER_SUCCESS}]}
        return {"kind": "request", "predicates": [_gen_predicate(rng, n_inst)],
                "duration": rng.randint(2, 8), "release-on-grant": [f"${target}"],
                "save-as": f"g{index}"}
    if roll < 0.85:
        step = {"kind": "action", **_gen_action(rng, n_inst)}
        if rng.random() < 0.5 and live:
            target = rng.choice(sorted(live))
            option = rng.choice((OPTION_RETAIN, OPTION_RELEASE_AFTER_SUCCESS))
            step["environment"] = [{"promise": f"${target}", "option": option}]
            if option == OPTION_RELEASE_AFTER_SUCCESS:
                live.discard(target)
        return step
    if roll < 0.95:
        live.clear()  # expiry may reap anything; stay conservative
        return {"kind": "advance-clock", "by": rng.randint(1, 3)}
    stage = rng.choice(PIPELINE_STAGES)
    if stage in ("action", "post-check"):
        inner = {"kind": "action", **_gen_action(rng, n_inst)}
    else:
        inner = {"kind": "request", "predicates": [_gen_predicate(rng, n_inst)],
                 "duration": rng.randint(2, 8)}
    return {"kind": "fault", "stage": stage, "step": inner}


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


def _step_failure(script: dict) -> Optional[dict]:
    """Run a script in process; the first step the stack check failed, or
    None. A script that no longer validates counts as not failing."""
    try:
        run = _ScriptRun(script)
    except ScenarioError:
        return None
    run.run(in_process=True)
    return run.failure


def _minimize(script: dict) -> dict:
    """Greedy step removal from a one-client script, keeping a step failure alive."""
    steps = script["clients"][0]["steps"]
    shrunk = True
    while shrunk and len(steps) > 1:
        shrunk = False
        for i in range(len(steps)):
            candidate = {**script, "clients": [{**script["clients"][0],
                                                "steps": steps[:i] + steps[i + 1:]}]}
            if _step_failure(candidate) is not None:
                script, steps, shrunk = candidate, candidate["clients"][0]["steps"], True
                break
    return script


def fuzz(seed: int, n_steps: int = 60) -> RunReport:
    """Draw a one-client script step by step and run each step in process
    as it is drawn, up to the first step that fails the stack check."""
    rng = random.Random(seed)
    catalog_doc = _fuzz_catalog_doc(rng)
    n_inst = len(catalog_doc["resource-types"][1]["instances"])
    steps: list[dict] = []
    script = {"name": "fuzz", "seed": seed, "clock": "logical", "catalog-inline": catalog_doc,
              "clients": [{"name": "f", "steps": steps}]}
    run = _ScriptRun(script)

    def draw(client: _Client):
        live: set[str] = set()
        while len(steps) < n_steps and run.failure is None:
            steps.append(_draw_step(rng, len(steps), live, n_inst))
            yield steps[-1]
            if steps[-1].get("save-as") in client.vars:
                live.add(steps[-1]["save-as"])

    report = run.run(in_process=True, draw=draw)
    if run.failure is not None:
        report.trace = _minimize(script)
    return report
