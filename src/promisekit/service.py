"""The promise manager: pipeline, action handlers, network endpoint.

Every envelope is handled as one serialized unit in a fixed order: expiry
sweep, promise requests (each one grant, which also releases the promises
its release-on-grant names), then the action. Actions run inside the
catalog's mutation unit with a savepoint taken first, so:

  - a handler's declared failure (ActionFailure) or a post-action promise
    violation rolls the action back to the savepoint, while grants made
    earlier in the same envelope stand. The action's releases are written
    only after the post-check says yes, so the table has nothing to undo;
  - any unexpected exception rolls back the whole envelope, promise table
    included, leaving the exact pre-call state. A reply that
    cannot be sent is one: the reply is part of the envelope, so it is
    encoded whole before the commit, and one that JSON cannot write, or
    that does not fit one frame, rolls the envelope back.

Release options are honored literally: release-after-success releases a
promise iff the action result is succeeded; retain never releases.
"""

from __future__ import annotations

import json
import os
import select
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Optional

from .catalog import CatalogError, ResourceCatalog, digest_document, load_catalog_file
from .clock import WallClock
from .engine import (
    PromiseEngine,
    Rejection,
    UnknownPromiseId,
)
from .predicates import PredicateInvalid, validate_predicate
from .protocol import (
    ACTION_FAILED,
    ACTION_PROMISE_EXPIRED,
    ACTION_REJECTED_BY_PROMISE_VIOLATION,
    ACTION_SUCCEEDED,
    ACTION_UNKNOWN_ACTION,
    ACTION_UNKNOWN_PROMISE_ID,
    MAX_FRAME_BODY,
    OPTION_RELEASE_AFTER_SUCCESS,
    RESULT_ACCEPTED,
    RESULT_REJECTED,
    ActionMsg,
    ConnectionClosed,
    Envelope,
    EnvironmentMsg,
    InvariantViolation,
    MalformedMessage,
    PromisePart,
    PromiseRequestMsg,
    PromiseResponseMsg,
    decode,
    encode,
    recv_frame,
    send_frame,
)
from .record import Record

if TYPE_CHECKING:
    import socket

CONFIG_ENV_VAR = "PROMISEKIT_CONFIG"

# names the service claims for itself
ACTION_NO_OP = "no-op"
ACTION_TABLE_DUMP = "promise-table-dump"

PIPELINE_STAGES = ("sweep", "requests", "action", "post-check", "commit")

# the rows of one promise-table-dump page, in bytes of JSON text: half a
# frame, which leaves the rest of the reply ample room
DUMP_PAGE_BYTES = MAX_FRAME_BODY // 2

# how many of a connection's latest request identifiers it remembers; a
# duplicate of an older one is not detected, and is handled as a new request
RECENT_REQUEST_IDS = 1024


def _log():  # `logging` loads when the manager first logs: only failures and refusals do
    import logging
    return logging.getLogger("promisekit")


class ActionFailure(Exception):
    """Raised by handlers to report a business-level action failure."""


class ServiceError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


Handler = Callable[[object, object, ResourceCatalog], object]


class RecentRequestIds:
    """One connection's memory of request identifiers: the latest
    RECENT_REQUEST_IDS of them, the oldest forgotten first."""

    def __init__(self):
        self._ids: OrderedDict[str, None] = OrderedDict()  # oldest first

    def admit(self, rids: list[str]) -> bool:
        """Remember `rids` unless one of them is remembered already; whether
        they were new."""
        if not self._ids.keys().isdisjoint(rids):
            return False
        self._ids.update(dict.fromkeys(rids))
        while len(self._ids) > RECENT_REQUEST_IDS:
            self._ids.popitem(last=False)
        return True


class ServiceConfig(Record):
    __slots__ = ("host", "port", "catalog_path", "duration_cap", "self_check")

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 catalog_path: Optional[str] = None, duration_cap: Optional[int] = None,
                 self_check: bool = False):
        self.host = host
        self.port = port
        self.catalog_path = catalog_path
        self.duration_cap = duration_cap
        self.self_check = self_check

    @staticmethod
    def from_file(path) -> "ServiceConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, nested too deep
                raise ServiceError("config-error", f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ServiceError("config-error", f"{path} must hold a JSON object")
        for name, kind in (("host", str), ("port", int), ("catalog", str), ("self-check", bool)):
            if name in doc and type(doc[name]) is not kind:  # a bool is not a port
                raise ServiceError("config-error", f"{name!r} must be of type {kind.__name__}, "
                                                   f"got {doc[name]!r}")
        if not 0 <= doc.get("port", 0) <= 65535:
            raise ServiceError("config-error", f"port {doc['port']} is out of range")
        return ServiceConfig(
            host=doc.get("host", "127.0.0.1"),
            port=doc.get("port", 0),
            catalog_path=doc.get("catalog"),
            duration_cap=doc.get("duration-cap"),
            self_check=doc.get("self-check", False),
        )

    @staticmethod
    def resolve(path=None) -> "ServiceConfig":
        """Load from `path`, letting PROMISEKIT_CONFIG override it."""
        override = os.environ.get(CONFIG_ENV_VAR)
        chosen = override or path
        if chosen is None:
            raise ServiceError("config-error", f"no config path given and {CONFIG_ENV_VAR} unset")
        return ServiceConfig.from_file(chosen)


class PromiseManager:
    """Intermediary between clients and the resource catalog."""

    def __init__(self, catalog: ResourceCatalog, clock=None,
                 duration_cap: Optional[int] = None, self_check: bool = False):
        if duration_cap is not None and (type(duration_cap) is not int or duration_cap < 1):
            raise ServiceError("config-error",
                               f"duration-cap must be a positive integer, got {duration_cap!r}")
        self.catalog = catalog
        self.engine = PromiseEngine(catalog)
        self.clock = clock if clock is not None else WallClock()
        self.duration_cap = duration_cap
        self.self_check = self_check
        self.self_check_failures: list[dict] = []
        self._answered = {"rejections": 0, "violations-rolled-back": 0, "internal-failures": 0}
        self.fault_hook: Optional[Callable[[str], None]] = None  # test instrumentation
        self._lock = threading.Lock()
        self._handlers: dict[str, Handler] = {}
        self.register_handler(ACTION_NO_OP, lambda payload, unit, catalog: {})
        self.register_handler(ACTION_TABLE_DUMP, self._dump_handler)

    def register_handler(self, action_name: str, handler: Handler) -> None:
        if action_name in self._handlers:
            raise ServiceError("duplicate-handler", f"{action_name!r} is already registered")
        self._handlers[action_name] = handler

    @property
    def counters(self) -> dict[str, int]:
        """Every counter: grants, releases and expiries read off the status of
        every issued id, then the committed replies and whole rollbacks."""
        history = self.engine.history()
        answered = self._answered
        return {"grants": len(history), "rejections": answered["rejections"],
                "releases": history.count("r"), "expiries": history.count("e"),
                "violations-rolled-back": answered["violations-rolled-back"],
                "internal-failures": answered["internal-failures"]}

    # --- pipeline ---

    def handle(self, envelope: Envelope) -> Envelope:
        with self._lock:
            return self._handle_locked(envelope)

    def handle_bytes(self, data: bytes,
                     seen_request_ids: Optional[RecentRequestIds] = None) -> bytes:
        """Decode and handle one body; the encoded reply to any body, whatever
        its bytes. `seen_request_ids` is one connection's memory of request
        identifiers: with it, a request identifier it remembers is answered
        duplicate-request-identifier and the envelope is not handled."""
        try:
            envelope = decode(data)
        except MalformedMessage:
            return encode(Envelope(error="malformed-message"))
        try:
            if seen_request_ids is not None and envelope.promise_part is not None:
                rids = [r.request_id for r in envelope.promise_part.requests]
                if not seen_request_ids.admit(rids):
                    return encode(Envelope(error="duplicate-request-identifier"))
            return self.handle(envelope).encoded
        except Exception:
            # the pipeline rolls back what fails inside it; this answers
            # what fails around it, so that no body goes unanswered
            _log().exception("envelope failed outside the pipeline")
            return encode(Envelope(error="internal-failure"))

    def _handle_locked(self, envelope: Envelope) -> Envelope:
        requests = envelope.promise_part.requests if envelope.promise_part is not None else ()
        action = envelope.action
        if not requests and action is None:
            return _failure("nothing-to-process")
        now = self.clock.now()
        hook = self.fault_hook  # read once: with none installed, a stage costs one test

        unit = self.catalog.begin_unit()
        table_before = self.engine.snapshot()
        try:
            if hook is not None:
                hook("sweep")
            self.engine.expire_sweep(now, unit)

            if hook is not None:
                hook("requests")
            part = None
            if requests:
                responses = []
                for r in requests:
                    responses.append(self._process_request(r, now, unit))
                part = PromisePart((), tuple(responses))

            answer = None
            if action is not None:
                answer = self._run_action(action, envelope.environment, unit, hook)
            reply = Envelope(part, None, answer)
            reply.encoded = encode(reply)
            size = len(reply.encoded)
            if size > MAX_FRAME_BODY:
                raise InvariantViolation(f"reply of {size} bytes exceeds {MAX_FRAME_BODY}")

            if hook is not None:
                hook("commit")
            self.catalog.commit_unit(unit)
            self.engine.commit()
        except Exception:
            _log().exception("pipeline failure; rolling back the whole request")
            self.catalog.rollback_unit(unit)
            self.engine.restore(table_before)
            self._answered["internal-failures"] += 1
            return _failure("internal-failure")

        # a committed reply is counted once: a rolled-back envelope counts nothing
        if part is not None:
            for response in part.responses:
                if response.result == RESULT_REJECTED:
                    self._answered["rejections"] += 1
        if answer is not None and answer.status == ACTION_REJECTED_BY_PROMISE_VIOLATION:
            self._answered["violations-rolled-back"] += 1
        if self.self_check:
            self._run_self_check(now)
        return reply

    def _process_request(self, req: PromiseRequestMsg, now: int, unit) -> PromiseResponseMsg:
        duration = req.duration
        if self.duration_cap is not None:
            duration = min(duration, self.duration_cap)
        try:
            for p in req.predicates:
                validate_predicate(p, self.catalog.schema)
            outcome = self.engine.grant(req.predicates, duration, now, unit,
                                        req.release_on_grant)
        except (PredicateInvalid, UnknownPromiseId) as exc:
            _log().info("request %s rejected: %s", req.request_id, exc)
            return PromiseResponseMsg(None, RESULT_REJECTED, 0, req.request_id)
        if isinstance(outcome, Rejection):
            return PromiseResponseMsg(None, RESULT_REJECTED, 0, req.request_id)
        return PromiseResponseMsg(outcome.id, RESULT_ACCEPTED, duration, req.request_id)

    def _run_action(self, action: ActionMsg, env: Optional[EnvironmentMsg], unit,
                    hook: Optional[Callable[[str], None]]) -> ActionMsg:
        if hook is not None:
            hook("action")
        name = action.action_name
        handler = self._handlers.get(name)
        if handler is None:
            return ActionMsg(name, {"reason": "no handler registered"}, ACTION_UNKNOWN_ACTION)

        release_ids = ()
        if env is not None:
            for pid in env.promise_ids:
                if pid not in self.engine.active:
                    status = ACTION_UNKNOWN_PROMISE_ID if self.engine.status(pid) is None \
                        else ACTION_PROMISE_EXPIRED
                    return ActionMsg(name, {"promise-identifier": pid}, status)
            release_ids = [pid for pid, opt in zip(env.promise_ids, env.release_options)
                           if opt == OPTION_RELEASE_AFTER_SUCCESS]

        mark = self.catalog.savepoint(unit)
        try:
            payload = handler(action.payload, unit, self.catalog)
            if hook is not None:
                hook("post-check")
            # feasibility falls only where supply falls
            cut = self.catalog.supply_cut_types(unit, mark)
            kept = not cut or self.engine.post_action_check(unit, cut, release_ids)
        except ActionFailure as exc:
            status, reason = ACTION_FAILED, str(exc)
        except CatalogError as exc:
            status, reason = ACTION_FAILED, exc.code
        else:
            if kept:  # the table's one write; a failure in it rolls the whole envelope back
                if release_ids:
                    self.engine.release(release_ids, unit)
                return ActionMsg(name, payload, ACTION_SUCCEEDED)
            status, reason = ACTION_REJECTED_BY_PROMISE_VIOLATION, \
                "outcome would violate an active promise"
        self.catalog.rollback_to(unit, mark)
        return ActionMsg(name, {"reason": reason}, status)

    # --- diagnostics ---

    def _dump_handler(self, payload, unit, catalog) -> dict:
        """One page of the promise table. The payload is an optional cursor,
        `{"after": N}`, and a page with rows left after it names the next
        cursor's N in `next`."""
        after = 0
        if payload is not None:
            after = payload.get("after", 0) \
                if type(payload) is dict and payload.keys() <= {"after"} else None
            if type(after) is not int or after < 0:
                raise ActionFailure('the cursor must be {"after": N}, N a non-negative integer')
        doc = self.engine.dump(after, DUMP_PAGE_BYTES)
        counters = self.counters
        doc["service-counters"] = {name: counters.pop(name)
                                   for name in ("violations-rolled-back", "internal-failures")}
        doc["counters"] = counters
        doc["catalog-digest"] = catalog.state_digest()
        return doc

    def state_digest(self) -> str:
        """Hash of committed catalog state, the promise table's records and
        the status of every issued id."""
        table = self.engine.dump()["promises"]
        return digest_document({"catalog": self.catalog.dump_state(), "promises": table,
                                "history": self.engine.history()})

    def _run_self_check(self, now: int) -> None:
        problems = [p.message for p in self.engine.problems()]
        if problems:
            self.self_check_failures.append({"at": now, "problems": problems})
            _log().error("self-check failed: %s", problems)


def _failure(code: str) -> Envelope:
    """An error reply with its body, which `handle_bytes` sends as it stands."""
    reply = Envelope(error=code)
    reply.encoded = encode(reply)
    return reply


# --- network endpoint ---

class Server:
    """Framed TCP endpoint in front of a PromiseManager."""

    def __init__(self, manager: PromiseManager, host: str = "127.0.0.1", port: int = 0):
        import socket  # only the endpoint makes a socket

        self.manager = manager
        try:
            self._listener = socket.create_server((host, port))
        except OSError as exc:
            raise ServiceError("bind-failure", f"cannot bind {host}:{port}: {exc}") from exc
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               name="promisekit-accept", daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            t = threading.Thread(target=self._serve_connection, args=(conn,), daemon=True)
            t.start()
            self._threads = [x for x in self._threads if x.is_alive()]
            self._threads.append(t)

    def _serve_connection(self, conn: socket.socket) -> None:
        seen_request_ids = RecentRequestIds()
        with conn:
            while not self._stop.is_set():
                # poll for the frame start so shutdown stays responsive, then
                # read the whole frame blocking: a slow sender must not be
                # desynced by a mid-frame timeout
                try:
                    readable, _, _ = select.select([conn], [], [], 0.2)
                except (OSError, ValueError):
                    return
                if not readable:
                    continue
                conn.settimeout(30)
                try:
                    body = recv_frame(conn)
                except ConnectionClosed:
                    return
                except (MalformedMessage, TimeoutError):
                    # broken framing desyncs the stream: report and drop
                    try:
                        send_frame(conn, encode(Envelope(error="malformed-message")))
                    except OSError:
                        pass
                    return
                except OSError:
                    return
                reply = self.manager.handle_bytes(body, seen_request_ids)
                try:
                    send_frame(conn, reply)
                except OSError:
                    return

    def stop(self) -> None:
        """Graceful: in-flight requests finish before threads exit."""
        self._stop.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5)
        for t in self._threads:
            t.join(timeout=5)


def serve(config: ServiceConfig, manager: Optional[PromiseManager] = None) -> Server:
    """Start a server from config; builds the manager when not supplied."""
    if manager is None:
        if config.catalog_path is None:
            raise ServiceError("config-error", "config names no catalog document")
        catalog = load_catalog_file(config.catalog_path)
        manager = PromiseManager(catalog, clock=WallClock(),
                                 duration_cap=config.duration_cap,
                                 self_check=config.self_check)
    return Server(manager, config.host, config.port)
