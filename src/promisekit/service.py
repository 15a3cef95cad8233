"""The promise manager: pipeline, action handlers, network endpoint.

Every envelope is handled as one serialized unit in a fixed order: expiry
sweep, promise requests (grant, or exchange when release-on-grant is
present), then the action. Actions run inside the catalog's mutation unit
with a savepoint taken first, so:

  - a handler's declared failure (ActionFailure) or a post-action promise
    violation rolls back the action's effects and any provisional
    releases, with the engine counters they moved, while grants made
    earlier in the same envelope stand;
  - any unexpected exception rolls back the whole envelope, promise table
    and counters included, leaving the exact pre-call state. A handler
    result that JSON cannot write is one: the reply is part of the
    envelope, so it is encoded while the unit is still open.

Release options are honored literally: release-after-success releases a
promise iff the action result is succeeded; retain never releases.
"""

from __future__ import annotations

import json
import logging
import os
import select
import socket
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .catalog import CatalogError, ResourceCatalog, load_catalog_file
from .clock import WallClock
from .engine import (
    PROMISE_ACTIVE,
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
    OPTION_RELEASE_AFTER_SUCCESS,
    RESULT_ACCEPTED,
    RESULT_REJECTED,
    ActionMsg,
    ConnectionClosed,
    Envelope,
    MalformedMessage,
    PromisePart,
    PromiseRequestMsg,
    PromiseResponseMsg,
    decode,
    encode,
    encode_payload,
    recv_frame,
    send_frame,
)

log = logging.getLogger("promisekit")

CONFIG_ENV_VAR = "PROMISEKIT_CONFIG"

# names the service claims for itself
ACTION_NO_OP = "no-op"
ACTION_TABLE_DUMP = "promise-table-dump"

PIPELINE_STAGES = ("sweep", "requests", "action", "post-check", "commit")


class ActionFailure(Exception):
    """Raised by handlers to report a business-level action failure."""


class ServiceError(Exception):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


Handler = Callable[[object, object, ResourceCatalog], object]


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 0
    catalog_path: Optional[str] = None
    duration_cap: Optional[int] = None
    self_check: bool = False

    @staticmethod
    def from_file(path) -> "ServiceConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
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
        self.counters = {"violations-rolled-back": 0, "internal-failures": 0}
        self.fault_hook: Optional[Callable[[str], None]] = None  # test instrumentation
        self._lock = threading.Lock()
        self._handlers: dict[str, Handler] = {}
        self.register_handler(ACTION_NO_OP, lambda payload, unit, catalog: {})
        self.register_handler(ACTION_TABLE_DUMP, self._dump_handler)

    def register_handler(self, action_name: str, handler: Handler) -> None:
        if action_name in self._handlers:
            raise ServiceError("duplicate-handler", f"{action_name!r} is already registered")
        self._handlers[action_name] = handler

    # --- pipeline ---

    def handle(self, envelope: Envelope) -> Envelope:
        with self._lock:
            return self._handle_locked(envelope)

    def handle_bytes(self, data: bytes, seen_request_ids: Optional[set] = None) -> bytes:
        """Decode, handle and encode one body; the reply to any body, whatever
        its bytes. `seen_request_ids` is one connection's memory of request
        identifiers: with it, a request identifier seen before is answered
        duplicate-request-identifier and the envelope is not handled."""
        try:
            envelope = decode(data)
        except MalformedMessage:
            return encode(Envelope(error="malformed-message"))
        try:
            if seen_request_ids is not None and envelope.promise_part is not None:
                rids = [r.request_id for r in envelope.promise_part.requests]
                if not seen_request_ids.isdisjoint(rids):
                    return encode(Envelope(error="duplicate-request-identifier"))
                seen_request_ids.update(rids)
            return encode(self.handle(envelope))
        except Exception:
            # the pipeline rolls back what fails inside it; this answers
            # what fails around it, so that no body goes unanswered
            log.exception("envelope failed outside the pipeline")
            return encode(Envelope(error="internal-failure"))

    def _handle_locked(self, envelope: Envelope) -> Envelope:
        requests = envelope.promise_part.requests if envelope.promise_part else ()
        if not requests and envelope.action is None:
            return Envelope(error="nothing-to-process")
        now = self.clock.now()

        unit = self.catalog.begin_unit()
        table_before = self.engine.snapshot()
        counters_before = self.counters.copy(), self.engine.counters.copy()
        try:
            self._stage("sweep")
            self.engine.expire_sweep(now, unit)

            self._stage("requests")
            responses = tuple(self._process_request(r, now, unit) for r in requests)

            action_result = None
            if envelope.action is not None:
                action_result = self._run_action(envelope, unit)

            self._stage("commit")
            self.catalog.commit_unit(unit)
            self.engine.commit()
        except Exception:
            log.exception("pipeline failure; rolling back the whole request")
            self.catalog.rollback_unit(unit)
            self.engine.restore(table_before)
            self.counters.update(counters_before[0])
            self.engine.counters.update(counters_before[1])
            self.counters["internal-failures"] += 1
            return Envelope(error="internal-failure")

        if self.self_check:
            self._run_self_check(now)
        part = PromisePart(responses=responses) if responses else None
        return Envelope(promise_part=part, action=action_result)

    def _process_request(self, req: PromiseRequestMsg, now: int, unit) -> PromiseResponseMsg:
        duration = req.duration
        if self.duration_cap is not None:
            duration = min(duration, self.duration_cap)
        try:
            for p in req.predicates:
                validate_predicate(p, self.catalog.schema)
            if req.release_on_grant:
                outcome = self.engine.exchange(req.predicates, duration,
                                               req.release_on_grant, now, unit)
            else:
                outcome = self.engine.grant(req.predicates, duration, now, unit)
        except (PredicateInvalid, UnknownPromiseId) as exc:
            # the engine counts only the rejections it decides by feasibility
            log.info("request %s rejected: %s", req.request_id, exc)
            self.engine.counters["rejections"] += 1
            outcome = Rejection(str(exc))
        if isinstance(outcome, Rejection):
            return PromiseResponseMsg(None, RESULT_REJECTED, 0, req.request_id)
        assert outcome is not None  # wire requests always carry predicates
        return PromiseResponseMsg(outcome.id, RESULT_ACCEPTED, duration, req.request_id)

    def _run_action(self, envelope: Envelope, unit) -> ActionMsg:
        self._stage("action")
        action = envelope.action
        name = action.action_name
        handler = self._handlers.get(name)
        if handler is None:
            return ActionMsg(name, {"reason": "no handler registered"}, ACTION_UNKNOWN_ACTION)

        env = envelope.environment
        env_ids = env.promise_ids if env else ()
        for pid in env_ids:
            rec = self.engine.record(pid)
            if rec is None:
                return ActionMsg(name, {"promise-identifier": pid}, ACTION_UNKNOWN_PROMISE_ID)
            if rec.status != PROMISE_ACTIVE:
                return ActionMsg(name, {"promise-identifier": pid}, ACTION_PROMISE_EXPIRED)

        mark = self.catalog.savepoint(unit)
        table_mark = self.engine.snapshot()
        releases = self.engine.counters["releases"]  # the one engine counter an action moves
        release_ids = [pid for pid, opt in zip(env_ids, env.release_options)
                       if opt == OPTION_RELEASE_AFTER_SUCCESS] if env else []
        try:
            payload = handler(action.payload, unit, self.catalog)
            # raises InvariantViolation, which rolls the whole envelope back
            payload_json = encode_payload(payload)
            if release_ids:
                self.engine.release(release_ids, unit)
            self._stage("post-check")
            # feasibility falls only where supply falls
            cut = self.catalog.supply_cut_types(unit, mark) \
                if self.catalog.savepoint(unit) > mark else ()
            if not cut or self.engine.post_action_check(
                    release_ids, self.catalog.snapshot_availability(unit), cut):
                return ActionMsg(name, payload, ACTION_SUCCEEDED, payload_json)
            self.counters["violations-rolled-back"] += 1
            status, reason = ACTION_REJECTED_BY_PROMISE_VIOLATION, \
                "outcome would violate an active promise"
        except ActionFailure as exc:
            status, reason = ACTION_FAILED, str(exc)
        except CatalogError as exc:
            status, reason = ACTION_FAILED, exc.code
        self.catalog.rollback_to(unit, mark)
        self.engine.restore(table_mark)
        self.engine.counters["releases"] = releases
        return ActionMsg(name, {"reason": reason}, status)

    def _stage(self, stage: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(stage)

    # --- diagnostics ---

    def _dump_handler(self, payload, unit, catalog) -> dict:
        doc = self.engine.dump()
        doc["service-counters"] = dict(self.counters)
        doc["catalog-digest"] = catalog.state_digest()
        return doc

    def state_digest(self) -> str:
        """Hash of committed catalog state plus promise table records."""
        from .catalog import digest_document

        table = self.engine.dump()["promises"]
        return digest_document({"catalog": self.catalog.dump_state(), "promises": table})

    def _run_self_check(self, now: int) -> None:
        problems = [p.message for p in self.engine.problems()]
        if problems:
            self.self_check_failures.append({"at": now, "problems": problems})
            log.error("self-check failed: %s", problems)


# --- network endpoint ---

class Server:
    """Framed TCP endpoint in front of a PromiseManager."""

    def __init__(self, manager: PromiseManager, host: str = "127.0.0.1", port: int = 0):
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
            except socket.timeout:
                continue
            except OSError:
                break
            t = threading.Thread(target=self._serve_connection, args=(conn,), daemon=True)
            t.start()
            self._threads = [x for x in self._threads if x.is_alive()]
            self._threads.append(t)

    def _serve_connection(self, conn: socket.socket) -> None:
        seen_request_ids: set[str] = set()
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
                except (MalformedMessage, socket.timeout):
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
