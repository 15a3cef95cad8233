"""Wire codec for promise envelopes.

Bodies are JSON documents; frames on the byte stream are
magic + 4-byte big-endian length + body. docs/wire-protocol.md is the
normative field list. decode() parses a body with one call of the json
module's scanner, falling back to JSONDecoder.decode only when that call
does not consume the whole text (surrounding whitespace, trailing data,
no value), then walks the document once, checking each part as it
builds it; it raises MalformedMessage and nothing else, whatever the
input bytes. encode() checks the envelope with the same per-part rules,
raising InvariantViolation, then writes the body directly in canonical
form: keys sorted, no whitespace, non-ASCII as \\uXXXX escapes, byte for
byte what json.dumps(doc, sort_keys=True, separators=(",", ":")) writes.
The action payload and the predicates go through one C encoder built at
import; it keeps no record of the containers it is in, so a payload that
contains itself, or one nested too deep, ends in RecursionError, which
encode() raises as InvariantViolation like any other value JSON cannot
write.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass
from json.encoder import c_make_encoder
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .predicates import Named, Predicate, Property, Quantity, predicate_from_wire, predicate_to_wire

RESULT_ACCEPTED = "accepted"
RESULT_REJECTED = "rejected"

OPTION_RETAIN = "retain"
OPTION_RELEASE_AFTER_SUCCESS = "release-after-success"
RELEASE_OPTIONS = (OPTION_RETAIN, OPTION_RELEASE_AFTER_SUCCESS)

ACTION_SUCCEEDED = "succeeded"
ACTION_FAILED = "failed"
ACTION_REJECTED_BY_PROMISE_VIOLATION = "rejected-by-promise-violation"
ACTION_PROMISE_EXPIRED = "promise-expired"
ACTION_UNKNOWN_ACTION = "unknown-action"
ACTION_UNKNOWN_PROMISE_ID = "unknown-promise-id"
ACTION_STATUSES = (
    ACTION_SUCCEEDED,
    ACTION_FAILED,
    ACTION_REJECTED_BY_PROMISE_VIOLATION,
    ACTION_PROMISE_EXPIRED,
    ACTION_UNKNOWN_ACTION,
    ACTION_UNKNOWN_PROMISE_ID,
)

FRAME_MAGIC = b"PRM1"
MAX_FRAME_BODY = 1 << 20


class MalformedMessage(Exception):
    """Input bytes or document do not form a valid envelope."""


class InvariantViolation(Exception):
    """Envelope under encode() breaks a structural invariant."""


@dataclass(slots=True)
class PromiseRequestMsg:
    request_id: str
    predicates: tuple[Predicate, ...]
    resources: tuple[tuple[str, Optional[str]], ...]
    duration: int
    release_on_grant: tuple[str, ...] = ()


@dataclass(slots=True)
class PromiseResponseMsg:
    promise_id: Optional[str]
    result: str
    granted_duration: int
    correlation: str


@dataclass(slots=True)
class EnvironmentMsg:
    promise_ids: tuple[str, ...]
    release_options: tuple[str, ...]


@dataclass(slots=True)
class ActionMsg:
    action_name: str
    payload: object = None
    status: Optional[str] = None  # set on responses only


@dataclass(slots=True)
class PromisePart:
    requests: tuple[PromiseRequestMsg, ...] = ()
    responses: tuple[PromiseResponseMsg, ...] = ()


@dataclass(slots=True)
class Envelope:
    promise_part: Optional[PromisePart] = None
    environment: Optional[EnvironmentMsg] = None
    action: Optional[ActionMsg] = None
    error: Optional[str] = None


def derive_resources(predicates) -> tuple[tuple[str, Optional[str]], ...]:
    """Resource references covering the given predicates, deduplicated."""
    out: list[tuple[str, Optional[str]]] = []
    for p in predicates:
        ref = tuple(p.instance) if isinstance(p, Named) else (p.resource_type, None)
        if ref not in out:
            out.append(ref)
    return tuple(out)


def make_request(request_id: str, predicates, duration: int,
                 release_on_grant=(), resources=None) -> PromiseRequestMsg:
    preds = tuple(predicates)
    if resources is None:
        resources = derive_resources(preds)
    return PromiseRequestMsg(request_id, preds, tuple(resources), duration,
                             tuple(release_on_grant))


# --- structural rules, one per part; decode checks each part as it
# builds it, encode checks the whole envelope with _check_envelope ---

def _check_layout(part, environment, action, error) -> None:
    """Which members an envelope may carry together."""
    if part is not None and not (part.requests or part.responses):
        raise ValueError("an empty promise part must be omitted, not present")
    if part is None and action is None and error is None:
        raise ValueError("envelope carries neither a promise part, an action, nor an error")
    if error is not None and (not isinstance(error, str) or not error):
        raise ValueError("error must be a non-empty string")
    if environment is not None and action is None:
        raise ValueError("an environment is only meaningful with an action")


def _check_environment(env: EnvironmentMsg) -> None:
    if len(env.promise_ids) != len(env.release_options):
        raise ValueError("environment lists must be the same length")
    for pid in env.promise_ids:
        if not isinstance(pid, str) or not pid:
            raise ValueError("environment promise identifiers must be non-empty strings")
    for opt in env.release_options:
        if opt not in RELEASE_OPTIONS:
            raise ValueError(f"unknown release option {opt!r}")


def _check_action(action: ActionMsg) -> None:
    if not isinstance(action.action_name, str) or not action.action_name:
        raise ValueError("action needs a non-empty name")
    if action.status is not None and action.status not in ACTION_STATUSES:
        raise ValueError(f"unknown action status {action.status!r}")


def _check_request(req: PromiseRequestMsg, seen_rids: set) -> None:
    rid = req.request_id
    if not isinstance(rid, str) or not rid:
        raise ValueError("request needs a non-empty request-identifier")
    if rid in seen_rids:
        raise ValueError(f"duplicate request-identifier {rid!r}")
    seen_rids.add(rid)
    if not isinstance(req.duration, int) or isinstance(req.duration, bool) or req.duration < 1:
        raise ValueError("promise-duration must be a positive integer")
    for pid in req.release_on_grant:
        if not isinstance(pid, str) or not pid:
            raise ValueError("release-on-grant identifiers must be non-empty strings")
    if len(set(req.release_on_grant)) != len(req.release_on_grant):
        raise ValueError("release-on-grant repeats a promise identifier")
    types, instances = set(), set()
    for rt, key in req.resources:
        if not isinstance(rt, str) or not rt:
            raise ValueError("resource reference needs a non-empty resource-type")
        types.add(rt)
        if key is not None:
            if not isinstance(key, str) or not key:
                raise ValueError("resource key must be a non-empty string")
            instances.add((rt, key))
    if not req.predicates:
        raise ValueError("a promise request needs at least one predicate")
    for p in req.predicates:
        if isinstance(p, Named):
            if p.instance not in instances:
                raise ValueError(f"resources list does not cover instance {p.instance}")
        elif not isinstance(p, (Quantity, Property)):
            raise ValueError(f"not a predicate: {p!r}")
        elif p.resource_type not in types:
            raise ValueError(f"resources list does not cover resource type {p.resource_type!r}")


def _check_response(resp: PromiseResponseMsg) -> None:
    if resp.result not in (RESULT_ACCEPTED, RESULT_REJECTED):
        raise ValueError(f"unknown promise-result {resp.result!r}")
    if (resp.promise_id is not None) != (resp.result == RESULT_ACCEPTED):
        raise ValueError("promise-identifier must be present exactly when accepted")
    if resp.promise_id is not None and (not isinstance(resp.promise_id, str)
                                        or not resp.promise_id):
        raise ValueError("promise-identifier must be a non-empty string")
    if not isinstance(resp.granted_duration, int) or isinstance(resp.granted_duration, bool) \
            or resp.granted_duration < 0:
        raise ValueError("promise-duration must be a non-negative integer")
    if not isinstance(resp.correlation, str) or not resp.correlation:
        raise ValueError("response needs a non-empty promise-correlation")


def _check_envelope(e: Envelope) -> None:
    _check_layout(e.promise_part, e.environment, e.action, e.error)
    if e.environment is not None:
        _check_environment(e.environment)
    if e.action is not None:
        _check_action(e.action)
    if e.promise_part is not None:
        seen_rids: set[str] = set()
        for req in e.promise_part.requests:
            _check_request(req, seen_rids)
        for resp in e.promise_part.responses:
            _check_response(resp)


# --- encode: the checks above guarantee the type of every value written
# with _quote or %d; the payload and the other values go through _json ---

def _unserializable(value):
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


if c_make_encoder is None:  # an interpreter without the _json accelerator
    _json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
else:
    # the settings JSONEncoder(sort_keys=True, separators=(",", ":")) passes,
    # except the markers: a shared dict of them would be used by every
    # server thread at once and keep stale entries after an error
    _c_encoder = c_make_encoder(None, _unserializable, _quote, None, ":", ",",
                                True, False, True)

    def _json(value) -> str:
        return "".join(_c_encoder(value, 0))


def encode(envelope: Envelope) -> bytes:
    """Serialize a structurally valid envelope to canonical JSON bytes."""
    e = envelope
    try:
        _check_envelope(e)
    except ValueError as exc:
        raise InvariantViolation(str(exc)) from exc
    # one list joined once: a large payload is copied into the body once
    out = ["{"]
    try:
        if e.action is not None:
            out += ('"action":{"action-name":', _quote(e.action.action_name))
            if e.action.payload is not None:
                out += (',"payload":', _json(e.action.payload))
            if e.action.status is not None:
                out += (',"status":', _quote(e.action.status))
            out += ("}", ",")
        if e.environment is not None:
            out += ('"environment":{"promise-identifiers":[%s],"release-options":[%s]}' % (
                ",".join(map(_quote, e.environment.promise_ids)),
                ",".join(map(_quote, e.environment.release_options))), ",")
        if e.error is not None:
            out += ('"error":', _quote(e.error), ",")
        if e.promise_part is not None:
            out += ('"promise":', _part_json(e.promise_part), ",")
    except (TypeError, ValueError, RecursionError) as exc:
        # RecursionError: a payload that contains itself, or nests too deep
        raise InvariantViolation(f"envelope is not JSON-serializable: {exc}") from exc
    out[-1] = "}"  # the last member's separator closes the object
    return "".join(out).encode()


def _part_json(part: PromisePart) -> str:
    members = []
    if part.requests:
        members.append('"promise-request":[%s]' % ",".join([_request_json(r) for r in part.requests]))
    if part.responses:
        members.append('"promise-response":[%s]' % ",".join([_response_json(r) for r in part.responses]))
    return "{" + ",".join(members) + "}"


def _request_json(r: PromiseRequestMsg) -> str:
    release = ',"release-on-grant":[%s]' % ",".join(map(_quote, r.release_on_grant)) \
        if r.release_on_grant else ""
    return '{"predicates":[%s],"promise-duration":%d%s,"request-identifier":%s,"resources":[%s]}' % (
        ",".join([_json(predicate_to_wire(p)) for p in r.predicates]), r.duration, release,
        _quote(r.request_id), ",".join([_resource_json(rt, key) for rt, key in r.resources]))


def _resource_json(rt: str, key: Optional[str]) -> str:
    if key is None:
        return '{"resource-type":%s}' % _quote(rt)
    return '{"key":%s,"resource-type":%s}' % (_quote(key), _quote(rt))


def _response_json(r: PromiseResponseMsg) -> str:
    pid = "" if r.promise_id is None else ',"promise-identifier":' + _quote(r.promise_id)
    return '{"promise-correlation":%s,"promise-duration":%d%s,"promise-result":%s}' % (
        _quote(r.correlation), r.granted_duration, pid, _quote(r.result))


# --- decode ---

_DECODER = json.JSONDecoder()
_scan = _DECODER.scan_once
_ENVELOPE_FIELDS = frozenset(("promise", "environment", "action", "error"))
_PART_FIELDS = frozenset(("promise-request", "promise-response"))
_ENVIRONMENT_FIELDS = frozenset(("promise-identifiers", "release-options"))
_ACTION_FIELDS = frozenset(("action-name", "payload", "status"))
_REQUEST_FIELDS = frozenset(("request-identifier", "predicates", "resources",
                             "promise-duration", "release-on-grant"))
_RESPONSE_FIELDS = frozenset(("promise-identifier", "promise-result",
                              "promise-duration", "promise-correlation"))
_RESOURCE_FIELDS = frozenset(("resource-type", "key"))


def decode(data: bytes) -> Envelope:
    """Parse envelope bytes; any problem raises MalformedMessage."""
    try:
        text = data.decode("utf-8")
        try:
            doc, end = _scan(text, 0)
        except StopIteration:  # no value at 0: leading whitespace, or no text
            end = None
        if end != len(text):  # JSONDecoder.decode gives the answer, or the error
            doc = _DECODER.decode(text)
    except (AttributeError, ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON, or an integer too long to convert
        raise MalformedMessage(f"not a JSON document: {exc}") from exc
    try:
        return _envelope_from_doc(doc)
    except (ValueError, TypeError) as exc:
        raise MalformedMessage(str(exc)) from exc


def _envelope_from_doc(doc) -> Envelope:
    _object(doc, _ENVELOPE_FIELDS, "envelope")
    part = environment = action = None
    if "promise" in doc:
        raw = _object(doc["promise"], _PART_FIELDS, "promise part")
        seen_rids: set[str] = set()
        part = PromisePart(
            tuple([_request_from_doc(r, seen_rids) for r in _list(raw.get("promise-request", []))]),
            tuple(map(_response_from_doc, _list(raw.get("promise-response", [])))))
    if "environment" in doc:
        raw = _object(doc["environment"], _ENVIRONMENT_FIELDS, "environment")
        environment = EnvironmentMsg(tuple(_list(raw.get("promise-identifiers", []))),
                                     tuple(_list(raw.get("release-options", []))))
        _check_environment(environment)
    if "action" in doc:
        raw = _object(doc["action"], _ACTION_FIELDS, "action")
        action = ActionMsg(raw.get("action-name"), raw.get("payload"), _optional(raw, "status"))
        _check_action(action)
    error = _optional(doc, "error")
    _check_layout(part, environment, action, error)
    return Envelope(part, environment, action, error)


def _request_from_doc(raw, seen_rids: set) -> PromiseRequestMsg:
    _object(raw, _REQUEST_FIELDS, "promise-request")
    req = PromiseRequestMsg(
        raw.get("request-identifier"),
        tuple(map(predicate_from_wire, _list(raw.get("predicates", [])))),
        tuple(map(_resource_from_doc, _list(raw.get("resources", [])))),
        raw.get("promise-duration"),
        tuple(_list(raw.get("release-on-grant", []))))
    _check_request(req, seen_rids)
    return req


def _resource_from_doc(raw) -> tuple:
    _object(raw, _RESOURCE_FIELDS, "resource reference")
    return (raw.get("resource-type"), raw.get("key"))


def _response_from_doc(raw) -> PromiseResponseMsg:
    _object(raw, _RESPONSE_FIELDS, "promise-response")
    resp = PromiseResponseMsg(_optional(raw, "promise-identifier"), raw.get("promise-result"),
                              raw.get("promise-duration"), raw.get("promise-correlation"))
    _check_response(resp)
    return resp


def _object(raw, fields: frozenset, what: str) -> dict:
    """`raw` if it is a JSON object whose member names all lie in `fields`."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be an object")
    if not fields.issuperset(raw):
        raise ValueError(f"unknown {what} fields {sorted(set(raw) - fields)}")
    return raw


def _optional(raw: dict, name: str):
    """raw[name], or None when it is absent; an explicit null is malformed."""
    value = raw.get(name)
    if value is None and name in raw:
        raise ValueError(f"{name} must not be null")
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError("expected a list")
    return value


# --- framing ---

def frame(body: bytes) -> bytes:
    if len(body) > MAX_FRAME_BODY:
        raise InvariantViolation(f"frame body of {len(body)} bytes exceeds {MAX_FRAME_BODY}")
    return FRAME_MAGIC + len(body).to_bytes(4, "big") + body


def send_frame(sock: socket.socket, body: bytes) -> None:
    sock.sendall(frame(body))


class ConnectionClosed(Exception):
    pass


def recv_frame(sock: socket.socket) -> bytes:
    """Read one frame; raises ConnectionClosed on clean EOF between frames
    and MalformedMessage on a broken header (the stream is then desynced)."""
    header = _recv_exact(sock, 8, allow_eof=True)
    magic, length = header[:4], int.from_bytes(header[4:], "big")
    if magic != FRAME_MAGIC:
        raise MalformedMessage(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BODY:
        raise MalformedMessage(f"frame length {length} exceeds {MAX_FRAME_BODY}")
    return _recv_exact(sock, length, allow_eof=False)


def _recv_exact(sock: socket.socket, n: int, allow_eof: bool) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if allow_eof and got == 0:
                raise ConnectionClosed()
            raise MalformedMessage("stream ended mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
