"""Wire codec for promise envelopes.

Bodies are JSON documents; frames on the byte stream are
magic + 4-byte big-endian length + body. docs/wire-protocol.md is the
normative field list. The codec makes one pass each way.

decode() parses a body with one call of the json module's scanner,
falling back to JSONDecoder.decode only when that call does not consume
the whole text (surrounding whitespace, trailing data, no value), then
walks the document once, checking each value as it reads it and building
the message from it; it raises MalformedMessage and nothing else, whatever
the input bytes.

encode() writes the body directly in canonical form, checking each field
against the same rules where it writes it and raising InvariantViolation:
keys sorted, no whitespace, non-ASCII as \\uXXXX escapes, byte for byte
what json.dumps(doc, sort_keys=True, separators=(",", ":")) writes. The
action payload and the predicates go through one C encoder built at
import; it keeps no record of the containers it is in, so a payload that
contains itself, or one nested too deep, ends in RecursionError, which is
raised as InvariantViolation like any other value JSON cannot write. A
reply's payload is encoded by encode_payload() while the server can still
roll the action back (ActionMsg.payload_json), and encode() writes that
text in place of encoding the payload again.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
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
    # the payload's canonical JSON, written as the server builds a reply;
    # encode() writes it as it stands, whatever the payload has become since
    payload_json: Optional[str] = field(default=None, compare=False, repr=False)


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


# --- encode: one pass that checks each field where it writes it, raising
# InvariantViolation for the rules decode enforces on the way in ---

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


def encode_payload(payload) -> Optional[str]:
    """The canonical JSON text of an action payload, None for no payload;
    raises InvariantViolation when JSON cannot write it."""
    if payload is None:
        return None
    try:
        return _json(payload)
    except (TypeError, ValueError, RecursionError) as exc:
        # RecursionError: a payload that contains itself, or nests too deep
        raise InvariantViolation(f"payload is not JSON-serializable: {exc}") from exc


def encode(envelope: Envelope) -> bytes:
    """Serialize an envelope to canonical JSON bytes; an envelope that breaks
    a structural rule raises InvariantViolation.

    Strings are written with _quote, which raises TypeError for anything
    but a str, so a rule on a string need only test that it is not empty;
    an integer is tested with type() before %d writes it."""
    e = envelope
    members = []  # in the sorted order of their names
    try:
        if e.action is not None:
            members.append(_action_json(e.action))
        if e.environment is not None:
            if e.action is None:
                raise ValueError("an environment is only meaningful with an action")
            members.append(_environment_json(e.environment))
        if e.error is not None:
            if not e.error:
                raise ValueError("error must be a non-empty string")
            members.append('"error":' + _quote(e.error))
        if e.promise_part is not None:
            members.append(_part_json(e.promise_part))
        elif e.action is None and e.error is None:
            raise ValueError("envelope carries neither a promise part, an action, nor an error")
    except ValueError as exc:
        raise InvariantViolation(str(exc)) from exc
    except (TypeError, RecursionError) as exc:
        raise InvariantViolation(f"envelope is not JSON-serializable: {exc}") from exc
    return ("{" + ",".join(members) + "}").encode()


def _action_json(action: ActionMsg) -> str:
    if not action.action_name:
        raise ValueError("action needs a non-empty name")
    out = '"action":{"action-name":' + _quote(action.action_name)
    if action.payload is not None:
        text = action.payload_json
        out += ',"payload":' + (text if text is not None else encode_payload(action.payload))
    if action.status is not None:
        if action.status not in ACTION_STATUSES:
            raise ValueError(f"unknown action status {action.status!r}")
        out += ',"status":' + _quote(action.status)
    return out + "}"


def _environment_json(env: EnvironmentMsg) -> str:
    _require_environment(env.promise_ids, env.release_options)
    return '"environment":{"promise-identifiers":[%s],"release-options":[%s]}' % (
        ",".join(map(_quote, env.promise_ids)), ",".join(map(_quote, env.release_options)))


def _part_json(part: PromisePart) -> str:
    members = []
    if part.requests:
        seen_rids: set = set()
        members.append('"promise-request":[%s]' % ",".join(
            [_request_json(r, seen_rids) for r in part.requests]))
    if part.responses:
        members.append('"promise-response":[%s]' % ",".join(map(_response_json, part.responses)))
    if not members:
        raise ValueError("an empty promise part must be omitted, not present")
    return '"promise":{' + ",".join(members) + "}"


def _request_json(r: PromiseRequestMsg, seen_rids: set) -> str:
    rid = r.request_id
    if not rid:
        raise ValueError("request needs a non-empty request-identifier")
    if rid in seen_rids:
        raise ValueError(f"duplicate request-identifier {rid!r}")
    seen_rids.add(rid)
    if type(r.duration) is not int or r.duration < 1:
        raise ValueError("promise-duration must be a positive integer")
    release = ""
    if r.release_on_grant:
        _require_release(r.release_on_grant)
        release = ',"release-on-grant":[%s]' % ",".join(map(_quote, r.release_on_grant))
    covered, resources = set(), []
    for rt, key in r.resources:
        if not rt:
            raise ValueError("resource reference needs a non-empty resource-type")
        covered.add(rt)
        if key is None:
            resources.append('{"resource-type":%s}' % _quote(rt))
        elif not key:
            raise ValueError("resource key must be a non-empty string")
        else:
            covered.add((rt, key))
            resources.append('{"key":%s,"resource-type":%s}' % (_quote(key), _quote(rt)))
    if not r.predicates:
        raise ValueError("a promise request needs at least one predicate")
    for p in r.predicates:
        if not isinstance(p, (Named, Quantity, Property)):
            raise ValueError(f"not a predicate: {p!r}")
        if (p.instance if isinstance(p, Named) else p.resource_type) not in covered:
            raise _uncovered(p)
    return '{"predicates":[%s],"promise-duration":%d%s,"request-identifier":%s,"resources":[%s]}' % (
        ",".join([_json(predicate_to_wire(p)) for p in r.predicates]), r.duration, release,
        _quote(rid), ",".join(resources))


def _response_json(r: PromiseResponseMsg) -> str:
    if type(r.granted_duration) is not int or r.granted_duration < 0:
        raise ValueError("promise-duration must be a non-negative integer")
    if not r.correlation:
        raise ValueError("response needs a non-empty promise-correlation")
    if r.result == RESULT_ACCEPTED:
        if not r.promise_id:
            raise ValueError("an accepted response needs a non-empty promise-identifier")
        return ('{"promise-correlation":%s,"promise-duration":%d,"promise-identifier":%s,'
                '"promise-result":"accepted"}') % (
            _quote(r.correlation), r.granted_duration, _quote(r.promise_id))
    if r.result != RESULT_REJECTED:
        raise ValueError(f"unknown promise-result {r.result!r}")
    if r.promise_id is not None:
        raise ValueError("a rejected response carries no promise-identifier")
    return '{"promise-correlation":%s,"promise-duration":%d,"promise-result":"rejected"}' % (
        _quote(r.correlation), r.granted_duration)


def _require_environment(ids, options) -> None:
    """The environment's rules, on its two lists as decode reads them and as
    encode writes them."""
    if len(ids) != len(options):
        raise ValueError("environment lists must be the same length")
    for pid in ids:
        if type(pid) is not str or not pid:
            raise ValueError("environment promise identifiers must be non-empty strings")
    for opt in options:
        if opt not in RELEASE_OPTIONS:
            raise ValueError(f"unknown release option {opt!r}")


def _require_release(ids) -> None:
    """The rules of a release-on-grant list, as for _require_environment."""
    for pid in ids:
        if type(pid) is not str or not pid:
            raise ValueError("release-on-grant identifiers must be non-empty strings")
    if len(set(ids)) != len(ids):
        raise ValueError("release-on-grant repeats a promise identifier")


def _uncovered(p: Predicate) -> ValueError:
    """The error for a predicate whose instance id, which equals the (type,
    key) pair of a keyed reference, or whose type no reference covers."""
    if isinstance(p, Named):
        return ValueError(f"resources list does not cover instance {p.instance}")
    return ValueError(f"resources list does not cover resource type {p.resource_type!r}")


# --- decode: one walk over the scanned document that checks each value as
# it reads it, with the same rules, raising ValueError inside the walk ---

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


# An object whose members are optional (the envelope, its promise part, an
# action, an environment) is walked member by member, so that a null or an
# unknown member fails where it is met. The others are read with get(),
# which reads an absent member and a null one alike as None; once every
# member a rule needs has been read and checked, the object's member count
# tells whether it also holds a member that no rule read.

def _envelope_from_doc(doc) -> Envelope:
    if type(doc) is not dict:
        raise ValueError("envelope must be an object")
    part = environment = action = error = None
    for name, raw in doc.items():
        if name == "promise":
            if type(raw) is not dict:
                raise ValueError("promise part must be an object")
            requests = responses = ()
            for member, docs in raw.items():
                if member == "promise-request":
                    requests = tuple(map(_request_from_doc, _list(docs)))
                    if len(requests) > 1 and len({r.request_id for r in requests}) < len(requests):
                        raise ValueError("duplicate request-identifier")
                elif member == "promise-response":
                    responses = tuple(map(_response_from_doc, _list(docs)))
                else:
                    raise _bad_members(raw, _PART_FIELDS, "promise part")
            if not (requests or responses):
                raise ValueError("an empty promise part must be omitted, not present")
            part = PromisePart(requests, responses)
        elif name == "action":
            action = _action_from_doc(raw)
        elif name == "environment":
            environment = _environment_from_doc(raw)
        elif name == "error":
            if type(raw) is not str or not raw:
                raise ValueError("error must be a non-empty string")
            error = raw
        else:
            raise _bad_members(doc, _ENVELOPE_FIELDS, "envelope")
    if environment is not None and action is None:
        raise ValueError("an environment is only meaningful with an action")
    if part is None and action is None and error is None:
        raise ValueError("envelope carries neither a promise part, an action, nor an error")
    return Envelope(part, environment, action, error)


def _request_from_doc(raw) -> PromiseRequestMsg:
    if type(raw) is not dict:
        raise ValueError("promise-request must be an object")
    rid = raw.get("request-identifier")
    if type(rid) is not str or not rid:
        raise ValueError("request needs a non-empty request-identifier")
    duration = raw.get("promise-duration")
    if type(duration) is not int or duration < 1:
        raise ValueError("promise-duration must be a positive integer")
    refs = raw.get("resources")
    docs = raw.get("predicates")
    if type(refs) is not list or type(docs) is not list or not docs:
        raise ValueError("a promise request needs a list of resources and a non-empty list "
                         "of predicates")
    # the four members read above are present: a fifth must be release-on-grant
    release = ()
    if len(raw) != 4:
        if len(raw) != 5 or "release-on-grant" not in raw:
            raise _bad_members(raw, _REQUEST_FIELDS, "promise-request")
        release = raw["release-on-grant"]
        _require_release(_list(release))
        release = tuple(release)
    covered, resources = set(), []
    for ref in refs:
        rt = ref.get("resource-type") if type(ref) is dict else None
        if type(rt) is not str or not rt:
            raise ValueError("resource reference must be an object with a non-empty resource-type")
        covered.add(rt)
        if len(ref) == 1:
            resources.append((rt, None))
            continue
        key = ref.get("key")
        if type(key) is not str or not key or len(ref) != 2:
            raise _bad_members(ref, _RESOURCE_FIELDS, "resource reference",
                               "key must be a non-empty string")
        ref = (rt, key)
        covered.add(ref)
        resources.append(ref)
    predicates = []
    for doc in docs:
        p = predicate_from_wire(doc)
        if (p.instance if type(p) is Named else p.resource_type) not in covered:
            raise _uncovered(p)
        predicates.append(p)
    return PromiseRequestMsg(rid, tuple(predicates), tuple(resources), duration, release)


def _response_from_doc(raw) -> PromiseResponseMsg:
    if type(raw) is not dict:
        raise ValueError("promise-response must be an object")
    duration = raw.get("promise-duration")
    if type(duration) is not int or duration < 0:
        raise ValueError("promise-duration must be a non-negative integer")
    correlation = raw.get("promise-correlation")
    if type(correlation) is not str or not correlation:
        raise ValueError("response needs a non-empty promise-correlation")
    result = raw.get("promise-result")
    pid = None
    if result == RESULT_ACCEPTED:
        pid = raw.get("promise-identifier")
        if type(pid) is not str or not pid:
            raise ValueError("an accepted response needs a non-empty promise-identifier")
    elif result != RESULT_REJECTED:
        raise ValueError(f"unknown promise-result {result!r}")
    if len(raw) != (4 if pid else 3):
        raise _bad_members(raw, _RESPONSE_FIELDS, "promise-response",
                           "carries a promise-identifier exactly when accepted")
    return PromiseResponseMsg(pid, result, duration, correlation)


def _action_from_doc(raw) -> ActionMsg:
    if type(raw) is not dict:
        raise ValueError("action must be an object")
    name = payload = status = None
    for member, value in raw.items():
        if member == "action-name":
            name = value
        elif member == "payload":
            payload = value
        elif member == "status":
            if value not in ACTION_STATUSES:
                raise ValueError(f"unknown action status {value!r}")
            status = value
        else:
            raise _bad_members(raw, _ACTION_FIELDS, "action")
    if type(name) is not str or not name:
        raise ValueError("action needs a non-empty name")
    return ActionMsg(name, payload, status)


def _environment_from_doc(raw) -> EnvironmentMsg:
    if type(raw) is not dict:
        raise ValueError("environment must be an object")
    ids = options = ()
    for member, value in raw.items():
        if member == "promise-identifiers":
            ids = _list(value)
        elif member == "release-options":
            options = _list(value)
        else:
            raise _bad_members(raw, _ENVIRONMENT_FIELDS, "environment")
    _require_environment(ids, options)
    return EnvironmentMsg(tuple(ids), tuple(options))


def _list(value) -> list:
    if type(value) is not list:
        raise ValueError("expected a list")
    return value


def _bad_members(raw: dict, fields: frozenset, what: str,
                 otherwise: str = "must not hold a null member") -> ValueError:
    """The error for an object whose member count is off: it names the
    unknown members, or, when there are none, says what `otherwise` says."""
    unknown = set(raw) - fields
    if unknown:
        return ValueError(f"unknown {what} fields {sorted(unknown)}")
    return ValueError(f"{what} {otherwise}")


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
