import json
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promisekit.predicates import (
    AT_LEAST_IN_ORDER,
    EQUALS,
    InstanceId,
    Named,
    Property,
    PropertyConstraint,
    Quantity,
)
from promisekit.protocol import (
    ACTION_STATUSES,
    FRAME_MAGIC,
    MAX_FRAME_BODY,
    ActionMsg,
    ConnectionClosed,
    Envelope,
    EnvironmentMsg,
    InvariantViolation,
    MalformedMessage,
    PromisePart,
    PromiseResponseMsg,
    decode,
    encode,
    frame,
    make_request,
    recv_frame,
    send_frame,
)


# --- strategies ---

_names = st.from_regex(r"[a-z][a-z0-9-]{0,9}", fullmatch=True)
# any non-empty text, so that non-ASCII characters reach every string field
_text = st.text(min_size=1, max_size=8)
_scalars = st.one_of(st.integers(-5, 50), st.booleans(), _text)

_quantity = st.builds(Quantity, resource_type=_text, amount=st.integers(1, 9))
_named = st.builds(Named, st.builds(InstanceId, _text, _text))


@st.composite
def _properties(draw):
    rt = draw(_text)
    constraints = draw(st.dictionaries(_names, st.tuples(
        st.sampled_from([EQUALS, AT_LEAST_IN_ORDER]), _scalars),
        min_size=1, max_size=3))
    return Property(rt, tuple(
        PropertyConstraint(name, cmp, val)
        for name, (cmp, val) in sorted(constraints.items())), draw(st.integers(1, 4)))


_predicates = st.one_of(_quantity, _named, _properties())
# NaN is left out: it is written as NaN, but never equals itself after a round trip
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


@st.composite
def envelopes(draw):
    requests = []
    for i in range(draw(st.integers(0, 3))):
        requests.append(make_request(
            f"r{i}",
            draw(st.lists(_predicates, min_size=1, max_size=3)),
            draw(st.integers(1, 500)),
            draw(st.lists(_text, max_size=2, unique=True)),
        ))
    responses = []
    for i in range(draw(st.integers(0, 3))):
        accepted = draw(st.booleans())
        responses.append(PromiseResponseMsg(
            promise_id=draw(_text) if accepted else None,
            result="accepted" if accepted else "rejected",
            granted_duration=draw(st.integers(0, 500)),
            correlation=draw(_text),
        ))
    part = PromisePart(tuple(requests), tuple(responses)) \
        if requests or responses else None

    action = None
    environment = None
    if draw(st.booleans()) or part is None:
        status = draw(st.one_of(st.none(), st.sampled_from(ACTION_STATUSES)))
        action = ActionMsg(draw(_text), draw(_json_values), status)
        if draw(st.booleans()):
            n = draw(st.integers(0, 3))
            environment = EnvironmentMsg(
                tuple(draw(_text) for _ in range(n)),
                tuple(draw(st.sampled_from(["retain", "release-after-success"]))
                      for _ in range(n)))
    error = draw(st.one_of(st.none(), st.just("malformed-message"), _text))
    if part is None and action is None and error is None:
        error = "internal-failure"
    return Envelope(part, environment, action, error)


def ref_doc(e: Envelope) -> dict:
    """The envelope as a JSON document, field by field from docs/wire-protocol.md."""
    doc: dict = {}
    if e.promise_part is not None:
        part: dict = {}
        if e.promise_part.requests:
            part["promise-request"] = [_ref_request(r) for r in e.promise_part.requests]
        if e.promise_part.responses:
            part["promise-response"] = [_ref_response(r) for r in e.promise_part.responses]
        doc["promise"] = part
    if e.environment is not None:
        doc["environment"] = {"promise-identifiers": list(e.environment.promise_ids),
                              "release-options": list(e.environment.release_options)}
    if e.action is not None:
        action: dict = {"action-name": e.action.action_name}
        if e.action.payload is not None:
            action["payload"] = e.action.payload
        if e.action.status is not None:
            action["status"] = e.action.status
        doc["action"] = action
    if e.error is not None:
        doc["error"] = e.error
    return doc


def _ref_request(r) -> dict:
    doc = {"request-identifier": r.request_id,
           "predicates": [_ref_predicate(p) for p in r.predicates],
           "resources": [{"resource-type": rt} if key is None else
                         {"resource-type": rt, "key": key} for rt, key in r.resources],
           "promise-duration": r.duration}
    if r.release_on_grant:
        doc["release-on-grant"] = list(r.release_on_grant)
    return doc


def _ref_predicate(p) -> dict:
    if isinstance(p, Quantity):
        return {"form": "quantity", "resource-type": p.resource_type, "amount": p.amount}
    if isinstance(p, Named):
        return {"form": "named", "resource-type": p.instance.resource_type,
                "key": p.instance.key}
    return {"form": "property", "resource-type": p.resource_type, "amount": p.amount,
            "constraints": [{"property": c.property_name, "comparator": c.comparator,
                             "value": c.value} for c in p.constraints]}


def _ref_response(r) -> dict:
    doc = {"promise-result": r.result, "promise-duration": r.granted_duration,
           "promise-correlation": r.correlation}
    if r.promise_id is not None:
        doc["promise-identifier"] = r.promise_id
    return doc


# --- round-trip ---

@settings(max_examples=300, deadline=None)
@given(envelopes())
def test_round_trip_identity(envelope):
    assert decode(encode(envelope)) == envelope


def test_request_example_round_trips():
    req = make_request("r-1", [Quantity("pink-widget", 5)], 30)
    e = Envelope(promise_part=PromisePart(requests=(req,)))
    assert decode(encode(e)) == e


def test_piggybacked_response_next_to_a_request():
    req = make_request("r-2", [Quantity("pink-widget", 5)], 30)
    resp = PromiseResponseMsg("p-9", "accepted", 30, "r-1")
    e = Envelope(promise_part=PromisePart(requests=(req,), responses=(resp,)))
    assert decode(encode(e)) == e


# --- canonical bytes ---

@settings(max_examples=300, deadline=None)
@given(envelopes())
def test_encode_writes_the_canonical_json_of_the_documented_fields(envelope):
    assert encode(envelope) == json.dumps(
        ref_doc(envelope), sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("envelope,body", [
    (Envelope(promise_part=PromisePart(responses=(
        PromiseResponseMsg("p-7", "accepted", 30, "r-1"),))),
     b'{"promise":{"promise-response":[{"promise-correlation":"r-1","promise-duration":30,'
     b'"promise-identifier":"p-7","promise-result":"accepted"}]}}'),
    (Envelope(promise_part=PromisePart(responses=(
        PromiseResponseMsg(None, "rejected", 0, "r-2"),))),
     b'{"promise":{"promise-response":[{"promise-correlation":"r-2","promise-duration":0,'
     b'"promise-result":"rejected"}]}}'),
    (Envelope(environment=EnvironmentMsg(("p-1", "p-2"), ("retain", "release-after-success")),
              action=ActionMsg("book-room", {"room": None, "nights": [1, 2.5], "guest": "Zo\u00eb"})),
     b'{"action":{"action-name":"book-room","payload":{"guest":"Zo\\u00eb","nights":[1,2.5],'
     b'"room":null}},"environment":{"promise-identifiers":["p-1","p-2"],'
     b'"release-options":["retain","release-after-success"]}}'),
    (Envelope(error="malformed-message"), b'{"error":"malformed-message"}'),
    (Envelope(promise_part=PromisePart(requests=(make_request(
        "r-3", [Named(InstanceId("room", "512")),
                Property("room", (PropertyConstraint("grade", AT_LEAST_IN_ORDER, "deluxe"),), 2)],
        10, ("p-1",)),))),
     b'{"promise":{"promise-request":[{"predicates":[{"form":"named","key":"512",'
     b'"resource-type":"room"},{"amount":2,"constraints":[{"comparator":"at-least-in-order",'
     b'"property":"grade","value":"deluxe"}],"form":"property","resource-type":"room"}],'
     b'"promise-duration":10,"release-on-grant":["p-1"],"request-identifier":"r-3",'
     b'"resources":[{"key":"512","resource-type":"room"},{"resource-type":"room"}]}]}}'),
])
def test_encode_golden_bytes(envelope, body):
    assert encode(envelope) == body
    assert decode(body) == envelope


# --- decoder robustness ---

@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decode_never_crashes_on_arbitrary_bytes(data):
    try:
        decode(data)
    except MalformedMessage:
        pass


def _request_doc(**fields) -> dict:
    """An envelope with one valid promise-request whose `fields` (named with
    underscores for hyphens) are replaced; a None value drops the field."""
    doc = {"request-identifier": "r1",
           "predicates": [{"form": "quantity", "resource-type": "w", "amount": 1}],
           "resources": [{"resource-type": "w"}], "promise-duration": 5}
    doc.update((k.replace("_", "-"), v) for k, v in fields.items())
    return {"promise": {"promise-request": [{k: v for k, v in doc.items() if v is not None}]}}


def _response_doc(**fields) -> dict:
    """As _request_doc, for one accepted promise-response."""
    doc = {"promise-identifier": "p-1", "promise-result": "accepted",
           "promise-duration": 5, "promise-correlation": "r1"}
    doc.update((k.replace("_", "-"), v) for k, v in fields.items())
    return {"promise": {"promise-response": [{k: v for k, v in doc.items() if v is not None}]}}


def _environment_doc(ids, options) -> dict:
    return {"action": {"action-name": "go"},
            "environment": {"promise-identifiers": ids, "release-options": options}}


_NAMED_DESK = {"form": "named", "resource-type": "desk", "key": "d1"}


@pytest.mark.parametrize("doc", [
    # the envelope
    [],
    {},                                       # nothing present
    {"action": {"action-name": "go"}, "bogus": 1},
    {"error": ""},
    {"error": 7},
    {"promise": None},
    # the promise part
    {"promise": {}},                          # empty promise part
    {"promise": {"promise-request": [], "promise-response": []}},
    {"promise": {"promise-request": {}}},
    {"promise": {"promise-response": "r1"}},
    {"promise": {**_request_doc()["promise"], "extra": []}},
    # promise requests
    {"promise": {"promise-request": [{}]}},
    {"promise": {"promise-request": ["r1"]}},
    _request_doc(bogus=1),
    _request_doc(request_identifier=""),
    _request_doc(request_identifier=7),
    {"promise": {"promise-request": _request_doc()["promise"]["promise-request"] * 2}},
    _request_doc(predicates=[]),
    _request_doc(predicates={"form": "quantity"}),
    _request_doc(predicates=[{"form": "quantity", "resource-type": "w", "amount": 1,
                              "colour": "red"}]),
    _request_doc(predicates=[{"form": "pool", "resource-type": "w", "amount": 1}]),
    _request_doc(promise_duration=0),
    _request_doc(promise_duration=True),
    _request_doc(promise_duration=2.5),
    _request_doc(promise_duration=None),
    _request_doc(resources=[]),               # resources must cover predicates
    _request_doc(resources={"resource-type": "w"}),
    _request_doc(resources=["w"]),
    _request_doc(resources=[{"resource-type": ""}]),
    _request_doc(resources=[{"resource-type": "w", "key": ""}]),
    _request_doc(resources=[{"resource-type": "w", "key": 3}]),
    _request_doc(predicates=[_NAMED_DESK], resources=[{"resource-type": "desk"}]),
    _request_doc(predicates=[_NAMED_DESK], resources=[{"resource-type": "desk", "key": "d2"}]),
    _request_doc(release_on_grant="p-1"),
    _request_doc(release_on_grant=["p-1", "p-1"]),
    _request_doc(release_on_grant=[["p-1"]]),
    _request_doc(release_on_grant=[""]),
    # promise responses
    {"promise": {"promise-response": [7]}},
    _response_doc(bogus=1),
    _response_doc(promise_identifier=None),   # accepted needs an id
    _response_doc(promise_result="rejected"),  # rejected carries none
    _response_doc(promise_result="maybe"),
    _response_doc(promise_duration=-1),
    _response_doc(promise_duration=False),
    _response_doc(promise_correlation=""),
    # the environment
    {"environment": {"promise-identifiers": ["p-1"],
                     "release-options": ["release-after-success"]}},  # env without action
    {"action": {"action-name": "go"}, "environment": "p-1"},
    {"action": {"action-name": "go"}, "environment": {"promise-identifiers": [], "extra": 1}},
    _environment_doc(["p-1"], []),
    _environment_doc("p-1", ["retain"]),
    _environment_doc([5], ["retain"]),
    _environment_doc([""], ["retain"]),
    _environment_doc(["p-1"], ["keep"]),
    # the action
    {"action": []},
    {"action": {}},
    {"action": {"action-name": ""}},
    {"action": {"action-name": 7}},
    {"action": {"action-name": "go", "status": "sideways"}},
    {"action": {"action-name": "go", "verb": "run"}},
    # an unknown resource-reference member, a null string member, a bad promise-identifier
    _request_doc(resources=[{"resource-type": "w", "colour": "red"}]),
    {"action": {"action-name": "go", "status": None}},
    {"action": {"action-name": "go"}, "error": None},
    _response_doc(promise_identifier=[5]),
    _response_doc(promise_identifier=5),
    _response_doc(promise_identifier=""),
    {"promise": {"promise-response": [{"promise-identifier": None, "promise-result": "rejected",
                                       "promise-duration": 0, "promise-correlation": "r1"}]}},
])
def test_structurally_bad_documents_are_malformed(doc):
    with pytest.raises(MalformedMessage):
        decode(json.dumps(doc).encode())


@pytest.mark.parametrize("data", [
    b"\xff\xfe{}",
    b"{\"error\": \"malformed-message\"",
    b"[" * 100_000,
    b"1" * 5000,
    "{}",
    None,
    memoryview(b"{}"),
], ids=["not-utf-8", "not-json", "nested-past-the-recursion-limit",
        "integer-too-long-to-convert", "str", "none", "memoryview"])
def test_undecodable_input_is_malformed(data):
    with pytest.raises(MalformedMessage):
        decode(data)


_GRANT_BODY = encode(Envelope(promise_part=PromisePart(requests=(
    make_request("r-1", [Quantity("pink-widget", 5)], 30),))))


def test_surrounding_whitespace_decodes_like_the_bare_body():
    assert decode(b" \n\t\r" + _GRANT_BODY + b"\r\n ") == decode(_GRANT_BODY)


@pytest.mark.parametrize("data", [
    _GRANT_BODY + b"{}",
    _GRANT_BODY + b" x",
    b"",
    b" \n ",
], ids=["extra-document", "extra-data", "empty", "whitespace-only"])
def test_a_body_that_is_not_one_whole_document_is_malformed(data):
    with pytest.raises(MalformedMessage):
        decode(data)


def _nested_lists(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def _self_containing():
    value = {"a": 1}
    value["self"] = value
    return value


@pytest.mark.parametrize("payload", [_nested_lists(5000), _self_containing()],
                         ids=["nested-5000-deep", "contains-itself"])
def test_a_payload_json_cannot_write_is_an_invariant_violation(payload):
    with pytest.raises(InvariantViolation):
        encode(Envelope(action=ActionMsg("go", payload)))


def _request_envelope(**fields) -> Envelope:
    """An envelope with one valid request whose `fields` are replaced."""
    req = make_request("r1", [Quantity("w", 1)], 5)
    for name, value in fields.items():
        setattr(req, name, value)
    return Envelope(promise_part=PromisePart(requests=(req,)))


def _response_envelope(**fields) -> Envelope:
    """As _request_envelope, for one accepted response."""
    resp = PromiseResponseMsg("p-1", "accepted", 5, "r1")
    for name, value in fields.items():
        setattr(resp, name, value)
    return Envelope(promise_part=PromisePart(responses=(resp,)))


def _environment_envelope(ids, options) -> Envelope:
    return Envelope(environment=EnvironmentMsg(ids, options), action=ActionMsg("go"))


_R1 = make_request("r1", [Quantity("w", 1)], 5)


@pytest.mark.parametrize("envelope", [
    # the envelope
    Envelope(),
    Envelope(promise_part=PromisePart()),
    Envelope(environment=EnvironmentMsg(("p-1",), ("retain",)), promise_part=PromisePart(requests=(_R1,))),
    Envelope(error=""),
    Envelope(error=7),
    # promise responses
    _response_envelope(result="maybe"),
    _response_envelope(promise_id=None),            # accepted needs an id
    _response_envelope(promise_id=""),
    _response_envelope(promise_id=5),
    _response_envelope(result="rejected"),          # rejected carries none
    _response_envelope(granted_duration=-1),
    _response_envelope(granted_duration=True),
    _response_envelope(granted_duration=2.5),
    _response_envelope(correlation=""),
    # the action
    Envelope(action=ActionMsg("")),
    Envelope(action=ActionMsg(7)),
    Envelope(action=ActionMsg("go", None, "sideways")),
    # the environment
    _environment_envelope(("p-1",), ()),
    _environment_envelope(("p-1",), ("keep",)),
    _environment_envelope(("",), ("retain",)),
    _environment_envelope((5,), ("retain",)),
    # promise requests
    _request_envelope(duration=0),
    _request_envelope(duration=True),
    _request_envelope(request_id=""),
    Envelope(promise_part=PromisePart(requests=(_R1, make_request("r1", [Quantity("v", 1)], 5)))),
    _request_envelope(release_on_grant=("p-1", "p-1")),
    _request_envelope(release_on_grant=("",)),
    _request_envelope(resources=()),
    _request_envelope(resources=(("v", None),)),
    _request_envelope(resources=(("", None),)),
    _request_envelope(resources=(("w", ""),)),
    _request_envelope(predicates=(Named(InstanceId("w", "k1")),), resources=(("w", "k2"),)),
    _request_envelope(predicates=()),
    _request_envelope(predicates=("w",), resources=(("w", None),)),
])
def test_structurally_bad_envelopes_are_invariant_violations(envelope):
    with pytest.raises(InvariantViolation):
        encode(envelope)


def test_duplicate_request_identifiers_in_one_envelope():
    r1 = make_request("r-1", [Quantity("w", 1)], 5)
    e = Envelope(promise_part=PromisePart(requests=(r1, r1)))
    with pytest.raises(InvariantViolation):
        encode(e)


def test_empty_envelope_is_an_invariant_violation():
    with pytest.raises(InvariantViolation):
        encode(Envelope())
    with pytest.raises(InvariantViolation):
        encode(Envelope(promise_part=PromisePart()))


def test_environment_without_action_is_rejected_on_encode():
    env = EnvironmentMsg(("p-1",), ("retain",))
    with pytest.raises(InvariantViolation):
        encode(Envelope(environment=env,
                        promise_part=PromisePart(requests=(
                            make_request("r", [Quantity("w", 1)], 5),))))


def test_unserializable_payload_is_reported():
    e = Envelope(action=ActionMsg("go", object()))
    with pytest.raises(InvariantViolation):
        encode(e)


# --- normative field names ---

def test_wire_field_names_follow_the_protocol_doc():
    req = make_request("r-1", [Quantity("pink-widget", 5)], 30,
                       release_on_grant=("p-0",))
    resp = PromiseResponseMsg("p-1", "accepted", 30, "r-0")
    env = EnvironmentMsg(("p-1",), ("release-after-success",))
    e = Envelope(PromisePart((req,), (resp,)), env, ActionMsg("purchase-stock", {"n": 1}))
    doc = json.loads(encode(e))
    assert set(doc) == {"promise", "environment", "action"}
    assert set(doc["promise"]) == {"promise-request", "promise-response"}
    assert set(doc["promise"]["promise-request"][0]) == {
        "request-identifier", "predicates", "resources",
        "promise-duration", "release-on-grant"}
    assert set(doc["promise"]["promise-response"][0]) == {
        "promise-identifier", "promise-result", "promise-duration",
        "promise-correlation"}
    assert set(doc["environment"]) == {"promise-identifiers", "release-options"}
    assert doc["promise"]["promise-request"][0]["resources"] == [
        {"resource-type": "pink-widget"}]


def test_encoding_is_canonical():
    e = Envelope(action=ActionMsg("go", {"b": 1, "a": 2}))
    assert encode(e) == encode(decode(encode(e)))


# --- framing ---

def test_frame_round_trip_over_a_socketpair():
    a, b = socket.socketpair()
    try:
        body = encode(Envelope(action=ActionMsg("go")))
        send_frame(a, body)
        send_frame(a, body)
        assert recv_frame(b) == body
        assert recv_frame(b) == body
    finally:
        a.close()
        b.close()


def test_bad_magic_is_malformed():
    a, b = socket.socketpair()
    try:
        a.sendall(b"XXXX" + (5).to_bytes(4, "big") + b"hello")
        with pytest.raises(MalformedMessage):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_clean_eof_between_frames():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises(ConnectionClosed):
            recv_frame(b)
    finally:
        b.close()


def test_truncated_frame_is_malformed():
    a, b = socket.socketpair()
    try:
        a.sendall(FRAME_MAGIC + (10).to_bytes(4, "big") + b"abc")
        a.close()
        with pytest.raises(MalformedMessage):
            recv_frame(b)
    finally:
        b.close()


def test_oversized_frames_are_refused_both_ways():
    with pytest.raises(InvariantViolation):
        frame(b"x" * (MAX_FRAME_BODY + 1))
    a, b = socket.socketpair()
    try:
        a.sendall(FRAME_MAGIC + (MAX_FRAME_BODY + 1).to_bytes(4, "big"))
        with pytest.raises(MalformedMessage):
            recv_frame(b)
    finally:
        a.close()
        b.close()
