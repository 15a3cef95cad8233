"""Workload scripts: catalog specs, seeded step sequences, reply checks.

A workload generator drives a `Script`, which runs every step through the
independent `Model` as it is generated and stores the predicted reply
with the step. Replaying the script against a fresh manager then checks
each reply against that prediction. Promises are referred to by handles,
bound to the manager's identifiers as replies arrive, so nothing here
assumes how the manager names its promises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from model import SUCCEEDED, Model
from promisekit import (
    ActionMsg,
    Envelope,
    EnvironmentMsg,
    InstanceId,
    Named,
    PromisePart,
    Property,
    PropertyConstraint,
    Quantity,
    make_request,
)

ACCEPTED = "accepted"
RELEASE_AFTER_SUCCESS = "release-after-success"
RETAIN = "retain"
UNBOUND_ID = "p-unbound"


@dataclass
class InstanceType:
    """An instance-backed type with one ordered and one domain property."""

    name: str
    order_prop: str
    order: list
    domain_prop: str
    domain: list
    instances: dict  # key -> (level index, domain value)


@dataclass
class Spec:
    pools: dict
    types: dict  # name -> InstanceType

    def catalog_document(self) -> dict:
        entries = [{"name": name, "pool": count} for name, count in self.pools.items()]
        for t in self.types.values():
            entries.append({
                "name": t.name,
                "properties": [{"name": t.order_prop, "order": list(t.order)},
                               {"name": t.domain_prop, "domain": list(t.domain)}],
                "instances": [{"key": key, "properties": {t.order_prop: t.order[level],
                                                          t.domain_prop: dom}}
                              for key, (level, dom) in t.instances.items()],
            })
        return {"resource-types": entries}

    def model(self) -> Model:
        return Model(self.pools,
                     {t.name: {k: lv for k, (lv, _) in t.instances.items()}
                      for t in self.types.values()},
                     {t.name: len(t.order) for t in self.types.values()})

    def predicate(self, d):
        kind, rtype = d[0], d[1]
        if kind == "quantity":
            return Quantity(rtype, d[2])
        if kind == "named":
            return Named(InstanceId(rtype, d[2]))
        t = self.types[rtype]
        return Property(rtype, (PropertyConstraint(t.order_prop, "at-least-in-order",
                                                   t.order[d[2]]),), d[3])


@dataclass
class Req:
    handle: int
    demands: tuple
    duration: int
    release: tuple
    accepted: bool


@dataclass
class Act:
    name: str
    payload: Optional[dict]
    env: tuple  # (handle, release_after_success)
    status: str
    effect: Optional[tuple]


@dataclass
class Step:
    """One envelope: a promise request or an action."""

    request: Optional[Req] = None
    action: Optional[Act] = None

    @property
    def kind(self) -> str:
        return "action" if self.action is not None else "grant"


class Script:
    """Generates steps and their predicted replies through one Model."""

    def __init__(self, spec: Spec, tick: int):
        self.spec = spec
        self.tick = tick  # logical time units that pass before each envelope
        self.model = spec.model()
        self.steps: list = []
        self.now = 0
        self._handles = 0

    def _advance(self) -> None:
        self.now += self.tick
        self.model.sweep(self.now)

    def request(self, demands: tuple, duration: int, release=()) -> Optional[int]:
        """One envelope with one promise request; the handle if accepted."""
        self._advance()
        self._handles += 1
        handle = self._handles
        ok = self.model.request(handle, demands, duration, self.now, release)
        self.steps.append(Step(request=Req(handle, demands, duration, tuple(release), ok)))
        return handle if ok else None

    def act(self, effect, env=()) -> str:
        """One envelope with one action; its predicted status."""
        self._advance()
        status = self.model.action(effect, env)
        name, payload = _action_wire(effect)
        self.steps.append(Step(action=Act(name, payload, tuple(env), status, effect)))
        return status


def _action_wire(effect):
    if effect is None:
        return "no-op", None
    kind = effect[0]
    if kind == "take":
        return "take-named", {"resource-type": effect[1], "key": effect[2]}
    name = "purchase-stock" if kind == "purchase" else "restock"
    return name, {"resource-type": effect[1], "amount": effect[2]}


# --- replay: envelopes out, replies checked ---

def build_envelope(spec: Spec, step: Step, ids: dict, tag: str) -> Envelope:
    r = step.request
    if r is not None:
        req = make_request(tag, [spec.predicate(d) for d in r.demands], r.duration,
                           release_on_grant=[ids.get(h, UNBOUND_ID) for h in r.release])
        return Envelope(promise_part=PromisePart(requests=(req,)))
    a = step.action
    env = None
    if a.env:
        env = EnvironmentMsg(tuple(ids.get(h, UNBOUND_ID) for h, _ in a.env),
                             tuple(RELEASE_AFTER_SUCCESS if rel else RETAIN for _, rel in a.env))
    return Envelope(environment=env, action=ActionMsg(a.name, a.payload))


@dataclass
class Tally:
    """What the replies say happened, counted by the benchmark."""

    purchased: dict = field(default_factory=dict)
    restocked: dict = field(default_factory=dict)
    takes: int = 0


def check_reply(step: Step, reply: Envelope, ids: dict, tally: Tally) -> bool:
    """True when the reply is the one the model predicted. Successful
    actions are added to `tally` whatever the model predicted."""
    if reply.error is not None:
        return False
    req = step.request
    if req is not None:
        responses = reply.promise_part.responses if reply.promise_part else ()
        if len(responses) != 1 or (responses[0].result == ACCEPTED) != req.accepted:
            return False
        if req.accepted:
            ids[req.handle] = responses[0].promise_id
            return responses[0].granted_duration == req.duration
        return True
    a = step.action
    if reply.action is None:
        return False
    if reply.action.status == SUCCEEDED and a.effect is not None:
        kind, target = a.effect[0], a.effect[1]
        if kind == "take":
            tally.takes += 1
        else:
            counts = tally.purchased if kind == "purchase" else tally.restocked
            counts[target] = counts.get(target, 0) + a.effect[2]
    if reply.action.status != a.status:
        return False
    if a.status != SUCCEEDED or a.effect is None:
        return True
    if a.effect[0] == "take":
        return reply.action.payload == {"key": a.effect[2]}
    return reply.action.payload == a.payload


def end_checks(spec: Spec, tally: Tally, quantities: dict, taken: int,
               active_ids: set, expected_active: set, ids: dict) -> list:
    """Totals reached by two paths; returns a line for each check that fails."""
    problems = []
    if len(set(ids.values())) != len(ids):
        problems.append("the manager issued one promise identifier twice")
    for pool, initial in spec.pools.items():
        expected = initial - tally.purchased.get(pool, 0) + tally.restocked.get(pool, 0)
        if quantities.get(pool) != expected:
            problems.append(f"pool {pool}: on hand {quantities.get(pool)}, counted {expected}")
    if taken != tally.takes:
        problems.append(f"taken instances {taken}, successful takes {tally.takes}")
    if active_ids != expected_active:
        problems.append(f"active records {sorted(active_ids, key=str)} "
                        f"!= model {sorted(expected_active, key=str)}")
    return problems


def taken_count(catalog_state: dict) -> int:
    return sum(1 for entry in catalog_state["resource-types"]
               for inst in entry.get("instances", ()) if inst["status"] == "taken")


def active_in_dump(reply: Envelope) -> set:
    rows = reply.action.payload["promises"]
    return {row["promise-identifier"] for row in rows if row["status"] == "active"}
