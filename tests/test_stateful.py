"""A random walk over one manager: every feasibility answer the engine
gives from its kept assignments must equal a cold check of the same state.

The cold reference is `check_satisfiable` over the whole active set, and
below nine predicates also the exhaustive oracle.
"""

import copy

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from promisekit.catalog import (
    STATUS_TAKEN,
    AvailabilityView,
    InstanceView,
    SetInstanceStatus,
    SetProperty,
    load_catalog,
)
from promisekit.clock import LogicalClock
from promisekit.engine import check_satisfiable
from promisekit.harness import register_standard_handlers
from promisekit.oracle import brute_force_satisfiable
from promisekit.predicates import (
    AT_LEAST_IN_ORDER,
    EQUALS,
    InstanceId,
    Named,
    Property,
    PropertyConstraint,
    Quantity,
    satisfies,
)
from promisekit.protocol import ActionMsg, Envelope, EnvironmentMsg, PromisePart, make_request
from promisekit.service import ActionFailure, PromiseManager

FLOORS = (1, 2, 3)
CLASSES = ("economy", "business", "first")
ROOMS = {"r1": (1, True), "r2": (2, False), "r3": (3, True), "r4": (3, False)}
SEATS = {"s1": "economy", "s2": "business", "s3": "first"}
CATALOG = {"resource-types": [
    {"name": "room",
     "properties": [{"name": "floor", "order": list(FLOORS)},
                    {"name": "view", "domain": [True, False]}],
     "instances": [{"key": k, "properties": {"floor": f, "view": v}}
                   for k, (f, v) in ROOMS.items()]},
    {"name": "seat",
     "properties": [{"name": "class", "order": list(CLASSES)}],
     "instances": [{"key": k, "properties": {"class": c}} for k, c in SEATS.items()]},
]}
INSTANCES = [InstanceId("room", k) for k in ROOMS] + [InstanceId("seat", k) for k in SEATS]
CHANGES = st.one_of(
    st.tuples(st.sampled_from([i for i in INSTANCES if i.resource_type == "room"]),
              st.sampled_from(("floor",)), st.sampled_from(FLOORS)),
    st.tuples(st.sampled_from([i for i in INSTANCES if i.resource_type == "room"]),
              st.sampled_from(("view",)), st.booleans()),
    st.tuples(st.sampled_from([i for i in INSTANCES if i.resource_type == "seat"]),
              st.sampled_from(("class",)), st.sampled_from(CLASSES)))

PREDICATES = st.one_of(
    st.builds(Quantity, st.sampled_from(("room", "seat")), st.integers(1, 2)),
    st.builds(Named, st.sampled_from(INSTANCES)),
    st.builds(Property, st.just("room"), st.lists(st.one_of(
        st.builds(PropertyConstraint, st.just("floor"), st.just(AT_LEAST_IN_ORDER),
                  st.sampled_from(FLOORS)),
        st.builds(PropertyConstraint, st.just("view"), st.just(EQUALS), st.booleans())),
        min_size=1, max_size=2, unique_by=lambda c: c.property_name).map(tuple),
        st.integers(1, 2)),
    st.builds(Property, st.just("seat"),
              st.tuples(st.builds(PropertyConstraint, st.just("class"),
                                  st.just(AT_LEAST_IN_ORDER), st.sampled_from(CLASSES))),
              st.integers(1, 2)))


def reference(predicates, view) -> bool:
    """The cold answer, cross-checked by the oracle where it is small enough."""
    cold = check_satisfiable(predicates, view)
    if len(predicates) <= 8:
        assert cold == brute_force_satisfiable(predicates, view)
    return cold


def changed(view, iid, status=None, prop=None):
    """A copy of `view` with one instance's status or one property changed."""
    copies = []
    for r in view.instances:
        props = dict(r.properties)
        if r.id == iid and prop is not None:
            props[prop[0]] = prop[1]
        copies.append(InstanceView(r.id, props, status if r.id == iid and status else r.status))
    return AvailabilityView(view.schema, dict(view.pools), copies)


def take_then_fail(payload, unit, catalog):
    """Take an instance and change a property, then fail: both roll back."""
    iid, (name, value) = payload
    catalog.apply_mutation(unit, SetProperty(iid, name, value))
    if catalog.instance(iid).status != STATUS_TAKEN:
        catalog.apply_mutation(unit, SetInstanceStatus(iid, STATUS_TAKEN))
    raise ActionFailure("scripted failure after mutating")


class _CommitFault(RuntimeError):
    pass


class WarmEqualsCold(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.mgr = PromiseManager(load_catalog(CATALOG), clock=LogicalClock(), self_check=True)
        register_standard_handlers(self.mgr)
        self.mgr.register_handler("take-then-fail", take_then_fail)
        self.requests = 0

    # --- helpers ---

    def view(self):
        return self.mgr.catalog.snapshot_availability()

    def active(self, exclude=()):
        return self.mgr.engine.active_predicates(exclude)

    def request(self, predicates, duration, release=()):
        self.requests += 1
        msg = make_request(f"r-{self.requests}", tuple(predicates), duration, tuple(release))
        reply = self.mgr.handle(Envelope(promise_part=PromisePart(requests=(msg,))))
        return reply.promise_part.responses[0].result == "accepted"

    def act(self, name, payload, env=None):
        return self.mgr.handle(Envelope(action=ActionMsg(name, payload), environment=env)).action

    # --- rules ---

    @rule(predicates=st.lists(PREDICATES, min_size=1, max_size=2), duration=st.integers(1, 6))
    def grant(self, predicates, duration):
        expected = reference(self.active() + predicates, self.view())
        assert self.request(predicates, duration) == expected

    @precondition(lambda self: self.mgr.engine.active)
    @rule(data=st.data(), predicates=st.lists(PREDICATES, min_size=1, max_size=2),
          duration=st.integers(1, 6))
    def exchange(self, data, predicates, duration):
        old = data.draw(st.sampled_from(sorted(self.mgr.engine.active)))
        expected = reference(self.active(exclude=[old]) + predicates, self.view())
        assert self.request(predicates, duration, release=[old]) == expected
        assert (self.mgr.engine.record(old).status == "released") == expected

    @precondition(lambda self: self.mgr.engine.active)
    @rule(data=st.data())
    def release(self, data):
        pid = data.draw(st.sampled_from(sorted(self.mgr.engine.active)))
        env = EnvironmentMsg((pid,), ("release-after-success",))
        assert self.act("no-op", None, env).status == "succeeded"
        assert self.mgr.engine.record(pid).status == "released"

    @rule(by=st.integers(1, 3))
    def expiry(self, by):
        self.mgr.clock.advance(by)
        assert self.act("no-op", None).status == "succeeded"
        now = self.mgr.clock.now()
        assert all(r.expires_at > now for r in self.mgr.engine.active.values())

    @rule(iid=st.sampled_from(INSTANCES))
    def take_named(self, iid):
        view = self.view()
        status = self.act("take-named", {"resource-type": iid.resource_type, "key": iid.key}).status
        if view.instance(iid).status == STATUS_TAKEN:
            assert status == "failed"
        else:
            expected = reference(self.active(), changed(view, iid, status=STATUS_TAKEN))
            assert status == ("succeeded" if expected else "rejected-by-promise-violation")

    @rule(change=CHANGES)
    def set_property(self, change):
        self.check_set_property(*change)

    @precondition(lambda self: any(isinstance(p, Property) for p in self.active()))
    @rule(data=st.data())
    def set_property_a_promise_depends_on(self, data):
        """Move an instance that meets an active Property promise out of it,
        where the domain allows: the case where eligibility must be decided
        again."""
        pred = data.draw(st.sampled_from([p for p in self.active() if isinstance(p, Property)]))
        c = data.draw(st.sampled_from(pred.constraints))
        view = self.view()
        instances = view.instances_of(pred.resource_type)
        meeting = [r.id for r in instances if satisfies(r, pred, view.schema)]
        iid = data.draw(st.sampled_from(meeting or [r.id for r in instances]))
        decl = view.schema.property_decl(pred.resource_type, c.property_name)
        values = decl.order or decl.domain
        outside = [v for v in values if not satisfies(
            InstanceView(iid, {c.property_name: v}, "available"),
            Property(pred.resource_type, (c,)), view.schema)]
        self.check_set_property(iid, c.property_name,
                                data.draw(st.sampled_from(outside or values)))

    def check_set_property(self, iid, name, value):
        expected = reference(self.active(), changed(self.view(), iid, prop=(name, value)))
        status = self.act("set-property", {"resource-type": iid.resource_type, "key": iid.key,
                                           "property": name, "value": value}).status
        assert status == ("succeeded" if expected else "rejected-by-promise-violation")

    @rule(change=CHANGES, at_commit=st.booleans())
    def rolled_back_action(self, change, at_commit):
        """An action that mutates and is then undone: by its own failure, or
        by a fault after its post-check has passed."""
        iid, name, value = change
        before = self.mgr.state_digest()
        if not at_commit:
            assert self.act("take-then-fail", (iid, (name, value))).status == "failed"
        else:
            def fault(stage):
                if stage == "commit":
                    raise _CommitFault(stage)

            self.mgr.fault_hook = fault
            try:
                self.mgr.handle(Envelope(action=ActionMsg("set-property", {
                    "resource-type": iid.resource_type, "key": iid.key,
                    "property": name, "value": value})))
            finally:
                self.mgr.fault_hook = None
        assert self.mgr.state_digest() == before

    # --- after every step ---

    @invariant()
    def warm_answer_equals_cold(self):
        eng = self.mgr.engine
        assert eng.index_problems() == []
        assert self.mgr.self_check_failures == []
        # decided on a copy of the per-type state the check writes, so that
        # the hints the rules left, stale ones included, reach the next
        # rule's own checks unrepaired
        probe = copy.copy(eng)
        probe._types = copy.deepcopy(eng._types)
        view = self.view()
        assert probe.post_action_check([], view) == reference(self.active(), view)


WarmEqualsCold.TestCase.settings = settings(max_examples=40, stateful_step_count=50,
                                            deadline=None)
TestWarmEqualsCold = WarmEqualsCold.TestCase
