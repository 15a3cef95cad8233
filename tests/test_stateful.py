"""A random walk over one manager: every feasibility answer the engine
gives from its kept assignments and its pool totals must equal a cold
check of the same state.

The cold reference is `check_satisfiable` over the whole active set, and
below nine predicates also the exhaustive oracle.
"""

import copy

from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from promisekit.catalog import (
    STATUS_TAKEN,
    InstanceRecord,
    ResourceCatalog,
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
BULK = 5
CATALOG = {"resource-types": [
    {"name": "bulk", "pool": BULK},
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
    st.builds(Quantity, st.just("bulk"), st.integers(1, 3)),
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


def changed(view, iid=None, status=None, prop=None):
    """A copy of `view`; with `iid`, one instance's status or one property changed."""
    copies = []
    for r in view.instances:
        props = dict(r.properties)
        if r.id == iid and prop is not None:
            props[prop[0]] = prop[1]
        copies.append(InstanceRecord(r.id, props, status if r.id == iid and status else r.status))
    return ResourceCatalog(view.schema, dict(view.pools), copies)


def restocked(view, amount):
    """A copy of `view` with `amount` more bulk on hand (less if negative)."""
    return ResourceCatalog(view.schema, {**view.pools, "bulk": view.pools["bulk"] + amount},
                           [InstanceRecord(r.id, dict(r.properties), r.status)
                            for r in view.instances])


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
        """A copy of the committed state: the catalog's own view is live,
        and a rule compares its action's outcome with the state before it."""
        return changed(self.mgr.catalog.snapshot_availability())

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
        assert (self.mgr.engine.status(old) == "released") == expected

    @precondition(lambda self: self.mgr.engine.active)
    @rule(data=st.data())
    def release(self, data):
        pid = data.draw(st.sampled_from(sorted(self.mgr.engine.active)))
        env = EnvironmentMsg((pid,), ("release-after-success",))
        assert self.act("no-op", None, env).status == "succeeded"
        assert self.mgr.engine.status(pid) == "released"

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

    @precondition(lambda self: self.mgr.engine.active)
    @rule(data=st.data())
    def take_named_a_promise_depends_on(self, data):
        """Take an instance an active promise names or its kept assignment
        uses, so that the take is often rolled back as a violation."""
        eng = self.mgr.engine
        view = self.view()
        used = [p.instance for p in self.active() if isinstance(p, Named)]
        for rt in ("room", "seat"):
            state = eng._types.get(rt)
            if state is not None and state.pairs:
                ids = list(state.position)
                used += [ids[pos] for pos in sorted(state.pairs)]
        untaken = [iid for iid in dict.fromkeys(used) if view.instance(iid).status != STATUS_TAKEN]
        if untaken:
            self.take_named(data.draw(st.sampled_from(untaken)))

    @rule(data=st.data())
    def purchase(self, data):
        """Buy bulk, by itself or releasing a promise that covers it; one of
        the amounts is one more than the promises leave spare."""
        covering = sorted(pid for pid, rec in self.mgr.engine.active.items()
                          if any(p.resource_type == "bulk" for p in rec.predicates))
        pid = data.draw(st.sampled_from([None] + covering))
        view = self.view()
        spare = view.pools["bulk"] - sum(p.amount for p in self.active()
                                         if p.resource_type == "bulk")
        amount = data.draw(st.sampled_from(sorted({1, 2, 3, max(1, spare + 1)})))
        env = None if pid is None else EnvironmentMsg((pid,), ("release-after-success",))
        status = self.act("purchase-stock", {"resource-type": "bulk", "amount": amount}, env).status
        if amount > view.pools["bulk"]:
            assert status == "failed"
            return
        expected = reference(self.active(exclude=[pid] if pid else []), restocked(view, -amount))
        assert status == ("succeeded" if expected else "rejected-by-promise-violation")

    @rule(amount=st.integers(1, 3))
    def restock(self, amount):
        assert self.act("restock", {"resource-type": "bulk", "amount": amount}).status \
            == "succeeded"

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
            InstanceRecord(iid, {c.property_name: v}, "available"),
            Property(pred.resource_type, (c,)), view.schema)]
        self.check_set_property(iid, c.property_name,
                                data.draw(st.sampled_from(outside or values)))

    def check_set_property(self, iid, name, value):
        expected = reference(self.active(), changed(self.view(), iid, prop=(name, value)))
        status = self.act("set-property", {"resource-type": iid.resource_type, "key": iid.key,
                                           "property": name, "value": value}).status
        assert status == ("succeeded" if expected else "rejected-by-promise-violation")

    @rule(change=CHANGES, how=st.sampled_from(("fail", "set-property", "take-named")))
    def rolled_back_action(self, change, how):
        """An action that mutates and is then undone: by its own failure, or
        by a fault after its post-check has passed."""
        iid, name, value = change
        before = self.mgr.state_digest()
        if how == "fail":
            assert self.act("take-then-fail", (iid, (name, value))).status == "failed"
        else:
            def fault(stage):
                if stage == "commit":
                    raise _CommitFault(stage)

            payload = {"resource-type": iid.resource_type, "key": iid.key}
            if how == "set-property":
                payload.update({"property": name, "value": value})
            self.mgr.fault_hook = fault
            try:
                self.mgr.handle(Envelope(action=ActionMsg(how, payload)))
            finally:
                self.mgr.fault_hook = None
        assert self.mgr.state_digest() == before

    # --- after every step ---

    @invariant()
    def warm_answer_equals_cold(self):
        eng = self.mgr.engine
        assert eng.problems() == []
        assert self.mgr.self_check_failures == []
        # decided on copies of the per-type state the check writes and of
        # the catalog whose record of moves it reads, so that the
        # hints the rules left, stale ones included, reach the next rule's
        # own checks unrepaired
        probe = copy.copy(eng)
        probe._types = copy.deepcopy(eng._types)
        probe.catalog = copy.deepcopy(eng.catalog)
        assert probe.post_action_check(None) == reference(self.active(), self.view())


# No shrink phase: each shrink step replays whole manager walks, so a
# failing machine would hold the suite for minutes instead of seconds.
WarmEqualsCold.TestCase.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate))
TestWarmEqualsCold = WarmEqualsCold.TestCase
