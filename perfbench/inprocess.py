"""Replay a workload script against in-process managers, round by round.

Each round builds a fresh `PromiseManager` on a `LogicalClock`, replays
the set-up steps untimed, then times `handle_bytes` on every further step:
the manager's own decode, pipeline and encode, without the benchmark's
encoding of the request or its checks of the reply. Each time is scaled
to the reference speed by the probe run before it (see probe.py).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from promisekit import (ActionMsg, Envelope, LogicalClock, PromiseManager, decode, encode,
                        load_catalog)
from promisekit.harness import register_standard_handlers
from promisekit.protocol import frame
from probe import reference_speed
from script import Tally, active_in_dump, build_envelope, check_reply, end_checks, taken_count

FRAME_HEADER = len(frame(b""))  # what the wire puts in front of every body
PROBE_EVERY_NS = 2_000_000


@dataclass
class Round:
    # latencies; in process scaled to the reference speed, see probe.py
    grant_ns: list = field(default_factory=list)
    action_ns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    frame_bytes: int = 0
    frames: int = 0
    table_records: int = 0
    load_ns: int = 0
    # filled in by summarise()
    envelopes: int = 0
    busy_ns: float = 0.0
    grant_p50_ns: float = 0.0
    action_p50_ns: float = 0.0

    def summarise(self, keep_latencies: bool) -> None:
        """Reduce the latencies to what the end-to-end metrics take; drop
        them unless asked to keep them, so that what the benchmark holds
        does not grow with the number of rounds it runs."""
        self.envelopes = len(self.grant_ns) + len(self.action_ns)
        self.busy_ns = sum(self.grant_ns) + sum(self.action_ns)
        self.grant_p50_ns = statistics.median(self.grant_ns)
        self.action_p50_ns = statistics.median(self.action_ns)
        if not keep_latencies:
            self.grant_ns, self.action_ns = [], []


def fresh_manager(workload):
    """Load the catalog and build the manager; returns it with its clock
    and the time the catalog load took."""
    doc = workload.spec.catalog_document()
    t0 = time.perf_counter_ns()
    catalog = load_catalog(doc)
    load_ns = time.perf_counter_ns() - t0
    clock = LogicalClock()
    manager = PromiseManager(catalog, clock=clock)
    register_standard_handlers(manager)
    return manager, clock, load_ns


def play(workload, manager, clock, rnd: Round, ids: dict, tally: Tally, steps, timed: bool):
    last_probe = 0
    for i, step in steps:
        if timed and time.perf_counter_ns() - last_probe >= PROBE_EVERY_NS:
            speed = reference_speed(samples=1)
            last_probe = time.perf_counter_ns()
        clock.advance(workload.script.tick)
        body = encode(build_envelope(workload.spec, step, ids, f"r{i}"))
        t0 = time.perf_counter_ns()
        out = manager.handle_bytes(body)
        t1 = time.perf_counter_ns()
        rnd.attempted += 1
        if not check_reply(step, decode(out), ids, tally):
            rnd.failed += 1
        if timed:
            (rnd.action_ns if step.kind == "action" else rnd.grant_ns).append((t1 - t0) * speed)
            rnd.frame_bytes += len(body) + len(out) + 2 * FRAME_HEADER
            rnd.frames += 2


def prepare(workload):
    """A fresh manager with the set-up steps replayed: the round so far,
    the manager, its clock, the promise ids bound and the tally."""
    rnd = Round()
    manager, clock, rnd.load_ns = fresh_manager(workload)
    ids, tally = {}, Tally()
    steps = list(enumerate(workload.script.steps))[:workload.prefill]
    play(workload, manager, clock, rnd, ids, tally, steps, timed=False)
    return rnd, manager, clock, ids, tally


def run_round(workload, prepared=None) -> Round:
    """One whole round: set-up steps, timed steps and the end checks."""
    rnd, manager, clock, ids, tally = prepared or prepare(workload)
    steps = list(enumerate(workload.script.steps))[workload.prefill:]
    play(workload, manager, clock, rnd, ids, tally, steps, timed=True)

    clock.advance(workload.script.tick)
    dump = decode(manager.handle_bytes(encode(_dump_envelope())))
    now = clock.now()
    expected = {ids.get(h) for h in workload.script.model.active_after(now)}
    quantities = {pool: manager.catalog.quantity_on_hand(pool) for pool in workload.spec.pools}
    rnd.problems = end_checks(workload.spec, tally, quantities,
                              taken_count(manager.catalog.dump_state()),
                              active_in_dump(dump), expected, ids)
    rnd.table_records = len(dump.action.payload["promises"])
    return rnd


def _dump_envelope():
    return Envelope(action=ActionMsg("promise-table-dump", None))
