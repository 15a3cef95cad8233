"""Spans and counts recorded around the public functions of promisekit.

The wrappers are installed from the benchmark's own files by replacing
module attributes and methods; promisekit itself holds no tracing code.
Spans stay in memory while the run lasts and are written out at its end.
A function that no longer exists is recorded as missing, and the metrics
built on it are reported as absent instead of failing the run.
"""

from __future__ import annotations

import json
import statistics
import time

# (metric name, span names whose durations it takes the median of)
TIMED_METRICS = (
    ("predicates.validate_us", ("predicates.validate",)),
    ("catalog.snapshot_us", ("catalog.snapshot",)),
    ("catalog.rollback_us", ("catalog.rollback_to",)),
    ("engine.build_us", ("engine.build",)),
    ("engine.solve_us", ("engine.solve",)),
    ("engine.grant_us", ("engine.grant", "engine.exchange")),
    ("engine.post_check_us", ("engine.post_action_check",)),
    ("engine.table_copy_us", ("engine.snapshot", "engine.restore")),
    ("engine.sweep_us", ("engine.expire_sweep",)),
    ("protocol.encode_us", ("protocol.encode",)),
    ("protocol.decode_us", ("protocol.decode",)),
    ("service.handle_us", ("service.handle",)),
    ("service.handler_us", ("service.handler",)),
)


class Tracer:
    """In-memory spans, each a tuple (name, start ns, end ns).

    Wrappers are installed only around the traced rounds, so untraced
    rounds run the program exactly as it is. The counted functions run
    under the manager's lock, and a list append is atomic, so the wire
    server's threads need no lock of their own here.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.missing: set = set()
        self._patches: list = []

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span for every call of `owner.attr`."""
        fn = self._original(owner, attr, name)
        if fn is None:
            return
        spans = self.spans

        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((name, start, time.perf_counter_ns()))
            if on_result is not None:
                on_result(result)
            return result

        self._patch(owner, attr, fn, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of `owner.attr` without timing them."""
        fn = self._original(owner, attr, name)
        if fn is None:
            return
        tracer = self

        def counted(*args, **kwargs):
            tracer.add(name)
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, counted)

    def _original(self, owner, attr, name):
        fn = owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)
        if fn is None:
            self.missing.add(name)
        return fn

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def durations_us(self, first: int = 0) -> dict:
        """Durations by span name, of the spans from index `first` on."""
        out: dict = {}
        for name, start, end in self.spans[first:]:
            out.setdefault(name, []).append((end - start) / 1000)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark measures.

    Call before the manager of a traced round is built, so that its
    standard handlers are registered wrapped.
    """
    from promisekit import catalog, engine, harness, service

    def problem_shape(problem):
        tracer.add("engine.checks")
        tracer.add("engine.demands", len(problem.demands))
        tracer.add("engine.edges", sum(len(fan) for fan in problem.edges))

    tracer.count(engine, "satisfies", "predicates.satisfies")
    tracer.wrap(service, "validate_predicate", "predicates.validate")
    tracer.wrap(catalog.ResourceCatalog, "snapshot_availability", "catalog.snapshot")
    tracer.wrap(catalog.ResourceCatalog, "rollback_to", "catalog.rollback_to")
    tracer.count(catalog.ResourceCatalog, "apply_mutation", "catalog.mutations")
    tracer.wrap(engine, "build_feasibility_problem", "engine.build", problem_shape)
    tracer.wrap(engine, "solve_feasibility", "engine.solve")
    for method in ("grant", "exchange", "expire_sweep", "post_action_check",
                   "snapshot", "restore"):
        tracer.wrap(engine.PromiseEngine, method, f"engine.{method}")
    tracer.wrap(service, "encode", "protocol.encode")
    tracer.wrap(service, "decode", "protocol.decode")
    tracer.wrap(service.PromiseManager, "handle", "service.handle")
    tracer.wrap(service.PromiseManager, "handle_bytes", "service.handle_bytes")
    for action in list(harness.STANDARD_HANDLERS):
        tracer.wrap(harness.STANDARD_HANDLERS, action, "service.handler")


def layer_metrics(durations: dict, counts: dict, missing, envelopes: int) -> dict:
    """Per-layer metrics from the spans and counts of the traced rounds.

    A timing with no spans is left out. A count whose wrapper was
    installed but never called is 0; one whose function is gone is left out.
    """
    out = {}
    for metric, names in TIMED_METRICS:
        values = [v for n in names for v in durations.get(n, ())]
        if values:
            out[metric] = (statistics.median(values), "us")
    if "catalog.mutations" not in missing:
        out["catalog.mutations_per_envelope"] = (
            counts.get("catalog.mutations", 0) / envelopes, "count")
    checks = counts.get("engine.checks", 0)
    if "engine.build" in missing or not checks:
        return out
    out["engine.checks_per_envelope"] = (checks / envelopes, "count")
    out["engine.edges_per_check"] = (counts["engine.edges"] / checks, "count")
    out["engine.demands_per_check"] = (counts["engine.demands"] / checks, "count")
    if "predicates.satisfies" not in missing:
        out["predicates.satisfies_calls_per_check"] = (
            counts.get("predicates.satisfies", 0) / checks, "count")
    return out
