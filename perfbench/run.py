"""promisekit benchmark: one workload per process, one JSON line of results.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload feasibility-rooms --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: feasibility-rooms, history-churn (both in process) and
wire-mixed (over TCP, against a server in a subprocess). `all` runs each
in a fresh process of its own. See perfbench/README.md.

For one workload, the last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are
the per-layer ones, from rounds run with wrappers around promisekit's
public functions, and the spans of those rounds are written to
perfbench/out/. Under `all`, each workload's object is printed after its
name, and the last line is one JSON object of them keyed by workload.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("feasibility-rooms", "history-churn", "wire-mixed")


def main() -> int:
    parser = argparse.ArgumentParser(description="promisekit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "promisekit" / "__init__.py").is_file():
        print(f"no promisekit sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import promisekit

    if not Path(promisekit.__file__).resolve().is_relative_to(SRC):
        print(f"promisekit was imported from {promisekit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    # the modules that drive the program are imported here, so that their
    # imports count in the set-up time
    if args.workload == "wire-mixed":
        import wire  # noqa: F401
        runner, generate = run_wire, workloads.wire_mixed
    else:
        import inprocess  # noqa: F401
        runner = run_inprocess
        generate = (workloads.history_churn if args.workload == "history-churn"
                    else workloads.feasibility_rooms)
    from probe import import_speed

    # CPU time since the process started, scaled before the inputs are
    # generated: the objects they leave make the import probe's collections slower
    imports_s = time.process_time() * import_speed()

    result = runner(generate(args.seed), f"{args.workload}-seed{args.seed}", imports_s,
                    args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        results[name] = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
    print(json.dumps(results))
    return code


# --- in process ---

def run_inprocess(workload, label: str, imports_s: float, seconds: float,
                  trace: bool) -> dict:
    """Warm-up round, then timed rounds until `seconds` have passed; with
    `trace`, untraced and traced rounds alternate.

    The set-up time is the process's one cold set-up, in CPU time, so
    that the time the process waits for a core is left out: `imports_s`,
    from the start of the process until promisekit and the benchmark were
    imported, plus the first round's set-up. Each of the two is scaled to
    the reference speed by the median of its own probe right after it (see
    probe.py). The time spent generating the inputs is left out."""
    import inprocess
    from probe import reference_speed
    from spans import Tracer, install

    setup_s = imports_s
    cpu_from = time.process_time()
    prepared = inprocess.prepare(workload)
    setup_s += (time.process_time() - cpu_from) * reference_speed()

    warm_up = inprocess.run_round(workload, prepared)
    tracer = Tracer()

    def one_round(with_trace: bool):
        if with_trace:
            install(tracer)
        try:
            return inprocess.run_round(workload)
        finally:
            tracer.unpatch()

    plain, traced = timed_rounds(one_round, seconds, trace)
    if trace:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{label}.jsonl")
        durations = tracer.durations_us()
        metrics = per_layer(durations, tracer.counts, tracer.missing, traced, plain,
                            durations.get("service.handle_bytes", []), lambda r: r.busy_ns)
    else:
        metrics = end_to_end(setup_s, plain, lambda r: r.busy_ns,
                             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result([warm_up] + plain + traced, metrics)


# --- over the wire ---

def run_wire(workload, label: str, imports_s: float, seconds: float, trace: bool) -> dict:
    """As run_inprocess, against a server process; every round starts a
    fresh manager and server in it. The set-up time is `imports_s` plus
    the wall time, not scaled, until the first server answered its first
    no-op."""
    import wire

    spec, scripts = workload
    spans_path = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{label}-server.jsonl"
    t_server = time.perf_counter()
    with wire.ServerProcess(spans_path) as server:
        prepared = wire.start_round(server, spec, traced=False)
        setup_s = imports_s + time.perf_counter() - t_server
        warm_up = wire.run_round(server, spec, scripts, False, prepared)
        plain, traced = timed_rounds(
            lambda with_trace: wire.run_round(server, spec, scripts, with_trace), seconds, trace)
    if trace:
        durations, counts, missing = {}, {}, set()
        for r in traced:
            for span, values in r.server["durations"].items():
                durations.setdefault(span, []).extend(values)
            for key, n in r.server["counts"].items():
                counts[key] = counts.get(key, 0) + n
            missing.update(r.server["missing"])
        metrics = per_layer(durations, counts, missing, traced, plain,
                            [ns / 1000 for r in traced for ns in r.grant_ns + r.action_ns],
                            lambda r: r.wall_ns)
    else:
        metrics = end_to_end(setup_s, plain, lambda r: r.wall_ns, server.maxrss_kb)
    return result([warm_up] + plain + traced, metrics)


def timed_rounds(run_one, seconds: float, trace: bool):
    """Whole rounds until `seconds` have passed; with `trace`, untraced and
    traced rounds alternate and at least one of each is run."""
    plain, traced = [], []
    timed_from = time.perf_counter()
    while True:
        with_trace = trace and len(traced) < len(plain)
        gc.collect()
        rnd = run_one(with_trace)
        rnd.summarise(keep_latencies=trace)
        (traced if with_trace else plain).append(rnd)
        if time.perf_counter() - timed_from >= seconds and (traced or not trace):
            return plain, traced


# --- metrics ---

def end_to_end(setup_s: float, rounds: list, elapsed_ns, maxrss_kb: int) -> dict:
    """Each timing is taken per round; the median round is reported."""
    def median_of(per_round):
        return statistics.median(per_round(r) for r in rounds)

    return {
        "setup_s": (setup_s, "s"),
        "envelopes_per_s": (1e9 / median_of(lambda r: elapsed_ns(r) / r.envelopes), "1/s"),
        "grant_p50_ms": (median_of(lambda r: r.grant_p50_ns / 1e6), "ms"),
        "action_p50_ms": (median_of(lambda r: r.action_p50_ns / 1e6), "ms"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
    }


def per_layer(durations: dict, counts: dict, missing, traced: list, plain: list,
              roundtrips_us: list, elapsed_ns) -> dict:
    """Per-layer metrics of the traced rounds; `roundtrips_us` are the
    client's round trips over the same envelopes as the handle spans."""
    from spans import layer_metrics

    envelopes = len(durations.get("service.handle", ())) or sum(r.attempted for r in traced)
    metrics = layer_metrics(durations, counts, missing, envelopes)
    metrics["catalog.load_ms"] = (statistics.median(r.load_ns for r in traced) / 1e6, "ms")
    metrics["engine.table_records"] = (traced[-1].table_records, "count")
    metrics["protocol.frame_bytes"] = (sum(r.frame_bytes for r in traced)
                                       / sum(r.frames for r in traced), "bytes")
    if "service.handle_us" in metrics and roundtrips_us:
        metrics["service.outside_handle_us"] = (
            statistics.median(roundtrips_us) - metrics["service.handle_us"][0], "us")
    tail = sorted(ns for r in plain for ns in r.grant_ns + r.action_ns)
    metrics["service.roundtrip_p99_ms"] = (statistics.quantiles(tail, n=100)[98] / 1e6, "ms")
    metrics["trace.overhead_ratio"] = (statistics.median(map(elapsed_ns, traced))
                                       / statistics.median(map(elapsed_ns, plain)), "ratio")
    for name in sorted(missing):
        print(f"absent: spans or counts named {name}: the function is gone", file=sys.stderr)
    return metrics


def result(rounds: list, metrics: dict) -> dict:
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:10]:
        print(f"end-of-round check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
