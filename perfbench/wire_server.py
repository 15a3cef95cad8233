"""The wire-mixed workload's server, run in a process of its own.

It builds the server from `PromiseManager`, `register_standard_handlers`
and `Server`, as the `serve` command would if it registered the standard
handlers. The load generator drives it through one JSON command a line on
standard input and reads one JSON answer a line from standard output:

  {"cmd": "start", "catalog": {...}, "trace": false}
      -> {"port": 40123, "load_ns": 812345}
  {"cmd": "stop"}
      -> {"quantities": {...}, "taken": 3, "durations": {...}, "counts": {...}}
  end of input
      -> {"maxrss_kb": 31240}, and the spans go to the file named by
         --spans, when given

Usage: python3 perfbench/wire_server.py [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from promisekit import LogicalClock, PromiseManager, Server, load_catalog  # noqa: E402
from promisekit.harness import register_standard_handlers  # noqa: E402
from script import taken_count  # noqa: E402
from spans import Tracer, install  # noqa: E402


def answer(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="write the spans of the traced rounds here")
    args = parser.parse_args()
    tracer = Tracer()
    server = manager = None
    first_span = 0
    pools: list = []
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["cmd"] == "start":
            if cmd["trace"]:
                install(tracer)
            t0 = time.perf_counter_ns()
            catalog = load_catalog(cmd["catalog"])
            load_ns = time.perf_counter_ns() - t0
            pools = [e["name"] for e in cmd["catalog"]["resource-types"] if "pool" in e]
            manager = PromiseManager(catalog, clock=LogicalClock())
            register_standard_handlers(manager)
            server = Server(manager)
            answer({"port": server.address[1], "load_ns": load_ns})
        elif cmd["cmd"] == "stop":
            server.stop()
            tracer.unpatch()
            answer({"quantities": {p: manager.catalog.quantity_on_hand(p) for p in pools},
                    "taken": taken_count(manager.catalog.dump_state()),
                    "durations": tracer.durations_us(first_span), "counts": tracer.counts,
                    "missing": sorted(tracer.missing)})
            first_span, tracer.counts = len(tracer.spans), {}
    if args.spans and tracer.spans:
        tracer.write(args.spans)
    answer({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
