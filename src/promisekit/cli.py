"""Command-line entry points: run scripted scenarios, fuzz, serve."""

from __future__ import annotations

import argparse
import json
import logging
import sys
import threading

from .catalog import CatalogError
from .harness import ScenarioError, fuzz, run_script
from .service import ServiceConfig, ServiceError, serve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="promisekit",
                                     description="Promise-manager middleware harness")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario script (path or bundled name)")
    p_run.add_argument("script")
    p_run.add_argument("--catalog", help="override the script's catalog document")
    p_run.add_argument("--report", help="write the structured report here")

    p_fuzz = sub.add_parser("fuzz", help="randomized envelope streams with oracle checks")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--steps", type=int, default=60)
    p_fuzz.add_argument("--report", help="write the structured report here")

    p_serve = sub.add_parser("serve", help="start the promise manager endpoint")
    p_serve.add_argument("--config", help="config file (PROMISEKIT_CONFIG overrides)")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")

    try:
        if args.command == "run":
            report = run_script(args.script, catalog_override=args.catalog)
        elif args.command == "fuzz":
            report = fuzz(args.seed, n_steps=args.steps)
        else:
            return _serve_forever(args.config)
        doc = report.to_document()
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
    except (CatalogError, ScenarioError, ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _print_summary(doc)
    return 0 if report.ok else 1


def _print_summary(doc: dict) -> None:
    print(f"scenario: {doc['name']}  seed={doc['seed']}  clock={doc['clock']}")
    for name, value in sorted(doc["counters"].items()):
        print(f"  {name}: {value}")
    for inv in doc["invariants"]:
        mark = "ok " if inv["ok"] else "FAIL"
        detail = f"  ({inv['detail']})" if inv["detail"] else ""
        print(f"  [{mark}] {inv['name']}{detail}")
    if "counterexample" in doc:
        print("  minimized counterexample (a script `promisekit run` replays):")
        for step in doc["counterexample"]["clients"][0]["steps"]:
            print(f"    {json.dumps(step, sort_keys=True)}")
    print(f"digest: {doc['digest']}")
    print("RESULT:", "PASS" if doc["ok"] else "FAIL")


def _serve_forever(config_path) -> int:
    config = ServiceConfig.resolve(config_path)
    server = serve(config)
    host, port = server.address
    print(f"promise manager listening on {host}:{port}")
    stop = threading.Event()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0
