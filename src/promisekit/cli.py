"""Command-line entry points: run scripted scenarios, fuzz, serve."""

from __future__ import annotations

import argparse
import json
import logging
import sys
import threading

from .catalog import CatalogError
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

    if args.command == "serve":
        return _serve_forever(args.config)
    # only a run or a fuzz loads the driver, and through it the oracle
    from .driver import ScenarioError, fuzz, run_script

    try:
        if args.command == "run":
            report = run_script(args.script, catalog_override=args.catalog)
        else:
            if args.steps < 1:
                raise ScenarioError(f"--steps must be at least 1, not {args.steps}")
            report = fuzz(args.seed, n_steps=args.steps)
        doc = report.to_document()
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
    except (CatalogError, ScenarioError, ServiceError, OSError) as exc:
        return _error(exc)

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


def _error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _serve_forever(config_path) -> int:
    try:
        server = serve(ServiceConfig.resolve(config_path))
    except (CatalogError, ServiceError, OSError) as exc:
        return _error(exc)
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
