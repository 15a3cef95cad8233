"""Closed-loop load over TCP: one thread, two connections, one envelope in
flight on each, against the server process of `wire_server.py`."""

from __future__ import annotations

import json
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from inprocess import FRAME_HEADER, Round
from promisekit import ActionMsg, Envelope, decode, encode
from promisekit.protocol import recv_frame, send_frame
from script import Tally, active_in_dump, build_envelope, check_reply, end_checks

HERE = Path(__file__).resolve().parent


@dataclass
class WireRound(Round):
    wall_ns: int = 0
    server: dict = field(default_factory=dict)


@dataclass
class _Connection:
    sock: socket.socket
    steps: list
    tag: str
    ids: dict = field(default_factory=dict)
    next: int = 0
    sent_at: int = 0
    body_len: int = 0


class ServerProcess:
    """The server subprocess; a context manager that always reaps it."""

    def __init__(self, spans_path=None):
        cmd = [sys.executable, str(HERE / "wire_server.py")]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        self.maxrss_kb = None

    def call(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process ended with code {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            if exc[0] is None:
                self.proc.stdin.close()
                self.maxrss_kb = json.loads(self.proc.stdout.readline())["maxrss_kb"]
                self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        return False


def start_round(server: ServerProcess, spec, traced: bool):
    """Start a fresh manager and server; returns the open connections once
    the server has answered a no-op, and the catalog load time."""
    started = server.call(cmd="start", catalog=spec.catalog_document(), trace=traced)
    socks = []
    for _ in range(2):
        sock = socket.create_connection(("127.0.0.1", started["port"]))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        socks.append(sock)
    send_frame(socks[0], encode(Envelope(action=ActionMsg("no-op", None))))
    if decode(recv_frame(socks[0])).action is None:
        raise RuntimeError("the server did not answer its first no-op")
    return socks, started["load_ns"]


def run_round(server: ServerProcess, spec, scripts, traced: bool, prepared=None) -> WireRound:
    rnd = WireRound()
    socks, rnd.load_ns = prepared or start_round(server, spec, traced)
    tally = Tally()
    conns = [_Connection(sock, s.steps, tag) for sock, s, tag in zip(socks, scripts, "ab")]
    try:
        selector = selectors.DefaultSelector()
        t_start = time.perf_counter_ns()
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            _send_next(spec, conn)
        while selector.get_map():
            for key, _ in selector.select():
                conn = key.data
                raw = recv_frame(conn.sock)
                reply = decode(raw)
                elapsed = time.perf_counter_ns() - conn.sent_at
                step = conn.steps[conn.next]
                rnd.attempted += 1
                if not check_reply(step, reply, conn.ids, tally):
                    rnd.failed += 1
                (rnd.action_ns if step.kind == "action" else rnd.grant_ns).append(elapsed)
                rnd.frame_bytes += conn.body_len + len(raw) + 2 * FRAME_HEADER
                rnd.frames += 2
                conn.next += 1
                if conn.next < len(conn.steps):
                    _send_next(spec, conn)
                else:
                    selector.unregister(conn.sock)
        rnd.wall_ns = time.perf_counter_ns() - t_start
        selector.close()

        send_frame(conns[0].sock, encode(Envelope(action=ActionMsg("promise-table-dump", None))))
        dump = decode(recv_frame(conns[0].sock))
    finally:
        for conn in conns:
            conn.sock.close()
    rnd.server = server.call(cmd="stop")
    ids = {f"{c.tag}{h}": pid for c in conns for h, pid in c.ids.items()}
    expected = {conn.ids.get(h) for conn, s in zip(conns, scripts)
                for h in s.model.active_after(s.now)}
    rnd.problems = end_checks(spec, tally, rnd.server["quantities"], rnd.server["taken"],
                              active_in_dump(dump), expected, ids)
    rnd.table_records = len(dump.action.payload["promises"])
    return rnd


def _send_next(spec, conn: _Connection) -> None:
    conn.sent_at = time.perf_counter_ns()
    body = encode(build_envelope(spec, conn.steps[conn.next], conn.ids,
                                 f"{conn.tag}{conn.next}"))
    conn.body_len = len(body)
    send_frame(conn.sock, body)
