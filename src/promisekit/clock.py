"""Logical time for the promise manager.

Durations and expiry instants are integer time units. The service takes
any object with a now() returning int; tests drive a LogicalClock, which
starts at 0, by hand, while a deployment's WallClock counts whole seconds
since it was made.
"""

from __future__ import annotations

import time


class LogicalClock:
    def __init__(self):
        self._now = 0

    def now(self) -> int:
        return self._now

    def advance(self, by: int = 1) -> int:
        if by < 0:
            raise ValueError("time does not run backwards")
        self._now += by
        return self._now


class WallClock:
    """Monotonic wall time in whole seconds."""

    def __init__(self):
        self._t0 = time.monotonic()

    def now(self) -> int:
        return int(time.monotonic() - self._t0)
