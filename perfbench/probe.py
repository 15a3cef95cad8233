"""Fixed pieces of Python, timed during a run to track the machine's speed.

The machine the benchmark was built on is shared with other tenants. Its
speed swings by up to 2x for seconds to minutes at a time, with no sign
of it in the steal time. Two kinds of work slow down by different
amounts: an interpreted loop by up to 2x, module imports by about 1.5x.
So there are two probes, each matched to what it scales:

- `probe_us`, an interpreted loop. The in-process workloads divide each
  envelope's time by the time of the loop run just before it, and the
  first round's set-up time by the loop's median right after it.
- `import_probe_us`, which unmarshals and runs the body of a small fixed
  module, as an import does. The imports' share of the set-up time is
  divided by its median right after them.

Both report what the work would have taken at the reference speed.
"""

from __future__ import annotations

import marshal
import statistics
import time

# The probes' times in the undisturbed phases of the machine the reference
# figures in README.md were taken on.
REFERENCE_US = 160.0
IMPORT_REFERENCE_US = 1300.0

_MODULE = marshal.dumps(compile('''
import enum
from dataclasses import dataclass, field

class Kind(enum.Enum):
    A = 1
    B = 2
    C = 3

@dataclass(frozen=True)
class Key:
    a: int
    b: str = ""
    c: tuple = ()

@dataclass
class Row:
    x: list = field(default_factory=list)
    y: dict = field(default_factory=dict)
    z: int = 0

def add(a, b):
    return a + b

def repeat(a, *, k=1):
    return [a] * k

TABLE = {str(i): (i, i * i) for i in range(200)}
''', "<import probe>", "exec", dont_inherit=True))


def reference_speed(samples: int = 25) -> float:
    """Factor that scales interpreted work just timed to the reference speed."""
    return REFERENCE_US / statistics.median(probe_us() for _ in range(samples))


def import_speed(samples: int = 25) -> float:
    """Factor that scales imports just timed to the reference speed."""
    return IMPORT_REFERENCE_US / statistics.median(import_probe_us() for _ in range(samples))


def probe_us() -> float:
    t0 = time.perf_counter_ns()
    counts: dict = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return (time.perf_counter_ns() - t0) / 1000


def import_probe_us() -> float:
    t0 = time.perf_counter_ns()
    exec(marshal.loads(_MODULE), {"__name__": "import_probe"})
    return (time.perf_counter_ns() - t0) / 1000
