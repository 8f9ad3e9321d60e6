"""Host-speed probes: fixed work, timed beside the workload, that clasplab cannot move.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 1.8x in 10-30 s stretches, and CPU time swings with wall time, so a
run's raw latency mostly says which stretch it landed in.  A probe is a
fixed piece of work that does not touch clasplab, so no change to the
program under test can move it.  Timed right before and after each block
of operations, it gives the host's speed at that moment, and

    normalised seconds = raw seconds * probe.ref_ms / probe ms

reads an operation's time as it would be on a host where the probe takes
``ref_ms`` (about the quiet-host figure on a 2-vCPU Intel Xeon VM).

Two probes, because in-process compute and process start slow down by
different amounts on the same host:

* ``KERNEL`` -- a pure-Python loop over small tuples, frozensets, dict
  look-ups and sorting, the kind of work clasplab's scans do.  Across slow
  and quiet stretches a ``torus_obstruct`` verdict per kernel pass stayed
  within about +-10 % while the raw verdict time moved by 80 %.
* ``PROCESS`` -- starting ``python -c pass``, the interpreter floor of a CLI
  call or a fresh set-up.  A ``cli_cold`` call per interpreter start had a
  4-s-window spread of 3 % against 16 % raw (the kernel over-corrects it).
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

_ROUNDS = 6000


def kernel() -> int:
    """One pass of the compute kernel; returns a value so it is not idle."""
    seen = {}
    state = (0,)
    for i in range(_ROUNDS):
        state = tuple(sorted((state + (i % 13,))[-6:]))
        key = frozenset(state)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def start_interpreter() -> None:
    """Start and wait for an interpreter that does nothing."""
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)


@dataclass(frozen=True)
class Probe:
    """Fixed work and the quiet-host milliseconds it is scaled to."""

    work: Callable[[], object]
    ref_ms: float

    def ms(self) -> float:
        """Milliseconds of one pass of the work, now."""
        t0 = perf_counter()
        self.work()
        return (perf_counter() - t0) * 1000

    def scale(self, before_ms: float, after_ms: float) -> float:
        """Factor from raw to normalised seconds between two probes."""
        return 2 * self.ref_ms / (before_ms + after_ms)


KERNEL = Probe(kernel, ref_ms=5.0)
PROCESS = Probe(start_interpreter, ref_ms=45.0)
