"""Turn-taking between the program's process and the reference's.

A measured run makes the same ops in two processes, one on the program and
one on the frozen reference copy, and compares their times.  The host's speed
wanders from one second to the next, so the two must alternate often: each
runs for about QUANTUM_S of work, then hands over.  A hand-over happens only
at a turn point: the start of an op, or a call of one of the edschar names a
workload lists (wrapped the way tracing.py wraps them).  The time a process
spends waiting for its turn is kept in ``waited`` so that op timers can leave
it out.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

from tracing import patch, unpatch

QUANTUM_S = 0.02


class Turns:
    def __init__(self, exchange=None, quantum_s: float = QUANTUM_S, clock=time.perf_counter):
        # exchange() blocks until it is this process's turn again; without
        # one the process never waits
        self.exchange = exchange
        self.quantum_s = quantum_s
        self.clock = clock
        self.waited = 0.0
        self.handovers = 0
        self.pid = os.getpid()
        self.last = clock()
        # durations of the calls of each wrapped name, waits excluded
        self.calls: dict[str, list[float]] = {}

    def point(self) -> None:
        """Hand over if this process has had its quantum.  Pool workers forked
        from this process never do: they share its standard streams."""
        if self.exchange is None:
            return
        now = self.clock()
        if now - self.last < self.quantum_s or os.getpid() != self.pid:
            return
        self.exchange()
        self.last = self.clock()
        self.waited += self.last - now
        self.handovers += 1

    def wrap(self, name: str, fn):
        durations = self.calls.setdefault(name, [])
        turns = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            turns.point()
            t0 = turns.clock()
            w0 = turns.waited
            result = fn(*args, **kwargs)
            durations.append(turns.clock() - t0 - (turns.waited - w0))
            return result

        return wrapper

    @contextmanager
    def at(self, names):
        """Turn points at every call of the named TARGETS while inside."""
        patches = patch(set(names), self.wrap)
        try:
            yield self
        finally:
            unpatch(patches)
