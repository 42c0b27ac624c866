"""An in-process stand-in for the executor's process pool.

:func:`simulated_pool` runs the exact worker code -- initializer-cloned
state, several tasks per worker, results in task order -- minus the
process spawn, so parallel/serial identity can be property-tested
quickly and on any host.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from repro import parallel


class SimulatedPool:
    """In-process ``ProcessPoolExecutor`` stand-in: one initializer-built
    state per simulated worker, tasks dealt round-robin, so one worker
    sees several chunks exactly like a real pool worker would."""

    def __init__(self, max_workers, initializer, initargs):
        self.states = []
        for _ in range(max_workers):
            initializer(*initargs)
            self.states.append(parallel.worker_state())
        parallel._STATE = None

    def map(self, fn, tasks):
        results = []
        for i, task in enumerate(tasks):
            parallel._STATE = self.states[i % len(self.states)]
            results.append(fn(task))
        parallel._STATE = None
        return iter(results)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


@contextlib.contextmanager
def simulated_pool():
    """Run the executor's pool in-process, any worker count honoured."""
    with mock.patch.object(parallel, "ProcessPoolExecutor", SimulatedPool):
        with mock.patch.object(parallel, "usable_cpus", lambda: 64):
            yield
