"""In-process stand-ins for the executor's process pool.

:func:`simulated_pool` runs the exact worker code -- initializer-cloned
state, several tasks per worker, nested maps inline, results in task
order -- minus the process spawn, so parallel/serial identity can be
property-tested quickly and on any host.  :func:`on_cpus` pins the
usable-CPU count the executor sizes its pools from.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

from repro import parallel


class SimulatedPool:
    """In-process ``ProcessPoolExecutor`` stand-in: one initializer-built
    state per simulated worker, tasks dealt round-robin, so one worker
    sees several chunks exactly like a real pool worker would."""

    def __init__(self, max_workers, initializer, initargs):
        saved = parallel._STATE, parallel._IN_MAP
        self.states = []
        for _ in range(max_workers):
            initializer(*initargs)
            self.states.append(parallel.worker_state())
        parallel._STATE, parallel._IN_MAP = saved

    def map(self, fn, tasks):
        saved = parallel._STATE, parallel._IN_MAP
        results = []
        try:
            for i, task in enumerate(tasks):
                # A task runs as in a worker: maps it starts run inline.
                parallel._STATE = self.states[i % len(self.states)]
                parallel._IN_MAP = True
                results.append(fn(task))
        finally:
            parallel._STATE, parallel._IN_MAP = saved
        return iter(results)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


def count_real_pools(monkeypatch) -> list[int]:
    """Record the worker count of every real pool the executor builds
    in this process (pools started inside pool workers are not seen)."""
    built: list[int] = []

    class Counting(ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Counting)
    return built


@contextlib.contextmanager
def on_cpus(n: int):
    """The executor sees *n* usable CPUs: real pools when ``n > 1``.

    The one way tests pin the CPU count, on any host: a ``with`` block,
    or a decorator pinning a whole test."""
    with mock.patch.object(parallel, "usable_cpus", lambda: n):
        yield


@contextlib.contextmanager
def simulated_pool(n_cpus: int = 64):
    """Run the executor's pools in-process on *n_cpus* usable CPUs."""
    with mock.patch.object(parallel, "ProcessPoolExecutor", SimulatedPool):
        with on_cpus(n_cpus):
            yield


def executor(n_cpus: int):
    """The parity matrix's executor for *n_cpus*: inline at 1, a real
    process pool at 2, a simulated pool beyond (real pools of 3 or 7
    would oversubscribe small hosts)."""
    return on_cpus(n_cpus) if n_cpus <= 2 else simulated_pool(n_cpus)


#: CPU counts every parity test compares: 1 (inline) is the reference.
PARITY_CPUS = (1, 2, 3, 7)
