"""The load generators: a closed loop and an open (Poisson) loop.

Both drive anything with the service's calling surface —
``submit(technique, pairs) -> future`` (raising ``Overloaded`` when the
queue is full), ``pump(block_s) -> resolved`` and ``drain()`` — so the
unit tests run them against a fake. The generator is the service's own
single-threaded parent: there is no network front door, so a request is
*done* when this loop observes its future resolved.

Open loop: arrivals follow a schedule fixed by the seed, whatever the
service does. Latency runs from the instant a request was **due**, so a
stall is charged to every request that should have been sent during it,
and how late the generator itself ran is reported beside the latencies.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.serve.scheduler import Overloaded

Request = tuple[str, Sequence[tuple[int, int]]]

#: Longest the open loop waits in one ``pump``: a quarter of the
#: service's 2 ms batch window, so an aged batch is flushed on time.
MAX_BLOCK_S = 0.0005
#: How long after the last arrival the open loop waits for stragglers; a
#: request still pending then keeps a NaN latency and is counted failed.
GRACE_S = 30.0


def poisson_schedule(rate: float, seconds: float, seed: int) -> np.ndarray:
    """Due offsets (s) of ``round(rate * seconds)`` Poisson arrivals."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0 / rate, int(round(rate * seconds))))


@dataclass
class OpenLoopResult:
    """Everything one open-loop step observed, one entry per arrival."""

    due: np.ndarray
    #: Seconds after its due time that each arrival was handed to submit.
    late: np.ndarray
    #: Due-to-done seconds; NaN for an arrival refused or never done.
    latency: np.ndarray
    #: The future of each admitted arrival (None where refused).
    futures: list
    refused: int = 0
    #: Clock reading the due offsets count from, and the loop's length.
    start: float = 0.0
    seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.due)


def run_open_loop(
    service,
    requests: Sequence[Request],
    due: np.ndarray,
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
    tick: Callable[[float], None] | None = None,
) -> OpenLoopResult:
    """Send ``requests[i]`` at ``due[i]`` seconds from now; time each one.

    ``tick(elapsed_s)`` runs once per loop turn — the churn workload's
    updates live there, and whatever time it takes is a stall the
    requests due meanwhile are charged for.
    """
    n = len(due)
    late = np.zeros(n)
    latency = np.full(n, np.nan)
    futures: list = [None] * n
    pending: list[int] = []
    refused = 0
    sent = 0
    start = clock()
    while sent < n or pending:
        now = clock() - start
        if sent >= n and now - due[-1] > GRACE_S:
            break
        if tick is not None:
            tick(now)
            now = clock() - start
        while sent < n and due[sent] <= now:
            late[sent] = now - due[sent]
            try:
                futures[sent] = service.submit(*requests[sent])
                pending.append(sent)
            except Overloaded:
                refused += 1
            sent += 1
            now = clock() - start
        block = MAX_BLOCK_S if sent >= n else min(max(due[sent] - now, 0.0), MAX_BLOCK_S)
        before = clock()
        if service.pump(block):
            done_at = clock() - start
            still = []
            for i in pending:
                if futures[i].done:
                    latency[i] = done_at - due[i]
                else:
                    still.append(i)
            pending = still
        elif block > 0.0:
            # pump returns at once when nothing is in flight; do not spin
            # on a core the workers need.
            left = block - (clock() - before)
            if left > 0.0:
                sleep(left)
    return OpenLoopResult(
        due=np.asarray(due), late=late, latency=latency, futures=futures,
        refused=refused, start=start, seconds=clock() - start,
    )


def run_closed_loop(
    service,
    requests: Sequence[Request],
    *,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[list, float]:
    """Submit every request as fast as the queue admits; ``(futures, s)``.

    A full queue is not a failure here: the loop pumps until the request
    is admitted, which is what "as fast as the queue admits" means. The
    clock stops when the last answer has landed.
    """
    futures = []
    start = clock()
    for technique, pairs in requests:
        while True:
            try:
                futures.append(service.submit(technique, pairs))
                break
            except Overloaded:
                service.pump(MAX_BLOCK_S)
        service.pump(0.0)
    service.drain()
    return futures, clock() - start
