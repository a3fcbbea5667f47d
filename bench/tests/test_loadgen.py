"""The load generators against a fake service on a fake clock."""

import numpy as np
import pytest

from bench.loadgen import (
    MAX_BLOCK_S,
    poisson_schedule,
    run_closed_loop,
    run_open_loop,
)
from repro.serve.scheduler import Overloaded


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0  # not zero: offsets must be taken from the start

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        # like a real sleep, never shorter than the timer's resolution
        # (and at 100 s a step below 1e-14 would not move a float at all)
        self.now += max(seconds, 1e-5)


class FakeFuture:
    def __init__(self, ready_at: float) -> None:
        self.ready_at = ready_at
        self.done = False
        self.times_resolved = 0


class FakeService:
    """One server, ``service_s`` per request, at most ``max_queue`` waiting.

    ``stall`` = (at, seconds): the first pump at or after clock time
    ``at`` does not return for ``seconds`` (an epoch swap, a GC pause).
    """

    def __init__(self, clock, service_s=0.001, max_queue=10**9, stall=None):
        self.clock, self.service_s, self.max_queue = clock, service_s, max_queue
        self.stall = stall
        self.free_at = 0.0
        self.waiting: list[FakeFuture] = []
        self.submitted = 0

    def submit(self, technique, pairs):
        if len(self.waiting) >= self.max_queue:
            raise Overloaded("queue full")
        self.submitted += 1
        self.free_at = max(self.free_at, self.clock()) + self.service_s
        fut = FakeFuture(self.free_at)
        self.waiting.append(fut)
        return fut

    def pump(self, block_s=0.0):
        if self.stall and self.clock() >= self.stall[0]:
            self.clock.sleep(self.stall[1])
            self.stall = None
        resolved = 0
        for fut in self.waiting:
            if fut.ready_at <= self.clock():
                fut.done = True
                fut.times_resolved += 1
                resolved += 1
        self.waiting = [f for f in self.waiting if not f.done]
        return resolved

    def drain(self):
        if self.waiting:
            self.clock.now = max(self.clock(), max(f.ready_at for f in self.waiting))
            self.pump()


def requests(n):
    return [("labels", [(i, i + 1)]) for i in range(n)]


def open_loop(service, due, clock, **kw):
    return run_open_loop(
        service, requests(len(due)), due, clock=clock, sleep=clock.sleep, **kw
    )


def test_same_seed_same_schedule():
    a = poisson_schedule(2000, 3.0, seed=7)
    assert np.array_equal(a, poisson_schedule(2000, 3.0, seed=7))
    assert not np.array_equal(a, poisson_schedule(2000, 3.0, seed=8))
    assert len(a) == 6000 and np.all(np.diff(a) > 0)
    assert np.mean(np.diff(a)) == pytest.approx(1 / 2000, rel=0.05)


def test_unloaded_service_latency_is_its_service_time():
    clock = FakeClock()
    due = np.arange(1, 201) * 0.01
    result = open_loop(FakeService(clock, service_s=0.001), due, clock)
    assert result.refused == 0 and not np.isnan(result.latency).any()
    # observed on the first pump after completion: service time + <= one block
    assert result.latency.min() >= 0.001
    assert result.latency.max() <= 0.001 + 2 * MAX_BLOCK_S
    assert result.late.max() <= MAX_BLOCK_S


def test_a_stall_is_charged_to_the_requests_due_during_it():
    clock = FakeClock()
    due = np.arange(1, 201) * 0.01                      # 10 ms apart, 2 s
    stalled = FakeService(clock, service_s=0.001, stall=(clock.now + 0.5, 0.3))
    result = open_loop(stalled, due, clock)
    during = (due > 0.5 + MAX_BLOCK_S) & (due < 0.8)
    # each is sent when the stall ends: it waited from its due time until then
    assert np.allclose(result.late[during], 0.8 - due[during], atol=2 * MAX_BLOCK_S)
    assert np.all(result.latency[during] >= result.late[during])
    assert result.latency[during].max() > 0.28
    # and the cost is in the latency, not hidden by the late start
    assert result.latency[~during & (due > 0.9)].max() <= 0.001 + 2 * MAX_BLOCK_S
    assert np.percentile(result.late, 99) > 0.25, "lateness is reported"


def test_overloaded_is_attempted_and_missed_nothing_lost_or_doubled():
    clock = FakeClock()
    due = np.arange(1, 1001) * 0.0005                   # 2000/s offered
    service = FakeService(clock, service_s=0.001, max_queue=20)   # 1000/s served
    result = open_loop(service, due, clock)
    assert result.attempted == 1000
    assert result.refused > 300
    admitted = [f for f in result.futures if f is not None]
    assert len(admitted) + result.refused == 1000 == service.submitted + result.refused
    assert np.count_nonzero(~np.isnan(result.latency)) == len(admitted)
    assert np.isnan(result.latency[[f is None for f in result.futures]]).all()
    assert all(f.done and f.times_resolved == 1 for f in admitted)


def test_tick_runs_in_the_loop_and_its_time_is_a_stall():
    clock = FakeClock()
    due = np.arange(1, 101) * 0.01
    fired = []

    def tick(elapsed):
        if elapsed >= 0.5 and not fired:
            fired.append(elapsed)
            clock.sleep(0.2)                            # an update that takes 200 ms

    result = open_loop(FakeService(clock), due, clock, tick=tick)
    assert len(fired) == 1
    assert result.latency[(due > 0.51) & (due < 0.6)].min() > 0.1


def test_closed_loop_waits_out_a_full_queue():
    clock = FakeClock()

    class Slow(FakeService):
        def pump(self, block_s=0.0):
            self.clock.sleep(max(block_s, 1e-4))        # time only moves in pump
            return super().pump(block_s)

    service = Slow(clock, service_s=0.001, max_queue=5)
    futures, seconds = run_closed_loop(service, requests(50), clock=clock)
    assert len(futures) == 50 == service.submitted
    assert all(f.done and f.times_resolved == 1 for f in futures)
    assert seconds == pytest.approx(50 * 0.001, rel=0.2)
