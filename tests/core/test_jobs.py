"""The job runner behind batches, blocks and racers: order, failure
isolation, dead workers, cancellation, the shared bound, fallbacks."""

import os
import random
import threading
import time
from types import SimpleNamespace

import pytest

from repro.core import CancelToken, jobs
from repro.core.jobs import (EXECUTORS, NOT_STARTED, Done, JobRun,
                             check_executor, worker_count)
from repro.core.portfolio import BoundChannel


def echo(payload, ctx):
    """A job with a progress message, a tick, and a return value."""
    yield ("seen", payload)
    yield None
    return payload * 10


def flaky(payload, ctx):
    if payload == "raise":
        raise ValueError("bad payload")
    if payload == "die":
        os._exit(3)
    if payload == "unpicklable":
        yield lambda: None
    return payload


def spin(payload, ctx):
    """Say so, then run until cancelled (or five seconds pass)."""
    yield "spinning"
    give_up = time.monotonic() + 5.0
    while not ctx.cancel.cancelled and time.monotonic() < give_up:
        time.sleep(0.01)
        yield None
    return "stopped" if ctx.cancel.cancelled else "ran out"


def bound_job(payload, ctx):
    """Publish a bound, or wait until another job's bound shows up."""
    if payload == "publish":
        return ctx.bound.publish(3.0)
    give_up = time.monotonic() + 5.0
    while ctx.bound.cost >= 10.0 and time.monotonic() < give_up:
        time.sleep(0.01)
    return ctx.bound.cost


def publish_many(payload, ctx):
    """Race other workers to publish 2000 random costs."""
    rng = random.Random(payload)
    costs = [rng.uniform(0.0, 1000.0) for _ in range(2000)]
    for cost in costs:
        ctx.bound.publish(cost)
    return min(costs)


def memo_job(payload, ctx):
    return ctx.memo is not None


def ends(run):
    """Each job's ``(value, error)``, in submission order."""
    results = {}
    for index, message in run:
        if isinstance(message, Done):
            results[index] = (message.value, message.error)
    return [results[index] for index in sorted(results)]


class TestValidation:
    def test_executors(self):
        assert EXECUTORS == ("serial", "process")

    def test_thread_is_not_an_executor(self):
        with pytest.raises(ValueError,
                           match="executor must be one of 'serial', "
                                 "'process' \\(got 'thread'\\)"):
            check_executor("thread")

    def test_worker_count(self):
        assert worker_count(3, 8) == 3
        assert worker_count(8, 2) == 2
        assert worker_count(0, None) == 1
        assert worker_count(100) == (os.cpu_count() or 1)


@pytest.mark.parametrize("executor", EXECUTORS)
class TestRunner:
    def test_results_keep_submission_order(self, executor):
        run = JobRun(echo, [1, 2, 3, 4, 5], executor, max_workers=2)
        assert ends(run) == [(10, None), (20, None), (30, None),
                             (40, None), (50, None)]

    def test_messages_precede_their_done_and_ticks_stay_inside(self,
                                                              executor):
        with JobRun(echo, [1, 2], executor) as run:
            stream = list(run)
        for index in (0, 1):
            mine = [message for i, message in stream if i == index]
            assert mine == [("seen", index + 1),
                            Done((index + 1) * 10)]

    def test_raising_job_leaves_the_others_intact(self, executor):
        run = JobRun(flaky, [1, "raise", 3], executor, max_workers=2)
        assert ends(run) == [(1, None),
                             (None, "ValueError: bad payload"),
                             (3, None)]

    def test_cancel_before_start(self, executor):
        token = CancelToken()
        token.cancel()
        run = JobRun(echo, [1, 2], executor, cancel=token)
        assert ends(run) == [(None, NOT_STARTED)] * 2
        assert run.stopped == "cancelled"

    def test_cancel_mid_job(self, executor):
        token = CancelToken()
        timer = threading.Timer(0.3, token.cancel)
        start = time.monotonic()
        timer.start()
        try:
            run = JobRun(spin, [0, 1, 2], executor, max_workers=2,
                         cancel=token)
            results = ends(run)
        finally:
            timer.cancel()
        assert time.monotonic() - start < 3.0
        assert run.stopped == "cancelled"
        # Serial starts every generator job in its first round; two
        # process workers leave the third job queued.
        assert results[:2] == [("stopped", None)] * 2
        assert results[2] == {"serial": ("stopped", None),
                              "process": (None, NOT_STARTED)}[executor]

    def test_stop_from_the_consumer(self, executor):
        start = time.monotonic()
        with JobRun(spin, [0, 1], executor, max_workers=2) as run:
            results = {}
            for index, message in run:
                results[index] = message
                run.stop()
        assert time.monotonic() - start < 3.0
        assert run.stopped is None  # no cancel token, no deadline
        # The serial stop lands before the second job's first turn.
        assert results == {0: Done("stopped"), 1: {
            "serial": Done(error=NOT_STARTED),
            "process": Done("stopped")}[executor]}

    def test_deadline(self, executor):
        run = JobRun(spin, [0], executor,
                     deadline=time.perf_counter() + 0.2)
        assert ends(run) == [("stopped", None)]
        assert run.stopped == "timeout"

    def test_bound_published_by_one_job_reaches_the_others(self,
                                                           executor):
        channel = BoundChannel(10.0)
        run = JobRun(bound_job, ["publish", "read"], executor,
                     max_workers=2, bound=channel)
        assert ends(run) == [(True, None), (3.0, None)]
        assert channel.cost == 3.0

    def test_memo_reaches_the_jobs(self, executor):
        from repro.core.memo import MemoStore
        assert ends(JobRun(memo_job, [0], executor,
                           memo=MemoStore())) == [(True, None)]
        assert ends(JobRun(memo_job, [0], executor)) == [(False, None)]


class TestProcessFailures:
    def test_dead_worker_fails_only_its_job(self):
        run = JobRun(flaky, [1, "die", 3, 4], "process", max_workers=2)
        results = ends(run)
        assert results[0] == (1, None)
        assert results[2:] == [(3, None), (4, None)]
        assert results[1][0] is None and "died" in results[1][1]
        assert "exit code 3" in results[1][1]

    def test_unpicklable_message_fails_only_its_job(self):
        results = ends(JobRun(flaky, [1, "unpicklable"], "process"))
        assert results[0] == (1, None)
        assert results[1][0] is None and "pickle" in results[1][1]

    def test_concurrent_publishes_keep_the_minimum(self):
        # More workers than cores, all publishing at once: a lost
        # compare-and-set would leave a bound above the true minimum.
        workers = 2 * (os.cpu_count() or 1)
        channel = BoundChannel()
        start = time.monotonic()
        results = ends(JobRun(publish_many, list(range(workers)),
                              "process", max_workers=workers,
                              bound=channel))
        assert time.monotonic() - start < 30.0
        assert all(error is None for _, error in results)
        assert channel.cost == min(value for value, _ in results)

    def test_workers_are_reaped(self):
        import multiprocessing
        with JobRun(spin, [0, 1], "process", max_workers=2):
            assert len(multiprocessing.active_children()) == 2
        assert not multiprocessing.active_children()


class TestFallbacks:
    def test_pool_that_cannot_start_falls_back_to_serial(self,
                                                         monkeypatch):
        def no_pool(self, size):
            raise OSError("no semaphores here")

        monkeypatch.setattr(JobRun, "_start", no_pool)
        run = JobRun(echo, [1, 2], "process")
        assert run.executor == "serial"
        assert "no semaphores here" in run.note
        assert ends(run) == [(10, None), (20, None)]

    def test_daemonic_parent_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(jobs.multiprocessing, "current_process",
                            lambda: SimpleNamespace(daemon=True))
        run = JobRun(echo, [1], "process")
        assert run.executor == "serial"
        assert "daemonic" in run.note
        assert ends(run) == [(10, None)]
