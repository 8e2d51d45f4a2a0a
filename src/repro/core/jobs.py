"""One job runner for every fan-out in the package.

The paper's BREL recursion is sequential; all parallelism sits around
it, as independent jobs plus a shared incumbent bound: the batches of
``Session.solve_many``, the output blocks of one sharded solve, and the
racers of a portfolio.  :class:`JobRun` runs such jobs on one of
:data:`EXECUTORS` and streams ``(job index, message)`` pairs back:

``"serial"``
    round-robin over the jobs on the caller's thread.  A job that
    yields nothing (a batch job) runs to completion before the next one
    starts; a job that yields once per solver event (a racer)
    interleaves deterministically with the others.  Nothing is pickled,
    so payloads may hold live relations.
``"process"``
    worker processes, each seeded once at start with the memo export,
    the shared bound (a shared-memory double) and the shared cancel
    flag, and fed jobs over its own pipe.  Payloads and messages must
    pickle.  When no worker can start (``OSError``, or a daemonic
    parent) the run falls back to serial and says why in
    :attr:`JobRun.note`.

A job is ``job(payload, ctx)``, a generator or a plain function, where
``ctx`` is a :class:`JobContext`.  A ``None`` message is a progress
tick: it hands the serial executor's turn to the next job and never
reaches the caller.  Every job ends with exactly one :class:`Done`: its
return value, or the error that ended it (an exception, a dead worker
process, or :data:`NOT_STARTED`).  One job's failure never touches the
others.
"""

from __future__ import annotations

import collections
import inspect
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from .memo import MemoStore

#: Valid executor names, for every fan-out option in the package.
EXECUTORS: Tuple[str, ...] = ("serial", "process")

#: Widest relation (in inputs) a caller snapshots to PLA text for a
#: worker process.  The snapshot enumerates all 2^inputs input
#: vertices, so past this point the process path would seem to hang.
MAX_SNAPSHOT_INPUTS = 16

#: Most-recent memo entries shipped to each worker process; keeps the
#: seed bounded no matter how full the parent store is.
MEMO_EXPORT_LIMIT = 2048

#: The error of a job that was cancelled before it started.
NOT_STARTED = "cancelled before start"

#: Seconds between the process executor's checks for a cancel, the
#: deadline and dead workers.
_POLL_SECONDS = 0.05

#: Seconds a closing run waits for each terminated worker to exit.
_SHUTDOWN_GRACE = 5.0

Job = Callable[[Any, "JobContext"], Any]


def check_executor(executor: Any, what: str = "executor") -> str:
    """``executor`` if valid, else a ``ValueError`` naming the options."""
    if executor not in EXECUTORS:
        raise ValueError("%s must be one of %s (got %r)"
                         % (what, ", ".join(map(repr, EXECUTORS)),
                            executor))
    return executor


def worker_count(jobs: int, requested: Optional[int] = None) -> int:
    """Workers for ``jobs`` jobs: ``requested`` (default: the CPU
    count), capped at the number of jobs, and at least one."""
    if requested is None:
        requested = os.cpu_count() or 1
    return max(1, min(requested, jobs))


@dataclass
class Done:
    """A job's last message: its return value, or why it failed."""

    value: Any = None
    error: Optional[str] = None


@dataclass
class JobContext:
    """What a job gets besides its payload.

    ``bound`` is the shared incumbent (``.cost`` and ``.publish(cost)``;
    ``None`` when the run has none), ``cancel`` the run's cancel flag
    (``.cancelled``), and ``memo`` the executor's memo store: the
    caller's own store on serial, a worker-wide seeded copy in a
    process.
    """

    bound: Any = None
    cancel: Any = None
    memo: Optional[MemoStore] = None


class SharedBound:
    """A :class:`~repro.core.portfolio.BoundChannel` over a shared
    ``multiprocessing.Value`` (what a job sees in a worker process)."""

    __slots__ = ("_value",)

    def __init__(self, value: Any) -> None:
        self._value = value

    @property
    def cost(self) -> float:
        return self._value.value

    def publish(self, cost: float) -> bool:
        with self._value.get_lock():
            if cost < self._value.value:
                self._value.value = cost
                return True
            return False


class SharedFlag:
    """A read-only cancel flag over a shared ``multiprocessing.Value``."""

    __slots__ = ("_value",)

    def __init__(self, value: Any) -> None:
        self._value = value

    @property
    def cancelled(self) -> bool:
        return self._value.value != 0


def _steps(job: Job, payload: Any, ctx: JobContext) -> Iterator[Any]:
    """Drive one job: its messages, then its :class:`Done`."""
    try:
        body = job(payload, ctx)
        value = (yield from body) if inspect.isgenerator(body) else body
    except Exception as exc:  # noqa: BLE001 — job isolation
        yield Done(error="%s: %s" % (type(exc).__name__, exc))
    else:
        yield Done(value)


def _worker_main(conn: Any, job: Job, bound: Any, cancel: Any,
                 memo_entries: Optional[list],
                 memo_capacity: Optional[int]) -> None:
    """A worker process: run the payloads sent down ``conn``, sending
    back every message, until the run terminates it.  The context is
    built once, so the jobs of one worker share its seeded memo store."""
    ctx = JobContext(
        SharedBound(bound) if bound is not None else None,
        SharedFlag(cancel),
        MemoStore(capacity=memo_capacity, entries=memo_entries)
        if memo_entries is not None else None)
    while True:
        payload = conn.recv()
        steps = _steps(job, payload, ctx)
        for message in steps:
            if message is None:
                continue
            try:
                conn.send(message)
            except Exception as exc:  # noqa: BLE001 — unpicklable
                steps.close()
                conn.send(Done(error="%s: %s"
                               % (type(exc).__name__, exc)))
                break


class _Worker:
    """A worker process, its pipe, and the job it is running."""

    __slots__ = ("process", "conn", "index")

    def __init__(self, spawned: Tuple[Any, Any]) -> None:
        self.process, self.conn = spawned
        self.index: Optional[int] = None

    def died(self) -> Done:
        """The failure of the job this worker was running."""
        self.process.join(1.0)
        return Done(error="worker died without reporting (exit code %s)"
                    % self.process.exitcode)


class JobRun:
    """One run of ``job`` over ``payloads``; iterate it for
    ``(job index, message)`` pairs, each job ending with a :class:`Done`.

    ``cancel`` (the caller's token) and ``deadline`` (a
    ``time.perf_counter()`` value) stop the run: jobs in flight see the
    cancel flag and stop cooperatively, jobs not yet started end with
    :data:`NOT_STARTED`, and :attr:`stopped` records ``"cancelled"`` or
    ``"timeout"``.  :meth:`stop` does the same without a reason.
    ``bound`` is a :class:`~repro.core.portfolio.BoundChannel` shared
    by the jobs (a process run mirrors the workers' bound back into
    it); ``memo`` is the store serial jobs use and worker processes are
    seeded from.  ``max_workers`` caps the process pool (default: one
    worker per job, capped at the CPU count).

    Workers start here, so :attr:`executor` and :attr:`note` are final
    before the first message.  Use the run as a context manager, or
    exhaust it, so its workers are always shut down.
    """

    def __init__(self, job: Job, payloads: Sequence[Any],
                 executor: str = "serial", *,
                 max_workers: Optional[int] = None,
                 cancel: Any = None, deadline: Optional[float] = None,
                 bound: Any = None, memo: Optional[MemoStore] = None
                 ) -> None:
        self.executor = check_executor(executor)
        self.note: Optional[str] = None
        self.stopped: Optional[str] = None
        self._job = job
        self._payloads = list(payloads)
        self._cancel = cancel
        self._deadline = deadline
        self._bound = bound
        self._memo = memo
        self._tripped = False
        self._workers: List[_Worker] = []
        self._poll()
        if executor != "process" or not self._payloads or self._tripped:
            return
        if multiprocessing.current_process().daemon:
            self._fall_back("daemonic processes cannot start workers")
            return
        try:
            self._start(worker_count(len(self._payloads), max_workers))
        except OSError as exc:  # no working fork/semaphore layer
            self.close()
            self._fall_back("no process pool (%s)" % exc)

    def _fall_back(self, why: str) -> None:
        self.executor = "serial"
        self.note = "serial fallback: %s" % why

    # -- the worker processes -------------------------------------------
    def _start(self, size: int) -> None:
        self._mp = multiprocessing.get_context()
        bound, memo = self._bound, self._memo
        self._shared_bound = (self._mp.Value("d", bound.cost)
                              if bound is not None else None)
        self._shared_cancel = self._mp.Value("i", 0, lock=False)
        self._seed = (self._job, self._shared_bound, self._shared_cancel,
                      memo.export_entries(limit=MEMO_EXPORT_LIMIT)
                      if memo is not None else None,
                      memo.capacity if memo is not None else None)
        for _ in range(size):
            self._workers.append(_Worker(self._spawn()))

    def _spawn(self) -> Tuple[Any, Any]:
        """Start one seeded worker: its process and our end of its pipe."""
        parent_end, child_end = self._mp.Pipe()
        process = self._mp.Process(target=_worker_main,
                                   args=(child_end,) + self._seed,
                                   name="repro-job-worker", daemon=True)
        try:
            process.start()
        finally:
            child_end.close()
        return process, parent_end

    def close(self) -> None:
        """Stop the workers (idempotent).  A worker holds nothing but
        its own memory, and once a run is exhausted every result is in,
        so workers are terminated rather than drained; a run abandoned
        mid-job leaves no orphan burning CPU."""
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.process.terminate()
        for worker in workers:
            worker.process.join(_SHUTDOWN_GRACE)
            worker.conn.close()

    def __enter__(self) -> "JobRun":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- stopping ------------------------------------------------------
    @property
    def cancelled(self) -> bool:
        """The serial jobs' cancel flag: the run was stopped, or the
        caller's token fired (read live, so an in-flight serial job
        stops at its next check)."""
        return self._tripped or (self._cancel is not None
                                 and self._cancel.cancelled)

    def stop(self) -> None:
        """Cancel every job: in-flight ones stop cooperatively, the
        rest end with :data:`NOT_STARTED`."""
        self._tripped = True
        if self._workers:
            self._shared_cancel.value = 1

    def _poll(self) -> None:
        if self.stopped is not None:
            return
        if self._cancel is not None and self._cancel.cancelled:
            self.stopped = "cancelled"
        elif (self._deadline is not None
                and time.perf_counter() > self._deadline):
            self.stopped = "timeout"
        else:
            return
        self.stop()

    # -- running -------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[int, Any]]:
        try:
            if self._workers:
                yield from self._pooled()
            else:
                yield from self._serial()
        finally:
            self.close()

    def _serial(self) -> Iterator[Tuple[int, Any]]:
        ctx = JobContext(self._bound, self, self._memo)
        steps = [_steps(self._job, payload, ctx)
                 for payload in self._payloads]
        started = [False] * len(steps)
        active = list(range(len(steps)))
        while active:
            for index in list(active):
                self._poll()
                if started[index] or not self._tripped:
                    started[index] = True
                    message = next(steps[index])
                else:
                    message = Done(error=NOT_STARTED)
                if message is None:
                    continue
                if isinstance(message, Done):
                    active.remove(index)
                yield index, message

    def _pooled(self) -> Iterator[Tuple[int, Any]]:
        pending = collections.deque(range(len(self._payloads)))

        def assign(worker: _Worker) -> None:
            worker.index = pending.popleft()
            worker.conn.send(self._payloads[worker.index])

        for worker in self._workers:
            if pending:
                assign(worker)
        left = len(self._payloads)
        while left:
            self._poll()
            if self._tripped:
                while pending:
                    left -= 1
                    yield pending.popleft(), Done(error=NOT_STARTED)
            busy = [w for w in self._workers if w.index is not None]
            if not busy:
                continue
            ready = wait([w.conn for w in busy]
                         + [w.process.sentinel for w in busy],
                         _POLL_SECONDS)
            for worker in busy:
                try:
                    message = (worker.conn.recv() if worker.conn.poll()
                               else None)
                except (EOFError, OSError):  # its end of the pipe closed
                    message = worker.died()
                if message is None:
                    if worker.process.sentinel not in ready:
                        continue
                    # Dead, and everything it sent has been read.
                    message = worker.died()
                index = worker.index
                if isinstance(message, Done):
                    left -= 1
                    worker.index = None
                    if pending and not self._tripped:
                        if not worker.process.is_alive():
                            worker.conn.close()
                            worker.process, worker.conn = self._spawn()
                        assign(worker)
                if self._shared_bound is not None:
                    self._bound.publish(self._shared_bound.value)
                yield index, message
