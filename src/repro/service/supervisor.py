"""A parent-supervised worker pool, shared by concurrent batches.

``multiprocessing.Pool`` has no equivalent of ``BrokenProcessPool``: when a
spawn worker is OOM-killed or segfaults mid-job, ``imap_unordered`` simply
never yields that job and the parent hangs forever.  The engine's own
deadline cannot help — a dead process checks nothing.  This module replaces
the pool with explicit supervision:

* **persistent workers** — ``processes`` long-lived spawn workers serve every
  batch submitted to the pool, so the spawn cost (a fresh interpreter
  importing the engine) is paid once per pool, not once per batch;
* **parent-side dispatch** — the parent hands each task to one idle worker
  over that worker's private duplex pipe, so it always knows which task a
  worker holds.  The worker reports ``started`` before and ``done`` after
  the task.  A worker death shows up as EOF on its pipe (or a failed
  liveness check) and is surfaced as a structured ``crashed`` event for
  exactly the task it held, never as a hang.  A worker lost before it
  reported ``started`` never ran its task, which is handed to the next
  worker unchanged;
* **parent-side deadlines** — a task with a timeout gets a parent-side
  deadline of ``timeout + grace``: the engine stops at its own deadline
  first in the healthy case, and the parent kills the worker outright when
  the engine could not (wedged C loop, blocked syscall, suspended process)
  and emits a ``deadline`` event;
* **per-batch routing** — each submitter opens a :class:`PoolBatch`.  Tasks
  are keyed by batch, index and attempt, and every event goes to the batch
  that submitted the task, so concurrent batches (the HTTP server's executor
  threads) share the workers without seeing each other's events.  When a
  batch ends, or its consumer stops early, its bookkeeping is dropped: its
  queued tasks are withdrawn, and the results of its tasks still running
  are discarded when they arrive;
* **respawn on demand** — a lost worker is replaced as soon as a task waits
  for one, so one poisonous job cannot shrink the pool.  Each loss is
  charged to the batch whose task the worker held: that batch's
  ``respawns`` count and its respawn budget (the crash-loop safety valve),
  never another batch's.

Supervision runs in the consumers' threads: whichever consumer is waiting
for an event polls the worker pipes for every batch, one consumer at a
time, so an idle pool runs no thread of its own.

The pool is policy-free: it reports ``done``/``crashed``/``deadline``
events and accepts resubmissions (:meth:`PoolBatch.submit_later`), and the
:class:`~repro.service.runner.BatchRunner` decides what to retry.
"""

from __future__ import annotations

import heapq
import itertools
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Deque, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro import telemetry

_log = telemetry.get_logger("supervisor")

#: How long one supervision tick waits for worker messages.
POLL_SECONDS = 0.05


class WorkerPoolError(RuntimeError):
    """A batch lost more workers than its respawn budget allows, or the pool closed."""


@dataclass
class PoolEvent:
    """One supervision outcome for a submitted task."""

    kind: str  # "done" | "crashed" | "deadline"
    index: int
    attempt: int
    result: Any = None
    exitcode: Optional[int] = None
    elapsed_seconds: float = 0.0


class _Task(NamedTuple):
    batch: int
    index: int
    attempt: int
    payload: Any
    timeout: Optional[float]


def _worker_main(conn: Any, entry: Callable[[Any, int], Any]) -> None:
    """Worker process loop: receive, announce, execute, report, repeat.

    ``started`` is sent *before* ``entry`` runs so the parent can tell a
    task that never ran from one that died mid-run.  ``entry`` is expected
    to capture its own exceptions into its result value; anything that
    still escapes (e.g. an unpicklable result) kills this worker and is
    handled by the parent's crash path.  The worker exits when the parent
    closes its end of the pipe or terminates it.
    """
    # The parent owns shutdown.  A terminal's Ctrl-C reaches the whole
    # process group; it must not kill idle workers, each with a traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            payload, attempt = conn.recv()
        except EOFError:
            return
        conn.send(("started",))
        conn.send(("done", entry(payload, attempt)))


class _Slot:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("process", "conn", "task", "started", "deadline", "started_at")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn
        #: The task handed to this worker; None while it is idle.
        self.task: Optional[_Task] = None
        #: Whether the worker reported picking ``task`` up.
        self.started = False
        self.deadline: Optional[float] = None
        self.started_at: float = 0.0


class PoolBatch:
    """One submitter's tasks and events on a shared :class:`SupervisedPool`.

    Open one with :meth:`SupervisedPool.batch`; every ``submit`` pairs with
    exactly one event from :meth:`events`.  ``respawns`` counts the workers
    lost on this batch's tasks; past ``max_respawns`` the batch fails with
    :class:`WorkerPoolError`.  :meth:`close` ends the batch and drops its
    bookkeeping.
    """

    def __init__(self, pool: "SupervisedPool", batch_id: int, max_respawns: Optional[int]) -> None:
        self._pool = pool
        self.id = batch_id
        self.max_respawns = max_respawns
        self.respawns = 0
        self.outstanding = 0
        self.ready: Deque[PoolEvent] = deque()
        self.error: Optional[WorkerPoolError] = None

    def submit(self, index: int, attempt: int, payload: Any, timeout: Optional[float]) -> None:
        """Queue one task for the next idle worker."""
        self._pool._submit(_Task(self.id, index, attempt, payload, timeout), 0.0)

    def submit_later(
        self,
        delay_seconds: float,
        index: int,
        attempt: int,
        payload: Any,
        timeout: Optional[float],
    ) -> None:
        """Like :meth:`submit`, but the task becomes runnable after a delay.

        Used for retry backoff: the pool keeps polling while the task waits,
        so other jobs keep executing during the backoff window.
        """
        self._pool._submit(_Task(self.id, index, attempt, payload, timeout), delay_seconds)

    def events(self) -> Iterator[PoolEvent]:
        """Yield one event per outstanding task until none remain.

        Callers may resubmit (``submit``/``submit_later``) between events;
        the loop runs until every submission is settled.
        """
        while True:
            event = self._pool._next_event(self)
            if event is None:
                return
            yield event

    def close(self) -> None:
        self._pool._close_batch(self)


class SupervisedPool:
    """Fixed-size supervised worker pool over a ``multiprocessing`` context.

    The workers start with :meth:`start` (or the first :meth:`batch`) and
    serve every batch until :meth:`close`.

    Parameters
    ----------
    context:
        ``multiprocessing`` context (spawn/fork/forkserver).
    processes:
        Worker count; a lost worker is replaced when a task waits for one.
    entry:
        Module-level callable ``entry(payload, attempt) -> result`` run in
        the worker (must pickle under spawn).
    grace_seconds:
        Parent-side margin added to a task's timeout before the worker is
        declared wedged and killed.
    """

    def __init__(
        self,
        context: Any,
        processes: int,
        entry: Callable[[Any, int], Any],
        grace_seconds: float = 5.0,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be >= 1")
        if grace_seconds <= 0:
            raise ValueError("grace_seconds must be positive")
        self._ctx = context
        self._processes = processes
        self._entry = entry
        self._grace = grace_seconds
        #: Guards everything below; notified whenever events may have landed.
        self._lock = threading.Condition(threading.Lock())
        self._slots: List[_Slot] = []
        #: Runnable tasks waiting for an idle worker, in submission order.
        self._queue: Deque[_Task] = deque()
        #: (ready_at, seq, task) heap for backoff-delayed resubmissions.
        self._delayed: List[Tuple[float, int, _Task]] = []
        self._seq = itertools.count()
        self._batches: Dict[int, PoolBatch] = {}
        self._batch_ids = itertools.count(1)
        #: Whether some consumer is running a supervision tick.
        self._pumping = False
        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            if self._started or self._closed:
                return
            self._started = True
            for _ in range(self._processes):
                self._spawn_slot()

    def _spawn_slot(self) -> _Slot:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._entry),
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot = _Slot(process, parent_conn)
        self._slots.append(slot)
        return slot

    def close(self) -> None:
        """Terminate every worker and release IPC resources (idempotent).

        Consumers still waiting for events get :class:`WorkerPoolError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
            # A tick in progress still reads the pipes; let it finish.
            while self._pumping:
                self._lock.wait()
            slots, self._slots = self._slots, []
            self._queue.clear()
            self._delayed.clear()
        for slot in slots:
            if slot.process.is_alive():
                slot.process.terminate()
        for slot in slots:
            slot.process.join(timeout=2.0)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=2.0)
            slot.conn.close()

    # -- batches -----------------------------------------------------------------

    def batch(self, max_respawns: Optional[int] = None) -> PoolBatch:
        """Open a batch; ``max_respawns`` caps the workers its tasks may lose."""
        self.start()
        with self._lock:
            if self._closed:
                raise WorkerPoolError("worker pool is closed")
            batch = PoolBatch(self, next(self._batch_ids), max_respawns)
            self._batches[batch.id] = batch
            return batch

    def _submit(self, task: _Task, delay_seconds: float) -> None:
        with self._lock:
            batch = self._batches.get(task.batch)
            if batch is None:
                raise WorkerPoolError("batch is closed")
            batch.outstanding += 1
            if delay_seconds > 0:
                ready_at = time.monotonic() + delay_seconds
                heapq.heappush(self._delayed, (ready_at, next(self._seq), task))
            else:
                self._queue.append(task)
                self._dispatch()

    def _close_batch(self, batch: PoolBatch) -> None:
        with self._lock:
            if self._batches.pop(batch.id, None) is None:
                return
            self._queue = deque(task for task in self._queue if task.batch != batch.id)
            self._delayed = [entry for entry in self._delayed if entry[2].batch != batch.id]
            heapq.heapify(self._delayed)
            batch.ready.clear()
            batch.outstanding = 0

    def _next_event(self, batch: PoolBatch) -> Optional[PoolEvent]:
        """The batch's next event, or None once it has nothing outstanding."""
        with self._lock:
            while True:
                if batch.error is not None:
                    raise batch.error
                if batch.ready:
                    return batch.ready.popleft()
                if batch.outstanding <= 0:
                    return None
                if self._closed:
                    raise WorkerPoolError("worker pool closed with tasks outstanding")
                if self._pumping:
                    # Another consumer is polling the workers for everyone.
                    self._lock.wait(POLL_SECONDS)
                else:
                    self._tick()

    # -- supervision loop (called with the lock held) ----------------------------

    def _tick(self) -> None:
        """One supervision round: wait for messages, route them, sweep, dispatch."""
        self._pumping = True
        try:
            self._release_due()
            self._dispatch()
            by_conn = {slot.conn: slot for slot in self._slots}
            # Wait without the lock so other consumers can submit meanwhile;
            # only this tick reads the pipes, and close() waits for it.
            self._lock.release()
            try:
                ready = mp_connection.wait(list(by_conn), timeout=POLL_SECONDS)
            finally:
                self._lock.acquire()
            if self._closed:
                return
            for conn in ready:
                slot = by_conn[conn]
                if slot not in self._slots:  # removed by an earlier event this tick
                    continue
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    self._reap_dead(slot)
                    continue
                self._handle_message(slot, message)
            self._sweep()
            self._dispatch()
        finally:
            self._pumping = False
            self._lock.notify_all()

    def _handle_message(self, slot: _Slot, message: Tuple[Any, ...]) -> None:
        task = slot.task
        if task is None:
            return
        if message[0] == "started":
            slot.started = True
            slot.started_at = time.monotonic()
            slot.deadline = (
                slot.started_at + task.timeout + self._grace if task.timeout is not None else None
            )
            return
        # "done": the worker is idle again.
        slot.task = None
        slot.started = False
        slot.deadline = None
        self._settle(
            task,
            PoolEvent(
                "done",
                task.index,
                task.attempt,
                result=message[1],
                elapsed_seconds=time.monotonic() - slot.started_at,
            ),
        )

    def _settle(self, task: _Task, event: PoolEvent) -> None:
        batch = self._batches.get(task.batch)
        if batch is None:
            return  # the batch ended; its late results are dropped
        batch.outstanding -= 1
        batch.ready.append(event)

    def _dispatch(self) -> None:
        """Hand queued tasks to idle workers, spawning replacements as needed."""
        while self._queue and not self._closed:
            slot = next((s for s in self._slots if s.task is None), None)
            if slot is None:
                if len(self._slots) >= self._processes:
                    return
                slot = self._spawn_slot()
            task = self._queue.popleft()
            slot.task = task
            try:
                slot.conn.send((task.payload, task.attempt))
            except OSError:
                pass  # the worker is gone; reaping hands the task on

    def _release_due(self) -> None:
        now = time.monotonic()
        while self._delayed and self._delayed[0][0] <= now:
            _, _, task = heapq.heappop(self._delayed)
            self._queue.append(task)

    def _sweep(self) -> None:
        """Deadline enforcement and death detection."""
        now = time.monotonic()
        for slot in list(self._slots):
            task = slot.task
            if slot.started and slot.deadline is not None and now > slot.deadline:
                elapsed = now - slot.started_at
                _log.warning(
                    "worker deadline exceeded; killing",
                    extra={
                        "task_index": task.index,
                        "attempt": task.attempt,
                        "elapsed": round(elapsed, 3),
                    },
                )
                self._discard_slot(slot, kill=True)
                self._charge(task)
                self._settle(
                    task, PoolEvent("deadline", task.index, task.attempt, elapsed_seconds=elapsed)
                )
            elif not slot.process.is_alive() and not slot.conn.poll():
                # Dead with no buffered messages left; EOF may not surface
                # through wait() on every platform, so check liveness too.
                self._reap_dead(slot)

    def _reap_dead(self, slot: _Slot) -> None:
        """A worker died: surface its held task (if any); dispatch replaces it."""
        task = slot.task
        elapsed = time.monotonic() - slot.started_at if slot.started else 0.0
        # Join (via discard) before reading the exit code: pipe EOF can
        # arrive before the dead process has been reaped, when exitcode
        # is still None.
        self._discard_slot(slot, kill=False)
        if task is None or task.batch not in self._batches:
            return  # an idle worker, or one running an ended batch's task
        self._charge(task)
        if not slot.started:
            # Lost between dispatch and pickup: the task never ran.
            self._queue.appendleft(task)
            return
        exitcode = slot.process.exitcode
        _log.warning(
            "worker crashed mid-task",
            extra={"task_index": task.index, "attempt": task.attempt, "exitcode": exitcode},
        )
        self._settle(
            task,
            PoolEvent(
                "crashed", task.index, task.attempt, exitcode=exitcode, elapsed_seconds=elapsed
            ),
        )

    def _discard_slot(self, slot: _Slot, kill: bool) -> None:
        if kill and slot.process.is_alive():
            slot.process.kill()
        slot.process.join(timeout=2.0)
        slot.conn.close()
        self._slots.remove(slot)

    def _charge(self, task: _Task) -> None:
        """Count a lost worker against the batch whose task it held."""
        batch = self._batches.get(task.batch)
        if batch is None:
            return
        batch.respawns += 1
        budget = batch.max_respawns
        if budget is not None and batch.respawns > budget and batch.error is None:
            batch.error = WorkerPoolError(
                f"batch exhausted its respawn budget ({budget}); "
                "a job is likely crash-looping beyond its retry allowance"
            )
