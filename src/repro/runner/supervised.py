"""A supervised warm worker pool that survives crashed, killed and hung workers.

``concurrent.futures.ProcessPoolExecutor`` treats one dead worker as a
fatal event: every outstanding future collapses into
``BrokenProcessPool`` and the pool is unusable afterwards.  That is the
wrong contract for a long-lived run-control daemon, so this module
provides the supervision layer the ROADMAP's serve daemon needs — and
that ``ExperimentRunner`` reuses to survive a mid-grid worker death:

* **warm workers** — ``workers`` processes are spawned up front, each
  running :func:`repro.runner.pool.pool_worker_main`, and stay resident
  between tasks (no per-task fork/import cost);
* **heartbeats + liveness deadline** — every worker emits ``("hb",)``
  from a side thread each ``heartbeat_interval`` seconds; a worker whose
  last message is older than ``liveness_timeout`` is declared hung,
  SIGKILLed and replaced, so a wedged interpreter cannot stall the pool;
* **crash detection** — a worker whose process exits (SIGKILL, OOM,
  ``os._exit``) is detected via its pipe EOF or ``is_alive()`` and
  replaced immediately;
* **per-task retry with exponential backoff** — a task whose attempt
  dies (worker death) or raises is re-queued after
  ``backoff_base * 2**(attempt-1)`` seconds (jittered, capped at
  ``backoff_cap``) until ``max_attempts`` is exhausted, at which point a
  *failed* :class:`TaskOutcome` is returned — the supervisor itself
  never raises for a task failure;
* **in-process fallback** — ``transport="inproc"`` (or an environment
  where processes cannot be spawned) runs every task inline in
  :meth:`SupervisedWorkerPool.poll`; no parallelism, no crash surface,
  identical outcomes — what the 1-CPU CI tier uses.

The pool is deliberately transport-level: it moves ``(key, kind,
exp_id, payload)`` task tuples and returns :class:`TaskOutcome` rows.
Scheduling policy — queues, dedup, TTLs — lives in :mod:`repro.serve`.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import random
import signal
import time
import typing as t
from collections import deque

from ..errors import SimulationError
from .pool import pool_worker_main, run_task

__all__ = ["SupervisedWorkerPool", "TaskOutcome"]


@dataclasses.dataclass(frozen=True)
class TaskOutcome:
    """Terminal result of one submitted task (success or exhausted retries)."""

    key: str
    row: t.Any = None
    #: Human-readable failure detail; ``None`` means success.
    error: str | None = None
    #: Attempts consumed (1 = first try succeeded).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclasses.dataclass
class _Task:
    key: str
    kind: str
    exp_id: str
    payload: t.Any
    attempts: int = 0
    not_before: float = 0.0
    last_error: str = ""


class _Worker:
    """One supervised child process and its duplex pipe."""

    __slots__ = ("wid", "proc", "conn", "busy", "last_seen", "task_started")

    def __init__(self, wid: int, ctx: t.Any, heartbeat_interval: float) -> None:
        self.wid = wid
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=pool_worker_main,
            args=(child, heartbeat_interval),
            daemon=True,
        )
        self.proc.start()
        child.close()
        self.busy: _Task | None = None
        self.last_seen = time.monotonic()
        self.task_started = 0.0

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def kill(self) -> None:
        """Force-terminate the child (SIGKILL; tolerates already-dead)."""
        try:
            if self.proc.pid is not None:
                os.kill(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, OSError):
            pass
        self.proc.join(timeout=1.0)

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class SupervisedWorkerPool:
    """Crash-, kill- and hang-tolerant task execution over warm workers.

    Usage::

        pool = SupervisedWorkerPool(workers=2)
        pool.submit("k1", "point", "fig5_bandwidth_3g", spec)
        for outcome in pool.drain():
            ...  # outcome.ok / outcome.row / outcome.error
        pool.shutdown()

    ``submit`` is idempotent per ``key`` while the task is outstanding —
    the dedup hook the serve daemon's job table relies on.  All methods
    must be called from one owning thread (the daemon's scheduler); the
    pool does its own locking only against its worker processes.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        transport: str = "mp",
        heartbeat_interval: float = 0.1,
        liveness_timeout: float = 5.0,
        task_timeout: float | None = None,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        backoff_jitter: float = 0.25,
        rng: random.Random | None = None,
        on_event: t.Callable[[str, dict[str, t.Any]], None] | None = None,
    ) -> None:
        if workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers}")
        if transport not in ("mp", "inproc"):
            raise SimulationError(f"unknown pool transport {transport!r}")
        if max_attempts < 1:
            raise SimulationError(f"max_attempts must be >= 1, got {max_attempts}")
        self.n_workers = workers
        self.heartbeat_interval = heartbeat_interval
        self.liveness_timeout = liveness_timeout
        self.task_timeout = task_timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        self._rng = rng if rng is not None else random.Random(0x5A15)
        self._on_event = on_event
        self._pending: deque[_Task] = deque()
        self._cooling: list[_Task] = []
        self._outstanding: dict[str, _Task] = {}
        self._workers: list[_Worker] = []
        self._next_wid = 0
        self._closed = False
        self.stats: dict[str, int] = {
            "tasks_done": 0,
            "tasks_failed": 0,
            "task_retries": 0,
            "worker_restarts": 0,
            "workers_hung": 0,
        }
        self.transport = transport
        if transport == "mp":
            try:
                self._ctx = mp.get_context()
                self._workers = [self._spawn() for _ in range(workers)]
            except (OSError, ValueError):
                # Restricted environment: no process spawning.  Fall back
                # to inline execution, same contract (no parallelism).
                self._discard_workers()
                self.transport = "inproc"
                self._emit("transport_fallback", {"to": "inproc"})

    # -- lifecycle -----------------------------------------------------

    def _spawn(self) -> _Worker:
        worker = _Worker(self._next_wid, self._ctx, self.heartbeat_interval)
        self._next_wid += 1
        return worker

    def _discard_workers(self) -> None:
        for worker in self._workers:
            worker.kill()
            worker.close()
        self._workers = []

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker: polite ``stop`` for idle, SIGKILL for busy."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.busy is None and worker.proc.is_alive():
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.kill()
            worker.close()
        self._workers = []

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc: t.Any) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------

    def submit(self, key: str, kind: str, exp_id: str, payload: t.Any) -> bool:
        """Queue one task; returns False if ``key`` is already outstanding."""
        if self._closed:
            raise SimulationError("pool is shut down")
        if key in self._outstanding:
            return False
        task = _Task(key=key, kind=kind, exp_id=exp_id, payload=payload)
        self._outstanding[key] = task
        self._pending.append(task)
        return True

    def outstanding(self) -> int:
        """Tasks not yet resolved into a :class:`TaskOutcome`."""
        return len(self._outstanding)

    def worker_pids(self) -> list[int]:
        """Live worker process ids (empty under ``inproc``)."""
        return [w.pid for w in self._workers if w.pid is not None]

    def busy_pids(self) -> list[int]:
        """Pids of workers currently executing a task."""
        return [
            w.pid
            for w in self._workers
            if w.busy is not None and w.pid is not None
        ]

    # -- supervision loop ----------------------------------------------

    def poll(self, timeout: float = 0.0) -> list[TaskOutcome]:
        """Advance the pool; returns tasks that reached a terminal state.

        Dispatches pending work, drains worker messages, restarts dead or
        hung workers, re-queues failed attempts with backoff and keeps
        doing so until something completes or ``timeout`` elapses.
        """
        deadline = time.monotonic() + timeout
        outcomes: list[TaskOutcome] = []
        while True:
            if self.transport == "inproc":
                outcomes.extend(self._poll_inproc(deadline))
            else:
                outcomes.extend(self._poll_mp(deadline))
            if outcomes or not self._outstanding:
                return outcomes
            if time.monotonic() >= deadline:
                return outcomes

    def drain(self, timeout: float = 60.0) -> list[TaskOutcome]:
        """Poll until every outstanding task resolves (or ``timeout``)."""
        deadline = time.monotonic() + timeout
        outcomes: list[TaskOutcome] = []
        while self._outstanding and time.monotonic() < deadline:
            outcomes.extend(self.poll(timeout=0.2))
        if self._outstanding:
            raise SimulationError(
                f"pool drain timed out with {len(self._outstanding)} task(s) "
                "outstanding"
            )
        return outcomes

    # -- inproc transport ----------------------------------------------

    def _poll_inproc(self, deadline: float) -> list[TaskOutcome]:
        outcomes: list[TaskOutcome] = []
        self._promote_cooled()
        while self._pending:
            task = self._pending.popleft()
            task.attempts += 1
            try:
                row = run_task(task.kind, task.exp_id, task.payload)
            except Exception as exc:  # noqa: BLE001 - retried below
                outcome = self._attempt_failed(task, f"task raised: {exc!r}")
                if outcome is not None:
                    outcomes.append(outcome)
            else:
                outcomes.append(self._done(task, row))
            self._promote_cooled()
        if not outcomes and self._cooling:
            # Everything is backing off; sleep until the earliest retry
            # (bounded by the caller's deadline) instead of spinning.
            wake = min(task.not_before for task in self._cooling)
            time.sleep(max(0.0, min(wake, deadline) - time.monotonic()))
            self._promote_cooled()
        return outcomes

    # -- mp transport --------------------------------------------------

    def _poll_mp(self, deadline: float) -> list[TaskOutcome]:
        outcomes: list[TaskOutcome] = []
        self._promote_cooled()
        self._dispatch()
        conns = {w.conn: w for w in self._workers}
        wait_for = max(0.0, min(deadline - time.monotonic(), 0.05))
        ready: list[t.Any] = []
        if conns:
            try:
                ready = mp.connection.wait(list(conns), timeout=wait_for)
            except OSError:
                ready = []
        else:
            time.sleep(wait_for)
        for conn in ready:
            worker = conns[conn]
            outcomes.extend(self._drain_worker(worker))
        outcomes.extend(self._reap())
        self._promote_cooled()
        self._dispatch()
        return outcomes

    def _dispatch(self) -> None:
        for worker in self._workers:
            if not self._pending:
                return
            if worker.busy is not None or not worker.proc.is_alive():
                continue
            task = self._pending.popleft()
            task.attempts += 1
            try:
                worker.conn.send(
                    ("task", task.key, task.kind, task.exp_id, task.payload)
                )
            except (BrokenPipeError, OSError):
                # Dead worker discovered at dispatch: undo the attempt and
                # let _reap() replace it; the task goes back to the front.
                task.attempts -= 1
                self._pending.appendleft(task)
                continue
            worker.busy = task
            worker.task_started = time.monotonic()

    def _drain_worker(self, worker: _Worker) -> list[TaskOutcome]:
        outcomes: list[TaskOutcome] = []
        while True:
            try:
                if not worker.conn.poll():
                    return outcomes
                message = worker.conn.recv()
            except (EOFError, OSError):
                return outcomes  # death handled by _reap()
            worker.last_seen = time.monotonic()
            tag = message[0]
            if tag == "hb":
                continue
            _, key, payload = message
            task = worker.busy
            if task is None or task.key != key:
                continue  # stale reply from a superseded assignment
            worker.busy = None
            if tag == "done":
                outcomes.append(self._done(task, payload))
            else:
                outcome = self._attempt_failed(task, f"task raised:\n{payload}")
                if outcome is not None:
                    outcomes.append(outcome)

    def _reap(self) -> list[TaskOutcome]:
        """Replace dead/hung workers; fail the attempts they were running."""
        outcomes: list[TaskOutcome] = []
        now = time.monotonic()
        for index, worker in enumerate(self._workers):
            dead_reason: str | None = None
            if not worker.proc.is_alive():
                dead_reason = f"worker pid {worker.pid} died"
            elif now - worker.last_seen > self.liveness_timeout:
                dead_reason = (
                    f"worker pid {worker.pid} missed its liveness deadline "
                    f"({self.liveness_timeout:.2f}s); killed"
                )
                self.stats["workers_hung"] += 1
                worker.kill()
            elif (
                self.task_timeout is not None
                and worker.busy is not None
                and now - worker.task_started > self.task_timeout
            ):
                dead_reason = (
                    f"task exceeded its {self.task_timeout:.2f}s budget on "
                    f"worker pid {worker.pid}; worker killed"
                )
                worker.kill()
            if dead_reason is None:
                continue
            task, worker.busy = worker.busy, None
            worker.close()
            self.stats["worker_restarts"] += 1
            self._emit("worker_restart", {"reason": dead_reason})
            self._workers[index] = self._spawn()
            if task is not None:
                outcome = self._attempt_failed(task, dead_reason)
                if outcome is not None:
                    outcomes.append(outcome)
        return outcomes

    # -- attempt accounting --------------------------------------------

    def _done(self, task: _Task, row: t.Any) -> TaskOutcome:
        self._outstanding.pop(task.key, None)
        self.stats["tasks_done"] += 1
        return TaskOutcome(key=task.key, row=row, attempts=task.attempts)

    def _attempt_failed(self, task: _Task, detail: str) -> TaskOutcome | None:
        """Retry with backoff, or produce a terminal failed outcome."""
        task.last_error = detail
        if task.attempts >= self.max_attempts:
            self._outstanding.pop(task.key, None)
            self.stats["tasks_failed"] += 1
            self._emit("task_failed", {"key": task.key, "attempts": task.attempts})
            return TaskOutcome(
                key=task.key,
                error=(
                    f"failed after {task.attempts} attempt(s); last error: "
                    f"{detail}"
                ),
                attempts=task.attempts,
            )
        delay = min(
            self.backoff_cap, self.backoff_base * (2 ** (task.attempts - 1))
        )
        delay *= 1.0 + self.backoff_jitter * self._rng.random()
        task.not_before = time.monotonic() + delay
        self._cooling.append(task)
        self.stats["task_retries"] += 1
        self._emit(
            "task_retry",
            {"key": task.key, "attempt": task.attempts, "delay": delay},
        )
        return None

    def _promote_cooled(self) -> None:
        if not self._cooling:
            return
        now = time.monotonic()
        still_cooling = []
        for task in self._cooling:
            if task.not_before <= now:
                self._pending.append(task)
            else:
                still_cooling.append(task)
        self._cooling = still_cooling

    def _emit(self, name: str, detail: dict[str, t.Any]) -> None:
        if self._on_event is not None:
            self._on_event(name, detail)
