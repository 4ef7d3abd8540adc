"""The worker pool behind ``--jobs N``: survives crashed, killed and hung workers.

``concurrent.futures.ProcessPoolExecutor`` cannot tell a stopped worker
from a busy one, and one dead worker breaks every outstanding future.
:class:`SupervisedWorkerPool` supervises its workers itself:

* **warm workers** — ``workers`` processes are started up front, each
  running :func:`repro.runner.pool.pool_worker_main`, and stay resident
  between tasks;
* **heartbeats** — every worker sends ``("hb",)`` from a side thread
  each :data:`HEARTBEAT_S` seconds; one silent for :data:`LIVENESS_S`
  seconds (SIGSTOP, a wedged interpreter) is killed and replaced;
* **crash detection** — a worker whose process exits (SIGKILL, OOM,
  ``os._exit``) is replaced as soon as the supervisor sees it;
* **reruns** — the task of a dead or hung worker reruns on a
  replacement; after :data:`MAX_ATTEMPTS` attempts it becomes an error
  string and the other tasks still complete;
* **raises** — a task that raises is not retried (the simulation is
  seeded, so it would raise again).  A strip give-up
  (:class:`~repro.errors.StripRetryExhaustedError`) becomes an error
  string like a lost task's; :meth:`SupervisedWorkerPool.drain` re-raises
  any other exception, as ``ProcessPoolExecutor`` did.
"""

from __future__ import annotations

import collections
import multiprocessing as mp
import multiprocessing.connection
import time
import typing as t

from ..errors import StripRetryExhaustedError
from .pool import pool_worker_main

__all__ = ["SupervisedWorkerPool", "HEARTBEAT_S", "LIVENESS_S", "MAX_ATTEMPTS"]

#: Seconds between two heartbeats of an alive worker.
HEARTBEAT_S = 0.1
#: A worker silent for this many seconds is declared hung and killed.
LIVENESS_S = 5.0
#: Attempts a task gets before its worker deaths make it an error.
MAX_ATTEMPTS = 3


class _Worker:
    """One child process, its pipe, and the key of the task it runs."""

    def __init__(self, ctx: t.Any) -> None:
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=pool_worker_main, args=(child, HEARTBEAT_S), daemon=True
        )
        self.proc.start()
        child.close()
        self.key: str | None = None
        self.last_seen = time.monotonic()

    def kill(self) -> None:
        """SIGKILL the child (a no-op once it has exited) and reap it."""
        self.proc.kill()
        self.proc.join()
        self.conn.close()


class SupervisedWorkerPool:
    """Run ``(key, exp_id, spec)`` grid-point tasks over supervised workers.

    Usage::

        with SupervisedWorkerPool(2, progress=print) as pool:
            pool.submit("k1", "fig5_bandwidth_3g", spec)
            rows, errors = pool.drain()

    ``progress`` receives one line per finished task and per replaced
    worker.  All methods must be called from one thread.
    """

    def __init__(
        self, workers: int, progress: t.Callable[[str], None] | None = None
    ) -> None:
        self._progress = progress
        self._ctx = mp.get_context()
        self._workers = [_Worker(self._ctx) for _ in range(workers)]
        self._tasks: dict[str, tuple[str, t.Any]] = {}
        self._pending: collections.deque[str] = collections.deque()
        self._attempts: collections.Counter[str] = collections.Counter()

    def __enter__(self) -> "SupervisedWorkerPool":
        return self

    def __exit__(self, *exc: t.Any) -> None:
        self.shutdown()

    def submit(self, key: str, exp_id: str, spec: t.Any) -> None:
        """Queue one grid point of ``exp_id``; :meth:`drain` runs it."""
        self._tasks[key] = (exp_id, spec)
        self._pending.append(key)

    def drain(self) -> tuple[dict[str, t.Any], dict[str, str]]:
        """Run every queued task; returns ``(rows, errors)`` by key.

        ``errors`` holds the tasks whose worker died or hung on each of
        :data:`MAX_ATTEMPTS` attempts, and those that raised
        :class:`~repro.errors.StripRetryExhaustedError`.  A task that
        raised anything else re-raises here, with the worker's traceback
        as its ``__cause__``.
        """
        rows: dict[str, t.Any] = {}
        errors: dict[str, str] = {}
        total = len(self._tasks)
        while self._tasks:
            self._dispatch()
            ready = mp.connection.wait(
                [worker.conn for worker in self._workers], timeout=HEARTBEAT_S
            )
            for worker in self._workers:
                if worker.conn in ready:
                    self._receive(worker, rows, errors, total)
            self._reap(errors)
        return rows, errors

    def shutdown(self) -> None:
        """Kill every worker: an idle one holds nothing worth a polite stop."""
        for worker in self._workers:
            worker.kill()
        self._workers = []

    # -- supervision ---------------------------------------------------

    def _dispatch(self) -> None:
        for worker in self._workers:
            if not self._pending:
                return
            if worker.key is not None:
                continue
            key = self._pending[0]
            try:
                worker.conn.send((key, *self._tasks[key]))
            except OSError:
                continue  # a dead worker: _reap replaces it, the key waits
            self._pending.popleft()
            worker.key = key
            self._attempts[key] += 1

    def _receive(
        self,
        worker: _Worker,
        rows: dict[str, t.Any],
        errors: dict[str, str],
        total: int,
    ) -> None:
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return  # the worker died: _reap replaces it
            worker.last_seen = time.monotonic()
            if message[0] == "hb":
                continue
            key = message[1]
            worker.key = None
            del self._tasks[key]
            if message[0] == "raised":
                exc = message[2]
                if not isinstance(exc, StripRetryExhaustedError):
                    raise exc from RuntimeError(
                        f"in worker pid {worker.proc.pid}:\n{message[3]}"
                    )
                errors[key] = f"{type(exc).__name__}: {exc}"
                continue
            rows[key] = message[2]
            self._emit(f"point {len(rows)}/{total} [{key[:24]}]")

    def _reap(self, errors: dict[str, str]) -> None:
        """Replace dead and hung workers; rerun or fail their tasks."""
        now = time.monotonic()
        for index, worker in enumerate(self._workers):
            pid = worker.proc.pid
            if not worker.proc.is_alive():
                reason = f"worker pid {pid} died (exit code {worker.proc.exitcode})"
            elif now - worker.last_seen > LIVENESS_S:
                reason = f"worker pid {pid} sent no heartbeat for {LIVENESS_S:g}s"
            else:
                continue
            worker.kill()
            self._workers[index] = _Worker(self._ctx)
            key = worker.key
            if key is None:
                self._emit(f"{reason}; replaced it")
            elif self._attempts[key] < MAX_ATTEMPTS:
                self._pending.appendleft(key)
                self._emit(
                    f"{reason}; rerunning [{key[:24]}] on a replacement "
                    f"(attempt {self._attempts[key] + 1} of {MAX_ATTEMPTS})"
                )
            else:
                del self._tasks[key]
                errors[key] = (
                    f"its worker died or hung on all {MAX_ATTEMPTS} attempts "
                    f"(last: {reason})"
                )
                self._emit(f"{reason}; giving up on [{key[:24]}]")

    def _emit(self, message: str) -> None:
        if self._progress is not None:
            self._progress(message)
