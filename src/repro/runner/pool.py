"""Pickleable work units and the worker loop of the supervised pool.

Workers receive ``(key, exp_id, spec)`` task messages, re-import the
experiment registry (module import re-registers every experiment) and
execute the named experiment's ``run_point`` on the spec.  Only specs
and row results cross the process boundary — both are plain frozen
dataclasses — so the same code path works under ``fork`` and ``spawn``
start methods.  The runner's ``--jobs 1`` path calls the same
:func:`run_point_task` in-process.

:func:`pool_worker_main` is the long-lived worker loop used by
:class:`~repro.runner.supervised.SupervisedWorkerPool`: it answers task
messages until the supervisor kills it or goes away, and a side thread
emits heartbeats so the supervisor can tell a busy worker from a
stopped or dead one.
"""

from __future__ import annotations

import pickle
import threading
import traceback
import typing as t

__all__ = ["run_point_task", "pool_worker_main"]


def run_point_task(exp_id: str, spec: t.Any) -> t.Any:
    """Execute one grid point of ``exp_id``."""
    # Imported lazily so a freshly spawned worker registers the
    # experiment modules before the lookup.
    from ..experiments.base import get_grid_experiment
    import repro.experiments  # noqa: F401  (registration side effects)

    return get_grid_experiment(exp_id).run_point(spec)


def pool_worker_main(conn: t.Any, heartbeat_interval: float) -> None:
    """Worker loop: serve ``task`` messages over ``conn`` until it closes.

    Protocol (worker side):

    * receives ``(key, exp_id, spec)`` tasks;
    * sends ``("done", key, row)``, or ``("raised", key, exc, traceback)``
      when the task raised — ``exc`` is the exception itself, or a
      ``RuntimeError`` carrying the traceback if it does not pickle;
    * a daemon thread sends ``("hb",)`` every ``heartbeat_interval``
      seconds, so the supervisor's liveness deadline can distinguish a
      long-running task from a SIGKILLed or SIGSTOPped interpreter.

    ``Connection.send`` is not thread-safe, so the heartbeat thread and
    the task loop share one lock.
    """
    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def beat() -> None:
        while not stop_beating.wait(heartbeat_interval):
            try:
                with send_lock:
                    conn.send(("hb",))
            except OSError:
                return

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            key, exp_id, spec = conn.recv()
            try:
                reply = ("done", key, run_point_task(exp_id, spec))
            except BaseException as exc:  # noqa: BLE001 - re-raised upstream
                detail = traceback.format_exc()
                reply = ("raised", key, exc, detail)
                try:
                    pickle.loads(pickle.dumps(reply))
                except Exception:  # noqa: BLE001 - any pickling failure
                    reply = ("raised", key, RuntimeError(detail), detail)
            with send_lock:
                conn.send(reply)
    except EOFError:  # supervisor died; nothing to report to
        pass
    finally:
        stop_beating.set()
        conn.close()
