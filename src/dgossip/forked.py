"""Worker processes forked from a run, and the shared memory through which they trade arrays.

A :func:`shared_array` lives in an anonymous shared mapping, so a process
forked after it is made reads and writes the very pages the caller sees,
and no array goes through a pipe.  :class:`Workers` forks its processes
once.  Each then runs ``serve(*task)`` for every task sent to it and
replies with None or with the exception the task raised.  The caller
waits on each busy worker's pipe and on its process sentinel, so a
worker that dies ends the wait with an error instead of a hang.  Fork
carries the caller's state across as it stands (the built problem, the
config, any function patched in before the fork) with no pickling, so it
is the one start method used; :func:`can_fork` says whether the platform
has it.  Fork copies only the calling thread: a lock that another thread
of the caller holds at that moment stays held in the workers.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import pickle
import signal
from contextlib import suppress
from multiprocessing.connection import wait

import numpy as np

__all__ = ["Workers", "can_fork", "shared_array"]


def can_fork() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def shared_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping of its own (``shape`` holds no zero)."""
    dtype = np.dtype(dtype)
    return np.ndarray(shape, dtype, mmap.mmap(-1, math.prod(shape) * dtype.itemsize))


def _portable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a RuntimeError that names its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _loop(conn, caller_end, serve) -> None:
    caller_end.close()  # so that the caller's exit is an EOF here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the caller, which then stops its workers
    while (task := conn.recv()) is not None:
        try:
            serve(*task)
            reply = None
        except Exception as exc:  # anything else ends the worker, which the caller reports
            reply = _portable(exc)
        conn.send(reply)


class Workers:
    """``count`` processes forked now, each serving the tasks sent to it until :meth:`close`."""

    def __init__(self, count: int, serve) -> None:
        ctx = multiprocessing.get_context("fork")
        self._workers: list[tuple] = []  # (caller's end of its pipe, process)
        self._busy: list[int] = []
        try:
            for _ in range(count):
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=_loop, args=(child, conn, serve), daemon=True)
                proc.start()
                child.close()
                self._workers.append((conn, proc))
        except BaseException:
            self.close()
            raise

    def send(self, tasks) -> None:
        """Hand task i to worker i; only the workers given one are waited on."""
        for i, task in enumerate(tasks):
            self._workers[i][0].send(task)
            self._busy.append(i)

    def wait(self) -> None:
        """Wait for every busy worker; raise the first error a task raised, or RuntimeError if a worker died."""
        while self._busy:
            ready = wait([obj for i in self._busy for obj in (self._workers[i][0], self._workers[i][1].sentinel)])
            for i in [i for i in self._busy if {self._workers[i][0], self._workers[i][1].sentinel} & set(ready)]:
                conn, proc = self._workers[i]
                try:
                    if not conn.poll():  # only the sentinel is ready: the process ended without a reply
                        raise EOFError
                    reply = conn.recv()
                except EOFError:
                    proc.join()
                    raise RuntimeError(f"worker process {proc.pid} died with exit code {proc.exitcode}") from None
                self._busy.remove(i)
                if reply is not None:
                    raise reply

    def close(self) -> None:
        """Stop the idle workers, kill the busy ones (the caller gave up on their tasks), and reap all."""
        for i, (conn, proc) in enumerate(self._workers):
            if i in self._busy:
                proc.terminate()
            else:
                with suppress(OSError):  # a worker that died has closed its end
                    conn.send(None)
        for conn, proc in self._workers:
            proc.join()
            conn.close()
        self._workers, self._busy = [], []
