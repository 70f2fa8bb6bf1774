"""Work run beside the caller in a forked child, or in turn.

``Forked(fn, *args)`` starts ``fn(*args)`` in a forked child, which sends its
value back through a pipe, and ``result()`` returns it.  The gauge stage's
partner flow (``harness.gauge_partner``) and the radial mu starts after the
first (``entropy._radial_mu``) run this way.  Where no child may fork,
``result()`` calls ``fn(*args)`` in turn; the arithmetic is the same either
way, so the bits are too.
"""

from __future__ import annotations

import multiprocessing
import os
import threading


def _can_fork() -> bool:
    """Whether ``Forked`` forks: the platform offers ``fork``, the process
    may run on two CPUs or more, no other thread runs (whose locks the child
    could inherit held), and the process is no daemonic ``multiprocessing``
    worker, which may not start children."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1
            and not multiprocessing.current_process().daemon)


def _send(conn, fn, args: tuple) -> None:
    """A forked child's work: ``fn(*args)``, or the exception it raised,
    sent to the parent through ``conn``."""
    try:
        reply = (True, fn(*args))
    except BaseException as exc:  # an interrupt too: ``Forked.result`` re-raises it
        reply = (False, exc)
    conn.send(reply)


class Forked:
    """``fn(*args)``, started at construction.

    Where ``_can_fork()`` holds (and the fork succeeds), a forked child
    computes it beside the caller and sends it back through a pipe;
    otherwise it runs in turn, when ``result`` is first asked for.
    ``result`` raises a failure of ``fn`` as its own type and message, and a
    child that ends without sending its result as ``ChildProcessError``
    naming its exit code.  ``close``, or leaving a ``with`` block, kills and
    reaps the child if one still runs, so no path leaves a process behind.
    """

    def __init__(self, fn, *args):
        self._fn, self._args = fn, args
        self._child = self._conn = None
        if _can_fork():
            context = multiprocessing.get_context("fork")
            self._conn, send = context.Pipe(duplex=False)  # a Queue would start a thread
            self._child = context.Process(target=_send, args=(send, fn, args))
            try:
                self._child.start()
            except OSError:  # no process to spare (EAGAIN): run in turn
                self._conn.close()
                self._child = None
            finally:
                send.close()  # the child holds the write end: its exit ends the pipe

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def result(self):
        if self._child is None:
            return self._fn(*self._args)
        try:
            ok, value = self._conn.recv()
        except EOFError:
            self._child.join()
            raise ChildProcessError(f"the forked process running {self._fn.__qualname__} ended "
                                    f"with exit code {self._child.exitcode} before sending a "
                                    f"result") from None
        finally:
            self.close()
        if not ok:
            raise value
        return value

    def close(self) -> None:
        if self._child is not None:
            self._child.kill()  # it writes no file; SIGKILL, so no inherited handler keeps it
            self._child.join()
            self._conn.close()
