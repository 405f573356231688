"""Run a function in a forked child process while the caller works on."""

import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager


def can_overlap() -> bool:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cpus >= 2 and threading.active_count() == 1  # a fork copies only this thread


@contextmanager
def forked(fn, task: str):
    """Run ``fn()`` in a forked child process while the ``with`` body runs.

    Yields ``join``, which returns ``fn()``'s value or raises what it raised,
    or ``ChildProcessError`` naming ``task`` if the child died.  ``fn`` runs
    here, before the body, unless ``can_overlap()``.  If the body raises, the
    child's own error still comes first, as inline; the child is always reaped.
    """
    if not can_overlap():
        value = fn()
        yield lambda: value
        return
    sys.stdout.flush()  # else the child would write the buffered text again
    sys.stderr.flush()
    fd_read, fd_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            try:
                out = (True, fn())
            except BaseException as exc:
                out = (False, exc)
            with open(fd_write, "wb") as fh:
                pickle.dump(out, fh)
            sys.stdout.flush()
            sys.stderr.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(fd_write)
    status = None
    with open(fd_read, "rb") as reader:
        def join():
            nonlocal status
            data = reader.read()
            status = os.waitpid(pid, 0)[1]
            if status:  # a negative code is the signal that ended the child
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"the forked {task} process ended with code {code}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            return value

        try:
            yield join
        except Exception:
            if status is None:
                join()
            raise
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
