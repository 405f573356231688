"""Run a function in a forked child process, or on a helper thread, while
the caller works on."""

import contextvars
import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager


_live = 0  # children forked here and not yet reaped; each keeps a CPU busy
_child = False  # true in a forked child, which runs its own work inline


def can_overlap() -> bool:
    """Not a forked child, a usable CPU for this process and for each child
    it has not reaped, and no other thread (a fork copies only this one)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return not _child and cpus >= 2 + _live and threading.active_count() == 1


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
    global _live, _child
    fd_read, fd_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _child = True
            os.close(fd_read)  # a reader that dies must not leave the write blocked
            try:
                out = (True, fn())
            except BaseException as exc:
                out = (False, exc)
            with open(fd_write, "wb") as fh:  # 5: an array's bytes go out without a copy
                pickle.dump(out, fh, protocol=5)
            sys.stdout.flush()
            sys.stderr.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(fd_write)
    _live += 1
    status = None
    with open(fd_read, "rb") as reader:
        def join():
            nonlocal status
            try:  # an array's bytes are read from the pipe straight into its buffer
                ok, value = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError) as exc:  # cut short: the pipe is closed
                ok, value = False, exc
            status = _reap(pid)
            if status:  # a negative code is the signal that ended the child
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(f"the forked {task} process ended with code {code}")
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
                _reap(pid)


def in_halves(fn, items) -> None:
    """``fn(items[:h])`` here and ``fn(items[h:])`` on a helper thread, h half
    of ``len(items)``, if ``can_overlap()``; else ``fn(items)`` here.

    For work that releases the GIL and writes disjoint outputs, so the result
    is the same either way.  The helper runs in a copy of this context (numpy's
    error state included) and is joined before this returns, so no thread is
    left to a later fork.  Its error is raised here unless this half raised
    first, as inline, where the second half would never have run.
    """
    half = len(items) // 2
    if not half or not can_overlap():
        fn(items)
        return
    failed = []

    def helper():
        try:
            fn(items[half:])
        except BaseException as exc:
            failed.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        fn(items[:half])
    finally:
        thread.join()
    if failed:
        raise failed[0]


def _reap(pid: int) -> int:
    global _live
    status = os.waitpid(pid, 0)[1]
    _live -= 1
    return status
