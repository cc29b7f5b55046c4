"""Where a pass's backward direction runs: in a forked process, the direction
worker, or in this process.

An executor runs requests, each [handler, *arguments]. Its one method,
`alongside(request, here)`, runs here() in this process and the request
beside it, and returns (here()'s result, the handler's). A handler is called
with the executor's pending dict first, where a pass keeps what its later
requests read, under a key the executor's `keys` hands out. `Worker` runs
the request in its process while this one runs here(); `InProcess` runs
here() and then the request, in this process. Each runs the same numpy
operations in the same order, so every byte is the same either way.

Inside a `scope()`, a pass whose input projection makes at least
WORKER_TERMS terms gets the scope's worker, forked at the first such pass
(`worker_for`). Smaller passes, every pass outside a scope, and the rest of
a scope's passes once its worker could not start get a new `InProcess`, so
what a pass leaves pending goes when the pass's cache goes.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import signal
import struct
import sys

import numpy as np

# the fewest input-projection terms, branches x rows x 4*hidden x embed, of a
# pass that sends its backward direction to the direction worker. Its
# messages cost a few hundred microseconds each; measured on training epochs
# at E=32, H=16, the worker lost (0.90x) at 2^18.4 terms, was even to 1.36x
# at 2^19.6 and won 1.26-1.45x from 2^20.2 up (README, "Direction worker").
WORKER_TERMS = 1 << 20


class WorkerError(RuntimeError):
    """The direction worker could not start, or ended or was stopped
    before it replied."""


def _write_all(fd, parts):
    """Write each buffer of `parts` to fd, whole and in order."""
    views = [memoryview(part).cast("B") for part in parts]
    while views:
        n = os.writev(fd, views)
        while views and n >= len(views[0]):
            n -= len(views.pop(0))
        if n:
            views[0] = views[0][n:]


def _read_into(fd, buffer):
    """Fill `buffer` from fd; EOFError if the other end closes first."""
    view = memoryview(buffer).cast("B")
    while view:
        n = os.readv(fd, [view])
        if not n:
            raise EOFError("the pipe closed")
        view = view[n:]


def _frame(message) -> list:
    """The buffers that carry `message` down a pipe: the count of parts and
    their sizes, then the parts, a protocol-5 pickle and the memory of each
    of its arrays, sent out of band from where it lies, so no pickled copy
    is held beside an array."""
    buffers = []
    head = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    parts = [head, *(buffer.raw() for buffer in buffers)]
    return [struct.pack(f"={len(parts) + 1}Q", len(parts), *map(len, parts)), *parts]


def _receive(fd):
    """The next message `_frame` framed on fd. Each array is rebuilt over a
    buffer its memory was read straight into."""
    count = bytearray(8)
    _read_into(fd, count)
    sizes = bytearray(8 * struct.unpack("=Q", count)[0])
    _read_into(fd, sizes)
    parts = [bytearray(size) for size in struct.unpack(f"={len(sizes) // 8}Q", sizes)]
    for part in parts:
        _read_into(fd, part)
    return pickle.loads(parts[0], buffers=parts[1:])


def _serve(requests: int, replies: int):
    """The direction worker's loop: read a request, run it, reply, until the
    caller's end of the pipe closes. A request is (the caller's
    `np.geterr()`, a handler, its arguments); the handler runs under that
    errstate, given the worker's pending dict, and the reply is (True, its
    result) or (False, the exception it raised)."""
    pending = {}  # a pass's key -> what it keeps for its later requests
    while True:
        try:
            errstate, handler, *args = _receive(requests)
        except EOFError:
            return
        try:
            with np.errstate(**errstate):
                reply = True, handler(pending, *args)
        except BaseException as exc:  # raised in the caller
            reply = False, exc
        try:
            parts = _frame(reply)
        except Exception:  # an exception that does not pickle: its type and message
            parts = _frame((False, WorkerError(f"{type(reply[1]).__name__}: {reply[1]}")))
        _write_all(replies, parts)


class Worker:
    """The direction worker, a forked process that runs the requests
    `alongside` sends it (`_serve`), and this process's ends of the two
    pipes to and from it. A fork copies the calling thread alone; that is
    safe here because the engine starts no thread and the worker calls no
    BLAS (every product is `matmul_stacked`'s einsum)."""

    def __init__(self):
        fds = []  # (read end, write end) of the pipe to the worker, then of the one from it
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            raise WorkerError(f"cannot start the direction worker: {exc}") from None
        to_worker, from_worker = fds[:2], fds[2:]
        if pid == 0:  # the worker: it never returns from here
            code = 1
            try:
                os.close(to_worker[1])
                os.close(from_worker[0])
                _serve(to_worker[0], from_worker[1])
                code = 0
            finally:
                os._exit(code)
        os.close(to_worker[0])
        os.close(from_worker[1])
        self.pid, self.requests, self.replies = pid, to_worker[1], from_worker[0]
        self.keys = itertools.count()

    def alongside(self, request: list, here):
        """(here(), the worker's reply to `request`): the worker runs the
        request, [handler, *arguments], while this process runs here(). The
        sent frame is dropped before here() runs, so what pickling the
        request gathered is not held here meanwhile. The worker's exception
        is raised once here() has returned. If here() or the wait for the
        reply raises, or the worker has ended, the worker is stopped, so no
        stale reply is read later, and an ended worker raises
        `WorkerError`."""
        if self.pid is None:
            raise WorkerError("the direction worker was stopped")
        try:
            message = _frame([np.geterr(), *request])
            try:
                _write_all(self.requests, message)
            except OSError as exc:  # a broken pipe: the worker has ended
                raise WorkerError(f"cannot send to the direction worker: {exc}") from None
            del message
            result = here()
            try:
                ok, reply = _receive(self.replies)
            except (EOFError, OSError) as exc:
                raise WorkerError(f"no reply from the direction worker: {exc}") from None
        except BaseException:
            self.stop()
            raise
        if not ok:
            raise reply
        return result, reply

    def stop(self):
        """Kill and reap the worker and close this process's pipe ends; a
        stopped worker takes no more requests."""
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        os.close(self.requests)
        os.close(self.replies)
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


class InProcess:
    """An executor with `Worker.alongside`'s contract that runs each request
    in this process, after here(), on the very objects it names: nothing is
    pickled or copied. What its passes leave pending lives on it."""

    def __init__(self):
        self.pending, self.keys = {}, itertools.count()

    def alongside(self, request: list, here):
        """(here(), the request's result), run in that order."""
        handler, *args = request
        return here(), handler(self.pending, *args)


# the open `scope`: the workers it started, and None once one could not start
_scope = None


@contextlib.contextmanager
def scope():
    """A scope in which a large pass sends its backward direction to the
    direction worker (see the module docstring). The worker is forked at
    the first pass of at least WORKER_TERMS projection terms, so a scope
    that runs none starts no process, and it is killed and reaped when the
    scope closes, however it closes. A worker that was stopped inside the
    scope is replaced at the next such pass. A worker that cannot start,
    say because no process can be forked, is not asked for again: the
    scope's passes run in process, with the same bytes, and one line on
    stderr says so. A nested scope is the outer one."""
    global _scope
    if _scope is not None:
        yield
        return
    _scope = []
    try:
        yield
    finally:
        workers, _scope = _scope, None
        for worker in filter(None, workers):
            worker.stop()


def worker_for(terms: int):
    """The executor of a pass whose input projection makes `terms` terms:
    inside a scope, if terms is at least WORKER_TERMS and no worker of the
    scope has failed to start, the scope's worker, started if need be;
    else a new `InProcess`."""
    if _scope is None or terms < WORKER_TERMS or None in _scope:
        return InProcess()
    if not _scope or _scope[-1].pid is None:
        try:
            _scope.append(Worker())
        except WorkerError as exc:
            _scope.append(None)
            print(f"warning: {exc}; passes run in turn", file=sys.stderr)
            return InProcess()
    return _scope[-1]
