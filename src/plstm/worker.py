"""Where a pass's backward direction runs: in a forked process, the direction
worker, or in this process.

An executor runs requests, each [handler, *arguments], in the order they
are sent. `send(request)` hands it one; `receive()` returns the result of
the oldest one not yet received, or raises its handler's exception; and
`alongside(request, here)`, written once on those two, sends the request,
runs here() in this process and receives, returning (here()'s result, the
handler's). A handler is called with the executor's pending dict first,
where a pass keeps what its later requests read, under a key the
executor's `keys` hands out, and runs under the errstate in force when its
request was sent. `Worker` runs each request in its process as soon as it
arrives, so whatever this process does between a send and its receive runs
beside it; `InProcess` queues each request and runs it in this process when
it is received. Each runs the same numpy operations in the same order, so
every byte is the same either way.

Inside a `scope()`, every pass gets the scope's worker, forked at the first
pass (`worker_for`). Every pass outside a scope, and the rest of a scope's
passes once its worker could not start, get a new `InProcess`, so what a
pass leaves pending goes when the pass's cache goes.
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
    `np.geterr()`, [handler, *arguments]), as `InProcess` queues it, and
    runs as `InProcess.receive` runs it, on an `InProcess` that holds what
    the passes keep for their later requests. The reply is (True, its
    result) or (False, the exception it raised)."""
    here = InProcess()
    while True:
        try:
            here.queue.append(_receive(requests))
        except EOFError:
            return
        try:
            reply = True, here.receive()
        except BaseException as exc:  # raised in the caller
            reply = False, exc
        try:
            parts = _frame(reply)
        except Exception:  # an exception that does not pickle: its type and message
            parts = _frame((False, WorkerError(f"{type(reply[1]).__name__}: {reply[1]}")))
        _write_all(replies, parts)


class _Executor:
    """What both executors share: `alongside`, on their own `send`,
    `receive`, `drain` and `stop`."""

    def alongside(self, request: list, here):
        """(here(), the handler's result for `request`): drop the replies a
        dropped caller left outstanding (`drain`), send the request, run
        here() and receive. If here() raises, the executor is stopped."""
        self.drain()
        self.send(request)
        with self.stopped_on_error():
            result = here()
        return result, self.receive()

    def drain(self):
        """Drop the replies a caller left outstanding. An `InProcess` has
        none to drop: it serves one pass, whose requests it runs only when
        they are received, and no later pass reads it."""

    stop = drain  # an `InProcess` has nothing to stop

    @contextlib.contextmanager
    def stopped_on_error(self):
        """Stop the executor if the block raises, so that no reply the
        block leaves outstanding is read later."""
        try:
            yield
        except BaseException:
            self.stop()
            raise


class Worker(_Executor):
    """The direction worker, a forked process that runs the requests `send`
    writes to it (`_serve`), and this process's ends of the two pipes to
    and from it. The worker runs each request as it arrives and blocks on
    writing its reply until `receive` reads it. So a request that may not
    fit the pipe's buffer is sent only when no reply is outstanding, and
    the worker holds at most one reply a request behind. A fork copies the
    calling thread alone; that is safe here because the engine starts no
    thread and the worker calls no BLAS (every product is
    `matmul_stacked`'s einsum)."""

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
        self.keys, self.outstanding = itertools.count(), 0  # replies sent for, not yet read

    @contextlib.contextmanager
    def _talking(self, failed: str):
        """Stop the worker if the block, a send or a receive, raises; a
        pipe that fails or closes, or a stopped worker, is a `WorkerError`."""
        if self.pid is None:
            raise WorkerError("the direction worker was stopped")
        with self.stopped_on_error():
            try:
                yield
            except (EOFError, OSError) as exc:  # a broken or closed pipe: the worker has ended
                raise WorkerError(f"{failed} the direction worker: {exc}") from None

    def send(self, request: list):
        """Frame `request`, [handler, *arguments], with the caller's
        `np.geterr()` and write it to the worker. The frame is dropped when
        this returns, so what pickling gathered is not held here."""
        with self._talking("cannot send to"):
            _write_all(self.requests, _frame((np.geterr(), request)))
        self.outstanding += 1

    def receive(self):
        """The worker's reply to the oldest request not yet received: the
        handler's result, or its exception, raised here."""
        with self._talking("no reply from"):
            ok, reply = _receive(self.replies)
        self.outstanding -= 1
        if not ok:
            raise reply
        return reply

    def drain(self):
        """Read and drop every outstanding reply, those of a caller that
        dropped its requests before receiving them all, so that the next
        reply read answers the next request sent."""
        while self.outstanding:
            with self._talking("no reply from"):
                _receive(self.replies)
            self.outstanding -= 1

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


class InProcess(_Executor):
    """An executor with `Worker`'s contract that runs each request in this
    process when it is received, on the very objects it names: nothing is
    pickled or copied. What its passes leave pending lives on it."""

    def __init__(self):
        self.pending, self.keys, self.queue = {}, itertools.count(), []

    def send(self, request: list):
        """Queue `request` with the caller's `np.geterr()`."""
        self.queue.append((np.geterr(), request))

    def receive(self):
        """The result of the oldest queued request, run now under the
        errstate it was sent with."""
        errstate, (handler, *args) = self.queue.pop(0)
        with np.errstate(**errstate):
            return handler(self.pending, *args)


# the open `scope`: the workers it started, and None once one could not start
_scope = None


@contextlib.contextmanager
def scope():
    """A scope in which every pass sends its backward direction to the
    direction worker (see the module docstring). The worker is forked at
    the scope's first pass, so a scope that runs none starts no process,
    and it is killed and reaped when the scope closes, however it closes.
    A worker that was stopped inside the scope is replaced at the next
    pass. A worker that cannot start,
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


def worker_for():
    """The executor of a pass: inside a scope, if no worker of the scope
    has failed to start, the scope's worker, started if need be; else a
    new `InProcess`."""
    if _scope is None or None in _scope:
        return InProcess()
    if not _scope or _scope[-1].pid is None:
        try:
            _scope.append(Worker())
        except WorkerError as exc:
            _scope.append(None)
            print(f"warning: {exc}; passes run in turn", file=sys.stderr)
            return InProcess()
    return _scope[-1]
