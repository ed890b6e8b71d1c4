"""File-level parallelism on forked worker processes, without a process pool.

``map_forked`` forks up to ``workers`` children, which claim items from one
shared queue, largest first, and stream back each result as it is done.
The parent computes nothing: it feeds the queue, reads the children's pipes
and puts the results back in item order. An item whose child dies is tried
again alone in a fresh child, and recorded as failed only if that child dies
too, so an input that kills a worker costs that input and nothing else.

The queue is a pipe holding each item's position as 4 bytes. The parent
writes at most ``PIPE_BUF`` bytes at a time (each write is atomic) and every
child reads exactly 4 bytes at a time (each read is serialized), so no two
children ever claim one item and no read returns part of a position.
A result is a length-prefixed pickle of ``(position, result)``; pickles are
only read back from the children this module forked.
"""

from __future__ import annotations

import os
import pickle
import selectors
import signal
import time
from collections.abc import Callable, Iterable, Iterator

from .records import field, record

# a pipe holds 64 KiB, so a read that fills this left more waiting
_READ_SIZE = 1 << 16
# the queue is written in atomic pieces of at most PIPE_BUF (4,096 on Linux)
_QUEUE_WRITE = 4096
# the parent drains the pipes at most this often, so that it does not wake,
# and take a CPU from a worker, for each result
_DRAIN_INTERVAL_S = 0.005


@record(slots=True)
class _Child:
    """A forked worker: its pid, the one position it was given (None for a
    child of the shared queue), and the bytes of a result still arriving."""

    pid: int
    position: int | None
    pending: bytearray = field(default_factory=bytearray)


def map_forked(func: Callable, items: list, workers: int, weights: list[int],
               failed: Callable) -> list:
    """``[func(item) for item in items]``, computed in up to ``workers``
    forked children that take the items in order of ``weights``, heaviest
    first. ``func`` must not return None, which marks a missing result. An
    item whose lone child dies gives ``failed(item, why)``."""
    run = _Run(func, items, workers)
    try:
        run.queue(sorted(range(len(items)), key=weights.__getitem__, reverse=True))
        run.alone([i for i, result in enumerate(run.results) if result is None])
    finally:
        run.close()
    return [result if result is not None else failed(items[i], run.deaths[i])
            for i, result in enumerate(run.results)]


class _Run:
    """The children of one ``map_forked`` call and the results they sent."""

    def __init__(self, func: Callable, items: list, workers: int) -> None:
        self.func = func
        self.items = items
        self.workers = workers
        self.results: list = [None] * len(items)
        self.received = 0
        self.deaths: dict[int, str] = {}  # position -> why its lone child died
        self.children: dict[int, _Child] = {}  # read end of its pipe -> child
        self.selector = selectors.DefaultSelector()
        self.queue_read: int | None = None
        self.queue_write: int | None = None
        self.unsent = memoryview(b"")  # positions not yet in the queue

    def queue(self, order: list[int]) -> None:
        """Run ``order`` through the shared queue. A child that dies while
        the queue surely still holds items is replaced; what the dead
        children were computing is left missing from ``results``."""
        self.queue_read, self.queue_write = os.pipe()
        os.set_blocking(self.queue_write, False)
        self.unsent = memoryview(b"".join(i.to_bytes(4, "big") for i in order))
        self._feed()
        lost = 0
        for _ in range(self.workers):
            self._start(None)
        while self.children:
            for child, status in self._poll():
                lost += status != 0
                # each live child holds at most one item and each dead one
                # lost at most one: past those, the queue still has items
                if status != 0 and (len(self.items) - self.received
                                    - len(self.children) - lost) > 0:
                    self._start(None)
        os.close(self.queue_read)
        self.queue_read = None
        if self.queue_write is not None:
            self.selector.unregister(self.queue_write)
            os.close(self.queue_write)
            self.queue_write = None

    def alone(self, positions: list[int]) -> None:
        """Run each of ``positions`` in a child of its own, ``workers`` at a
        time, and note why each child that died without a result died."""
        waiting = iter(positions)
        for position in waiting:
            self._start(position)
            if len(self.children) == self.workers:
                break
        while self.children:
            for child, status in self._poll():
                if self.results[child.position] is None:
                    self.deaths[child.position] = _why(status)
                position = next(waiting, None)
                if position is not None:
                    self._start(position)

    def _start(self, position: int | None) -> None:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            claims = _claims(self.queue_read) if position is None else (position,)
            inherited = [read_fd, *self.children]
            if self.queue_write is not None:
                inherited.append(self.queue_write)
            _child(self.func, self.items, claims, write_fd, inherited)
        self.children[read_fd] = child = _Child(pid, position)
        os.close(write_fd)
        self.selector.register(read_fd, selectors.EVENT_READ, child)

    def _poll(self) -> list[tuple[_Child, int]]:
        """Read what the children sent and feed the queue; return each child
        that has exited, reaped, with its wait status."""
        exited = []
        full = False
        for key, _events in self.selector.select():
            if key.data is None:
                self._feed()
                continue
            data = os.read(key.fd, _READ_SIZE)
            if data:
                self._take(key.data, data)
                full |= len(data) == _READ_SIZE
                continue
            self.selector.unregister(key.fd)
            os.close(key.fd)
            child = self.children.pop(key.fd)
            exited.append((child, os.waitpid(child.pid, 0)[1]))
        # with every unfinished item in a child, see each exit at once
        if self.children and not full and (
                self.received + len(self.children) < len(self.items)):
            time.sleep(_DRAIN_INTERVAL_S)
        return exited

    def _take(self, child: _Child, data: bytes) -> None:
        """Store each ``(position, result)`` that ``data`` completes."""
        pending = child.pending
        pending += data
        start = 0
        while len(pending) - start >= 8:
            end = start + 8 + int.from_bytes(pending[start:start + 8], "big")
            if end > len(pending):
                break
            position, result = pickle.loads(pending[start + 8:end])
            self.results[position] = result
            self.received += 1
            start = end
        del pending[:start]

    def _feed(self) -> None:
        """Write what the queue has room for; close it once all is sent."""
        fd = self.queue_write
        try:
            while self.unsent:
                sent = os.write(fd, self.unsent[:_QUEUE_WRITE])
                self.unsent = self.unsent[sent:]
        except BlockingIOError:
            if fd not in self.selector.get_map():
                self.selector.register(fd, selectors.EVENT_WRITE, None)
            return
        if fd in self.selector.get_map():
            self.selector.unregister(fd)
        os.close(fd)
        self.queue_write = None

    def close(self) -> None:
        """Kill and reap every child still running, and close every pipe."""
        for fd, child in self.children.items():
            os.kill(child.pid, signal.SIGKILL)
            os.waitpid(child.pid, 0)
            os.close(fd)
        self.children.clear()
        for fd in (self.queue_read, self.queue_write):
            if fd is not None:
                os.close(fd)
        self.selector.close()


def _claims(queue_fd: int) -> Iterator[int]:
    """The positions this child takes from the shared queue, until it is
    empty and closed."""
    while claim := os.read(queue_fd, 4):
        yield int.from_bytes(claim, "big")


def _child(func: Callable, items: list, claims: Iterable[int], write_fd: int,
           inherited: list[int]) -> None:
    """Compute ``func`` over the claimed items in this forked child, writing
    each result as it is done, then exit: the child never returns into the
    caller, and never flushes the stdio it inherited."""
    status = 1
    try:
        for fd in inherited:  # the parent's ends of the pipes
            os.close(fd)
        for position in claims:
            data = pickle.dumps((position, func(items[position])),
                                pickle.HIGHEST_PROTOCOL)
            view = memoryview(len(data).to_bytes(8, "big") + data)
            while view:
                view = view[os.write(write_fd, view):]
        status = 0
    except Exception as exc:
        os.write(2, f"soldefect: worker: {type(exc).__name__}: {exc}\n".encode())
    finally:
        os._exit(status)


def _why(status: int) -> str:
    if os.WIFSIGNALED(status):
        number = os.WTERMSIG(status)
        try:
            return f"was killed by signal {number} ({signal.Signals(number).name})"
        except ValueError:
            return f"was killed by signal {number}"
    return f"exited with status {os.waitstatus_to_exitcode(status)}"
