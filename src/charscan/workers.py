"""Forked helper processes: work split into chunks, results back in order.

_forked_map runs chunk i on process i mod workers, this process being
process 0, and hands the results back in order through pipes, so a caller
sees what the one-process route gives. Each helper is forked from this
process, so it reads what this process held at the fork without a copy, and
ignores SIGINT: an interrupt is this process's, which kills and reaps every
helper. A ValueError raised by a helper's chunk is sent back and raised here,
where the caller would have met it on the one-process route; any other
failure ends the helper's pipe early, an OSError here.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import signal
import sys
import traceback
from collections.abc import Callable, Iterator
from typing import NoReturn


def _allowed_cpus() -> int:
    """The number of CPUs this process may run on, or 1 where it cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _processes(count: int) -> int:
    """How many processes share count independent parts: every CPU this
    process may use, at most count and at least 1, and 1 without os.fork."""
    return max(min(_allowed_cpus(), count), 1) if hasattr(os, "fork") else 1


def _received(pipe: io.BufferedReader):
    """The next length-prefixed result a forked helper wrote to pipe.

    A ValueError the helper's chunk raised is raised here instead.
    """
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        data = pipe.read(size)
        if len(data) == size:
            result, error = pickle.loads(data)
            if error is not None:
                raise error
            return result
    raise OSError("forked helper ended before its last chunk")


def _serve(
    chunk: Callable[[int], object],
    indices: range,
    pipes: list[io.BufferedReader],
    write_fd: int,
) -> NoReturn:
    """A forked helper's life: write chunk(i) for each index to write_fd, exit.

    It ignores SIGINT, closes the read ends it inherited, writes each result
    pickled and length-prefixed, flushing after each, and leaves through
    os._exit, so it never flushes an inherited buffer or runs exit hooks. A
    chunk's ValueError is written in place of its result, and the helper
    stops there. os._exit skips the report of an uncaught exception, so a
    helper that fails otherwise writes its traceback to fd 2 itself. It does
    so while its pipe is still open: the command kills every helper once a
    pipe ends early, and os._exit is what closes the pipe.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
        for pipe in pipes:
            pipe.close()
        out = open(write_fd, "wb")
        for i in indices:
            try:
                result = (chunk(i), None)
            except ValueError as error:
                result = (None, error)
            data = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
            out.write(len(data).to_bytes(8, "little"))
            out.write(data)
            out.flush()
            if result[1] is not None:
                break
        status = 0
    except Exception:
        with contextlib.suppress(OSError), open(2, "w", closefd=False) as err:
            traceback.print_exc(file=err)
    finally:
        os._exit(status)


@contextlib.contextmanager
def _forked_map(
    chunk: Callable[[int], object], count: int, workers: int
) -> Iterator[Iterator]:
    """Yield an iterator over chunk(0), ..., chunk(count - 1), in order.

    With workers > 1 (capped at count) and os.fork, chunk i runs on process
    i mod workers: this process is process 0, and each other is a forked
    helper that writes its results, in order, to a pipe of its own that this
    process reads between its own chunks. Every helper is forked before
    chunk 0 runs. A helper blocks once its pipe is full, so it runs at most a
    pipe's worth of results ahead. SIGINT is blocked across each fork, so an
    interrupt reaches this process alone. On leaving, every helper is
    reaped, and if the caller failed, killed first; a helper that fails ends
    its pipe early, which fails the read as an OSError.
    """
    workers = min(workers, count) if hasattr(os, "fork") else 1
    if workers < 2:
        yield map(chunk, range(count))
        return
    sys.stdout.flush()
    sys.stderr.flush()
    pids: list[int] = []
    pipes: list[io.BufferedReader] = []
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            # An interrupt waits until the helper is on the list to kill.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(chunk, range(k, count, workers), pipes, write_fd)
                pids.append(pid)
            finally:
                os.close(write_fd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield (
            chunk(i) if i % workers == 0 else _received(pipes[i % workers - 1])
            for i in range(count)
        )
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)
