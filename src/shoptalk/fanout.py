"""Run one piece of work over contiguous ranges, on every available CPU.

The work of a command is numbered, in units the command picks (the jobs
of a generation, the bytes of a dataset), and split into contiguous
ranges, one per process.  Each range after the first runs in a process
forked once per range after everything the work reads has been built; the
calling process then runs the first range itself.  A child pickles the
value its work returns back over a pipe, and run returns every range's
value as its work returned it, in range order: no caller reshapes a value
for the pipe.  A work whose ranges do not depend on one another, and
whose values are combined in range order, so gives the same result on any
number of processes.

A child shares the parent's pages copy-on-write, and pays a fault for each
page it writes to before it earns anything: hence the fewest units per
process that each command sets, MIN_SHARE for the jobs of a generation.
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, Optional

from .errors import ForkedProcessError, ShoptalkError

# Fewest jobs per process.  On 2 vCPUs with Python 3.11, a child forked
# from the 76 MB heap of a 20,000-product world took 9,900 page faults and
# ran about 0.28 s longer than the same work in-process, while one
# conversation costs 0.2-1.4 ms.
MIN_SHARE = 1000

# work(w, jobs) -> any value pickle carries: do range ``w``, whose units
# ``jobs`` yields
Work = Callable[[int, Iterable[int]], object]


@dataclass
class _Child:
    pid: int
    units: range
    result: BinaryIO  # read end of the pipe the child sends its outcome on
    reaped: bool = False


def available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return 1


def split(total: int, min_share: Optional[int] = None) -> list[range]:
    """``total`` units as contiguous ranges, one per process, each of at
    least ``min_share`` units (None: MIN_SHARE)."""
    n = max(1, min(available_cpus(), total // (MIN_SHARE if min_share is None else min_share)))
    return [range(total * w // n, total * (w + 1) // n) for w in range(n)]


def run(ranges: list[range], work: Work, doing: str) -> list:
    """The value of ``work`` for each of ``ranges``, in range order: range
    0 runs here and each other range in a forked child, whose ``jobs``
    stops it, quietly, once its parent is gone.

    A child's ShoptalkError or OSError is raised here as a ShoptalkError or
    an OSError with the same message, so the command prints the line a
    one-process run prints; any other failure of a child raises
    ForkedProcessError, naming the range as "the process ``doing`` first-
    last".  No child outlives this call.  A child leaves through os._exit,
    which flushes no file: a work that writes one flushes it itself."""
    children: list[_Child] = []
    try:
        if len(ranges) > 1:
            # so that a collection in a child does not write to the
            # parent's pages
            gc.freeze()
            try:
                for w in range(1, len(ranges)):
                    children.append(_fork(w, ranges[w], work, children))
            finally:
                gc.unfreeze()
        return [work(0, ranges[0]), *(_join(child, doing) for child in children)]
    finally:
        for child in children:
            child.result.close()
            if not child.reaped:
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)


class _Orphaned(Exception):
    """The process that forked a child is gone: no one will read its
    value."""


def _while_parent(jobs: range, parent: int) -> Iterator[int]:
    """``jobs`` one at a time, each once ``parent`` is seen to be still the
    parent of this process; raises _Orphaned when it is not."""
    for job in jobs:
        if os.getppid() != parent:
            raise _Orphaned
        yield job


def _fork(w: int, units: range, work: Work, earlier: list[_Child]) -> _Child:
    parent = os.getpid()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _child(w, _while_parent(units, parent), work, read_end, write_end, earlier)
    except OSError:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)
    return _Child(pid, units, os.fdopen(read_end, "rb"))


def _child(
    w: int, jobs: Iterable[int], work: Work, read_end: int, write_end: int,
    earlier: list[_Child],
) -> None:
    """The whole life of a child: run range ``w``, send the outcome, exit.
    Never returns."""
    code = 1
    try:
        # a child must hold no reader of its own pipe or of an earlier
        # child's: were the parent gone, a value larger than the pipe's
        # buffer would block forever, or until this child exits
        os.close(read_end)
        for child in earlier:
            child.result.close()
        try:
            outcome = {"value": work(w, jobs)}
        except ShoptalkError as exc:
            # by its message: an error with its own __init__, say
            # MalformedRecordError, does not unpickle
            outcome = {"error": str(exc)}
        except OSError as exc:
            outcome = {"io_error": str(exc)}
        with open(write_end, "wb") as pipe:
            pickle.dump(outcome, pipe)
        code = 0
    except (_Orphaned, BrokenPipeError, KeyboardInterrupt, SystemExit):
        # the parent is gone, say killed, or the whole process group was
        # interrupted or terminated: stop, quietly
        pass
    except BaseException:
        sys.excepthook(*sys.exc_info())  # prints the traceback
        sys.stderr.flush()
    finally:
        os._exit(code)


def _join(child: _Child, doing: str) -> object:
    """The value ``child`` sent, once it has exited with it.  Only the
    outcome of a child that exited 0 is decoded: it sent the whole of it."""
    # read to the end before waiting: a value larger than the pipe's buffer
    # blocks the child until it is read
    outcome = child.result.read()
    _, status = os.waitpid(child.pid, 0)
    child.reaped = True
    if status != 0:
        raise ForkedProcessError(
            f"the process {doing} {child.units.start}-{child.units.stop - 1} "
            f"ended with status {os.waitstatus_to_exitcode(status)}"
        )
    outcome = pickle.loads(outcome)
    if "error" in outcome:
        raise ShoptalkError(outcome["error"])
    if "io_error" in outcome:
        raise OSError(outcome["io_error"])
    return outcome["value"]
