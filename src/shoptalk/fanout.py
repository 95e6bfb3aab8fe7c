"""Generate on every available CPU, into one dataset.

The jobs of a run, numbered in (template id, instance ordinal) order, are
split into contiguous ranges, one per process.  The calling process runs
range 0 itself, into the dataset's partial file.  Each other range runs in
a process forked once per range after everything generation reads has
been built; it writes its range to a part file beside the dataset and sends
its report counts back over a pipe.  The parent appends the parts in range
order and adds the counts in range order, so the dataset and the report do
not depend on the number of processes.  Every conversation draws from its
own seed stream, so no range depends on another.

A child shares the parent's pages copy-on-write, and pays a fault for each
page it writes to before it earns anything: hence MIN_SHARE.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .assembly import GenerationReport
from .dataset_io import partial_path
from .errors import ForkedProcessError, ShoptalkError

# Fewest jobs per process.  On 2 vCPUs with Python 3.11, a child forked
# from the 76 MB heap of a 20,000-product world took 9,900 page faults and
# ran about 0.28 s longer than the same work in-process, while one
# conversation costs 0.2-1.4 ms.
MIN_SHARE = 1000

# work(jobs, path, parts) -> report: generate ``jobs`` into ``path``, then
# append the files ``parts`` yields
Work = Callable[[Iterable[int], Path, Iterable[Path]], GenerationReport]


@dataclass
class _Child:
    pid: int
    jobs: range
    report: BinaryIO  # read end of the pipe the child sends its outcome on
    part: Path
    reaped: bool = False


def available_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return 1


def split(total: int) -> list[range]:
    """``total`` jobs as contiguous ranges, one per process."""
    n = max(1, min(available_cpus(), total // MIN_SHARE))
    return [range(total * w // n, total * (w + 1) // n) for w in range(n)]


def run(total: int, path: Path, work: Work) -> GenerationReport:
    """Run ``work`` over the ``total`` jobs split into ranges and return the
    report of all of them: range 0 here, into ``path``, and each other
    range in a forked child, into a part file that range 0's ``work``
    appends.  A child's ShoptalkError or OSError is raised here as a
    ShoptalkError or an OSError with the same message, so the command prints
    the line a one-process run prints; any other failure of a child raises
    ForkedProcessError.  No child outlives this call, and no part file is
    left behind."""
    ranges = split(total)
    children: list[_Child] = []
    try:
        if len(ranges) > 1:
            # so that a collection in a child does not write to the
            # parent's pages
            gc.freeze()
            try:
                for w, jobs in enumerate(ranges[1:], 1):
                    children.append(_fork(jobs, path.with_name(f"{path.name}.part{w}"), work))
            finally:
                gc.unfreeze()
        added: list[dict] = []
        report = work(ranges[0], path, _join(children, added))
        for counts in added:
            report.add(counts)
        return report
    finally:
        for child in children:
            child.report.close()
            if not child.reaped:
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
            child.part.unlink(missing_ok=True)
            partial_path(child.part).unlink(missing_ok=True)


class _Orphaned(Exception):
    """The process that forked a child is gone: no one will read its report
    or append its part."""


def _while_parent(jobs: range, parent: int) -> Iterator[int]:
    """``jobs`` one at a time, each once ``parent`` is seen to be still the
    parent of this process; raises _Orphaned when it is not."""
    for job in jobs:
        if os.getppid() != parent:
            raise _Orphaned
        yield job


def _fork(jobs: range, part: Path, work: Work) -> _Child:
    parent = os.getpid()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _child(_while_parent(jobs, parent), part, work, read_end, write_end)
    except OSError:
        os.close(read_end)
        raise
    finally:
        os.close(write_end)
    return _Child(pid, jobs, os.fdopen(read_end, "rb"), part)


def _child(jobs: Iterable[int], part: Path, work: Work, read_end: int, write_end: int) -> None:
    """The whole life of a child: run ``jobs``, send the outcome, exit.
    Never returns."""
    code = 1
    try:
        # a child must not hold a reader of its own pipe: were the parent
        # gone, a report larger than the pipe's buffer would block forever
        os.close(read_end)
        try:
            outcome = {"counts": work(jobs, part, ()).counts()}
        except ShoptalkError as exc:
            outcome = {"error": str(exc)}
        except OSError as exc:
            outcome = {"io_error": str(exc)}
        with open(write_end, "w", encoding="utf-8") as pipe:
            json.dump(outcome, pipe)
        code = 0
    except (_Orphaned, BrokenPipeError):
        # the parent is gone, say killed: stop, quietly, and take the part
        # that no one will append
        part.unlink(missing_ok=True)
    except BaseException:
        # unreported, the part is appended by no one
        part.unlink(missing_ok=True)
        sys.excepthook(*sys.exc_info())  # prints the traceback
        sys.stderr.flush()
    finally:
        os._exit(code)


def _join(children: list[_Child], added: list[dict]) -> Iterator[Path]:
    """Each child's part file, in range order, once the child has exited
    with its counts; the counts go to ``added``."""
    for child in children:
        # read to the end before waiting: a report larger than the pipe's
        # buffer blocks the child until it is read
        outcome = child.report.read()
        _, status = os.waitpid(child.pid, 0)
        child.reaped = True
        outcome = json.loads(outcome) if outcome else {}
        if "error" in outcome:
            raise ShoptalkError(outcome["error"])
        if "io_error" in outcome:
            raise OSError(outcome["io_error"])
        if status != 0 or "counts" not in outcome:
            raise ForkedProcessError(
                f"the process generating jobs {child.jobs.start}-{child.jobs.stop - 1} "
                f"ended with status {os.waitstatus_to_exitcode(status)}"
            )
        added.append(outcome["counts"])
        yield child.part
