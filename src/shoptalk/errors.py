"""Exception types shared across the pipeline, the readers that raise
them, and the one way a file is written in place of another."""

import json
import os
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path


class ShoptalkError(Exception):
    """Base class for all pipeline errors."""


class MalformedRecordError(ShoptalkError):
    """A line in an input file could not be parsed (strict mode only)."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"malformed record at line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateIdError(ShoptalkError):
    """Two catalog records share a product id.  Always fatal."""

    def __init__(self, product_id: str, line_no: int):
        super().__init__(f"duplicate product id {product_id!r} at line {line_no}")
        self.product_id = product_id
        self.line_no = line_no


class InvalidConfigError(ShoptalkError, ValueError):
    """A generation setting, a conversation template or a config file is
    invalid.  Also a ValueError, so a caller that catches a bad value as
    ValueError keeps working."""


class UndecodableInputError(ShoptalkError):
    """An input file is not UTF-8 text."""

    def __init__(self, path, reason: str):
        super().__init__(f"{path} is not UTF-8 text: {reason}")


@contextmanager
def decoding(path):
    """Report a UTF-8 decoding failure in the block that reads ``path`` as
    an UndecodableInputError naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise UndecodableInputError(path, exc.reason) from exc


def read_text(path) -> str:
    """The content of the UTF-8 text file ``path``; see decoding."""
    with decoding(path):
        return Path(path).read_text(encoding="utf-8")


def read_lines(path, start: int = 0, stop=None):
    """(line number, line) for each non-blank line of the UTF-8 text file
    ``path``, one at a time.  Lines end at ``\\n`` only: a bare ``\\r`` is
    JSON whitespace, not the end of a record.  With a byte range, only the
    lines that begin in it are read: those that begin at byte ``start`` or
    later and, unless ``stop`` is None, before byte ``stop``.  So ranges
    that meet part the lines between them whatever bytes the cuts fall on.
    The line numbers count every line, blank ones too, from 1 at the
    range's first line; see lines_before.  See decoding."""
    with decoding(path), open(path, "rb") as fh:
        position, stop = start, sys.maxsize if stop is None else stop
        if start:
            # a range that starts inside a line leaves that line to the
            # range it began in
            fh.seek(start - 1)
            position += len(fh.readline()) - 1
        # lines taken in batches of about 64 KiB cost less than one by one
        lines = chain.from_iterable(iter(lambda: fh.readlines(1 << 16), []))
        for line_no, line in enumerate(lines, 1):
            if position >= stop:
                return
            position += len(line)
            text = line.decode()
            if text.strip():
                yield line_no, text


def lines_before(path, start: int) -> int:
    """The number of lines of ``path`` before the first line that
    read_lines(path, start) reads: add it to that reader's line numbers to
    get the file's own.  It reads the bytes up to ``start``, so readers
    call it only to name a line in an error."""
    if not start:
        return 0
    count = 0
    with open(path, "rb") as fh:
        left = start - 1
        while left:
            chunk = fh.read(min(left, 1 << 20))
            if not chunk:
                return count
            count += chunk.count(b"\n")
            left -= len(chunk)
        return count + fh.readline().endswith(b"\n")


def partial_path(path: Path) -> Path:
    """Where a file is written until it is complete (see replacing)."""
    return path.with_name(path.name + ".partial")


@contextmanager
def replacing(path):
    """A UTF-8 text file open for writing in place of ``path``.  The text
    goes to a partial file beside it (see partial_path) that replaces
    ``path`` only once the block ends; if the block fails, the partial file
    is removed and ``path`` is left as it was, so no reader ever meets a
    half-written file.  A symbolic link stays and the file it leads to is
    replaced; a FIFO or a device (``/dev/stdout``, say) is written to."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    path = Path(os.path.realpath(path))
    partial = partial_path(path)
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def parse_json(text: str):
    """``json.loads(text)``; JSON nested too deeply for the parser raises
    ValueError, as any other malformed JSON does, not RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


class InvalidLexiconError(ShoptalkError):
    """A lexicon violates its bounds (weights, multipliers, casing)."""


class DanglingSpanError(ShoptalkError):
    """An opinion span references a review or sentence that does not exist."""

    def __init__(self, review_id: str, detail: str = ""):
        msg = f"span references unknown sentence in review {review_id!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.review_id = review_id


class NoEligibleProductError(ShoptalkError):
    """No catalog product has enough indexed opinions to seed a dialog."""


class PhrasebankError(ShoptalkError):
    """The phrasebank is missing a section or contains a bad template."""


class UnboundSlotError(ShoptalkError):
    """Realization was attempted on a pair with unfilled slots."""


class InvalidStateError(ShoptalkError):
    """A dialog state violates its invariants; indicates a caller bug."""


class GenerationExhaustedError(ShoptalkError):
    """All retries were consumed without satisfying a conversation template."""

    def __init__(self, template_id: int, attempts: int):
        super().__init__(
            f"template {template_id} exhausted after {attempts} attempts"
        )
        self.template_id = template_id
        self.attempts = attempts


class ForkedProcessError(ShoptalkError):
    """A forked process running a range of a command's work did not exit
    0: what it sent of its value is not decoded (see fanout.run)."""


class SchemaViolationError(ShoptalkError):
    """A dataset line does not conform to the conversation schema."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"schema violation at line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason
