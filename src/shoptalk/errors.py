"""Exception types shared across the pipeline, and the readers that
raise them."""

import json
from contextlib import contextmanager
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


def read_lines(path):
    """(line number, line) for each non-blank line of the UTF-8 text file
    ``path``, one at a time.  Lines end at ``\\n`` only: a bare ``\\r`` is
    JSON whitespace, not the end of a record.  See decoding."""
    with decoding(path), open(path, "r", encoding="utf-8", newline="\n") as fh:
        for line_no, line in enumerate(fh, 1):
            if line.strip():
                yield line_no, line


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
    """A forked process generating a range of a run ended without sending
    its report."""


class SchemaViolationError(ShoptalkError):
    """A dataset line does not conform to the conversation schema."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"schema violation at line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason
