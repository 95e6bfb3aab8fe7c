"""Turn and grounding-reference data model shared by the dialog stages.

Both are slotted records, not frozen ones: reading a dataset builds one per
turn and one per grounding ref, and a frozen dataclass costs about four
times as much to build.  Being mutable, neither is hashable; nothing hashes
them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

CUSTOMER = "customer"
ASSISTANT = "assistant"

ACT_SEARCH_QUESTION = "search_question"
ACT_SEARCH_ANSWER = "search_answer"
SEARCH_ACTS = (ACT_SEARCH_QUESTION, ACT_SEARCH_ANSWER)


@dataclass(slots=True)
class GroundingRef:
    """Provenance link from an utterance to one review sentence span."""

    review_id: str
    sentence_ordinal: int
    feature: str
    score: float
    label: str

    @property
    def identity(self) -> tuple[str, int, str]:
        """The grounded span's identity; see OpinionSpan.identity."""
        return (self.review_id, self.sentence_ordinal, self.feature)


@dataclass(slots=True)
class Turn:
    speaker: str
    text: str
    act: str
    product_id: Optional[str] = None
    feature: Optional[str] = None
    grounding: tuple[GroundingRef, ...] = ()
