"""Turn and grounding-reference data model shared by the dialog stages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .annotate import OpinionSpan

CUSTOMER = "customer"
ASSISTANT = "assistant"

ACT_SEARCH_QUESTION = "search_question"
ACT_SEARCH_ANSWER = "search_answer"
SEARCH_ACTS = (ACT_SEARCH_QUESTION, ACT_SEARCH_ANSWER)


@dataclass(frozen=True)
class GroundingRef:
    """Provenance link from an utterance to one review sentence span."""

    review_id: str
    sentence_ordinal: int
    feature: str
    score: float
    label: str

    @classmethod
    def from_span(cls, span: OpinionSpan) -> "GroundingRef":
        return cls(
            review_id=span.review_id,
            sentence_ordinal=span.sentence_ordinal,
            feature=span.feature_canonical,
            score=span.polarity_score,
            label=span.polarity_label,
        )

    @property
    def identity(self) -> tuple[str, int, str]:
        """The grounded span's identity; see OpinionSpan.identity."""
        return (self.review_id, self.sentence_ordinal, self.feature)

    def to_record(self) -> dict:
        return {
            "review_id": self.review_id,
            "sentence_ordinal": self.sentence_ordinal,
            "feature": self.feature,
            "score": self.score,
            "label": self.label,
        }


@dataclass(frozen=True)
class Turn:
    speaker: str
    text: str
    act: str
    product_id: Optional[str] = None
    feature: Optional[str] = None
    grounding: tuple[GroundingRef, ...] = ()

    def to_record(self) -> dict:
        return {
            "speaker": self.speaker,
            "text": self.text,
            "act": self.act,
            "product_id": self.product_id,
            "feature": self.feature,
            "grounding": [ref.to_record() for ref in self.grounding],
        }
