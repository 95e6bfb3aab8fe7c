"""Immutable opinion index: (product, feature, polarity) -> ranked spans.

Every opinion uttered downstream is grounded by a span retrieved here.
Ranking is deterministic: descending |score|, ties broken by review id,
sentence ordinal, then surface form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .annotate import NEGATIVE, NEUTRAL, POSITIVE, OpinionSpan
from .corpus import ReviewStore, Sentence
from .errors import DanglingSpanError

SpanIdentity = tuple[str, int, str]
IndexKey = tuple[str, str, str]  # (product_id, feature_canonical, polarity_label)


def _rank_key(span: OpinionSpan):
    return (
        -abs(span.polarity_score),
        span.review_id,
        span.sentence_ordinal,
        span.feature_surface,
    )


@dataclass(frozen=True)
class OpinionIndex:
    entries: dict[IndexKey, tuple[OpinionSpan, ...]]
    feature_directory: dict[str, frozenset[str]]
    non_neutral_counts: dict[str, int]  # keyed in ascending product-id order

    def spans_for(self, key: IndexKey) -> tuple[OpinionSpan, ...]:
        return self.entries.get(key, ())


def build_index(
    store: ReviewStore,
    sentences: dict[str, list[Sentence]],
    spans: Iterable[OpinionSpan],
) -> OpinionIndex:
    """Group spans by (product, feature, label); rejects spans whose review
    is not in the store or whose sentence is not in the sentence map."""
    grouped: dict[IndexKey, list[OpinionSpan]] = {}
    directory: dict[str, set[str]] = {}
    counts: dict[str, int] = {}
    for span in spans:
        review = store.get(span.review_id)
        if review is None:
            raise DanglingSpanError(span.review_id, "review not in store")
        if not 0 <= span.sentence_ordinal < len(sentences.get(span.review_id, ())):
            raise DanglingSpanError(
                span.review_id, f"sentence ordinal {span.sentence_ordinal}"
            )
        product_id = review.product_id
        key = (product_id, span.feature_canonical, span.polarity_label)
        grouped.setdefault(key, []).append(span)
        if span.polarity_label != NEUTRAL:
            directory.setdefault(product_id, set()).add(span.feature_canonical)
            counts[product_id] = counts.get(product_id, 0) + 1
    entries = {
        key: tuple(sorted(group, key=_rank_key)) for key, group in grouped.items()
    }
    return OpinionIndex(
        entries=entries,
        feature_directory={pid: frozenset(feats) for pid, feats in directory.items()},
        non_neutral_counts=dict(sorted(counts.items())),
    )


def query(
    index: OpinionIndex,
    product_id: str,
    feature: str,
    label: str,
    exclude: frozenset[SpanIdentity] | set[SpanIdentity] = frozenset(),
) -> Optional[OpinionSpan]:
    """First non-excluded span for the key, or None.  Neutral queries are a
    caller error; neutral spans are never returned."""
    if label not in (POSITIVE, NEGATIVE):
        raise ValueError(f"query label must be positive or negative, got {label!r}")
    for span in index.spans_for((product_id, feature, label)):
        if span.identity not in exclude:
            return span
    return None


def features_of(
    index: OpinionIndex, product_id: str, label: Optional[str] = None
) -> list[tuple[str, int]]:
    """Features of a product with non-neutral span counts, sorted by
    descending count then ascending name; restricted to one label if given."""
    labels = (POSITIVE, NEGATIVE) if label is None else (label,)
    counts: dict[str, int] = {}
    for feature in index.feature_directory.get(product_id, ()):
        total = sum(
            len(index.spans_for((product_id, feature, lab))) for lab in labels
        )
        if total:
            counts[feature] = total
    return sorted(counts.items(), key=lambda item: (-item[1], item[0]))
