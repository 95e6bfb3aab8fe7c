"""Opinion index: (product, feature, polarity) -> ranked spans.  World.cover,
for both commands, extends it in place one batch of products at a time, and
``generate`` covers every product in one batch; nothing else changes it.

Every opinion uttered downstream is grounded by a span retrieved here.
Ranking is deterministic: descending |score|, ties broken by review id,
sentence ordinal, then surface form.  Per (product, polarity), the index
also ranks the features by span count, descending, ties by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .annotate import NEGATIVE, NEUTRAL, POSITIVE, OpinionSpan
from .corpus import ReviewStore
from .errors import DanglingSpanError

SpanIdentity = tuple[str, int, str]
IndexKey = tuple[str, str, str]  # (product_id, feature_canonical, polarity_label)
FeatureRanking = tuple[tuple[str, int], ...]  # (feature, span count), best first


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
    feature_ranks: dict[tuple[str, str], FeatureRanking]  # (product, label)
    non_neutral_counts: dict[str, int]  # keyed in ascending product-id order

    def spans_for(self, key: IndexKey) -> tuple[OpinionSpan, ...]:
        return self.entries.get(key, ())

    def extend(self, other: "OpinionIndex") -> None:
        """Add, in place, an index built over the reviews of other products:
        every part is per product, so the result is the index of both sets
        of reviews together."""
        self.entries.update(other.entries)
        self.feature_ranks.update(other.feature_ranks)
        counts = sorted({**self.non_neutral_counts, **other.non_neutral_counts}.items())
        self.non_neutral_counts.clear()
        self.non_neutral_counts.update(counts)


def build_index(
    store: ReviewStore,
    sentences: dict[str, tuple[str, ...]],
    spans: Iterable[OpinionSpan],
) -> OpinionIndex:
    """Group spans by (product, feature, label); rejects spans whose review
    is not in the store or whose sentence is not in the sentence map."""
    grouped: dict[IndexKey, list[OpinionSpan]] = {}
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
    entries = {
        key: tuple(sorted(group, key=_rank_key)) for key, group in grouped.items()
    }
    features: dict[tuple[str, str], list[tuple[str, int]]] = {}
    counts: dict[str, int] = {}
    for (product_id, feature, label), ranked in entries.items():
        if label != NEUTRAL:
            features.setdefault((product_id, label), []).append((feature, len(ranked)))
            counts[product_id] = counts.get(product_id, 0) + len(ranked)
    return OpinionIndex(
        entries=entries,
        feature_ranks={
            key: tuple(sorted(pairs, key=lambda item: (-item[1], item[0])))
            for key, pairs in features.items()
        },
        non_neutral_counts=dict(sorted(counts.items())),
    )


def eligible_spans(
    index: OpinionIndex,
    product_id: str,
    feature: str,
    label: str,
    exclude: frozenset[SpanIdentity] | set[SpanIdentity],
) -> list[OpinionSpan]:
    """The spans for the key in rank order, less those whose identity is in
    ``exclude``.  Neutral queries are a caller error; neutral spans are
    never returned."""
    if label not in (POSITIVE, NEGATIVE):
        raise ValueError(f"query label must be positive or negative, got {label!r}")
    return [
        span
        for span in index.spans_for((product_id, feature, label))
        if span.identity not in exclude
    ]


def features_of(
    index: OpinionIndex, product_id: str, label: str
) -> list[tuple[str, int]]:
    """Features of a product with their ``label`` span counts, sorted by
    descending count then ascending name."""
    return list(index.feature_ranks.get((product_id, label), ()))
