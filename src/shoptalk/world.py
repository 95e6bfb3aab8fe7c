"""The derived corpus "world": catalog, review store, sentence texts and
opinion index, derived in one place.

Generation grounds every opinion in this derivation; the validator runs
the same derivation on the snapshot instead of reading anything the
generator wrote.  A product's sentences and index entries depend only on
its own reviews: the lexicon scorer works per sentence, imported
annotations override per sentence, and every index key starts with the
product id.  So a world can be derived all at once, as ``generate`` needs
for seed sampling, or lazily, one batch of products at a time, as
``validate`` needs for the products its dataset names (see World.cover).
Either way each review is split into sentences at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from . import annotate, opinion_index
from .annotate import Annotations, Lexicons, PolarityConfig
from .corpus import ProductCatalog, Review, ReviewStore
from .opinion_index import OpinionIndex


@dataclass(frozen=True)
class Derivation:
    """The steps that turn reviews into sentences and indexed spans."""

    store: ReviewStore
    lexicons: Lexicons
    polarity: PolarityConfig
    annotations: Optional[Annotations]

    def __call__(
        self, reviews: Iterable[Review]
    ) -> tuple[dict[str, tuple[str, ...]], OpinionIndex]:
        """Split ``reviews``, extract lexicon spans, let imported annotations
        (if any) override them, and index the result."""
        sentences = annotate.sentence_map(reviews)
        spans = annotate.annotate_store(sentences, self.lexicons, self.polarity)
        if self.annotations is not None:
            imported = annotate.import_annotations(self.annotations, sentences, self.polarity)
            spans = annotate.merge_spans(spans, imported.spans)
        return sentences, opinion_index.build_index(self.store, sentences, spans)


@dataclass(frozen=True)
class World:
    """The catalog and store with the sentences and index derived from the
    reviews of every product derived so far.  ``pending`` holds the reviews
    of the products a lazy world has yet to derive; World.cover derives
    them into ``sentences`` and ``index`` in place."""

    catalog: ProductCatalog
    store: ReviewStore
    sentences: dict[str, tuple[str, ...]]  # review id -> sentence texts
    index: OpinionIndex
    pending: dict[str, list[Review]] = field(default_factory=dict, repr=False)
    derive: Optional[Derivation] = field(default=None, repr=False)

    def cover(self, product_ids: Iterable[str]) -> None:
        """Derive, in one batch, every product of ``product_ids`` not derived
        yet; a product without reviews has nothing to derive, and a world
        built whole has nothing pending."""
        if not self.pending:
            return
        reviews = [
            review
            for product_id in product_ids
            for review in self.pending.pop(product_id, ())
        ]
        if reviews:
            sentences, index = self.derive(reviews)
            self.sentences.update(sentences)
            self.index.extend(index)


def build_world(
    catalog: ProductCatalog,
    store: ReviewStore,
    lexicons: Lexicons,
    polarity: PolarityConfig = PolarityConfig(),
    annotations: Optional[str | Path] = None,
    strict: bool = False,
    lazy: bool = False,
) -> World:
    """The world of ``store``, derived from every review now, or, if
    ``lazy``, from none yet (see World.cover).  The annotations file is
    parsed here, once."""
    derive = Derivation(
        store, lexicons, polarity,
        annotate.read_annotations(annotations, strict) if annotations else None,
    )
    if not lazy:
        return World(catalog, store, *derive(store))
    pending: dict[str, list[Review]] = {}
    for review in store:  # id order, as the whole derivation reads them
        pending.setdefault(review.product_id, []).append(review)
    return World(catalog, store, {}, OpinionIndex({}, {}, {}), pending, derive)
