"""The derived corpus "world": catalog, review store, sentence texts and
opinion index, derived in one place (World.cover).

Generation grounds every opinion in this derivation; the validator runs
the same derivation on the snapshot instead of reading anything the
generator wrote.  A product's sentences and index entries depend only on
its own reviews: the lexicon scorer works per sentence, imported
annotations override per sentence, and every index key starts with the
product id.  So a world is derived in batches of products: ``generate``
covers every product in one batch, as seed sampling needs, and
``validate`` covers the products its dataset names as it reads them.
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
class World:
    """The catalog and store with the sentences and index derived from the
    reviews of every product covered so far.  ``pending`` holds the reviews
    of the products not covered yet; World.cover derives them into
    ``sentences`` and ``index`` in place."""

    catalog: ProductCatalog
    store: ReviewStore
    lexicons: Lexicons = field(repr=False)
    polarity: PolarityConfig = field(repr=False)
    annotations: Optional[Annotations] = field(repr=False)
    pending: dict[str, list[Review]] = field(repr=False)
    sentences: dict[str, tuple[str, ...]] = field(default_factory=dict)  # review id -> texts
    index: OpinionIndex = field(default_factory=lambda: OpinionIndex({}, {}, {}))

    def cover(self, product_ids: Iterable[str]) -> None:
        """Derive, in one batch, every product of ``product_ids`` not covered
        yet: split its reviews, extract lexicon spans, let imported
        annotations (if any) override them, and index the result.  A
        product without reviews has nothing to derive."""
        reviews = [
            review
            for product_id in product_ids
            for review in self.pending.pop(product_id, ())
        ]
        if not reviews:
            return
        sentences = annotate.sentence_map(reviews)
        spans = annotate.annotate_store(sentences, self.lexicons, self.polarity)
        if self.annotations is not None:
            imported = annotate.import_annotations(self.annotations, sentences, self.polarity)
            spans = annotate.merge_spans(spans, imported.spans)
        index = opinion_index.build_index(self.store, sentences, spans)
        del spans  # the merges below copy each map: drop what they no longer need first
        self.sentences.update(sentences)
        del sentences
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
    """The world of ``store`` with every product covered, or, if ``lazy``,
    none yet (see World.cover).  The annotations file is parsed here,
    once."""
    pending: dict[str, list[Review]] = {}
    for review in store:  # id order, so each product's reviews are too
        pending.setdefault(review.product_id, []).append(review)
    world = World(
        catalog, store, lexicons, polarity,
        annotate.read_annotations(annotations, strict) if annotations else None,
        pending,
    )
    if not lazy:
        world.cover(list(pending))
    return world
