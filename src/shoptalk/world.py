"""The derived corpus "world": catalog, review store, sentence texts and
opinion index, built in one place.

Generation grounds every opinion in this derivation; the validator calls
the same builder on the snapshot instead of reading anything the
generator wrote.  Each review is split into sentences exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import annotate, opinion_index
from .annotate import Lexicons, PolarityConfig
from .corpus import ProductCatalog, ReviewStore
from .opinion_index import OpinionIndex


@dataclass(frozen=True)
class World:
    catalog: ProductCatalog
    store: ReviewStore
    sentences: dict[str, tuple[str, ...]]  # review id -> sentence texts
    index: OpinionIndex


def build_world(
    catalog: ProductCatalog,
    store: ReviewStore,
    lexicons: Lexicons,
    polarity: PolarityConfig = PolarityConfig(),
    annotations: Optional[str | Path] = None,
    strict: bool = False,
) -> World:
    """Split every review, extract lexicon spans, let imported annotations
    (if given) override them, and index the result."""
    sentences = annotate.sentence_map(store)
    spans = annotate.annotate_store(sentences, lexicons, polarity)
    if annotations:
        imported = annotate.import_annotations(annotations, sentences, polarity, strict)
        spans = annotate.merge_spans(spans, imported.spans)
    index = opinion_index.build_index(store, sentences, spans)
    return World(catalog, store, sentences, index)
