"""Catalog and review ingestion from line-delimited JSON records.

Input formats (one UTF-8 JSON object per line):

  meta.jsonl    id, title, category_path, brand, os, memory, color, price,
                also_viewed, description (optional keys may be absent)
  reviews.jsonl id, product_id, text, rating (optional),
                normalized_text (optional override)

A line that is not such an object, with each field of its type, is
malformed; so is JSON nested too deeply to parse.  Both ingesters count
and skip a malformed line, or, with ``strict=True``, raise
MalformedRecordError naming it.

Text normalization is rule-based and idempotent; callers that want model
based punctuation restoration can pre-fill ``normalized_text`` upstream.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterator, Optional

from .errors import DuplicateIdError, MalformedRecordError, parse_json, read_lines

SEARCHABLE_FEATURES = ("brand", "os", "memory", "color")

_WS_RUN = re.compile(r"\s+")
_SPACE_BEFORE_PUNCT = re.compile(r"\s+([.!?,;:])")
_PUNCT_NO_SPACE = re.compile(r"([.!?])(?=[^\s.!?])")


def _space_after_sentence_punct(match: re.Match) -> str:
    # Leave decimal points ("1.5") and similar digit-adjacent periods alone.
    s = match.string
    i = match.start(1)
    if s[i] == "." and i > 0 and s[i - 1].isdigit() and s[i + 1].isdigit():
        return match.group(1)
    return match.group(1) + " "


def normalize_text(raw: str) -> str:
    """Normalize review text: collapse whitespace, fix punctuation spacing,
    ensure a terminal sentence mark.  Idempotent."""
    text = _WS_RUN.sub(" ", raw).strip()
    if not text:
        return ""
    text = _SPACE_BEFORE_PUNCT.sub(r"\1", text)
    text = _PUNCT_NO_SPACE.sub(_space_after_sentence_punct, text)
    if text[-1] not in ".!?":
        text += "."
    return text


@dataclass(frozen=True)
class Product:
    id: str
    title: str
    category_path: tuple[str, ...] = ()
    brand: Optional[str] = None
    os: Optional[str] = None
    memory: Optional[str] = None
    color: Optional[str] = None
    price: Optional[float] = None
    also_viewed: tuple[str, ...] = ()
    description: Optional[str] = None

    def searchable_value(self, feature: str) -> Optional[str]:
        if feature not in SEARCHABLE_FEATURES:
            raise KeyError(f"not a searchable feature: {feature!r}")
        return getattr(self, feature)

    def to_record(self) -> dict:
        record = {"id": self.id, "title": self.title}
        if self.category_path:
            record["category_path"] = list(self.category_path)
        for key in ("brand", "os", "memory", "color", "price", "description"):
            value = getattr(self, key)
            if value is not None:
                record[key] = value
        if self.also_viewed:
            record["also_viewed"] = list(self.also_viewed)
        return record


@dataclass(frozen=True)
class Review:
    id: str
    product_id: str
    raw_text: str
    normalized_text: str
    rating: Optional[int] = None

    def to_record(self) -> dict:
        record = {
            "id": self.id,
            "product_id": self.product_id,
            "text": self.raw_text,
            "normalized_text": self.normalized_text,
        }
        if self.rating is not None:
            record["rating"] = self.rating
        return record


@dataclass
class IngestReport:
    records_read: int = 0
    records_kept: int = 0
    malformed: int = 0
    malformed_lines: list[int] = field(default_factory=list)
    self_refs_dropped: int = 0
    orphans: int = 0
    orphan_ids: list[str] = field(default_factory=list)
    duplicate_reviews: int = 0


class ProductCatalog:
    """Immutable product collection keyed by id.

    Ids are sorted once, here.  The search index, (feature, lowercased
    value) -> ids, is built on the first ``matching`` call, so commands
    that never search (ingest, validate) never pay for it.
    """

    def __init__(self, products: dict[str, Product], report: IngestReport):
        self._products = dict(products)
        self._ids = tuple(sorted(self._products))
        self._search_index: Optional[dict[tuple[str, str], frozenset[str]]] = None
        self.report = report

    def __len__(self) -> int:
        return len(self._products)

    def __contains__(self, product_id: str) -> bool:
        return product_id in self._products

    def __iter__(self) -> Iterator[Product]:
        for pid in self._ids:
            yield self._products[pid]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProductCatalog)
            and self._products == other._products
        )

    def get(self, product_id: str) -> Optional[Product]:
        return self._products.get(product_id)

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def matching(self, feature: str, value: str) -> frozenset[str]:
        """Ids of the products whose ``feature`` equals ``value`` under
        ``str.lower()``; a product lacking the field matches nothing."""
        if feature not in SEARCHABLE_FEATURES:
            raise KeyError(f"not a searchable feature: {feature!r}")
        if self._search_index is None:
            self._search_index = self._build_search_index()
        return self._search_index.get((feature, value.lower()), frozenset())

    def _build_search_index(self) -> dict[tuple[str, str], frozenset[str]]:
        groups: dict[tuple[str, str], set[str]] = {}
        for pid, product in self._products.items():
            for feature in SEARCHABLE_FEATURES:
                value = getattr(product, feature)
                if value is not None:
                    groups.setdefault((feature, value.lower()), set()).add(pid)
        return {key: frozenset(ids) for key, ids in groups.items()}


class ReviewStore:
    """Immutable review collection keyed by globally unique review id."""

    def __init__(self, reviews: dict[str, Review], report: IngestReport):
        self._reviews = dict(reviews)
        self.report = report

    def __len__(self) -> int:
        return len(self._reviews)

    def __contains__(self, review_id: str) -> bool:
        return review_id in self._reviews

    def __iter__(self) -> Iterator[Review]:
        for rid in sorted(self._reviews):
            yield self._reviews[rid]

    def __eq__(self, other) -> bool:
        return isinstance(other, ReviewStore) and self._reviews == other._reviews

    def get(self, review_id: str) -> Optional[Review]:
        return self._reviews.get(review_id)


def _iter_records(path: Path, report: IngestReport, strict: bool, parse: Callable):
    """(line number, ``parse(record)``) for each record of ``path`` that
    parses.  A malformed line, whether its JSON or its fields, raises
    MalformedRecordError in strict mode and is counted and skipped
    otherwise."""
    for line_no, line in read_lines(path):
        report.records_read += 1
        try:
            record = parse_json(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            parsed = parse(record)
        except (ValueError, TypeError) as exc:
            if strict:
                raise MalformedRecordError(line_no, str(exc)) from exc
            report.malformed += 1
            report.malformed_lines.append(line_no)
            continue
        yield line_no, parsed


def _parse_product(record: dict) -> Product:
    product_id = record.get("id")
    title = record.get("title")
    if not product_id or not isinstance(product_id, str):
        raise ValueError("missing or empty id")
    if title is None or not isinstance(title, str):
        raise ValueError("missing title")
    for key in (*SEARCHABLE_FEATURES, "description"):
        value = record.get(key)
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{key} must be a string")
    for key in ("category_path", "also_viewed"):
        values = record.get(key, [])
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise ValueError(f"{key} must be a list of strings")
    price = record.get("price")
    if price is not None:
        if isinstance(price, bool) or not isinstance(price, (int, float)):
            raise ValueError("price must be a number")
        try:
            price = float(price)
        except OverflowError:
            raise ValueError("price out of range") from None
        if not math.isfinite(price):
            raise ValueError("non-finite price")
        if price < 0:
            raise ValueError("negative price")
    return Product(
        id=product_id,
        title=title,
        category_path=tuple(record.get("category_path", [])),
        brand=record.get("brand"),
        os=record.get("os"),
        memory=record.get("memory"),
        color=record.get("color"),
        price=price,
        also_viewed=tuple(record.get("also_viewed", [])),
        description=record.get("description"),
    )


def ingest_metadata(path: str | Path, *, strict: bool = False) -> ProductCatalog:
    """Read meta.jsonl into an immutable catalog.

    Malformed records are counted and skipped (raised in strict mode);
    duplicate product ids abort regardless of mode.  Self references in
    also_viewed are dropped with a warning counter.
    """
    report = IngestReport()
    products: dict[str, Product] = {}
    for line_no, product in _iter_records(Path(path), report, strict, _parse_product):
        if product.id in products:
            raise DuplicateIdError(product.id, line_no)
        if product.id in product.also_viewed:
            report.self_refs_dropped += 1
            product = replace(
                product,
                also_viewed=tuple(a for a in product.also_viewed if a != product.id),
            )
        products[product.id] = product
        report.records_kept += 1
    return ProductCatalog(products, report)


def _parse_review(record: dict) -> tuple[str, str, str, Optional[int], Optional[str]]:
    review_id = record.get("id")
    product_id = record.get("product_id")
    text = record.get("text")
    if not review_id or not isinstance(review_id, str):
        raise ValueError("missing or empty id")
    if not product_id or not isinstance(product_id, str):
        raise ValueError("missing product_id")
    if text is None or not isinstance(text, str):
        raise ValueError("missing text")
    rating = record.get("rating")
    if rating is not None:
        if isinstance(rating, float) and rating.is_integer():
            rating = int(rating)
        if isinstance(rating, bool) or not isinstance(rating, int):
            raise ValueError("rating must be an integer")
        if not 1 <= rating <= 5:
            raise ValueError(f"rating {rating} out of [1,5]")
    normalized = record.get("normalized_text")
    if normalized is not None and not isinstance(normalized, str):
        raise ValueError("normalized_text must be a string")
    return review_id, product_id, text, rating, normalized


def ingest_reviews(
    path: str | Path, catalog: ProductCatalog, *, strict: bool = False
) -> ReviewStore:
    """Read reviews.jsonl into an immutable store.

    Reviews for unknown products are skipped and counted as orphans; a
    repeated review id is skipped and counted (raised in strict mode).
    """
    report = IngestReport()
    reviews: dict[str, Review] = {}
    records = _iter_records(Path(path), report, strict, _parse_review)
    for line_no, (review_id, product_id, text, rating, normalized) in records:
        if product_id not in catalog:
            report.orphans += 1
            report.orphan_ids.append(review_id)
            continue
        if review_id in reviews:
            if strict:
                raise MalformedRecordError(line_no, f"duplicate review id {review_id!r}")
            report.duplicate_reviews += 1
            continue
        reviews[review_id] = Review(
            id=review_id,
            product_id=product_id,
            raw_text=text,
            normalized_text=(
                normalized if normalized is not None else normalize_text(text)
            ),
            rating=rating,
        )
        report.records_kept += 1
    return ReviewStore(reviews, report)


def write_catalog(catalog: ProductCatalog, path: str | Path) -> None:
    """Write a catalog back to meta.jsonl (round-trips through ingest)."""
    with open(path, "w", encoding="utf-8") as fh:
        for product in catalog:
            fh.write(json.dumps(product.to_record(), sort_keys=True) + "\n")


def write_reviews(store: ReviewStore, path: str | Path) -> None:
    """Write a review store to reviews.jsonl with normalized text filled in."""
    with open(path, "w", encoding="utf-8") as fh:
        for review in store:
            fh.write(json.dumps(review.to_record(), sort_keys=True) + "\n")
