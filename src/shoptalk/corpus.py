"""Catalog and review ingestion from line-delimited JSON records.

Input formats (one UTF-8 JSON object per line).  Only these keys are
read; every other key is ignored, whatever its value:

  meta.jsonl    id and title (strings); brand, os, memory, color
                (optional strings) and also_viewed (optional list of ids,
                null meaning none)
  reviews.jsonl id and product_id (strings); normalized_text (optional
                string), else text (a string, normalized here)

An optional string may be null, meaning absent.  A line that is not
such an object, with each read key of its type, is malformed; so is one
whose kept string does not encode as UTF-8 (a lone surrogate, which a
JSON escape can spell), and JSON nested too deeply to parse.  Both
ingesters count and skip a malformed line, or, with ``strict=True``,
raise MalformedRecordError naming it.  Loading a snapshot goes through
the same parsers.

A snapshot (``shoptalk ingest``) holds two files in these formats:
catalog.jsonl holds each product's read keys, and reviews.jsonl holds
each review as {id, product_id, normalized_text}, so loading a snapshot
never normalizes text again.

Text normalization is rule-based and idempotent; callers that want model
based punctuation restoration can pre-fill ``normalized_text`` upstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _ascii
from pathlib import Path
from typing import Callable, Iterator, Optional

from .errors import DuplicateIdError, MalformedRecordError, parse_json, read_lines, replacing

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
    brand: Optional[str] = None
    os: Optional[str] = None
    memory: Optional[str] = None
    color: Optional[str] = None
    also_viewed: tuple[str, ...] = ()

    def searchable_value(self, feature: str) -> Optional[str]:
        return getattr(self, feature)


@dataclass(frozen=True)
class Review:
    id: str
    product_id: str
    normalized_text: str


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

    def get(self, product_id: str) -> Optional[Product]:
        return self._products.get(product_id)

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def matching(self, feature: str, value: str) -> frozenset[str]:
        """Ids of the products whose ``feature`` equals ``value`` under
        ``str.lower()``; a product lacking the field matches nothing."""
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

    def __iter__(self) -> Iterator[Review]:
        for rid in sorted(self._reviews):
            yield self._reviews[rid]

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


def require_utf8(key: str, *values: str) -> None:
    """Raise ValueError unless every value encodes as UTF-8; ASCII text,
    the common case, is not encoded at all."""
    for value in values:
        if not value.isascii():
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{key} does not encode as UTF-8") from None


def _parse_product(record: dict) -> Product:
    product_id = record.get("id")
    title = record.get("title")
    if not product_id or not isinstance(product_id, str):
        raise ValueError("missing or empty id")
    if title is None or not isinstance(title, str):
        raise ValueError("missing title")
    require_utf8("id", product_id)
    require_utf8("title", title)
    for key in SEARCHABLE_FEATURES:
        value = record.get(key)
        if value is not None:
            if not isinstance(value, str):
                raise ValueError(f"{key} must be a string")
            require_utf8(key, value)
    also_viewed = record.get("also_viewed")
    if also_viewed is None:  # absent or null: none, as for the other optional keys
        also_viewed = []
    if not isinstance(also_viewed, list) or not all(isinstance(v, str) for v in also_viewed):
        raise ValueError("also_viewed must be a list of strings")
    require_utf8("also_viewed", *also_viewed)
    return Product(
        id=product_id,
        title=title,
        brand=record.get("brand"),
        os=record.get("os"),
        memory=record.get("memory"),
        color=record.get("color"),
        also_viewed=tuple(also_viewed),
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


def _parse_review(record: dict) -> Review:
    review_id = record.get("id")
    product_id = record.get("product_id")
    if not review_id or not isinstance(review_id, str):
        raise ValueError("missing or empty id")
    if not product_id or not isinstance(product_id, str):
        raise ValueError("missing product_id")
    text = record.get("normalized_text")
    if text is None:
        text = record.get("text")
        if not isinstance(text, str):
            raise ValueError("missing text")
        text = normalize_text(text)
    elif not isinstance(text, str):
        raise ValueError("normalized_text must be a string")
    require_utf8("id", review_id)
    require_utf8("product_id", product_id)
    require_utf8("text", text)
    return Review(id=review_id, product_id=product_id, normalized_text=text)


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
    for line_no, review in records:
        if review.product_id not in catalog:
            report.orphans += 1
            report.orphan_ids.append(review.id)
            continue
        if review.id in reviews:
            if strict:
                raise MalformedRecordError(line_no, f"duplicate review id {review.id!r}")
            report.duplicate_reviews += 1
            continue
        reviews[review.id] = review
        report.records_kept += 1
    return ReviewStore(reviews, report)


# Snapshot lines are written straight from the records, as
# ``json.dumps(record, sort_keys=True)`` writes them: keys in sorted order,
# strings with ASCII escapes, a product's absent optional keys omitted.

def write_catalog(catalog: ProductCatalog, path: str | Path) -> None:
    """Write a catalog back to meta.jsonl (round-trips through ingest), in
    place of ``path`` once it is whole (see errors.replacing)."""
    with replacing(path) as fh:
        for product in catalog:
            fh.write(_product_line(product))


def _product_line(product: Product) -> str:
    fields = []
    if product.also_viewed:
        fields.append(f'"also_viewed": [{", ".join(map(_ascii, product.also_viewed))}]')
    for key, value in (
        ("brand", product.brand), ("color", product.color), ("id", product.id),
        ("memory", product.memory), ("os", product.os), ("title", product.title),
    ):
        if value is not None:
            fields.append(f'"{key}": {_ascii(value)}')
    return "{" + ", ".join(fields) + "}\n"


def write_reviews(store: ReviewStore, path: str | Path) -> None:
    """Write a review store to reviews.jsonl as {id, product_id,
    normalized_text} records (round-trips through ingest), in place of
    ``path`` once it is whole (see errors.replacing)."""
    with replacing(path) as fh:
        for review in store:
            fh.write(
                f'{{"id": {_ascii(review.id)}, '
                f'"normalized_text": {_ascii(review.normalized_text)}, '
                f'"product_id": {_ascii(review.product_id)}}}\n'
            )
