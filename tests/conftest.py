"""Shared fixtures: tiny in-memory corpora, the bundled sample corpus and
the world derived from it."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import shoptalk
from shoptalk import dataset_io
from shoptalk.annotate import default_lexicons
from shoptalk.corpus import (
    IngestReport,
    Product,
    ProductCatalog,
    Review,
    ReviewStore,
    ingest_metadata,
    ingest_reviews,
    normalize_text,
)
from shoptalk.errors import replacing
from shoptalk.world import World, build_world

DATA_DIR = Path(__file__).parent / "data"

# Arbitrary JSON values, for fuzzing the fields of input records.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

# Characters at which str.splitlines() ends a line but a phrasebank or
# lexicon line does not: those lines end at "\n" only.
NOT_LINE_ENDS = pytest.mark.parametrize(
    "mark", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"],
    ids=lambda mark: f"U+{ord(mark):04X}",
)


def make_catalog(products: list[Product]) -> ProductCatalog:
    return ProductCatalog({p.id: p for p in products}, IngestReport())


def make_store(reviews: list[Review]) -> ReviewStore:
    return ReviewStore({r.id: r for r in reviews}, IngestReport())


def make_review(review_id: str, product_id: str, text: str) -> Review:
    return Review(
        id=review_id,
        product_id=product_id,
        normalized_text=normalize_text(text),
    )


def write_jsonl(path: Path, records: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def write_dataset_file(conversations, path) -> None:
    """Write ``conversations`` to the dataset file ``path`` as generate
    writes one: through errors.replacing."""
    with replacing(path) as fh:
        dataset_io.write_dataset(conversations, fh)


def named_products(dataset: Path, product_of: dict[str, str]) -> set[str]:
    """The products a dataset names: each seed, trajectory product and turn
    product, and the product of each grounding ref's review, read from the
    JSON records; ``product_of`` maps review ids to product ids."""
    named = set()
    for line in dataset.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        named.add(record["alternatives"]["seed_product"])
        named.update(record["product_trajectory"])
        for turn in record["turns"]:
            if turn.get("product_id"):
                named.add(turn["product_id"])
            named.update(product_of[ref["review_id"]] for ref in turn.get("grounding", []))
    return named


def package_env(**overrides: str) -> dict[str, str]:
    """The environment for a subprocess that imports shoptalk: this one, with
    ``overrides`` set and the directory shoptalk was imported from put first
    on PYTHONPATH, so that plain ``pytest`` and ``python -m pytest`` agree."""
    src = str(Path(shoptalk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, **overrides, PYTHONPATH=path)


def load_corpus_script():
    """scripts/build_sample_corpus.py as a module."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "build_sample_corpus.py"
    spec = importlib.util.spec_from_file_location("build_sample_corpus", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def sample_corpus_paths() -> tuple[Path, Path]:
    from importlib.resources import files

    base = files("shoptalk").joinpath("data/sample")
    return Path(str(base / "meta.jsonl")), Path(str(base / "reviews.jsonl"))


@pytest.fixture(scope="session")
def world(sample_corpus_paths) -> World:
    """The bundled sample corpus, derived with the bundled lexicon."""
    meta, reviews = sample_corpus_paths
    catalog = ingest_metadata(meta)
    return build_world(catalog, ingest_reviews(reviews, catalog), default_lexicons())
