"""Benchmark workloads and their deterministic, cached input files.

Each workload is one corpus shape plus the ``shoptalk generate`` flags run
on it.  Inputs come from ``scripts/build_sample_corpus.py`` (imported, not
edited) seeded by the workload seed, and are written once per
(workload, seed) under the work directory; later runs reuse them.  The
generate seed is fixed per workload so that the workload seed alone picks
the inputs.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_DIR = ROOT / "src" / "shoptalk" / "data" / "sample"
CORPUS_SCRIPT = ROOT / "scripts" / "build_sample_corpus.py"

GENERATE_SEED = 7
ANNOTATE_EVERY = 10  # every 10th review gets imported annotations
CLAMP_SHARE = 0.15  # share of imported scores placed outside [-1, 1]
SKIP_SHARE = 0.5  # share of annotated reviews that also get a record to skip


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    products: int  # 0: the bundled 32-product sample, independent of the seed
    review_every: int  # reviews for every n-th product only
    per_template: int
    annotations: bool


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sample-14k-dialogs",
            "bundled 32-product sample, 14,000 conversations: generation and "
            "validation dominate (negotiation, assembly, dataset_io); control "
            "for corpus-size work",
            products=0, review_every=1, per_template=1000, annotations=False,
        ),
        Workload(
            "catalog-20k-sparse",
            "20,000 products, reviews for every 10th, 280 conversations: "
            "catalog size drives search_dialog and metadata ingest while "
            "review-derived work stays moderate",
            products=20000, review_every=10, per_template=20, annotations=False,
        ),
        Workload(
            "reviews-50k-imported",
            "5,000 products x 10 = 50,000 reviews with imported annotations, "
            "70 conversations: annotate and opinion_index dominate; the only "
            "workload on the import/merge path",
            products=5000, review_every=1, per_template=5, annotations=True,
        ),
        # Not declared in BENCHMARK.json: the smoke test's tiny scale.
        Workload(
            "smoke",
            "bundled sample, 28 conversations",
            products=0, review_every=1, per_template=2, annotations=False,
        ),
    ]
}


def _corpus_builder():
    """The repository's corpus generator, imported unchanged."""
    sys.path.insert(0, str(CORPUS_SCRIPT.parent))
    try:
        import build_sample_corpus
    finally:
        sys.path.remove(str(CORPUS_SCRIPT.parent))
    return build_sample_corpus


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.flush()
        # Written pages reach the disk here, not in the background while a
        # timed ingest reads them.
        os.fsync(fh.fileno())


def _annotation_records(rng: random.Random, reviews: list[dict], features: list[str]):
    """Imported annotations for every ANNOTATE_EVERY-th review.

    One record per (sentence, feature word) with a score in [-1, 1], a
    CLAMP_SHARE of them out of range; some reviews also get one record the
    importer must skip (an absent feature or an ordinal past the end).
    Sentence ordinals come from the generator's own ". " joins, not from
    the program under test.
    """
    feature_word = re.compile(r"\b(" + "|".join(map(re.escape, features)) + r")\b")
    for review in reviews[::ANNOTATE_EVERY]:
        sentences = [s for s in re.split(r"(?<=\.) ", review["text"]) if s]
        for ordinal, sentence in enumerate(sentences):
            for match in feature_word.finditer(sentence):
                score = rng.uniform(-1.0, 1.0)
                if rng.random() < CLAMP_SHARE:
                    score = rng.choice((-1, 1)) * rng.uniform(1.05, 2.0)
                yield {
                    "review_id": review["id"],
                    "sentence_ordinal": ordinal,
                    "feature": match.group(1),
                    "score": round(score, 4),
                }
        if rng.random() < SKIP_SHARE:
            ordinal = rng.randrange(len(sentences))
            absent = [f for f in features if f not in sentences[ordinal].lower()]
            if rng.random() < 0.5:
                record = {"feature": rng.choice(absent), "sentence_ordinal": ordinal}
            else:
                record = {"feature": features[0], "sentence_ordinal": len(sentences) + 2}
            yield {"review_id": review["id"], "score": 0.5, **record}


def build_inputs(workload: Workload, seed: int, cache_dir: Path) -> tuple[Path, dict]:
    """Return the input directory for (workload, seed) and its sizes,
    building it on first use.  The directory holds meta.jsonl,
    reviews.jsonl and, when the workload imports them, annotations.jsonl."""
    target = cache_dir / f"{workload.name}-{seed}"
    sizes_path = target / "sizes.json"
    if sizes_path.exists():
        return target, json.loads(sizes_path.read_text(encoding="utf-8"))
    tmp = cache_dir / f".{workload.name}-{seed}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    if workload.products:
        corpus = _corpus_builder()
        rng = random.Random(seed)
        products = corpus.build_products(rng, workload.products)
        reviews = corpus.build_reviews(rng, products[:: workload.review_every])
        _write_jsonl(tmp / "meta.jsonl", products)
        _write_jsonl(tmp / "reviews.jsonl", reviews)
    else:
        shutil.copyfile(SAMPLE_DIR / "meta.jsonl", tmp / "meta.jsonl")
        shutil.copyfile(SAMPLE_DIR / "reviews.jsonl", tmp / "reviews.jsonl")
        corpus = None
    sizes = {
        "products": _count_lines(tmp / "meta.jsonl"),
        "reviews": _count_lines(tmp / "reviews.jsonl"),
        "meta_bytes": (tmp / "meta.jsonl").stat().st_size,
        "reviews_bytes": (tmp / "reviews.jsonl").stat().st_size,
        "annotation_records": 0,
    }
    if workload.annotations:
        rng = random.Random(seed + 1)
        reviews = [json.loads(line) for line in open(tmp / "reviews.jsonl", encoding="utf-8")]
        records = list(_annotation_records(rng, reviews, corpus.FEATURES))
        _write_jsonl(tmp / "annotations.jsonl", records)
        sizes["annotation_records"] = len(records)
        sizes["annotation_bytes"] = (tmp / "annotations.jsonl").stat().st_size
    (tmp / "sizes.json").write_text(json.dumps(sizes, sort_keys=True), encoding="utf-8")
    try:
        tmp.rename(target)
    except OSError:  # another run finished building it first
        shutil.rmtree(tmp, ignore_errors=True)
    return target, json.loads(sizes_path.read_text(encoding="utf-8"))


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)
