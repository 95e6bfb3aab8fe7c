#!/usr/bin/env python3
"""Regenerate the bundled sample corpus (src/shoptalk/data/sample/).

Deterministic: a fixed seed composes phone products and reviews whose
sentences are built from lexicon-scorable fragments, then the real
annotate/index pipeline is run to assert the corpus is rich enough for
all fourteen conversation templates.  Run from the repo root:

    python3 scripts/build_sample_corpus.py
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from shoptalk import annotate, opinion_index
from shoptalk.corpus import ingest_metadata, ingest_reviews
from shoptalk.world import build_world

OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "shoptalk" / "data" / "sample"
SEED = 20240817

BRANDS = ["Samsung", "Apple", "LG", "Motorola", "HTC", "Nokia", "Sony", "ZTE"]
OS_OF_BRAND = {"Apple": "ios", "Nokia": "windows"}
MEMORY = ["2 GB", "4 GB", "8 GB", "16 GB"]
COLORS = ["black", "white", "red", "blue", "gold"]
MODELS = [
    "Nova", "Pulse", "Orbit", "Vista", "Prime", "Flare", "Aero", "Quartz",
    "Volt", "Pixelon", "Summit", "Drift", "Tempo", "Ridge", "Comet", "Zephyr",
]

# One feature per sentence; every adjective/verb is in the default lexicon
# so the intended polarity survives extraction.
POSITIVE_SENTENCES = [
    "The {feature} is really {adj}.",
    "I was very impressed with the {feature}.",
    "Absolutely love the {feature} on this phone.",
    "The {feature} works great and never disappoints.",
    "Honestly the {feature} turned out to be {adj}.",
    "The {feature} seems to be pretty {adj}.",
    "You will enjoy the {feature}, it is {adj}.",
    "For this price the {feature} is surprisingly {adj}.",
]
POSITIVE_ADJS = ["good", "great", "excellent", "solid", "impressive", "reliable", "smooth", "sharp"]

NEGATIVE_SENTENCES = [
    "The {feature} is pretty {adj}.",
    "Sadly the {feature} turned out to be {adj}.",
    "The {feature} is {adj} and gave me problems.",
    "I was really annoyed by the {feature}.",
    "The {feature} keeps acting up, totally {adj}.",
    "Do not expect much, the {feature} is {adj}.",
]
NEGATIVE_ADJS = ["bad", "disappointing", "weak", "unreliable", "terrible", "poor", "sluggish"]

NEUTRAL_FILLER = [
    "I bought this phone last month.",
    "My friend has the same model.",
    "I use it every single day.",
    "It came in the original box.",
    "This is my second phone from this brand.",
    "I carry it everywhere with me.",
]

FEATURES = [
    "battery", "screen", "camera", "speaker", "design", "os", "app",
    "memory", "signal", "size", "keyboard", "resolution", "sound",
    "performance", "price", "video",
]


def build_products(rng: random.Random, count: int) -> list[dict]:
    products = []
    for n in range(count):
        brand = BRANDS[n % len(BRANDS)]
        model = MODELS[(n // len(BRANDS)) % len(MODELS)]
        number = rng.choice([3, 4, 5, 6, 7, 8])
        title = f"{brand} {model} {number}"
        products.append({
            "id": f"B0{n:08d}",
            "title": title,
            "category_path": ["Cell Phones & Accessories", "Cell Phones"],
            "brand": brand,
            "os": OS_OF_BRAND.get(brand, "android"),
            "memory": rng.choice(MEMORY),
            "color": rng.choice(COLORS),
            "price": float(rng.randrange(99, 900)),
            "description": f"The {title} smartphone.",
        })
    ids = [p["id"] for p in products]
    for p in products:
        others = [i for i in ids if i != p["id"]]
        p["also_viewed"] = sorted(rng.sample(others, 3))
    return products


def build_reviews(rng: random.Random, products: list[dict]) -> list[dict]:
    reviews = []
    for product in products:
        features = rng.sample(FEATURES, 8)
        # first features get both polarities so disagreement pairs work
        plan: list[tuple[str, str]] = []
        for feature in features[:3]:
            plan += [(feature, "pos")] * 3 + [(feature, "neg")] * 2
        for feature in features[3:6]:
            plan += [(feature, "pos")] * 2
        for feature in features[6:]:
            plan += [(feature, "neg")]
        rng.shuffle(plan)
        n_reviews = 10
        buckets: list[list[tuple[str, str]]] = [[] for _ in range(n_reviews)]
        for i, item in enumerate(plan):
            buckets[i % n_reviews].append(item)
        for r, bucket in enumerate(buckets):
            sentences = []
            if rng.random() < 0.5:
                sentences.append(rng.choice(NEUTRAL_FILLER))
            for feature, polarity in bucket:
                if polarity == "pos":
                    template = rng.choice(POSITIVE_SENTENCES)
                    adj = rng.choice(POSITIVE_ADJS)
                else:
                    template = rng.choice(NEGATIVE_SENTENCES)
                    adj = rng.choice(NEGATIVE_ADJS)
                sentences.append(template.format(feature=feature, adj=adj))
            if not sentences:
                sentences.append(rng.choice(NEUTRAL_FILLER))
            reviews.append({
                "id": f"{product['id']}-r{r:02d}",
                "product_id": product["id"],
                "text": " ".join(sentences),
                "rating": rng.randrange(1, 6),
            })
    return reviews


def check_coverage(meta_path: Path, reviews_path: Path) -> None:
    catalog = ingest_metadata(meta_path)
    store = ingest_reviews(reviews_path, catalog)
    index = build_world(catalog, store, annotate.default_lexicons()).index
    problems = []
    for pid in catalog.ids():
        pos = opinion_index.features_of(index, pid, "positive")
        neg = opinion_index.features_of(index, pid, "negative")
        both = {f for f, _ in pos} & {f for f, _ in neg}
        twice_positive = [f for f, c in pos if c >= 2]
        if len(both) < 2:
            problems.append(f"{pid}: only {len(both)} features with both polarities")
        if len(twice_positive) < 3:
            problems.append(f"{pid}: only {len(twice_positive)} features with >=2 positive spans")
        if index.non_neutral_counts.get(pid, 0) < 10:
            problems.append(f"{pid}: only {index.non_neutral_counts.get(pid, 0)} non-neutral spans")
    if problems:
        raise SystemExit("coverage check failed:\n  " + "\n  ".join(problems))
    print(f"coverage ok: {len(catalog)} products, {len(store)} reviews, "
          f"{sum(map(len, index.entries.values()))} spans")


def main() -> None:
    rng = random.Random(SEED)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    products = build_products(rng, 32)
    reviews = build_reviews(rng, products)
    meta_path = OUT_DIR / "meta.jsonl"
    reviews_path = OUT_DIR / "reviews.jsonl"
    with open(meta_path, "w", encoding="utf-8") as fh:
        for record in products:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    with open(reviews_path, "w", encoding="utf-8") as fh:
        for record in reviews:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {len(products)} products, {len(reviews)} reviews to {OUT_DIR}")
    check_coverage(meta_path, reviews_path)


if __name__ == "__main__":
    main()
