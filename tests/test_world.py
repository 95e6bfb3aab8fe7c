"""A lazy world (world.build_world with lazy=True) derives, for any set of
products, exactly what the whole derivation holds for them."""

from hypothesis import given, settings
from hypothesis import strategies as st

from shoptalk.annotate import default_lexicons, split_sentences
from shoptalk.corpus import Product, ingest_metadata, ingest_reviews
from shoptalk.world import build_world

from conftest import make_catalog, make_review, make_store, write_jsonl

LEXICONS = default_lexicons()
WORDS = ["battery", "screen", "camera", "great", "bad", "not", "very", "Dr."]
PRODUCTS = [f"p{i}" for i in range(6)]

sentence = st.tuples(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=8), st.sampled_from(".!?")
).map(lambda parts: " ".join(parts[0]) + parts[1])
review_text = st.lists(sentence, min_size=1, max_size=4).map(" ".join)


def restricted(mapping, keep):
    return [(key, value) for key, value in mapping.items() if keep(key)]


def annotation(review_ids):
    """An annotation record, mostly for a stored review, or a malformed one."""
    return st.fixed_dictionaries({
        "review_id": st.sampled_from([*review_ids, "r-ghost"]),
        "sentence_ordinal": st.integers(-1, 1),
        "feature": st.sampled_from(["battery", "Screen", "keyboard"]),
        "score": st.floats(-2, 2, allow_nan=False).map(lambda x: round(x, 2)),
    }) | st.just({"review_id": review_ids[0]})  # fields missing


@settings(max_examples=200, deadline=None)
@given(
    texts=st.lists(st.tuples(st.sampled_from(PRODUCTS), review_text), min_size=1, max_size=12),
    imported=st.booleans(),
    batches=st.lists(st.sets(st.sampled_from(PRODUCTS + ["p-none"])), min_size=1, max_size=3),
    data=st.data(),
)
def test_lazy_world_equals_whole_world_restricted(tmp_path_factory, texts, imported,
                                                   batches, data):
    catalog = make_catalog([Product(id=pid, title=pid) for pid in PRODUCTS])
    store = make_store([
        make_review(f"r{i}", pid, text) for i, (pid, text) in enumerate(texts)
    ])
    path = None
    if imported:
        records = data.draw(st.lists(annotation([f"r{i}" for i in range(len(texts))]),
                                     min_size=len(texts), max_size=3 * len(texts)))
        path = write_jsonl(tmp_path_factory.mktemp("ann") / "ann.jsonl", records)
    whole = build_world(catalog, store, LEXICONS, annotations=path)
    lazy = build_world(catalog, store, LEXICONS, annotations=path, lazy=True)
    for batch in batches:
        lazy.cover(sorted(batch))
    covered = set().union(*batches)
    in_scope = {r.id for r in store if r.product_id in covered}

    assert lazy.sentences == dict(restricted(whole.sentences, in_scope.__contains__))
    index, full = lazy.index, whole.index
    assert index.entries == dict(restricted(full.entries, lambda key: key[0] in covered))
    assert index.feature_ranks == dict(
        restricted(full.feature_ranks, lambda key: key[0] in covered))
    # in ascending product-id order, as a whole index keeps them
    assert list(index.non_neutral_counts.items()) == restricted(
        full.non_neutral_counts, covered.__contains__)
    assert set(lazy.pending) == {r.product_id for r in store} - covered


def test_whole_world_is_one_cover_of_every_product(tmp_path, sample_corpus_paths):
    """The bundled sample with imported annotations: a record for each
    feature and sentence, which overrides the lexicon's span if the sentence
    holds the feature and is skipped if not, and a malformed one."""
    meta, reviews = sample_corpus_paths
    catalog = ingest_metadata(meta)
    store = ingest_reviews(reviews, catalog)
    records = [{"review_id": "r-ghost", "sentence_ordinal": 0, "feature": "memory"}]
    for n, review in enumerate(store):
        for ordinal, text in enumerate(split_sentences(review)):
            for feature in ("memory", "video", "keyboard", "the sound"):
                records.append({"review_id": review.id, "sentence_ordinal": ordinal,
                                "feature": feature, "score": (n % 7 - 3) / 2})
    path = write_jsonl(tmp_path / "ann.jsonl", records)
    whole = build_world(catalog, store, LEXICONS, annotations=path)
    lazy = build_world(catalog, store, LEXICONS, annotations=path, lazy=True)
    lazy.cover(catalog.ids())

    assert lazy.sentences == whole.sentences
    assert lazy.index.entries == whole.index.entries
    assert lazy.index.feature_ranks == whole.index.feature_ranks
    assert list(lazy.index.non_neutral_counts.items()) == (
        list(whole.index.non_neutral_counts.items()))
    assert lazy.pending == whole.pending == {}
