"""The benchmark's tracer (perfbench/tracing.py) still fits the pipeline.

The tracer wraps pipeline functions by module attribute and reads their
results, so a rename or a change of shape in src/ would otherwise surface
only when the benchmark runs."""

from collections import Counter
from pathlib import Path

from shoptalk import annotate, cli

from conftest import named_products

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_pipeline_counts_the_sample_sentences(
    tmp_path, monkeypatch, sample_corpus_paths, world
):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    meta, reviews = sample_corpus_paths
    snapshot, out = tmp_path / "snapshot", tmp_path / "run"
    commands = [
        ["ingest", "--meta", str(meta), "--reviews", str(reviews), "--out", str(snapshot)],
        ["generate", "--snapshot", str(snapshot), "--out", str(out),
         "--seed", "1", "--per-template", "1"],
        ["validate", "--dataset", str(out / "dataset.jsonl"), "--snapshot", str(snapshot)],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in commands:
            assert cli.main(argv) == 0, argv[0]
    finally:
        tracer.uninstall()
    named = named_products(
        out / "dataset.jsonl", {review.id: review.product_id for review in world.store}
    )
    sentences = Counter()
    for review in world.store:
        sentences[review.product_id] += len(annotate.split_sentences(review))
    generate, *validate = tracer.observed["annotate.sentence_map"]
    # generate maps every sentence at once; validate maps, in batches, the
    # sentences of the products the dataset names, a strict subset here
    assert generate == sum(sentences.values())
    assert sum(validate) == sum(sentences[product] for product in named)
    assert len(named) < len(sentences)
