"""Command-line pipeline: ingest, generate, validate, stats.

Dataset files are line-delimited JSON, schema_version 1.  Generation
requires an explicit --seed; outputs are byte-identical across runs with
equal inputs and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterable, Iterator

from . import annotate, assembly, dataset_io, fanout
from .corpus import ingest_metadata, ingest_reviews, write_catalog, write_reviews
from .errors import (
    InvalidConfigError, ShoptalkError, parse_json, partial_path, read_text, replacing,
)
from .negotiation import default_phrasebank, load_phrasebank
from .world import World, build_world

SCHEMA_NOTE = "dataset schema: one JSON conversation per line, schema_version 1"

# Every config key with its default: the generation settings and the
# polarity thresholds default as their dataclass fields do.
DEFAULTS = {
    **asdict(assembly.GenerationSettings()),
    "t_pos": annotate.PolarityConfig.t_pos,
    "t_neg": annotate.PolarityConfig.t_neg,
    "strict": False,
}


def _effective_config(args: argparse.Namespace, keys: list[str]) -> dict:
    """flags > config file > defaults."""
    config = dict(DEFAULTS)
    if getattr(args, "config", None):
        config.update(_read_config(args.config))
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return {key: config[key] for key in keys}


def _read_config(path: str) -> dict:
    """A config file's settings, each of its default's JSON type (a float
    setting also takes an integer, an integer setting no boolean)."""
    try:
        file_config = parse_json(read_text(path))
    except ValueError as exc:
        raise InvalidConfigError(f"config {path}: invalid JSON: {exc}") from None
    if not isinstance(file_config, dict):
        raise InvalidConfigError(f"config {path}: not a JSON object")
    unknown = set(file_config) - set(DEFAULTS)
    if unknown:
        raise InvalidConfigError(f"config {path}: unknown config keys: {sorted(unknown)}")
    for key, value in file_config.items():
        kind = type(DEFAULTS[key])
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise InvalidConfigError(
                f"config {path}: {key} must be a JSON {kind.__name__}, got {value!r}"
            )
    return file_config


def _load_world(args: argparse.Namespace, config: dict, lazy: bool = False) -> World:
    """Snapshot, lexicon and optional annotations -> the derived world
    (see build_world for ``lazy``)."""
    snapshot = Path(args.snapshot)
    catalog = ingest_metadata(snapshot / "catalog.jsonl", strict=config["strict"])
    store = ingest_reviews(snapshot / "reviews.jsonl", catalog, strict=config["strict"])
    lexicons = (
        annotate.load_lexicons(args.lexicon) if args.lexicon
        else annotate.default_lexicons()
    )
    polarity = annotate.PolarityConfig(t_pos=config["t_pos"], t_neg=config["t_neg"])
    return build_world(
        catalog, store, lexicons, polarity, args.annotations, config["strict"], lazy
    )


def _templates(args: argparse.Namespace) -> list[assembly.ConversationTemplate]:
    if args.templates:
        return assembly.load_templates(args.templates)
    return assembly.builtin_templates()


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _effective_config(args, ["strict"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    catalog = ingest_metadata(args.meta, strict=config["strict"])
    store = ingest_reviews(args.reviews, catalog, strict=config["strict"])
    write_catalog(catalog, out / "catalog.jsonl")
    write_reviews(store, out / "reviews.jsonl")
    report = {
        "products": len(catalog),
        "reviews": len(store),
        "metadata": vars(catalog.report),
        "review_report": vars(store.report),
        "config": config,
    }
    with replacing(out / "ingest_report.json") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"ingested {len(catalog)} products, {len(store)} reviews -> {out}")
    if catalog.report.malformed or store.report.malformed:
        print(
            f"skipped malformed records: metadata={catalog.report.malformed} "
            f"reviews={store.report.malformed}"
        )
    if store.report.orphans:
        print(f"skipped orphan reviews: {store.report.orphans}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    config = _effective_config(args, list(DEFAULTS))
    settings = assembly.GenerationSettings(
        **{f.name: config[f.name] for f in fields(assembly.GenerationSettings)}
    )
    templates = _templates(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    world = _load_world(args, config)
    phrasebank = (
        load_phrasebank(args.phrasebank) if args.phrasebank else default_phrasebank()
    )
    total = len(templates) * settings.per_template
    ranges = fanout.split(total)
    # range 0 writes the dataset; each other range writes a part file that
    # range 0 appends once the range is done
    parts = [out / "dataset.jsonl"]
    parts += [out / f"dataset.jsonl.part{w}" for w in range(1, len(ranges))]

    def generate(w: int, jobs: Iterable[int], later: Iterator) -> assembly.GenerationReport:
        conversations, report = assembly.generate_dataset(
            templates, args.seed, world, phrasebank=phrasebank, settings=settings,
            jobs=jobs,
        )
        dataset_io.write_dataset(conversations, parts[w], (parts[v] for v, _ in enumerate(later, 1)))
        return report

    def discard(w: int) -> None:
        parts[w].unlink(missing_ok=True)
        partial_path(parts[w]).unlink(missing_ok=True)

    report, *others = fanout.run(ranges, generate, "generating jobs", discard)
    for other in others:
        report.add(other)
    run_report = report.to_record()
    run_report["config"] = config
    run_report["spans_indexed"] = sum(map(len, world.index.entries.values()))
    with replacing(out / "report.json") as fh:
        json.dump(run_report, fh, indent=2, sort_keys=True)
    print(
        f"generated {report.successes}/{report.requested} conversations "
        f"({len(report.exhausted)} exhausted) -> {out / 'dataset.jsonl'}"
    )
    for failure in report.exhausted:
        print(
            f"  exhausted: template {failure['template_id']} "
            f"instance {failure['ordinal']} after {failure['attempts']} attempts"
        )
    for cause in report.causes:
        print(f"  because {cause}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    config = dict(_effective_config(args, ["t_pos", "t_neg"]), strict=False)
    templates = _templates(args)
    world = _load_world(args, config, lazy=True)
    # each range checks the lines that begin in it; the last reads to the
    # end, wherever that is (a pipe's size reads 0)
    spans = fanout.split(os.path.getsize(args.dataset), dataset_io.MIN_RANGE_BYTES)

    def check(w: int, jobs: Iterable[int], later: Iterator) -> dataset_io.ValidationReport:
        stop = spans[w].stop if w < len(spans) - 1 else None
        return dataset_io.validate(args.dataset, world, templates, spans[w].start, stop)

    parts = fanout.run(spans, check, "validating bytes")
    report = dataset_io.ValidationReport(
        sum(part.conversations_checked for part in parts),
        sorted(violation for part in parts for violation in part.violations),
    )
    print(report.summary())
    if args.out:
        with replacing(args.out) as fh:
            for record in report.to_records():
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0 if report.passed else 1


def cmd_stats(args: argparse.Namespace) -> int:
    result = dataset_io.stats(args.dataset)
    print(result.summary())
    if args.out:
        with replacing(args.out) as fh:
            json.dump(result.to_record(), fh, indent=2, sort_keys=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shoptalk", epilog=SCHEMA_NOTE)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="build a corpus snapshot", epilog=SCHEMA_NOTE)
    p_ingest.add_argument("--meta", required=True, help="meta.jsonl path")
    p_ingest.add_argument("--reviews", required=True, help="reviews.jsonl path")
    p_ingest.add_argument("--out", required=True, help="snapshot output directory")
    p_ingest.add_argument("--strict", action="store_true", default=None)
    p_ingest.add_argument("--config", help="JSON config file (flags override it)")
    p_ingest.set_defaults(func=cmd_ingest)

    p_gen = sub.add_parser("generate", help="generate a conversation dataset", epilog=SCHEMA_NOTE)
    p_gen.add_argument("--snapshot", required=True, help="snapshot directory from ingest")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", required=True, type=int, help="master seed (mandatory)")
    p_gen.add_argument("--per-template", dest="per_template", type=int)
    p_gen.add_argument("--templates", help="template config JSON (default: bundled)")
    p_gen.add_argument("--lexicon", help="lexicon file (default: bundled)")
    p_gen.add_argument("--phrasebank", help="phrasebank file (default: bundled)")
    p_gen.add_argument("--annotations", help="imported annotations jsonl")
    p_gen.add_argument("--p-skip", dest="p_skip", type=float)
    p_gen.add_argument("--retry-budget", dest="retry_budget", type=int)
    p_gen.add_argument("--top-k", dest="top_k", type=int)
    p_gen.add_argument("--t-pos", dest="t_pos", type=float)
    p_gen.add_argument("--t-neg", dest="t_neg", type=float)
    p_gen.add_argument("--min-opinions", dest="min_opinions", type=int)
    p_gen.add_argument("--strict", action="store_true", default=None)
    p_gen.add_argument("--config", help="JSON config file (flags override it)")
    p_gen.set_defaults(func=cmd_generate)

    p_val = sub.add_parser("validate", help="validate a dataset against its corpus", epilog=SCHEMA_NOTE)
    p_val.add_argument("--dataset", required=True)
    p_val.add_argument("--snapshot", required=True)
    p_val.add_argument("--templates")
    p_val.add_argument("--lexicon")
    p_val.add_argument("--annotations")
    p_val.add_argument("--t-pos", dest="t_pos", type=float)
    p_val.add_argument("--t-neg", dest="t_neg", type=float)
    p_val.add_argument("--config", help="JSON config file as for generate (flags override it)")
    p_val.add_argument("--out", help="violation report jsonl")
    p_val.set_defaults(func=cmd_validate)

    p_stats = sub.add_parser("stats", help="dataset statistics", epilog=SCHEMA_NOTE)
    p_stats.add_argument("--dataset", required=True)
    p_stats.add_argument("--out", help="stats JSON output")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a reader gone is seen here, not at exit
        return code
    except ShoptalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader went away: end quietly
        with contextlib.suppress(ValueError):  # io.UnsupportedOperation: no descriptor
            stdout = sys.stdout.fileno()
            with open(os.devnull, "wb") as devnull:  # what is left flushes there at exit
                os.dup2(devnull.fileno(), stdout)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
