"""Conversation templates, composition, backtracking, and stream
independence."""

import dataclasses
import itertools
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoptalk import assembly, negotiation
from shoptalk.annotate import Lexicons, OpinionSpan, PolarityConfig
from shoptalk.assembly import (
    ConversationTemplate,
    GenerationSettings,
    SeedStream,
    _try_sequence,
    builtin_templates,
    generate_conversation,
    generate_dataset,
    load_templates,
)
from shoptalk.corpus import Product, ProductCatalog
from shoptalk.errors import GenerationExhaustedError, InvalidConfigError, InvalidStateError
from shoptalk.negotiation import PairKind, default_phrasebank
from shoptalk.opinion_index import build_index
from shoptalk.search_dialog import AlternativesSet
from shoptalk.turns import ASSISTANT, CUSTOMER
from shoptalk.world import World, build_world

from conftest import JSON_VALUES, make_catalog, make_review, make_store, package_env
from dataset_reference import dataset_line

CONFIG = PolarityConfig()


def world_of(catalog, store, spans) -> World:
    """A world over hand-made spans: an empty lexicon finds none, and the
    index is extended with ``spans``."""
    world = build_world(catalog, store, Lexicons())
    world.index.extend(build_index(store, world.sentences, spans))
    return world


class TestBuiltinTemplates:
    def test_count_is_fourteen(self):
        assert len(builtin_templates()) == 14

    def test_transcribed_sequences(self):
        by_id = {t.id: t.sequence for t in builtin_templates()}
        assert by_id[1] == (
            PairKind.REQUEST_INFORM, PairKind.DENY_DISAGREEMENT, PairKind.REQUEST_INFORM,
        )
        assert by_id[4] == (
            PairKind.DENY_DISAGREEMENT, PairKind.REQUEST_INFORM, PairKind.SEARCH_WARNING,
        )
        assert by_id[9] == (PairKind.SEARCH_AGREEMENT, PairKind.REQUEST_INFORM)
        assert len(by_id[9]) == 2
        assert by_id[13] == (
            PairKind.REQUEST_INFORM, PairKind.DENY_SWITCH_FEATURE,
            PairKind.SEARCH_WARNING, PairKind.REQUEST_INFORM,
        )

    def test_duplicate_sequences_kept_as_distinct_ids(self):
        by_id = {t.id: t.sequence for t in builtin_templates()}
        assert by_id[2] == by_id[3]
        assert by_id[1] == by_id[11]
        assert len(by_id) == 14

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            ConversationTemplate(id=99, sequence=())
        with pytest.raises(ValueError):
            ConversationTemplate(id=99, sequence=(PairKind.REQUEST_INFORM,) * 9)


class TestLoadTemplates:
    def test_alias_names_accepted(self, tmp_path):
        path = tmp_path / "templates.json"
        path.write_text(json.dumps([
            {"id": 1, "pairs": ["Request--Inform", "Deny--Switch Item"]},
            {"id": 2, "pairs": ["Search--Switch Product"]},
        ]))
        loaded = load_templates(path)
        assert loaded[0].sequence == (
            PairKind.REQUEST_INFORM, PairKind.DENY_SWITCH_PRODUCT,
        )
        assert loaded[1].sequence == (PairKind.DENY_SWITCH_PRODUCT,)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "templates.json"
        path.write_text(json.dumps([
            {"id": 1, "pairs": ["RequestInform"]},
            {"id": 1, "pairs": ["SearchAgreement"]},
        ]))
        with pytest.raises(ValueError):
            load_templates(path)


    @pytest.mark.parametrize("content", [
        '{"id": 1, "pairs": ["RequestInform"]}',
        '[{"id": 1, "pairs": ["Haggle"]}]',
        '[{"id": true, "pairs": ["RequestInform"]}]',
        '[{"id": 1.5, "pairs": ["RequestInform"]}]',
        '[{"id": 1, "pairs": "RequestInform"}]',
        '[{"id": 1, "pairs": [7]}]',
        '[{"id": 1, "pairs": []}]',
        '[{"pairs": ["RequestInform"]}]',
        '[["RequestInform"]]',
        '[{',
    ], ids=["not-a-list", "unknown-kind", "boolean-id", "float-id", "pairs-string",
            "pairs-number", "empty-pairs", "missing-id", "entry-not-object", "bad-json"])
    def test_bad_config_names_file(self, tmp_path, content):
        path = tmp_path / "templates.json"
        path.write_text(content)
        with pytest.raises(InvalidConfigError) as exc_info:
            load_templates(path)
        assert "templates.json" in str(exc_info.value)

    @settings(max_examples=300)
    @given(JSON_VALUES | st.lists(
        st.fixed_dictionaries({"id": JSON_VALUES, "pairs": JSON_VALUES})
        | st.fixed_dictionaries({"id": st.integers(), "pairs": st.lists(
            st.sampled_from(["RequestInform", "Search--Switch Product", "Haggle"])
            | st.text(max_size=6), max_size=9)}),
        max_size=3,
    ))
    def test_any_json_loads_or_is_rejected(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("templates") / "templates.json"
        path.write_text(json.dumps(data))
        try:
            templates = load_templates(path)
        except InvalidConfigError:
            return
        assert [t.id for t in templates] == [entry["id"] for entry in data]
        assert all(1 <= len(t.sequence) <= assembly.MAX_TEMPLATE_LENGTH for t in templates)


def engineered_template9_world():
    """One product: battery has exactly two positive spans, screen one.
    Template 9 (SearchAgreement, RequestInform) is satisfiable exactly one
    way up to the customer/assistant order inside the agreement pair."""
    catalog = make_catalog([Product(id="p1", title="Solo 5")])
    store = make_store([
        make_review("rev-p1", "p1", "First sentence here. Second sentence here. Third sentence here."),
    ])
    spans = [
        OpinionSpan("rev-p1", 0, "battery", "battery", 0.8, CONFIG.label(0.8)),
        OpinionSpan("rev-p1", 1, "battery", "battery", 0.6, CONFIG.label(0.6)),
        OpinionSpan("rev-p1", 2, "screen", "screen", 0.7, CONFIG.label(0.7)),
    ]
    return world_of(catalog, store, spans), spans


def enumerate_template9_assignments(index, spans):
    """Brute-force: unordered span pair for the agreement, then a span for
    the question, no reuse."""
    assignments = []
    positive = [s for s in spans if s.polarity_label == "positive"]
    for a, b in itertools.combinations(positive, 2):
        if a.feature_canonical != b.feature_canonical:
            continue
        used = {a.identity, b.identity}
        for c in positive:
            if c.identity in used:
                continue
            assignments.append((a.feature_canonical, frozenset({a.identity, b.identity}),
                                c.feature_canonical, c.identity))
    return assignments


class TestGenerateConversation:
    def test_template9_unique_assignment_shape(self, sample_corpus_paths):
        world, spans = engineered_template9_world()
        assert len(enumerate_template9_assignments(world.index, spans)) == 1
        template = [t for t in builtin_templates() if t.id == 9][0]
        conversation, attempts = generate_conversation(
            template, world, SeedStream(1, "conv", 9, 1),
            phrasebank=default_phrasebank(),
            settings=GenerationSettings(min_opinions=2),
            conversation_id="t09-n01", master_seed=1,
        )
        assert len(conversation.search_turns) == 8
        assert len(conversation.evaluation_turns) == 4
        assert [e["kind"] for e in conversation.pair_trace] == [
            "SearchAgreement", "RequestInform",
        ]
        # the unique assignment: agreement on battery, question on screen
        assert conversation.pair_trace[0]["customer"]["feature"] == "battery"
        assert conversation.pair_trace[1]["customer"]["feature"] == "screen"

    def test_exhaustion_when_no_negative_spans(self):
        catalog = make_catalog([Product(id="p1", title="Sunny")])
        store = make_store([
            make_review("rev-p1", "p1", "First sentence here. Second sentence here."),
        ])
        spans = [
            OpinionSpan("rev-p1", 0, "battery", "battery", 0.8, "positive"),
            OpinionSpan("rev-p1", 1, "screen", "screen", 0.7, "positive"),
        ]
        template = [t for t in builtin_templates() if t.id == 1][0]  # needs a denial
        with pytest.raises(GenerationExhaustedError) as exc_info:
            generate_conversation(
                template, world_of(catalog, store, spans), SeedStream(1, "conv", 1, 1),
                phrasebank=default_phrasebank(),
                settings=GenerationSettings(retry_budget=10),
            )
        assert exc_info.value.template_id == 1
        assert exc_info.value.attempts == 10

    def test_byte_identical_across_runs(self, world):
        template = builtin_templates()[0]
        runs = []
        for _ in range(2):
            conversation, _ = generate_conversation(
                template, world, SeedStream(7, "conv", 1, 1),
                phrasebank=default_phrasebank(),
                conversation_id="t01-n01", master_seed=7,
            )
            runs.append(dataset_line(conversation))
        assert runs[0] == runs[1]

    def test_alternation_and_speakers(self, world):
        for template in builtin_templates()[:4]:
            conversation, _ = generate_conversation(
                template, world, SeedStream(3, "conv", template.id, 1),
                phrasebank=default_phrasebank(),
            )
            turns = conversation.evaluation_turns
            assert len(turns) == 2 * len(template.sequence)
            for i, turn in enumerate(turns):
                assert turn.speaker == (CUSTOMER if i % 2 == 0 else ASSISTANT)


class TestTrySequence:
    def test_failed_attempt_leaks_nothing_into_the_next(self):
        # two product switches from p1: into p2 then p3 binds, but into p3
        # first leaves no negative span to deny; the shuffled switch
        # targets decide which attempt fails
        catalog = make_catalog([
            Product(id=pid, title=f"Phone {pid}") for pid in ("p1", "p2", "p3")
        ])
        store = make_store([
            make_review(f"rev-{pid}", pid, "First sentence here. Second sentence here.")
            for pid in ("p1", "p2", "p3")
        ])
        spans = [
            OpinionSpan("rev-p1", 0, "battery", "battery", -0.6, CONFIG.label(-0.6)),
            OpinionSpan("rev-p2", 0, "battery", "battery", 0.7, CONFIG.label(0.7)),
            OpinionSpan("rev-p2", 1, "battery", "battery", -0.5, CONFIG.label(-0.5)),
            OpinionSpan("rev-p3", 0, "battery", "battery", 0.8, CONFIG.label(0.8)),
        ]
        world = world_of(catalog, store, spans)
        alternatives = AlternativesSet(seed_product="p1", members=("p1", "p2", "p3"))
        sequence = (PairKind.DENY_SWITCH_PRODUCT, PairKind.DENY_SWITCH_PRODUCT)

        def attempt(rng_seed):
            return _try_sequence(
                sequence, alternatives, world, random.Random(rng_seed),
                default_phrasebank(), 3,
            )

        outcomes = {rng_seed: attempt(rng_seed) for rng_seed in range(10)}
        failed = [seed for seed, result in outcomes.items() if result is None]
        passed = [seed for seed, result in outcomes.items() if result is not None]
        assert failed and passed
        for bad, good in itertools.product(failed, passed):
            assert attempt(bad) is None
            assert attempt(good) == outcomes[good]
            turns, trace, trajectory = outcomes[good]
            assert trajectory == ("p1", "p2", "p3")
            assert [entry["kind"] for entry in trace] == [kind.value for kind in sequence]
            assert [turn.act for turn in turns] == ["deny_switch_product"] * 4
            assert [turn.product_id for turn in turns] == ["p1", "p2", "p2", "p3"]

    def test_turns_and_trace_agree(self, world):
        sequence = builtin_templates()[3].sequence
        alternatives = AlternativesSet(
            seed_product="B000000000", members=tuple(p.id for p in world.catalog),
        )
        attempts = [
            _try_sequence(
                sequence, alternatives, world, random.Random(rng_seed),
                default_phrasebank(), 3,
            )
            for rng_seed in range(20)
        ]
        assert any(attempts)
        for turns, trace, trajectory in filter(None, attempts):
            assert len(turns) == 2 * len(sequence) == 2 * len(trace)
            for kind, entry, customer, assistant in zip(
                sequence, trace, turns[::2], turns[1::2]
            ):
                assert entry == {
                    "kind": kind.value,
                    "customer": {"product_id": customer.product_id,
                                 "feature": customer.feature},
                    "assistant": {"product_id": assistant.product_id,
                                  "feature": assistant.feature},
                }
                assert (customer.speaker, assistant.speaker) == (CUSTOMER, ASSISTANT)
                assert customer.act == assistant.act == kind.act
            assert trajectory[0] == "B000000000"


def pool_breach_world():
    """p1 denies its battery; p2, in the alternatives set, and p3, in
    neither the set nor p1's also-viewed list, praise theirs; p1's screen
    serves a RequestInform.  Also returns the alternatives set."""
    catalog = make_catalog([
        Product(id=pid, title=f"Phone {pid}") for pid in ("p1", "p2", "p3")
    ])
    store = make_store([
        make_review(f"rev-{pid}", pid, "First sentence here. Second sentence here.")
        for pid in ("p1", "p2", "p3")
    ])
    spans = [
        OpinionSpan("rev-p1", 0, "battery", "battery", -0.6, CONFIG.label(-0.6)),
        OpinionSpan("rev-p1", 1, "screen", "screen", 0.7, CONFIG.label(0.7)),
        OpinionSpan("rev-p2", 0, "battery", "battery", 0.7, CONFIG.label(0.7)),
        OpinionSpan("rev-p3", 0, "battery", "battery", 0.8, CONFIG.label(0.8)),
    ]
    alternatives = AlternativesSet(seed_product="p1", members=("p1", "p2"))
    return world_of(catalog, store, spans), alternatives


# Runs the sequences named on the command line in a world whose product
# switches are forged to leave the product pool, and prints, per sequence,
# whether _try_sequence raised InvalidStateError, then sys.flags.optimize.
POOL_BREACH_SCRIPT = """
import random, sys

from shoptalk import negotiation
from shoptalk.assembly import _try_sequence
from shoptalk.errors import InvalidStateError
from shoptalk.negotiation import default_phrasebank, parse_kind
from test_assembly import pool_breach_world

world, alternatives = pool_breach_world()
negotiation._switch_product_candidates = lambda *args: ["p3"]
for names in sys.argv[1:]:
    sequence = tuple(parse_kind(name) for name in names.split(","))
    try:
        _try_sequence(sequence, alternatives, world, random.Random(0),
                      default_phrasebank(), 3)
    except InvalidStateError:
        print("raised", sys.flags.optimize)
    else:
        print("accepted", sys.flags.optimize)
"""

POOL_BREACH_SEQUENCES = [
    (PairKind.DENY_SWITCH_PRODUCT,),
    (PairKind.REQUEST_INFORM, PairKind.DENY_SWITCH_PRODUCT),
]


class TestPoolBreach:
    """The product-pool check runs once, on each attempt's final state, so
    a switch out of the pool raises even as the last pair."""

    @pytest.mark.parametrize("sequence", POOL_BREACH_SEQUENCES)
    def test_unforged_switch_stays_in_the_pool(self, sequence):
        world, alternatives = pool_breach_world()
        turns, _, trajectory = _try_sequence(
            sequence, alternatives, world, random.Random(0), default_phrasebank(), 3,
        )
        assert trajectory == ("p1", "p2")
        assert turns[-1].product_id == "p2"

    @pytest.mark.parametrize("sequence", POOL_BREACH_SEQUENCES)
    def test_forged_switch_out_of_the_pool_raises(self, sequence, monkeypatch):
        world, alternatives = pool_breach_world()
        monkeypatch.setattr(
            negotiation, "_switch_product_candidates", lambda *args: ["p3"],
        )
        with pytest.raises(InvalidStateError, match="'p3' outside product pool"):
            _try_sequence(
                sequence, alternatives, world, random.Random(0), default_phrasebank(), 3,
            )

    def test_forged_switch_raises_under_optimize(self):
        # the check must not be an assert: python -O strips those
        result = subprocess.run(
            [sys.executable, "-O", "-c", POOL_BREACH_SCRIPT]
            + [",".join(kind.value for kind in sequence) for sequence in POOL_BREACH_SEQUENCES],
            capture_output=True, text=True, check=True,
            env=package_env(), cwd=Path(__file__).parent,
        )
        assert result.stdout.split() == ["raised", "1"] * len(POOL_BREACH_SEQUENCES)


class TestGenerateDataset:
    def test_per_template_counts(self, world):
        templates = [t for t in builtin_templates() if t.id in (1, 9, 10)]
        conversations, report = generate_dataset(
            templates, 11, world,
            phrasebank=default_phrasebank(),
            settings=GenerationSettings(per_template=2),
        )
        conversations = list(conversations)
        assert report.successes == 6
        assert report.per_template == {1: 2, 9: 2, 10: 2}
        assert [c.id for c in conversations] == [
            "t01-n01", "t01-n02", "t09-n01", "t09-n02", "t10-n01", "t10-n02",
        ]

    def test_per_template_zero_rejected(self):
        with pytest.raises(ValueError):
            GenerationSettings(per_template=0)

    def test_output_order_by_template_then_ordinal(self, world):
        templates = [t for t in builtin_templates() if t.id in (10, 2)]
        conversations, _ = generate_dataset(
            templates, 5, world,
            phrasebank=default_phrasebank(),
            settings=GenerationSettings(per_template=2),
        )
        assert [c.id for c in conversations] == [
            "t02-n01", "t02-n02", "t10-n01", "t10-n02",
        ]

    def test_stream_independence(self, world):
        # removing one template leaves every other conversation byte-identical
        settings = GenerationSettings(per_template=2)
        full, _ = generate_dataset(
            builtin_templates(), 5, world,
            phrasebank=default_phrasebank(), settings=settings,
        )
        reduced_templates = [t for t in builtin_templates() if t.id != 7]
        reduced, _ = generate_dataset(
            reduced_templates, 5, world,
            phrasebank=default_phrasebank(), settings=settings,
        )
        full_by_id = {c.id: dataset_line(c) for c in full}
        reduced_by_id = {c.id: dataset_line(c) for c in reduced}
        assert set(full_by_id) - set(reduced_by_id) == {"t07-n01", "t07-n02"}
        for cid, record in reduced_by_id.items():
            assert full_by_id[cid] == record

    def test_different_seeds_differ(self, world):
        templates = builtin_templates()[:3]
        settings = GenerationSettings(per_template=2)
        a, _ = generate_dataset(
            templates, 1, world,
            phrasebank=default_phrasebank(), settings=settings,
        )
        b, _ = generate_dataset(
            templates, 2, world,
            phrasebank=default_phrasebank(), settings=settings,
        )
        assert [dataset_line(c) for c in a] != [
            dataset_line(c) for c in b
        ]

    def test_exhaustions_reported_not_raised(self):
        # all-positive corpus: template 9 works, template 1 (needs a
        # denial) cannot
        world, _ = engineered_template9_world()
        templates = [t for t in builtin_templates() if t.id in (1, 9)]
        conversations, report = generate_dataset(
            templates, 1, world,
            phrasebank=default_phrasebank(),
            settings=GenerationSettings(per_template=1, retry_budget=5),
        )
        conversations = list(conversations)
        assert report.successes == 1
        assert [c.template_id for c in conversations] == [9]
        assert len(report.exhausted) == 1
        assert report.exhausted[0]["template_id"] == 1


class TestSearchCost:
    # p_skip=1.0: every search has no answers and must still not walk
    @pytest.mark.parametrize("p_skip", [0.25, 1.0])
    def test_generation_never_walks_the_catalog(self, world, monkeypatch, p_skip):
        # a catalog whose search index is not built yet
        fresh = dataclasses.replace(world, catalog=make_catalog(list(world.catalog)))
        walks, valued, seeds, builds = [], set(), set(), []
        build = ProductCatalog._build_search_index
        sample_seed = assembly.sample_seed

        def counting_build(catalog):
            builds.append(catalog)
            return build(catalog)

        def recording_sample_seed(*args):
            seed = sample_seed(*args)
            seeds.add(seed)
            return seed

        def recording_value(product, feature):
            valued.add(product.id)
            return getattr(product, feature)

        monkeypatch.setattr(ProductCatalog, "_build_search_index", counting_build)
        monkeypatch.setattr(ProductCatalog, "__iter__",
                            lambda catalog: walks.append(catalog) or iter(()))
        monkeypatch.setattr(Product, "searchable_value", recording_value)
        monkeypatch.setattr(assembly, "sample_seed", recording_sample_seed)
        conversations, report = generate_dataset(
            builtin_templates(), 7, fresh, phrasebank=default_phrasebank(),
            settings=GenerationSettings(per_template=2, p_skip=p_skip),
        )
        conversations = list(conversations)
        assert report.successes == len(conversations) == 28
        assert walks == []
        assert valued and valued <= seeds
        assert builds == ([] if p_skip == 1.0 else [fresh.catalog])
        assert all(catalog is fresh.catalog for catalog in builds)
