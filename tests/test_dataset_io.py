"""Serialization round-trips, the reader against its reference copy
(tests/dataset_reference.py), the six validation rules (one targeted
mutation each, and pinned reports of seeded forgery combinations), and
dataset statistics."""

import copy
import dataclasses
import hashlib
import json
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shoptalk import assembly, dataset_io
from shoptalk.assembly import GenerationSettings, builtin_templates, generate_dataset
from shoptalk.dataset_io import (
    read_dataset,
    stats,
    validate,
)
from shoptalk.errors import SchemaViolationError
from shoptalk.annotate import default_lexicons
from shoptalk.negotiation import default_phrasebank
from shoptalk.world import build_world

import dataset_reference
from conftest import JSON_VALUES, make_catalog, write_dataset_file
from dataset_reference import conversation_record, dataset_line


@pytest.fixture(scope="module")
def generated(world):
    conversations, report = generate_dataset(
        builtin_templates(), 4242, world, phrasebank=default_phrasebank(),
        settings=GenerationSettings(per_template=2),
    )
    return list(conversations), report


class TestRoundTrip:
    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset_file([], path)
        assert path.read_text() == ""
        assert list(read_dataset(path)) == []

    def test_single_conversation_round_trips(self, tmp_path, generated):
        conversations, _ = generated
        path = tmp_path / "one.jsonl"
        write_dataset_file(conversations[:1], path)
        again = list(read_dataset(path))
        assert again == conversations[:1]

    def test_full_run_round_trips_with_unique_ids(self, tmp_path, generated):
        conversations, _ = generated
        path = tmp_path / "all.jsonl"
        write_dataset_file(conversations, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(conversations)
        ids = [json.loads(line)["id"] for line in lines]
        assert len(set(ids)) == len(ids)
        assert list(read_dataset(path)) == conversations

    def test_rewrite_is_byte_identical(self, tmp_path, generated):
        conversations, _ = generated
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_dataset_file(conversations, first)
        write_dataset_file(read_dataset(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_bare_carriage_return_is_whitespace(self, tmp_path, generated):
        conversations, _ = generated
        path = tmp_path / "cr.jsonl"
        record = conversation_record(conversations[0])
        path.write_text(json.dumps(record, separators=(",\r", ":\r")) + "\n")
        assert list(read_dataset(path)) == conversations[:1]

    @pytest.mark.parametrize("version", ["99", "true", "1.0", '"1"'])
    def test_bad_schema_version_raises(self, tmp_path, generated, version):
        record = conversation_record(generated[0][0])
        record["schema_version"] = "PLACEHOLDER"
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record).replace('"PLACEHOLDER"', version) + "\n")
        with pytest.raises(SchemaViolationError) as exc_info:
            list(read_dataset(path))
        assert exc_info.value.line_no == 1

    def test_garbage_line_raises_with_line_number(self, tmp_path, generated):
        conversations, _ = generated
        path = tmp_path / "garble.jsonl"
        write_dataset_file(conversations[:2], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        with pytest.raises(SchemaViolationError) as exc_info:
            list(read_dataset(path))
        assert exc_info.value.line_no == 3

    def test_non_object_pair_trace_entry_raises_with_line_number(self, tmp_path, generated):
        conversations, _ = generated
        record = conversation_record(conversations[1])
        record["pair_trace"] = [1]
        path = tmp_path / "trace.jsonl"
        write_dataset_file(conversations[:1], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(SchemaViolationError) as exc_info:
            list(read_dataset(path))
        assert exc_info.value.line_no == 2
        assert "pair_trace" in str(exc_info.value)


class TestReadDatasetTypes:
    """A field of the wrong JSON type is a schema violation naming its line,
    not a coerced value or a bare exception."""

    @pytest.mark.parametrize("where, key, literal", [
        ("ref", "sentence_ordinal", "1e400"),
        ("ref", "score", "1" * 400),
        ("ref", "sentence_ordinal", "true"),
        ("ref", "sentence_ordinal", '"0"'),
        ("record", "template_id", "1e400"),
        ("record", "master_seed", "1e400"),
        ("record", "id", "7"),
    ], ids=["ordinal-1e400", "score-400-digits", "ordinal-true", "ordinal-string",
            "template-id-1e400", "master-seed-1e400", "numeric-id"])
    def test_rejected_with_line_number(self, tmp_path, generated, where, key, literal):
        conversations, _ = generated
        record = conversation_record(conversations[1])
        target = record if where == "record" else first_grounded_turn(record)["grounding"][0]
        target[key] = "PLACEHOLDER"
        path = tmp_path / "typed.jsonl"
        write_dataset_file(conversations[:1], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record).replace('"PLACEHOLDER"', literal) + "\n")
        with pytest.raises(SchemaViolationError) as exc_info:
            list(read_dataset(path))
        assert exc_info.value.line_no == 2

    @pytest.mark.parametrize("edit, reason", [
        (lambda record: record["product_trajectory"].append(7),
         "product_trajectory must be a list of strings"),
        (lambda record: record["alternatives"]["members"].append(None),
         "members must be a list of strings"),
        (lambda record: record["pair_trace"][0].update(kind=7),
         "pair_trace kind must be a string"),
    ], ids=["trajectory-number", "member-null", "trace-kind-number"])
    def test_non_string_rejected_with_line_number(self, tmp_path, generated, edit, reason):
        conversations, _ = generated
        record = copy.deepcopy(conversation_record(conversations[1]))
        edit(record)
        path = tmp_path / "typed.jsonl"
        write_dataset_file(conversations[:1], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(SchemaViolationError) as exc_info:
            list(read_dataset(path))
        assert str(exc_info.value) == f"schema violation at line 2: {reason}"


def _objects(value):
    """Every JSON object in ``value``, itself included."""
    if isinstance(value, dict):
        yield value
    for child in value.values() if isinstance(value, dict) else value:
        if isinstance(child, (dict, list)):
            yield from _objects(child)


RECORD_KEYS = (
    "schema_version", "id", "template_id", "master_seed", "turns", "pair_trace",
    "product_trajectory", "alternatives", "seed_product", "members", "speaker",
    "text", "act", "product_id", "feature", "grounding", "review_id",
    "sentence_ordinal", "score", "label", "kind",
)


def fuzzed_record(data, conversation, mutations):
    """The record of ``conversation`` with ``mutations`` fields, drawn from
    ``data``, each removed or set to an arbitrary JSON value."""
    record = json.loads(json.dumps(conversation_record(conversation)))
    for _ in range(mutations):
        target = data.draw(st.sampled_from(list(_objects(record))))
        key = data.draw(st.sampled_from(RECORD_KEYS) | st.text(max_size=4))
        if data.draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = data.draw(JSON_VALUES)
    return record


class TestReadDatasetFuzz:
    """Any line is read, or is a schema violation naming it; what is read
    can be counted and validated without any other exception."""

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        return tmp_path_factory.mktemp("dataset-fuzz")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_record(self, directory, world, generated, data):
        record = fuzzed_record(data, generated[0][0], data.draw(st.integers(1, 3)))
        path = directory / "dataset.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        self._check(path, world)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=60))
    @example("[" * 100_000)
    def test_arbitrary_line(self, directory, world, line):
        path = directory / "dataset.jsonl"
        path.write_text(line.replace("\n", " ") + "\n", encoding="utf-8")
        self._check(path, world)

    @staticmethod
    def _check(path, world):
        try:
            conversations = list(read_dataset(path))
        except SchemaViolationError as exc:
            assert exc.line_no == 1
            return
        assert len(conversations) <= 1
        stats(path)
        validate(path, world)


def read_outcome(reader, path):
    """The conversations ``reader`` yields from ``path`` and the (line,
    message) of the schema violation that stops it, or None."""
    conversations = []
    try:
        for conversation in reader(path):
            conversations.append(conversation)
    except SchemaViolationError as exc:
        return conversations, (exc.line_no, str(exc))
    return conversations, None


def assert_same_conversation(lean, reference):
    """Equal records, serialized, so that 1 and 1.0 (and NaN) compare as
    written, and fields of the same exact types."""
    assert len(lean.search_turns) == len(reference.search_turns)
    assert json.dumps(conversation_record(lean), sort_keys=True) == json.dumps(
        conversation_record(reference), sort_keys=True
    )
    for turn, ref_turn in zip(lean.turns, reference.turns, strict=True):
        assert type(turn.product_id) is type(ref_turn.product_id)
        assert type(turn.feature) is type(ref_turn.feature)
        for ref, ref_ref in zip(turn.grounding, ref_turn.grounding, strict=True):
            assert type(ref.score) is type(ref_ref.score)
            assert type(ref.sentence_ordinal) is type(ref_ref.sentence_ordinal)
            assert type(ref.feature) is type(ref_ref.feature)


class TestReaderEquivalence:
    """read_dataset agrees with the reference reader in
    tests/dataset_reference.py: every line gives the same conversation, or
    the same schema violation with the same line number and message."""

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reader-equivalence")

    @staticmethod
    def _check(path):
        conversations, error = read_outcome(read_dataset, path)
        expected, expected_error = read_outcome(dataset_reference.read_dataset, path)
        assert error == expected_error
        assert len(conversations) == len(expected)
        for lean, reference in zip(conversations, expected):
            assert_same_conversation(lean, reference)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fuzzed_lines(self, directory, generated, data):
        conversations = generated[0][:4]
        lines = [
            json.dumps(fuzzed_record(
                data, data.draw(st.sampled_from(conversations)),
                data.draw(st.integers(0, 3)),
            ))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        path = directory / "dataset.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        self._check(path)

    @pytest.mark.parametrize("edit, reason", [
        (lambda turn: turn["grounding"].append(1), "turn has an ill-typed"),
        (lambda turn: turn.update(grounding=[{}, 1]), "turn has an ill-typed"),
        (lambda turn: turn.update(grounding=None), "turn has an ill-typed"),
        (lambda turn: turn.pop("grounding"), None),
        (lambda turn: turn["grounding"][0].update(score=1), None),
    ], ids=["ref-then-non-object", "missing-fields-then-non-object", "null-grounding",
            "no-grounding-key", "integer-score"])
    def test_edited_grounded_turn(self, tmp_path, generated, edit, reason):
        conversations, _ = generated
        record = copy.deepcopy(conversation_record(conversations[1]))
        edit(first_grounded_turn(record))
        path = tmp_path / "edited.jsonl"
        write_dataset_file(conversations[:1], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self._check(path)
        _, error = read_outcome(read_dataset, path)
        if reason is None:
            assert error is None
        else:
            assert error[0] == 2 and reason in error[1]

    @pytest.mark.parametrize("position", [0, -1])
    @pytest.mark.parametrize("turn", [1, "turn", [], None])
    def test_non_object_turn(self, tmp_path, generated, position, turn):
        record = copy.deepcopy(conversation_record(generated[0][0]))
        record["turns"][position] = turn
        path = tmp_path / "turn.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        self._check(path)
        assert read_outcome(read_dataset, path)[1] == (
            1, "schema violation at line 1: turn is not an object"
        )


# strings as a dataset may hold them: any text a UTF-8 file can carry
DATASET_TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=8)
SPECIAL_TEXT = ['"', "\\", "\n", "\x00", "\x7f", "\u2028", "é", "😀"]


def drawn_record(data, conversation):
    """The record of ``conversation`` with every string and score of its
    turns, and its pair trace, drawn from ``data`` as generation could make
    them: any text, finite scores and trace entries of the generated
    shape."""
    record = copy.deepcopy(conversation_record(conversation))
    optional = st.none() | DATASET_TEXT
    for turn in record["turns"]:
        turn.update(text=data.draw(DATASET_TEXT), feature=data.draw(optional),
                    product_id=data.draw(optional))
        for ref in turn["grounding"]:
            ref.update(review_id=data.draw(DATASET_TEXT), label=data.draw(DATASET_TEXT),
                       score=data.draw(st.floats(allow_nan=False, allow_infinity=False)))
    side = st.fixed_dictionaries({"feature": optional, "product_id": optional})
    entry = st.fixed_dictionaries({"kind": DATASET_TEXT, "customer": side, "assistant": side})
    record["pair_trace"] = data.draw(st.lists(entry, max_size=3))
    return record


class TestWriterEquivalence:
    """write_dataset writes, for every conversation generation makes, the
    line the reference writer in tests/dataset_reference.py wrote: finite
    scores and pair-trace entries of the one generated shape, with any
    text.  test_cli_property checks the same of every line ``generate``
    writes for a drawn corpus."""

    @pytest.fixture(scope="class")
    def directory(self, tmp_path_factory):
        return tmp_path_factory.mktemp("writer-equivalence")

    @staticmethod
    def _check(directory, records):
        """Read ``records`` back from a file and write the conversations
        read; the lines must be the reference writer's."""
        source, written = directory / "source.jsonl", directory / "written.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        conversations, _ = read_outcome(read_dataset, source)
        write_dataset_file(conversations, written)
        expected = "".join(dataset_line(c) for c in conversations)
        assert written.read_bytes().decode("utf-8") == expected
        return conversations

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_drawn_values(self, directory, generated, data):
        conversation = data.draw(st.sampled_from(generated[0][:4]))
        assert len(self._check(directory, [drawn_record(data, conversation)])) == 1

    @pytest.mark.parametrize("score", [
        "-0.0", "1e-07", "1e+16", "1", "0.1",
    ])
    def test_score(self, directory, generated, score):
        record = copy.deepcopy(conversation_record(generated[0][1]))
        first_grounded_turn(record)["grounding"][0]["score"] = float(score)
        assert len(self._check(directory, [record])) == 1

    @pytest.mark.parametrize("text", SPECIAL_TEXT + ["".join(SPECIAL_TEXT)])
    def test_special_characters(self, directory, generated, text):
        record = copy.deepcopy(conversation_record(generated[0][1]))
        turn = first_grounded_turn(record)
        turn["text"] += text
        turn["feature"] = turn["grounding"][0]["label"] = text
        record["id"] = text
        record["product_trajectory"].append(text)
        assert len(self._check(directory, [record])) == 1

    @pytest.mark.parametrize("edit", [
        lambda record: first_grounded_turn(record).update(product_id=None, feature=None),
        lambda record: first_grounded_turn(record).update(grounding=[]),
        lambda record: record.update(product_trajectory=[]),
        lambda record: record.update(pair_trace=[]),
    ], ids=["null-product-and-feature", "empty-grounding", "empty-trajectory",
            "empty-pair-trace"])
    def test_edited_record(self, directory, generated, edit):
        record = copy.deepcopy(conversation_record(generated[0][1]))
        edit(record)
        assert len(self._check(directory, [record])) == 1

    @pytest.mark.parametrize("entry", [
        {"kind": "RequestInform", "customer": {"feature": "battery", "product_id": None},
         "assistant": {"feature": "battery", "product_id": "B1"}},
    ], ids=["generated-shape"])
    def test_pair_trace_entry(self, directory, generated, entry):
        record = copy.deepcopy(conversation_record(generated[0][1]))
        record["pair_trace"][0] = entry
        assert len(self._check(directory, [record])) == 1

    def test_generated_at_another_seed(self, tmp_path, world):
        conversations, report = generate_dataset(
            builtin_templates(), 8, world, phrasebank=default_phrasebank(),
            settings=GenerationSettings(per_template=10),
        )
        conversations = list(conversations)
        path = tmp_path / "dataset.jsonl"
        write_dataset_file(conversations, path)
        assert len(conversations) == report.successes > 100
        expected = "".join(dataset_line(c) for c in conversations)
        assert path.read_bytes().decode("utf-8") == expected


class TestAppendFiles:
    def test_file_shorter_than_its_size_raises(self, tmp_path):
        """As when a file shrinks while it is appended."""
        (tmp_path / "part").write_bytes(b"0123\n")
        with open(tmp_path / "part", "rb") as src, open(tmp_path / "dataset.jsonl", "wb") as dst:
            with pytest.raises(OSError, match="file shrank while being appended: 5 of 9 bytes"):
                dataset_io._append(src.fileno(), dst.fileno(), 9)


def mutate_dataset(tmp_path, conversations, mutator, name="mutated.jsonl"):
    """Write conversations, apply mutator to a copy of the first record."""
    records = [conversation_record(c) for c in conversations]
    records[0] = copy.deepcopy(records[0])
    mutator(records[0])
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def first_grounded_turn(record):
    for turn in record["turns"]:
        if turn["grounding"]:
            return turn
    raise AssertionError("no grounded turn found")


class TestValidate:
    def test_fresh_dataset_is_clean(self, tmp_path, world, generated):
        conversations, _ = generated
        path = tmp_path / "clean.jsonl"
        write_dataset_file(conversations, path)
        report = validate(path, world)
        assert report.conversations_checked == len(conversations)
        assert report.passed
        assert report.violations == []

    def test_mutation_edit_text_flags_grounding_only(self, tmp_path, world, generated):
        conversations, _ = generated

        def edit_text(record):
            turn = first_grounded_turn(record)
            turn["text"] = turn["text"].replace("the", "thee", 1)

        path = mutate_dataset(tmp_path, conversations, edit_text)
        report = validate(path, world)
        assert len(report.violations) == 1
        cid, rule, _ = report.violations[0]
        assert rule == "grounding"
        assert cid == conversations[0].id

    def test_mutation_dangling_review_flags_grounding_only(self, tmp_path, world, generated):
        conversations, _ = generated

        def dangle(record):
            first_grounded_turn(record)["grounding"][0]["review_id"] = "r-ghost"

        path = mutate_dataset(tmp_path, conversations, dangle)
        report = validate(path, world)
        assert len(report.violations) == 1
        assert report.violations[0][1] == "grounding"

    def test_mutation_flip_label_flags_polarity_only(self, tmp_path, world, generated):
        conversations, _ = generated

        def flip(record):
            ref = first_grounded_turn(record)["grounding"][0]
            ref["label"] = "negative" if ref["label"] == "positive" else "positive"

        path = mutate_dataset(tmp_path, conversations, flip)
        report = validate(path, world)
        assert len(report.violations) == 1
        assert report.violations[0][1] == "polarity"

    def test_mutation_trace_kind_flags_template_only(self, tmp_path, world, generated):
        conversations, _ = generated

        def rewrite_trace(record):
            record["pair_trace"][0]["kind"] = "SearchAgreement" \
                if record["pair_trace"][0]["kind"] != "SearchAgreement" else "RequestInform"

        path = mutate_dataset(tmp_path, conversations, rewrite_trace)
        report = validate(path, world)
        assert {v[1] for v in report.violations} == {"template_conformance"}
        assert len(report.violations) == 1

    def test_mutation_trajectory_flags_pool_only(self, tmp_path, world, generated):
        conversations, _ = generated

        def retarget(record):
            members = record["alternatives"]["members"]
            other = [m for m in members if m != record["alternatives"]["seed_product"]]
            record["product_trajectory"][0] = (
                other[0] if other else "B0-nowhere"
            )

        path = mutate_dataset(tmp_path, conversations, retarget)
        report = validate(path, world)
        assert {v[1] for v in report.violations} == {"product_pool"}
        assert len(report.violations) == 1

    def test_mutation_uncatalogued_also_viewed_flags_pool_only(
        self, tmp_path, world, generated
    ):
        # real metadata links to products that are not in the catalog: such
        # a product is outside the pool even where an also-viewed list names it
        dangling = "ZZZ-not-in-catalog"
        linked = dataclasses.replace(world, catalog=make_catalog([
            dataclasses.replace(p, also_viewed=p.also_viewed + (dangling,))
            for p in world.catalog
        ]))
        conversations, _ = generated
        clean = tmp_path / "clean.jsonl"
        write_dataset_file(conversations, clean)
        assert validate(clean, linked).passed

        def forge(record):
            assert record["id"] == "t01-n01"
            assert record["pair_trace"][0]["kind"] == "RequestInform"
            turn = _evaluation_turns(record)[0]
            assert (turn["act"], turn["speaker"]) == ("request_inform", "customer")
            turn["product_id"] = dangling
            record["pair_trace"][0]["customer"]["product_id"] = dangling
            record["product_trajectory"].append(dangling)

        path = mutate_dataset(tmp_path, conversations, forge)
        report = validate(path, linked)
        assert [v[:2] for v in report.violations] == [("t01-n01", "product_pool")] * 2

    def test_mutation_missing_product_id_flags_pool_only(self, tmp_path, world, generated):
        conversations, _ = generated

        def forget(record):
            assert record["pair_trace"][0]["kind"] == "RequestInform"
            _evaluation_turns(record)[0]["product_id"] = None

        path = mutate_dataset(tmp_path, conversations, forget)
        report = validate(path, world)
        assert [v[1:] for v in report.violations] == [
            ("product_pool", "turn 0: missing product id")
        ]

    def test_mutation_turn_feature_flags_grounding_only(self, tmp_path, world, generated):
        conversations, _ = generated

        def rename(record):
            turn = next(t for t in record["turns"]
                        if t["speaker"] == "assistant" and t["grounding"])
            turn["feature"] = "zzz-other"

        path = mutate_dataset(tmp_path, conversations, rename)
        report = validate(path, world)
        assert [v[:2] for v in report.violations] == [(conversations[0].id, "grounding")]
        assert "zzz-other" in report.violations[0][2]

    def test_mutation_duplicate_ref_flags_reuse_only(self, tmp_path, world, generated):
        conversations, _ = generated

        def duplicate(record):
            grounding = first_grounded_turn(record)["grounding"]
            grounding.append(dict(grounding[0]))

        path = mutate_dataset(tmp_path, conversations, duplicate)
        report = validate(path, world)
        assert {v[1] for v in report.violations} == {"span_reuse"}
        assert len(report.violations) == 1

    def test_mutation_swapped_pair_flags_alternation_only(self, tmp_path, world, generated):
        conversations, _ = generated

        def swap(record):
            turns = record["turns"]
            eval_positions = [
                i for i, t in enumerate(turns)
                if t["act"] not in ("search_question", "search_answer")
            ]
            a, b = eval_positions[0], eval_positions[1]
            turns[a], turns[b] = turns[b], turns[a]

        path = mutate_dataset(tmp_path, conversations, swap)
        report = validate(path, world)
        assert {v[1] for v in report.violations} == {"alternation"}

    def test_mutation_moved_search_turns_flag_template(self, tmp_path, world, generated):
        conversations, _ = generated

        def move(record):
            # the last search question and answer, after the first evaluation pair
            turns = record["turns"]
            n = sum(t["act"] in ("search_question", "search_answer") for t in turns)
            moved = turns[n - 2 : n]
            del turns[n - 2 : n]
            turns[n:n] = moved

        path = mutate_dataset(tmp_path, conversations, move)
        report = validate(path, world)
        assert (conversations[0].id, "template_conformance") in {
            v[:2] for v in report.violations
        }

    def test_report_independent_of_line_order(self, tmp_path, world, generated):
        conversations, _ = generated
        records = copy.deepcopy([conversation_record(c) for c in conversations])
        first_grounded_turn(records[0])["text"] = "completely replaced text"
        records[3]["pair_trace"][0]["kind"] = "Bogus"
        ref = first_grounded_turn(records[7])["grounding"][0]
        ref["label"] = "negative" if ref["label"] == "positive" else "positive"
        lines = [json.dumps(record, sort_keys=True) + "\n" for record in records]
        shuffled_lines = random.Random(3).sample(lines, len(lines))
        assert shuffled_lines != lines
        paths = tmp_path / "ordered.jsonl", tmp_path / "shuffled.jsonl"
        for path, content in zip(paths, (lines, shuffled_lines)):
            path.write_text("".join(content), encoding="utf-8")
        ordered, shuffled = (validate(path, world) for path in paths)
        assert len(ordered.violations) >= 3
        assert shuffled.summary() == ordered.summary()
        assert shuffled.to_records() == ordered.to_records()

    def test_report_ordering_deterministic(self, tmp_path, world, generated):
        conversations, _ = generated

        def wreck_two(record):
            turn = first_grounded_turn(record)
            turn["text"] = "completely replaced text"
            record["pair_trace"][0]["kind"] = "Bogus"

        path = mutate_dataset(tmp_path, conversations, wreck_two)
        first = validate(path, world).violations
        second = validate(path, world).violations
        assert first == second
        assert first == sorted(first)


class TestScopedValidation:
    """A lazy world derives only the products the dataset names; each
    mutation must get the violations a world derived whole gives."""

    @staticmethod
    def _validate_both(path, world):
        lazy = build_world(world.catalog, world.store, default_lexicons(), lazy=True)
        scoped = validate(path, lazy)
        assert lazy.pending, "the dataset names every product: nothing is scoped"
        full = validate(path, world)
        assert scoped.violations == full.violations
        return full.violations

    @staticmethod
    def _one_conversation(tmp_path, generated, mutator):
        return mutate_dataset(tmp_path, generated[0][:1], mutator)

    def test_ref_forged_into_an_unnamed_product(self, tmp_path, world, generated):
        conversation = generated[0][0]
        named = {conversation.alternatives.seed_product, *conversation.product_trajectory}
        named.update(t.product_id for t in conversation.evaluation_turns)
        forged = next(r for r in world.store if r.product_id not in named)

        def forge(record):
            ref = first_grounded_turn(record)["grounding"][0]
            ref["review_id"], ref["sentence_ordinal"] = forged.id, 0

        path = self._one_conversation(tmp_path, generated, forge)
        violations = self._validate_both(path, world)
        # checked against the forged review's sentences, so not "out of range"
        assert any("not a verbatim substring" in v[2] for v in violations)
        assert not any("out of range" in v[2] for v in violations)

    def test_turn_names_an_uncatalogued_product(self, tmp_path, world, generated):
        def retarget(record):
            first_grounded_turn(record)["product_id"] = "B-NOT-IN-CATALOG"

        path = self._one_conversation(tmp_path, generated, retarget)
        violations = self._validate_both(path, world)
        assert {"product_pool", "polarity"} <= {v[1] for v in violations}

    @pytest.mark.parametrize("where", ["seed", "trajectory", "neutral turn"])
    def test_product_no_ref_names(self, tmp_path, world, generated, where):
        """A lazy world covers only the products of the refs' reviews: a
        seed, trajectory or neutral turn's product forged to a product the
        conversation does not name leaves that product uncovered."""
        conversation = generated[0][0]
        named = {conversation.alternatives.seed_product, *conversation.product_trajectory}
        for turn in conversation.evaluation_turns:
            named.add(turn.product_id)
            named.update(world.store.get(ref.review_id).product_id for ref in turn.grounding)
        other = next(r.product_id for r in world.store if r.product_id not in named)

        def forge(record):
            if where == "seed":  # and the trajectory's start, which must equal it
                alternatives = record["alternatives"]
                alternatives["seed_product"] = record["product_trajectory"][0] = other
                alternatives["members"] = sorted({*alternatives["members"], other})
            elif where == "trajectory":
                record["product_trajectory"].append(other)
            else:
                neutral = _evaluation_turns(record)[0]
                assert (neutral["act"], neutral["grounding"]) == ("request_inform", [])
                neutral["product_id"] = other

        path = self._one_conversation(tmp_path, generated, forge)
        violations = self._validate_both(path, world)
        assert {v[1] for v in violations} == {"product_pool"}

    def test_unknown_review(self, tmp_path, world, generated):
        def dangle(record):
            first_grounded_turn(record)["grounding"][0]["review_id"] = "r-ghost"

        path = self._one_conversation(tmp_path, generated, dangle)
        violations = self._validate_both(path, world)
        assert [v[1:] for v in violations] == [
            ("grounding", f"turn {self._first_grounded(path)}: unknown review r-ghost")
        ]

    @staticmethod
    def _first_grounded(path):
        turns = next(read_dataset(path)).evaluation_turns
        return next(i for i, t in enumerate(turns) if t.grounding)


def _grounded_turns(record):
    return [t for t in record["turns"] if t.get("grounding")]


def _evaluation_turns(record):
    return [t for t in record["turns"]
            if t["act"] not in ("search_question", "search_answer")]


def _any_ref(record, rng):
    return rng.choice(rng.choice(_grounded_turns(record))["grounding"])


def _flip(label):
    return "negative" if label == "positive" else "positive"


def _mismatch_and_flip(record, rng, donor):
    ref = _any_ref(record, rng)
    ref["feature"], ref["label"] = "zzz-" + ref["feature"], _flip(ref["label"])


def _forge_ordinal_and_score(record, rng, donor):
    ref = _any_ref(record, rng)
    ref["sentence_ordinal"] = rng.randrange(-1, 8)
    ref["score"] = ref["score"] + 0.25


def _unknown_act(record, rng, donor):
    rng.choice(_grounded_turns(record))["act"] = "bogus_act"


def _neutral_question_ref(record, rng, donor):
    question = rng.choice([t for t in record["turns"]
                           if t["act"] == "request_inform" and t["speaker"] == "customer"])
    question["grounding"] = [dict(_any_ref(record, rng))]


def _duplicate_ref(record, rng, donor):
    ref = _any_ref(record, rng)
    rng.choice(_grounded_turns(record))["grounding"].append(dict(ref))


def _foreign_trajectory(record, rng, donor):
    """The donor's trajectory, whole or after this record's seed."""
    foreign = donor["product_trajectory"]
    own = record["product_trajectory"]
    record["product_trajectory"] = rng.choice([foreign, own[:1] + foreign[1:] + foreign[:1]])


def _swap_speaker(record, rng, donor):
    turn = rng.choice(_evaluation_turns(record))
    turn["speaker"] = "customer" if turn["speaker"] == "assistant" else "assistant"


def _drop_last_turn(record, rng, donor):
    record["turns"].pop()


def _unknown_template(record, rng, donor):
    record["template_id"] = 99


def _rewrite_trace(record, rng, donor):
    rng.choice(record["pair_trace"])["kind"] = "Bogus"


def _strip_grounding(record, rng, donor):
    rng.choice(_grounded_turns(record))["grounding"] = []


def _dangle_review(record, rng, donor):
    _any_ref(record, rng)["review_id"] = "r-ghost"


def _borrow_ref(record, rng, donor):
    _any_ref(record, rng).update(_any_ref(donor, rng))


def _edit_text(record, rng, donor):
    rng.choice(_grounded_turns(record))["text"] = "completely replaced text"


def _retarget_turn(record, rng, donor):
    turn = rng.choice(_evaluation_turns(record))
    turn["product_id"] = rng.choice([None, "B-NOT-IN-CATALOG", donor["alternatives"]["seed_product"]])


FORGERIES = (
    _mismatch_and_flip, _forge_ordinal_and_score, _unknown_act, _neutral_question_ref,
    _duplicate_ref, _foreign_trajectory, _swap_speaker, _drop_last_turn,
    _unknown_template, _rewrite_trace, _strip_grounding, _dangle_review, _borrow_ref,
    _edit_text, _retarget_turn,
)

# SHA-256 of the sorted violation records of each forged dataset k, pinned
# when every rule was still a separate walk over the conversation.
VIOLATION_GOLDENS = (
    "54d462ae259822fe22bd80b2c961e56be330864b49939cdb0639ea5b3d5c5a0b",
    "ed5e36a3c211f15e76ce9d2824346a7383c7475564c76328aa59b81e9b2bd2f1",
    "9764596349e18e3c1ddc26d382daded09d8dee23889b5f8009ae2c15b7f11903",
    "50889dbad91055931e0fb7c7de4bb76c35cf6a579b1e8e3b54de29c3bf99222b",
    "cfb9d5b9742750d3049ab0c5a325af5f1244a9ee9785e98faf8936d390a3be8e",
    "3a69a2f29821659797e50b2e72977724162ae058f91c9247f5f714e483ea620e",
    "2123c674366a809914457eda4fac611570b9a6b0321e56ced394ed59363e6b41",
    "26216b56d908915a6b1978b4522bea5bed6750167d1e3e1b2d20654a91cddfd3",
    "2c6b8ca7fb2b2d003e3cbd62ae795c1bd14867647b2571a1903c14cf5d2ab5bd",
    "e4225d2c15893b5e0b1774385ddfb8b43f0a5bd77471e08b6b239d3ee5cce008",
    "af70f94462543e243127ef360b9fb999035e9b0c2c7293bfcf9ab79d53c01767",
    "f3dfc57945d5b4f813f8ba1363e1f743952b900c3218ff65868a509b9a3d7720",
    "0cf94544cda616facd12e000b244c4291edc1870a885d85e5e384dcfd44dd4f0",
    "9439d0f6d325beb6c84913083b109621d8a592bcee59bfafc56d468fb79788bd",
    "18983701a35ce8a58fe40d79406bacb2386fb5eae2eb11240ecd2a16addaa6a3",
    "5ec40556cb9f3f7cb70e302d3b9e69b7002ca08ebc547282c01d50d4dc510f1e",
    "164b1a2818f4086e9a908cd0e6ac8d82b81432353103362b23cacc048b3aba60",
    "bff234962c47db88a4aeb5244458db2e90b90c1bd7c376ef5f3b675b2e7d1ea9",
    "7f446aca547fa06f07f5d4f9958e142f2d85b7fa72643b722ac7432da5cc3a13",
    "f0751d8e1f5d6281e6c1c3d70df76112836860f855096a6a1fc1e0e3f56690c4",
    "ee42a1703c748be17ccd158288c1c301ffa18f81cc81ecafba1533bfa0e43185",
    "4844bc11ac530ecc1e47d6f7c505d59302d587859039a8f7665a2af18f329feb",
    "2a0506335c55f3171cee95430d2299de1a9743343df619c07943a09f5f702218",
    "42c558e149bfed64a70f7147149ce1dd6e2aa116c2b56681644ebd00a7c2da5d",
    "177b0390a8ec0631a88e0398b7211bfe420e60d90f50b373ae7aa051f2612f82",
    "61790a12aa7536c84c9e578f58101c68ce71072106b0a089e9595bd49f2f7f18",
    "9d847b69302b04e988e1d8bf74b2761fee8f02236f6c2634b0584a51bd1ae851",
    "1cbae0d67d9f1f145153e785ed52c7f1f71a521481979f4a82187a2162d62755",
    "5e1164d8416c65a165901b7f3ee47d2d65b6318ea857c5657c8feb0cb732088c",
    "97e08b44fc1ad9e516ed9813ac1d69c2090d9bc94c2ca0aac8d38e534dc09891",
)


def forged_dataset(records, k):
    """The records with seeded forgeries applied: dataset k forges one to
    three conversations with one to three forgeries each, the first of them
    FORGERIES[k % len(FORGERIES)], so the family uses every forgery."""
    rng = random.Random(k)
    records = copy.deepcopy(records)
    for n, target in enumerate(rng.sample(range(len(records)), rng.randint(1, 3))):
        donor = records[(target + 1) % len(records)]
        forgeries = rng.sample(FORGERIES, rng.randint(1, 3))
        if n == 0:
            forgeries.insert(0, FORGERIES[k % len(FORGERIES)])
        for forge in forgeries:
            try:
                forge(records[target], rng, donor)
            except IndexError:
                pass  # an earlier forgery removed every turn this one targets
    return records


class TestViolationGolden:
    """Seeded combinations of forgeries, several in one conversation and
    several conversations in one dataset, give pinned violation reports."""

    @pytest.fixture(scope="class")
    def reports(self, world, generated, tmp_path_factory):
        records = [conversation_record(c) for c in generated[0]]
        directory = tmp_path_factory.mktemp("forged")
        reports = []
        for k in range(len(VIOLATION_GOLDENS)):
            path = directory / f"forged-{k}.jsonl"
            path.write_text("".join(
                json.dumps(record, sort_keys=True) + "\n"
                for record in forged_dataset(records, k)
            ), encoding="utf-8")
            reports.append(validate(path, world))
        return reports

    @pytest.mark.parametrize("k", range(len(VIOLATION_GOLDENS)))
    def test_pinned_report(self, reports, generated, k):
        report = reports[k]
        assert report.conversations_checked == len(generated[0])
        ordered = sorted(report.to_records(), key=lambda r: tuple(r.values()))
        blob = json.dumps(ordered, sort_keys=True, ensure_ascii=False).encode()
        assert hashlib.sha256(blob).hexdigest() == VIOLATION_GOLDENS[k]

    def test_family_covers_every_rule_and_combination(self, reports):
        violations = [v for report in reports for v in report.violations]
        assert {rule for _, rule, _ in violations} == {
            "grounding", "polarity", "template_conformance", "product_pool",
            "span_reuse", "alternation",
        }
        details = [detail for _, _, detail in violations]
        for needle in ("unknown act bogus_act", "neutral question must not carry grounding",
                       "grounding ref feature 'zzz-", "is not the indexed score",
                       "out of range", "used twice", "recorded trajectory",
                       "does not start at the alternatives seed"):
            assert any(needle in detail for detail in details), needle
        rules_of = {}
        for k, report in enumerate(reports):
            for cid, rule, _ in report.violations:
                rules_of.setdefault((k, cid), set()).add(rule)
        assert any({"grounding", "polarity"} <= rules for rules in rules_of.values())


class TestStats:
    def test_empty_dataset_all_zero(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_dataset_file([], path)
        result = stats(path)
        assert result.conversations == 0
        assert result.per_template == {}
        assert result.mean_turns == 0.0
        assert result.span_reuse == 0

    def test_three_templates_times_two(self, tmp_path, world):
        templates = [t for t in builtin_templates() if t.id in (1, 9, 10)]
        conversations, _ = generate_dataset(
            templates, 5, world, phrasebank=default_phrasebank(),
            settings=GenerationSettings(per_template=2),
        )
        path = tmp_path / "six.jsonl"
        write_dataset_file(conversations, path)
        result = stats(path)
        assert result.conversations == 6
        assert result.per_template == {1: 2, 9: 2, 10: 2}
        assert result.span_reuse == 0
        # template 1: 3 pairs, 9/10: 2 pairs -> turns = 8 + 2*len(pairs)
        expected_mean = (14 + 12 + 12 + 12 + 12 + 14) / 6
        assert result.mean_turns == pytest.approx(expected_mean)

    def test_span_reuse_counts_the_reuse_violations(self, tmp_path, world, generated):
        conversations, _ = generated

        def duplicate(record):
            grounded = _grounded_turns(record)
            grounded[0]["grounding"].append(dict(grounded[0]["grounding"][0]))
            grounded[-1]["grounding"].extend(map(dict, grounded[1]["grounding"]))

        path = mutate_dataset(tmp_path, conversations, duplicate)
        reused = [v for v in validate(path, world).violations if v[1] == "span_reuse"]
        assert len(reused) >= 2
        assert stats(path).span_reuse == len(reused)

    def test_counts_match_generation_report(self, tmp_path, generated):
        conversations, report = generated
        path = tmp_path / "all.jsonl"
        write_dataset_file(conversations, path)
        result = stats(path)
        assert result.conversations == report.successes
        assert result.per_template == report.per_template
        total_pairs = sum(result.per_pair_kind.values())
        assert total_pairs == sum(
            len(c.pair_trace) for c in conversations
        )


class LiveConversations:
    """Counts the Conversation objects handed to ``track`` and the most of
    them alive at one time."""

    def __init__(self):
        self.made = self.alive = self.peak = 0

    def track(self, conversation):
        self.made += 1
        self.alive += 1
        self.peak = max(self.peak, self.alive)
        weakref.finalize(conversation, self._released)
        return conversation

    def _released(self):
        self.alive -= 1


@pytest.fixture(scope="module")
def streamed(world, tmp_path_factory):
    """A 140-conversation dataset written as it is generated, with the
    live-conversation count of its generation."""
    live = LiveConversations()
    generate = assembly.generate_conversation

    def tracked(*args, **kwargs):
        conversation, attempts = generate(*args, **kwargs)
        return live.track(conversation), attempts

    path = tmp_path_factory.mktemp("streamed") / "dataset.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assembly, "generate_conversation", tracked)
        conversations, report = generate_dataset(
            builtin_templates(), 7, world, phrasebank=default_phrasebank(),
            settings=GenerationSettings(per_template=10),
        )
        write_dataset_file(conversations, path)
    return path, report, live


class TestStreaming:
    """generate, validate and stats hold one conversation at a time (two
    while the next one is made), whatever the size of the dataset."""

    def test_generation_writes_as_it_goes(self, streamed):
        path, report, live = streamed
        assert report.successes == live.made == 140
        assert len(path.read_text(encoding="utf-8").splitlines()) == 140
        assert live.peak <= 2

    @pytest.mark.parametrize("command", ["validate", "stats"])
    def test_reading_holds_at_most_two(self, streamed, world, monkeypatch, command):
        path, _, _ = streamed
        live = LiveConversations()
        read = dataset_io.conversation_from_record
        monkeypatch.setattr(dataset_io, "conversation_from_record",
                            lambda record: live.track(read(record)))
        if command == "validate":
            report = validate(path, world)
            assert (report.conversations_checked, report.violations) == (140, [])
        else:
            assert stats(path).conversations == 140
        assert live.made == 140
        assert live.peak <= 2
