"""Reference copy of the dataset reader as it was before turns and refs
were built in one pass per turn: a helper call per field, an ``all(...)``
over every grounding list and a ``tuple`` of a generator per turn.  The
production reader must give the same conversations and the same schema
violations, message for message; see
test_dataset_io.TestReaderEquivalence."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from shoptalk.assembly import Conversation
from shoptalk.errors import SchemaViolationError, parse_json, read_lines
from shoptalk.search_dialog import AlternativesSet
from shoptalk.turns import SEARCH_ACTS, GroundingRef, Turn


def _field(record: dict, key: str, kind: type, optional: bool = False):
    value = record.get(key) if optional else record[key]
    if type(value) is not kind and not (optional and value is None):
        raise ValueError(f"{key} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _object(value, what: str) -> dict:
    if type(value) is not dict:
        raise ValueError(f"{what} is not an object")
    return value


def _strings(record: dict, key: str) -> tuple[str, ...]:
    values = _field(record, key, list)
    if not all(type(value) is str for value in values):
        raise ValueError(f"{key} must be a list of strings")
    return tuple(values)


def _ref_from_record(record) -> GroundingRef:
    review_id, ordinal = record["review_id"], record["sentence_ordinal"]
    feature, score, label = record["feature"], record["score"], record["label"]
    if not (
        type(review_id) is str and type(ordinal) is int and type(feature) is str
        and type(score) in (float, int) and type(label) is str
    ):
        raise ValueError(f"grounding ref has an ill-typed field: {record!r}")
    return GroundingRef(review_id, ordinal, feature, float(score), label)


def _turn_from_record(record) -> Turn:
    speaker, text, act = record["speaker"], record["text"], record["act"]
    product_id, feature = record.get("product_id"), record.get("feature")
    grounding = record.get("grounding", [])
    if not (
        type(speaker) is str and type(text) is str and type(act) is str
        and (product_id is None or type(product_id) is str)
        and (feature is None or type(feature) is str)
        and type(grounding) is list
        and all(type(ref) is dict for ref in grounding)
    ):
        raise ValueError(
            "turn has an ill-typed speaker, text, act, product_id, feature or grounding"
        )
    return Turn(
        speaker, text, act, product_id, feature,
        tuple(_ref_from_record(ref) for ref in grounding),
    )


def conversation_from_record(record: dict) -> Conversation:
    turns = [_turn_from_record(_object(t, "turn")) for t in _field(record, "turns", list)]
    n_search = next((i for i, t in enumerate(turns) if t.act not in SEARCH_ACTS), len(turns))
    alternatives = _object(record["alternatives"], "alternatives")
    pair_trace = tuple(_field(record, "pair_trace", list, optional=True) or ())
    for entry in pair_trace:
        if type(_object(entry, "pair_trace entry").get("kind", "")) is not str:
            raise ValueError("pair_trace kind must be a string")
    return Conversation(
        id=_field(record, "id", str),
        template_id=_field(record, "template_id", int),
        master_seed=_field(record, "master_seed", int),
        search_turns=tuple(turns[:n_search]),
        evaluation_turns=tuple(turns[n_search:]),
        pair_trace=pair_trace,
        product_trajectory=_strings(record, "product_trajectory"),
        alternatives=AlternativesSet(
            seed_product=_field(alternatives, "seed_product", str),
            members=_strings(alternatives, "members"),
        ),
    )


def read_dataset(path: str | Path) -> Iterator[Conversation]:
    for line_no, line in read_lines(path):
        try:
            record = _object(parse_json(line), "line")
            version = record.get("schema_version")
            if type(version) is not int or version != 1:
                raise ValueError(f"unsupported schema_version {version!r}")
            conversation = conversation_from_record(record)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise SchemaViolationError(line_no, str(exc)) from exc
        yield conversation
