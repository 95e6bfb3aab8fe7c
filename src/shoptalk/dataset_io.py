"""Dataset serialization, re-derivation validation, and statistics.

One conversation per line (``dataset.jsonl``); ``schema_version`` must be
the JSON integer 1.  The validator trusts nothing from the generator:
substring and polarity checks are recomputed against a world (see
world.build_world) freshly derived from the ingested corpus.  It reads the
dataset once and derives each product's part of that world when a
conversation first names the product, so its cost follows the products the
dataset names, not the corpus size.

Each rule is a generator of its (rule, detail) violations.  Grounding and
polarity share one walk that resolves each ref once: a ref that does not
resolve to a sentence of a known review is a grounding violation only, and
only a ref that resolves is checked for polarity.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .assembly import Conversation, ConversationTemplate, builtin_templates
from .corpus import ProductCatalog, ReviewStore
from .errors import SchemaViolationError, parse_json, read_lines
from .negotiation import SIGNATURES
from .search_dialog import AlternativesSet
from .turns import ASSISTANT, CUSTOMER, SEARCH_ACTS, GroundingRef, Turn
from .world import World

RULE_GROUNDING = "grounding"
RULE_POLARITY = "polarity"
RULE_TEMPLATE = "template_conformance"
RULE_POOL = "product_pool"
RULE_REUSE = "span_reuse"
RULE_ALTERNATION = "alternation"

# The (customer, assistant) labels each evaluation act's grounding must
# carry; None marks the neutral question, which carries none.
_LABELS_BY_ACT = {
    kind.act: (sig.customer_label, sig.assistant_label) for kind, sig in SIGNATURES.items()
}


def write_dataset(conversations: Iterable[Conversation], path: str | Path) -> None:
    """Write one conversation per line, each as soon as ``conversations``
    yields it; key order is canonical so equal datasets are byte-identical.
    The lines go to a partial file beside ``path`` that replaces it only
    once the last one is written, so a run that fails leaves no truncated
    dataset."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            for conversation in conversations:
                fh.write(
                    json.dumps(conversation.to_record(), sort_keys=True, ensure_ascii=False)
                    + "\n"
                )
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


# JSON values have exact types, so a field is checked with ``type(x) is``,
# which also keeps a boolean from passing as an integer.  Every turn and
# grounding ref of a dataset is read here, so each is type-checked in one
# expression and built in the same pass; a turn without grounding costs no
# loop at all.

def _field(record: dict, key: str, kind: type, optional: bool = False):
    """``record[key]`` if its type is ``kind``; an optional key may also be
    absent or null (None)."""
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


def _ref_from_record(record: dict) -> GroundingRef:
    review_id, ordinal = record["review_id"], record["sentence_ordinal"]
    feature, score, label = record["feature"], record["score"], record["label"]
    if not (
        type(review_id) is str and type(ordinal) is int and type(feature) is str
        and type(score) in (float, int) and type(label) is str
    ):
        raise ValueError(f"grounding ref has an ill-typed field: {record!r}")
    return GroundingRef(review_id, ordinal, feature, float(score), label)


_ILL_TYPED_TURN = "turn has an ill-typed speaker, text, act, product_id, feature or grounding"


def _turn_from_record(record) -> Turn:
    if type(record) is not dict:
        raise ValueError("turn is not an object")
    speaker, text, act = record["speaker"], record["text"], record["act"]
    product_id, feature = record.get("product_id"), record.get("feature")
    grounding = record.get("grounding", [])
    if not (
        type(speaker) is str and type(text) is str and type(act) is str
        and (product_id is None or type(product_id) is str)
        and (feature is None or type(feature) is str)
        and type(grounding) is list
    ):
        raise ValueError(_ILL_TYPED_TURN)
    refs = ()
    if grounding:
        # every ref must be an object before any ref's fields are read
        for ref in grounding:
            if type(ref) is not dict:
                raise ValueError(_ILL_TYPED_TURN)
        refs = tuple([_ref_from_record(ref) for ref in grounding])
    return Turn(speaker, text, act, product_id, feature, refs)


def conversation_from_record(record: dict) -> Conversation:
    """A conversation from its JSON record; raises ValueError, KeyError or
    OverflowError when a field is missing or of the wrong type."""
    turns = [_turn_from_record(t) for t in _field(record, "turns", list)]
    # the search turns lead; every turn after them is an evaluation turn
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
    """The conversations of a dataset file, one at a time in file order;
    a line that is not one raises SchemaViolationError naming it."""
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


@dataclass
class ValidationReport:
    conversations_checked: int = 0
    violations: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, conversation_id: str, rule: str, detail: str) -> None:
        self.violations.append((conversation_id, rule, detail))

    def to_records(self) -> list[dict]:
        return [
            {"conversation_id": cid, "rule": rule, "detail": detail}
            for cid, rule, detail in self.violations
        ]

    def summary(self) -> str:
        lines = [
            f"conversations checked: {self.conversations_checked}",
            f"violations: {len(self.violations)}",
        ]
        for cid, rule, detail in self.violations:
            lines.append(f"  {cid} [{rule}] {detail}")
        return "\n".join(lines)


def validate(
    dataset_path: str | Path,
    world: World,
    templates: Optional[list[ConversationTemplate]] = None,
) -> ValidationReport:
    """Apply all six rules to every conversation, re-deriving every check
    from the corpus world rather than trusting generator metadata.  The
    conversations are read one at a time, in file order; before its checks
    run, the world derives the products a conversation names that it has
    not derived yet (see World.cover).  The violations are sorted at the
    end, so the report does not depend on that order."""
    # each template's declared pair kinds and the act of each evaluation turn
    shapes = {
        t.id: (
            tuple(kind.value for kind in t.sequence),
            tuple(kind.act for kind in t.sequence for _ in range(2)),
        )
        for t in (templates if templates is not None else builtin_templates())
    }
    report = ValidationReport()
    for conversation in read_dataset(dataset_path):
        report.conversations_checked += 1
        world.cover(_named_products(conversation, world.store))
        for rule, detail in chain(
            _check_alternation(conversation),
            _check_template(conversation, shapes),
            _check_refs(conversation, world),
            _check_pool(conversation, world.catalog),
            _check_reuse(conversation),
        ):
            report.add(conversation.id, rule, detail)
    report.violations.sort()
    return report


def _named_products(conversation: Conversation, store: ReviewStore) -> Iterator[str]:
    """Every product a conversation names: its seed, its trajectory, each
    turn's product and the product of each grounding ref's review, so that
    a ref forged into a review of an otherwise unnamed product is checked
    against that product's sentences."""
    yield conversation.alternatives.seed_product
    yield from conversation.product_trajectory
    for turn in conversation.evaluation_turns:
        if turn.product_id is not None:
            yield turn.product_id
        for ref in turn.grounding:
            review = store.get(ref.review_id)
            if review is not None:
                yield review.product_id


def _check_alternation(conversation: Conversation) -> Iterator[tuple[str, str]]:
    turns = conversation.evaluation_turns
    if len(turns) % 2 != 0:
        yield RULE_ALTERNATION, "odd number of evaluation turns"
    for i, turn in enumerate(turns):
        expected = CUSTOMER if i % 2 == 0 else ASSISTANT
        if turn.speaker != expected:
            yield RULE_ALTERNATION, f"turn {i} spoken by {turn.speaker}, expected {expected}"


def _check_template(
    conversation: Conversation, shapes: dict[int, tuple[tuple[str, ...], tuple[str, ...]]]
) -> Iterator[tuple[str, str]]:
    shape = shapes.get(conversation.template_id)
    if shape is None:
        yield RULE_TEMPLATE, f"unknown template id {conversation.template_id}"
        return
    declared, expected_acts = shape
    traced = tuple([entry.get("kind") for entry in conversation.pair_trace])
    if traced != declared:
        yield RULE_TEMPLATE, f"pair trace {traced} != template sequence {declared}"
    acts = tuple([t.act for t in conversation.evaluation_turns])
    if acts != expected_acts:
        yield RULE_TEMPLATE, f"turn acts {acts} do not follow the template sequence"


def _check_refs(conversation: Conversation, world: World) -> Iterator[tuple[str, str]]:
    """The grounding and polarity rules, in one walk over the refs.  A ref
    that does not resolve to a sentence of a known review is a grounding
    violation only; a ref that resolves must also carry the label its
    turn requires and the score the corpus index holds for its span."""
    for i, turn in enumerate(conversation.evaluation_turns):
        labels = _LABELS_BY_ACT.get(turn.act)
        if labels is None:
            yield RULE_GROUNDING, f"turn {i}: unknown act {turn.act}"
            continue
        required = labels[0] if turn.speaker == CUSTOMER else labels[1]
        if required is None:  # a neutral question
            if turn.grounding:
                yield RULE_GROUNDING, f"turn {i}: neutral question must not carry grounding"
            continue
        if not turn.grounding:
            yield RULE_GROUNDING, f"turn {i}: opinion turn lacks grounding"
            continue
        for ref in turn.grounding:
            if ref.feature != turn.feature:
                yield RULE_GROUNDING, (
                    f"turn {i}: grounding ref feature {ref.feature!r} != "
                    f"turn feature {turn.feature!r}"
                )
            if world.store.get(ref.review_id) is None:
                yield RULE_GROUNDING, f"turn {i}: unknown review {ref.review_id}"
                continue
            review_sentences = world.sentences.get(ref.review_id, ())
            if not 0 <= ref.sentence_ordinal < len(review_sentences):
                yield RULE_GROUNDING, (
                    f"turn {i}: sentence ordinal {ref.sentence_ordinal} out of range"
                )
                continue
            if review_sentences[ref.sentence_ordinal] not in turn.text:
                yield RULE_GROUNDING, f"turn {i}: grounded sentence is not a verbatim substring"
            if ref.label != required:
                yield RULE_POLARITY, f"turn {i}: label {ref.label} != required {required}"
                continue
            identity = ref.identity
            indexed = world.index.spans_for((turn.product_id, ref.feature, required))
            # one sentence can hold the same feature twice, so one identity
            # can have several spans; the ref must carry one of their scores
            scores = [s.polarity_score for s in indexed if s.identity == identity]
            if not scores:
                yield RULE_POLARITY, (
                    f"turn {i}: corpus index has no {required} span "
                    f"{identity} for product {turn.product_id}"
                )
            elif ref.score not in scores:
                yield RULE_POLARITY, (
                    f"turn {i}: score {ref.score} is not the indexed score of span {identity}"
                )


def _check_pool(
    conversation: Conversation, catalog: ProductCatalog
) -> Iterator[tuple[str, str]]:
    trajectory = conversation.product_trajectory
    alternatives = conversation.alternatives
    if not trajectory or trajectory[0] != alternatives.seed_product:
        yield RULE_POOL, "trajectory does not start at the alternatives seed"
        return
    members = alternatives.member_set
    also_viewed: set[str] = set()
    visited: list[str] = []

    def visit(product_id: str) -> bool:
        if product_id in visited:
            return True
        if product_id not in members and product_id not in also_viewed:
            return False
        visited.append(product_id)
        product = catalog.get(product_id)
        if product is not None:
            also_viewed.update(product.also_viewed)
        return True

    visit(trajectory[0])
    for i, turn in enumerate(conversation.evaluation_turns):
        if turn.product_id is None:
            yield RULE_POOL, f"turn {i}: missing product id"
        elif not visit(turn.product_id):
            yield RULE_POOL, (
                f"turn {i}: product {turn.product_id} outside "
                "alternatives + also-viewed chain"
            )
    if tuple(visited) != trajectory:
        yield RULE_POOL, f"recorded trajectory {trajectory} != recomputed {tuple(visited)}"


def _check_reuse(conversation: Conversation) -> Iterator[tuple[str, str]]:
    seen = set()
    for turn in conversation.evaluation_turns:
        for ref in turn.grounding:
            identity = ref.identity
            if identity in seen:
                yield RULE_REUSE, f"span {identity} used twice"
            seen.add(identity)


@dataclass
class DatasetStats:
    conversations: int = 0
    per_template: dict[int, int] = field(default_factory=dict)
    per_pair_kind: dict[str, int] = field(default_factory=dict)
    mean_turns: float = 0.0
    distinct_products: int = 0
    distinct_features: int = 0
    span_reuse: int = 0

    def to_record(self) -> dict:
        return {
            "conversations": self.conversations,
            "per_template": {str(k): v for k, v in sorted(self.per_template.items())},
            "per_pair_kind": dict(sorted(self.per_pair_kind.items())),
            "mean_turns": self.mean_turns,
            "distinct_products": self.distinct_products,
            "distinct_features": self.distinct_features,
            "span_reuse": self.span_reuse,
        }

    def summary(self) -> str:
        lines = [f"conversations: {self.conversations}"]
        lines.append("per template: " + ", ".join(
            f"{k}:{v}" for k, v in sorted(self.per_template.items())
        ))
        lines.append("per pair kind: " + ", ".join(
            f"{k}:{v}" for k, v in sorted(self.per_pair_kind.items())
        ))
        lines.append(f"mean turns per conversation: {self.mean_turns:.2f}")
        lines.append(f"distinct products: {self.distinct_products}")
        lines.append(f"distinct features: {self.distinct_features}")
        lines.append(f"span reuse count: {self.span_reuse}")
        return "\n".join(lines)


def stats(dataset_path: str | Path) -> DatasetStats:
    """Aggregate counts over a dataset file, in one pass."""
    result = DatasetStats()
    products: set[str] = set()
    features: set[str] = set()
    total_turns = 0
    for conversation in read_dataset(dataset_path):
        result.conversations += 1
        result.per_template[conversation.template_id] = (
            result.per_template.get(conversation.template_id, 0) + 1
        )
        for entry in conversation.pair_trace:
            kind = entry.get("kind", "?")
            result.per_pair_kind[kind] = result.per_pair_kind.get(kind, 0) + 1
        total_turns += len(conversation.turns)
        products.update(conversation.product_trajectory)
        for turn in conversation.evaluation_turns:
            if turn.product_id:
                products.add(turn.product_id)
            if turn.feature:
                features.add(turn.feature)
        result.span_reuse += sum(1 for _ in _check_reuse(conversation))
    result.mean_turns = total_turns / result.conversations if result.conversations else 0.0
    result.distinct_products = len(products)
    result.distinct_features = len(features)
    return result
