"""Dataset serialization, re-derivation validation, and statistics.

One conversation per line (``dataset.jsonl``); ``schema_version`` must be
the JSON integer 1.  The validator trusts nothing from the generator:
substring and polarity checks are recomputed against a world freshly
derived from the ingested corpus, through the World.cover that derives
``generate``'s world.  It reads the dataset once and, before a
conversation's checks, covers the products of its refs' known reviews, the
only products whose derivation a check reads (see _named_products), so its
cost follows the reviews the dataset cites, not the corpus size.

Each rule is a generator of its (rule, detail) violations.  Grounding and
polarity share one walk that resolves each ref once: a ref that does not
resolve to a sentence of a known review is a grounding violation only, and
only a ref that resolves is checked for polarity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring as _string
from pathlib import Path
from typing import Iterable, Iterator, Optional, TextIO

from .assembly import Conversation, ConversationTemplate, builtin_templates
from .corpus import ProductCatalog, ReviewStore
from .errors import SchemaViolationError, lines_before, parse_json, read_lines
from .negotiation import PairKind
from .search_dialog import AlternativesSet, ProductPool
from .turns import ASSISTANT, CUSTOMER, SEARCH_ACTS, GroundingRef, Turn
from .world import World

RULE_GROUNDING = "grounding"
RULE_POLARITY = "polarity"
RULE_TEMPLATE = "template_conformance"
RULE_POOL = "product_pool"
RULE_REUSE = "span_reuse"
RULE_ALTERNATION = "alternation"

# The pair kind of each evaluation act, whose labels its turns' grounding
# must carry
_KIND_BY_ACT = {kind.act: kind for kind in PairKind}


def write_dataset(conversations: Iterable[Conversation], fh: TextIO) -> None:
    """Write one conversation per line to the text file ``fh``, each as soon
    as ``conversations`` yields it, then flush: a forked process leaves
    through os._exit, which flushes nothing.  Key order is canonical so
    equal datasets are byte-identical."""
    for conversation in conversations:
        fh.write(_conversation_line(conversation))
    fh.flush()


def append_files(fh: TextIO, files: Iterable[TextIO]) -> None:
    """Append each of ``files`` whole, in order, after what ``fh`` holds.
    ``fh`` must not be open for appending: sendfile cannot write to such a
    file."""
    fh.flush()
    for part in files:
        _append(part.fileno(), fh.fileno(), os.fstat(part.fileno()).st_size)


def _append(src: int, dst: int, size: int) -> None:
    """Copy the first ``size`` bytes of ``src`` to the position of ``dst``."""
    offset = 0
    while offset < size:
        sent = os.sendfile(dst, src, offset, size - offset)
        if sent == 0:
            raise OSError(f"file shrank while being appended: {offset} of {size} bytes")
        offset += sent


# A line is encoded straight from the records, keys in sorted order: the
# line ``json.dumps(record, sort_keys=True, ensure_ascii=False)`` writes for
# the conversation as nested dicts (the reference writer in
# tests/dataset_reference.py).  Only generation writes lines: every score is
# finite, which ``repr`` spells as json.dumps does, and every pair-trace
# entry has the one shape assembly._try_sequence builds.

def _optional(value: Optional[str]) -> str:
    return "null" if value is None else _string(value)


def _ref_json(ref: GroundingRef) -> str:
    return (
        f'{{"feature": {_string(ref.feature)}, "label": {_string(ref.label)}, '
        f'"review_id": {_string(ref.review_id)}, "score": {ref.score!r}, '
        f'"sentence_ordinal": {ref.sentence_ordinal}}}'
    )


def _turn_json(turn: Turn) -> str:
    grounding = ", ".join(map(_ref_json, turn.grounding)) if turn.grounding else ""
    return (
        f'{{"act": {_string(turn.act)}, "feature": {_optional(turn.feature)}, '
        f'"grounding": [{grounding}], "product_id": {_optional(turn.product_id)}, '
        f'"speaker": {_string(turn.speaker)}, "text": {_string(turn.text)}}}'
    )


def _side_json(side: dict) -> str:
    feature, product_id = _optional(side["feature"]), _optional(side["product_id"])
    return f'{{"feature": {feature}, "product_id": {product_id}}}'


def _trace_json(entry: dict) -> str:
    return (
        f'{{"assistant": {_side_json(entry["assistant"])}, '
        f'"customer": {_side_json(entry["customer"])}, "kind": {_string(entry["kind"])}}}'
    )


def _conversation_line(conversation: Conversation) -> str:
    alternatives = conversation.alternatives
    members = ", ".join(map(_string, alternatives.members))
    trace = ", ".join(map(_trace_json, conversation.pair_trace))
    trajectory = ", ".join(map(_string, conversation.product_trajectory))
    turns = ", ".join(map(_turn_json, conversation.search_turns + conversation.evaluation_turns))
    return (
        f'{{"alternatives": {{"members": [{members}], '
        f'"seed_product": {_string(alternatives.seed_product)}}}, '
        f'"id": {_string(conversation.id)}, "master_seed": {conversation.master_seed}, '
        f'"pair_trace": [{trace}], "product_trajectory": [{trajectory}], '
        f'"schema_version": 1, "template_id": {conversation.template_id}, '
        f'"turns": [{turns}]}}\n'
    )


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


def read_dataset(
    path: str | Path, start: int = 0, stop: Optional[int] = None
) -> Iterator[Conversation]:
    """The conversations of a dataset file, one at a time in file order,
    or of the lines that begin in its byte range [start, stop) (see
    errors.read_lines); a line that is not one raises SchemaViolationError
    naming its line of the file."""
    for line_no, line in read_lines(path, start, stop):
        try:
            record = _object(parse_json(line), "line")
            version = record.get("schema_version")
            if type(version) is not int or version != 1:
                raise ValueError(f"unsupported schema_version {version!r}")
            conversation = conversation_from_record(record)
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise SchemaViolationError(lines_before(path, start) + line_no, str(exc)) from exc
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


# Fewest dataset bytes per validating process.  On 2 vCPUs with Python
# 3.11, validating a dataset of the bundled sample in two processes against
# one (medians of six alternating runs) took 0.23 s against 0.21 s for 70
# conversations (259 kB), 0.25 s against 0.26 s for 280 (1.0 MB) and
# 0.31 s against 0.36 s for 980 (3.6 MB); 70 conversations (397 kB) of a
# 50,000-review corpus took 1.10 s either way.
MIN_RANGE_BYTES = 256 * 1024


def validate(
    dataset_path: str | Path,
    world: World,
    templates: Optional[list[ConversationTemplate]] = None,
    start: int = 0,
    stop: Optional[int] = None,
) -> ValidationReport:
    """Apply all six rules to every conversation, re-deriving every check
    from the corpus world rather than trusting generator metadata.  The
    conversations are read one at a time, in file order, from the lines
    that begin in the byte range [start, stop) (see read_dataset); before
    its checks run, the world covers the products a conversation names
    that are not covered yet (see World.cover).  No conversation's
    checks depend on another's, and the violations are sorted at the end,
    so the report does not depend on that order: the reports of ranges
    that part a dataset add up to the dataset's."""
    # each template's declared pair kinds and the act of each evaluation turn
    shapes = {
        t.id: (
            tuple(kind.value for kind in t.sequence),
            tuple(kind.act for kind in t.sequence for _ in range(2)),
        )
        for t in (templates if templates is not None else builtin_templates())
    }
    report = ValidationReport()
    for conversation in read_dataset(dataset_path, start, stop):
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
    """The product of each grounding ref's known review.  No check reads
    another product's derivation: a turn product's index entries hold
    spans of its own reviews only, so a ref into another product's review
    fails the polarity lookup whether that product is covered or not."""
    for turn in conversation.evaluation_turns:
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
        kind = _KIND_BY_ACT.get(turn.act)
        if kind is None:
            yield RULE_GROUNDING, f"turn {i}: unknown act {turn.act}"
            continue
        required = kind.label(turn.speaker)
        if required is None:  # a neutral question
            if turn.grounding:
                yield RULE_GROUNDING, f"turn {i}: neutral question must not carry grounding"
            continue
        if not turn.grounding:
            yield RULE_GROUNDING, f"turn {i}: opinion turn lacks grounding"
        for ref in turn.grounding:
            if ref.feature != turn.feature:
                yield RULE_GROUNDING, (
                    f"turn {i}: grounding ref feature {ref.feature!r} != "
                    f"turn feature {turn.feature!r}"
                )
            if world.store.get(ref.review_id) is None:
                yield RULE_GROUNDING, f"turn {i}: unknown review {ref.review_id}"
                continue
            review_sentences = world.sentences[ref.review_id]
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
    pool = ProductPool(alternatives, catalog)
    pool.visit(trajectory[0])
    for i, turn in enumerate(conversation.evaluation_turns):
        if turn.product_id is None:
            yield RULE_POOL, f"turn {i}: missing product id"
        elif turn.product_id not in pool.visited and not pool.visit(turn.product_id):
            yield RULE_POOL, (
                f"turn {i}: product {turn.product_id} outside "
                "alternatives + also-viewed chain"
            )
    recomputed = tuple(pool.visited)
    if recomputed != trajectory:
        yield RULE_POOL, f"recorded trajectory {trajectory} != recomputed {recomputed}"


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
