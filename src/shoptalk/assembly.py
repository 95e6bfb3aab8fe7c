"""Compose dialog pairs into full conversations.

A conversation is the Stage-2 search dialog followed by the evaluation
dialog built by folding pair instantiation over a conversation template.
Backtracking is local first (re-roll pair candidate orderings), then
global (re-roll the seed product), bounded by a retry budget.

All randomness flows through per-conversation streams derived from
(master_seed, template_id, instance ordinal), so removing one template
from a run leaves every other conversation byte-identical.

The built-in templates are the bundled ``data/templates.json``, read by
the same loader as a ``--templates`` file.  The field defaults of
GenerationSettings are the only defaults of the generation settings; the
functions below them take each setting as a required argument.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass, field
from importlib.resources import files
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .errors import (
    GenerationExhaustedError,
    InvalidConfigError,
    NoEligibleProductError,
    parse_json,
    read_text,
)
from .negotiation import DialogState, PairKind, Phrasebank, build_pair, parse_kind
from .search_dialog import AlternativesSet, generate_search_dialog, sample_seed
from .turns import Turn
from .world import World

MAX_TEMPLATE_LENGTH = 8
LOCAL_RETRIES = 5


class SeedStream:
    """Derives independent, reproducible random generators from a tuple of
    seed parts via SHA-256; immune to Python hash randomization."""

    def __init__(self, *parts):
        self._parts = tuple(str(p) for p in parts)

    def rng(self, *more) -> random.Random:
        material = ":".join(self._parts + tuple(str(p) for p in more))
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class ConversationTemplate:
    id: int
    sequence: tuple[PairKind, ...]

    def __post_init__(self):
        if not self.sequence:
            raise InvalidConfigError(f"template {self.id} has an empty sequence")
        if len(self.sequence) > MAX_TEMPLATE_LENGTH:
            raise InvalidConfigError(
                f"template {self.id} longer than {MAX_TEMPLATE_LENGTH} pairs"
            )


def builtin_templates() -> list[ConversationTemplate]:
    """The fourteen bundled conversation templates, data/templates.json."""
    return load_templates(files("shoptalk").joinpath("data/templates.json"))


def load_templates(path: str | Path) -> list[ConversationTemplate]:
    """Read template config: a JSON list of {id, pairs: [kind names]} with
    integer ids; raises InvalidConfigError naming the file and the entry."""
    try:
        data = parse_json(read_text(path))
    except ValueError as exc:
        raise InvalidConfigError(f"templates {path}: invalid JSON: {exc}") from None
    if not isinstance(data, list):
        raise InvalidConfigError(f"templates {path}: not a JSON list")
    templates = []
    for n, entry in enumerate(data):
        try:
            templates.append(_template_from_entry(entry))
        except InvalidConfigError as exc:
            raise InvalidConfigError(f"templates {path}: entry {n}: {exc}") from None
    if len({t.id for t in templates}) != len(templates):
        raise InvalidConfigError(f"templates {path}: duplicate template ids")
    return templates


def _template_from_entry(entry) -> ConversationTemplate:
    if not isinstance(entry, dict):
        raise InvalidConfigError("not a JSON object")
    template_id, names = entry.get("id"), entry.get("pairs")
    if type(template_id) is not int:  # JSON values have exact types: no bool
        raise InvalidConfigError(f"id must be an integer, got {template_id!r}")
    if type(names) is not list or any(type(n) is not str for n in names):
        raise InvalidConfigError(f"pairs must be a list of kind names, got {names!r}")
    return ConversationTemplate(template_id, tuple(parse_kind(n) for n in names))


@dataclass(frozen=True)
class Conversation:
    id: str
    template_id: int
    master_seed: int
    search_turns: tuple[Turn, ...]
    evaluation_turns: tuple[Turn, ...]
    pair_trace: tuple[dict, ...]
    product_trajectory: tuple[str, ...]
    alternatives: AlternativesSet

    @property
    def turns(self) -> tuple[Turn, ...]:
        return self.search_turns + self.evaluation_turns


@dataclass
class GenerationSettings:
    per_template: int = 10
    retry_budget: int = 25
    top_k: int = 3
    p_skip: float = 0.25
    min_opinions: int = 2

    def __post_init__(self):
        if self.per_template < 1:
            raise InvalidConfigError(f"per_template must be >= 1, got {self.per_template}")
        if self.retry_budget < 1:
            raise InvalidConfigError(f"retry_budget must be >= 1, got {self.retry_budget}")
        if self.top_k < 1:
            raise InvalidConfigError(f"top_k must be >= 1, got {self.top_k}")
        if not 0.0 <= self.p_skip <= 1.0:
            raise InvalidConfigError(f"p_skip must be in [0,1], got {self.p_skip}")
        if self.min_opinions < 0:
            raise InvalidConfigError(f"min_opinions must be >= 0, got {self.min_opinions}")


@dataclass
class GenerationReport:
    requested: int = 0
    successes: int = 0
    attempts: int = 0
    exhausted: list[dict] = field(default_factory=list)
    per_template: dict[int, int] = field(default_factory=dict)
    settings: dict = field(default_factory=dict)
    # why instances exhausted without an attempt, each cause once; printed,
    # not part of the record
    causes: list[str] = field(default_factory=list)

    def counts(self) -> dict:
        """What a range of the jobs adds to the run's report, as JSON."""
        return {
            "successes": self.successes,
            "attempts": self.attempts,
            "exhausted": self.exhausted,
            "per_template": list(self.per_template.items()),
            "causes": self.causes,
        }

    def add(self, counts: dict) -> None:
        """Add the counts of the next range of the jobs."""
        self.successes += counts["successes"]
        self.attempts += counts["attempts"]
        self.exhausted += counts["exhausted"]
        for template_id, n in counts["per_template"]:
            self.per_template[template_id] = self.per_template.get(template_id, 0) + n
        self.causes += [c for c in counts["causes"] if c not in self.causes]

    def to_record(self) -> dict:
        return {
            "requested": self.requested,
            "successes": self.successes,
            "attempts": self.attempts,
            "exhausted": self.exhausted,
            "per_template": {str(k): v for k, v in sorted(self.per_template.items())},
            "settings": self.settings,
        }


def _try_sequence(
    sequence: tuple[PairKind, ...],
    alternatives: AlternativesSet,
    world: World,
    rng: random.Random,
    phrasebank: Phrasebank,
    top_k: int,
) -> Optional[tuple[list[Turn], list[dict], tuple[str, ...]]]:
    """One attempt at the pairs of a sequence, from a fresh state: the
    evaluation turns, the pair trace and the products visited, or None when
    a pair is unsatisfiable.  The final state is checked once: products are
    only ever added to the visited ones, so that covers every pair."""
    state = DialogState.initial(alternatives)
    turns: list[Turn] = []
    trace: list[dict] = []
    for kind in sequence:
        pair = build_pair(
            kind, state, world.index, world.catalog, rng, phrasebank,
            world.sentences, top_k,
        )
        if pair is None:
            return None
        customer, assistant = pair
        turns += pair
        trace.append({
            "kind": kind.value,
            "customer": {"product_id": customer.product_id, "feature": customer.feature},
            "assistant": {"product_id": assistant.product_id, "feature": assistant.feature},
        })
    state.check(world.catalog)
    return turns, trace, tuple(state.visited_products)


def generate_conversation(
    template: ConversationTemplate,
    world: World,
    stream: SeedStream,
    *,
    phrasebank: Phrasebank,
    settings: GenerationSettings = GenerationSettings(),
    conversation_id: str = "c0",
    master_seed: int = 0,
) -> tuple[Conversation, int]:
    """Generate one conversation from a template; returns (conversation,
    attempts).  Raises GenerationExhaustedError when the retry budget is
    consumed without a satisfying assignment."""
    attempts = 0
    global_round = 0
    while True:
        try:
            seed_product = sample_seed(
                world.catalog, world.index, stream.rng("seed", global_round),
                settings.min_opinions,
            )
        except NoEligibleProductError as exc:
            raise GenerationExhaustedError(template.id, attempts) from exc
        search_turns, alternatives = generate_search_dialog(
            seed_product, world.catalog, stream.rng("search", global_round), settings.p_skip
        )
        for local_round in range(LOCAL_RETRIES):
            if attempts >= settings.retry_budget:
                raise GenerationExhaustedError(template.id, attempts)
            attempts += 1
            attempt = _try_sequence(
                template.sequence,
                alternatives,
                world,
                stream.rng("pairs", global_round, local_round),
                phrasebank,
                settings.top_k,
            )
            if attempt is not None:
                turns, trace, product_trajectory = attempt
                conversation = Conversation(
                    id=conversation_id,
                    template_id=template.id,
                    master_seed=master_seed,
                    search_turns=tuple(search_turns),
                    evaluation_turns=tuple(turns),
                    pair_trace=tuple(trace),
                    product_trajectory=product_trajectory,
                    alternatives=alternatives,
                )
                return conversation, attempts
        global_round += 1


def generate_dataset(
    templates: list[ConversationTemplate],
    master_seed: int,
    world: World,
    *,
    phrasebank: Phrasebank,
    settings: GenerationSettings = GenerationSettings(),
    jobs: Optional[Iterable[int]] = None,
) -> tuple[Iterator[Conversation], GenerationReport]:
    """Attempt settings.per_template conversations per template with
    independent per-conversation seed streams; exhaustions are reported,
    not raised.  The jobs are numbered from 0 in (template_id, instance
    ordinal) order, and ``jobs`` picks the ones to run (default: all).  The
    conversations are generated lazily, one per step of the returned
    iterator, in job order; the report is complete once the iterator is
    exhausted, and counts only the jobs run."""
    ordered = sorted(templates, key=lambda t: t.id)
    per_template = settings.per_template
    report = GenerationReport(
        requested=len(ordered) * per_template,
        settings={"master_seed": master_seed, **asdict(settings)},
    )
    if jobs is None:
        jobs = range(report.requested)

    def conversations() -> Iterator[Conversation]:
        for job in jobs:
            template, ordinal = ordered[job // per_template], job % per_template + 1
            stream = SeedStream(master_seed, "conv", template.id, ordinal)
            try:
                conversation, attempts = generate_conversation(
                    template, world, stream, phrasebank=phrasebank, settings=settings,
                    conversation_id=f"t{template.id:02d}-n{ordinal:02d}",
                    master_seed=master_seed,
                )
            except GenerationExhaustedError as exc:
                report.attempts += exc.attempts
                report.exhausted.append({
                    "template_id": template.id,
                    "ordinal": ordinal,
                    "attempts": exc.attempts,
                })
                if exc.__cause__ is not None and str(exc.__cause__) not in report.causes:
                    report.causes.append(str(exc.__cause__))
                continue
            report.attempts += attempts
            report.successes += 1
            report.per_template[template.id] = report.per_template.get(template.id, 0) + 1
            yield conversation

    return conversations(), report
