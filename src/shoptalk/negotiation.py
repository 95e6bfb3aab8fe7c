"""Dialog pair instantiation under the seven negotiation-tactic kinds.

A pair is one customer utterance plus the assistant's response.  Slots are
filled from the opinion index under hard constraints: grounded spans only
(no lying), no span reused within a conversation, product switches only
into the alternatives set or the current product's also-viewed list.
"""

from __future__ import annotations

import heapq
import random
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from string import Formatter
from typing import Optional

from .annotate import NEGATIVE, POSITIVE, OpinionSpan
from .corpus import ProductCatalog
from .errors import (
    InvalidConfigError, InvalidStateError, PhrasebankError, UnboundSlotError, read_text,
)
from .opinion_index import OpinionIndex, SpanIdentity, eligible_spans, features_of
from .search_dialog import AlternativesSet, ProductPool
from .turns import ASSISTANT, CUSTOMER, GroundingRef, Turn


class PairKind(Enum):
    """A pair kind and its whole contract.  Its value is its name in
    templates and pair traces; ``act`` is the act of both of its turns;
    ``customer_label`` and ``assistant_label`` are the polarities each
    turn's grounding carries (None: the neutral RequestInform question,
    which carries none); ``switches`` is what the assistant moves to,
    "product", "feature" or None for the customer's own slot."""

    REQUEST_INFORM = ("RequestInform", "request_inform", None, POSITIVE)
    DENY_DISAGREEMENT = ("DenyDisagreement", "deny_disagreement", NEGATIVE, POSITIVE)
    DENY_SWITCH_PRODUCT = (
        "DenySwitchProduct", "deny_switch_product", NEGATIVE, POSITIVE, "product")
    DENY_SWITCH_FEATURE = (
        "DenySwitchFeature", "deny_switch_feature", NEGATIVE, POSITIVE, "feature")
    SEARCH_AGREEMENT = ("SearchAgreement", "search_agreement", POSITIVE, POSITIVE)
    SEARCH_SWITCH_FEATURE = (
        "SearchSwitchFeature", "search_switch_feature", POSITIVE, POSITIVE, "feature")
    SEARCH_WARNING = ("SearchWarning", "search_warning", POSITIVE, NEGATIVE, "feature")

    def __new__(cls, value: str, act: str, customer_label: Optional[str],
                assistant_label: str, switches: Optional[str] = None):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.act = act
        kind.customer_label = customer_label
        kind.assistant_label = assistant_label
        kind.switches = switches
        return kind

    def label(self, speaker: str) -> Optional[str]:
        """The polarity the grounding of ``speaker``'s turn carries."""
        return self.customer_label if speaker == CUSTOMER else self.assistant_label


# Names accepted in template config files on top of the canonical ones.
KIND_ALIASES = {
    "denyswitchitem": PairKind.DENY_SWITCH_PRODUCT,
    "searchswitchproduct": PairKind.DENY_SWITCH_PRODUCT,
}


def parse_kind(name: str) -> PairKind:
    """Resolve a pair-kind name; tolerates dashes/spaces and the two
    documented aliases (Deny--Switch Item, Search--Switch Product)."""
    compact = re.sub(r"[\s_\-]+", "", name).lower()
    for kind in PairKind:
        if kind.value.lower() == compact:
            return kind
    if compact in KIND_ALIASES:
        return KIND_ALIASES[compact]
    raise InvalidConfigError(f"unknown pair kind {name!r}")


@dataclass(slots=True)
class DialogState:
    """The search state of one attempt at a conversation, advanced in place
    by each pair that binds; a failed attempt starts over from ``initial``.
    Switch candidates exclude the visited products, so the current product
    is the last one visited."""

    alternatives: AlternativesSet
    visited_products: list[str]
    used_spans: set[SpanIdentity]
    discussed_features: set[str]

    @classmethod
    def initial(cls, alternatives: AlternativesSet) -> "DialogState":
        return cls(alternatives, [alternatives.seed_product], set(), set())

    def advance(self, binding: PairBinding) -> None:
        if binding.customer_span is not None:
            self.used_spans.add(binding.customer_span.identity)
        self.used_spans.add(binding.assistant_span.identity)
        self.discussed_features.add(binding.feature_a)
        self.discussed_features.add(binding.feature_b)
        if binding.product_b != binding.product_a:
            self.visited_products.append(binding.product_b)

    def check(self, catalog: ProductCatalog) -> None:
        """Raise InvalidStateError unless each visited product is new and in
        the product pool of those visited before it."""
        pool = ProductPool(self.alternatives, catalog)
        for pid in self.visited_products:
            if pid in pool.visited:
                raise InvalidStateError(f"product {pid!r} visited twice")
            if not pool.visit(pid):
                raise InvalidStateError(f"visited product {pid!r} outside product pool")


@dataclass(slots=True)
class PairBinding:
    """All slots of one pair, bound but not yet realized as text."""

    kind: PairKind
    product_a: str  # product the customer speaks about
    product_b: str  # product the assistant speaks about
    feature_a: str
    feature_b: str
    customer_span: Optional[OpinionSpan]
    assistant_span: OpinionSpan


def _seeded_candidates(
    pool: list[OpinionSpan], rng: random.Random, k: int
) -> list[OpinionSpan]:
    """Shuffled top-k first (the seeded choice), remainder in rank order so
    the search stays exhaustive."""
    top = pool[: max(1, k)]
    rest = pool[len(top):]
    rng.shuffle(top)
    return top + rest


def _feature_order(
    index: OpinionIndex,
    product: str,
    label: str,
    discussed: set[str],
    rng: random.Random,
    skip: Optional[str] = None,
) -> list[str]:
    """Undiscussed features first, each group seeded-shuffled; ``skip`` is
    left out."""
    ranked = [f for f, _ in features_of(index, product, label) if f != skip]
    fresh = [f for f in ranked if f not in discussed]
    stale = [f for f in ranked if f in discussed]
    rng.shuffle(fresh)
    rng.shuffle(stale)
    return fresh + stale


def _switch_product_candidates(
    state: DialogState, catalog: ProductCatalog, index: OpinionIndex, rng: random.Random
) -> list[str]:
    """The products a switch may move to, shuffled: the alternatives set and
    the current product's also-viewed ids, less those visited, in id order
    before the shuffle.  ``members`` is sorted already, as search_dialog
    builds it, so the few also-viewed ids outside it are merged into it
    rather than the whole pool being copied and sorted again."""
    alternatives = state.alternatives
    current = catalog.get(state.visited_products[-1])
    outside = sorted(
        {pid for pid in current.also_viewed if pid not in alternatives.member_set}
        if current is not None else ()
    )
    visited = state.visited_products
    counts = index.non_neutral_counts
    candidates = [
        pid
        for pid in heapq.merge(alternatives.members, outside)
        if counts.get(pid, 0) > 0 and pid not in visited and pid in catalog
    ]
    rng.shuffle(candidates)
    return candidates


def instantiate_pair(
    kind: PairKind,
    state: DialogState,
    index: OpinionIndex,
    catalog: ProductCatalog,
    rng: random.Random,
    k: int,
) -> Optional[PairBinding]:
    """Bind all slots of one pair, or None when no assignment exists; the
    state is left as it is.

    The candidate order is seeded (features: undiscussed first; spans:
    shuffled top-k then remainder; switch targets: shuffled) and the search
    is exhaustive, so a None result means the pair is unsatisfiable in this
    state.  Every kind searches the same way; it only decides which
    (product, feature) targets the assistant may speak about.
    """
    p1 = state.visited_products[-1]
    customer_label, assistant_label = kind.customer_label, kind.assistant_label
    feature_pool_label = customer_label or assistant_label
    for fa in _feature_order(index, p1, feature_pool_label, state.discussed_features, rng):
        if customer_label is None:
            customer_options: list[Optional[OpinionSpan]] = [None]
        else:
            pool = eligible_spans(index, p1, fa, customer_label, state.used_spans)
            customer_options = _seeded_candidates(pool, rng, k)
        for customer_span in customer_options:
            used = state.used_spans
            if customer_span is not None:
                used = used | {customer_span.identity}
            if kind.switches == "product":
                candidates = _switch_product_candidates(state, catalog, index, rng)
                targets = [(p2, fa) for p2 in candidates]
            elif kind.switches == "feature":
                features = _feature_order(
                    index, p1, assistant_label, state.discussed_features, rng, skip=fa,
                )
                targets = [(p1, fb) for fb in features]
            else:
                targets = [(p1, fa)]
            for p2, fb in targets:
                pool = eligible_spans(index, p2, fb, assistant_label, used)
                if pool:
                    assistant_span = _seeded_candidates(pool, rng, k)[0]
                    return PairBinding(kind, p1, p2, fa, fb, customer_span, assistant_span)
    return None


# ---------------------------------------------------------------------------
# Surface realization


class Phrasebank:
    """Surface templates per (pair kind, speaker), loaded from a sectioned
    text file; validated up front so realization never fails on config."""

    PLACEHOLDERS = {"feature", "product_title", "opinion"}

    def __init__(self, sections: dict[tuple[str, str], list[str]]):
        self.sections = sections
        self.validate()

    def variants(self, kind: PairKind, speaker: str) -> list[str]:
        return self.sections[(kind.act, speaker)]

    def validate(self) -> None:
        for kind in PairKind:
            for speaker in (CUSTOMER, ASSISTANT):
                templates = self.sections.get((kind.act, speaker))
                if not templates:
                    raise PhrasebankError(
                        f"missing phrasebank section [{kind.act}.{speaker}]"
                    )
                needs_opinion = kind.label(speaker) is not None
                for template in templates:
                    used = _placeholders(template, f"[{kind.act}.{speaker}]")
                    unknown = used - self.PLACEHOLDERS
                    if unknown:
                        raise PhrasebankError(
                            f"unknown placeholder {unknown} in [{kind.act}.{speaker}]"
                        )
                    if needs_opinion and "opinion" not in used:
                        raise PhrasebankError(
                            f"template in [{kind.act}.{speaker}] must embed {{opinion}}"
                        )
                    if not needs_opinion and "opinion" in used:
                        raise PhrasebankError(
                            f"[{kind.act}.{speaker}] is a neutral question; "
                            "{opinion} not allowed"
                        )


_SECTIONS = {(kind.act, speaker) for kind in PairKind for speaker in (CUSTOMER, ASSISTANT)}


def _placeholders(template: str, section: str) -> set[str]:
    """Field names of a format template; each must be bare (no conversion
    or format spec), so that formatting cannot fail."""
    try:
        fields = [field[1:] for field in Formatter().parse(template) if field[1] is not None]
    except ValueError as exc:
        raise PhrasebankError(f"bad template {template!r} in {section}: {exc}") from None
    for name, spec, conversion in fields:
        if spec or conversion:
            raise PhrasebankError(f"placeholder {{{name}}} in {section} must be bare")
    return {name for name, _, _ in fields}


def parse_phrasebank(text: str) -> Phrasebank:
    sections: dict[tuple[str, str], list[str]] = {}
    current: Optional[tuple[str, str]] = None
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = tuple(line[1:-1].rsplit(".", 1))
            if current not in _SECTIONS:
                raise PhrasebankError(f"unknown section header at line {line_no}: {line}")
            sections.setdefault(current, [])
            continue
        if current is None:
            raise PhrasebankError(f"template before section header at line {line_no}")
        sections[current].append(line)
    return Phrasebank(sections)


def load_phrasebank(path: str | Path) -> Phrasebank:
    return parse_phrasebank(read_text(path))


def default_phrasebank() -> Phrasebank:
    from importlib.resources import files

    return parse_phrasebank(
        files("shoptalk").joinpath("data/phrasebank.txt").read_text(encoding="utf-8")
    )


def realize(
    binding: PairBinding,
    phrasebank: Phrasebank,
    rng: random.Random,
    catalog: ProductCatalog,
    sentences: dict[str, tuple[str, ...]],
) -> tuple[Turn, Turn]:
    """The pair's customer turn and assistant turn; each grounded sentence
    is embedded verbatim and referenced by its turn's grounding."""
    kind = binding.kind
    return (
        _turn(kind, CUSTOMER, binding.product_a, binding.feature_a, binding.customer_span,
              phrasebank, rng, catalog, sentences),
        _turn(kind, ASSISTANT, binding.product_b, binding.feature_b, binding.assistant_span,
              phrasebank, rng, catalog, sentences),
    )


def _turn(kind, speaker, product_id, feature, span, phrasebank, rng, catalog, sentences) -> Turn:
    """The one place a turn is rendered: a seeded template variant filled
    with the product's title, the feature and, for a grounded turn, its
    sentence, which the turn's one grounding ref points to."""
    template = rng.choice(phrasebank.variants(kind, speaker))
    product = catalog.get(product_id)
    opinion, grounding = "", ()
    if span is not None:
        opinion = sentences[span.review_id][span.sentence_ordinal]
        grounding = (GroundingRef(span.review_id, span.sentence_ordinal, span.feature_canonical,
                                  span.polarity_score, span.polarity_label),)
    elif kind.label(speaker) is not None:  # a grounded turn: its templates embed {opinion}
        raise UnboundSlotError(f"no span bound for [{kind.act}.{speaker}]")
    text = template.format(feature=feature, product_title=product.title, opinion=opinion)
    return Turn(speaker, text, kind.act, product_id, feature, grounding)


def build_pair(
    kind: PairKind,
    state: DialogState,
    index: OpinionIndex,
    catalog: ProductCatalog,
    rng: random.Random,
    phrasebank: Phrasebank,
    sentences: dict[str, tuple[str, ...]],
    k: int,
) -> Optional[tuple[Turn, Turn]]:
    """Instantiate and realize one pair, advancing ``state`` past it: the
    customer turn and the assistant turn, or None, with the state left as it
    is, when unsatisfiable."""
    binding = instantiate_pair(kind, state, index, catalog, rng, k)
    if binding is None:
        return None
    state.advance(binding)
    return realize(binding, phrasebank, rng, catalog, sentences)
