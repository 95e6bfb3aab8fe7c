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
from .search_dialog import AlternativesSet
from .turns import ASSISTANT, CUSTOMER, GroundingRef, Turn


class PairKind(Enum):
    REQUEST_INFORM = "RequestInform"
    DENY_DISAGREEMENT = "DenyDisagreement"
    DENY_SWITCH_PRODUCT = "DenySwitchProduct"
    DENY_SWITCH_FEATURE = "DenySwitchFeature"
    SEARCH_AGREEMENT = "SearchAgreement"
    SEARCH_SWITCH_FEATURE = "SearchSwitchFeature"
    SEARCH_WARNING = "SearchWarning"

    @property
    def act(self) -> str:
        return _ACT_OF[self]


_ACT_OF = {
    PairKind.REQUEST_INFORM: "request_inform",
    PairKind.DENY_DISAGREEMENT: "deny_disagreement",
    PairKind.DENY_SWITCH_PRODUCT: "deny_switch_product",
    PairKind.DENY_SWITCH_FEATURE: "deny_switch_feature",
    PairKind.SEARCH_AGREEMENT: "search_agreement",
    PairKind.SEARCH_SWITCH_FEATURE: "search_switch_feature",
    PairKind.SEARCH_WARNING: "search_warning",
}

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


@dataclass(frozen=True)
class SlotSignature:
    """Polarity and switching contract of one pair kind."""

    customer_label: Optional[str]  # None: neutral question, no grounding
    assistant_label: str
    switches_product: bool = False
    switches_feature: bool = False


SIGNATURES = {
    PairKind.REQUEST_INFORM: SlotSignature(None, POSITIVE),
    PairKind.DENY_DISAGREEMENT: SlotSignature(NEGATIVE, POSITIVE),
    PairKind.DENY_SWITCH_PRODUCT: SlotSignature(NEGATIVE, POSITIVE, switches_product=True),
    PairKind.DENY_SWITCH_FEATURE: SlotSignature(NEGATIVE, POSITIVE, switches_feature=True),
    PairKind.SEARCH_AGREEMENT: SlotSignature(POSITIVE, POSITIVE),
    PairKind.SEARCH_SWITCH_FEATURE: SlotSignature(POSITIVE, POSITIVE, switches_feature=True),
    PairKind.SEARCH_WARNING: SlotSignature(POSITIVE, NEGATIVE, switches_feature=True),
}


@dataclass(frozen=True)
class DialogState:
    current_product: str
    alternatives: AlternativesSet
    visited_products: tuple[str, ...]
    used_spans: frozenset[SpanIdentity]
    discussed_features: frozenset[str]

    @classmethod
    def initial(cls, alternatives: AlternativesSet) -> "DialogState":
        return cls(
            current_product=alternatives.seed_product,
            alternatives=alternatives,
            visited_products=(alternatives.seed_product,),
            used_spans=frozenset(),
            discussed_features=frozenset(),
        )

    def check(self, catalog: ProductCatalog) -> None:
        if self.current_product not in self.visited_products:
            raise InvalidStateError("current product not in visited set")
        members = self.alternatives.member_set
        also_viewed: set[str] = set()
        for pid in self.visited_products:
            if pid not in members and pid not in also_viewed:
                raise InvalidStateError(f"visited product {pid!r} outside product pool")
            product = catalog.get(pid)
            if product is not None:
                also_viewed.update(product.also_viewed)


@dataclass(frozen=True)
class PairBinding:
    """All slots of one pair, bound but not yet realized as text."""

    kind: PairKind
    product_a: str  # product the customer speaks about
    product_b: str  # product the assistant speaks about
    feature_a: str
    feature_b: str
    customer_span: Optional[OpinionSpan]
    assistant_span: OpinionSpan


@dataclass(frozen=True)
class BoundPair:
    binding: PairBinding
    state_after: DialogState


@dataclass(frozen=True)
class DialogPair:
    kind: PairKind
    customer_turn: Turn
    assistant_turn: Turn
    state_after: DialogState


def _seeded_candidates(
    pool: list[OpinionSpan], rng: random.Random, k: int
) -> list[OpinionSpan]:
    """Shuffled top-k first (the seeded choice), remainder in rank order so
    the search stays exhaustive."""
    top = pool[: max(1, k)]
    rest = pool[len(top):]
    top = list(top)
    rng.shuffle(top)
    return top + rest


def _feature_order(
    index: OpinionIndex,
    product: str,
    label: str,
    discussed: frozenset[str],
    rng: random.Random,
    skip: frozenset[str] = frozenset(),
) -> list[str]:
    """Undiscussed features first, each group seeded-shuffled."""
    ranked = [f for f, _ in features_of(index, product, label) if f not in skip]
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
    current = catalog.get(state.current_product)
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
) -> Optional[BoundPair]:
    """Bind all slots of one pair, or None when no assignment exists.

    The candidate order is seeded (features: undiscussed first; spans:
    shuffled top-k then remainder; switch targets: shuffled) and the search
    is exhaustive, so a None result means the pair is unsatisfiable in this
    state.  Every kind searches the same way; it only decides which
    (product, feature) targets the assistant may speak about.
    """
    state.check(catalog)
    sig = SIGNATURES[kind]
    p1 = state.current_product
    feature_pool_label = sig.customer_label or sig.assistant_label
    for fa in _feature_order(index, p1, feature_pool_label, state.discussed_features, rng):
        if sig.customer_label is None:
            customer_options: list[Optional[OpinionSpan]] = [None]
        else:
            pool = eligible_spans(index, p1, fa, sig.customer_label, state.used_spans)
            customer_options = list(_seeded_candidates(pool, rng, k))
        for customer_span in customer_options:
            used = state.used_spans
            if customer_span is not None:
                used = used | {customer_span.identity}
            if sig.switches_product:
                candidates = _switch_product_candidates(state, catalog, index, rng)
                targets = [(p2, fa) for p2 in candidates]
            elif sig.switches_feature:
                features = _feature_order(
                    index, p1, sig.assistant_label, state.discussed_features, rng,
                    skip=frozenset({fa}),
                )
                targets = [(p1, fb) for fb in features]
            else:
                targets = [(p1, fa)]
            for p2, fb in targets:
                pool = eligible_spans(index, p2, fb, sig.assistant_label, used)
                if pool:
                    assistant_span = _seeded_candidates(pool, rng, k)[0]
                    binding = PairBinding(kind, p1, p2, fa, fb, customer_span, assistant_span)
                    return BoundPair(binding, _advance(state, binding))
    return None


def _advance(state: DialogState, binding: PairBinding) -> DialogState:
    used = set(state.used_spans)
    if binding.customer_span is not None:
        used.add(binding.customer_span.identity)
    used.add(binding.assistant_span.identity)
    discussed = set(state.discussed_features) | {binding.feature_a, binding.feature_b}
    visited = state.visited_products
    current = state.current_product
    if binding.product_b != binding.product_a:
        current = binding.product_b
        if binding.product_b not in visited:
            visited = visited + (binding.product_b,)
    return DialogState(
        current_product=current,
        alternatives=state.alternatives,
        visited_products=visited,
        used_spans=frozenset(used),
        discussed_features=frozenset(discussed),
    )


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
                needs_opinion = not (
                    kind is PairKind.REQUEST_INFORM and speaker == CUSTOMER
                )
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
    for line_no, raw in enumerate(text.splitlines(), 1):
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
) -> tuple[str, str]:
    """Render the customer and assistant texts; grounded sentences are
    embedded verbatim."""
    customer_text = _render(
        phrasebank, binding.kind, CUSTOMER, rng,
        feature=binding.feature_a,
        product_title=_title(catalog, binding.product_a),
        span=binding.customer_span,
        sentences=sentences,
    )
    assistant_text = _render(
        phrasebank, binding.kind, ASSISTANT, rng,
        feature=binding.feature_b,
        product_title=_title(catalog, binding.product_b),
        span=binding.assistant_span,
        sentences=sentences,
    )
    return customer_text, assistant_text


def _title(catalog: ProductCatalog, product_id: str) -> str:
    product = catalog.get(product_id)
    if product is None:
        raise UnboundSlotError(f"product {product_id!r} not in catalog")
    return product.title


def _render(phrasebank, kind, speaker, rng, *, feature, product_title, span, sentences):
    template = rng.choice(phrasebank.variants(kind, speaker))
    opinion = ""
    if span is not None:
        opinion = _sentence_text(sentences, span)
    elif "opinion" in _placeholders(template, f"[{kind.act}.{speaker}]"):
        raise UnboundSlotError(f"no span bound for [{kind.act}.{speaker}]")
    return template.format(feature=feature, product_title=product_title, opinion=opinion)


def _sentence_text(sentences: dict[str, tuple[str, ...]], span: OpinionSpan) -> str:
    review_sentences = sentences.get(span.review_id)
    if review_sentences is None or not 0 <= span.sentence_ordinal < len(review_sentences):
        raise UnboundSlotError(
            f"span references missing sentence {span.review_id}#{span.sentence_ordinal}"
        )
    return review_sentences[span.sentence_ordinal]


def build_pair(
    kind: PairKind,
    state: DialogState,
    index: OpinionIndex,
    catalog: ProductCatalog,
    rng: random.Random,
    phrasebank: Phrasebank,
    sentences: dict[str, tuple[str, ...]],
    k: int,
) -> Optional[DialogPair]:
    """Instantiate and realize one pair; None when unsatisfiable."""
    bound = instantiate_pair(kind, state, index, catalog, rng, k)
    if bound is None:
        return None
    binding = bound.binding
    customer_text, assistant_text = realize(binding, phrasebank, rng, catalog, sentences)
    customer_grounding = ()
    if binding.customer_span is not None:
        customer_grounding = (GroundingRef.from_span(binding.customer_span),)
    customer_turn = Turn(
        speaker=CUSTOMER,
        text=customer_text,
        act=kind.act,
        product_id=binding.product_a,
        feature=binding.feature_a,
        grounding=customer_grounding,
    )
    assistant_turn = Turn(
        speaker=ASSISTANT,
        text=assistant_text,
        act=kind.act,
        product_id=binding.product_b,
        feature=binding.feature_b,
        grounding=(GroundingRef.from_span(binding.assistant_span),),
    )
    return DialogPair(kind, customer_turn, assistant_turn, bound.state_after)
