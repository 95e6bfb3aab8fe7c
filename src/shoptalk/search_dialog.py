"""Stage-2 information-search dialog: feature/value questions that narrow
the catalog to an alternatives set.

The four searchable features are asked in fixed order (brand, os, memory,
color); the customer answers with the seed product's value or no
preference.  Filtering is case-insensitive exact match.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .corpus import SEARCHABLE_FEATURES, ProductCatalog
from .errors import NoEligibleProductError
from .opinion_index import OpinionIndex
from .turns import ACT_SEARCH_ANSWER, ACT_SEARCH_QUESTION, ASSISTANT, CUSTOMER, Turn

QUESTION_TEXT = {
    "brand": "Do you have a preferred brand?",
    "os": "Which operating system would you like?",
    "memory": "How much memory do you need?",
    "color": "Do you have a preferred color?",
}

ANSWER_TEXT = {
    "brand": "I would like a {value} phone.",
    "os": "I prefer {value}.",
    "memory": "{value} would be good.",
    "color": "I would prefer {value}.",
}

NO_PREFERENCE_TEXT = "No preference."


@dataclass(frozen=True)
class PreferenceProfile:
    """Customer answers for the four searchable features; None means no
    preference."""

    brand: Optional[str] = None
    os: Optional[str] = None
    memory: Optional[str] = None
    color: Optional[str] = None

    def answers(self) -> list[tuple[str, Optional[str]]]:
        return [(feature, getattr(self, feature)) for feature in SEARCHABLE_FEATURES]


@dataclass(frozen=True)
class AlternativesSet:
    seed_product: str
    members: tuple[str, ...]
    # the members again, for membership tests; built once, here
    member_set: frozenset[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "member_set", frozenset(self.members))
        if self.seed_product not in self.member_set:
            raise ValueError("seed product must be a member of its alternatives set")


class ProductPool:
    """The products a conversation may visit: the members of its
    alternatives set and the also-viewed ids of each product visited so
    far.  A product outside the catalog is outside the pool.  Members are
    looked up in ``member_set`` only, never walked: the set can reach
    15,000 members."""

    def __init__(self, alternatives: AlternativesSet, catalog: ProductCatalog):
        self.members = alternatives.member_set
        self.catalog = catalog
        self.visited: list[str] = []
        self.also_viewed: set[str] = set()

    def visit(self, product_id: str) -> bool:
        """Visit ``product_id`` if it is in the pool; whether it is."""
        if product_id not in self.members and product_id not in self.also_viewed:
            return False
        product = self.catalog.get(product_id)
        if product is None:
            return False
        self.visited.append(product_id)
        self.also_viewed.update(product.also_viewed)
        return True


def sample_seed(
    catalog: ProductCatalog,
    index: OpinionIndex,
    rng: random.Random,
    min_opinions: int,
) -> str:
    """Uniform seeded choice among catalog products, in id order, with at
    least ``min_opinions`` non-neutral indexed spans.

    The index must be built from reviews of this catalog's products, as a
    ``World``'s is: then its ``non_neutral_counts``, keyed in id order,
    yields that list without walking the catalog.
    """
    if min_opinions > 0:
        eligible = [
            pid
            for pid, count in index.non_neutral_counts.items()
            if count >= min_opinions
        ]
    else:
        eligible = catalog.ids()
    if not eligible:
        raise NoEligibleProductError(
            f"no product has >= {min_opinions} non-neutral opinions"
        )
    return rng.choice(eligible)


def filter_catalog(catalog: ProductCatalog, profile: PreferenceProfile) -> set[str]:
    """Products matching every answered feature exactly under ``str.lower()``;
    a product lacking an answered field does not match."""
    matches = sorted(
        (catalog.matching(feature, wanted)
         for feature, wanted in profile.answers() if wanted is not None),
        key=len,
    )
    if not matches:
        return set(catalog.ids())
    return set(matches[0]).intersection(*matches[1:])


def generate_search_dialog(
    seed_product: str,
    catalog: ProductCatalog,
    rng: random.Random,
    p_skip: float,
) -> tuple[list[Turn], AlternativesSet]:
    """One question/answer exchange per searchable feature (8 turns); the
    customer answers with the seed's value or skips with probability
    ``p_skip``.  The seed is always a member of the result."""
    seed = catalog.get(seed_product)
    turns: list[Turn] = []
    chosen: dict[str, Optional[str]] = {}
    for feature in SEARCHABLE_FEATURES:
        value = seed.searchable_value(feature)
        if value is None or rng.random() < p_skip:
            answer_value = None
            answer_text = NO_PREFERENCE_TEXT
        else:
            answer_value = value
            answer_text = ANSWER_TEXT[feature].format(value=value)
        chosen[feature] = answer_value
        turns.append(
            Turn(
                speaker=ASSISTANT,
                text=QUESTION_TEXT[feature],
                act=ACT_SEARCH_QUESTION,
                feature=feature,
            )
        )
        turns.append(
            Turn(
                speaker=CUSTOMER,
                text=answer_text,
                act=ACT_SEARCH_ANSWER,
                feature=feature,
            )
        )
    profile = PreferenceProfile(**chosen)
    members = filter_catalog(catalog, profile)
    members.add(seed_product)
    alternatives = AlternativesSet(
        seed_product=seed_product, members=tuple(sorted(members))
    )
    return turns, alternatives
