"""Stage-2 search dialog: filtering, seeding, and the 8-turn contract."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoptalk.annotate import OpinionSpan, PolarityConfig, sentence_map
from shoptalk.corpus import SEARCHABLE_FEATURES, Product
from shoptalk.errors import NoEligibleProductError
from shoptalk.opinion_index import build_index
from shoptalk.search_dialog import (
    AlternativesSet,
    PreferenceProfile,
    filter_catalog,
    generate_search_dialog,
    sample_seed,
)
from shoptalk.turns import ASSISTANT, CUSTOMER

from conftest import make_catalog, make_review, make_store


def fixture_catalog():
    return make_catalog([
        Product(id="p1", title="S One", brand="Samsung", os="android", memory="4 GB", color="black"),
        Product(id="p2", title="S Two", brand="Samsung", os="android", memory="8 GB", color="white"),
        Product(id="p3", title="A One", brand="Apple", os="ios", memory="4 GB", color="black"),
        Product(id="p4", title="L One", brand="LG", os="android", memory="4 GB", color="black"),
        Product(id="p5", title="M One", brand="Motorola", os="android", memory="2 GB"),  # no color
        Product(id="p6", title="N One", brand="Nokia", os="windows", memory="8 GB", color="red"),
    ])


def brute_force_filter(catalog, profile):
    """Independent predicate scan over every product."""
    result = set()
    for product in catalog:
        ok = True
        for feature, wanted in profile.answers():
            if wanted is None:
                continue
            actual = getattr(product, feature)
            if actual is None or actual.lower() != wanted.lower():
                ok = False
        if ok:
            result.add(product.id)
    return result


# Values whose lowercase forms collide or nearly do; "ß" and "SS" agree
# under casefold() but not under lower(), which the filter uses.
VALUES = ["Samsung", "samsung", "SAMSUNG", "LG", "lg", "4 GB", "4 gb", "ß", "SS", "ss", "İ", "i"]
CASE_CHANGES = [str.upper, str.lower, str.swapcase, str.title]


@st.composite
def catalogs(draw, max_size=12):
    """Products with every searchable field drawn from VALUES, short
    arbitrary text, or absent; inserted in shuffled id order."""
    value = st.one_of(st.none(), st.sampled_from(VALUES), st.text(max_size=3))
    products = [
        Product(id=f"p{i:02d}", title=f"t{i}",
                **{feature: draw(value) for feature in SEARCHABLE_FEATURES})
        for i in range(draw(st.integers(0, max_size)))
    ]
    return make_catalog(draw(st.permutations(products)))


@st.composite
def catalogs_and_profiles(draw):
    """A catalog and answers that are absent, any of VALUES, or a value the
    catalog holds, possibly in another case."""
    catalog = draw(catalogs())
    answers = {}
    for feature in SEARCHABLE_FEATURES:
        held = sorted({getattr(p, feature) for p in catalog} - {None})
        choices = [st.none(), st.sampled_from(VALUES)]
        if held:
            choices.append(st.sampled_from(held))
        answer = draw(st.one_of(*choices))
        if answer is not None and draw(st.booleans()):
            answer = draw(st.sampled_from(CASE_CHANGES))(answer)
        answers[feature] = answer
    return catalog, PreferenceProfile(**answers)


class TestFilter:
    def test_all_no_preference_returns_full_catalog(self):
        catalog = fixture_catalog()
        assert filter_catalog(catalog, PreferenceProfile()) == set(catalog.ids())

    def test_brand_filter_hand_enumerated(self):
        catalog = fixture_catalog()
        got = filter_catalog(catalog, PreferenceProfile(brand="Samsung"))
        assert got == {"p1", "p2"}

    def test_missing_field_excluded(self):
        catalog = fixture_catalog()
        got = filter_catalog(catalog, PreferenceProfile(color="black"))
        assert "p5" not in got
        assert got == {"p1", "p3", "p4"}

    def test_case_insensitive(self):
        catalog = fixture_catalog()
        assert filter_catalog(catalog, PreferenceProfile(brand="samsung")) == {"p1", "p2"}

    def test_matches_brute_force_on_random_profiles(self):
        # oracle equivalence over 1000 random profiles
        catalog = fixture_catalog()
        rng = random.Random(99)
        values = {
            "brand": [None, "Samsung", "Apple", "LG", "Motorola", "Nokia", "Sony"],
            "os": [None, "android", "ios", "windows"],
            "memory": [None, "2 GB", "4 GB", "8 GB"],
            "color": [None, "black", "white", "red", "gold"],
        }
        mismatches = 0
        for _ in range(1000):
            profile = PreferenceProfile(**{
                feature: rng.choice(values[feature]) for feature in SEARCHABLE_FEATURES
            })
            if filter_catalog(catalog, profile) != brute_force_filter(catalog, profile):
                mismatches += 1
        assert mismatches == 0

    @settings(max_examples=150, deadline=None)
    @given(catalogs_and_profiles())
    def test_matches_brute_force_on_random_catalogs(self, case):
        catalog, profile = case
        assert filter_catalog(catalog, profile) == brute_force_filter(catalog, profile)

    def test_lower_not_casefold(self):
        catalog = make_catalog([Product(id="p1", title="t", brand="ß")])
        assert filter_catalog(catalog, PreferenceProfile(brand="ß")) == {"p1"}
        assert filter_catalog(catalog, PreferenceProfile(brand="SS")) == set()

    def test_monotone_under_added_constraints(self):
        catalog = fixture_catalog()
        rng = random.Random(5)
        for _ in range(200):
            base_kwargs = {
                "brand": rng.choice([None, "Samsung", "LG"]),
                "os": rng.choice([None, "android"]),
            }
            base = PreferenceProfile(**base_kwargs)
            narrowed = PreferenceProfile(**{**base_kwargs, "color": "black"})
            assert filter_catalog(catalog, narrowed) <= filter_catalog(catalog, base)


class TestSampleSeed:
    def _index(self, catalog, store, product_spans):
        config = PolarityConfig()
        spans = []
        for review_id, count in product_spans.items():
            for i in range(count):
                spans.append(OpinionSpan(
                    review_id=review_id, sentence_ordinal=0,
                    feature_surface="battery", feature_canonical="battery",
                    polarity_score=0.5, polarity_label=config.label(0.5),
                ))
        return build_index(store, sentence_map(store), spans)

    def test_forced_choice_when_one_eligible(self):
        catalog = fixture_catalog()
        store = make_store([make_review(f"r{p}", p, "battery stuff") for p in catalog.ids()])
        index = self._index(catalog, store, {"rp1": 3})
        for seed in range(5):
            assert sample_seed(catalog, index, random.Random(seed), 2) == "p1"

    def test_reproducible_per_seed(self):
        catalog = fixture_catalog()
        store = make_store([make_review(f"r{p}", p, "battery stuff") for p in catalog.ids()])
        index = self._index(catalog, store, {"rp1": 3, "rp2": 3})
        a = sample_seed(catalog, index, random.Random(11), 2)
        b = sample_seed(catalog, index, random.Random(11), 2)
        assert a == b

    def test_eligibility_matches_brute_force_span_count(self):
        catalog = fixture_catalog()
        store = make_store([make_review(f"r{p}", p, "battery stuff") for p in catalog.ids()])
        counts = {"rp1": 3, "rp2": 1, "rp3": 2, "rp4": 0, "rp5": 5, "rp6": 2}
        index = self._index(catalog, store, {k: v for k, v in counts.items() if v})
        expected_eligible = {f"p{i}" for i in range(1, 7) if counts[f"rp{i}"] >= 2}
        seen = set()
        for seed in range(200):
            seen.add(sample_seed(catalog, index, random.Random(seed), 2))
        assert seen == expected_eligible

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_choice_as_full_catalog_list(self, data):
        catalog = data.draw(catalogs(max_size=20))
        pids = catalog.ids()
        # reviews in shuffled order, so spans do not arrive in product order
        reviewed = data.draw(st.permutations(pids))[:data.draw(st.integers(0, len(pids)))]
        store = make_store([make_review(f"r-{p}", p, "battery stuff") for p in reviewed])
        config = PolarityConfig()
        spans = [
            OpinionSpan(f"r-{p}", 0, "battery", "battery", score, config.label(score))
            for p in reviewed
            for score in data.draw(st.lists(st.sampled_from([0.5, -0.5, 0.0]), max_size=4))
        ]
        index = build_index(store, sentence_map(store), spans)
        min_opinions = data.draw(st.integers(0, 3))
        seed = data.draw(st.integers(0, 2**32))
        non_neutral = {p: 0 for p in pids}
        for span in spans:
            if span.polarity_label != "neutral":
                non_neutral[store.get(span.review_id).product_id] += 1
        old_list = [p for p in sorted(pids) if non_neutral[p] >= min_opinions]
        if not old_list:
            with pytest.raises(NoEligibleProductError):
                sample_seed(catalog, index, random.Random(seed), min_opinions)
        else:
            expected = random.Random(seed).choice(old_list)
            assert sample_seed(catalog, index, random.Random(seed), min_opinions) == expected

    def test_no_eligible_product_raises(self):
        catalog = fixture_catalog()
        store = make_store([make_review("r1", "p1", "plain text")])
        index = build_index(store, sentence_map(store), [])
        with pytest.raises(NoEligibleProductError):
            sample_seed(catalog, index, random.Random(0), 1)


class TestGenerateSearchDialog:
    def test_eight_turns_fixed_order(self):
        catalog = fixture_catalog()
        turns, alternatives = generate_search_dialog("p1", catalog, random.Random(3), 0.25)
        assert len(turns) == 8
        assert [t.feature for t in turns] == [
            "brand", "brand", "os", "os", "memory", "memory", "color", "color",
        ]
        assert [t.speaker for t in turns] == [ASSISTANT, CUSTOMER] * 4
        assert alternatives.seed_product == "p1"
        assert "p1" in alternatives.members

    def test_p_skip_one_keeps_whole_catalog(self):
        catalog = fixture_catalog()
        _, alternatives = generate_search_dialog("p5", catalog, random.Random(1), p_skip=1.0)
        assert set(alternatives.members) == set(catalog.ids())

    def test_p_skip_zero_matches_brute_force_filter(self):
        catalog = fixture_catalog()
        _, alternatives = generate_search_dialog("p1", catalog, random.Random(1), p_skip=0.0)
        seed = catalog.get("p1")
        profile = PreferenceProfile(
            brand=seed.brand, os=seed.os, memory=seed.memory, color=seed.color
        )
        expected = brute_force_filter(catalog, profile) | {"p1"}
        assert set(alternatives.members) == expected

    def test_missing_value_answers_no_preference(self):
        catalog = fixture_catalog()
        turns, _ = generate_search_dialog("p5", catalog, random.Random(2), p_skip=0.0)
        color_answer = [t for t in turns if t.speaker == CUSTOMER][3]
        assert color_answer.text == "No preference."

    def test_singleton_catalog(self):
        catalog = make_catalog([Product(id="only", title="Solo", brand="X")])
        for p_skip in (0.0, 0.5, 1.0):
            _, alternatives = generate_search_dialog("only", catalog, random.Random(4), p_skip)
            assert alternatives.members == ("only",)

    def test_deterministic_per_seed(self):
        catalog = fixture_catalog()
        a = generate_search_dialog("p1", catalog, random.Random(9), 0.5)
        b = generate_search_dialog("p1", catalog, random.Random(9), 0.5)
        assert a == b


class TestAlternativesSet:
    def test_seed_must_be_member(self):
        with pytest.raises(ValueError):
            AlternativesSet(seed_product="x", members=("y",))
