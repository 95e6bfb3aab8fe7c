"""Opinion index contracts, checked against brute-force scans."""

import random

import pytest

from shoptalk.annotate import OpinionSpan, PolarityConfig, sentence_map
from shoptalk.errors import DanglingSpanError
from shoptalk.opinion_index import build_index, eligible_spans, features_of

from conftest import make_review, make_store


def span(review_id, ordinal, feature, score, surface=None, label=None):
    config = PolarityConfig()
    return OpinionSpan(
        review_id=review_id,
        sentence_ordinal=ordinal,
        feature_surface=surface or feature,
        feature_canonical=feature,
        polarity_score=score,
        polarity_label=label or config.label(score),
    )


def index_of(store, spans):
    return build_index(store, sentence_map(store), spans)


def tiny_store():
    reviews = [
        make_review("r1", "p1", "First. Second. Third. Fourth."),
        make_review("r2", "p1", "First. Second. Third. Fourth."),
        make_review("r3", "p2", "First. Second. Third. Fourth."),
    ]
    return make_store(reviews)


class TestBuildIndex:
    def test_empty(self):
        store = tiny_store()
        index = index_of(store, [])
        assert index.entries == {}
        assert index.feature_ranks == {}

    def test_sort_contract(self):
        store = tiny_store()
        spans = [
            span("r1", 0, "battery", 0.4),
            span("r1", 1, "battery", 0.9),
        ]
        index = index_of(store, spans)
        ranked = index.spans_for(("p1", "battery", "positive"))
        assert [s.polarity_score for s in ranked] == [0.9, 0.4]

    def test_tie_break_by_review_then_ordinal(self):
        store = tiny_store()
        spans = [
            span("r2", 0, "battery", 0.5),
            span("r1", 1, "battery", 0.5),
            span("r1", 0, "battery", -0.5),
            span("r1", 3, "battery", 0.5),
        ]
        index = index_of(store, spans)
        ranked = index.spans_for(("p1", "battery", "positive"))
        assert [(s.review_id, s.sentence_ordinal) for s in ranked] == [
            ("r1", 1), ("r1", 3), ("r2", 0),
        ]

    def test_dangling_review_rejected(self):
        store = tiny_store()
        with pytest.raises(DanglingSpanError):
            index_of(store, [span("ghost", 0, "battery", 0.5)])

    def test_dangling_sentence_rejected(self):
        store = tiny_store()
        with pytest.raises(DanglingSpanError):
            index_of(store, [span("r1", 99, "battery", 0.5)])

    def test_build_is_deterministic(self):
        store = tiny_store()
        spans = [span("r1", i % 4, f, s)
                 for i, (f, s) in enumerate([("a", 0.3), ("b", -0.2), ("a", 0.9)])]
        assert index_of(store, spans) == index_of(store, spans)

    def test_feature_ranks_match_brute_force_group_by(self):
        # derived oracle: independent group-by over a 50-span fixture
        rng = random.Random(7)
        reviews = [
            make_review(f"r{i}", f"p{i % 5}", "One. Two. Three. Four. Five.")
            for i in range(10)
        ]
        store = make_store(reviews)
        features = ["battery", "screen", "camera", "sound"]
        spans = [
            span(f"r{rng.randrange(10)}", rng.randrange(5),
                 rng.choice(features), rng.choice([-0.8, -0.3, 0.0, 0.5, 0.9]))
            for _ in range(50)
        ]
        index = index_of(store, spans)
        counts: dict[tuple, dict] = {}
        for s in spans:
            pid = store.get(s.review_id).product_id
            if s.polarity_label != "neutral":
                per_feature = counts.setdefault((pid, s.polarity_label), {})
                per_feature[s.feature_canonical] = per_feature.get(s.feature_canonical, 0) + 1
        expected = {
            key: tuple(sorted(per_feature.items(), key=lambda fc: (-fc[1], fc[0])))
            for key, per_feature in counts.items()
        }
        assert index.feature_ranks == expected
        for (pid, label), ranking in expected.items():
            assert features_of(index, pid, label) == list(ranking)


class TestQuery:
    """eligible_spans: the spans of one key, in rank order, less the used
    ones; the lookup negotiation runs for every slot."""

    def _index(self):
        store = tiny_store()
        self.spans = [
            span("r1", 0, "battery", 0.9),
            span("r1", 1, "battery", 0.5),
            span("r2", 2, "battery", 0.5),
            span("r1", 2, "battery", 0.0),
        ]
        return index_of(store, self.spans)

    def test_single_span_returned(self):
        index = self._index()
        result = eligible_spans(index, "p1", "battery", "positive", frozenset())
        assert result[0].identity == ("r1", 0, "battery")

    def test_excluding_only_span_yields_none(self):
        store = tiny_store()
        index = index_of(store, [span("r1", 0, "battery", 0.9)])
        [only] = eligible_spans(index, "p1", "battery", "positive", frozenset())
        assert eligible_spans(index, "p1", "battery", "positive", {only.identity}) == []

    def test_exclusion_advances_by_tie_break_order(self):
        index = self._index()
        first = eligible_spans(index, "p1", "battery", "positive", frozenset())[0]
        second = eligible_spans(index, "p1", "battery", "positive", {first.identity})[0]
        # hand enumeration: 0.9 first, then the 0.5 tie broken by review id
        assert first.identity == ("r1", 0, "battery")
        assert second.identity == ("r1", 1, "battery")

    def test_neutral_never_returned(self):
        index = self._index()
        exclude = {("r1", 0, "battery"), ("r1", 1, "battery"), ("r2", 2, "battery")}
        assert eligible_spans(index, "p1", "battery", "positive", exclude) == []

    def test_neutral_label_rejected(self):
        index = self._index()
        with pytest.raises(ValueError):
            eligible_spans(index, "p1", "battery", "neutral", frozenset())

    def test_query_is_pure(self):
        index = self._index()
        exclude = {("r1", 0, "battery")}
        a = eligible_spans(index, "p1", "battery", "positive", exclude)
        b = eligible_spans(index, "p1", "battery", "positive", exclude)
        assert a == b

    def test_matches_linear_scan_oracle(self):
        # randomized keys and exclusion sets vs a scan with identical rules
        rng = random.Random(21)
        reviews = [
            make_review(f"r{i}", f"p{i % 4}", "One. Two. Three. Four. Five.")
            for i in range(8)
        ]
        store = make_store(reviews)
        features = ["battery", "screen"]
        spans = [
            span(f"r{rng.randrange(8)}", rng.randrange(5), rng.choice(features),
                 round(rng.uniform(-1, 1), 2))
            for _ in range(120)
        ]
        index = index_of(store, spans)

        def oracle(pid, feature, label, exclude):
            eligible = []
            for s in spans:
                if store.get(s.review_id).product_id != pid:
                    continue
                if s.feature_canonical != feature or s.polarity_label != label:
                    continue
                if s.identity in exclude:
                    continue
                eligible.append(s)
            eligible.sort(key=lambda s: (-abs(s.polarity_score), s.review_id,
                                         s.sentence_ordinal, s.feature_surface))
            return eligible

        mismatches = 0
        for _ in range(300):
            pid = rng.choice([f"p{i}" for i in range(4)])
            feature = rng.choice(features)
            label = rng.choice(["positive", "negative"])
            excl = {
                s.identity for s in rng.sample(spans, rng.randrange(0, 20))
            }
            got = eligible_spans(index, pid, feature, label, excl)
            want = oracle(pid, feature, label, excl)
            if got != want:
                mismatches += 1
        assert mismatches == 0

    def test_exclusion_monotonicity(self):
        index = self._index()
        seen = set()
        results = []
        while True:
            result = eligible_spans(index, "p1", "battery", "positive", seen)
            if not result:
                break
            assert result[0].identity not in seen
            results.append(result[0])
            seen.add(result[0].identity)
        assert len(results) == 3


class TestFeaturesOf:
    def test_unknown_product_empty(self):
        store = tiny_store()
        index = index_of(store, [])
        assert features_of(index, "nope", "positive") == []

    def test_counts_by_hand(self):
        store = tiny_store()
        spans = [
            span("r1", 0, "battery", 0.9),
            span("r1", 1, "battery", 0.5),
            span("r1", 2, "screen", 0.4),
        ]
        index = index_of(store, spans)
        assert features_of(index, "p1", "positive") == [("battery", 2), ("screen", 1)]

    def test_label_restriction(self):
        store = tiny_store()
        spans = [span("r1", 0, "battery", 0.9)]
        index = index_of(store, spans)
        assert features_of(index, "p1", "negative") == []

    def test_name_tie_break(self):
        store = tiny_store()
        spans = [
            span("r1", 0, "screen", 0.9),
            span("r1", 1, "battery", 0.8),
        ]
        index = index_of(store, spans)
        assert features_of(index, "p1", "positive") == [("battery", 1), ("screen", 1)]

