"""Sentence splitting and opinion extraction, cross-checked against a
brute-force scorer written independently of the production code."""

import hashlib
import json
import math
import random
import re
from importlib.resources import files

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import annotate_reference as reference
from shoptalk import annotate
from shoptalk.annotate import (
    Annotations,
    Lexicons,
    PolarityConfig,
    annotate_store,
    canonicalize_feature,
    default_lexicons,
    extract_opinions,
    import_annotations,
    load_lexicons,
    merge_spans,
    parse_lexicons,
    read_annotations,
    sentence_map,
    split_sentences,
)
from shoptalk.corpus import Product, Review
from shoptalk.errors import InvalidLexiconError, MalformedRecordError
from shoptalk.world import build_world

from conftest import (
    JSON_VALUES, NOT_LINE_ENDS, load_corpus_script, make_catalog, make_review, make_store,
    write_jsonl,
)


LEX = Lexicons(
    feature_terms={
        "battery": "battery",
        "battery life": "battery",
        "screen": "screen",
        "camera": "camera",
    },
    sentiment_terms={"good": 0.7, "bad": -0.7, "great": 0.8, "slow": -0.6},
    negators=frozenset({"not", "no"}),
    intensifiers={"pretty": 1.2, "very": 1.5},
)


def brute_force_score(text: str, feature_first: int, feature_last: int,
                      lexicons: Lexicons) -> float:
    """Re-derivation of the scoring rule with independent looping: for every
    sentiment token within the window, chain intensifiers immediately before
    it, flip the sign if any negator occurs in the lookback, then sum."""
    tokens = [m.group(0).lower() for m in re.finditer(r"[A-Za-z0-9]+(?:'[A-Za-z]+)?", text)]
    total = 0.0
    for pos, token in enumerate(tokens):
        if feature_first <= pos <= feature_last:
            continue
        if token not in lexicons.sentiment_terms:
            continue
        in_window = (
            feature_first - annotate.WINDOW <= pos <= feature_last + annotate.WINDOW
        )
        if not in_window:
            continue
        weight = lexicons.sentiment_terms[token]
        back = pos - 1
        while back >= 0 and tokens[back] in lexicons.intensifiers:
            weight = weight * lexicons.intensifiers[tokens[back]]
            back -= 1
        negated = False
        for q in range(max(0, pos - annotate.NEGATION_LOOKBACK), pos):
            if tokens[q] in lexicons.negators:
                negated = True
        if negated:
            weight = -weight
        total += weight
    return max(-1.0, min(1.0, total))


def sentence_of(text: str) -> str:
    review = make_review("r1", "p1", text)
    (sentence,) = split_sentences(review)
    return sentence


def opinions_of(text: str, config: PolarityConfig = PolarityConfig()):
    """Lexicon spans of ``text`` as the only sentence of review r1."""
    return extract_opinions("r1", 0, sentence_of(text), LEX, config)


class TestSplitSentences:
    def test_two_sentences(self):
        review = make_review("r1", "p1", "Great phone. Bad battery.")
        assert split_sentences(review) == ("Great phone.", "Bad battery.")

    def test_abbreviation_guard(self):
        review = make_review("r1", "p1", "It costs approx. 200 dollars. Nice.")
        assert split_sentences(review) == ("It costs approx. 200 dollars.", "Nice.")

    def test_empty(self):
        review = make_review("r1", "p1", "")
        assert split_sentences(review) == ()

    def test_spans_index_into_normalized_text(self):
        # the sentences rejoin into the text, so each one is the substring
        # that starts one space after the sentences before it
        review = make_review("r1", "p1", "One. Two! Three? Dr. Four and 1.5 inches.")
        sentences = split_sentences(review)
        assert sentences == ("One.", "Two!", "Three?", "Dr. Four and 1.5 inches.")
        assert " ".join(sentences) == review.normalized_text

    def test_reconstruction(self):
        review = make_review("r1", "p1", "Great phone. Bad battery! Really? Yes.")
        assert " ".join(split_sentences(review)) == review.normalized_text

    def test_trailing_fragment_without_punctuation(self):
        # possible only via a pre-normalized override
        review = make_review("r1", "p1", "x").__class__(
            id="r1", product_id="p1", normalized_text="Great. no end",
        )
        assert split_sentences(review) == ("Great.", "no end")

    def test_every_sample_corpus_span_indexes_validly(self, sample_corpus_paths):
        from shoptalk.corpus import ingest_metadata, ingest_reviews

        meta, reviews = sample_corpus_paths
        catalog = ingest_metadata(meta)
        store = ingest_reviews(reviews, catalog)
        for review_id, sentences in sentence_map(store).items():
            assert " ".join(sentences) == store.get(review_id).normalized_text


class TestExtractOpinions:
    def test_paper_style_example_hand_computed(self):
        # battery life + good(0.7) * pretty(1.2) = 0.84
        spans = opinions_of("The battery life seems to be pretty good.")
        assert len(spans) == 1
        span = spans[0]
        assert span.feature_canonical == "battery"
        assert span.feature_surface == "battery life"
        assert span.polarity_score == pytest.approx(0.84)
        assert span.polarity_label == "positive"

    def test_negation_flip(self):
        (span,) = opinions_of("The battery is not good.")
        assert span.polarity_score == pytest.approx(-0.7)
        assert span.polarity_label == "negative"

    def test_no_feature_no_spans(self):
        assert opinions_of("I bought this last week.") == []

    def test_neutral_band(self):
        (span,) = opinions_of("The battery is there.")
        assert span.polarity_label == "neutral"
        assert span.polarity_score == 0.0

    def test_one_span_per_occurrence(self):
        spans = opinions_of("The camera is good but the camera is slow.")
        assert len(spans) == 2
        assert all(sp.feature_canonical == "camera" for sp in spans)

    def test_surface_kept_verbatim(self):
        text = "Battery Life is very good."
        (span,) = opinions_of(text)
        assert span.feature_surface == "Battery Life"
        assert span.feature_surface in text

    def test_window_limit(self):
        # 'good' is 7 tokens after 'battery': outside the 6-token window
        (span,) = opinions_of("The battery on this one two three four five good.")
        assert span.polarity_score == 0.0

    @settings(max_examples=200)
    @given(
        st.lists(
            st.sampled_from(
                "battery screen camera good bad great slow not no pretty very the a is and".split()
            ),
            min_size=1,
            max_size=14,
        )
    )
    def test_matches_brute_force_scorer(self, words):
        text = " ".join(words)
        s = sentence_of(text)
        config = PolarityConfig()
        spans = extract_opinions("r1", 0, s, LEX, config)
        tokens = [m.group(0).lower() for m in re.finditer(r"[A-Za-z0-9]+(?:'[A-Za-z]+)?", s)]
        # recompute every span against the independent oracle
        feature_positions = [
            i for i, tok in enumerate(tokens) if tok in LEX.feature_terms
        ]
        assert len(spans) == len(feature_positions)
        for span, pos in zip(spans, feature_positions):
            expected = brute_force_score(s, pos, pos, LEX)
            assert span.polarity_score == pytest.approx(expected, abs=1e-6)

    def test_determinism(self):
        a = opinions_of("The battery is good and the screen is not bad.")
        b = opinions_of("The battery is good and the screen is not bad.")
        assert a == b


# Multi-word phrases, plurals that strip ("cases", "apps", "batterys"),
# plurals that must not ("oss" and "gpss" are too short, "screenss" ends in
# "ss"), and a plural that is a term of its own with another canonical key
# ("screens").
PHRASE_LEX = Lexicons(
    feature_terms={
        "battery": "battery",
        "battery life": "battery",
        "screen": "screen",
        "screens": "display",
        "touch screen": "touchscreen",
        "glass": "glass",
        "os": "os",
        "operating system": "os",
        "camera quality": "camera",
        "case": "case",
        "app": "app",
        "gps": "gps",
    },
    sentiment_terms={"good": 0.7, "bad": -0.7, "great": 0.8, "slow": -0.6, "nice": 0.3},
    negators=frozenset({"not", "no", "never"}),
    intensifiers={"pretty": 1.2, "very": 1.5, "really": 0.9},
)

# feature words, scorer words and the rest, drawn a third of the time each
PHRASE_WORDS = st.one_of(
    st.sampled_from(
        "battery Battery BATTERY batterys life lifes LIFE screen Screens screens "
        "screenss touch Touch glass Glass glasses os OS oss operating system "
        "systems camera quality qualitys case cases app apps APPS gps gpss".split()
    ),
    st.sampled_from("good bad great slow nice not no never pretty very really".split()),
    st.sampled_from("the is it don't it's 1.5 İ İİ ß é".split()),
)
SEPARATORS = [" ", " ", " ", "  ", ", ", "-", "İ", "'", "."]

# a sentence of PHRASE_WORDS, or one of words that no feature holds
SENTENCE = st.lists(
    st.tuples(PHRASE_WORDS, st.sampled_from(SEPARATORS)), min_size=1, max_size=10
).map(lambda pairs: "".join(w + sep for w, sep in pairs)) | st.lists(
    st.sampled_from("the is it don't good not very İ ß é".split()), min_size=1, max_size=6
).map(" ".join)
REVIEW_TEXT = st.lists(
    st.tuples(SENTENCE, st.sampled_from(".!?")).map("".join), min_size=1, max_size=4
).map(" ".join)
# (sentence ordinal, feature, score) records, scores outside [-1, 1] and
# opposite pairs included
ANNOTATION = st.tuples(
    st.integers(0, 3),
    st.sampled_from(["battery", "Battery Life", "screens", "touch screen", "cases",
                     "os", "keyboard"]),
    st.sampled_from([0.5, -0.5, 0.05, -0.05, 0.0, 1.5, -2.0])
    | st.floats(-1.5, 1.5).map(lambda x: round(x, 2)),
)
# other thresholds; t_pos <= 0 lets +x and -x share a label
CONFIGS = st.builds(
    lambda a, b: PolarityConfig(t_pos=max(a, b), t_neg=min(a, b)),
    st.sampled_from([-1.0, -0.7, -0.1, 0.0]),
    st.sampled_from([-0.6, -0.2, 0.0, 0.1]),
)

SPLIT_PIECES = [
    ".", "!", "?", "?!.", "..", "...", " ", " ", "  ", "approx.", "etc.", "Dr.",
    "a.", "B.", "No.", "1.5", "word", "Great", "İß", "İ.", "\n", "x",
]


class TestReferenceEquivalence:
    """The compiled annotator against the character loop and n-gram matcher
    it replaced (tests/annotate_reference.py)."""

    @settings(max_examples=400)
    @given(st.lists(st.sampled_from(SPLIT_PIECES), max_size=25).map("".join)
           | st.text(alphabet=".!? aZİß1\n", max_size=40))
    @example("It costs approx. 200. Dr. Who?! Yes... 1.5 inches. a. b.")
    @example("İ. İß.  x?! ")
    def test_split_sentences_matches_reference(self, text):
        review = Review(id="r1", product_id="p1", normalized_text=text)
        assert list(split_sentences(review)) == reference.split_sentences(review)

    @settings(max_examples=400)
    @given(
        st.lists(st.tuples(PHRASE_WORDS, st.sampled_from(SEPARATORS)),
                 max_size=16).map(lambda pairs: "".join(w + sep for w, sep in pairs)),
    )
    @example("İ Battery Life is not very good.")
    @example("The battery is not good.")
    @example("The battery is not very pretty good.")
    @example("The Screens and touch screen, OS-systems: apps; cases!")
    def test_extract_opinions_matches_reference(self, text):
        assert extract_opinions("r1", 0, text, PHRASE_LEX) == (
            reference.extract_opinions("r1", 0, text, PHRASE_LEX)
        )

    def test_phrase_table_keeps_the_plural_rule(self):
        table = PHRASE_LEX.phrase_table
        assert table["screens"] == "display"  # a direct term wins
        assert table["cases"] == "case" and table["apps"] == "app"
        assert table["battery lifes"] == "battery"
        assert "oss" not in table and "gpss" not in table  # length <= 3
        assert "glasss" not in table  # "ss" endings are kept
        assert PHRASE_LEX.roles["battery"] == (2, None)
        assert PHRASE_LEX.roles["screens"] == (1, None)
        assert PHRASE_LEX.roles["good"] == (0, 0.7)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(SENTENCE, max_size=4), min_size=1, max_size=5), CONFIGS)
    @example([["İ Battery Life is not very good, the screen and apps are bad.",
               "ß İİ é.", "Cases: the OS-systems, touch screen!"], [], ["the is it"]],
             PolarityConfig())
    def test_annotate_store_matches_reference(self, reviews, config):
        """The loop over a multi-review map, not one sentence at a time."""
        # ids out of sorted order: the map's order is the one to keep
        sentences = {f"r{9 - k}": tuple(texts) for k, texts in enumerate(reviews)}
        expected = [
            span
            for review_id, texts in sentences.items()
            for ordinal, text in enumerate(texts)
            for span in reference.extract_opinions(review_id, ordinal, text, PHRASE_LEX, config)
        ]
        assert annotate_store(sentences, PHRASE_LEX, config) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["p0", "p1", "p2"]), REVIEW_TEXT,
                      st.lists(ANNOTATION, max_size=4)),
            min_size=1, max_size=8,
        ),
        CONFIGS,
    )
    # imported +x and -x on one sentence and feature: with t_pos <= -x both
    # are positive, so they tie on the rank key within one index entry
    @example([("p0", "The battery is good. Screens!", [(0, "battery", 0.5),
                                                      (0, "battery", -0.5),
                                                      (1, "screens", 0.05)])],
             PolarityConfig(t_pos=-0.6, t_neg=-1.0))
    def test_derivation_matches_reference(self, tmp_path_factory, reviews, config):
        """The world's index against the reference split, extractor, merge
        (which sorted) and index build, with imported annotations that
        collide with lexicon spans."""
        catalog = make_catalog([Product(id=pid, title=pid) for pid in ("p0", "p1", "p2")])
        store = make_store([make_review(f"r{k}", product_id, text)
                            for k, (product_id, text, _) in enumerate(reviews)])
        records = {f"r{k}": found for k, (_, _, found) in enumerate(reviews) if found}

        def annotations():  # import_annotations takes records out of it
            return Annotations({r: list(found) for r, found in records.items()},
                               sum(map(len, records.values())))

        path = write_jsonl(tmp_path_factory.mktemp("ann") / "ann.jsonl", [
            {"review_id": r, "sentence_ordinal": ordinal, "feature": feature, "score": score}
            for r, found in records.items()
            for ordinal, feature, score in found
        ])
        index = build_world(catalog, store, PHRASE_LEX, config, path).index
        sentences = {r.id: tuple(reference.split_sentences(r)) for r in store}
        spans = [
            span
            for review_id, texts in sentences.items()
            for ordinal, text in enumerate(texts)
            for span in reference.extract_opinions(review_id, ordinal, text, PHRASE_LEX, config)
        ]
        imported = import_annotations(annotations(), sentences, config).spans
        expected = reference.build_index(
            store, sentences, reference.merge_spans(spans, imported))
        assert index.entries == expected.entries  # each entry a tuple, in order
        assert index.feature_ranks == expected.feature_ranks
        assert list(index.non_neutral_counts.items()) == (
            list(expected.non_neutral_counts.items()))


def sample_corpus_sentences(products: int) -> dict:
    """Sentence map of a generated corpus: random.Random(1), ten reviews
    for each of ``products`` products."""
    corpus = load_corpus_script()
    rng = random.Random(1)
    reviews = corpus.build_reviews(rng, corpus.build_products(rng, products))
    return sentence_map(make_store(
        [make_review(r["id"], r["product_id"], r["text"]) for r in reviews]
    ))


SPAN_FIELDS = ("review_id", "sentence_ordinal", "feature_surface",
               "feature_canonical", "polarity_score", "polarity_label")


class TestAnnotateStore:
    def test_golden_span_digest(self):
        # the spans the n-gram matcher made before the phrase table existed,
        # re-pinned when OpinionSpan lost its source field
        spans = annotate_store(sample_corpus_sentences(300), default_lexicons())
        blob = "".join(
            json.dumps([getattr(s, name) for name in SPAN_FIELDS]) + "\n" for s in spans
        )
        assert len(spans) == 7446
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "1affdb8ff202c4a0905c2a18675805bc6aa7a832af02f936c48671f1de4b74ff"
        )

    def test_never_canonicalizes_per_sentence(self, world, monkeypatch):
        lexicons = default_lexicons()
        calls = []

        def counting(term):
            calls.append(term)
            return canonicalize_feature(term)

        monkeypatch.setattr(annotate, "canonicalize_feature", counting)
        spans = annotate_store(world.sentences, lexicons)
        assert spans and calls == []


class TestLabelThresholds:
    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    def test_label_function(self, score):
        config = PolarityConfig(t_pos=0.1, t_neg=-0.1)
        label = config.label(score)
        if score >= 0.1:
            assert label == "positive"
        elif score <= -0.1:
            assert label == "negative"
        else:
            assert label == "neutral"


class TestLexiconValidation:
    def test_uppercase_canonical_rejected(self):
        with pytest.raises(InvalidLexiconError):
            Lexicons(feature_terms={"battery": "Battery"})

    def test_weight_out_of_bounds_rejected(self):
        with pytest.raises(InvalidLexiconError):
            Lexicons(sentiment_terms={"good": 1.5})

    def test_nonpositive_multiplier_rejected(self):
        with pytest.raises(InvalidLexiconError):
            Lexicons(intensifiers={"very": 0.0})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2"])
    def test_parsed_multiplier_must_be_finite_and_positive(self, value):
        with pytest.raises(InvalidLexiconError):
            parse_lexicons(f"[intensifiers]\nvery\t{value}\n")

    @settings(max_examples=300)
    @given(st.lists(
        st.sampled_from(["[features]", "[sentiment]", "[negators]", "[intensifiers]",
                         "[Nope]", "#", "", "battery", "battery\tscreen", "good\t0.5",
                         "very\tnan", "very\t1e400", "x\t-1e-400", "\tx", "İ\tİ"])
        | st.text(alphabet="[]\t#.-0123456789eaİsn ", max_size=12),
        max_size=8,
    ).map("\n".join))
    def test_any_text_parses_or_is_invalid(self, text):
        try:
            lex = parse_lexicons(text)
        except InvalidLexiconError:
            return
        assert all(math.isfinite(f) and f > 0 for f in lex.intensifiers.values())
        assert all(-1.0 <= w <= 1.0 for w in lex.sentiment_terms.values())

    def test_parse_sections(self):
        text = (
            "[features]\nbattery\tbattery\n"
            "[sentiment]\ngood\t0.5\n"
            "[negators]\nnot\n"
            "[intensifiers]\nvery\t1.5\n"
        )
        lex = parse_lexicons(text)
        assert lex.feature_terms == {"battery": "battery"}
        assert lex.sentiment_terms == {"good": 0.5}
        assert "not" in lex.negators
        assert lex.intensifiers == {"very": 1.5}

    @NOT_LINE_ENDS
    def test_lines_end_at_newline_only(self, mark):
        lex = parse_lexicons(f"[features]\nbattery{mark}life\tbattery\n")
        assert lex.feature_terms == {f"battery{mark}life": "battery"}

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_crlf_and_cr_files_load(self, tmp_path, newline):
        # a file is read with universal newlines, so its "\r" ends a line
        path = tmp_path / "lexicon.txt"
        path.write_text(
            files("shoptalk").joinpath("data/lexicon.txt").read_text(encoding="utf-8"),
            encoding="utf-8", newline=newline,
        )
        assert load_lexicons(path) == default_lexicons()

    def test_parse_rejects_unknown_section(self):
        with pytest.raises(InvalidLexiconError):
            parse_lexicons("[nope]\nx\t1\n")


class TestCanonicalize:
    def test_lowercase_and_plural_strip(self):
        assert canonicalize_feature("Speakers") == "speaker"
        assert canonicalize_feature("screen") == "screen"

    def test_short_terms_keep_s(self):
        assert canonicalize_feature("os") == "os"
        assert canonicalize_feature("gps") == "gps"

    def test_double_s_kept(self):
        assert canonicalize_feature("glass") == "glass"


class TestImportAnnotations:
    def _store(self):
        return make_store([
            make_review("r1", "p1", "The battery is good. The screen is bad."),
        ])

    def _sentences(self):
        return sentence_map(self._store())

    def test_import_existing_sentence(self, tmp_path):
        path = write_jsonl(tmp_path / "ann.jsonl", [
            {"review_id": "r1", "sentence_ordinal": 0, "feature": "battery", "score": 0.9},
        ])
        result = import_annotations(read_annotations(path), self._sentences())
        assert len(result.spans) == 1
        span = result.spans[0]
        assert span.polarity_score == 0.9
        assert span.polarity_label == "positive"
        assert span.feature_surface in "The battery is good."

    def test_out_of_range_score_clamped(self, tmp_path):
        path = write_jsonl(tmp_path / "ann.jsonl", [
            {"review_id": "r1", "sentence_ordinal": 0, "feature": "battery", "score": 1.5},
        ])
        result = import_annotations(read_annotations(path), self._sentences())
        assert result.clamped == 1
        assert result.spans[0].polarity_score == 1.0

    def test_unknown_sentence_skipped(self, tmp_path):
        path = write_jsonl(tmp_path / "ann.jsonl", [
            {"review_id": "r1", "sentence_ordinal": 9, "feature": "battery", "score": 0.5},
            {"review_id": "nope", "sentence_ordinal": 0, "feature": "battery", "score": 0.5},
        ])
        result = import_annotations(read_annotations(path), self._sentences())
        assert result.spans == []
        assert result.skipped == 2

    def test_feature_absent_from_sentence_skipped(self, tmp_path):
        path = write_jsonl(tmp_path / "ann.jsonl", [
            {"review_id": "r1", "sentence_ordinal": 0, "feature": "keyboard", "score": 0.5},
        ])
        result = import_annotations(read_annotations(path), self._sentences())
        assert result.spans == []
        assert result.skipped == 1

    @pytest.mark.parametrize("line", [
        '{"review_id": ["r1"], "sentence_ordinal": 0, "feature": "battery", "score": 0.5}',
        '{"review_id": "r1", "sentence_ordinal": 0, "feature": "battery", "score": 1%s}'
        % ("0" * 400),
        '{"review_id": "r1", "sentence_ordinal": true, "feature": "screen", "score": 0.5}',
        '{"review_id": "r1", "sentence_ordinal": "1", "feature": "screen", "score": 0.5}',
        '{"review_id": "r1", "sentence_ordinal": 0, "feature": "battery", "score": NaN}',
        '{"review_id": "r1", "sentence_ordinal": 0, "feature": 7, "score": 0.5}',
        '{"review_id": "r1", "sentence_ordinal": 0, "feature": "battery", "score": true}',
        '["r1", 0, "battery", 0.5]',
        "[" * 100_000,
        # a lone surrogate, which a JSON escape can spell, does not encode
        '{"review_id": "r1", "sentence_ordinal": 0, "feature": "battery\\ud800", "score": 0.5}',
        '{"review_id": "r1\\ud800", "sentence_ordinal": 0, "feature": "battery", "score": 0.5}',
    ], ids=["list-review-id", "score-400-digits", "ordinal-true", "ordinal-string",
            "score-nan", "feature-number", "score-true", "not-an-object",
            "nested-too-deeply", "feature-surrogate", "review-id-surrogate"])
    def test_ill_typed_record_skipped_or_named(self, tmp_path, line):
        path = tmp_path / "ann.jsonl"
        path.write_text(line + "\n")
        result = import_annotations(read_annotations(path), self._sentences())
        assert (result.spans, result.skipped, result.clamped) == ([], 1, 0)
        with pytest.raises(MalformedRecordError) as exc_info:
            import_annotations(read_annotations(path, strict=True), self._sentences())
        assert exc_info.value.line_no == 1

    @pytest.mark.parametrize("content", [b"0\r0\n", b" \r0\n"],
                             ids=["between-values", "before-a-value"])
    def test_bare_carriage_return_does_not_end_a_line(self, tmp_path, content):
        # "\r" is JSON whitespace: one record, at line 1
        path = tmp_path / "ann.jsonl"
        path.write_bytes(content)
        result = import_annotations(read_annotations(path), self._sentences())
        assert (result.spans, result.skipped) == ([], 1)
        with pytest.raises(MalformedRecordError) as exc_info:
            import_annotations(read_annotations(path, strict=True), self._sentences())
        assert exc_info.value.line_no == 1

    @settings(max_examples=300)
    @given(
        st.dictionaries(
            st.sampled_from(["review_id", "sentence_ordinal", "feature", "score"])
            | st.text(max_size=4),
            JSON_VALUES, max_size=4,
        ).map(lambda extra: {"review_id": "r1", "sentence_ordinal": 0,
                             "feature": "battery", "score": 0.5, **extra})
        | st.text(max_size=30).map(lambda text: text.replace("\n", " "))
    )
    def test_any_line_is_a_span_or_a_counted_skip(self, tmp_path_factory, line):
        path = tmp_path_factory.mktemp("ann") / "ann.jsonl"
        path.write_text((json.dumps(line) if isinstance(line, dict) else line) + "\n")
        result = import_annotations(read_annotations(path), self._sentences())
        if not path.read_text().strip():
            assert (result.spans, result.skipped) == ([], 0)
            return
        assert len(result.spans) + result.skipped == 1
        for span in result.spans:
            assert -1.0 <= span.polarity_score <= 1.0
        try:
            strict = import_annotations(
                read_annotations(path, strict=True), self._sentences()
            )
        except MalformedRecordError as exc:
            assert exc.line_no == 1 and result.skipped == 1
        else:
            assert strict.spans == result.spans

    @pytest.mark.parametrize("text, feature, surface", [
        ("The program crashed often.", "ram", None),
        ("The BATTERY is good.", "Battery", "BATTERY"),
        ("Its Battery-Life is good.", "battery life", "Battery-Life"),
        ("Batteryless phones need a battery.", "battery", "battery"),
        ("The battery is good!!!", "!!!", None),
    ], ids=["inside-a-word", "case-insensitive", "multi-word", "skips-a-longer-word",
            "feature-of-no-word"])
    def test_feature_matches_whole_words(self, tmp_path, text, feature, surface):
        sentences = sentence_map(make_store([make_review("r1", "p1", text)]))
        path = write_jsonl(tmp_path / "ann.jsonl", [
            {"review_id": "r1", "sentence_ordinal": 0, "feature": feature, "score": 0.5},
        ])
        result = import_annotations(read_annotations(path), sentences)
        assert [s.feature_surface for s in result.spans] == ([surface] if surface else [])
        assert result.skipped == (0 if surface else 1)

    def test_imported_overrides_lexicon_on_collision(self, tmp_path):
        store = self._store()
        review = store.get("r1")
        lexicon_spans = []
        for ordinal, text in enumerate(split_sentences(review)):
            lexicon_spans.extend(extract_opinions("r1", ordinal, text, LEX))
        assert any(s.feature_canonical == "battery" for s in lexicon_spans)
        path = write_jsonl(tmp_path / "ann.jsonl", [
            {"review_id": "r1", "sentence_ordinal": 0, "feature": "battery", "score": -0.9},
        ])
        imported = import_annotations(read_annotations(path), sentence_map(store)).spans
        merged = merge_spans(lexicon_spans, imported)
        battery = [s for s in merged if s.identity == ("r1", 0, "battery")]
        assert len(battery) == 1
        assert battery[0].polarity_score == -0.9
        assert battery[0].feature_surface == "battery"
