"""Reference copies of the sentence splitter and the lexicon extractor as
they were before the lexicon was compiled into a phrase table: a character
loop for the splitter, and a matcher that tries every n-gram of every token
through canonicalize_feature.  Then the span merge and the index build as
they were before the merge stopped sorting: the merge sorted every span by
(review, sentence, feature, -|score|, surface), and the index looked up
each span's review.  The production code must agree with them exactly; see
test_annotate.TestReferenceEquivalence."""

from __future__ import annotations

import re

from shoptalk.annotate import (
    ABBREVIATIONS,
    NEGATION_LOOKBACK,
    NEUTRAL,
    WINDOW,
    Lexicons,
    OpinionSpan,
    PolarityConfig,
    canonicalize_feature,
)
from shoptalk.corpus import Review, ReviewStore
from shoptalk.errors import DanglingSpanError
from shoptalk.opinion_index import OpinionIndex

_TOKEN = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z]+)?")


def split_sentences(review: Review) -> list[str]:
    text = review.normalized_text
    sentences: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in ".!?":
            j = i + 1
            while j < n and text[j] in ".!?":
                j += 1
            at_end = j >= n
            if at_end or text[j] == " ":
                if text[i] == "." and j - i == 1 and _abbreviation_before(text, i):
                    i = j
                    continue
                segment = text[start:j]
                if segment.strip():
                    sentences.append(segment)
                start = j + 1 if not at_end else j
                i = start
                continue
        i += 1
    if start < n and text[start:].strip():
        sentences.append(text[start:])
    return sentences


def _abbreviation_before(text: str, period_pos: int) -> bool:
    k = period_pos
    while k > 0 and text[k - 1].isalpha():
        k -= 1
    word = text[k:period_pos].lower()
    if not word:
        return False
    return len(word) == 1 or word in ABBREVIATIONS


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    return [(m.group(0).lower(), m.start(), m.end()) for m in _TOKEN.finditer(text)]


def _find_features(tokens, lexicons: Lexicons) -> list[tuple[int, int, str]]:
    matches = []
    max_n = max((len(term.split()) for term in lexicons.feature_terms), default=0)
    i = 0
    while i < len(tokens):
        matched = False
        for n in range(min(max_n, len(tokens) - i), 0, -1):
            phrase = " ".join(tok for tok, _, _ in tokens[i : i + n])
            key = None
            if phrase in lexicons.feature_terms:
                key = phrase
            else:
                stripped = canonicalize_feature(phrase)
                if stripped in lexicons.feature_terms:
                    key = stripped
            if key is not None:
                matches.append((i, i + n - 1, lexicons.feature_terms[key]))
                i += n
                matched = True
                break
        if not matched:
            i += 1
    return matches


def _score_window(tokens, first, last, lexicons: Lexicons) -> float:
    lo = max(0, first - WINDOW)
    hi = min(len(tokens) - 1, last + WINDOW)
    total = 0.0
    for t in range(lo, hi + 1):
        if first <= t <= last:
            continue
        token = tokens[t][0]
        weight = lexicons.sentiment_terms.get(token)
        if weight is None:
            continue
        p = t - 1
        while p >= 0 and tokens[p][0] in lexicons.intensifiers:
            weight *= lexicons.intensifiers[tokens[p][0]]
            p -= 1
        lookback = range(max(0, t - NEGATION_LOOKBACK), t)
        if any(tokens[q][0] in lexicons.negators for q in lookback):
            weight = -weight
        total += weight
    return max(-1.0, min(1.0, total))


def extract_opinions(
    review_id: str,
    ordinal: int,
    text: str,
    lexicons: Lexicons,
    config: PolarityConfig = PolarityConfig(),
) -> list[OpinionSpan]:
    tokens = _tokenize(text)
    spans = []
    for first, last, canonical in _find_features(tokens, lexicons):
        surface = text[tokens[first][1] : tokens[last][2]]
        score = round(_score_window(tokens, first, last, lexicons), 6)
        spans.append(
            OpinionSpan(
                review_id=review_id,
                sentence_ordinal=ordinal,
                feature_surface=surface,
                feature_canonical=canonical,
                polarity_score=score,
                polarity_label=config.label(score),
            )
        )
    return spans


def merge_spans(
    lexicon_spans: list[OpinionSpan], imported_spans: list[OpinionSpan]
) -> list[OpinionSpan]:
    imported_ids = {span.identity for span in imported_spans}
    kept = [s for s in lexicon_spans if s.identity not in imported_ids]
    kept.extend(imported_spans)
    kept.sort(
        key=lambda s: (
            s.review_id,
            s.sentence_ordinal,
            s.feature_canonical,
            -abs(s.polarity_score),
            s.feature_surface,
        )
    )
    return kept


def _rank_key(span: OpinionSpan):
    return (
        -abs(span.polarity_score),
        span.review_id,
        span.sentence_ordinal,
        span.feature_surface,
    )


def build_index(
    store: ReviewStore,
    sentences: dict[str, tuple[str, ...]],
    spans: list[OpinionSpan],
) -> OpinionIndex:
    grouped: dict[tuple[str, str, str], list[OpinionSpan]] = {}
    counts: dict[str, int] = {}
    for span in spans:
        review = store.get(span.review_id)
        if review is None:
            raise DanglingSpanError(span.review_id, "review not in store")
        if not 0 <= span.sentence_ordinal < len(sentences.get(span.review_id, ())):
            raise DanglingSpanError(
                span.review_id, f"sentence ordinal {span.sentence_ordinal}"
            )
        product_id = review.product_id
        key = (product_id, span.feature_canonical, span.polarity_label)
        grouped.setdefault(key, []).append(span)
        if span.polarity_label != NEUTRAL:
            counts[product_id] = counts.get(product_id, 0) + 1
    entries = {
        key: tuple(sorted(group, key=_rank_key)) for key, group in grouped.items()
    }
    features: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for (product_id, feature, label), ranked in entries.items():
        if label != NEUTRAL:
            features.setdefault((product_id, label), []).append((feature, len(ranked)))
    return OpinionIndex(
        entries=entries,
        feature_ranks={
            key: tuple(sorted(pairs, key=lambda item: (-item[1], item[0])))
            for key, pairs in features.items()
        },
        non_neutral_counts=dict(sorted(counts.items())),
    )
