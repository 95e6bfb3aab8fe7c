"""Sentence splitting and feature/opinion span extraction.

Spans come from either the built-in lexicon scorer or an imported
annotations file (``annotations.jsonl`` with keys review_id,
sentence_ordinal, feature, score), parsed once by read_annotations.
Imported spans override lexicon spans for the same (sentence, canonical
feature).  Both read a sentence map (review id -> tuple of sentence
texts, a sentence's ordinal being its position) that World.cover, which
derives the world of both ``generate`` and ``validate``, splits once per
batch of products; ``generate`` covers every product in one batch.

The scorer reads a sentence in one pass over its words.  Lexicons compiles
a role table, so a word costs one lookup.  A sentiment word's weight, with
its intensifier chain and negation flip, depends on the sentence alone, so
it is taken once and shared by every feature whose window holds it.  Word
offsets are computed only for the feature phrases found.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .corpus import Review, require_utf8
from .errors import (
    InvalidConfigError,
    InvalidLexiconError,
    MalformedRecordError,
    parse_json,
    read_lines,
    read_text,
)

POSITIVE = "positive"
NEGATIVE = "negative"
NEUTRAL = "neutral"

# Words that legitimately precede a period mid-sentence.  Single letters
# (initials, "e.g"-style fragments) are guarded separately.
ABBREVIATIONS = frozenset(
    "approx etc mr mrs ms dr prof vs inc ltd co corp jr sr st no fig min max".split()
)

# Words are read from an ASCII-only lowering of the text: str.lower() is
# not length-preserving on other text ("İ" lowers to two code points), so it
# would shift every later offset.  ASCII text is lowered in the same pass
# that blanks every character no word holds, so that, without an
# apostrophe, its words are what str.split() returns.
_TOKEN = re.compile(r"[a-z0-9]+(?:'[a-z]+)?")
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
_ASCII_WORDS = str.maketrans(
    {c: c.lower() if c.isalnum() or c == "'" else " " for c in map(chr, range(128))}
)

# A maximal run of sentence marks followed by a space or the end of text.
_SENTENCE_END = re.compile(r"[.!?]+(?= |\Z)")

# The lexicon scorer's reach, in words: each side of a feature phrase, and
# before a sentiment word for a negator there to flip it
WINDOW = 6
NEGATION_LOOKBACK = 3


@dataclass(frozen=True)
class PolarityConfig:
    """Label thresholds for polarity scores."""

    t_pos: float = 0.1
    t_neg: float = -0.1

    def __post_init__(self):
        if not -1.0 <= self.t_neg <= self.t_pos <= 1.0:
            raise InvalidConfigError(
                "thresholds must satisfy -1 <= t_neg <= t_pos <= 1, "
                f"got t_neg={self.t_neg}, t_pos={self.t_pos}"
            )

    def label(self, score: float) -> str:
        if score >= self.t_pos:
            return POSITIVE
        if score <= self.t_neg:
            return NEGATIVE
        return NEUTRAL


class OpinionSpan(NamedTuple):
    """One (sentence, feature) opinion: an immutable record, equal to any
    span with the same six fields."""

    review_id: str
    sentence_ordinal: int
    feature_surface: str
    feature_canonical: str
    polarity_score: float
    polarity_label: str

    @property
    def identity(self) -> tuple[str, int, str]:
        return (self.review_id, self.sentence_ordinal, self.feature_canonical)


def canonicalize_feature(term: str) -> str:
    """Lowercase and strip a trailing plural 's' from terms longer than 3
    characters ('ss' endings are kept: 'glass' stays 'glass')."""
    term = term.strip().lower()
    if len(term) > 3 and term.endswith("s") and not term.endswith("ss"):
        term = term[:-1]
    return term


@dataclass(frozen=True)
class Lexicons:
    """Scorer vocabulary, validated and compiled once at construction; the
    mappings are not copied and must not be mutated afterwards."""

    feature_terms: dict[str, str] = field(default_factory=dict)
    sentiment_terms: dict[str, float] = field(default_factory=dict)
    negators: frozenset[str] = frozenset()
    intensifiers: dict[str, float] = field(default_factory=dict)
    # feature phrase -> canonical key, for every phrase that resolves
    phrase_table: dict[str, str] = field(init=False, repr=False, compare=False)
    # word -> (length, in words, of the longest phrase starting with it or
    # 0, its sentiment weight or None), for every word that has either
    roles: dict[str, tuple[int, Optional[float]]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        for surface, canonical in self.feature_terms.items():
            if not canonical or canonical != canonical.lower():
                raise InvalidLexiconError(
                    f"canonical key for {surface!r} must be non-empty lowercase"
                )
        for term, weight in self.sentiment_terms.items():
            if not -1.0 <= weight <= 1.0:
                raise InvalidLexiconError(f"weight for {term!r} out of [-1,1]")
        for term, factor in self.intensifiers.items():
            if not (math.isfinite(factor) and factor > 0):
                raise InvalidLexiconError(f"multiplier for {term!r} must be finite and > 0")
        # A tokenized phrase resolves to a term directly, or through
        # canonicalize_feature, which at most strips one trailing "s"; so
        # only a term or a term + "s" can resolve, and the direct hit wins.
        terms = self.feature_terms
        table = {}
        for term in terms:
            for phrase in (term, term + "s"):
                key = phrase if phrase in terms else canonicalize_feature(phrase)
                if key in terms:
                    table[phrase] = terms[key]
        lengths: dict[str, int] = {}
        for phrase in table:
            words = phrase.split(" ")
            lengths[words[0]] = max(lengths.get(words[0], 0), len(words))
        roles = {
            word: (lengths.get(word, 0), self.sentiment_terms.get(word))
            for word in lengths.keys() | self.sentiment_terms.keys()
        }
        object.__setattr__(self, "phrase_table", table)
        object.__setattr__(self, "roles", roles)


def split_sentences(review: Review) -> tuple[str, ...]:
    """Split normalized review text on sentence-final . ! ? with an
    abbreviation guard; returns the sentence texts in order.  A sentence's
    ordinal is its position in the result."""
    text = review.normalized_text
    sentences = []
    start = 0
    for mark in _SENTENCE_END.finditer(text):
        end = mark.end()
        single_period = end - mark.start() == 1 and text[end - 1] == "."
        if single_period and _abbreviation_before(text, end - 1):
            continue
        sentences.append(text[start:end])  # holds its marks: never blank
        start = end + 1
    if text[start:].strip():
        sentences.append(text[start:])
    return tuple(sentences)


def _abbreviation_before(text: str, period_pos: int) -> bool:
    k = period_pos
    while k > 0 and text[k - 1].isalpha():
        k -= 1
    word = text[k:period_pos].lower()
    if not word:
        return False
    return len(word) == 1 or word in ABBREVIATIONS


def _words(text: str) -> tuple[str, list[str]]:
    """``text`` with its ASCII capitals lowered (and, if it is all ASCII,
    each character no word can hold blanked), and its words in order."""
    if text.isascii():
        lowered = text.translate(_ASCII_WORDS)
        if "'" not in lowered:
            return lowered, lowered.split()
    else:
        lowered = text.translate(_ASCII_LOWER)
    return lowered, _TOKEN.findall(lowered)


def _word_range(lowered: str, words: list[str], first: int, last: int) -> tuple[int, int]:
    """Offsets [start, end) of words first..last in ``lowered``.  Every word
    starts with a letter or digit, and no letter or digit lies between two
    words, so each word is the first occurrence of itself after the one
    before it."""
    end = 0
    for word in words[:first]:
        end = lowered.index(word, end) + len(word)
    start = end = lowered.index(words[first], end)
    for word in words[first : last + 1]:
        end = lowered.index(word, end) + len(word)
    return start, end


def extract_opinions(
    review_id: str,
    ordinal: int,
    text: str,
    lexicons: Lexicons,
    config: PolarityConfig = PolarityConfig(),
) -> list[OpinionSpan]:
    """Emit one span per feature-phrase occurrence in sentence ``ordinal``
    of review ``review_id``, scored over a word window with intensifier
    chaining and negation flipping.

    One pass over the words finds the feature phrases (longest match
    first, non-overlapping) and the effective weight of each sentiment
    word; each feature then sums, in word order, the weights in its
    window, outside its own words."""
    lowered, words = _words(text)
    roles = lexicons.roles
    intensifiers = lexicons.intensifiers
    features = []  # (first word, last word, canonical)
    weights = []  # (word, effective sentiment weight)
    resume = 0
    for i, word in enumerate(words):
        role = roles.get(word)
        if role is None:
            continue
        longest, weight = role
        if weight is not None:
            p = i - 1
            while p >= 0 and words[p] in intensifiers:
                weight *= intensifiers[words[p]]
                p -= 1
            if not lexicons.negators.isdisjoint(words[max(0, i - NEGATION_LOOKBACK) : i]):
                weight = -weight
            weights.append((i, weight))
        if longest and i >= resume:
            for n in range(min(longest, len(words) - i), 0, -1):
                canonical = lexicons.phrase_table.get(
                    " ".join(words[i : i + n]) if n > 1 else word
                )
                if canonical is not None:
                    features.append((i, i + n - 1, canonical))
                    resume = i + n
                    break
    spans = []
    for first, last, canonical in features:
        lo, hi = first - WINDOW, last + WINDOW
        total = 0.0
        for t, weight in weights:
            if lo <= t < first or last < t <= hi:
                total += weight
        if not -1.0 < total < 1.0:  # as max(-1.0, min(1.0, total)), NaN too
            total = -1.0 if total <= -1.0 else 1.0
        score = round(total, 6)
        start, end = _word_range(lowered, words, first, last)
        spans.append(
            OpinionSpan(
                review_id, ordinal, text[start:end], canonical, score, config.label(score)
            )
        )
    return spans


def sentence_map(reviews: Iterable[Review]) -> dict[str, tuple[str, ...]]:
    """Sentence texts of each review (a ReviewStore gives all of them),
    keyed by review id, in the order given."""
    return {review.id: split_sentences(review) for review in reviews}


def annotate_store(
    sentences: dict[str, tuple[str, ...]],
    lexicons: Lexicons,
    config: PolarityConfig = PolarityConfig(),
) -> list[OpinionSpan]:
    """Run the lexicon extractor over a sentence map (see sentence_map) in
    its review-id order."""
    spans: list[OpinionSpan] = []
    for review_id, texts in sentences.items():
        for ordinal, text in enumerate(texts):
            spans.extend(extract_opinions(review_id, ordinal, text, lexicons, config))
    return spans


@dataclass(frozen=True)
class Annotations:
    """An annotations file, parsed once: each well-typed record as
    (sentence ordinal, feature, score), grouped by review id in file order,
    and the number of record lines read, malformed ones included."""

    by_review: dict[str, list[tuple[int, str, float]]]
    lines: int


def read_annotations(path: str | Path, strict: bool = False) -> Annotations:
    """Parse an annotations file; a malformed record is counted in
    ``lines`` and dropped, or, with ``strict``, raises MalformedRecordError
    naming its line."""
    by_review: dict[str, list[tuple[int, str, float]]] = {}
    lines = 0
    for line_no, line in read_lines(path):
        lines += 1
        try:
            review_id, ordinal, feature, score = _annotation_fields(parse_json(line))
        except (ValueError, KeyError, TypeError) as exc:
            if strict:
                raise MalformedRecordError(line_no, str(exc)) from exc
            continue
        by_review.setdefault(review_id, []).append((ordinal, feature, score))
    return Annotations(by_review, lines)


@dataclass
class ImportResult:
    spans: list[OpinionSpan]
    skipped: int = 0
    clamped: int = 0


def import_annotations(
    annotations: Annotations,
    sentences: dict[str, tuple[str, ...]],
    config: PolarityConfig = PolarityConfig(),
) -> ImportResult:
    """Spans from the annotation records of the reviews in a sentence map.
    A record becomes a span when its sentence is in the map and holds its
    feature; out-of-range scores are clamped with a counter.  Every other
    record of the file, for a review outside the map or malformed, is
    counted as skipped.  World.cover derives each review once, so the
    records of the map's reviews are taken out of ``annotations`` here, and
    their memory is free before the spans are merged and indexed."""
    result = ImportResult(spans=[])
    for review_id, review_sentences in sentences.items():
        for ordinal, feature, score in annotations.by_review.pop(review_id, ()):
            if not 0 <= ordinal < len(review_sentences):
                continue
            surface = _locate_surface(review_sentences[ordinal], feature)
            if surface is None:
                continue
            if not -1.0 <= score <= 1.0:
                score = max(-1.0, min(1.0, score))
                result.clamped += 1
            result.spans.append(
                OpinionSpan(
                    review_id=review_id,
                    sentence_ordinal=ordinal,
                    feature_surface=surface,
                    feature_canonical=canonicalize_feature(feature),
                    polarity_score=score,
                    polarity_label=config.label(score),
                )
            )
    result.skipped = annotations.lines - len(result.spans)
    return result


def _annotation_fields(record) -> tuple[str, int, str, float]:
    """(review_id, sentence_ordinal, feature, score) of one annotation
    record, each of its JSON type and each string encoding as UTF-8;
    raises ValueError otherwise."""
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    review_id, ordinal = record["review_id"], record["sentence_ordinal"]
    feature, score = record["feature"], record["score"]
    if type(review_id) is not str:
        raise ValueError("review_id must be a string")
    if type(ordinal) is not int:  # JSON values have exact types: no bool
        raise ValueError("sentence_ordinal must be an integer")
    if type(feature) is not str:
        raise ValueError("feature must be a string")
    require_utf8("review_id", review_id)
    require_utf8("feature", feature)
    if type(score) not in (int, float):
        raise ValueError("score must be a number")
    try:
        score = float(score)
    except OverflowError:
        raise ValueError("score out of range") from None
    if math.isnan(score):
        raise ValueError("score is NaN")
    return review_id, ordinal, feature, score


def _locate_surface(text: str, feature: str) -> Optional[str]:
    """The first run of whole words of ``text`` equal to the words of
    ``feature`` (ASCII case-insensitive), verbatim; None if there is none."""
    wanted = _words(feature)[1]
    if not wanted:
        return None
    lowered, words = _words(text)
    n = len(wanted)
    for i in range(len(words) - n + 1):
        if words[i : i + n] == wanted:
            start, end = _word_range(lowered, words, i, i + n - 1)
            return text[start:end]
    return None


def merge_spans(
    lexicon_spans: list[OpinionSpan], imported_spans: list[OpinionSpan]
) -> list[OpinionSpan]:
    """Combine span lists; imported spans win identity collisions.  The
    order of the result is no contract: build_index ranks every group."""
    imported_ids = {span.identity for span in imported_spans}
    kept = [s for s in lexicon_spans if s.identity not in imported_ids]
    kept.extend(imported_spans)
    return kept


def parse_lexicons(text: str) -> Lexicons:
    """Parse sectioned ``term<TAB>value`` lexicon content.

    Sections: [features], [sentiment], [negators], [intensifiers].
    Blank lines and '#' comments are ignored; terms are lowercased.
    """
    features: dict[str, str] = {}
    sentiment: dict[str, float] = {}
    negators: set[str] = set()
    intensifiers: dict[str, float] = {}
    section = None
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].lower()
            if section not in ("features", "sentiment", "negators", "intensifiers"):
                raise InvalidLexiconError(
                    f"unknown lexicon section {section!r} at line {line_no}"
                )
            continue
        if section is None:
            raise InvalidLexiconError(f"entry before section header at line {line_no}")
        parts = raw.split("\t")
        term = parts[0].strip().lower()
        if not term:
            raise InvalidLexiconError(f"empty term at line {line_no}")
        try:
            if section == "features":
                canonical = (
                    canonicalize_feature(parts[1])
                    if len(parts) > 1 and parts[1].strip()
                    else canonicalize_feature(term)
                )
                features[term] = canonical
            elif section == "sentiment":
                sentiment[term] = float(parts[1])
            elif section == "negators":
                negators.add(term)
            elif section == "intensifiers":
                intensifiers[term] = float(parts[1])
        except (IndexError, ValueError) as exc:
            raise InvalidLexiconError(
                f"bad entry at line {line_no}: {raw.rstrip()!r}"
            ) from exc
    return Lexicons(features, sentiment, frozenset(negators), intensifiers)


def load_lexicons(path: str | Path) -> Lexicons:
    """Parse a sectioned lexicon file; see parse_lexicons."""
    return parse_lexicons(read_text(path))


def default_lexicons() -> Lexicons:
    """Lexicons bundled with the package (phone domain)."""
    from importlib.resources import files

    return parse_lexicons(
        files("shoptalk").joinpath("data/lexicon.txt").read_text(encoding="utf-8")
    )
