"""Sentence splitting and feature/opinion span extraction.

Spans come from either the built-in lexicon scorer or an imported
annotations file (``annotations.jsonl`` with keys review_id,
sentence_ordinal, feature, score).  Imported spans override lexicon spans
for the same (sentence, canonical feature).  Both read a sentence map
(review id -> sentences) that the caller splits once; see world.build_world.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .corpus import Review, ReviewStore, Sentence
from .errors import InvalidLexiconError, MalformedRecordError

POSITIVE = "positive"
NEGATIVE = "negative"
NEUTRAL = "neutral"

SOURCE_LEXICON = "lexicon"
SOURCE_IMPORTED = "imported"

# Words that legitimately precede a period mid-sentence.  Single letters
# (initials, "e.g"-style fragments) are guarded separately.
ABBREVIATIONS = frozenset(
    "approx etc mr mrs ms dr prof vs inc ltd co corp jr sr st no fig min max".split()
)

_TOKEN = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z]+)?")


@dataclass(frozen=True)
class PolarityConfig:
    """Thresholds and window sizes for the lexicon scorer."""

    t_pos: float = 0.1
    t_neg: float = -0.1
    window: int = 6
    negation_lookback: int = 3

    def __post_init__(self):
        if not -1.0 <= self.t_neg <= self.t_pos <= 1.0:
            raise ValueError("thresholds must satisfy -1 <= t_neg <= t_pos <= 1")
        if self.window < 1 or self.negation_lookback < 0:
            raise ValueError("window must be >= 1, negation_lookback >= 0")

    def label(self, score: float) -> str:
        if score >= self.t_pos:
            return POSITIVE
        if score <= self.t_neg:
            return NEGATIVE
        return NEUTRAL


@dataclass(frozen=True)
class OpinionSpan:
    review_id: str
    sentence_ordinal: int
    feature_surface: str
    feature_canonical: str
    polarity_score: float
    polarity_label: str
    source: str = SOURCE_LEXICON

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
    """Scorer vocabulary, validated once at construction; the mappings are
    not copied and must not be mutated afterwards."""

    feature_terms: dict[str, str] = field(default_factory=dict)
    sentiment_terms: dict[str, float] = field(default_factory=dict)
    negators: frozenset[str] = frozenset()
    intensifiers: dict[str, float] = field(default_factory=dict)
    # longest feature phrase, in tokens; bounds the phrase matcher
    max_feature_tokens: int = field(init=False, repr=False, compare=False)

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
            if factor <= 0:
                raise InvalidLexiconError(f"multiplier for {term!r} must be > 0")
        longest = max((len(term.split()) for term in self.feature_terms), default=0)
        object.__setattr__(self, "max_feature_tokens", longest)


def split_sentences(review: Review) -> list[Sentence]:
    """Split normalized review text on sentence-final . ! ? with an
    abbreviation guard; returns ordered, disjoint sentences."""
    text = review.normalized_text
    sentences: list[Sentence] = []
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
                    sentences.append(
                        Sentence(review.id, len(sentences), start, j, segment)
                    )
                start = j + 1 if not at_end else j
                i = start
                continue
        i += 1
    if start < n and text[start:].strip():
        sentences.append(Sentence(review.id, len(sentences), start, n, text[start:]))
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


def _find_features(
    tokens: list[tuple[str, int, int]], lexicons: Lexicons
) -> list[tuple[int, int, str]]:
    """Yield (first_token, last_token, canonical) for each feature-term
    occurrence, longest match first, non-overlapping."""
    matches = []
    max_n = lexicons.max_feature_tokens
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


def _score_window(
    tokens: list[tuple[str, int, int]],
    first: int,
    last: int,
    lexicons: Lexicons,
    config: PolarityConfig,
) -> float:
    lo = max(0, first - config.window)
    hi = min(len(tokens) - 1, last + config.window)
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
        lookback = range(max(0, t - config.negation_lookback), t)
        if any(tokens[q][0] in lexicons.negators for q in lookback):
            weight = -weight
        total += weight
    return max(-1.0, min(1.0, total))


def extract_opinions(
    sentence: Sentence, lexicons: Lexicons, config: PolarityConfig = PolarityConfig()
) -> list[OpinionSpan]:
    """Emit one span per feature-term occurrence, scored over a token
    window with intensifier chaining and negation flipping."""
    tokens = _tokenize(sentence.text)
    spans = []
    for first, last, canonical in _find_features(tokens, lexicons):
        surface = sentence.text[tokens[first][1] : tokens[last][2]]
        score = _score_window(tokens, first, last, lexicons, config)
        score = round(score, 6)
        spans.append(
            OpinionSpan(
                review_id=sentence.review_id,
                sentence_ordinal=sentence.ordinal,
                feature_surface=surface,
                feature_canonical=canonical,
                polarity_score=score,
                polarity_label=config.label(score),
                source=SOURCE_LEXICON,
            )
        )
    return spans


def sentence_map(store: ReviewStore) -> dict[str, list[Sentence]]:
    """Sentences of every stored review, keyed by review id."""
    return {review.id: split_sentences(review) for review in store}


def annotate_store(
    sentences: dict[str, list[Sentence]],
    lexicons: Lexicons,
    config: PolarityConfig = PolarityConfig(),
) -> list[OpinionSpan]:
    """Run the lexicon extractor over a sentence map (see sentence_map) in
    its review-id order."""
    spans: list[OpinionSpan] = []
    for review_sentences in sentences.values():
        for sentence in review_sentences:
            spans.extend(extract_opinions(sentence, lexicons, config))
    return spans


@dataclass
class ImportResult:
    spans: list[OpinionSpan]
    skipped: int = 0
    clamped: int = 0


def import_annotations(
    path: str | Path,
    sentences: dict[str, list[Sentence]],
    config: PolarityConfig = PolarityConfig(),
    strict: bool = False,
) -> ImportResult:
    """Read externally produced spans against a sentence map; records
    referencing unknown sentences (or features absent from the sentence
    text) are skipped and counted, out-of-range scores are clamped with a
    counter."""
    result = ImportResult(spans=[])
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                review_id = record["review_id"]
                ordinal = int(record["sentence_ordinal"])
                feature = str(record["feature"])
                score = float(record["score"])
            except (ValueError, KeyError, TypeError) as exc:
                if strict:
                    raise MalformedRecordError(line_no, str(exc)) from exc
                result.skipped += 1
                continue
            review_sentences = sentences.get(review_id)
            if review_sentences is None or not 0 <= ordinal < len(review_sentences):
                result.skipped += 1
                continue
            sentence = review_sentences[ordinal]
            surface = _locate_surface(sentence.text, feature)
            if surface is None:
                result.skipped += 1
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
                    source=SOURCE_IMPORTED,
                )
            )
    return result


def _locate_surface(text: str, feature: str) -> Optional[str]:
    idx = text.lower().find(feature.lower())
    if idx < 0:
        return None
    return text[idx : idx + len(feature)]


def merge_spans(
    lexicon_spans: list[OpinionSpan], imported_spans: list[OpinionSpan]
) -> list[OpinionSpan]:
    """Combine span lists; imported spans win identity collisions."""
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
    for line_no, raw in enumerate(text.splitlines(), 1):
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
    return parse_lexicons(Path(path).read_text(encoding="utf-8"))


def default_lexicons() -> Lexicons:
    """Lexicons bundled with the package (phone domain)."""
    from importlib.resources import files

    return parse_lexicons(
        files("shoptalk").joinpath("data/lexicon.txt").read_text(encoding="utf-8")
    )
