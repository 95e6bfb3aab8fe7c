"""The command line over drawn inputs: every stage ends in a result or in
one error line, never in a traceback, and whatever generate writes
validates, reproduces, and is the line json.dumps writes for its record."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shoptalk.cli import DEFAULTS, main
from shoptalk.negotiation import PairKind

PRODUCT_IDS = ["B1", "B2", "B3"]
SENTENCES = [
    "The battery is great.",
    "The screen is terrible.",
    "The camera is really good.",
    "Sadly the sound turned out to be disappointing.",
    "For this price the memory is surprisingly reliable.",
    "I was really annoyed by the video.",
    "The keyboard is excellent.",
]
FEATURES = ["battery", "screen", "camera", "sound", "price", "memory", "video", "keyboard"]

# Strings that have broken some stage before, or could: a lone surrogate,
# a bare carriage return, a line separator that str.splitlines splits on,
# the empty string.
AWKWARD_STRINGS = st.sampled_from(
    ["", " ", "\ud800", "\udfff tail", "\r", "a\rb", "\u2028", "x\u2028y", "\u00dcn\u00ef"]
) | st.text(max_size=6)
AWKWARD_VALUES = AWKWARD_STRINGS | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), 10**400, -(10**30), 1.5, 0, True, None,
     [], {}, [[[["B1"]]]], {"id": "B1"}]
)
# Lines that are no record: deep nesting, non-object JSON, broken JSON.
AWKWARD_LINES = st.sampled_from([
    "[" * 5000 + "]" * 5000,
    '{"id": ' + "[" * 3000 + "]" * 3000 + ', "title": "t"}',
    "[1, 2]", '"B1"', "42", "NaN", "-Infinity", "null", "not json",
    '{"id": "B1", "title": "unterminated', "\r", "\u2028",
])


@st.composite
def json_lines(draw, records):
    """``records`` as JSON texts, after up to three awkward edits: a value
    replaced, a string value extended, or a line that is no record put in.
    A line is \\u-escaped or not; unescaped, a lone surrogate makes the file
    not UTF-8."""
    records = list(records)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["replace", "extend", "line"]))
        if edit == "line" or not records:
            records.insert(draw(st.integers(0, len(records))), draw(AWKWARD_LINES))
            continue
        n = draw(st.integers(0, len(records) - 1))
        if isinstance(records[n], str):
            continue
        key = draw(st.sampled_from(sorted(records[n]) + ["extra"]))
        value = records[n].get(key)
        if edit == "extend" and isinstance(value, str):
            value += draw(AWKWARD_STRINGS)
        else:
            value = draw(AWKWARD_VALUES)
        records[n] = {**records[n], key: value}
    return [
        r if isinstance(r, str) else json.dumps(r, ensure_ascii=draw(st.booleans()))
        for r in records
    ]


def jsonl(lines):
    return "".join(line + "\n" for line in lines)


@st.composite
def corpora(draw):
    """meta.jsonl and reviews.jsonl, a few products with reviews made of
    opinion sentences, and an annotations file or None, its records for
    drawn reviews and sentence ordinals, each naming a feature of its
    sentence if there is one; all edited awkwardly."""
    ids = draw(st.lists(st.sampled_from(PRODUCT_IDS), min_size=1, max_size=3, unique=True))
    products = [
        {
            "id": pid,
            "title": draw(st.sampled_from(["Nova 5", "Sunny X", ""])),
            "also_viewed": draw(st.lists(st.sampled_from(PRODUCT_IDS), max_size=2)),
            "brand": draw(st.sampled_from(["Samsung", "Apple"])),
            "os": draw(st.sampled_from(["android", "ios"])),
        }
        for pid in ids
    ]
    texts = [
        draw(st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=4))
        for _ in range(draw(st.integers(1, 8)))
    ]
    reviews = [
        {"id": f"r{n}", "product_id": draw(st.sampled_from(ids)), "text": " ".join(sentences)}
        for n, sentences in enumerate(texts)
    ]
    annotations = None
    if draw(st.booleans()):
        records = []
        for _ in range(draw(st.integers(0, 6))):
            n, ordinal = draw(st.integers(0, len(texts) - 1)), draw(st.integers(-1, 4))
            sentence = texts[n][ordinal].lower() if 0 <= ordinal < len(texts[n]) else ""
            records.append({
                "review_id": f"r{n}",
                "sentence_ordinal": ordinal,
                "feature": draw(st.sampled_from(
                    [f for f in FEATURES if f in sentence] or FEATURES
                )),
                "score": draw(st.floats(-1.5, 1.5)),
            })
        annotations = jsonl(draw(json_lines(records)))
    return (
        jsonl(draw(json_lines(products))), jsonl(draw(json_lines(reviews))), annotations
    )


@st.composite
def template_files(draw):
    """A templates file of up to three templates, edited awkwardly."""
    templates = [
        {"id": n, "pairs": draw(st.lists(
            st.sampled_from([kind.value for kind in PairKind]), min_size=1, max_size=3,
        ))}
        for n in range(1, draw(st.integers(1, 3)) + 1)
    ]
    return "[" + ", ".join(draw(json_lines(templates))) + "]"


BUNDLED_PHRASEBANK = files("shoptalk").joinpath("data/phrasebank.txt").read_text(
    encoding="utf-8"
)
TEMPLATE_LINES = [
    n for n, line in enumerate(BUNDLED_PHRASEBANK.split("\n"))
    if line.strip() and not line.startswith(("#", "["))
]


def awkward_words(draw, text):
    """``text`` with an awkward string put in at a word boundary, or in
    place of a word."""
    words = text.split(" ")
    at = draw(st.integers(0, len(words)))
    cut = at + 1 if at < len(words) and draw(st.booleans()) else at
    return " ".join(words[:at] + [draw(AWKWARD_STRINGS)] + words[cut:])


@st.composite
def phrasebank_files(draw):
    """The bundled phrasebank with one to three of its templates edited
    (see awkward_words)."""
    lines = BUNDLED_PHRASEBANK.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.sampled_from(TEMPLATE_LINES))
        lines[n] = awkward_words(draw, lines[n])
    return "\n".join(lines)


BUNDLED_LEXICON = files("shoptalk").joinpath("data/lexicon.txt").read_text(encoding="utf-8")


def entry_sections(text):
    """Line number -> section header, for each entry line of a lexicon."""
    sections, section = {}, None
    for n, line in enumerate(text.split("\n")):
        if line.startswith("["):
            section = line
        elif line.strip() and not line.startswith("#"):
            sections[n] = section
    return sections


ENTRY_SECTIONS = entry_sections(BUNDLED_LEXICON)
WEIGHT_LINES = [n for n, section in ENTRY_SECTIONS.items()
                if section in ("[sentiment]", "[intensifiers]")]
# out of range for a sentiment weight and for an intensifier alike
BAD_WEIGHTS = st.sampled_from(["-2", "-1.5", "1e400", "nan", "inf", "-inf"])


@st.composite
def lexicon_files(draw):
    """The bundled lexicon with one to three of its entries edited: a term
    or a value edited as a phrasebank template is (see awkward_words), or a
    weight set out of range."""
    lines = BUNDLED_LEXICON.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            n = draw(st.sampled_from(WEIGHT_LINES))
            lines[n] = lines[n].split("\t")[0] + "\t" + draw(BAD_WEIGHTS)
            continue
        n = draw(st.sampled_from(sorted(ENTRY_SECTIONS)))
        parts = lines[n].split("\t")
        at = draw(st.integers(0, len(parts) - 1))
        parts[at] = awkward_words(draw, parts[at])
        lines[n] = "\t".join(parts)
    return "\n".join(lines)


def setting_values(key):
    """A value that is valid for the config key ``key``, or an awkward one.
    A retry budget stays below 100: an unsatisfiable template runs every
    attempt the budget allows."""
    default = DEFAULTS[key]
    valid = {
        bool: st.booleans(), int: st.integers(1, 5), float: st.floats(-1, 1),
    }[type(default)]
    if key == "retry_budget":
        return valid | AWKWARD_VALUES.filter(lambda v: not isinstance(v, int) or v < 100)
    return valid | AWKWARD_VALUES


@st.composite
def config_files(draw):
    """A config file: up to three known keys, each set to a valid or an
    awkward value, and, one time in four, an unknown key."""
    keys = draw(st.lists(st.sampled_from(sorted(DEFAULTS)), max_size=3, unique=True))
    config = {key: draw(setting_values(key)) for key in keys}
    if draw(st.integers(0, 3)) == 0:
        config[draw(AWKWARD_STRINGS.filter(lambda k: k not in DEFAULTS))] = 1
    return json.dumps(config, ensure_ascii=draw(st.booleans()))


def run(*argv):
    """``main(argv)``: its exit code, which must be 0 or 1, with at most one
    error line on stderr, and that only on failure."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main(list(argv))
    errors = stderr.getvalue().splitlines()
    assert code in (0, 1)
    if code == 0:
        assert errors == []
    else:
        assert len(errors) <= 1
        assert all(e.startswith(("error: ", "io error: ")) for e in errors), errors
    return code


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    corpus=corpora(),
    templates=st.none() | template_files() | AWKWARD_LINES,
    phrasebank=st.none() | phrasebank_files(),
    lexicon=st.none() | lexicon_files(),
    config=st.none() | config_files(),
    strict=st.booleans(),
    seed=st.integers(0, 3),
)
def test_ingest_generate_validate_stats(corpus, templates, phrasebank, lexicon, config,
                                        strict, seed):
    meta, reviews, annotations = corpus
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "meta.jsonl").write_text(meta, encoding="utf-8", errors="surrogatepass")
        (tmp / "reviews.jsonl").write_text(reviews, encoding="utf-8", errors="surrogatepass")
        config_args = []
        if config is not None:
            (tmp / "config.json").write_text(config, encoding="utf-8", errors="surrogatepass")
            config_args = ["--config", str(tmp / "config.json")]
        snapshot = str(tmp / "snapshot")
        if run("ingest", "--meta", str(tmp / "meta.jsonl"),
               "--reviews", str(tmp / "reviews.jsonl"), "--out", snapshot, *config_args):
            return
        shared_args = list(config_args)
        if templates is not None:
            (tmp / "templates.json").write_text(
                templates, encoding="utf-8", errors="surrogatepass"
            )
            shared_args += ["--templates", str(tmp / "templates.json")]
        if annotations is not None:
            (tmp / "annotations.jsonl").write_text(
                annotations, encoding="utf-8", errors="surrogatepass"
            )
            shared_args += ["--annotations", str(tmp / "annotations.jsonl")]
        if lexicon is not None:
            (tmp / "lexicon.txt").write_text(lexicon, encoding="utf-8", errors="surrogatepass")
            shared_args += ["--lexicon", str(tmp / "lexicon.txt")]
        generate_args = []
        if phrasebank is not None:
            (tmp / "phrasebank.txt").write_text(
                phrasebank, encoding="utf-8", errors="surrogatepass"
            )
            generate_args = ["--phrasebank", str(tmp / "phrasebank.txt")]

        outputs = []
        for name in ("first", "again"):
            out = tmp / name
            code = run("generate", "--snapshot", snapshot, "--out", str(out),
                       "--seed", str(seed), "--per-template", "1", *shared_args,
                       *generate_args, *(["--strict"] if strict else []))
            outputs.append(
                None if code else
                ((out / "dataset.jsonl").read_bytes(), (out / "report.json").read_bytes())
            )
        assert outputs[0] == outputs[1]
        if outputs[0] is None:
            return
        for line in outputs[0][0].splitlines(keepends=True):
            line = line.decode("utf-8")
            assert line == json.dumps(json.loads(line), sort_keys=True, ensure_ascii=False) + "\n"

        dataset = str(tmp / "first" / "dataset.jsonl")
        assert run("validate", "--dataset", dataset, "--snapshot", snapshot,
                   "--out", str(tmp / "violations.jsonl"), *shared_args) == 0
        assert (tmp / "violations.jsonl").read_text() == ""
        assert run("stats", "--dataset", dataset) == 0
